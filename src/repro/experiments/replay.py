"""Replay a job-scheduler trace window onto the simulated I/O stack.

The paper motivates CALCioM with machine-level statistics (Fig 1) and
evaluates it with controlled two-application experiments.  This module
closes the loop between the two: take a window of an SWF trace (real or
synthetic), turn every job into a periodic-writer application, run them
all on one simulated platform under a coordination strategy, and measure
machine-wide efficiency.

Scaling: trace jobs run on up to 131072 cores while the simulated file
systems are calibrated for hundreds; ``core_scale`` divides job sizes
(bandwidth shares are ratios, so shapes survive scaling), and the phase
volume/pacing parameters set each job's I/O duty cycle — the paper's µ.

The incremental allocation kernel makes many-application windows (50-500
concurrent jobs) tractable: :func:`replay_spec` builds the window as a
single declarative :class:`~repro.experiments.spec.ExperimentSpec`, so
replays compose with :class:`~repro.experiments.engine.ExperimentEngine`
campaigns, executors and perf counters like any other experiment — the
``swf-replay`` scenario in :mod:`repro.experiments.scenarios` is exactly
that.  :func:`replay_result` plans and runs a window in one call and
returns the uniform :class:`~repro.experiments.engine.ExperimentResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..apps import IORConfig
from ..mpisim import Contiguous
from ..platforms import PlatformConfig
from ..traces import JobIOModel, SWFTrace
from .engine import ExperimentResult, default_engine
from .spec import ExperimentSpec

__all__ = ["ReplayPlan", "plan_replay", "replay_spec", "replay_result"]


@dataclass(frozen=True)
class ReplayPlan:
    """The applications a trace window maps to."""

    configs: Tuple[IORConfig, ...]
    window: Tuple[float, float]
    core_scale: int


def plan_replay(trace: SWFTrace, window: Tuple[float, float],
                core_scale: int = 256,
                bytes_per_process: int = 16_000_000,
                phases_per_job: int = 4,
                max_jobs: Optional[int] = None,
                min_procs: int = 1,
                io_model: Optional[JobIOModel] = None,
                io_seed: int = 0) -> ReplayPlan:
    """Map the jobs active in ``window`` to IOR-like workloads.

    Each job becomes a periodic writer: ``phases_per_job`` I/O phases
    spread evenly over the job's in-window runtime.  Pick the phase volume
    so a standalone phase is short relative to the phase spacing on your
    platform — the resulting I/O duty cycle plays the role of the paper's
    µ, and contention stretches it.

    Without ``io_model`` every job writes one uniform contiguous
    ``bytes_per_process`` phase (the historical behavior, still right for
    controlled scaling studies).  With a
    :class:`~repro.traces.JobIOModel`, each job's access pattern and
    per-process volume are sampled from the model's Fig 1-style
    distributions, deterministically per ``(io_seed, job_id)``.
    """
    t0, t1 = window
    if t1 <= t0:
        raise ValueError("window must have positive length")
    if phases_per_job < 1:
        raise ValueError("phases_per_job must be >= 1")
    jobs = [j for j in trace.valid_jobs()
            if j.start_time < t1 and j.end_time > t0]
    jobs.sort(key=lambda j: j.start_time)
    if max_jobs is not None:
        jobs = jobs[:max_jobs]
    configs: List[IORConfig] = []
    for job in jobs:
        nprocs = max(min_procs, job.allocated_procs // core_scale)
        start = max(0.0, job.start_time - t0)
        in_window = min(job.end_time, t1) - max(job.start_time, t0)
        # Short residents still do at least one phase; long ones pace
        # phases_per_job evenly across their window residence.
        iterations = max(1, min(phases_per_job,
                                math.ceil(in_window / (t1 - t0)
                                          * phases_per_job)))
        period = in_window / iterations if iterations > 1 else None
        if io_model is not None:
            job_rng = np.random.default_rng((int(io_seed), int(job.job_id)))
            pattern, _ = io_model.sample(job_rng, nprocs)
        else:
            pattern = Contiguous(block_size=max(1, int(bytes_per_process)))
        configs.append(IORConfig(
            name=f"job{job.job_id}",
            nprocs=nprocs,
            pattern=pattern,
            iterations=iterations,
            period=period,
            start_time=start,
            grain="round",
        ))
    return ReplayPlan(configs=tuple(configs), window=window,
                      core_scale=core_scale)


def replay_spec(platform_cfg: PlatformConfig, trace: SWFTrace,
                window: Tuple[float, float],
                strategy: Optional[str] = None,
                core_scale: int = 256,
                bytes_per_process: int = 16_000_000,
                phases_per_job: int = 4,
                max_jobs: Optional[int] = None,
                measure_alone: bool = True,
                io_model: Optional[JobIOModel] = None,
                io_seed: int = 0,
                name: str = "trace-replay") -> ExperimentSpec:
    """Plan a trace window and package it as one declarative spec.

    The returned spec carries ``meta["napps"]``/``meta["window"]`` so
    campaign fan-outs can be regrouped by window coordinates.
    """
    plan = plan_replay(trace, window, core_scale=core_scale,
                       bytes_per_process=bytes_per_process,
                       phases_per_job=phases_per_job, max_jobs=max_jobs,
                       io_model=io_model, io_seed=io_seed)
    if not plan.configs:
        raise ValueError("no jobs active in the requested window")
    return ExperimentSpec(
        platform=platform_cfg, workloads=plan.configs, strategy=strategy,
        name=name, measure_alone=measure_alone,
        meta={"napps": len(plan.configs),
              "window": [float(window[0]), float(window[1])],
              "core_scale": core_scale},
    )


def replay_result(platform_cfg: PlatformConfig, trace: SWFTrace,
                  window: Tuple[float, float],
                  **kwargs) -> ExperimentResult:
    """Plan and run a trace window; ``kwargs`` go to :func:`replay_spec`.

    Runs on :func:`~repro.experiments.engine.default_engine`, whose
    baseline memo spans calls.
    """
    spec = replay_spec(platform_cfg, trace, window, **kwargs)
    return default_engine().run(spec)
