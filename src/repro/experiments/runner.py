"""Per-application records and the single-application run primitive.

The result shapes (:class:`AppRecord`, :class:`PairResult`) are the
canonical per-application records used throughout the system; campaigns
themselves are :class:`~repro.experiments.spec.ExperimentSpec` lists run
through an :class:`~repro.experiments.engine.ExperimentEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..apps import IORApp, IORConfig
from ..core import CalciomRuntime, DecisionRecord
from ..platforms import Platform, PlatformConfig

__all__ = ["AppRecord", "PairResult", "run_single"]


@dataclass
class AppRecord:
    """Measured outcome of one application in one experiment."""

    name: str
    nprocs: int
    write_times: List[float]      #: per-iteration I/O-phase durations
    wait_times: List[float]       #: per-iteration time blocked in CALCioM
    comm_times: List[float]       #: per-iteration shuffle time
    io_write_times: List[float]   #: per-iteration pure write time
    t_alone: Optional[float] = None  #: standalone single-phase baseline

    @property
    def write_time(self) -> float:
        """First-phase duration (the Δ-graph y-value)."""
        return self.write_times[0]

    @property
    def interference_factor(self) -> float:
        """I = T / T(alone) for the first phase (>= 1 under contention)."""
        if self.t_alone is None or self.t_alone <= 0:
            raise ValueError(f"no standalone baseline for {self.name!r}")
        return self.write_time / self.t_alone

    @classmethod
    def from_app(cls, app: IORApp, t_alone: Optional[float] = None) -> "AppRecord":
        return cls(
            name=app.config.name,
            nprocs=app.config.nprocs,
            write_times=[p.duration for p in app.phases],
            wait_times=[p.wait_time for p in app.phases],
            comm_times=[p.comm_time for p in app.phases],
            io_write_times=[p.write_time for p in app.phases],
            t_alone=t_alone,
        )


@dataclass
class PairResult:
    """Outcome of a two-application interference experiment."""

    a: AppRecord
    b: AppRecord
    strategy: Optional[str]       #: None = uncoordinated baseline
    dt: float                     #: B's start offset relative to A
    decisions: List[DecisionRecord] = field(default_factory=list)

    def record(self, name: str) -> AppRecord:
        if name == self.a.name:
            return self.a
        if name == self.b.name:
            return self.b
        raise KeyError(name)

    def cpu_seconds_wasted(self) -> float:
        """Fig 11's metric over the first phase: Σ N_X · T_X."""
        return (self.a.nprocs * self.a.write_time
                + self.b.nprocs * self.b.write_time)

    def sum_interference_factors(self) -> float:
        return self.a.interference_factor + self.b.interference_factor


def run_single(platform_cfg: PlatformConfig, cfg: IORConfig,
               strategy: Optional[str] = None) -> IORApp:
    """Run one application alone on a fresh platform; returns the live app.

    This is the low-level primitive (the engine's spec runs return records
    rather than app objects); keep it for experiments that inspect phase
    internals directly.
    """
    platform = Platform(platform_cfg)
    if strategy is not None:
        runtime = CalciomRuntime(platform, strategy=strategy)
        app = IORApp(platform, cfg)
        # Replace the guard after client registration (session needs the
        # client name, which IORApp creates).
        session = runtime.session(cfg.name, app.client, cfg.nprocs, app.comm)
        app.guard = session
        app.adio.guard = session
    else:
        app = IORApp(platform, cfg)
    app.start()
    platform.sim.run()
    return app
