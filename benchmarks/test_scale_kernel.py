"""Scale benchmark: the incremental allocation kernel vs. the global oracle.

Drives the fluid-flow kernel directly with a trace-shaped workload — many
applications, each cycling short transfers over its own client link into
one of a pool of server links — at a scale (200 concurrent applications by
default) where the oracle's every-event-reprices-everything behaviour
(:class:`repro.oracles.GlobalFlowNetwork`) dominates wall-clock time.  The
same byte-for-byte workload runs under the production
:class:`~repro.simcore.FlowNetwork` and the oracle; the benchmark

* verifies the two produce the same completion times (the incremental
  kernel is an optimization, not an approximation),
* measures the wall-clock speedup (expected well above the 5x floor at
  full scale), and
* persists a machine-readable perf record to
  ``benchmarks/results/BENCH_kernel.json`` under ``pytest --record``,
  to a temporary directory otherwise (see the README's "Performance
  instrumentation" section for how to read it).

Reduced configurations for CI smoke runs come from the environment:
``SCALE_KERNEL_APPS``, ``SCALE_KERNEL_SERVERS`` and ``SCALE_KERNEL_FLOWS``.
The >= 5x assertion only applies at full scale (>= 200 applications);
reduced runs assert correctness and record whatever speedup they see.
"""

import json
import math
import os
import time

import numpy as np

from repro.oracles import GlobalFlowNetwork
from repro.perf import PerfCounters
from repro.simcore import FluidLink, FlowNetwork, Simulator


NAPPS = int(os.environ.get("SCALE_KERNEL_APPS", "200"))
NSERVERS = int(os.environ.get("SCALE_KERNEL_SERVERS", "40"))
NFLOWS = int(os.environ.get("SCALE_KERNEL_FLOWS", "4"))
SEED = 20140519  # the paper's conference date; any fixed seed works


def _workload(napps: int, nflows: int, seed: int):
    """Deterministic per-app flow sizes, weights, start offsets and gaps."""
    rng = np.random.default_rng(seed)
    return {
        "starts": rng.uniform(0.0, 5.0, size=napps),
        "weights": rng.choice([1.0, 2.0, 4.0], size=napps),
        "sizes": rng.uniform(5e7, 2e8, size=(napps, nflows)),
        "gaps": rng.uniform(0.1, 2.0, size=(napps, nflows)),
    }


def _run_kernel(network, napps: int = NAPPS, nservers: int = NSERVERS,
                nflows: int = NFLOWS, seed: int = SEED):
    """One full simulation under the production kernel or the oracle.

    Returns (wall_seconds, finish_times, perf_counters_dict).
    """
    wl = _workload(napps, nflows, seed)
    perf = PerfCounters()
    sim = Simulator(perf=perf)
    net = network(sim, perf=perf)
    servers = [FluidLink(500e6, f"server{s}") for s in range(nservers)]
    clients = [FluidLink(100e6, f"client{i}") for i in range(napps)]
    finish_times = np.zeros((napps, nflows))

    def app(i):
        yield sim.timeout(float(wl["starts"][i]))
        path = [clients[i], servers[i % nservers]]
        for k in range(nflows):
            flow = net.start_flow(float(wl["sizes"][i][k]), path,
                                  weight=float(wl["weights"][i]),
                                  label=f"app{i}")
            yield flow.done
            finish_times[i, k] = flow.finish_time
            yield sim.timeout(float(wl["gaps"][i][k]))

    for i in range(napps):
        sim.process(app(i))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert not net.active_flows, "all flows must have completed"
    return wall, finish_times, perf.as_dict()


def test_scale_kernel_speedup_and_equivalence(bench_dir, report):
    """200-app trace-shaped workload: incremental >= 5x faster, same physics."""
    wall_inc, times_inc, perf_inc = _run_kernel(FlowNetwork)
    wall_glob, times_glob, perf_glob = _run_kernel(GlobalFlowNetwork)

    # The incremental kernel must be invisible to the physics: every
    # flow's completion time identical (tolerance covers float noise from
    # the differing wake bookkeeping; in practice the times are exact).
    assert np.allclose(times_inc, times_glob, rtol=1e-9, atol=1e-9), (
        "incremental kernel and global oracle diverged: max |dt| = "
        f"{np.abs(times_inc - times_glob).max()}"
    )

    speedup = wall_glob / wall_inc if wall_inc > 0 else math.inf
    full_scale = NAPPS >= 200
    record = {
        "benchmark": "scale_kernel",
        "config": {"napps": NAPPS, "nservers": NSERVERS,
                   "flows_per_app": NFLOWS, "seed": SEED,
                   "full_scale": full_scale},
        "incremental": {"wall_seconds": round(wall_inc, 4), **perf_inc},
        "global": {"wall_seconds": round(wall_glob, 4), **perf_glob},
        "speedup": round(speedup, 2),
        "mean_flows_per_recompute": {
            "incremental": round(perf_inc["flows_touched"]
                                 / perf_inc["rate_recomputations"], 2),
            "global": round(perf_glob["flows_touched"]
                            / perf_glob["rate_recomputations"], 2),
        },
        "identical_completion_times": True,
    }
    (bench_dir / "BENCH_kernel.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    report("BENCH_kernel", "\n".join([
        "scale kernel benchmark "
        f"({NAPPS} apps x {NFLOWS} flows over {NSERVERS} servers)",
        f"  incremental: {wall_inc:8.3f} s wall, "
        f"{perf_inc['rate_recomputations']:.0f} recomputes, "
        f"{record['mean_flows_per_recompute']['incremental']:g} flows each",
        f"  global:      {wall_glob:8.3f} s wall, "
        f"{perf_glob['rate_recomputations']:.0f} recomputes, "
        f"{record['mean_flows_per_recompute']['global']:g} flows each",
        f"  speedup:     {speedup:8.2f}x "
        f"(floor: {'5x' if full_scale else 'none — reduced config'})",
    ]))

    if full_scale:
        assert speedup >= 5.0, (
            f"incremental kernel only {speedup:.2f}x faster at "
            f"{NAPPS} apps (needs >= 5x)"
        )
    else:
        assert speedup > 0


def test_scale_kernel_components_stay_small():
    """The point of the refactor: touched-set size is per-component.

    Under the global oracle every recompute touches ~every active flow;
    under the incremental kernel it touches only the dirty component (here,
    one server's applications).
    """
    napps, nservers, nflows = min(NAPPS, 80), min(NSERVERS, 16), 2
    _, _, perf_inc = _run_kernel(FlowNetwork, napps, nservers, nflows, seed=7)
    _, _, perf_glob = _run_kernel(GlobalFlowNetwork, napps, nservers, nflows, seed=7)
    mean_inc = perf_inc["flows_touched"] / perf_inc["rate_recomputations"]
    mean_glob = perf_glob["flows_touched"] / perf_glob["rate_recomputations"]
    # One server's apps ~= napps / nservers; allow generous slack for the
    # start/finish ramp where fewer flows are live.
    assert mean_inc <= napps / nservers * 3
    assert mean_glob >= mean_inc  # global can never touch fewer
