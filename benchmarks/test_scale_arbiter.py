"""Scale benchmark: indexed/batched arbiter vs. the historical decision loop.

Drives the CALCioM arbiter directly with a trace-shaped coordination
workload — many applications, each cycling guarded accesses (fresh Inform,
per-round continuation Inform/Release, Complete) under the dynamic
strategy — at scales (100/500/1000 applications) where the old per-inform
path's every-decision-rescans-every-app behaviour dominates.  The same
virtual-time workload runs under both :class:`~repro.core.Arbiter` (indexed
state + coordination rounds) and :class:`repro.oracles.UnbatchedArbiter`
(the historical per-inform loop); the benchmark

* verifies the two produce **identical decision logs and completion
  times** (batching is a pure optimization, not a policy change) — both on
  the synthetic driver and on the ``many-writers`` / ``swf-replay``
  scenarios through the full experiment engine,
* measures the decision-loop speedup via the ``coord_seconds`` perf
  counter (>= 5x asserted at 500 applications), and
* persists a machine-readable record to
  ``benchmarks/results/BENCH_arbiter.json`` under ``pytest --record``,
  to a temporary directory otherwise (gated against regressions by
  ``benchmarks/check_perf_regression.py`` in CI).

Reduced configurations for CI smoke runs come from the environment:
``SCALE_ARBITER_APPS`` (comma-separated scales, default "100,500,1000").
The >= 5x assertion only applies at full scale (>= 500 applications).
"""

import json
import math
import os

import numpy as np

from repro.core import AccessDescriptor, Arbiter
from repro.experiments import ExperimentEngine, build_scenario
from repro.oracles import UnbatchedArbiter, unbatched_arbiters
from repro.perf import PerfCounters
from repro.simcore import Simulator


SCALES = tuple(int(s) for s in
               os.environ.get("SCALE_ARBITER_APPS", "100,500,1000").split(","))
PHASES = 3          #: guarded accesses per application
ROUNDS = 3          #: continuation Inform/Release exchanges per access
T_ROUND = 0.05      #: simulated seconds per guarded round
DT_ARRIVAL = 0.2    #: inter-arrival spacing (keeps the wait queue short)
SEED = 20140519


def _drive(arbiter_cls, napps: int):
    """One full coordination run; returns (perf dict, log, completion times).

    Every application cycles ``PHASES`` accesses through the paper's
    protocol shape: fresh Inform (a strategy decision), wait if not
    authorized, then ``ROUNDS`` guarded rounds each re-Informing
    (continuation) and Releasing, then Complete.  Virtual timing is
    deterministic and independent of the arbiter class.
    """
    rng = np.random.default_rng(SEED)
    nprocs = rng.choice([4, 8, 16, 32], size=napps)
    t_alone = rng.uniform(0.05, 0.2, size=napps)

    perf = PerfCounters()
    sim = Simulator()
    arb = arbiter_cls(sim, "dynamic", grant_latency=1e-4, perf=perf)
    # The oracle keeps the historical synchronous exchanges.
    batched = arbiter_cls is Arbiter
    done = np.zeros((napps, PHASES))

    def inform(descriptor):
        if batched:
            return (yield arb.submit_inform(descriptor))
        return arb.on_inform(descriptor)

    def release(app, remaining):
        if batched:
            arb.submit_release(app, remaining)
        else:
            arb.on_release(app, remaining)

    def app_proc(i):
        name = f"app{i:04d}"
        total = 1e6 * float(t_alone[i])
        for phase in range(PHASES):
            target = float((i + phase * napps) * DT_ARRIVAL)
            yield sim.timeout(max(0.0, target - sim.now))
            desc = AccessDescriptor(app=name, nprocs=int(nprocs[i]),
                                    total_bytes=total,
                                    t_alone=float(t_alone[i]),
                                    rounds=ROUNDS)
            authorized = yield from inform(desc)
            if not authorized:
                yield arb.authorization_event(name)
            remaining = total
            for _ in range(ROUNDS):
                step = AccessDescriptor(app=name, nprocs=int(nprocs[i]),
                                        total_bytes=total,
                                        t_alone=float(t_alone[i]),
                                        remaining_bytes=remaining,
                                        rounds=ROUNDS)
                authorized = yield from inform(step)
                if not authorized:
                    yield arb.authorization_event(name)
                yield sim.timeout(T_ROUND)
                remaining = max(0.0, remaining - total / ROUNDS)
                release(name, remaining)
            arb.on_complete(name)
            done[i, phase] = sim.now

    for i in range(napps):
        sim.process(app_proc(i))
    sim.run()
    return perf.as_dict(), list(arb.decision_log), done


def _perf_record(perf: dict) -> dict:
    keys = ("coord_seconds", "coord_decisions", "coord_rounds",
            "coord_exchanges", "coord_grants", "coord_preemptions")
    return {k: (round(perf[k], 6) if k == "coord_seconds" else perf[k])
            for k in keys if k in perf}


def test_scale_arbiter_speedup_and_equivalence(bench_dir, report):
    """Indexed/batched arbiter >= 5x cheaper at 500 apps, same decisions."""
    scales = {}
    lines = ["scale arbiter benchmark "
             f"({PHASES} accesses x {ROUNDS} rounds per app, "
             "dynamic strategy)"]
    full_scale = max(SCALES) >= 500
    for napps in SCALES:
        perf_new, log_new, done_new = _drive(Arbiter, napps=napps)
        perf_old, log_old, done_old = _drive(UnbatchedArbiter, napps=napps)

        # Batching/indexing must be invisible to the policy: decision logs
        # bit-identical, every completion at the identical instant.
        assert log_new == log_old, (
            f"decision logs diverged at {napps} apps "
            f"({len(log_new)} vs {len(log_old)} records)")
        assert np.array_equal(done_new, done_old), (
            f"completion times diverged at {napps} apps: max |dt| = "
            f"{np.abs(done_new - done_old).max()}")

        cost_new = perf_new["coord_seconds"]
        cost_old = perf_old["coord_seconds"]
        speedup = cost_old / cost_new if cost_new > 0 else math.inf
        scales[str(napps)] = {
            "batched": _perf_record(perf_new),
            "unbatched": _perf_record(perf_old),
            "speedup": round(speedup, 2),
            "identical_decision_log": True,
        }
        lines.append(
            f"  {napps:5d} apps: batched {cost_new:8.4f} s decision loop, "
            f"unbatched {cost_old:8.4f} s -> {speedup:7.2f}x "
            f"({perf_new['coord_decisions']:.0f} decisions, "
            f"{perf_new['coord_rounds']:.0f} rounds)")

    record = {
        "benchmark": "scale_arbiter",
        "config": {"scales": list(SCALES), "phases": PHASES,
                   "rounds": ROUNDS, "strategy": "dynamic", "seed": SEED,
                   "full_scale": full_scale},
        "scales": scales,
    }
    path = bench_dir / "BENCH_arbiter.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    floor = "5x at >= 500 apps" if full_scale else "none — reduced config"
    lines.append(f"  floor: {floor}")
    report("BENCH_arbiter", "\n".join(lines))

    for napps_str, entry in scales.items():
        if full_scale and int(napps_str) >= 500:
            assert entry["speedup"] >= 5.0, (
                f"batched arbiter only {entry['speedup']:.2f}x cheaper at "
                f"{napps_str} apps (needs >= 5x)")
        else:
            assert entry["speedup"] > 0


def _run_scenario_both_modes(name, **kwargs):
    engine = ExperimentEngine()
    spec, = build_scenario(name, **kwargs)
    batched = engine.run(spec)
    with unbatched_arbiters():
        unbatched = engine.run(spec)
    return batched, unbatched


def test_scenarios_batched_equals_unbatched():
    """many-writers and swf-replay: oracle cross-check through the engine."""
    cases = [
        ("many-writers", dict(napps=40, nservers=8, phases=2,
                              strategy="fcfs")),
        ("many-writers", dict(napps=30, nservers=8, phases=2,
                              strategy="dynamic")),
        ("swf-replay", dict(napps=30, hours=3.0, strategy="fcfs")),
    ]
    for name, kwargs in cases:
        batched, unbatched = _run_scenario_both_modes(name, **kwargs)
        label = f"{name}({kwargs.get('strategy')})"
        assert batched.decisions == unbatched.decisions, (
            f"{label}: decision logs diverged")
        assert batched.makespan == unbatched.makespan, (
            f"{label}: makespan diverged")
        for app, rec in batched.records.items():
            other = unbatched.records[app]
            assert rec.write_times == other.write_times, (
                f"{label}: {app} write times diverged")
        assert batched.perf.get("coord_rounds", 0) > 0, (
            f"{label}: batched run coalesced no rounds")
