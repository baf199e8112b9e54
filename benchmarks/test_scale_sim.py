"""Scale benchmark: batch-dispatch event core vs the per-event heap oracle.

Drives the :class:`~repro.simcore.Simulator` directly — no fluid kernel,
no allocator — with two dispatch-bound workloads shaped like the traffic
the 10^6-flow regime generates:

* **timer churn** — ``NSLOTS`` slots each keep one pending wake alive and
  supersede it ``CHURN - 1`` times per fire (the measured stale:fired
  ratio of completion-horizon wakes in the hyperscale kernel run is
  ~8:1).  The optimized engine re-arms one cancellable handle in place
  (``Timer.reschedule``); the oracle baseline ships a fresh
  generation-guarded closure per arm, the pre-handle idiom the kernel
  actually used.
* **coincident waves** — ``WAVE_WIDTH`` timers per integer timestamp,
  each firing a ``WAVE_DEPTH``-deep chain of delay-0 follow-ups: the
  shape of a completion cascade (session callback -> release -> next
  round).  Exercises same-timestamp batch dispatch and the zero-delay
  lane.

Each workload runs on the production :class:`~repro.simcore.Simulator`
and on :class:`repro.oracles.OracleSimulator`; the benchmark

* verifies serialized decision logs are **equal** on both (the dispatch
  core is a pure optimization, with a deterministic (when, eid)
  tie-break contract),
* measures the dispatch-loop speedup of the production simulator over
  the oracle (expected >= 3x combined at the full 10^6-event scale), and
* persists a machine-readable record to
  ``benchmarks/results/BENCH_sim.json`` under ``pytest --record``,
  to a temporary directory otherwise (gated in CI by
  ``check_perf_regression --kind sim``).

Reduced configurations for CI smoke runs come from the environment:
``SCALE_SIM_EVENTS`` (comma-separated event counts per workload) and
``SCALE_SIM_REPEATS`` (timing repetitions, min taken).  The >= 3x
assertion only applies at full scale (largest scale >= 10^6 events);
reduced runs assert correctness and record whatever speedup they see.
"""

import gc
import json
import math
import os
import pathlib
import time

import numpy as np

from repro.oracles import OracleSimulator
from repro.perf import PerfCounters
from repro.simcore import Simulator


SCALES = tuple(
    int(s) for s in
    os.environ.get("SCALE_SIM_EVENTS", "10000,100000,1000000").split(","))
REPEATS = int(os.environ.get("SCALE_SIM_REPEATS", "3"))
SEED = 20140519  # the paper's conference date; any fixed seed works

NSLOTS = 64     # concurrent pending wakes (one per component/slot)
CHURN = 8       # arms per fire; CHURN - 1 are superseded before firing
WAVE_WIDTH = 512   # coincident timers per wave timestamp
WAVE_DEPTH = 4     # delay-0 chain depth under each completion


def _merge_bench_sim(bench_dir: pathlib.Path, update: dict) -> None:
    """Merge ``update`` into BENCH_sim.json (tests run in any order)."""
    path = bench_dir / "BENCH_sim.json"
    record = {}
    if path.exists():
        try:
            record = json.loads(path.read_text())
        except ValueError:
            record = {}
    record.update(update)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Workload 1: timer churn (supersede-heavy completion-horizon wakes)
# ---------------------------------------------------------------------------

def run_churn(nevents, sim_cls, use_handles, log=None):
    """One churn run; returns (wall_seconds, perf_dict).

    ``use_handles=True`` is the optimized idiom (one reusable handle per
    slot, superseded in place); ``use_handles=False`` is the oracle-era
    idiom (fresh generation-guarded closure per arm, stale guards reach
    the dispatch loop and return early).
    """
    perf = PerfCounters()
    sim = sim_cls(perf=perf)
    delays = np.random.default_rng(SEED).uniform(
        0.5, 1.5, size=nevents).tolist()
    gens = [0] * NSLOTS
    timers = [None] * NSLOTS
    cbs = [None] * NSLOTS   # handle idiom: one reusable callback per slot
    idx = [0]

    def fire(slot):
        if log is not None:
            log.append((slot, sim.now))
        arm(slot)

    def arm(slot):
        # CHURN successive re-arms, each superseding the last — the shape
        # of a completion horizon shrinking as later info arrives.
        i = idx[0]
        if i >= nevents:
            return
        take = min(CHURN, nevents - i)
        idx[0] = i + take
        now = sim.now
        if use_handles:
            t = timers[slot]
            if t is None:
                t = timers[slot] = sim.call_at(now + delays[i], cbs[slot])
                i += 1
            for d in delays[i:idx[0]]:
                t.reschedule(now + d)
        else:
            for d in delays[i:i + take]:
                gens[slot] += 1
                gen = gens[slot]

                def _wake(slot=slot, gen=gen):
                    if gens[slot] != gen:
                        return
                    fire(slot)
                sim.call_at(now + d, _wake)

    for s in range(NSLOTS):
        cbs[s] = lambda slot=s: fire(slot)
        arm(s)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0, perf.as_dict()


# ---------------------------------------------------------------------------
# Workload 2: coincident completion waves with delay-0 cascades
# ---------------------------------------------------------------------------

def run_wave(nevents, sim_cls, log=None):
    """One wave run; returns (wall_seconds, perf_dict).

    The timed pass uses hoisted per-level callbacks so the measurement is
    dispatcher cost, not benchmark-side closure allocation; the logging
    pass (``log`` given) tags every link of every chain so the serialized
    order can be compared between the two simulators.
    """
    perf = PerfCounters()
    sim = sim_cls(perf=perf)
    nwaves = max(1, nevents // ((WAVE_DEPTH + 1) * WAVE_WIDTH))
    if log is None:
        # Timed pass: empty leaf callbacks — completeness is checked via
        # the engine's own events_processed counter below, so the timed
        # region carries zero benchmark-side bookkeeping.
        def mk(k):
            if k < WAVE_DEPTH:
                def f():
                    sim.call_at(sim.now, levels[k + 1])
            else:
                def f():
                    pass
            return f
        levels = [mk(k) for k in range(WAVE_DEPTH + 1)]
        top = levels[0]
        for w in range(nwaves):
            t = float(w + 1)
            for j in range(WAVE_WIDTH):
                sim.call_at(t, top)
    else:
        def chain(w, j, k):
            log.append((w, j, k, sim.now))
            if k < WAVE_DEPTH:
                sim.call_at(sim.now, lambda w=w, j=j, k=k: chain(w, j, k + 1))
        for w in range(nwaves):
            t = float(w + 1)
            for j in range(WAVE_WIDTH):
                sim.call_at(t, lambda w=w, j=j: chain(w, j, 0))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    stats = perf.as_dict()
    assert stats["events_processed"] == nwaves * WAVE_WIDTH * (WAVE_DEPTH + 1)
    return wall, stats


def _timed(fn, *args):
    """Min-of-REPEATS wall clock with the collector parked (dispatch-loop
    timings at 10^6 events are a few hundred ms; one GC pass is ~10%)."""
    best = math.inf
    perf = None
    for _ in range(max(1, REPEATS)):
        gc.collect()
        gc.disable()
        try:
            wall, perf = fn(*args)
        finally:
            gc.enable()
        best = min(best, wall)
    return best, perf


LOG_EVENTS = 10_000  # equivalence-pass size: plenty of batches and churn


def test_scale_sim_backends_dispatch_identically():
    """Serialized decision logs are equal on the production and oracle
    simulators, for both workload shapes — the (when, eid) tie-break
    contract in action."""
    for workload in ("churn", "wave"):
        logs = {}
        for sim_cls in (OracleSimulator, Simulator):
            logs[sim_cls] = []
            if workload == "churn":
                # The oracle runs the guard idiom, the production
                # simulator the handle idiom: same decisions either way is
                # exactly the migration-safety claim.
                run_churn(LOG_EVENTS, sim_cls, sim_cls is Simulator,
                          log=logs[sim_cls])
            else:
                run_wave(LOG_EVENTS, sim_cls, log=logs[sim_cls])
        assert logs[OracleSimulator], f"{workload}: empty decision log"
        assert str(logs[OracleSimulator]) == str(logs[Simulator]), (
            f"{workload}: production diverged from the oracle")


def test_scale_sim_dispatch_speedup(bench_dir, report):
    """Batch dispatcher >= 3x the heap oracle at 10^6 events (combined
    over both workloads)."""
    scales = {}
    lines = ["sim dispatch benchmark (cancellable-timer batch core vs "
             "per-event heap oracle)",
             f"  workloads: churn ({NSLOTS} slots x {CHURN} arms/fire), "
             f"wave ({WAVE_WIDTH} wide x depth {WAVE_DEPTH}); "
             f"min of {REPEATS} runs"]
    full_scale = max(SCALES) >= 1_000_000
    for nevents in sorted(SCALES):
        churn_o, _ = _timed(run_churn, nevents, OracleSimulator, False)
        churn_h, perf_ch = _timed(run_churn, nevents, Simulator, True)
        wave_o, _ = _timed(run_wave, nevents, OracleSimulator)
        wave_h, perf_wh = _timed(run_wave, nevents, Simulator)
        heap_wall = churn_h + wave_h
        oracle_wall = churn_o + wave_o
        speedup = oracle_wall / heap_wall if heap_wall > 0 else math.inf
        # The optimizations must actually be engaged: every churn timer
        # rides the slotted fast path, every wave leads or joins a batch.
        assert perf_ch.get("timer_fastpath_hits", 0) > 0
        assert perf_ch.get("timers_cancelled", 0) > 0
        assert perf_wh.get("events_coincident", 0) > 0
        scales[str(nevents)] = {
            "churn": {
                "oracle_wall": round(churn_o, 4),
                "heap_wall": round(churn_h, 4),
                "speedup": round(churn_o / churn_h, 2) if churn_h else None,
            },
            "wave": {
                "oracle_wall": round(wave_o, 4),
                "heap_wall": round(wave_h, 4),
                "speedup": round(wave_o / wave_h, 2) if wave_h else None,
            },
            "oracle_wall": round(oracle_wall, 4),
            "heap_wall": round(heap_wall, 4),
            "speedup": round(speedup, 2),
            "perf": {
                "churn": {k: perf_ch[k] for k in sorted(perf_ch)
                          if k.startswith(("events_", "timer"))},
                "wave": {k: perf_wh[k] for k in sorted(perf_wh)
                         if k.startswith(("events_", "timer"))},
            },
        }
        lines.append(
            f"  {nevents:8d} events: "
            f"churn {churn_o:6.3f}s -> {churn_h:6.3f}s "
            f"({churn_o / churn_h:4.2f}x), "
            f"wave {wave_o:6.3f}s -> {wave_h:6.3f}s "
            f"({wave_o / wave_h:4.2f}x), combined {speedup:4.2f}x")
    lines.append("  floor: "
                 + ("3x combined at largest scale" if full_scale
                    else "none — reduced config"))
    record = {
        "benchmark": "scale_sim_dispatch",
        "config": {
            "slots": NSLOTS,
            "churn": CHURN,
            "wave_width": WAVE_WIDTH,
            "wave_depth": WAVE_DEPTH,
            "seed": SEED,
            "full_scale": full_scale,
            "scales": sorted(scales, key=float),
        },
        "scales": scales,
        "identical_decision_logs": True,
    }
    _merge_bench_sim(bench_dir, {"dispatch": record})
    report("BENCH_sim_dispatch", "\n".join(lines))
    largest = str(max(SCALES))
    if full_scale:
        assert scales[largest]["speedup"] >= 3.0, (
            f"dispatch core only {scales[largest]['speedup']:.2f}x over the "
            f"heap oracle at {largest} events (needs >= 3x)"
        )
    else:
        for entry in scales.values():
            assert entry["speedup"] > 0
