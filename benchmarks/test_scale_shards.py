"""Scale benchmark: sharded coordination vs. a single machine-wide arbiter.

Drives the :class:`~repro.core.sharding.ShardRouter` directly with a
trace-shaped coordination workload — many applications, pinned round-robin
over 8 file-system partitions, each cycling guarded accesses — under an
FCFS-serializing strategy that additionally audits every decision with the
full predicted-completion-time map (Fig 11-style cost quoting over every
involved application).  That audit is the *machine-wide-scan regime*
sharding targets: the built-in strategies answer in O(1) per inform since
the batch-aware/aggregate satellites of this PR, but any policy or audit
that must examine the whole backlog pays O(population) per decision on a
single arbiter — and O(population / shards) on a sharded one, because each
shard's waiting queue only holds its own partition's applications.

The benchmark

* verifies the **single-shard router is bit-identical to the plain
  arbiter** (decision logs and completion times) — sharding is transparent
  at ``shards=1``,
* measures the decision-loop cost (``coord_seconds``) of the same offered
  workload under 1 / 4 / 8 shards at 500 / 1000 / 2000 applications
  (>= 3x asserted at 1000 applications / 8 shards), and
* persists a machine-readable record to
  ``benchmarks/results/BENCH_shard.json`` under ``pytest --record``,
  to a temporary directory otherwise (gated against regressions by
  ``benchmarks/check_perf_regression.py --kind shard`` in CI).

Since the process-parallel backend it also measures the **wall-clock
regime**: the same 8-shard configuration inline vs ``workers="process"``
on a lockstep *wave* workload (constant hold times, arrivals aligned
eight-wide across shards, immediate per-phase re-informs) under a much
heavier audit, where every coordination timestamp carries one decision
per shard and the router's pipelined drain overlaps all eight workers.
Both ``coord_wall_seconds`` (elapsed) and ``coord_seconds`` (summed
per-shard CPU) speedups are recorded; the >= 3x wall-clock floor is
asserted only when the host actually has a core per shard
(``len(os.sched_getaffinity(0)) >= 8``) — on fewer cores the workers
time-slice one CPU and the record still documents the honest number.

A ``codec`` sub-record additionally re-runs the process-worker wave
under the binary wire codec (vs JSON) — the router's dispatch is batched
either way, so the pair isolates the codec on the shard data plane, with
decision logs asserted string-identical across codecs.

Reduced configurations for CI smoke runs come from the environment:
``SCALE_SHARD_APPS`` (comma-separated scales, default "500,1000,2000")
and ``SCALE_SHARD_PROC_APPS`` (process-regime scale, default "2000").
The >= 3x assertions only apply at full scale (>= 1000 applications for
the algorithmic regime, >= 2000 for the wall-clock regime).
"""

import gc
import json
import math
import os

import numpy as np

from repro.core import (
    AccessDescriptor, Arbiter, CpuSecondsWasted, FCFSStrategy, ShardRouter,
)
from repro.perf import PerfCounters
from repro.service.protocol import decisions_to_json
from repro.simcore import Simulator


SCALES = tuple(int(s) for s in
               os.environ.get("SCALE_SHARD_APPS", "500,1000,2000").split(","))
SHARD_COUNTS = (1, 4, 8)
NPARTITIONS = 8     #: partitions the workload is pinned over
PHASES = 3          #: guarded accesses per application
DT_ARRIVAL = 0.05   #: inter-arrival spacing (deep machine-wide backlog)
SEED = 20140519

#: Process-parallel wall-clock regime: scale and wave spacing.
PROC_APPS = int(os.environ.get("SCALE_SHARD_PROC_APPS", "2000"))
PROC_SHARDS = max(SHARD_COUNTS)
DT_WAVE = 0.01      #: wave spacing — 8 apps (one per shard) per timestamp

_METRIC = CpuSecondsWasted()


class AuditedFCFS(FCFSStrategy):
    """FCFS serialization + a full predicted-completion audit per decision.

    The decision itself is FCFS (§III-A.1); the audit predicts, from
    exchanged knowledge only, when every involved application will finish
    under that ordering and quotes the machine-wide metric cost in the
    decision log — the same bookkeeping EXPERIMENTS.md quotes for Fig 11,
    extended over the whole backlog.  It scans every active and waiting
    descriptor, which is what makes the per-decision cost O(population)
    and the benchmark's single-vs-sharded comparison meaningful.
    """

    name = "fcfs-audited"

    def decide(self, now, active, waiting, incoming):
        decision = super().decide(now, active, waiting, incoming)
        times = {}
        backlog = 0.0
        for d in active:
            times[d.app] = d.remaining_t
            backlog += d.remaining_t
        for d in waiting:
            times[d.app] = backlog + d.t_alone
            backlog += d.t_alone
        times[incoming.app] = backlog + incoming.t_alone
        descriptors = {d.app: d for d in active}
        for d in waiting:
            descriptors[d.app] = d
        descriptors[incoming.app] = incoming
        decision.costs["predicted_wait"] = backlog
        decision.costs["machine_cost"] = _METRIC.cost(times, descriptors)
        return decision


class WaveAuditedFCFS(FCFSStrategy):
    """FCFS + a deliberately heavy O(population) audit (wall-clock regime).

    Sixteen transcendental terms per backlog entry put the per-decision
    cost in the hundreds of microseconds at depth ~250 — the regime where
    shipping the decision to a worker process (tens of microseconds of
    framing and syscalls per exchange) is profitable.  Module-level so a
    ``spawn``-started worker can import it by qualified name.
    """

    name = "fcfs-wave-audit"

    _TERMS = tuple(range(1, 17))

    def decide(self, now, active, waiting, incoming):
        decision = super().decide(now, active, waiting, incoming)
        exp, log1p = math.exp, math.log1p
        backlog = 0.0
        risk = 0.0
        for d in active:
            rem = d.remaining_t
            backlog += rem
            risk += exp(-rem) + log1p(rem * rem)
        for d in waiting:
            t = d.t_alone
            backlog += t
            x = backlog / (1.0 + t)
            for k in self._TERMS:
                risk += exp(-x * k) + log1p(x + k)
        decision.costs["predicted_wait"] = backlog
        decision.costs["audit_risk"] = risk
        return decision


def _drive(napps: int, nshards=None):
    """One full coordination run; returns (perf dict, log, completions).

    ``nshards=None`` drives a bare :class:`Arbiter` (the PR 3 coordination
    layer); an integer drives a :class:`ShardRouter` with that many
    shards.  The offered workload is identical either way: application
    ``i`` is pinned to partition ``i % NPARTITIONS`` (the router maps
    partitions onto shards modulo the shard count; with one shard — or a
    bare arbiter — everything lands on a single decision point).
    """
    # Flush garbage left by earlier tests in the same session (closed
    # sockets, event loops) so their finalizers and gen-2 scans don't
    # land inside the timed decision loop and skew the speedup ratio.
    gc.collect()
    rng = np.random.default_rng(SEED)
    t_alone = rng.uniform(0.9, 1.1, size=napps)

    perf = PerfCounters()
    sim = Simulator()
    if nshards is None:
        coord = Arbiter(sim, AuditedFCFS(), grant_latency=1e-4, perf=perf)
    else:
        coord = ShardRouter(sim, nshards, AuditedFCFS, grant_latency=1e-4,
                            perf=perf)
    done = np.zeros((napps, PHASES))

    def app_proc(i):
        name = f"app{i:04d}"
        total = 1e6 * float(t_alone[i])
        partitions = (i % NPARTITIONS,)
        for phase in range(PHASES):
            target = float(phase * napps * DT_ARRIVAL + i * DT_ARRIVAL)
            yield sim.timeout(max(0.0, target - sim.now))
            desc = AccessDescriptor(app=name, nprocs=16, total_bytes=total,
                                    t_alone=float(t_alone[i]), rounds=1,
                                    partitions=partitions)
            authorized = yield coord.submit_inform(desc)
            if not authorized:
                yield coord.authorization_event(name)
            yield sim.timeout(float(t_alone[i]))
            coord.submit_release(name, 0.0)
            coord.on_complete(name)
            done[i, phase] = sim.now

    for i in range(napps):
        sim.process(app_proc(i))
    sim.run()
    return perf.as_dict(), list(coord.decision_log), done


def _drive_wave(napps: int, workers: str, codec=None):
    """Lockstep wave workload at ``PROC_SHARDS`` shards.

    Returns ``(perf dict, canonical decision-log JSON)``.  ``codec``
    selects the worker-process wire codec (ignored inline).

    Application ``i`` is pinned to partition ``i % PROC_SHARDS`` and
    arrives at ``(i // PROC_SHARDS) * DT_WAVE`` — one application per
    shard at every coordination timestamp, with constant hold times so
    later phases stay aligned.  Every drain therefore carries
    ``PROC_SHARDS`` decisions, the shape that keeps all worker processes
    busy simultaneously and makes the wall-clock comparison meaningful.
    """
    gc.collect()
    perf = PerfCounters()
    sim = Simulator()
    coord = ShardRouter(sim, PROC_SHARDS, WaveAuditedFCFS,
                        grant_latency=1e-4, perf=perf, workers=workers,
                        decision_log_limit=1000, codec=codec)

    def app_proc(i):
        name = f"wave{i:04d}"
        partitions = (i % PROC_SHARDS,)
        yield sim.timeout((i // PROC_SHARDS) * DT_WAVE)
        for _phase in range(PHASES):
            desc = AccessDescriptor(app=name, nprocs=16, total_bytes=1e6,
                                    t_alone=1.0, rounds=1,
                                    partitions=partitions)
            authorized = yield coord.submit_inform(desc)
            if not authorized:
                yield coord.authorization_event(name)
            yield sim.timeout(1.0)
            coord.submit_release(name, 0.0)
            coord.on_complete(name)

    for i in range(napps):
        sim.process(app_proc(i))
    sim.run()
    coord.close()
    return perf.as_dict(), decisions_to_json(coord.decision_log)


def _perf_record(perf: dict) -> dict:
    keys = ("coord_seconds", "coord_wall_seconds", "coord_decisions",
            "coord_rounds", "coord_exchanges", "coord_grants")
    return {k: (round(perf[k], 6) if k.endswith("_seconds") else perf[k])
            for k in keys if k in perf}


def test_single_shard_router_is_the_arbiter():
    """shards=1 must be decision-log- and completion-time-identical."""
    napps = min(SCALES)
    perf_arb, log_arb, done_arb = _drive(napps, nshards=None)
    perf_one, log_one, done_one = _drive(napps, nshards=1)
    assert log_one == log_arb, "single-shard decision log diverged"
    assert np.array_equal(done_one, done_arb), (
        "single-shard completion times diverged: max |dt| = "
        f"{np.abs(done_one - done_arb).max()}")
    assert perf_one["coord_decisions"] == perf_arb["coord_decisions"]


def test_scale_shards_speedup(bench_dir, report):
    """Sharded decision loop >= 3x cheaper at 1000 apps / 8 shards."""
    scales = {}
    lines = ["scale shard benchmark "
             f"({PHASES} accesses per app over {NPARTITIONS} partitions, "
             "audited-FCFS strategy)"]
    full_scale = max(SCALES) >= 1000
    for napps in SCALES:
        per_shardcount = {}
        base_cost = None
        base_wall = None
        for nshards in SHARD_COUNTS:
            perf, log, _done = _drive(napps, nshards=nshards)
            cost = perf["coord_seconds"]
            wall = perf.get("coord_wall_seconds", 0.0)
            if nshards == 1:
                base_cost = cost
                base_wall = wall
            speedup = (base_cost / cost) if cost > 0 else math.inf
            speedup_wall = (base_wall / wall) if wall > 0 else math.inf
            depth = (float(np.mean([len(r.waiting) for r in log]))
                     if log else 0.0)
            per_shardcount[str(nshards)] = {
                "perf": _perf_record(perf),
                "speedup": round(speedup, 2),
                "speedup_wall": round(speedup_wall, 2),
                "mean_waiting_depth": round(depth, 1),
            }
            lines.append(
                f"  {napps:5d} apps x {nshards} shards: "
                f"{cost:8.4f} s decision loop -> {speedup:6.2f}x "
                f"(mean queue depth {depth:7.1f})")
        scales[str(napps)] = per_shardcount

    # --- Wall-clock regime: 8-shard inline vs one worker process per
    # shard on the lockstep wave workload (heavy audit, pipelined drains).
    cores = len(os.sched_getaffinity(0))
    proc_full_scale = PROC_APPS >= 2000
    perf_inline, log_inline = _drive_wave(PROC_APPS, "inline")
    perf_proc, log_proc = _drive_wave(PROC_APPS, "process", codec="json")
    wall_inline = perf_inline["coord_wall_seconds"]
    wall_proc = perf_proc["coord_wall_seconds"]
    speedup_wall = (wall_inline / wall_proc) if wall_proc > 0 else math.inf
    speedup_cpu = (perf_inline["coord_seconds"] / perf_proc["coord_seconds"]
                   if perf_proc["coord_seconds"] > 0 else math.inf)
    process = {
        "config": {"napps": PROC_APPS, "nshards": PROC_SHARDS,
                   "dt_wave": DT_WAVE, "phases": PHASES,
                   "strategy": "fcfs-wave-audit", "cores": cores,
                   "full_scale": proc_full_scale},
        "inline": _perf_record(perf_inline),
        "process": _perf_record(perf_proc),
        "speedup_wall": round(speedup_wall, 2),
        "speedup_cpu": round(speedup_cpu, 2),
    }
    lines.append(
        f"  wave  {PROC_APPS:5d} apps x {PROC_SHARDS} shards "
        f"({cores} core(s)): inline {wall_inline:7.3f} s wall vs process "
        f"{wall_proc:7.3f} s -> {speedup_wall:5.2f}x wall, "
        f"{speedup_cpu:5.2f}x cpu")

    # --- Codec-comparison sub-record: the same process-worker wave run
    # under the binary wire codec.  The router's dispatch is already
    # batched on both sides, so this isolates the codec itself on the
    # shard plane; decision logs must stay string-identical across
    # codecs (and with the inline oracle).
    perf_bin, log_bin = _drive_wave(PROC_APPS, "process", codec="binary")
    assert log_proc == log_inline, "json process log diverged from inline"
    assert log_bin == log_proc, "binary process log diverged from json"
    wall_bin = perf_bin["coord_wall_seconds"]
    codec_speedup = (wall_proc / wall_bin) if wall_bin > 0 else math.inf
    codec = {
        "config": {"napps": PROC_APPS, "nshards": PROC_SHARDS,
                   "dt_wave": DT_WAVE, "phases": PHASES,
                   "strategy": "fcfs-wave-audit", "cores": cores},
        "json": _perf_record(perf_proc),
        "binary": _perf_record(perf_bin),
        "speedup_wall": round(codec_speedup, 3),
        "identical_decision_log": True,
    }
    lines.append(
        f"  codec {PROC_APPS:5d} apps x {PROC_SHARDS} shards: json "
        f"{wall_proc:7.3f} s wall vs binary {wall_bin:7.3f} s -> "
        f"{codec_speedup:5.2f}x (process workers)")

    record = {
        "benchmark": "scale_shards",
        "config": {"scales": list(SCALES), "shard_counts": list(SHARD_COUNTS),
                   "npartitions": NPARTITIONS, "phases": PHASES,
                   "dt_arrival": DT_ARRIVAL, "strategy": "fcfs-audited",
                   "seed": SEED, "full_scale": full_scale},
        "scales": scales,
        "process": process,
        "codec": codec,
    }
    path = bench_dir / "BENCH_shard.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    floor = ("3x at >= 1000 apps / 8 shards" if full_scale
             else "none — reduced config")
    lines.append(f"  floor: {floor}")
    if proc_full_scale and cores >= PROC_SHARDS:
        lines.append("  wall floor: 3x at 8 shards (process workers)")
    elif cores < PROC_SHARDS:
        lines.append(f"  wall floor: skipped — {cores} core(s) for "
                     f"{PROC_SHARDS} shards")
    else:
        lines.append("  wall floor: skipped — reduced config")
    report("BENCH_shard", "\n".join(lines))

    for napps_str, per_shardcount in scales.items():
        for nshards_str, entry in per_shardcount.items():
            assert entry["speedup"] > 0
            if (full_scale and int(napps_str) >= 1000
                    and int(nshards_str) == max(SHARD_COUNTS)):
                assert entry["speedup"] >= 3.0, (
                    f"{nshards_str} shards only {entry['speedup']:.2f}x "
                    f"cheaper at {napps_str} apps (needs >= 3x)")

    # The wall-clock floor needs a core per shard: on smaller hosts the
    # workers time-slice one CPU and the honest number is recorded above
    # without gating.
    assert speedup_wall > 0
    if proc_full_scale and cores >= PROC_SHARDS:
        assert speedup_wall >= 3.0, (
            f"process workers only {speedup_wall:.2f}x faster wall-clock "
            f"at {PROC_APPS} apps / {PROC_SHARDS} shards (needs >= 3x)")
