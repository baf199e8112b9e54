#!/usr/bin/env python
"""CI gate: fail when a fresh BENCH record regresses >Nx vs the committed one.

Usage::

    python benchmarks/check_perf_regression.py \
        --kind kernel \
        --fresh benchmarks/results/BENCH_kernel.json \
        --committed /tmp/committed/BENCH_kernel.json \
        [--factor 2.0]

The comparison logic is :func:`check_perf_regression` below
(unit-tested in ``tests/test_perf_gate.py``): the gate compares each
record's *achieved speedup* (optimized path vs retained oracle, measured
within one run on one machine — hardware-independent), failing on a
>``factor``x collapse.  Raw wall-clock of the optimized path is printed
as a non-fatal advisory (it catches shared slowdowns a speedup ratio
cannot, but depends on the machine).  ``--kind service`` additionally
sub-gates the codec regime (binary-vs-lockstep-JSON speedup) when both
records carry it on the same workload.  Exit status 1 on regression.
"""

import argparse
import json
import pathlib
import sys
from typing import Any, Mapping, Tuple


def _without(config: Any, keys: Tuple[str, ...]) -> Any:
    if not isinstance(config, Mapping):
        return config
    return {k: v for k, v in config.items() if k not in keys}


def _kernel_speedup(record: Mapping[str, Any]) -> float:
    return float(record["speedup"])


def _arbiter_speedup(record: Mapping[str, Any], scale: str) -> float:
    return float(record["scales"][scale]["speedup"])


def _shard_speedup(record: Mapping[str, Any], scale: str,
                   nshards: str) -> float:
    return float(record["scales"][scale][nshards]["speedup"])


def check_perf_regression(fresh: Mapping[str, Any],
                          committed: Mapping[str, Any],
                          kind: str,
                          factor: float = 2.0) -> Tuple[bool, str]:
    """Gate a fresh benchmark record against the committed one.

    Returns ``(ok, message)``; ``ok`` is False when the fresh record's
    **achieved speedup** (optimized path vs the retained oracle, measured
    within one run on one machine) collapsed by more than ``factor``
    relative to the committed record's.  Speedups are hardware-independent
    where raw wall-clock is not — a committed record from a developer
    laptop would otherwise gate a CI runner on machine speed — and a
    >``factor``x wall-clock regression of the optimized path alone shows
    up exactly as a >``factor``x speedup collapse.

    Speedups are only comparable at matching workloads, so the kernel gate
    requires equal configs and the arbiter gate compares the largest scale
    the two records share (requiring the per-scale workload parameters to
    match); mismatches skip loudly rather than comparing junk.  Shared
    slowdowns hitting both paths equally are invisible to a speedup ratio
    — the CLI wrapper prints raw wall-clock as a non-fatal advisory for
    eyeballing those.
    """
    if kind == "kernel":
        if "speedup" not in fresh or "speedup" not in committed:
            side = "fresh" if "speedup" not in fresh else "committed"
            return True, (f"kernel: {side} record lacks the speedup — "
                          "skipping gate")
        if fresh.get("config") != committed.get("config"):
            return True, ("kernel: configs differ; speedups are not "
                          "comparable — skipping gate (run the committed "
                          "configuration to gate)")
        fresh_speedup = _kernel_speedup(fresh)
        committed_speedup = _kernel_speedup(committed)
        if committed_speedup <= 0:
            return True, "kernel: committed speedup is zero; skipping gate"
        collapse = committed_speedup / max(fresh_speedup, 1e-12)
        message = (f"kernel: fresh speedup {fresh_speedup:.2f}x vs "
                   f"committed {committed_speedup:.2f}x "
                   f"({collapse:.2f}x collapse, limit {factor}x)")
        return collapse <= factor, message
    elif kind in ("arbiter", "service"):
        # Same record shape: per-scale {"speedup": ...} under "scales".
        # For the service the scale is the client count and the speedup is
        # over-the-wire decision throughput vs the in-process run.
        notes = []
        if kind == "service":
            # Codec sub-record (binary vs JSON wire codec on the pipelined
            # replay at the largest committed client count): gate the
            # binary/JSON throughput ratio the same way the shard gate
            # handles its process sub-record — a sub-record missing on
            # either side, or recorded under different workload
            # parameters, skips loudly instead of KeyError-ing.
            fresh_codec = fresh.get("codec") or {}
            committed_codec = committed.get("codec") or {}
            if bool(fresh_codec) != bool(committed_codec):
                side = "committed" if fresh_codec else "fresh"
                notes.append(f"service-codec: {side} record lacks the "
                             "sub-record — skipping sub-gate")
            elif fresh_codec:
                if (_without(fresh_codec.get("config"), ("full_scale",))
                        != _without(committed_codec.get("config"),
                                    ("full_scale",))):
                    notes.append("service-codec: workload parameters "
                                 "differ — skipping sub-gate")
                else:
                    fresh_c = float(fresh_codec["speedup"])
                    committed_c = float(committed_codec["speedup"])
                    if committed_c > 0:
                        collapse = committed_c / max(fresh_c, 1e-12)
                        if collapse > factor:
                            return False, (
                                f"service-codec: fresh binary/json speedup "
                                f"{fresh_c:.2f}x vs committed "
                                f"{committed_c:.2f}x ({collapse:.2f}x "
                                f"collapse, limit {factor}x)")
        suffix = ("" if not notes else " [" + "; ".join(notes) + "]")
        common = sorted(set(fresh.get("scales", {}))
                        & set(committed.get("scales", {})), key=float)
        if not common:
            return True, (f"{kind} records share no scale; skipping gate"
                          + suffix)
        ignore = ("scales", "full_scale")
        if (_without(fresh.get("config"), ignore)
                != _without(committed.get("config"), ignore)):
            return True, (f"{kind}: per-scale workload parameters differ; "
                          "speedups are not comparable — skipping gate"
                          + suffix)
        scale = common[-1]
        fresh_speedup = _arbiter_speedup(fresh, scale)
        committed_speedup = _arbiter_speedup(committed, scale)
        kind = f"{kind}@{scale}{suffix}"
    elif kind == "sim":
        # Dispatch-core sub-record in BENCH_sim.json: per-scale
        # {"speedup": ...} maps under the "dispatch" regime key, where the
        # speedup is the batch-dispatch/cancellable-timer loop against the
        # retained per-event heap oracle on the same workload.  Mirrors
        # the kernel regime sub-gates: a regime missing on either side —
        # the normal state while the record rolls out — skips loudly
        # instead of KeyError-ing.
        label = "sim-dispatch"
        fresh_sub = fresh.get("dispatch") or {}
        committed_sub = committed.get("dispatch") or {}
        if bool(fresh_sub) != bool(committed_sub):
            side = "committed" if fresh_sub else "fresh"
            return True, (f"{label}: {side} record lacks the regime — "
                          "skipping gate")
        if not fresh_sub:
            return True, (f"{label}: neither record has the regime — "
                          "skipping gate")
        common = sorted(set(fresh_sub.get("scales", {}))
                        & set(committed_sub.get("scales", {})), key=float)
        if not common:
            return True, f"{label}: records share no scale; skipping gate"
        ignore = ("scales", "full_scale")
        if (_without(fresh_sub.get("config"), ignore)
                != _without(committed_sub.get("config"), ignore)):
            return True, (f"{label}: workload parameters differ; speedups "
                          "are not comparable — skipping gate")
        scale = common[-1]
        fresh_speedup = float(fresh_sub["scales"][scale]["speedup"])
        committed_speedup = float(committed_sub["scales"][scale]["speedup"])
        kind = f"{label}@{scale}"
    elif kind == "shard":
        # Process-worker sub-record (one worker process per shard vs the
        # inline router on the wave workload): gate the CPU-seconds
        # speedup — wall-clock depends on the host's core count (the
        # record's "cores" field), so it is advisory-only, printed by the
        # CLI wrapper.
        fresh_proc = fresh.get("process") or {}
        committed_proc = committed.get("process") or {}
        ignore_proc = ("cores", "full_scale")
        if (fresh_proc and committed_proc
                and _without(fresh_proc.get("config"), ignore_proc)
                == _without(committed_proc.get("config"), ignore_proc)):
            fresh_c = float(fresh_proc["speedup_cpu"])
            committed_c = float(committed_proc["speedup_cpu"])
            if committed_c > 0:
                collapse = committed_c / max(fresh_c, 1e-12)
                if collapse > factor:
                    return False, (
                        f"shard-process: fresh cpu speedup {fresh_c:.2f}x "
                        f"vs committed {committed_c:.2f}x "
                        f"({collapse:.2f}x collapse, limit {factor}x)")
        common = sorted(set(fresh.get("scales", {}))
                        & set(committed.get("scales", {})), key=float)
        if not common:
            return True, "shard records share no scale; skipping gate"
        ignore = ("scales", "full_scale")
        if (_without(fresh.get("config"), ignore)
                != _without(committed.get("config"), ignore)):
            return True, ("shard: per-scale workload parameters differ; "
                          "speedups are not comparable — skipping gate")
        scale = common[-1]
        shards = sorted(set(fresh["scales"][scale])
                        & set(committed["scales"][scale]), key=float)
        if not shards:
            return True, "shard records share no shard count; skipping gate"
        nshards = shards[-1]
        fresh_speedup = _shard_speedup(fresh, scale, nshards)
        committed_speedup = _shard_speedup(committed, scale, nshards)
        kind = f"shard@{scale}x{nshards}"
    else:
        raise ValueError(f"unknown benchmark kind {kind!r}")

    if committed_speedup <= 0:
        return True, f"{kind}: committed speedup is zero; skipping gate"
    collapse = committed_speedup / max(fresh_speedup, 1e-12)
    message = (f"{kind}: fresh speedup {fresh_speedup:.2f}x vs committed "
               f"{committed_speedup:.2f}x "
               f"({collapse:.2f}x collapse, limit {factor}x)")
    return collapse <= factor, message


def _advisory_wall(record: dict, kind: str) -> float:
    if kind == "kernel":
        return float(record["incremental"]["wall_seconds"])
    if kind == "sim":
        # Optimized path = the batch dispatcher on the default heap
        # backend, summed across the dispatch regime's scales.
        scales = (record.get("dispatch") or {}).get("scales", {})
        return sum(float(s["heap_wall"]) for s in scales.values())
    scales = record.get("scales", {})
    if kind == "shard":
        # Optimized path = the highest shard count at each scale.
        total = 0.0
        for per_shardcount in scales.values():
            best = max(per_shardcount, key=float)
            total += float(per_shardcount[best]["perf"]["coord_seconds"])
        return total
    if kind == "service":
        return sum(float(s["wall_seconds"]) for s in scales.values())
    return sum(float(s["batched"]["coord_seconds"]) for s in scales.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", required=True,
                        choices=("kernel", "arbiter", "shard", "service",
                                 "sim"))
    parser.add_argument("--fresh", required=True, type=pathlib.Path)
    parser.add_argument("--committed", required=True, type=pathlib.Path)
    parser.add_argument("--factor", type=float, default=2.0)
    args = parser.parse_args()

    fresh = json.loads(args.fresh.read_text())
    committed = json.loads(args.committed.read_text())
    ok, message = check_perf_regression(fresh, committed, kind=args.kind,
                                        factor=args.factor)
    print(("OK  " if ok else "FAIL") + " " + message)
    print(f"     advisory (machine-dependent): optimized-path wall "
          f"{_advisory_wall(fresh, args.kind):.4g}s fresh vs "
          f"{_advisory_wall(committed, args.kind):.4g}s committed")
    proc = fresh.get("process") if args.kind == "shard" else None
    if proc:
        print(f"     advisory (machine-dependent): process workers "
              f"{proc['speedup_wall']:.2f}x wall / "
              f"{proc['speedup_cpu']:.2f}x cpu on "
              f"{proc['config']['cores']} core(s)")
    codec = (fresh.get("codec") or {}) if args.kind == "service" else {}
    if codec:
        print(f"     advisory (machine-dependent): binary data plane "
              f"{float(codec['speedup']):.2f}x over lockstep JSON "
              f"({float(codec['json_rate']):.0f} -> "
              f"{float(codec['binary_rate']):.0f} dec/s at "
              f"{codec['config']['nclients']} clients)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
