"""Scale benchmark: the coordination daemon under concurrent clients.

Records one in-process ``service-many-writers`` run, then replays its
coordination trace over the wire through 1/4/8 concurrent
:class:`~repro.service.client.ServiceClient` connections against a
self-hosted :class:`~repro.service.server.CoordinationService`, measuring
per client count:

* sustained **decisions/sec** over the wire vs the in-process rate (the
  ``speedup`` the CI gate tracks — both rates measured on this host, so
  the ratio is hardware-independent),
* **p50/p99 round latency** (send -> ack, including sequencer parking),
* **equivalence** — the daemon's decision log must be *bit-identical*
  (full canonical-JSON string equality) to the in-process reference at
  every scale.

Persists a machine-readable record to
``benchmarks/results/BENCH_service.json`` under ``pytest --record``, to a
temporary directory otherwise (gated against regressions by
``benchmarks/check_perf_regression.py --kind service`` in CI).

On top of the per-scale sweep the benchmark records a **codec-comparison
regime** at the largest client count: the same trace replayed through the
lockstep JSON data plane (one in-flight exchange per connection — the
wire as it stood before the binary codec landed) versus the binary
pipelined plane (windowed ``request_nowait``/``flush`` waves, struct-
packed frames, interned descriptors, coalesced server replies).  Both
sides must stay bit-identical to the reference; the committed speedup is
what ``check_perf_regression --kind service`` guards against collapse.
``json_rate_pipelined`` additionally records JSON at the binary plane's
pipeline depth, decomposing the win into codec vs coalescing shares.

Reduced configurations for CI smoke runs come from the environment:
``SCALE_SERVICE_CLIENTS`` (comma-separated client counts, default
"1,4,8") and ``SCALE_SERVICE_APPS`` (default 32).
"""

import asyncio
import json
import os

from repro.experiments import build_scenario
from repro.service.loadgen import run_service_benchmark
from repro.service.protocol import decisions_to_json
from repro.service.trace import record_trace


CLIENTS = tuple(int(s) for s in
                os.environ.get("SCALE_SERVICE_CLIENTS", "1,4,8").split(","))
NAPPS = int(os.environ.get("SCALE_SERVICE_APPS", "32"))
NSERVERS = 8
PHASES = 3
STRATEGY = "fcfs"
SEED = 20140519

#: Codec regime: window depth of the binary pipelined plane, and
#: best-of-N repeats per side (walls are tens of milliseconds; repeats
#: absorb scheduler noise).
CODEC_PIPELINE = 64
CODEC_REPEATS = 3


def test_scale_service_throughput_and_equivalence(bench_dir, report):
    """Over-the-wire replay: bit-identical logs, sustained decision rate."""
    spec, = build_scenario("service-many-writers", napps=NAPPS,
                           nservers=NSERVERS, phases=PHASES, seed=SEED,
                           strategy=STRATEGY)
    trace, result = record_trace(spec)
    reference = result.decisions
    reference_json = decisions_to_json(reference)
    inproc_wall = float(result.perf.get("wall_seconds", 0.0))
    assert len(reference) > 0 and len(trace) > 0

    scales = {}
    lines = [f"scale service benchmark ({NAPPS} apps x {PHASES} phases, "
             f"{STRATEGY} strategy, {len(trace)} exchanges, "
             f"{len(reference)} decisions)"]
    for nclients in CLIENTS:
        stats, service = asyncio.run(run_service_benchmark(
            spec, nclients,
            trace_and_reference=(trace, reference, inproc_wall)))
        # Digest equivalence over the wire, plus the full-string check.
        assert stats.equivalent, (
            f"decision digest diverged at {nclients} clients")
        assert decisions_to_json(service.decision_log) == reference_json, (
            f"decision logs diverged at {nclients} clients")
        assert stats.exchanges == len(trace)
        assert stats.p99_latency_s >= stats.p50_latency_s >= 0.0
        assert stats.service_rate > 0.0
        scales[str(nclients)] = {**stats.as_record(),
                                 "identical_decision_log": True}
        lines.append(
            f"  {nclients:3d} clients: {stats.service_rate:9.0f} dec/s "
            f"over the wire ({stats.speedup:6.3f}x of in-process), "
            f"p50 {stats.p50_latency_s * 1e3:7.3f} ms, "
            f"p99 {stats.p99_latency_s * 1e3:7.3f} ms")

    # --- Codec-comparison regime: lockstep JSON (the pre-codec data
    # plane) vs the binary pipelined plane, same trace, largest client
    # count.  Best-of-N service rates; decision logs string-checked on
    # every run of both sides.
    nclients = max(CLIENTS)
    full_scale = nclients >= 8

    def _codec_rate(codec, pipeline, repeats=CODEC_REPEATS):
        best = 0.0
        for _ in range(repeats):
            stats, service = asyncio.run(run_service_benchmark(
                spec, nclients,
                trace_and_reference=(trace, reference, inproc_wall),
                codec=codec, pipeline=pipeline))
            assert stats.equivalent, (
                f"decision digest diverged under {codec}/{pipeline}")
            assert decisions_to_json(service.decision_log) == reference_json, (
                f"decision logs diverged under {codec}/{pipeline}")
            best = max(best, stats.service_rate)
        return best

    json_rate = _codec_rate("json", 1)
    binary_rate = _codec_rate("binary", CODEC_PIPELINE)
    json_rate_pipelined = _codec_rate("json", CODEC_PIPELINE, repeats=1)
    codec_speedup = (binary_rate / json_rate) if json_rate > 0 else 0.0
    codec = {
        "config": {"napps": NAPPS, "nservers": NSERVERS, "phases": PHASES,
                   "strategy": STRATEGY, "seed": SEED,
                   "nclients": nclients,
                   "json_pipeline": 1,
                   "binary_pipeline": CODEC_PIPELINE},
        "json_rate": round(json_rate, 1),
        "binary_rate": round(binary_rate, 1),
        "json_rate_pipelined": round(json_rate_pipelined, 1),
        "speedup": round(codec_speedup, 3),
        "identical_decision_log": True,
    }
    lines.append(
        f"  codec {nclients:3d} clients: json/lockstep "
        f"{json_rate:9.0f} dec/s vs binary/pipelined({CODEC_PIPELINE}) "
        f"{binary_rate:9.0f} dec/s -> {codec_speedup:5.2f}x "
        f"(json at depth {CODEC_PIPELINE}: {json_rate_pipelined:.0f})")

    record = {
        "benchmark": "scale_service",
        "config": {"napps": NAPPS, "nservers": NSERVERS, "phases": PHASES,
                   "strategy": STRATEGY, "seed": SEED,
                   "scales": list(CLIENTS),
                   "full_scale": full_scale},
        "scales": scales,
        "codec": codec,
    }
    path = bench_dir / "BENCH_service.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    lines.append("  gate: speedup collapse vs committed record "
                 "(check_perf_regression --kind service)")
    lines.append("  codec floor: "
                 + (">= 2x binary/pipelined over json/lockstep"
                    if full_scale else "none — reduced config"))
    report("BENCH_service", "\n".join(lines))

    if full_scale:
        assert codec_speedup >= 2.0, (
            f"binary data plane only {codec_speedup:.2f}x over lockstep "
            f"JSON at {nclients} clients (needs >= 2x)")
