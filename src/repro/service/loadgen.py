"""The ``service-many-writers`` load generator.

Replays a recorded ``many-writers`` coordination trace through N
concurrent :class:`~repro.service.client.ServiceClient` connections
against a :class:`~repro.service.server.CoordinationService`, measuring
what the daemon sustains:

* **decisions/sec** — the reference decision count over the replay's
  wall-clock (the daemon's decision loop plus framing, sequencing and
  event-loop scheduling);
* **p99 round latency** — per-exchange round-trip (send → ack), which
  for out-of-order arrivals includes time parked in the sequencer — the
  tail a real client would observe;
* **equivalence** — the daemon's decision log must be *bit-identical*
  to the in-process run that produced the trace (digest-checked over the
  wire; the benchmark additionally string-compares the full logs).

Apps are dealt round-robin to clients, each client sends its sub-trace
lockstep (one in-flight exchange per connection), and the sequencer
serializes globally — so N clients reproduce exactly the recorded
exchange order while exercising real interleaving on the wire.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..experiments.spec import ExperimentSpec
from .client import ServiceClient
from .protocol import decisions_to_json
from .server import CoordinationService, ServiceConfig
from .trace import CoordinationTrace, record_trace, spec_fingerprint

__all__ = ["LoadgenStats", "replay_trace", "run_service_benchmark"]


@dataclass
class LoadgenStats:
    """One replay's measurements (one client-count scale)."""

    nclients: int
    decisions: int
    exchanges: int
    wall_seconds: float
    service_rate: float          #: decisions/sec sustained over the wire
    inproc_rate: float           #: decisions/sec of the recording run
    p50_latency_s: float
    p99_latency_s: float
    max_latency_s: float
    equivalent: bool             #: decision log matches the reference
    digest: str
    latencies: List[float] = field(default_factory=list, repr=False)

    @property
    def speedup(self) -> float:
        """Relative throughput (service vs in-process decision rate).

        Hardware-independent — both rates are measured on the same host in
        the same process — which is what lets the CI gate compare records
        across machines (see ``benchmarks/check_perf_regression.py``).
        """
        if self.inproc_rate <= 0:
            return 0.0
        return self.service_rate / self.inproc_rate

    def as_record(self) -> Dict[str, float]:
        """The ``BENCH_service.json`` per-scale record."""
        return {
            "speedup": self.speedup,
            "service_rate": self.service_rate,
            "inproc_rate": self.inproc_rate,
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "decisions": self.decisions,
            "exchanges": self.exchanges,
            "wall_seconds": self.wall_seconds,
        }


def _deal(apps: List[str], nclients: int) -> List[List[str]]:
    """Round-robin apps across clients (clients may end up empty)."""
    hands: List[List[str]] = [[] for _ in range(nclients)]
    for i, app in enumerate(apps):
        hands[i % nclients].append(app)
    return hands


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = int(round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _entry_message(entry: dict) -> dict:
    op = entry["op"]
    if op == "inform":
        return {"type": "inform", "descriptor": dict(entry["descriptor"])}
    if op == "release":
        return {"type": "release", "app": entry["app"],
                "remaining": entry.get("remaining")}
    return {"type": op, "app": entry["app"]}


async def _client_worker(host: str, port: int, apps: List[str],
                         entries: List[dict], spec_sha: Optional[str],
                         latencies: List[float],
                         codec: Optional[str] = None,
                         pipeline: int = 1) -> None:
    """One connection's replay: its sub-trace, in seq order.

    ``pipeline=1`` is the lockstep mode (one in-flight exchange, the
    latency a synchronous client observes).  ``pipeline=n`` queues up to
    ``n`` exchanges per flush and awaits the acks as a wave — valid in
    replay mode because a connection's sub-trace is seq-ascending and
    acks stay FIFO; throughput becomes wire/codec-bound instead of
    RTT-bound, which is what the codec-comparison regime measures.
    Wave latencies are recorded per exchange from the wave's start.
    """
    client = await ServiceClient.connect(host, port, apps, mode="replay",
                                         spec_sha=spec_sha, codec=codec)
    try:
        if pipeline <= 1:
            for entry in entries:
                t0 = time.perf_counter()
                ack = await client.request(_entry_message(entry),
                                           seq=entry["seq"], t=entry["t"])
                latencies.append(time.perf_counter() - t0)
                del ack
            return
        for start in range(0, len(entries), pipeline):
            wave = entries[start:start + pipeline]
            t0 = time.perf_counter()
            futures = [client.request_nowait(_entry_message(entry),
                                             seq=entry["seq"], t=entry["t"])
                       for entry in wave]
            await client.flush()
            for future in futures:
                await future
                latencies.append(time.perf_counter() - t0)
    finally:
        await client.close()


async def replay_trace(trace: CoordinationTrace, host: str, port: int,
                       nclients: int,
                       reference_decisions: Optional[list] = None,
                       inproc_wall_seconds: float = 0.0,
                       codec: Optional[str] = None,
                       pipeline: int = 1) -> LoadgenStats:
    """Replay a recorded trace through ``nclients`` concurrent clients.

    ``codec`` proposes the wire codec in each client's hello (``None`` =
    the process default); ``pipeline`` > 1 switches clients from lockstep
    to windowed pipelining (see :func:`_client_worker`).
    """
    if nclients < 1:
        raise ValueError(f"nclients must be >= 1, got {nclients}")
    apps = trace.apps
    spec_sha = trace.meta.get("spec_sha")
    hands = [h for h in _deal(apps, nclients) if h]
    latencies: List[float] = []
    wall_t0 = time.perf_counter()
    await asyncio.gather(*[
        _client_worker(host, port, hand, trace.entries_for(hand), spec_sha,
                       latencies, codec=codec, pipeline=pipeline)
        for hand in hands])
    wall = time.perf_counter() - wall_t0

    # Equivalence: ask the daemon for its decision-log digest.
    probe = await ServiceClient.connect(host, port, ["_loadgen_probe"],
                                        mode="live", spec_sha=spec_sha)
    try:
        digest = await probe.decision_digest()
    finally:
        await probe.close()
    sha = digest.get("sha256", "")
    decisions = int(digest.get("decisions", 0))
    equivalent = True
    if reference_decisions is not None:
        reference_sha = hashlib.sha256(
            decisions_to_json(reference_decisions).encode("utf-8")
        ).hexdigest()
        equivalent = (sha == reference_sha
                      and decisions == len(reference_decisions))

    ordered = sorted(latencies)
    inproc_rate = (decisions / inproc_wall_seconds
                   if inproc_wall_seconds > 0 else 0.0)
    return LoadgenStats(
        nclients=nclients,
        decisions=decisions,
        exchanges=len(trace),
        wall_seconds=wall,
        service_rate=decisions / wall if wall > 0 else 0.0,
        inproc_rate=inproc_rate,
        p50_latency_s=_percentile(ordered, 0.50),
        p99_latency_s=_percentile(ordered, 0.99),
        max_latency_s=ordered[-1] if ordered else 0.0,
        equivalent=equivalent,
        digest=sha,
        latencies=latencies,
    )


async def run_service_benchmark(
        spec: ExperimentSpec, nclients: int,
        config: Optional[ServiceConfig] = None,
        trace_and_reference: Optional[Tuple[CoordinationTrace, list, float]]
        = None,
        codec: Optional[str] = None,
        pipeline: int = 1,
) -> Tuple[LoadgenStats, CoordinationService]:
    """Record (or reuse) a trace, serve it, replay it, drain — one scale.

    Self-hosted: a fresh :class:`CoordinationService` on an ephemeral
    port in this event loop.  ``trace_and_reference`` lets a multi-scale
    sweep record the in-process run once: ``(trace, reference_decisions,
    inproc_wall_seconds)``.  The (drained) service is returned so callers
    can string-compare full decision logs against the reference.
    """
    if trace_and_reference is None:
        trace, result = record_trace(spec)
        reference = result.decisions
        inproc_wall = float(result.perf.get("wall_seconds", 0.0))
    else:
        trace, reference, inproc_wall = trace_and_reference
    config = config or ServiceConfig()
    if config.spec_sha is None:
        # The probe/benchmark clients always send the trace's fingerprint.
        config = ServiceConfig(
            host=config.host, port=config.port, ops_port=config.ops_port,
            max_sessions=config.max_sessions,
            max_pending=config.max_pending,
            spec_sha=spec_fingerprint(spec))
    service = CoordinationService(spec, config)
    await service.start()
    host, port = service.address
    try:
        stats = await replay_trace(trace, host, port, nclients,
                                   reference_decisions=reference,
                                   inproc_wall_seconds=inproc_wall,
                                   codec=codec, pipeline=pipeline)
    finally:
        await service.drain(timeout=10.0)
        await service.close()
    return stats, service
