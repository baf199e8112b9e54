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
in windows (``pipeline``; 1, lockstep, is one in-flight exchange per
connection), and the sequencer serializes globally — so N clients
reproduce exactly the recorded exchange order while exercising real
interleaving on the wire.  There is one replay path: the client's ack
routing (:meth:`~repro.service.client.ServiceClient.send_windows`)
stamps each round time as it routes the ack and sends the next window
itself, so no task wakes up per exchange.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..experiments.spec import ExperimentSpec
from .client import ServiceClient
from .protocol import decisions_digest
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
    """A trace entry's exchange frame (the recorded descriptor, uncopied)."""
    op = entry["op"]
    if op == "inform":
        return {"type": "inform", "descriptor": entry["descriptor"],
                "seq": entry["seq"], "t": entry["t"]}
    if op == "release":
        return {"type": "release", "app": entry["app"],
                "remaining": entry.get("remaining"),
                "seq": entry["seq"], "t": entry["t"]}
    return {"type": op, "app": entry["app"], "seq": entry["seq"],
            "t": entry["t"]}


async def _client_worker(host: str, port: int, apps: List[str],
                         entries: List[dict], spec_sha: Optional[str],
                         latencies: List[float],
                         pipeline: int = 1) -> None:
    """One connection's replay: its sub-trace, in seq order.

    ``pipeline`` is the window: ``1`` is lockstep (the latency a
    synchronous client observes); ``n`` sends windows of ``n``
    exchanges, one write each — valid in replay mode because a
    connection's sub-trace is seq-ascending and acks stay FIFO.  Each
    latency is stamped from its window's start as its ack is routed.
    """
    client = await ServiceClient.connect(host, port, apps, mode="replay",
                                         spec_sha=spec_sha)
    try:
        await client.send_windows(map(_entry_message, entries), len(entries),
                                  pipeline, latencies)
    except BaseException:
        await client.abort()
        raise
    await client.close()


async def replay_trace(trace: CoordinationTrace, host: str, port: int,
                       nclients: int,
                       reference_decisions: Optional[list] = None,
                       inproc_wall_seconds: float = 0.0,
                       pipeline: int = 1) -> LoadgenStats:
    """Replay a recorded trace through ``nclients`` concurrent clients.

    ``pipeline`` > 1 switches clients from lockstep to windowed
    pipelining (see :func:`_client_worker`).
    """
    if nclients < 1:
        raise ValueError(f"nclients must be >= 1, got {nclients}")
    apps = trace.apps
    spec_sha = trace.meta.get("spec_sha")
    hands = [h for h in _deal(apps, nclients) if h]
    latencies: List[float] = []
    wall_t0 = time.perf_counter()
    workers = [asyncio.ensure_future(_client_worker(
        host, port, hand, trace.entries_for(hand), spec_sha, latencies,
        pipeline=pipeline)) for hand in hands]
    try:
        await asyncio.gather(*workers)
    except BaseException:
        # The others would stall at the sequencer: stop them first.
        for worker in workers:
            worker.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
        raise
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
        equivalent = (sha == decisions_digest(reference_decisions)
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
        codec: str = "binary",
        pipeline: int = 1,
) -> Tuple[LoadgenStats, CoordinationService]:
    """Record (or reuse) a trace, serve it, replay it, drain — one scale.

    Self-hosted: a fresh :class:`CoordinationService` on an ephemeral
    port in this event loop.  ``trace_and_reference`` lets a multi-scale
    sweep record the in-process run once: ``(trace, reference_decisions,
    inproc_wall_seconds)``.  The (drained) service is returned so callers
    can string-compare full decision logs against the reference.

    The service plane always encodes binary.  ``codec`` accepts only
    ``"binary"`` and exists for callers that name the codec they measure
    (the repo benchmark's service-replay workload); any other value
    raises :class:`ValueError`.
    """
    if codec != "binary":
        raise ValueError(f"the service plane encodes binary, not {codec!r}")
    if trace_and_reference is None:
        trace, result = record_trace(spec)
        reference = result.decisions
        inproc_wall = float(result.perf.get("wall_seconds", 0.0))
    else:
        trace, reference, inproc_wall = trace_and_reference
    config = config or ServiceConfig()
    if config.spec_sha is None:
        # The probe/benchmark clients always send the trace's fingerprint.
        config = replace(config, spec_sha=spec_fingerprint(spec))
    service = CoordinationService(spec, config)
    await service.start()
    host, port = service.address
    try:
        stats = await replay_trace(trace, host, port, nclients,
                                   reference_decisions=reference,
                                   inproc_wall_seconds=inproc_wall,
                                   pipeline=pipeline)
    finally:
        await service.drain(timeout=10.0)
        await service.close()
    return stats, service
