"""Coordination-as-a-service: the CALCioM arbiter behind a network daemon.

Every experiment so far ran the arbiter *inside* the simulation process.
This package turns the coordination layer into a long-running service —
the deployment shape the paper implies for a production machine, where
applications are separate jobs and the arbiter is machine infrastructure:

* :mod:`repro.service.protocol` — length-prefixed message framing with
  two self-describing payload codecs (canonical JSON, the oracle the
  shard workers speak, and the struct-packed binary codec with
  descriptor interning the daemon speaks) plus the wire schemas for
  :class:`~repro.core.metrics.AccessDescriptor` and
  :class:`~repro.core.arbiter.DecisionRecord`;
* :mod:`repro.service.trace` — :class:`RecordingRouter`, a transparent
  coordinator proxy recording every Inform/Release/Complete exchange of
  an in-process run as a replayable :class:`CoordinationTrace`;
* :mod:`repro.service.server` — :class:`CoordinationService`, the asyncio
  daemon (one callback-driven protocol per connection) hosting an
  arbiter/:class:`~repro.core.sharding.ShardRouter` with admission
  control, per-connection backpressure and graceful drain;
* :mod:`repro.service.ops` — the operations sidecar (``/healthz`` +
  ``/metrics`` HTTP endpoints over the daemon's perf counters);
* :mod:`repro.service.client` — :class:`ServiceClient` /
  :class:`RemoteSession`, the over-the-wire mirror of
  :class:`~repro.core.session.CalciomSession`'s protocol surface;
* :mod:`repro.service.loadgen` — the ``service-many-writers`` load
  generator (N concurrent clients replaying the ``many-writers`` mix,
  sustained decisions/sec + tail latency, decision-log equivalence).

The correctness anchor: a trace recorded from an in-process run and
replayed through the daemon produces a **bit-identical decision log** —
the batched arbiter's decisions are invariant to how same-timestamp
exchanges are partitioned into rounds, so the wire's serialization of a
round into single-exchange applications changes nothing (asserted on
randomized traces in ``tests/test_service_equivalence.py``).
"""

from .client import RemoteSession, ServiceClient
from .protocol import (
    FrameError, FrameReader, FrameSplitter, ProtocolError, WireDecoder,
    WireEncoder, canonical_json, decision_to_dict, descriptor_from_dict,
    descriptor_to_dict,
)
from .server import CoordinationService, ServiceConfig
from .trace import CoordinationTrace, RecordingRouter, record_trace

__all__ = [
    "CoordinationService", "ServiceConfig",
    "ServiceClient", "RemoteSession",
    "CoordinationTrace", "RecordingRouter", "record_trace",
    "ProtocolError", "FrameError",
    "WireEncoder", "WireDecoder", "FrameSplitter", "FrameReader",
    "canonical_json",
    "descriptor_to_dict", "descriptor_from_dict", "decision_to_dict",
]
