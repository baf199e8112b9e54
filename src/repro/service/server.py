"""The coordination daemon: an arbiter serving sessions over the wire.

:class:`CoordinationService` hosts the exact coordination stack an
in-process run uses — a :class:`~repro.platforms.Platform` (for the
capacity/latency/estimator configuration the runtime injects into
strategies) plus a :class:`~repro.core.CalciomRuntime` whose
:class:`~repro.core.sharding.ShardRouter` takes the decisions — behind an
asyncio TCP listener speaking the :mod:`repro.service.protocol` framing.

Two serving modes, chosen per connection at ``hello``:

``replay``
    Deterministic: every exchange carries the global sequence number and
    simulated timestamp of a recorded :class:`~repro.service.trace.
    CoordinationTrace`.  A strict sequencer applies entry ``seq`` only
    once entries ``0..seq-1`` are applied (out-of-order arrivals are
    buffered, bounded per connection — the backpressure policy), and the
    daemon's *virtual clock* — the simulator that owns the arbiter — is
    advanced to each entry's recorded time before applying it.  Because
    the batched arbiter's decisions are invariant to round partitioning,
    replaying one exchange at a time reproduces the in-process decision
    log bit for bit (``tests/test_service_equivalence.py``).

``live``
    Exchanges apply on arrival at the current virtual clock (monotonic:
    a client-supplied ``t`` may only move it forward).  A connection that
    drops mid-session gets its applications withdrawn — the crash
    semantics a real deployment needs.

Admission control rejects ``hello``\\ s beyond ``max_sessions`` (or once
draining); :meth:`CoordinationService.drain` stops accepting, lets
connected clients finish and say ``bye``, then settles the simulator.
The ops surface (``/healthz``/``/metrics``) lives in
:mod:`repro.service.ops`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from ..core import CalciomRuntime
from ..experiments.spec import ExperimentSpec
from ..platforms import Platform
from .protocol import (
    CODECS, ProtocolError, WireDecoder, WireEncoder, decisions_to_json,
    default_wire_codec, descriptor_from_dict, read_message, write_message,
)

__all__ = ["ServiceConfig", "CoordinationService"]

_OPS = ("inform", "release", "complete", "withdraw")


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon tuning knobs (the admission/backpressure policy)."""

    host: str = "127.0.0.1"
    port: int = 0              #: 0 = ephemeral (bound port in ``address``)
    ops_port: Optional[int] = None  #: None disables the ops endpoints
    #: Admission: total concurrent coordination sessions (apps) served.
    max_sessions: int = 1024
    #: Backpressure: out-of-order replay entries buffered per connection
    #: before the daemon stops reading from it.
    max_pending: int = 64
    #: Reject clients whose hello carries a different spec fingerprint
    #: (None = accept any).
    spec_sha: Optional[str] = None


class _Connection:
    """Per-connection state: sessions, outbox, backpressure accounting."""

    __slots__ = ("cid", "mode", "apps", "writer", "outbox", "buffered",
                 "unblocked", "closed", "frames", "applied", "encoder",
                 "decoder")

    def __init__(self, cid: int, mode: str, apps: Set[str],
                 writer: asyncio.StreamWriter, encoder: WireEncoder,
                 decoder: WireDecoder):
        self.cid = cid
        self.mode = mode
        self.apps = apps
        self.writer = writer
        #: Frames queued for the writer task (acks, grants, errors).
        self.outbox: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        self.buffered = 0          #: out-of-order entries held by the sequencer
        self.unblocked = asyncio.Event()
        self.unblocked.set()
        self.closed = False
        self.frames = 0
        self.applied = 0
        self.encoder = encoder     #: negotiated codec, server->client frames
        self.decoder = decoder     #: universal (self-describing payloads)


class CoordinationService:
    """An asyncio daemon serving Inform/Release/Complete over the wire."""

    def __init__(self, spec: ExperimentSpec,
                 config: Optional[ServiceConfig] = None):
        if spec.strategy is None:
            raise ValueError("the coordination service needs a strategy "
                             "(spec.strategy is None)")
        self.spec = spec
        self.config = config or ServiceConfig()
        self.platform = Platform(spec.platform)
        self.runtime = CalciomRuntime(self.platform, strategy=spec.strategy,
                                      **dict(spec.arbiter))
        self.sim = self.platform.sim
        self.coordinator = self.runtime.coordinator
        self.perf = self.platform.perf

        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._ops_server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, _Connection] = {}
        self._sessions: Dict[str, int] = {}   #: app -> owning connection id
        self._next_cid = 0
        #: Replay sequencer: next global seq to apply, plus the buffer of
        #: early arrivals (seq -> (entry, owning connection)).
        self._next_seq = 0
        self._pending: Dict[int, Tuple[dict, _Connection]] = {}
        self._granted_subs: Set[str] = set()
        self._drained = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the coordination listener (and the ops sidecar, if any)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        if self.config.ops_port is not None:
            from .ops import handle_ops
            self._ops_server = await asyncio.start_server(
                lambda r, w: handle_ops(self, r, w),
                self.config.host, self.config.ops_port)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound coordination endpoint (resolves ephemeral ports)."""
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    @property
    def ops_address(self) -> Optional[Tuple[str, int]]:
        if self._ops_server is None:
            return None
        sock = self._ops_server.sockets[0]
        return sock.getsockname()[:2]

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admitting, let clients finish, settle.

        Returns True if every connection ended cleanly within ``timeout``
        (None = wait forever); on timeout the stragglers are dropped and
        False is returned.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        clean = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            clean = False
            await self._drop_all()
        # Settle the virtual clock: in-flight grant notifications, span
        # chains, hold timers.
        self.sim.run()
        self._drained.set()
        self.perf.bump("service_drains")
        return clean

    async def close(self) -> None:
        """Hard stop: drop every connection and both listeners."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._drop_all()
        if self._ops_server is not None:
            self._ops_server.close()
            await self._ops_server.wait_closed()
        self._drained.set()

    async def _drop_all(self) -> None:
        for conn in list(self._connections.values()):
            await self._finish_connection(conn, abnormal=True)

    # ------------------------------------------------------------------
    # Introspection (shared with the ops endpoints)
    # ------------------------------------------------------------------
    @property
    def decision_log(self):
        return self.runtime.decision_log

    def decision_digest(self) -> Tuple[str, int]:
        """(sha256 of the canonical decision-log serialization, count)."""
        import hashlib
        log = self.decision_log
        canonical = decisions_to_json(log)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest(), len(log)

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "sessions": len(self._sessions),
            "max_sessions": self.config.max_sessions,
            "connections": len(self._connections),
            "draining": self.draining,
            "next_seq": self._next_seq,
            "pending": len(self._pending),
            "sim_time": self.sim.now,
            "decisions": len(self.decision_log),
        }

    def live_gauges(self) -> Dict[str, int]:
        """Current values that go up and down, unlike the perf counters."""
        return {
            "service_sessions_active": len(self._sessions),
            "service_connections_active": len(self._connections),
            "service_pending_entries": len(self._pending),
            "service_draining": int(self.draining),
        }

    def metrics_snapshot(self) -> Dict[str, float]:
        """Perf counters plus live gauges, one flat namespace."""
        snap = dict(self.perf.as_dict())
        snap.update(self.live_gauges())
        return snap

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn: Optional[_Connection] = None
        writer_task: Optional[asyncio.Task] = None
        try:
            conn = await self._admit(reader, writer)
            if conn is None:
                return
            writer_task = asyncio.ensure_future(self._writer_loop(conn))
            await self._reader_loop(conn, reader)
        except (ProtocolError, ConnectionError, asyncio.CancelledError) as exc:
            self.perf.bump("service_protocol_errors")
            if conn is not None and not conn.closed:
                try:
                    conn.outbox.put_nowait(
                        {"type": "error", "reason": str(exc)})
                except Exception:  # pragma: no cover - raced shutdown
                    pass
        finally:
            if conn is not None:
                await self._finish_connection(conn, abnormal=not conn.closed)
                if writer_task is not None:
                    conn.outbox.put_nowait(None)
                    try:
                        await writer_task
                    except Exception:  # pragma: no cover - peer vanished
                        pass
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - peer vanished
                pass

    async def _admit(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> Optional[_Connection]:
        """The hello handshake: admission control and codec negotiation."""
        hello = await read_message(reader)
        if hello is None:
            return None
        if hello.get("type") != "hello":
            raise ProtocolError(f"expected hello, got {hello.get('type')!r}")
        apps = [str(a) for a in hello.get("apps", [])]
        mode = hello.get("mode", "live")
        # Codec negotiation: grant the client's proposal when we speak it,
        # else fall back to the JSON oracle.  Hello/welcome are always
        # JSON; only post-handshake *encoders* switch (payloads are
        # self-describing, so decoders never need to).
        codec = hello.get("codec", "json")
        if codec not in CODECS:
            codec = "json"
        reason = None
        if mode not in ("replay", "live"):
            reason = f"unknown mode {mode!r}"
        elif self.draining:
            reason = "draining"
        elif not apps:
            reason = "hello declares no apps"
        elif len(self._sessions) + len(apps) > self.config.max_sessions:
            reason = "at-capacity"
        elif any(a in self._sessions for a in apps):
            reason = "duplicate-app"
        elif (self.config.spec_sha is not None
              and hello.get("spec_sha") not in (None, self.config.spec_sha)):
            reason = "spec-mismatch"
        if reason is not None:
            self.perf.bump("service_rejections")
            await write_message(writer, {"type": "rejected",
                                         "reason": reason})
            return None
        cid = self._next_cid
        self._next_cid += 1
        conn = _Connection(cid, mode, set(apps), writer,
                           WireEncoder(codec, perf=self.perf),
                           WireDecoder(perf=self.perf))
        self._connections[cid] = conn
        for app in apps:
            self._sessions[app] = cid
        self._idle.clear()
        self.perf.bump("service_connections")
        self.perf.bump("service_sessions", len(apps))
        await write_message(writer, {"type": "welcome", "mode": mode,
                                     "next_seq": self._next_seq,
                                     "codec": codec})
        return conn

    async def _writer_loop(self, conn: _Connection) -> None:
        """Drain the connection's outbox in order; None is the sentinel.

        Coalescing happens here: every frame already queued is encoded
        into one buffer and shipped with a single ``write``/``drain`` —
        the replies of a whole coordination wave (a pipelined replay
        round's acks, a grant burst) cost one syscall, not one each.
        """
        outbox = conn.outbox
        writer = conn.writer
        encoder = conn.encoder
        while True:
            frame = await outbox.get()
            if frame is None:
                return
            batch = bytearray(encoder.encode(frame))
            batched = 1
            done = False
            while not outbox.empty():
                frame = outbox.get_nowait()
                if frame is None:
                    done = True
                    break
                batch += encoder.encode(frame)
                batched += 1
            writer.write(bytes(batch))
            await writer.drain()
            self._note_flush(batched)
            if done:
                return

    def _note_flush(self, batched: int) -> None:
        self.perf.bump("wire_flushes")
        if batched > 1:
            self.perf.bump("wire_coalesced_frames", batched - 1)

    async def _reader_loop(self, conn: _Connection,
                           reader: asyncio.StreamReader) -> None:
        while True:
            # Backpressure: a connection whose out-of-order entries fill
            # the buffer is not read again until the sequencer drains it.
            await conn.unblocked.wait()
            message = await read_message(reader, conn.decoder)
            if message is None:
                # EOF without bye: abnormal (peer vanished).
                return
            conn.frames += 1
            self.perf.bump("service_frames")
            mtype = message.get("type")
            if mtype == "bye":
                conn.closed = True
                await self._finish_connection(conn, abnormal=False)
                conn.outbox.put_nowait({"type": "bye-ack"})
                return
            if mtype == "decision-digest":
                sha, count = self.decision_digest()
                conn.outbox.put_nowait({"type": "decision-digest",
                                        "sha256": sha, "decisions": count})
                continue
            if mtype not in _OPS:
                raise ProtocolError(f"unknown message type {mtype!r}")
            self._ingest(conn, message)

    # ------------------------------------------------------------------
    # The sequencer and the virtual clock
    # ------------------------------------------------------------------
    def _ingest(self, conn: _Connection, entry: dict) -> None:
        app = (entry.get("app")
               or (entry.get("descriptor") or {}).get("app"))
        if app not in conn.apps:
            raise ProtocolError(
                f"exchange for {app!r} on a connection serving "
                f"{sorted(conn.apps)}")
        if conn.mode == "live":
            self._apply(conn, entry)
            return
        seq = entry.get("seq")
        if not isinstance(seq, int) or seq < 0:
            raise ProtocolError(f"replay exchange without a seq: {entry!r}")
        if seq < self._next_seq or seq in self._pending:
            raise ProtocolError(f"duplicate seq {seq}")
        if seq == self._next_seq:
            self._apply(conn, entry)
            self._next_seq += 1
            self._drain_pending()
        else:
            self._pending[seq] = (entry, conn)
            conn.buffered += 1
            self.perf.bump("service_reordered_frames")
            if conn.buffered >= self.config.max_pending:
                conn.unblocked.clear()
                self.perf.bump("service_backpressure_stalls")

    def _drain_pending(self) -> None:
        """Apply every buffered entry the sequencer has caught up to."""
        while self._next_seq in self._pending:
            entry, owner = self._pending.pop(self._next_seq)
            owner.buffered -= 1
            if owner.buffered < self.config.max_pending:
                owner.unblocked.set()
            self._apply(owner, entry)
            self._next_seq += 1

    def _apply(self, conn: _Connection, entry: dict) -> None:
        """Apply one exchange to the arbiter at its simulated time.

        Synchronous — the arbiter's ``on_*`` entry points decide
        immediately (round partitioning does not change decisions), and
        running inside one event-loop task step makes each apply atomic.
        """
        op = entry["op"] if "op" in entry else entry["type"]
        t = entry.get("t")
        if t is not None and float(t) > self.sim.now:
            # Advance the virtual clock, firing grant notifications, span
            # chains and hold timers scheduled before the new time.
            self.sim.run(until=float(t))
        ack: Dict[str, Any] = {"type": f"{op}-ack", "t": self.sim.now}
        if "seq" in entry:
            ack["seq"] = entry["seq"]
        if op == "inform":
            descriptor = descriptor_from_dict(entry.get("descriptor") or {})
            authorized = self.coordinator.on_inform(descriptor)
            self._settle(conn)
            app = descriptor.app
            if not authorized:
                self._subscribe_grant(conn, app)
            ack["app"] = app
            ack["authorized"] = bool(authorized)
        elif op == "release":
            remaining = entry.get("remaining")
            self.coordinator.on_release(
                entry["app"],
                None if remaining is None else float(remaining))
            ack["app"] = entry["app"]
        else:  # complete / withdraw
            self.coordinator.withdraw(entry["app"])
            self._settle(conn)
            ack["app"] = entry["app"]
        conn.applied += 1
        self.perf.bump("service_exchanges_applied")
        conn.outbox.put_nowait(ack)

    def _settle(self, conn: _Connection) -> None:
        """Drive the simulator after an exchange, mode-appropriately.

        Replay: only same-timestamp followups (multi-shard span chains) —
        the recorded timeline advances the clock between exchanges, and
        hold timers must fire exactly where the recording put them.
        Live: to exhaustion — there is no recorded timeline, so virtual
        time is event-driven (grant latencies and hold timers elapse
        between client exchanges); the clock stays monotonic because a
        client ``t`` may only move it forward.
        """
        if conn.mode == "live":
            self.sim.run()
        else:
            self.sim.run(until=self.sim.now)

    def _subscribe_grant(self, conn: _Connection, app: str) -> None:
        """Push a grant frame when a queued app's authorization fires."""
        if app in self._granted_subs:
            return
        self._granted_subs.add(app)
        event = self.coordinator.authorization_event(app)

        def _on_grant(_ev: object, app: str = app) -> None:
            self._granted_subs.discard(app)
            owner = self._connections.get(self._sessions.get(app, -1))
            if owner is not None and not owner.closed:
                self.perf.bump("service_grants_pushed")
                owner.outbox.put_nowait(
                    {"type": "grant", "app": app, "t": self.sim.now})

        if event.processed:
            _on_grant(event)
        else:
            event.callbacks.append(_on_grant)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    async def _finish_connection(self, conn: _Connection,
                                 abnormal: bool) -> None:
        if conn.cid not in self._connections:
            return
        del self._connections[conn.cid]
        for app in conn.apps:
            self._sessions.pop(app, None)
            if abnormal and conn.mode == "live":
                # Crash semantics: a vanished client's accesses must not
                # hold authorizations forever.
                self.coordinator.withdraw(app)
                self._settle(conn)
                self.perf.bump("service_crash_withdrawals")
        if abnormal:
            self.perf.bump("service_abnormal_disconnects")
        if not self._connections:
            self._idle.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CoordinationService sessions={len(self._sessions)} "
                f"next_seq={self._next_seq} draining={self.draining}>")
