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

The data plane is callback-driven: each connection is one
:class:`asyncio.Protocol`.  ``data_received`` splits and decodes every
complete frame of the chunk, then the daemon runs parse, sequencer and
:meth:`~CoordinationService._apply` synchronously, queueing acks and
pushed grants on the owning connection's encoder; every connection with
queued frames is written once at the end of the chunk.  One task per
connection (``_reader_loop``) holds only the hello and the connection's
lifetime.  Backpressure maps onto the transport: a connection is not
read, and its decoded frames are not served, while its out-of-order
replay entries fill ``max_pending`` or while its peer is not reading its
acks (the transport paused writing; ``_writer_loop`` waits that out).
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..core import CalciomRuntime
from ..experiments.spec import ExperimentSpec
from ..platforms import Platform
from .protocol import (
    CODECS, FrameSplitter, ProtocolError, WireDecoder, WireEncoder,
    decisions_to_json, decode_message, descriptor_from_dict, encode_message,
)

__all__ = ["ServiceConfig", "CoordinationService"]

_OPS = ("inform", "release", "complete", "withdraw")

#: The daemon's per-frame counters, kept as plain ints (``_n_<name>``).
_FOLDED_COUNTERS = ("service_frames", "service_exchanges_applied",
                    "service_grants_pushed", "service_reordered_frames")


def _finite(value: Any, what: str) -> float:
    """``value`` as a finite float, else :class:`ProtocolError`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ProtocolError(f"{what} must be a finite number, got {value!r}")


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


#: Why a connection is not being read (bits of ``_Connection.holds``).
_SEQUENCER = 1   #: its out-of-order replay entries reached ``max_pending``
_WRITE = 2       #: its peer stopped reading (the transport paused writing)


class _Connection(asyncio.Protocol):
    """One client connection: the transport callbacks and their state.

    ``data_received`` splits and decodes every complete frame of a chunk
    into ``inbox`` and hands the connection to the daemon, which serves
    the inbox synchronously; a held connection (``holds`` != 0) keeps
    its remaining frames there until the hold is released.
    """

    __slots__ = ("service", "transport", "splitter", "inbox", "hello",
                 "ended", "writable", "cid", "mode", "apps", "encoder",
                 "decoder", "buffered", "holds", "closed", "dirty")

    def __init__(self, service: "CoordinationService"):
        loop = asyncio.get_running_loop()
        self.service = service
        self.transport: Optional[asyncio.Transport] = None
        self.splitter = FrameSplitter()
        #: Decoded frames not yet served, or the error that ended them.
        self.inbox: Deque[Any] = deque()
        #: The first frame's payload (None when the peer left before it).
        self.hello: "asyncio.Future[Optional[bytes]]" = loop.create_future()
        self.ended: "asyncio.Future[None]" = loop.create_future()
        #: Pending while the transport is paused for writing.
        self.writable: Optional[asyncio.Future] = None
        # Set by admission:
        self.cid = -1
        self.mode = ""
        self.apps: Set[str] = set()
        self.encoder: Optional[WireEncoder] = None  #: negotiated codec
        self.decoder: Optional[WireDecoder] = None  #: universal
        self.buffered = 0     #: out-of-order entries held by the sequencer
        self.holds = 0        #: _SEQUENCER | _WRITE while not read
        #: No further frame is served; the transport closes at the next
        #: flush (after a bye-ack or an error frame).
        self.closed = False
        self.dirty = False    #: frames queued since the last flush

    # -- asyncio.Protocol --------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.service._accept(self)

    def data_received(self, data: bytes) -> None:
        self.splitter.feed(data)
        if self.decoder is not None:
            self.decoder.decode_frames(self.splitter, self.inbox)
            self.service._serve(self)
        elif not self.hello.done():
            try:
                payload = self.splitter.next()
            except ProtocolError as exc:
                self.hello.set_exception(exc)
                return
            if payload is not None:
                # Nothing more is read until the hello is answered.
                self.transport.pause_reading()
                self.hello.set_result(payload)

    def eof_received(self) -> bool:
        self.service._peer_eof(self)
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.service._lost(self, exc)

    def pause_writing(self) -> None:
        self.service._pause_writes(self)

    def resume_writing(self) -> None:
        if self.writable is not None and not self.writable.done():
            self.writable.set_result(None)


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
        # Per-frame counters: plain ints folded into ``perf`` on read.
        self._n_service_frames = 0
        self._n_service_exchanges_applied = 0
        self._n_service_grants_pushed = 0
        self._n_service_reordered_frames = 0
        self.perf.attach(self, _FOLDED_COUNTERS)

        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._ops_server: Optional[asyncio.AbstractServer] = None
        #: Every open transport, admitted or not (a hard stop drops all).
        self._open: Set[_Connection] = set()
        #: Running per-connection tasks (the loop holds tasks weakly).
        self._tasks: Set[asyncio.Task] = set()
        self._connections: Dict[int, _Connection] = {}
        self._sessions: Dict[str, int] = {}   #: app -> owning connection id
        self._next_cid = 0
        #: Connections with frames queued since the last flush.
        self._dirty: List[_Connection] = []
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
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port)
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
        clean = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            clean = False
            self._drop_all()
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
        self._drop_all()
        if self._server is not None:
            await self._server.wait_closed()
        if self._ops_server is not None:
            self._ops_server.close()
            await self._ops_server.wait_closed()
        self._drained.set()

    def _drop_all(self) -> None:
        for conn in list(self._open):
            self._finish_connection(conn, abnormal=True)
            conn.closed = True
            conn.transport.abort()
        self._flush()

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
    def _accept(self, conn: _Connection) -> None:
        """A transport opened: track it and start its lifetime task."""
        self._open.add(conn)
        self._spawn(self._reader_loop(conn))

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _reader_loop(self, conn: _Connection) -> None:
        """Run the connection's hello, then wait for the connection to end.

        Every frame after the hello is served from ``data_received``; this
        task only holds the handshake and the connection's lifetime.
        """
        transport = conn.transport
        try:
            payload = await conn.hello
            if payload is not None and not conn.ended.done():
                self._admit(conn, decode_message(payload))
        except ProtocolError as exc:
            # A malformed hello: no session yet, answer on the socket.
            self.perf.bump("service_protocol_errors")
            transport.write(encode_message({"type": "error",
                                            "reason": str(exc)}))
        if conn.decoder is None:
            transport.close()
        else:
            transport.resume_reading()
            # Frames the client sent behind its hello.
            conn.decoder.decode_frames(conn.splitter, conn.inbox)
            self._serve(conn)
        await conn.ended

    def _admit(self, conn: _Connection, hello: dict) -> None:
        """The hello handshake: admission control and codec negotiation."""
        if hello.get("type") != "hello":
            raise ProtocolError(f"expected hello, got {hello.get('type')!r}")
        apps = hello.get("apps", [])
        if not isinstance(apps, list):
            raise ProtocolError(f"hello.apps must be a list, got {apps!r}")
        apps = [str(a) for a in apps]
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
            conn.transport.write(encode_message({"type": "rejected",
                                                 "reason": reason}))
            return
        conn.cid = cid = self._next_cid
        self._next_cid += 1
        conn.mode = mode
        conn.apps = set(apps)
        conn.encoder = WireEncoder(codec, perf=self.perf)
        conn.decoder = WireDecoder(perf=self.perf)
        self._connections[cid] = conn
        for app in apps:
            self._sessions[app] = cid
        self._idle.clear()
        self.perf.bump("service_connections")
        self.perf.bump("service_sessions", len(apps))
        conn.transport.write(encode_message({
            "type": "welcome", "mode": mode, "next_seq": self._next_seq,
            "codec": codec}))

    def _serve(self, conn: _Connection) -> None:
        """Serve the connection's decoded frames until a hold, then flush."""
        inbox = conn.inbox
        try:
            while inbox and not conn.holds and not conn.closed:
                message = inbox.popleft()
                if isinstance(message, ProtocolError):
                    raise message
                self._handle(conn, message)
        except ProtocolError as exc:
            self._fail(conn, exc)
        self._flush()

    def _handle(self, conn: _Connection, message: dict) -> None:
        self._n_service_frames += 1
        mtype = message.get("type")
        if mtype == "bye":
            conn.closed = True
            self._finish_connection(conn, abnormal=False)
            self._push(conn, {"type": "bye-ack"})
            return
        if mtype == "decision-digest":
            sha, count = self.decision_digest()
            self._push(conn, {"type": "decision-digest", "sha256": sha,
                              "decisions": count})
            return
        if mtype not in _OPS:
            raise ProtocolError(f"unknown message type {mtype!r}")
        self._ingest(conn, self._parse(conn, message))

    def _fail(self, conn: _Connection, exc: ProtocolError) -> None:
        """Answer a protocol fault with an error frame and drop the peer."""
        self.perf.bump("service_protocol_errors")
        self._push(conn, {"type": "error", "reason": str(exc)})
        conn.closed = True
        self._finish_connection(conn, abnormal=True)

    def _push(self, conn: _Connection, message: dict) -> None:
        """Queue one frame for the connection's next flush."""
        conn.encoder.queue(message)
        if not conn.dirty:
            conn.dirty = True
            self._dirty.append(conn)

    def _flush(self) -> None:
        """One write per connection with queued frames.

        Coalescing happens here: the acks and grants a chunk produced —
        a pipelined replay wave, a grant burst — leave in one buffer per
        connection, written once at the end of the chunk.
        """
        for conn in self._dirty:
            conn.dirty = False
            data = conn.encoder.flush()
            if not conn.transport.is_closing():
                conn.transport.write(data)
                if conn.closed:
                    conn.transport.close()
        self._dirty.clear()

    # -- backpressure -------------------------------------------------------
    def _hold(self, conn: _Connection, why: int) -> None:
        """Stop reading the connection and serving its decoded frames."""
        if not conn.holds:
            conn.transport.pause_reading()
        conn.holds |= why
        self.perf.bump("service_backpressure_stalls")

    def _release(self, conn: _Connection, why: int) -> None:
        if not conn.holds & why:
            return
        conn.holds &= ~why
        if conn.holds or conn.closed:
            return
        conn.transport.resume_reading()
        if conn.inbox:
            # Not re-entrantly: this runs inside another connection's apply.
            asyncio.get_running_loop().call_soon(self._serve, conn)

    def _pause_writes(self, conn: _Connection) -> None:
        """The transport passed its write high-water mark."""
        conn.writable = asyncio.get_running_loop().create_future()
        self._hold(conn, _WRITE)
        self._spawn(self._writer_loop(conn))

    async def _writer_loop(self, conn: _Connection) -> None:
        """Wait out a paused write, then read the connection again.

        The peer is not reading its acks, and every frame served queues
        another, so the connection is held until its transport drains
        below the low-water mark (or the connection ends).
        """
        await conn.writable
        conn.writable = None
        self._release(conn, _WRITE)

    # -- the end of a connection --------------------------------------------
    def _peer_eof(self, conn: _Connection) -> None:
        """The peer closed its side: a partial frame is its fault."""
        if conn.decoder is None:
            if not conn.hello.done():
                error = conn.splitter.truncation()
                if error is None:
                    conn.hello.set_result(None)
                else:
                    conn.hello.set_exception(error)
            return
        if conn.closed:
            return
        error = conn.splitter.truncation()
        if error is not None:
            self._fail(conn, error)
        else:
            # EOF without bye: abnormal (peer vanished).
            conn.closed = True
            self._finish_connection(conn, abnormal=True)
        self._flush()

    def _lost(self, conn: _Connection, exc: Optional[Exception]) -> None:
        """The transport closed; release everything the connection held."""
        self._open.discard(conn)
        if not conn.hello.done():
            conn.hello.set_result(None)
        if conn.writable is not None and not conn.writable.done():
            conn.writable.set_result(None)
        if conn.cid in self._connections:
            if exc is not None:
                self.perf.bump("service_protocol_errors")
            conn.closed = True
            self._finish_connection(conn, abnormal=True)
            self._flush()
        if conn.encoder is not None:
            self.perf.detach(conn.encoder, conn.decoder)
        conn.ended.set_result(None)

    # ------------------------------------------------------------------
    # The sequencer and the virtual clock
    # ------------------------------------------------------------------
    def _parse(self, conn: _Connection, message: dict) -> dict:
        """Validate one exchange frame into the entry :meth:`_apply` runs.

        Runs on the sender's connection before anything is buffered, so a
        malformed frame is its sender's :class:`ProtocolError` — never
        the error of whichever peer's frame later drains the sequencer.
        """
        op = message["type"]
        t = message.get("t")
        entry: Dict[str, Any] = {"type": op,
                                 "t": None if t is None else _finite(t, "t")}
        if "seq" in message:
            entry["seq"] = message["seq"]
        if op == "inform":
            data = message.get("descriptor")
            if not isinstance(data, dict):
                raise ProtocolError(
                    f"inform needs a descriptor object, got {data!r}")
            entry["descriptor"] = descriptor_from_dict(data)
            app = entry["descriptor"].app
        else:
            app = message.get("app")
            if not isinstance(app, str):
                raise ProtocolError(f"{op} needs an app name, got {app!r}")
            if op == "release":
                remaining = message.get("remaining")
                entry["remaining"] = (None if remaining is None
                                      else _finite(remaining, "remaining"))
        if app not in conn.apps:
            raise ProtocolError(
                f"exchange for {app!r} on a connection serving "
                f"{sorted(conn.apps)}")
        entry["app"] = app
        return entry

    def _ingest(self, conn: _Connection, entry: dict) -> None:
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
            self._n_service_reordered_frames += 1
            if conn.buffered >= self.config.max_pending:
                self._hold(conn, _SEQUENCER)

    def _drain_pending(self) -> None:
        """Apply every buffered entry the sequencer has caught up to."""
        while self._next_seq in self._pending:
            entry, owner = self._pending.pop(self._next_seq)
            owner.buffered -= 1
            if owner.buffered < self.config.max_pending:
                self._release(owner, _SEQUENCER)
            self._apply(owner, entry)
            self._next_seq += 1

    def _apply(self, conn: _Connection, entry: dict) -> None:
        """Apply one exchange to the arbiter at its simulated time.

        Synchronous — the arbiter's ``on_*`` entry points decide
        immediately (round partitioning does not change decisions), and
        running inside one transport callback makes each apply atomic.
        """
        op = entry["type"]
        app = entry["app"]
        t = entry["t"]
        if t is not None and t > self.sim.now:
            # Advance the virtual clock, firing grant notifications, span
            # chains and hold timers scheduled before the new time.
            self.sim.run(until=t)
        ack: Dict[str, Any] = {"type": f"{op}-ack", "t": self.sim.now}
        if "seq" in entry:
            ack["seq"] = entry["seq"]
        ack["app"] = app
        if op == "inform":
            authorized = self.coordinator.on_inform(entry["descriptor"])
            self._settle(conn)
            if not authorized:
                self._subscribe_grant(conn, app)
            ack["authorized"] = bool(authorized)
        elif op == "release":
            self.coordinator.on_release(app, entry["remaining"])
        else:  # complete / withdraw
            self.coordinator.withdraw(app)
            self._settle(conn)
        self._n_service_exchanges_applied += 1
        self._push(conn, ack)

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
                self._n_service_grants_pushed += 1
                self._push(owner,
                           {"type": "grant", "app": app, "t": self.sim.now})

        if event.processed:
            _on_grant(event)
        else:
            event.callbacks.append(_on_grant)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _finish_connection(self, conn: _Connection, abnormal: bool) -> None:
        """Close the connection's sessions (withdrawn if it crashed live).

        Frames it still has queued (a bye-ack, an error) are flushed by
        the caller's flush; crash withdrawals may queue grants for others.
        """
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
