"""Process-parallel shard execution: one worker process per ArbiterShard.

The in-process :class:`~repro.core.sharding.ShardRouter` made the decision
loop *algorithmically* cheap — each shard's arbiter only scans its own
partition's backlog — but every shard still runs interleaved in one Python
process, so wall-clock stays GIL-bound.  This module runs each shard in
its own worker process:

* :func:`_shard_worker_main` — the worker loop.  Hosts one batched
  :class:`~repro.core.arbiter.Arbiter` (``grant_latency=0``) on its own
  virtual clock, applies Inform/Release/Complete/Withdraw ops shipped
  over a blocking ``socketpair`` speaking the length-prefixed
  canonical-JSON framing of :mod:`repro.service.protocol` (JSON only:
  the binary codec serves the service daemon), and replies
  with the ordered stream of state transitions each op caused plus its
  next pending virtual-clock event (``nw``).
* :class:`ShardProcessPool` — the router-side end.  Buffers and
  pipelines sends (independent shards overlap instead of round-tripping
  serially), reads replies at a same-timestamp drain (the process
  analogue of the batched arbiter's coordination-round flush), arms
  virtual-clock timers from reported ``nw`` values so DELAY holds expire
  on schedule, and meters router-side elapsed wall time into
  ``coord_wall_seconds``.
* :class:`WorkerShardProxy` — presents the :class:`Arbiter` protocol
  surface for one remote shard.  A router-side *mirror* (state map,
  authorization events, in-flight grants, last decisions) is replayed
  from the ordered transition streams, applying the router-level
  ``grant_latency`` exactly where the in-process arbiter would.

Clock discipline and bit-identity
---------------------------------
Every op carries the router's virtual time ``t``; the worker catches its
own clock up (``sim.run(until=t)``), applies the exchange through the
synchronous ``on_inform``/``on_release``/``on_complete`` entry points
(bit-identical to batched rounds by the round-partitioning invariance the
batched arbiter guarantees), then settles same-timestamp events.  Grants
carry no latency inside the worker; the mirror applies ``grant_latency``
when it replays the ACTIVE transition, so sessions observe authorization
exactly when they would in-process.  The remaining divergence window is
an exact-timestamp collision between a DELAY-hold expiry and an
unrelated arrival (event-id ordering inside one timestamp), which has
measure zero under the continuous arrival processes of the committed
scenarios — and the equivalence tests assert bit-identical logs there.

Failure semantics
-----------------
A worker that dies mid-run (killed process, broken pipe, stall past
``REPRO_SHARD_TIMEOUT`` seconds) surfaces as a :class:`ShardWorkerError`
out of the simulation; the pool first fire-and-forgets Withdraw for every
non-IDLE application on the surviving shards, then tears every worker
down without hanging (exit frame, bounded join, terminate, kill).

Environment knobs: ``REPRO_SHARD_START_METHOD`` (``fork`` where
available, else ``spawn``) and ``REPRO_SHARD_TIMEOUT`` (seconds, default
120) — both read at pool start.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import socket
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from ..perf import PerfCounters
from ..simcore import Event, Simulator
from .arbiter import AccessState, Arbiter, DecisionRecord
from .metrics import AccessDescriptor
from .sharding import ShardWorkerError
from .strategies import Action

# NOTE: imported at module level deliberately — this module is only ever
# imported lazily (ShardRouter pulls it in when workers="process"), after
# the repro.core package finished initializing, so the
# service -> server -> core import chain is safe here.
from ..service.protocol import (
    FrameReader, ProtocolError, WireDecoder, WireEncoder, decision_to_dict,
    descriptor_from_dict, descriptor_to_dict, encode_message, write_frame,
)

__all__ = ["ShardProcessPool", "WorkerShardProxy", "ShardWorkerError"]

#: Outstanding unread replies across all shards before an intermediate
#: drain; bounds the worker->router socket-buffer footprint well under
#: the kernel's default buffer so neither side ever blocks on a full pipe.
REPLY_WINDOW = 256

#: Flush a worker's queued ops past this many even with no reply pending
#: (keeps fire-and-forget stretches memory-bounded: ~64 KiB of JSON ops).
SEND_BUFFER_FRAMES = 256

_LOG_CHUNK_BYTES = 400_000


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _queue_reply(encoder: WireEncoder, sim: Simulator,
                 transitions: List, **extra: Any) -> None:
    peek = sim.peek()
    msg: Dict[str, Any] = {
        "type": "r",
        "tr": [list(tr) for tr in transitions],
        "nw": None if math.isinf(peek) else peek,
    }
    msg.update(extra)
    encoder.queue(msg)
    del transitions[:]


def _shard_worker_main(sock, index: int, strategy,
                       decision_log_limit: Optional[int]) -> None:
    """One shard's worker loop: read op, catch up clock, apply, reply.

    Replies are *buffered*: a pipelined stretch of ops (one coordination
    wave) produces one coalesced ``sendall``, flushed only before a read
    that would actually block on the socket — the router flushes its
    sends before reading replies, so this never deadlocks.
    """
    try:
        sim = Simulator()
        perf = PerfCounters()
        encoder = WireEncoder(perf=perf)
        reader = FrameReader(sock, WireDecoder(perf=perf))
        arb = Arbiter(sim, strategy, grant_latency=0.0,
                      decision_log_limit=decision_log_limit, perf=perf)
        transitions: List = []
        arb.transition_observer = (
            lambda app, state: transitions.append((app, state.value)))

        def _flush():
            data = encoder.flush()
            if data:
                sock.sendall(data)

        while True:
            if encoder.queued and not reader.has_buffered_frame():
                # Flush-before-block: the wave is over (nothing more is
                # parseable from the buffer), ship the coalesced replies.
                _flush()
            msg = reader.read_frame()
            if msg is None:
                break
            op = msg.get("op")
            if op == "exit":
                break
            t = msg.get("t")
            if t is not None and t > sim.now:
                sim.run(until=t)
            if op == "inform":
                desc = descriptor_from_dict(msg["d"])
                ok = arb.on_inform(desc)
                sim.run(until=sim.now)
                if msg.get("r"):
                    dec = arb.last_decision_for(desc.app)
                    _queue_reply(encoder, sim, transitions, ok=ok,
                                 dec=(None if dec is None
                                      else [dec[0].value, dec[1]]))
            elif op == "release":
                arb.on_release(msg["app"], msg.get("rem"))
                sim.run(until=sim.now)
            elif op in ("complete", "withdraw"):
                if op == "complete":
                    arb.on_complete(msg["app"])
                else:
                    arb.withdraw(msg["app"])
                sim.run(until=sim.now)
                if msg.get("r", 1):
                    _queue_reply(encoder, sim, transitions)
            elif op == "advance":
                sim.run(until=sim.now)
                _queue_reply(encoder, sim, transitions)
            elif op == "snapshot":
                sim.run(until=sim.now)
                _queue_reply(
                    encoder, sim, transitions,
                    active=[descriptor_to_dict(d)
                            for d in arb.active_descriptors()],
                    waiting=[descriptor_to_dict(d)
                             for d in arb.waiting_descriptors()],
                    preempted=[descriptor_to_dict(d)
                               for d in arb.preempted_descriptors()])
            elif op == "desc":
                d = arb.descriptor_of(msg["app"])
                _queue_reply(encoder, sim, transitions,
                             desc=(None if d is None
                                   else descriptor_to_dict(d)))
            elif op == "log":
                _flush()
                chunk: List[Dict[str, Any]] = []
                size = 0
                for rec in arb.decision_log:
                    d = decision_to_dict(rec)
                    s = len(json.dumps(d))
                    if chunk and size + s > _LOG_CHUNK_BYTES:
                        write_frame(sock, {"type": "log", "records": chunk,
                                           "more": True})
                        chunk, size = [], 0
                    chunk.append(d)
                    size += s
                write_frame(sock, {"type": "log", "records": chunk,
                                   "more": False})
            elif op == "perf":
                _queue_reply(encoder, sim, transitions, perf=perf.as_dict())
            else:
                raise ProtocolError(f"unknown op {op!r}")
        _flush()
    except Exception as exc:  # noqa: BLE001 - ship the failure to the router
        try:
            write_frame(sock, {"type": "error",
                               "msg": f"{type(exc).__name__}: {exc}"})
        except Exception:  # noqa: BLE001 - peer already gone
            pass
    finally:
        try:
            sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Router side
# ---------------------------------------------------------------------------

class _WorkerHandle:
    """One live worker: its process and the router's socket end."""

    __slots__ = ("proc", "sock", "encoder", "decoder", "reader")

    def __init__(self, proc, sock, perf=None):
        self.proc = proc
        self.sock = sock
        #: router->worker (JSON, metered); queues ops until a flush.
        self.encoder = WireEncoder(perf=perf)
        self.decoder = WireDecoder(perf=perf)
        self.reader = FrameReader(sock, self.decoder)  #: buffered reads


class _Pending:
    """One op awaiting its worker reply, in global send order."""

    __slots__ = ("shard", "kind", "event", "app", "reply")

    def __init__(self, shard: int, kind: str, event: Optional[Event],
                 app: Optional[str]):
        self.shard = shard
        self.kind = kind
        self.event = event
        self.app = app
        self.reply: Optional[Dict[str, Any]] = None


class ShardProcessPool:
    """Lifecycle + transport for one router's set of shard workers.

    Started lazily on the first coordination exchange — after
    :class:`~repro.core.api.CalciomRuntime` injected per-shard strategy
    capacity, so the pickled strategy instances carry it.
    """

    def __init__(self, sim: Simulator, nshards: int,
                 grant_latency: float = 0.0,
                 decision_log_limit: Optional[int] = None, perf=None):
        self.sim = sim
        self.nshards = int(nshards)
        self.grant_latency = float(grant_latency)
        self.decision_log_limit = decision_log_limit
        self.perf = perf
        self.proxies: List[WorkerShardProxy] = []
        self.handles: Optional[List[_WorkerHandle]] = None
        self.broken = False
        self.closed = False
        self.start_method: Optional[str] = None
        self._pending: deque = deque()
        self._pending_per_shard: Dict[int, int] = {}
        self._draining = False
        self._depth = 0
        #: Virtual time each shard's wake timer is armed for.
        self._armed: Dict[int, Optional[float]] = {}
        #: The engine Timer handle backing each armed wake; superseded
        #: timers are cancelled instead of dispatched-and-ignored.
        self._wake_timers: Dict[int, object] = {}

    # -- wall-clock metering ------------------------------------------------
    @contextmanager
    def _meter(self):
        t0 = time.perf_counter()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0 and self.perf is not None:
                self.perf.bump("coord_wall_seconds",
                               time.perf_counter() - t0)

    # -- lifecycle ----------------------------------------------------------
    def _ensure_started(self) -> None:
        if self.handles is not None:
            return
        if self.closed or self.broken:
            raise ShardWorkerError("shard worker pool is closed")
        method = os.environ.get("REPRO_SHARD_START_METHOD") or (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        timeout = float(os.environ.get("REPRO_SHARD_TIMEOUT", "120"))
        ctx = multiprocessing.get_context(method)
        self.start_method = method
        handles: List[_WorkerHandle] = []
        try:
            for proxy in self.proxies:
                parent, child = socket.socketpair()
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(child, proxy.index, proxy.strategy,
                          self.decision_log_limit),
                    daemon=True, name=f"arbiter-shard-{proxy.index}")
                proc.start()
                child.close()
                parent.settimeout(timeout)
                handles.append(_WorkerHandle(proc, parent, self.perf))
        except BaseException:
            for handle in handles:
                handle.sock.close()
                handle.proc.terminate()
            raise
        self.handles = handles

    def close(self) -> None:
        """Drain, ship per-worker logs/perf back, and tear the pool down."""
        if self.closed:
            return
        if self.handles is None or self.broken:
            self.closed = True
            return
        try:
            self.drain()
            for proxy in self.proxies:
                proxy._log_cache = self._fetch_log(proxy.index)
            if self.perf is not None:
                for proxy in self.proxies:
                    reply = self._direct(proxy.index, {"op": "perf"})
                    for key, value in reply.get("perf", {}).items():
                        # Per-worker elapsed time is *concurrent* — the
                        # router-side meter is the honest wall counter.
                        if key.startswith("coord_wall_seconds"):
                            continue
                        self.perf.bump(key, value)
                        if self.nshards > 1:
                            self.perf.bump(f"{key}_shard{proxy.index}", value)
        finally:
            self._shutdown()
            self.closed = True

    def _shutdown(self) -> None:
        for timer in self._wake_timers.values():
            timer.cancel()
        self._wake_timers.clear()
        if self.handles is None:
            return
        for handle in self.handles:
            if self.perf is not None:
                self.perf.detach(handle.encoder, handle.decoder)
            try:
                handle.sock.sendall(
                    encode_message({"type": "op", "op": "exit"}))
            except OSError:
                pass
            try:
                handle.sock.close()
            except OSError:
                pass
        for handle in self.handles:
            handle.proc.join(timeout=5)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=1)
            if handle.proc.is_alive():  # pragma: no cover - last resort
                handle.proc.kill()
                handle.proc.join(timeout=1)

    def _fail(self, shard: int, reason: str) -> None:
        """A worker died: withdraw on survivors, tear down, raise."""
        self.broken = True
        now = self.sim.now
        assert self.handles is not None
        for proxy in self.proxies:
            if proxy.index == shard:
                continue
            handle = self.handles[proxy.index]
            if not handle.proc.is_alive():
                continue
            try:
                for app in list(proxy._state):
                    handle.sock.sendall(encode_message(
                        {"type": "op", "op": "withdraw", "t": now, "r": 0,
                         "app": app}))
            except OSError:
                continue
        self._shutdown()
        self.closed = True
        raise ShardWorkerError(
            f"shard {shard} worker died mid-run: {reason}")

    # -- transport ----------------------------------------------------------
    def _send(self, shard: int, msg: Dict[str, Any]) -> None:
        self._ensure_started()
        assert self.handles is not None
        handle = self.handles[shard]
        msg.setdefault("type", "op")
        handle.encoder.queue(msg)
        if handle.encoder.queued >= SEND_BUFFER_FRAMES:
            self._flush_handle(shard, handle)

    def _flush_handle(self, shard: int, handle: _WorkerHandle) -> None:
        data = handle.encoder.flush()
        if not data:
            return
        try:
            handle.sock.sendall(data)
        except OSError as exc:
            self._fail(shard, f"send failed: {exc}")

    def _flush_sends(self) -> None:
        if self.handles is None:
            return
        for shard, handle in enumerate(self.handles):
            self._flush_handle(shard, handle)

    def _read_reply(self, shard: int) -> Dict[str, Any]:
        assert self.handles is not None
        try:
            msg = self.handles[shard].reader.read_frame()
        except (ProtocolError, OSError) as exc:
            self._fail(shard, str(exc))
        if msg is None:
            self._fail(shard, "worker closed the connection")
        if msg.get("type") == "error":
            self._fail(shard, msg.get("msg", "worker error"))
        return msg

    # -- op submission ------------------------------------------------------
    def pending_for(self, shard: int) -> int:
        return self._pending_per_shard.get(shard, 0)

    def _enqueue(self, entry: _Pending) -> None:
        if not self._pending and not self._draining:
            self.sim.call_at(self.sim.now, self.drain)
        self._pending.append(entry)
        per = self._pending_per_shard
        per[entry.shard] = per.get(entry.shard, 0) + 1
        if len(self._pending) >= REPLY_WINDOW:
            self.drain()

    def send_inform(self, shard: int, descriptor: AccessDescriptor,
                    reply: bool, event: Optional[Event] = None,
                    app: Optional[str] = None) -> Optional[_Pending]:
        with self._meter():
            self._send(shard, {"op": "inform", "t": self.sim.now,
                               "r": 1 if reply else 0,
                               "d": descriptor_to_dict(descriptor)})
            if not reply:
                return None
            entry = _Pending(shard, "inform", event, app)
            self._enqueue(entry)
            return entry

    def send_release(self, shard: int, app: str,
                     remaining: Optional[float]) -> None:
        with self._meter():
            self._send(shard, {"op": "release", "t": self.sim.now,
                               "app": app, "rem": remaining})

    def send_complete(self, shard: int, app: str, withdraw: bool) -> None:
        with self._meter():
            self._send(shard, {"op": "withdraw" if withdraw else "complete",
                               "t": self.sim.now, "r": 1, "app": app})
            self._enqueue(_Pending(shard, "complete", None, app))

    # -- the same-timestamp drain ------------------------------------------
    def drain(self) -> None:
        """Read every outstanding reply, replaying transitions in order.

        The process analogue of the batched arbiter's round flush: sends
        are buffered through the timestamp, flushed together (all workers
        compute concurrently), and the scheduled drain applies the ordered
        results.  Inform result events succeed grouped by shard in
        first-submission order — exactly the order the in-process router's
        per-shard round flushes would have produced.
        """
        if self._draining or not self._pending:
            return
        with self._meter():
            self._draining = True
            try:
                self._flush_sends()
                shard_first: Dict[int, int] = {}
                succeeds: List = []
                while self._pending:
                    entry = self._pending.popleft()
                    self._pending_per_shard[entry.shard] -= 1
                    reply = self._read_reply(entry.shard)
                    entry.reply = reply
                    proxy = self.proxies[entry.shard]
                    for app, state in reply.get("tr", ()):
                        proxy._apply_transition(app, state)
                    if entry.kind == "inform":
                        dec = reply.get("dec")
                        if dec is not None and entry.app is not None:
                            proxy._last_decision[entry.app] = (
                                Action(dec[0]), float(dec[1]))
                        if entry.event is not None:
                            key = shard_first.setdefault(entry.shard,
                                                         len(shard_first))
                            succeeds.append(
                                (key, len(succeeds), entry.event,
                                 bool(reply.get("ok"))))
                    self._note_wake(entry.shard, reply.get("nw"))
                succeeds.sort(key=lambda item: (item[0], item[1]))
                for _, _, ev, ok in succeeds:
                    ev.succeed(ok)
            finally:
                self._draining = False

    def _direct(self, shard: int, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Drained synchronous round trip (queries, perf)."""
        with self._meter():
            self.drain()
            self._send(shard, msg)
            self._flush_sends()
            reply = self._read_reply(shard)
            proxy = self.proxies[shard]
            for app, state in reply.get("tr", ()):
                proxy._apply_transition(app, state)
            self._note_wake(shard, reply.get("nw"))
            return reply

    def _fetch_log(self, shard: int) -> List[DecisionRecord]:
        with self._meter():
            self.drain()
            self._send(shard, {"op": "log"})
            self._flush_sends()
            records: List[DecisionRecord] = []
            while True:
                msg = self._read_reply(shard)
                records.extend(
                    DecisionRecord(
                        time=d["time"], app=d["app"],
                        action=Action(d["action"]),
                        active=list(d["active"]), waiting=list(d["waiting"]),
                        costs=dict(d["costs"]))
                    for d in msg.get("records", ()))
                if not msg.get("more"):
                    return records

    # -- virtual-clock wake timers -----------------------------------------
    def _note_wake(self, shard: int, nw: Optional[float]) -> None:
        """Arm a timer at the worker's next pending virtual-clock event.

        DELAY holds (and any other worker-internal timer) must fire even
        if no session talks to that shard meanwhile; the router pokes the
        worker with an ``advance`` op at the reported time.  A superseded
        timer (a drain re-armed earlier) is cancelled outright; a timer
        firing after its event was already resolved advances the worker
        clock harmlessly.
        """
        if nw is None:
            return
        armed = self._armed.get(shard)
        if armed is not None and armed <= nw:
            return
        old = self._wake_timers.pop(shard, None)
        if old is not None:
            old.cancel()
        self._armed[shard] = nw
        self._wake_timers[shard] = self.sim.call_at(
            nw, lambda: self._on_wake(shard, nw))

    def _on_wake(self, shard: int, when: float) -> None:
        self._wake_timers.pop(shard, None)
        if self.closed or self.broken or self.handles is None:
            return
        if self._armed.get(shard) != when:
            return
        self._armed[shard] = None
        with self._meter():
            self._send(shard, {"op": "advance", "t": self.sim.now})
            self._enqueue(_Pending(shard, "advance", None, None))
        self.drain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("closed" if self.closed else
                 "broken" if self.broken else
                 "running" if self.handles is not None else "cold")
        return f"<ShardProcessPool nshards={self.nshards} {state}>"


class WorkerShardProxy:
    """The :class:`Arbiter` protocol surface for one remote shard.

    Mirrors the worker's per-app state from the ordered transition
    streams; authorization events and ``grant_latency`` in-flight
    bookkeeping replicate :class:`Arbiter`'s semantics exactly, so
    sessions (and the span-grant protocol) cannot tell a proxy from a
    local arbiter.  Queries drain outstanding replies first, making the
    mirror exact at observation points; descriptor-level queries round-trip
    to the worker.
    """

    def __init__(self, pool: ShardProcessPool, index: int, strategy):
        self._pool = pool
        self.index = index
        self.sim = pool.sim
        self.strategy = strategy
        self.grant_latency = pool.grant_latency
        self._state: Dict[str, AccessState] = {}
        self._auth_events: Dict[str, Event] = {}
        self._inflight: Dict[str, Event] = {}
        self._last_decision: Dict[str, tuple] = {}
        self._log_cache: Optional[List[DecisionRecord]] = None
        pool.proxies.append(self)

    # -- mirror maintenance -------------------------------------------------
    def _apply_transition(self, app: str, state_value: str) -> None:
        state = AccessState(state_value)
        if state is AccessState.IDLE:
            self._state.pop(app, None)
            self._inflight.pop(app, None)
            self._last_decision.pop(app, None)
            return
        self._state[app] = state
        if state is AccessState.ACTIVE:
            ev = self._auth_events.pop(app, None)
            if ev is not None and not ev.triggered:
                ev.succeed(None, delay=self.grant_latency)
                if self.grant_latency > 0:
                    self._inflight[app] = ev

                    def _clear(_processed, app=app, ev=ev):
                        if self._inflight.get(app) is ev:
                            del self._inflight[app]

                    ev.callbacks.append(_clear)
        elif state is AccessState.WAITING:
            ev = self._auth_events.get(app)
            if ev is None or ev.triggered:
                self._auth_events[app] = self.sim.event()

    # -- queries ------------------------------------------------------------
    def state_of(self, app: str) -> AccessState:
        self._pool.drain()
        return self._state.get(app, AccessState.IDLE)

    def is_authorized(self, app: str) -> bool:
        return self.state_of(app) is AccessState.ACTIVE

    def grant_in_flight(self, app: str) -> bool:
        self._pool.drain()
        ev = self._inflight.get(app)
        return ev is not None and not ev.processed

    def last_decision_for(self, app: str):
        self._pool.drain()
        return self._last_decision.get(app)

    def authorization_event(self, app: str) -> Event:
        self._pool.drain()
        inflight = self._inflight.get(app)
        if inflight is not None and not inflight.processed:
            return inflight
        if self._state.get(app) is AccessState.ACTIVE:
            ev = self.sim.event()
            ev.succeed(None)
            return ev
        ev = self._auth_events.get(app)
        if ev is None or ev.triggered:
            ev = self.sim.event()
            self._auth_events[app] = ev
        return ev

    def descriptor_of(self, app: str) -> Optional[AccessDescriptor]:
        reply = self._pool._direct(self.index,
                                   {"op": "desc", "t": self.sim.now,
                                    "app": app})
        data = reply.get("desc")
        return None if data is None else descriptor_from_dict(data)

    def _snapshot(self, key: str) -> List[AccessDescriptor]:
        reply = self._pool._direct(self.index,
                                   {"op": "snapshot", "t": self.sim.now})
        return [descriptor_from_dict(d) for d in reply.get(key, ())]

    def active_descriptors(self) -> List[AccessDescriptor]:
        return self._snapshot("active")

    def waiting_descriptors(self) -> List[AccessDescriptor]:
        return self._snapshot("waiting")

    def preempted_descriptors(self) -> List[AccessDescriptor]:
        return self._snapshot("preempted")

    @property
    def decision_log(self) -> List[DecisionRecord]:
        if self._log_cache is not None:
            return self._log_cache
        if self._pool.closed or self._pool.broken:
            return []
        if self._pool.handles is None:
            return []
        return self._pool._fetch_log(self.index)

    # -- protocol entry points ----------------------------------------------
    def submit_inform(self, descriptor: AccessDescriptor) -> Event:
        ev = self.sim.event()
        app = descriptor.app
        state = self._state.get(app)
        if state is not None and not self._pool.pending_for(self.index):
            # Continuation fast path: the mirror is exact for this shard
            # (no unread replies) and the app is not IDLE, so the worker's
            # answer is already known — ship the knowledge refresh
            # fire-and-forget, exactly the in-process "no pending round"
            # shortcut.
            self._pool.send_inform(self.index, descriptor, reply=False)
            ev.succeed(state is AccessState.ACTIVE)
            return ev
        self._pool.send_inform(self.index, descriptor, reply=True,
                               event=ev, app=app)
        return ev

    def on_inform(self, descriptor: AccessDescriptor) -> bool:
        pool = self._pool
        pool.drain()
        entry = pool.send_inform(self.index, descriptor, reply=True,
                                 event=None, app=descriptor.app)
        pool.drain()
        assert entry is not None and entry.reply is not None
        return bool(entry.reply.get("ok"))

    def on_release(self, app: str,
                   remaining_bytes: Optional[float] = None) -> None:
        self._pool.send_release(self.index, app, remaining_bytes)

    def submit_release(self, app: str,
                       remaining_bytes: Optional[float] = None) -> None:
        self._pool.send_release(self.index, app, remaining_bytes)

    def on_complete(self, app: str) -> None:
        self._pool.send_complete(self.index, app, withdraw=False)

    def withdraw(self, app: str) -> None:
        self._pool.send_complete(self.index, app, withdraw=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkerShardProxy shard={self.index}>"
