"""Client library: the session surface of CALCioM, over the wire.

:class:`ServiceClient` owns one connection to a
:class:`~repro.service.server.CoordinationService` and multiplexes any
number of :class:`RemoteSession`\\ s over it (one per application — the
paper's "coordinator process, typically rank 0").  A remote session
mirrors :class:`~repro.core.session.CalciomSession`'s protocol verbs:

=====================  ====================================================
in-process             over the wire
=====================  ====================================================
``inform()``           :meth:`RemoteSession.inform` — ships the descriptor,
                       returns the authorization verdict
``release()``          :meth:`RemoteSession.release`
``complete()``         :meth:`RemoteSession.complete`
``withdraw`` (arbiter)  :meth:`RemoteSession.withdraw`
``wait()``             :meth:`RemoteSession.wait_grant` — blocks on the
                       pushed ``grant`` frame
=====================  ====================================================

Responses are matched FIFO per request (the daemon acks in application
order, and a connection's requests apply in the order they were sent);
pushed ``grant`` frames are routed to the owning session's grant queue.
Both happen in the client's ``data_received`` callback, as each chunk
arrives — the client is its connection's :class:`asyncio.Protocol`, and
its one task (``_pump_loop``) only waits for the connection to end and
then fails every ack still outstanding.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Union

from ..core.metrics import AccessDescriptor
from .protocol import (
    FrameSplitter, ProtocolError, WireDecoder, WireEncoder, decode_message,
    default_wire_codec, descriptor_to_dict, encode_message,
)

__all__ = ["ServiceClient", "RemoteSession", "AdmissionRejected"]


class AdmissionRejected(Exception):
    """The daemon refused the hello (at-capacity, draining, mismatch)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class RemoteSession:
    """One application's coordination session, served remotely."""

    def __init__(self, client: "ServiceClient", app: str):
        self.client = client
        self.app = app
        self.grants: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()

    # -- the protocol verbs ------------------------------------------------
    async def inform(self, descriptor: Union[AccessDescriptor, Dict[str, Any]],
                     seq: Optional[int] = None,
                     t: Optional[float] = None) -> bool:
        """Ship (fresh or refreshed) access knowledge; True = authorized."""
        if isinstance(descriptor, AccessDescriptor):
            descriptor = descriptor_to_dict(descriptor)
        if descriptor.get("app") != self.app:
            raise ProtocolError(f"descriptor for {descriptor.get('app')!r} "
                                f"sent through session {self.app!r}")
        ack = await self.client.request(
            {"type": "inform", "descriptor": descriptor}, seq=seq, t=t)
        return bool(ack.get("authorized"))

    async def release(self, remaining: Optional[float] = None,
                      seq: Optional[int] = None,
                      t: Optional[float] = None) -> None:
        await self.client.request(
            {"type": "release", "app": self.app, "remaining": remaining},
            seq=seq, t=t)

    async def complete(self, seq: Optional[int] = None,
                       t: Optional[float] = None) -> None:
        await self.client.request({"type": "complete", "app": self.app},
                                  seq=seq, t=t)

    async def withdraw(self, seq: Optional[int] = None,
                       t: Optional[float] = None) -> None:
        await self.client.request({"type": "withdraw", "app": self.app},
                                  seq=seq, t=t)

    async def wait_grant(self, timeout: Optional[float] = None
                         ) -> Dict[str, Any]:
        """Block until the daemon pushes this app's authorization grant."""
        return await asyncio.wait_for(self.grants.get(), timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteSession {self.app!r} via {self.client!r}>"


class ServiceClient(asyncio.Protocol):
    """One framed connection to the coordination daemon.

    Usage::

        client = await ServiceClient.connect(host, port,
                                             apps=["appA", "appB"],
                                             mode="live")
        session = client.session("appA")
        authorized = await session.inform(descriptor)
        ...
        await client.close()          # says bye, waits for the ack

    The client is the connection's :class:`asyncio.Protocol`:
    ``data_received`` resolves ack futures in FIFO order and routes
    pushed grants to their sessions as each chunk arrives.
    """

    def __init__(self, apps: List[str], mode: str = "live", perf=None):
        self._loop = asyncio.get_running_loop()
        self.apps = list(apps)
        self.mode = mode
        self.codec = "json"         #: what the daemon granted in welcome
        self._perf = perf
        self._transport: Optional[asyncio.Transport] = None
        self._splitter = FrameSplitter()
        self._encoder: Optional[WireEncoder] = None
        self._decoder: Optional[WireDecoder] = None
        self._sessions = {app: RemoteSession(self, app) for app in apps}
        #: FIFO of futures awaiting acks (requests apply in send order).
        self._acks: Deque[asyncio.Future] = deque()
        self._welcome: "asyncio.Future[Optional[dict]]" = \
            self._loop.create_future()
        #: The transport's close (its exception, None when clean).
        self._ended: "asyncio.Future[Optional[Exception]]" = \
            self._loop.create_future()
        #: Pending while the transport is paused for writing.
        self._writable: Optional[asyncio.Future] = None
        self._bye_ack: Optional[asyncio.Future] = None
        self._pump: Optional[asyncio.Task] = None
        self._broken: Optional[Exception] = None

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    async def connect(cls, host: str, port: int, apps: List[str],
                      mode: str = "live",
                      spec_sha: Optional[str] = None,
                      codec: Optional[str] = None,
                      perf=None) -> "ServiceClient":
        """Open a connection; ``codec`` proposes the wire codec.

        ``None`` asks for the process default (``REPRO_WIRE_CODEC``, JSON
        when unset).  The daemon's ``welcome`` names the codec it
        actually granted — ``client.codec`` after connect.
        """
        if codec is None:
            codec = default_wire_codec()
        client = cls(apps, mode, perf=perf)
        transport, _ = await client._loop.create_connection(
            lambda: client, host, port)
        transport.write(encode_message({
            "type": "hello", "apps": list(apps), "mode": mode,
            "spec_sha": spec_sha, "codec": codec}))
        try:
            answer = await client._welcome
            if answer is None:
                raise ConnectionError("daemon closed during handshake")
            if answer.get("type") == "rejected":
                raise AdmissionRejected(answer.get("reason", "unknown"))
            if answer.get("type") != "welcome":
                raise ProtocolError(f"expected welcome, got {answer!r}")
        except BaseException:
            transport.close()
            raise
        client.codec = answer.get("codec", "json")
        client._encoder = WireEncoder(client.codec, perf=perf)
        client._decoder = WireDecoder(perf=perf)
        client._pump = asyncio.ensure_future(client._pump_loop())
        client._route()     # frames that arrived behind the welcome
        return client

    async def close(self) -> None:
        """Clean shutdown: ``bye``, wait for the ack, drop the link."""
        if self._broken is None and self._bye_ack is None:
            self._bye_ack = self._loop.create_future()
            try:
                self._encoder.queue({"type": "bye"})
                await self.flush()
                await asyncio.wait_for(self._bye_ack, 5.0)
            except (ConnectionError, asyncio.TimeoutError):
                pass
        await self.abort()

    async def abort(self) -> None:
        """Drop the connection without the bye handshake (crash client)."""
        if self._transport is not None:
            self._transport.abort()
        if self._pump is not None:
            await self._pump
            self._pump = None
        if self._perf is not None and self._encoder is not None:
            self._perf.detach(self._encoder, self._decoder)

    # -- sessions ----------------------------------------------------------
    def session(self, app: str) -> RemoteSession:
        return self._sessions[app]

    # -- request plumbing --------------------------------------------------
    async def request(self, message: Dict[str, Any],
                      seq: Optional[int] = None,
                      t: Optional[float] = None) -> Dict[str, Any]:
        """Send one frame and await its ack (FIFO-matched)."""
        future = self.request_nowait(message, seq=seq, t=t)
        await self.flush()
        return await future

    def request_nowait(self, message: Dict[str, Any],
                       seq: Optional[int] = None,
                       t: Optional[float] = None) -> "asyncio.Future":
        """Queue one frame without sending; the pipelined half of request.

        The frame is queued on the client's encoder and its ack future
        returned; nothing hits the socket until :meth:`flush`.
        Queue a whole wave, flush once, then await the futures — one
        syscall per wave instead of one write per exchange.  Valid
        whenever exchanges need no interleaved responses: replay traces
        (acks stay FIFO per connection; the daemon's sequencer orders
        across connections by ``seq``), or a live fire-and-await burst.
        """
        if self._broken is not None:
            raise ConnectionError(f"connection is broken: {self._broken}")
        if seq is not None:
            message["seq"] = int(seq)
        if t is not None:
            message["t"] = float(t)
        future = self._loop.create_future()
        self._acks.append(future)
        self._encoder.queue(message)
        return future

    async def flush(self) -> None:
        """Ship every queued frame in one write (no-op when empty).

        Waits while the daemon is not reading (the transport paused
        writing).
        """
        if not self._encoder.queued:
            return
        data = self._encoder.flush()
        if self._transport.is_closing():
            raise ConnectionError("connection is closed")
        self._transport.write(data)
        if self._writable is not None:
            await self._writable

    async def decision_digest(self) -> Dict[str, Any]:
        """The daemon's current decision-log digest (equivalence checks)."""
        return await self.request({"type": "decision-digest"})

    async def _pump_loop(self) -> None:
        """Wait for the connection to end, then fail every pending ack."""
        exc = await self._ended
        if self._bye_ack is not None and self._bye_ack.done():
            return
        self._break(exc or ConnectionError("daemon closed the connection"))

    def _break(self, exc: Exception) -> None:
        """The connection is unusable: fail every outstanding future."""
        if self._broken is None:
            self._broken = exc
        pending = list(self._acks)
        self._acks.clear()
        if self._bye_ack is not None:
            pending.append(self._bye_ack)
        for future in pending:
            if not future.done():
                future.set_exception(
                    ConnectionError(f"connection lost: {exc}"))

    def _route(self) -> None:
        """Route decoded frames: acks FIFO, grants to sessions, errors up."""
        frames: List[Any] = []
        self._decoder.decode_frames(self._splitter, frames)
        acks = self._acks
        for frame in frames:
            if self._broken is not None:
                return
            if isinstance(frame, ProtocolError):
                self._break(frame)
                return
            ftype = frame.get("type")
            if ftype == "grant":
                session = self._sessions.get(frame.get("app"))
                if session is not None:
                    session.grants.put_nowait(frame)
            elif ftype == "bye-ack":
                if self._bye_ack is not None and not self._bye_ack.done():
                    self._bye_ack.set_result(frame)
            elif ftype == "error":
                self._break(ProtocolError(frame.get("reason", "unknown")))
            elif acks:
                future = acks.popleft()
                if not future.done():
                    future.set_result(frame)
            else:
                self._break(ProtocolError(f"unexpected frame {frame!r}"))

    # -- asyncio.Protocol --------------------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self._splitter.feed(data)
        if self._decoder is not None:
            self._route()
        elif not self._welcome.done():
            try:
                payload = self._splitter.next()
                if payload is not None:
                    self._welcome.set_result(decode_message(payload))
            except ProtocolError as exc:
                self._welcome.set_exception(exc)

    def eof_received(self) -> bool:
        error = self._splitter.truncation()
        if error is not None:
            self._break(error)
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not self._welcome.done():
            self._welcome.set_result(None)
        if self._writable is not None and not self._writable.done():
            self._writable.set_result(None)
        self._ended.set_result(exc)

    def pause_writing(self) -> None:
        self._writable = self._loop.create_future()

    def resume_writing(self) -> None:
        if self._writable is not None:
            self._writable.set_result(None)
            self._writable = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ServiceClient apps={len(self.apps)} mode={self.mode!r} "
                f"broken={self._broken is not None}>")
