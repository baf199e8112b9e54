"""Wire protocol: length-prefixed frames, two codecs, coordination schemas.

Framing
-------
Every message is one *frame*: a payload prefixed by its byte length as a
4-byte big-endian unsigned integer.  Length-prefixed framing (rather than
newline-delimited) keeps the payload format unconstrained and makes
partial-read handling explicit; frames are capped at :data:`MAX_FRAME` to
bound a malicious or broken peer.

Two codecs produce payloads, and every payload is *self-describing* —
the first byte distinguishes them, so one decoder handles both.  Each
data plane's encoder is fixed by the code that builds it:

``json`` (the oracle; the shard-worker plane)
    The payload is one canonical-JSON object encoded as UTF-8 (first byte
    ``{`` = 0x7B).  Python's :mod:`json` serializes floats via ``repr``,
    which round-trips every finite ``float`` exactly — the property that
    lets a replayed trace reproduce the in-process decision log *bit for
    bit*.  JSON is the cross-checked reference: the binary codec must be
    observationally equivalent to it (equal decoded messages,
    string-equal decision logs), asserted by ``tests/test_wire_codec.py``.
    The shard-worker plane (:mod:`repro.core.shardproc`) speaks it in
    both directions, through JSON :class:`WireEncoder` objects (so its
    frames are metered like the daemon's) and a blocking
    :class:`FrameReader`.

``binary`` (the service daemon's plane)
    The payload starts with a tag byte >= 0x80 followed by a
    struct-packed body.  The service's hot message types —
    Inform/Release/Complete/Withdraw, their acks and pushed grants —
    have fixed fast paths (IEEE-754 doubles are bit-exact by
    construction); anything else, and any message that fails a fast
    path's preconditions, falls back to tag ``0x80`` + canonical JSON, so
    coverage is total.  :class:`AccessDescriptor` payloads are
    *interned*: the first time a descriptor's static fields cross a
    connection they are sent in full and assigned an id; subsequent
    informs for the same static tuple send only the id plus the two
    mutable fields (``remaining_bytes``, ``access_started``) — the
    dominant message shrinks from ~250 JSON bytes to ~30.

Because interning is *stateful per connection and direction*, encoding
and decoding live in :class:`WireEncoder` / :class:`WireDecoder`
instances (a decoder accepts both codecs; an encoder produces exactly
one).  The module-level :func:`encode_message` / :func:`decode_message`
remain the stateless JSON primitives.  The service's ``hello``/``welcome``
handshake goes through them, so it is always JSON; after it, both ends
of a service connection encode binary.

Message schemas (client → server)
---------------------------------
``hello``     ``{"type": "hello", "apps": [...], "mode": "replay"|"live",
              "spec_sha": str|None}`` — first frame on a connection;
              declares the coordination sessions the connection will
              multiplex.  Answered by ``welcome`` or ``rejected``.
``inform``    ``{"type": "inform", "seq": int, "t": float,
              "descriptor": {...}}`` — one Inform exchange; answered by
              ``inform-ack`` carrying the authorization verdict.
``release``   ``{"type": "release", "seq": int, "t": float, "app": str,
              "remaining": float|null}`` — end of a guarded step.
``complete``  ``{"type": "complete", "seq": int, "t": float,
              "app": str}`` — the access is finished.
``withdraw``  like ``complete`` (job teardown semantics).
``bye``       clean end of the connection.

Server → client
---------------
Acks echo the request ``seq``; ``grant`` frames are *pushed* when a
previously-queued app's authorization fires (the wire analogue of
:meth:`~repro.core.session.CalciomSession.wait` returning).
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import deque
from json.encoder import encode_basestring_ascii as _json_str
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.arbiter import DecisionRecord
from ..core.metrics import AccessDescriptor

__all__ = [
    "MAX_FRAME", "ProtocolError", "FrameError", "canonical_json",
    "WireEncoder", "WireDecoder", "FrameSplitter", "FrameReader",
    "encode_message", "decode_message", "write_frame",
    "descriptor_to_dict", "descriptor_from_dict",
    "decision_to_dict", "decisions_to_json", "decisions_digest",
]

_LEN = struct.Struct(">I")

#: Upper bound on one frame's payload, bytes (a descriptor is ~200 B).
MAX_FRAME = 1 << 20


class ProtocolError(Exception):
    """A malformed frame or an out-of-contract message."""


class FrameError(ProtocolError):
    """A frame died on the wire: truncation, interrupt, transport failure.

    The single surface for every low-level framing failure — partial
    reads, EINTR-adjacent socket errors, oversized announcements — so
    callers never see a mix of ``ConnectionError`` / ``struct.error`` /
    raw ``OSError`` leaking out of the read path.  Messages carry byte
    offsets (``got X of Y bytes``) because "dropped mid-frame" alone is
    useless when diagnosing a desynchronized stream.
    """


# ---------------------------------------------------------------------------
# Canonical JSON (the shared float/separator policy)
# ---------------------------------------------------------------------------

def canonical_json(obj: Any, *, sort_keys: bool = False) -> str:
    """The one canonical JSON serialization policy of the wire.

    Compact separators, ``repr``-exact floats (the :mod:`json` default —
    every finite float round-trips bit for bit).  Both
    :func:`encode_message` (every JSON payload on the wire) and
    :func:`decisions_to_json` (the bit-identity contract) go through this
    single helper, so the two call sites cannot drift apart.
    """
    return json.dumps(obj, separators=(",", ":"), sort_keys=sort_keys)


# ---------------------------------------------------------------------------
# Stateless JSON framing primitives
# ---------------------------------------------------------------------------

def _frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds "
                            f"MAX_FRAME ({MAX_FRAME})")
    return _LEN.pack(len(payload)) + payload


def encode_message(message: Mapping[str, Any]) -> bytes:
    """One JSON wire frame: 4-byte big-endian length + UTF-8 payload."""
    return _frame(canonical_json(message).encode("utf-8"))


def decode_message(payload: bytes) -> Dict[str, Any]:
    """Parse one JSON frame's payload (sans length prefix)."""
    try:
        message = json.loads(
            payload.decode("utf-8") if isinstance(payload, (bytes, bytearray,
                                                            memoryview))
            else payload)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"frame is not a typed object: {message!r}")
    return message


# ---------------------------------------------------------------------------
# Binary codec: one precompiled layout per frame shape
# ---------------------------------------------------------------------------
#
# Payloads are big-endian.  ``app`` is a u16 byte count and the UTF-8
# bytes; ``started`` is ``0`` (None) or ``1`` and a double.
#
#   inform    0x81 flags [seq:Q] [t:d] descriptor
#   release   0x82 flags [seq:Q] [t:d] app [remaining:d, if flags & 4]
#   complete  0x83 flags [seq:Q] [t:d] app           (withdraw: 0x84)
#   ack       0x85 kind:B flags t:d [seq:Q, if flags & 1] app
#             (flags & 2: ``authorized`` present; flags & 4: its value)
#   grant     0x86 t:d app
#   generic   0x80 canonical JSON
#
# A request's flags say which of ``seq`` (bit 1) and ``t`` (bit 2)
# follow.  A descriptor is an interned reference, ``1 id:I remaining:d
# started``, or a full body, ``0 id:I app nprocs:q files:q rounds:q
# npart:H part:i*npart total:d t_alone:d remaining:d started``.
#
# Each layout is one precompiled Struct covering the fixed-size fields up
# to the next variable-length one.  The encoding layouts begin with the
# 4-byte length prefix, so most frames are one ``pack`` plus the app
# bytes.  Request layouts come four to a tuple, indexed by ``flags & 3``.

class _Unrepresentable(Exception):
    """Internal: this message needs the generic JSON fallback."""


_TAG_GENERIC = 0x80
_TAG_INFORM = 0x81
_TAG_RELEASE = 0x82
_TAG_COMPLETE = 0x83
_TAG_WITHDRAW = 0x84
_TAG_ACK = 0x85
_TAG_GRANT = 0x86

_ACK_TYPES = ("inform-ack", "release-ack", "complete-ack", "withdraw-ack")
_ACK_CODES = {name: i for i, name in enumerate(_ACK_TYPES)}
#: Exchange type -> the subtype code of its ack.
_ACK_OF = {name[:-4]: i for i, name in enumerate(_ACK_TYPES)}

_DESC_KEYS = frozenset((
    "app", "nprocs", "total_bytes", "t_alone", "remaining_bytes",
    "access_started", "files", "rounds", "partitions"))

#: Interned-descriptor id meaning "do not store" (encoder table full).
_NO_ID = 0xFFFFFFFF
#: Per-direction intern table bound (ids are assigned densely below it).
_MAX_INTERNED = 1 << 16

def _seq_t_layouts(head: str, tail: str) -> Tuple[struct.Struct, ...]:
    return tuple(struct.Struct(">" + head + seq + t + tail)
                 for seq, t in (("", ""), ("Q", ""), ("", "d"), ("Q", "d")))


# Encoding layouts: length prefix, tag, then the fixed fields.
_E_REF = _seq_t_layouts("IBB", "BIdB")           # started None
_E_REF_STARTED = _seq_t_layouts("IBB", "BIdBd")
_E_FULL = _seq_t_layouts("IBB", "BIH")   # + app, ints, parts, floats
_E_APP = _seq_t_layouts("IBB", "H")              # + app [+ remaining]
_E_ACK = (struct.Struct(">IBBBdH"), struct.Struct(">IBBBdQH"))  # + app
_E_GRANT = struct.Struct(">IBdH")                # + app
# Decoding layouts: read from the payload's first byte (the tag).
_D_HEAD = _seq_t_layouts("2x", "")
_D_REF = _seq_t_layouts("2x", "xIdB")
_D_FULL = _seq_t_layouts("2x", "xIH")
_D_APP = _seq_t_layouts("2x", "H")
_D_ACK = (struct.Struct(">3xdH"), struct.Struct(">3xdQH"))
_D_GRANT = struct.Struct(">xdH")
# Shared by both directions.
_DESC_INTS = struct.Struct(">qqqH")              # nprocs files rounds npart
_DESC_FLOATS = struct.Struct(">dddB")            # total t_alone remaining has
_F64 = struct.Struct(">d")


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _app_bytes(app: Any) -> bytes:
    # A name over 0xFFFF bytes fails its layout's ``H`` field instead.
    if not isinstance(app, str):
        raise _Unrepresentable
    return app.encode("utf-8")


def _seq_t(m: Mapping[str, Any], nkeys: int) -> Tuple[int, tuple]:
    """Flag bits and values of request ``m``'s optional ``seq``/``t``.

    ``m`` may hold nothing but these and ``nkeys`` required keys, which
    the caller reads (so a missing one raises ``KeyError``).  Range
    limits are the layouts' own: ``pack`` refuses an out-of-range field.
    """
    # Each check tests the common exact type first.
    flags, values = 0, ()
    if "seq" in m:
        seq = m["seq"]
        if type(seq) is not int and not _is_int(seq):
            raise _Unrepresentable
        flags, values = 1, (seq,)
    if "t" in m:
        t = m["t"]
        if type(t) is not float and not _is_num(t):
            raise _Unrepresentable
        flags |= 2
        values += (t,)
    if len(m) != nkeys + len(values):
        raise _Unrepresentable
    return flags, values


def _pack_ack(code: int, t: Any, seq: Any, app: Any, authorized: Any) -> bytes:
    """The binary frame of an ack from its fields (``code`` indexes
    :data:`_ACK_TYPES`; ``seq`` None: none; ``authorized``: inform only)."""
    name = _app_bytes(app)
    if type(t) is not float and not _is_num(t):
        raise _Unrepresentable
    flags = 0
    if code == 0:       # inform-ack: the verdict rides in the flags
        if not isinstance(authorized, bool):
            raise _Unrepresentable
        flags = 6 if authorized else 2
    if seq is None:
        layout = _E_ACK[0]
        return layout.pack(layout.size - 4 + len(name), _TAG_ACK, code,
                           flags, t, len(name)) + name
    if type(seq) is not int and not _is_int(seq):
        raise _Unrepresentable
    layout = _E_ACK[1]
    return layout.pack(layout.size - 4 + len(name), _TAG_ACK, code,
                       flags | 1, t, seq, len(name)) + name


def _ack_message(code: int, t: Any, seq: Any, app: Any,
                 authorized: Any) -> Dict[str, Any]:
    """The ack message of :func:`_pack_ack`'s fields."""
    message: Dict[str, Any] = {"type": _ACK_TYPES[code], "t": t}
    if seq is not None:
        message["seq"] = seq
    message["app"] = app
    if code == 0:
        message["authorized"] = authorized
    return message


_ENCODER_COUNTERS = (
    "wire_frames_encoded", "wire_bytes_encoded", "wire_encode_seconds",
    "wire_flushes", "wire_coalesced_frames", "wire_generic_frames",
    "wire_desc_interned", "wire_desc_refs",
)
_DECODER_COUNTERS = (
    "wire_frames_decoded", "wire_bytes_decoded", "wire_decode_seconds",
)


class WireEncoder:
    """One direction's frame encoder (codec fixed, interning stateful).

    ``encode()`` always returns a complete frame (length prefix
    included); with ``codec="binary"`` the hot message types take the
    struct fast paths and descriptors are interned, while anything
    off-schema falls back to tagged canonical JSON.

    Every data plane sends through :meth:`queue` and :meth:`flush`:
    messages are queued as they are produced and encoded together into
    one buffer when the owner writes, so the frames of a whole
    coordination wave cost one write.  The counters are plain integer
    attributes folded into ``perf`` when it is read
    (:meth:`~repro.perf.PerfCounters.attach`): ``wire_frames_encoded`` /
    ``wire_bytes_encoded`` per frame, ``wire_encode_seconds`` /
    ``wire_flushes`` / ``wire_coalesced_frames`` per flush, plus
    ``wire_desc_interned`` / ``wire_desc_refs`` / ``wire_generic_frames``
    on the binary paths.
    """

    __slots__ = ("codec", "_desc_ids", "_queued") + tuple(
        "_n_" + name for name in _ENCODER_COUNTERS)

    def __init__(self, codec: str = "json", perf=None):
        if codec not in ("json", "binary"):
            raise ValueError(f"unknown wire codec {codec!r} "
                             "(expected 'json' or 'binary')")
        self.codec = codec
        #: static-descriptor tuple -> interned id (binary codec only).
        self._desc_ids: Dict[tuple, int] = {}
        #: Messages queued since the last flush, in send order.
        self._queued: List[Mapping[str, Any]] = []
        for name in _ENCODER_COUNTERS:
            setattr(self, "_n_" + name, 0)
        if perf is not None:
            perf.attach(self, _ENCODER_COUNTERS)

    def encode(self, message: Any) -> bytes:
        """One complete frame of ``message``, or of an ack queued as its
        fields by :meth:`queue_ack`."""
        ack = message if type(message) is tuple else None
        frame = None
        if self.codec == "binary":
            try:
                # An unknown type is a KeyError: generic, like a bad field.
                frame = (_pack_ack(*ack) if ack else
                         self._BINARY[message.get("type")](self, message))
            except (_Unrepresentable, struct.error, OverflowError,
                    UnicodeEncodeError, TypeError, KeyError, ValueError):
                self._n_wire_generic_frames += 1
        if frame is None:
            payload = canonical_json(
                _ack_message(*ack) if ack else message).encode("utf-8")
            frame = _frame(payload if self.codec == "json"
                           else b"\x80" + payload)
        self._n_wire_frames_encoded += 1
        self._n_wire_bytes_encoded += len(frame)
        return frame

    def queue(self, message: Mapping[str, Any]) -> None:
        """Queue ``message`` for the next :meth:`flush`."""
        self._queued.append(message)

    def queue_ack(self, op: str, t: float, seq: Optional[int], app: str,
                  authorized: Optional[bool] = None) -> None:
        """Queue exchange ``op``'s ack as its fields, with no message dict;
        the frame is :meth:`encode`'s of the same ack message."""
        self._queued.append((_ACK_OF[op], t, seq, app, authorized))

    @property
    def queued(self) -> int:
        """Messages queued since the last flush."""
        return len(self._queued)

    def flush(self) -> bytes:
        """Every queued message as one buffer of frames, in queue order.

        One timer pair per flush, not per frame; ``b""`` when nothing is
        queued (and then nothing is counted).
        """
        messages = self._queued
        if not messages:
            return b""
        self._queued = []
        t0 = perf_counter()
        if len(messages) == 1:
            data = self.encode(messages[0])
        else:
            encode = self.encode
            data = b"".join([encode(message) for message in messages])
        self._n_wire_encode_seconds += perf_counter() - t0
        self._n_wire_flushes += 1
        self._n_wire_coalesced_frames += len(messages) - 1
        return data

    # -- binary fast paths: each returns a whole frame ----------------------
    def _enc_inform(self, m: Mapping[str, Any]) -> bytes:
        flags, st = _seq_t(m, 2)
        d = m["descriptor"]
        if (type(d) is not dict and not isinstance(d, Mapping)
                or d.keys() != _DESC_KEYS):
            raise _Unrepresentable
        app, nprocs, files, rounds = (d["app"], d["nprocs"], d["files"],
                                      d["rounds"])
        parts, total, t_alone = d["partitions"], d["total_bytes"], d["t_alone"]
        remaining, started = d["remaining_bytes"], d["access_started"]
        # Type checks run on the reference path too: a bool or float equal
        # to an interned int must not match its key.
        if not (type(nprocs) is type(files) is type(rounds) is int
                and type(total) is type(t_alone) is type(remaining) is float
                and (started is None or type(started) is float)
                or _is_int(nprocs) and _is_int(files) and _is_int(rounds)
                and _is_num(total) and _is_num(t_alone) and _is_num(remaining)
                and (started is None or _is_num(started))):
            raise _Unrepresentable
        if not isinstance(parts, (list, tuple)):
            raise _Unrepresentable
        parts = tuple(parts)
        if not all(map(_is_int, parts)):
            raise _Unrepresentable
        ids = self._desc_ids
        key = (app, nprocs, files, rounds, parts, float(total),
               float(t_alone))
        did = ids.get(key)
        if did is not None:
            if started is None:
                layout = _E_REF[flags]
                frame = layout.pack(layout.size - 4, _TAG_INFORM, flags, *st,
                                    1, did, remaining, 0)
            else:
                layout = _E_REF_STARTED[flags]
                frame = layout.pack(layout.size - 4, _TAG_INFORM, flags, *st,
                                    1, did, remaining, 1, started)
            self._n_wire_desc_refs += 1
            return frame
        # Pack the whole frame before committing the intern id: a field
        # that fails to pack must not leave this table ahead of the
        # decoder's.
        did = len(ids) if len(ids) < _MAX_INTERNED else _NO_ID
        name = _app_bytes(app)
        body = [b"", name,
                _DESC_INTS.pack(nprocs, files, rounds, len(parts)),
                struct.pack(">%di" % len(parts), *parts),
                _DESC_FLOATS.pack(total, t_alone, remaining,
                                  started is not None)]
        if started is not None:
            body.append(_F64.pack(started))
        layout = _E_FULL[flags]
        body[0] = layout.pack(
            layout.size - 4 + sum(map(len, body)), _TAG_INFORM, flags, *st,
            0, did, len(name))
        frame = b"".join(body)
        if did != _NO_ID:
            ids[key] = did
            self._n_wire_desc_interned += 1
        return frame

    def _enc_release(self, m: Mapping[str, Any]) -> bytes:
        flags, st = _seq_t(m, 3)
        name = _app_bytes(m["app"])
        remaining = m["remaining"]
        layout = _E_APP[flags]
        if remaining is None:
            return layout.pack(layout.size - 4 + len(name), _TAG_RELEASE,
                               flags, *st, len(name)) + name
        if type(remaining) is not float and not _is_num(remaining):
            raise _Unrepresentable
        return (layout.pack(layout.size + 4 + len(name), _TAG_RELEASE,
                            flags | 4, *st, len(name))
                + name + _F64.pack(remaining))

    def _enc_complete(self, m: Mapping[str, Any]) -> bytes:
        flags, st = _seq_t(m, 2)
        name = _app_bytes(m["app"])
        tag = _TAG_COMPLETE if m["type"] == "complete" else _TAG_WITHDRAW
        layout = _E_APP[flags]
        return layout.pack(layout.size - 4 + len(name), tag, flags, *st,
                           len(name)) + name

    def _enc_ack(self, m: Mapping[str, Any]) -> bytes:
        code = _ACK_CODES[m["type"]]
        nkeys = 4 if code == 0 else 3           # an inform-ack's verdict
        seq = m.get("seq")
        if "seq" in m:
            if seq is None:
                raise _Unrepresentable
            nkeys += 1
        if len(m) != nkeys:
            raise _Unrepresentable
        return _pack_ack(code, m["t"], seq, m["app"],
                         m["authorized"] if code == 0 else None)

    def _enc_grant(self, m: Mapping[str, Any]) -> bytes:
        t, name = m["t"], _app_bytes(m["app"])
        if len(m) != 3 or not _is_num(t):
            raise _Unrepresentable
        return _E_GRANT.pack(_E_GRANT.size - 4 + len(name), _TAG_GRANT, t,
                             len(name)) + name

    #: Message type -> fast path; every other type is generic.
    _BINARY = {"inform": _enc_inform, "release": _enc_release,
               "complete": _enc_complete, "withdraw": _enc_complete,
               "grant": _enc_grant, **dict.fromkeys(_ACK_TYPES, _enc_ack)}


class WireDecoder:
    """One direction's frame decoder — accepts both codecs.

    Payloads are self-describing (first byte >= 0x80 means binary), so a
    single decoder instance serves a connection whatever its peer
    encodes; the instance carries the interned-descriptor table the
    peer's encoder builds up.  Counters, folded into ``perf`` when given
    (as for :class:`WireEncoder`): ``wire_frames_decoded`` /
    ``wire_bytes_decoded`` per frame, ``wire_decode_seconds`` per
    :meth:`decode_frames` pass.
    """

    __slots__ = ("_desc_static",) + tuple(
        "_n_" + name for name in _DECODER_COUNTERS)

    def __init__(self, perf=None):
        #: interned id -> static descriptor fields, mirrored from the peer.
        self._desc_static: Dict[int, tuple] = {}
        for name in _DECODER_COUNTERS:
            setattr(self, "_n_" + name, 0)
        if perf is not None:
            perf.attach(self, _DECODER_COUNTERS)

    def decode_frames(self, splitter: "FrameSplitter", out) -> None:
        """Decode every complete frame ``splitter`` holds onto ``out``.

        The receive path of every data plane: one pass per chunk read
        from the transport, timed once.  A frame that fails to split or
        decode ends the pass, and its :class:`ProtocolError` is appended
        after the messages before it, so the consumer meets the fault in
        stream order; the stream is unusable after it.
        """
        t0 = perf_counter()
        try:
            # Stop once the buffer is used up, not on a None from next():
            # a chunk of whole frames costs one next() per frame.
            while splitter.buffered:
                payload = splitter.next()
                if payload is None:
                    break
                out.append(self.decode(payload))
        except ProtocolError as exc:
            out.append(exc)
        self._n_wire_decode_seconds += perf_counter() - t0

    def decode(self, payload) -> Dict[str, Any]:
        if not payload:
            raise ProtocolError("empty frame")
        data = payload if type(payload) is bytes else bytes(payload)
        size = len(data)
        fast = self._BINARY.get(data[0])
        if fast is not None:
            try:
                message, end = fast(self, data)
            except (struct.error, IndexError, UnicodeDecodeError,
                    KeyError) as exc:
                raise ProtocolError(
                    f"undecodable binary frame: {exc}") from None
            # A string cut short shows here too: slicing stops at the end.
            if end != size:
                raise ProtocolError(
                    f"binary frame has {size - end} trailing bytes"
                    if end < size else
                    f"binary frame is {end - size} bytes short")
        elif data[0] < _TAG_GENERIC:
            message = decode_message(data)
        elif data[0] == _TAG_GENERIC:
            message = decode_message(data[1:])
        else:
            raise ProtocolError(f"unknown binary frame tag 0x{data[0]:02x}")
        self._n_wire_frames_decoded += 1
        self._n_wire_bytes_decoded += size + 4      # + the length prefix
        return message

    # -- binary fast paths: each returns (message, end offset) ---------------
    def _dec_inform(self, data: bytes) -> Tuple[Dict[str, Any], int]:
        f = data[1] & 3
        kind = data[_D_HEAD[f].size]
        if kind == 1:
            layout = _D_REF[f]
            fields = layout.unpack_from(data)
            did, remaining, has = fields[-3:]
            static = self._desc_static.get(did)
            if static is None:
                raise ProtocolError(
                    f"descriptor ref to unknown intern id {did}")
            app, nprocs, files, rounds, parts, total, t_alone = static
            parts = list(parts)
            end = layout.size
        elif kind == 0:
            layout = _D_FULL[f]
            fields = layout.unpack_from(data)
            did, n = fields[-2:]
            start = layout.size
            end = start + n
            app = data[start:end].decode("utf-8")
            nprocs, files, rounds, npart = _DESC_INTS.unpack_from(data, end)
            end += _DESC_INTS.size
            parts = list(struct.unpack_from(">%di" % npart, data, end))
            end += 4 * npart
            total, t_alone, remaining, has = _DESC_FLOATS.unpack_from(
                data, end)
            end += _DESC_FLOATS.size
            if did != _NO_ID:
                self._desc_static[did] = (app, nprocs, files, rounds,
                                          tuple(parts), total, t_alone)
        else:
            raise ProtocolError(f"unknown descriptor kind {kind}")
        started = None
        if has:
            (started,) = _F64.unpack_from(data, end)
            end += 8
        message: Dict[str, Any] = {"type": "inform"}
        if f & 1:
            message["seq"] = fields[0]
        if f & 2:
            message["t"] = fields[f & 1]
        message["descriptor"] = {
            "app": app,
            "nprocs": nprocs,
            "total_bytes": total,
            "t_alone": t_alone,
            "remaining_bytes": remaining,
            "access_started": started,
            "files": files,
            "rounds": rounds,
            "partitions": parts,
        }
        return message, end

    def _dec_app_request(self, data: bytes) -> Tuple[Dict[str, Any], int]:
        tag, flags = data[0], data[1]
        f = flags & 3
        layout = _D_APP[f]
        fields = layout.unpack_from(data)
        start = layout.size
        end = start + fields[-1]
        message = {"type": _REQUEST_TYPES[tag]}
        if f & 1:
            message["seq"] = fields[0]
        if f & 2:
            message["t"] = fields[f & 1]
        message["app"] = data[start:end].decode("utf-8")
        if tag == _TAG_RELEASE:
            remaining = None
            if flags & 4:
                (remaining,) = _F64.unpack_from(data, end)
                end += 8
            message["remaining"] = remaining
        return message, end

    def _dec_ack(self, data: bytes) -> Tuple[Dict[str, Any], int]:
        code, flags = data[1], data[2]
        if code >= len(_ACK_TYPES):
            raise ProtocolError(f"unknown ack subtype {code}")
        layout = _D_ACK[flags & 1]
        fields = layout.unpack_from(data)
        start = layout.size
        end = start + fields[-1]
        message: Dict[str, Any] = {"type": _ACK_TYPES[code], "t": fields[0]}
        if flags & 1:
            message["seq"] = fields[1]
        message["app"] = data[start:end].decode("utf-8")
        if flags & 2:
            message["authorized"] = bool(flags & 4)
        return message, end

    def _dec_grant(self, data: bytes) -> Tuple[Dict[str, Any], int]:
        t, n = _D_GRANT.unpack_from(data)
        end = _D_GRANT.size + n
        return ({"type": "grant", "app": data[_D_GRANT.size:end].decode(
            "utf-8"), "t": t}, end)

    #: Binary tag -> fast path.
    _BINARY = {_TAG_INFORM: _dec_inform, _TAG_RELEASE: _dec_app_request,
               _TAG_COMPLETE: _dec_app_request,
               _TAG_WITHDRAW: _dec_app_request,
               _TAG_ACK: _dec_ack, _TAG_GRANT: _dec_grant}


_REQUEST_TYPES = {_TAG_RELEASE: "release", _TAG_COMPLETE: "complete",
                  _TAG_WITHDRAW: "withdraw"}


# ---------------------------------------------------------------------------
# Push-style framing (every buffered reader)
# ---------------------------------------------------------------------------

class FrameSplitter:
    """Feed bytes in, take complete frame payloads out.

    The one length-prefix parser of the wire: the daemon's and the
    client's asyncio protocols feed it each chunk the transport delivers,
    and :class:`FrameReader` feeds it each ``recv``.
    Chunk boundaries can fall anywhere, a header included; a payload is
    returned only once all of its bytes have arrived.
    """

    __slots__ = ("_buf", "_pos")

    def __init__(self) -> None:
        #: Unconsumed bytes: the received chunk itself while it is the
        #: only one pending (no copy), a bytearray once chunks accumulate.
        self._buf: Any = b""
        self._pos = 0          #: start of the first unconsumed frame

    def feed(self, data: bytes) -> None:
        """Append bytes received from the peer."""
        buf = self._buf
        if self._pos == len(buf):
            self._buf = data
        elif isinstance(buf, bytearray):
            if self._pos:
                del buf[:self._pos]
            buf += data
        else:
            self._buf = bytearray(memoryview(buf)[self._pos:])
            self._buf += data
        self._pos = 0

    @property
    def buffered(self) -> int:
        """Bytes received but not yet returned as a payload."""
        return len(self._buf) - self._pos

    def need(self) -> Tuple[int, str]:
        """(bytes the next frame needs in all, the part still short)."""
        if self.buffered < _LEN.size:
            return _LEN.size, "header"
        (length,) = _LEN.unpack_from(self._buf, self._pos)
        return _LEN.size + length, "frame"

    def next(self) -> Optional[bytes]:
        """The next complete payload, or None until more bytes arrive.

        Raises :class:`FrameError` for an announced length above
        :data:`MAX_FRAME` (the stream cannot be resynchronized).
        """
        buf, pos = self._buf, self._pos
        start = pos + _LEN.size
        if len(buf) < start:
            return None
        (length,) = _LEN.unpack_from(buf, pos)
        if length > MAX_FRAME:
            raise FrameError(f"announced frame of {length} bytes exceeds "
                             f"MAX_FRAME ({MAX_FRAME})")
        end = start + length
        if len(buf) < end:
            return None
        payload = bytes(buf[start:end])
        self._pos = end
        return payload

    def truncation(self) -> Optional[FrameError]:
        """At the end of the stream: the error for a partial frame.

        None when the stream ended on a frame boundary.
        """
        if not self.buffered:
            return None
        need, what = self.need()
        return FrameError(f"connection dropped mid-frame: got "
                          f"{self.buffered} of {need} {what} bytes")


# ---------------------------------------------------------------------------
# Synchronous framing (blocking sockets)
# ---------------------------------------------------------------------------
#
# The shard-worker transport (:mod:`repro.core.shardproc`) speaks the same
# frames over blocking ``socketpair`` endpoints — a worker process has no
# event loop, it just alternates read/apply/write.

class FrameReader:
    """Buffered blocking frame reader over one socket.

    One ``recv`` pulls as many bytes as the kernel has ready, and every
    complete frame in it is decoded at once, so a pipelined stretch of
    frames (a coordination wave) costs one syscall and one decode pass.
    All transport failures surface as :class:`FrameError` with byte
    offsets; ``EINTR`` is retried.
    """

    __slots__ = ("_sock", "_decoder", "_splitter", "_ready")

    #: recv size — large enough that a whole coalesced wave arrives at once.
    CHUNK = 1 << 16

    def __init__(self, sock, decoder: Optional[WireDecoder] = None):
        self._sock = sock
        self._decoder = decoder if decoder is not None else WireDecoder()
        self._splitter = FrameSplitter()
        #: Decoded messages not yet returned (or the error ending them).
        self._ready: "deque[Any]" = deque()

    def has_buffered_frame(self) -> bool:
        """True when a complete frame has already been received.

        The worker loop uses this to decide when to flush its pending
        replies: only before a read that will actually hit the socket —
        the flush-before-block rule that keeps both ends deadlock-free
        while still coalescing a whole wave's replies into one send.
        """
        return bool(self._ready)

    def _recv(self) -> bool:
        """Receive one chunk and decode its frames; False on EOF."""
        splitter = self._splitter
        while True:
            try:
                chunk = self._sock.recv(self.CHUNK)
            except InterruptedError:  # pragma: no cover - EINTR straggler
                continue
            except OSError as exc:
                need, what = splitter.need()
                raise FrameError(
                    f"transport failed with {splitter.buffered} of {need} "
                    f"{what} bytes buffered: {exc}") from None
            if not chunk:
                return False
            splitter.feed(chunk)
            self._decoder.decode_frames(splitter, self._ready)
            return True

    def read_frame(self) -> Optional[Dict[str, Any]]:
        """Read one frame; ``None`` on clean EOF at a frame boundary."""
        ready = self._ready
        while not ready:
            if not self._recv():
                error = self._splitter.truncation()
                if error is not None:
                    raise error
                return None
        message = ready.popleft()
        if isinstance(message, ProtocolError):
            raise message
        return message


def write_frame(sock, message: Mapping[str, Any],
                encoder: Optional[WireEncoder] = None) -> None:
    """Blocking write of one frame (``sendall``)."""
    sock.sendall(encoder.encode(message) if encoder is not None
                 else encode_message(message))


# ---------------------------------------------------------------------------
# Coordination schemas
# ---------------------------------------------------------------------------

def descriptor_to_dict(d: AccessDescriptor) -> Dict[str, Any]:
    """Snapshot an :class:`AccessDescriptor`'s exchanged fields.

    A *snapshot*: the arbiter mutates live descriptors (``remaining_bytes``
    on release, ``access_started`` on activation), so recording keeps
    values, never references.
    """
    return {
        "app": d.app,
        "nprocs": d.nprocs,
        "total_bytes": d.total_bytes,
        "t_alone": d.t_alone,
        "remaining_bytes": d.remaining_bytes,
        "access_started": d.access_started,
        "files": d.files,
        "rounds": d.rounds,
        "partitions": list(d.partitions),
    }


def descriptor_from_dict(data: Mapping[str, Any]) -> AccessDescriptor:
    """Inverse of :func:`descriptor_to_dict`, exact on every field.

    ``remaining_bytes``/``access_started`` are restored *after*
    construction: ``__post_init__`` coerces a zero ``remaining_bytes`` to
    ``total_bytes``, which must not rewrite a genuinely-drained snapshot.
    """
    try:
        desc = AccessDescriptor(
            app=str(data["app"]),
            nprocs=int(data["nprocs"]),
            total_bytes=float(data["total_bytes"]),
            t_alone=float(data["t_alone"]),
            files=int(data.get("files", 1)),
            rounds=int(data.get("rounds", 1)),
            partitions=tuple(int(p) for p in data.get("partitions", (0,))),
        )
        desc.remaining_bytes = float(data.get("remaining_bytes",
                                              desc.remaining_bytes))
        started = data.get("access_started")
        desc.access_started = None if started is None else float(started)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"bad descriptor {data!r}: {exc}") from None
    return desc


def decision_to_dict(record: DecisionRecord) -> Dict[str, Any]:
    """One decision-log entry as plain JSON types (for wire + diffing)."""
    return {
        "time": record.time,
        "app": record.app,
        "action": record.action.value,
        "active": list(record.active),
        "waiting": list(record.waiting),
        "costs": dict(record.costs),
    }


#: The bytes JSON writes unescaped: printable ASCII but ``"`` and ``\\``.
_JSON_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"").replace(b"\\", b"")


def _names_pieces(names) -> Tuple[str, ...]:
    """A list of app names as pieces of its canonical JSON.

    The common case is joined raw: once joined, one scan shows whether
    any name needs a JSON escape (non-ASCII, a control character, a
    backslash, or a quote beyond the separators' own).  Anything else,
    non-string names included, goes through :func:`canonical_json`.
    """
    if not names:
        return ("[]",)
    try:
        raw = '","'.join(names)
    except TypeError:
        return (canonical_json(list(names)),)
    # What is left once the plain bytes are deleted must be exactly the
    # separators' quotes.
    if (raw.isascii() and raw.encode().translate(None, _JSON_PLAIN)
            == b'""' * (len(names) - 1)):
        return ('["', raw, '"]')
    return (canonical_json(list(names)),)


def _str_json(value: Any) -> str:
    return (_json_str(value) if isinstance(value, str)
            else canonical_json(value))


def _decision_pieces(record: DecisionRecord) -> Tuple[str, ...]:
    """One log entry's canonical JSON object, as pieces to join."""
    t, costs = record.time, record.costs
    return (
        '{"action":', _str_json(record.action.value),
        ',"active":', *_names_pieces(record.active),
        ',"app":', _str_json(record.app),
        ',"costs":', canonical_json(dict(costs), sort_keys=True)
        if costs else "{}",
        # repr is JSON's own form of a finite float; a non-finite time
        # or a non-float takes the canonical encoder.
        ',"time":', repr(t) if type(t) is float and t - t == 0.0
        else canonical_json(t),
        ',"waiting":', *_names_pieces(record.waiting),
        "}")


def decisions_to_json(records) -> str:
    """Canonical serialization of a decision log.

    Two logs are *bit-identical* iff their canonical serializations are
    equal strings — the equality the service's replay guarantees against
    the in-process run.  The string is built from per-record fragments,
    each written field by field in sorted key order: a list of plain
    names is joined raw, and every other value goes through
    :func:`canonical_json`, the float/separator policy of every JSON
    payload on the wire.  The oracle it must equal exactly is
    ``canonical_json([decision_to_dict(r) for r in records],
    sort_keys=True)`` (``tests/test_decision_log_encoder.py``).  The
    fragments' pieces are joined once, so no per-record string is made.
    """
    pieces = ["["]
    for record in records:
        pieces += _decision_pieces(record)
        pieces.append(",")
    if len(pieces) == 1:
        return "[]"
    pieces[-1] = "]"
    return "".join(pieces)


def decisions_digest(records) -> str:
    """sha256 hex digest of :func:`decisions_to_json` of ``records``.

    Streams one fragment at a time into the hash, so the whole log is
    never held as one string.
    """
    digest = hashlib.sha256(b"[")
    sep = b""
    for record in records:
        digest.update(sep)
        digest.update("".join(_decision_pieces(record)).encode("utf-8"))
        sep = b","
    digest.update(b"]")
    return digest.hexdigest()
