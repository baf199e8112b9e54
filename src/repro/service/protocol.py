"""Wire protocol: length-prefixed frames, two codecs, coordination schemas.

Framing
-------
Every message is one *frame*: a payload prefixed by its byte length as a
4-byte big-endian unsigned integer.  Length-prefixed framing (rather than
newline-delimited) keeps the payload format unconstrained and makes
partial-read handling explicit; frames are capped at :data:`MAX_FRAME` to
bound a malicious or broken peer.

Two codecs produce payloads, and every payload is *self-describing* —
the first byte distinguishes them, so one decoder handles both:

``json`` (the oracle)
    The payload is one canonical-JSON object encoded as UTF-8 (first byte
    ``{`` = 0x7B).  Python's :mod:`json` serializes floats via ``repr``,
    which round-trips every finite ``float`` exactly — the property that
    lets a replayed trace reproduce the in-process decision log *bit for
    bit*.  JSON stays the default and the cross-checked reference: the
    binary codec must be observationally equivalent to it (equal decoded
    messages, string-equal decision logs), asserted by
    ``tests/test_wire_codec.py``.

``binary`` (the service daemon's plane only)
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
remain the stateless JSON primitives.

Codec negotiation
-----------------
The ``hello``/``welcome`` handshake is always JSON.  A client that can
decode binary sends ``{"codec": "binary"}`` inside its hello; the daemon
answers with the codec it will actually speak in the ``welcome`` (an
unknown proposal falls back to ``"json"``), and both sides switch their
*encoders* after the handshake.  Decoders need no switch — payloads are
self-describing.  The shard-worker plane
(:mod:`repro.core.shardproc`) negotiates nothing: it speaks JSON in both
directions, through JSON :class:`WireEncoder` objects (so its frames are
metered like the daemon's) and a blocking :class:`FrameReader`.

Message schemas (client → server)
---------------------------------
``hello``     ``{"type": "hello", "apps": [...], "mode": "replay"|"live",
              "spec_sha": str|None, "codec": "json"|"binary"}`` — first
              frame on a connection; declares the coordination sessions
              the connection will multiplex.  Answered by ``welcome`` or
              ``rejected``.
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

import asyncio
import json
import os
import struct
from collections import deque
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.arbiter import DecisionRecord
from ..core.metrics import AccessDescriptor

__all__ = [
    "MAX_FRAME", "CODECS", "ProtocolError", "FrameError",
    "canonical_json", "default_wire_codec",
    "WireEncoder", "WireDecoder", "FrameSplitter", "FrameReader",
    "encode_message", "decode_message", "read_message", "write_message",
    "write_frame",
    "descriptor_to_dict", "descriptor_from_dict",
    "decision_to_dict", "decisions_to_json",
]

_LEN = struct.Struct(">I")

#: Upper bound on one frame's payload, bytes (a descriptor is ~200 B).
MAX_FRAME = 1 << 20

#: The codecs an encoder can speak (a decoder always accepts both).
CODECS = ("json", "binary")


def default_wire_codec() -> str:
    """The process-wide default codec: ``REPRO_WIRE_CODEC`` or ``json``."""
    codec = os.environ.get("REPRO_WIRE_CODEC", "").strip().lower()
    return codec if codec in CODECS else "json"


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
# Binary codec internals
# ---------------------------------------------------------------------------

class _Unrepresentable(Exception):
    """Internal: this message needs the generic JSON fallback."""


_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_TAG_GENERIC = 0x80
_TAG_INFORM = 0x81
_TAG_RELEASE = 0x82
_TAG_COMPLETE = 0x83
_TAG_WITHDRAW = 0x84
_TAG_ACK = 0x85
_TAG_GRANT = 0x86

_ACK_TYPES = ("inform-ack", "release-ack", "complete-ack", "withdraw-ack")
_ACK_CODES = {name: i for i, name in enumerate(_ACK_TYPES)}

_DESC_KEYS = frozenset((
    "app", "nprocs", "total_bytes", "t_alone", "remaining_bytes",
    "access_started", "files", "rounds", "partitions"))

#: Interned-descriptor id meaning "do not store" (encoder table full).
_NO_ID = 0xFFFFFFFF
#: Per-direction intern table bound (ids are assigned densely below it).
_MAX_INTERNED = 1 << 16

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _pstr(out: bytearray, s: Any) -> None:
    if not isinstance(s, str):
        raise _Unrepresentable
    data = s.encode("utf-8")
    if len(data) > 0xFFFF:
        raise _Unrepresentable
    out += _U16.pack(len(data))
    out += data


def _put_opt_float(out: bytearray, v: Any) -> None:
    if v is None:
        out += b"\x00"
    elif _is_num(v):
        out += b"\x01"
        out += _F64.pack(v)
    else:
        raise _Unrepresentable


def _put_seq_t(out: bytearray, m: Mapping[str, Any]) -> int:
    """Append the optional ``seq``/``t`` fields; return their flag bits."""
    flags = 0
    if "seq" in m:
        seq = m["seq"]
        if not _is_int(seq) or not 0 <= seq <= 0xFFFFFFFFFFFFFFFF:
            raise _Unrepresentable
        flags |= 1
        out += _U64.pack(seq)
    if "t" in m:
        t = m["t"]
        if not _is_num(t):
            raise _Unrepresentable
        flags |= 2
        out += _F64.pack(t)
    return flags


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
        if codec not in CODECS:
            raise ValueError(f"unknown wire codec {codec!r} "
                             f"(expected one of {CODECS})")
        self.codec = codec
        #: static-descriptor tuple -> interned id (binary codec only).
        self._desc_ids: Dict[tuple, int] = {}
        #: Messages queued since the last flush, in send order.
        self._queued: List[Mapping[str, Any]] = []
        for name in _ENCODER_COUNTERS:
            setattr(self, "_n_" + name, 0)
        if perf is not None:
            perf.attach(self, _ENCODER_COUNTERS)

    def encode(self, message: Mapping[str, Any]) -> bytes:
        if self.codec == "binary":
            try:
                payload = self._binary_payload(message)
            except (_Unrepresentable, struct.error, OverflowError,
                    UnicodeEncodeError, TypeError, KeyError, ValueError):
                payload = (_U8.pack(_TAG_GENERIC)
                           + canonical_json(message).encode("utf-8"))
                self._n_wire_generic_frames += 1
        else:
            payload = canonical_json(message).encode("utf-8")
        frame = _frame(payload)
        self._n_wire_frames_encoded += 1
        self._n_wire_bytes_encoded += len(frame)
        return frame

    def queue(self, message: Mapping[str, Any]) -> None:
        """Queue ``message`` for the next :meth:`flush`."""
        self._queued.append(message)

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

    # -- binary fast paths --------------------------------------------------
    def _binary_payload(self, m: Mapping[str, Any]) -> bytes:
        mtype = m.get("type")
        if mtype == "inform":
            return self._enc_inform(m)
        if mtype == "release":
            return self._enc_release(m)
        if mtype in ("complete", "withdraw"):
            return self._enc_complete(m)
        if mtype in _ACK_CODES:
            return self._enc_ack(m)
        if mtype == "grant":
            return self._enc_grant(m)
        raise _Unrepresentable

    def _enc_inform(self, m: Mapping[str, Any]) -> bytes:
        if set(m) - {"seq", "t"} != {"type", "descriptor"}:
            raise _Unrepresentable
        out = bytearray((_TAG_INFORM, 0))
        out[1] = _put_seq_t(out, m)
        self._put_descriptor(out, m["descriptor"])
        return bytes(out)

    def _enc_release(self, m: Mapping[str, Any]) -> bytes:
        if set(m) - {"seq", "t"} != {"type", "app", "remaining"}:
            raise _Unrepresentable
        out = bytearray((_TAG_RELEASE, 0))
        flags = _put_seq_t(out, m)
        remaining = m["remaining"]
        _pstr(out, m["app"])
        if remaining is not None:
            if not _is_num(remaining):
                raise _Unrepresentable
            flags |= 4
            out += _F64.pack(remaining)
        out[1] = flags
        return bytes(out)

    def _enc_complete(self, m: Mapping[str, Any]) -> bytes:
        if set(m) - {"seq", "t"} != {"type", "app"}:
            raise _Unrepresentable
        tag = _TAG_COMPLETE if m["type"] == "complete" else _TAG_WITHDRAW
        out = bytearray((tag, 0))
        out[1] = _put_seq_t(out, m)
        _pstr(out, m["app"])
        return bytes(out)

    def _enc_ack(self, m: Mapping[str, Any]) -> bytes:
        mtype = m["type"]
        expected = ({"type", "t", "app", "authorized"}
                    if mtype == "inform-ack" else {"type", "t", "app"})
        if set(m) - {"seq"} != expected:
            raise _Unrepresentable
        t = m["t"]
        if not _is_num(t):
            raise _Unrepresentable
        flags = 0
        if "authorized" in m:
            if not isinstance(m["authorized"], bool):
                raise _Unrepresentable
            flags |= 2
            if m["authorized"]:
                flags |= 4
        out = bytearray((_TAG_ACK, _ACK_CODES[mtype], flags))
        out += _F64.pack(t)
        if "seq" in m:
            seq = m["seq"]
            if not _is_int(seq) or not 0 <= seq <= 0xFFFFFFFFFFFFFFFF:
                raise _Unrepresentable
            out[2] = flags | 1
            out += _U64.pack(seq)
        _pstr(out, m["app"])
        return bytes(out)

    def _enc_grant(self, m: Mapping[str, Any]) -> bytes:
        if set(m) != {"type", "app", "t"} or not _is_num(m["t"]):
            raise _Unrepresentable
        out = bytearray((_TAG_GRANT,))
        out += _F64.pack(m["t"])
        _pstr(out, m["app"])
        return bytes(out)

    def _put_descriptor(self, out: bytearray, d: Any) -> None:
        if not isinstance(d, Mapping) or set(d) != _DESC_KEYS:
            raise _Unrepresentable
        app = d["app"]
        nprocs, files, rounds = d["nprocs"], d["files"], d["rounds"]
        parts = d["partitions"]
        if not isinstance(parts, (list, tuple)):
            raise _Unrepresentable
        parts_t = tuple(parts)
        for v in (nprocs, files, rounds):
            if not _is_int(v) or not _I64_MIN <= v <= _I64_MAX:
                raise _Unrepresentable
        if len(parts_t) > 0xFFFF or not all(
                _is_int(p) and _I32_MIN <= p <= _I32_MAX for p in parts_t):
            raise _Unrepresentable
        total, t_alone = d["total_bytes"], d["t_alone"]
        remaining, started = d["remaining_bytes"], d["access_started"]
        if not (_is_num(total) and _is_num(t_alone) and _is_num(remaining)):
            raise _Unrepresentable

        ids = self._desc_ids
        key = (app, nprocs, files, rounds, parts_t,
               float(total), float(t_alone))
        did = ids.get(key)
        if did is not None:
            out += b"\x01"
            out += _U32.pack(did)
            out += _F64.pack(remaining)
            _put_opt_float(out, started)
            self._n_wire_desc_refs += 1
            return
        # Build the full body before committing the intern id: a failing
        # field must not leave the encoder table ahead of the decoder's.
        body = bytearray()
        _pstr(body, app)
        body += _I64.pack(nprocs)
        body += _I64.pack(files)
        body += _I64.pack(rounds)
        body += _U16.pack(len(parts_t))
        for p in parts_t:
            body += _I32.pack(p)
        body += _F64.pack(total)
        body += _F64.pack(t_alone)
        body += _F64.pack(remaining)
        _put_opt_float(body, started)
        if len(ids) < _MAX_INTERNED:
            did = len(ids)
            ids[key] = did
            self._n_wire_desc_interned += 1
        else:
            did = _NO_ID
        out += b"\x00"
        out += _U32.pack(did)
        out += body


class WireDecoder:
    """One direction's frame decoder — accepts both codecs.

    Payloads are self-describing (first byte >= 0x80 means binary), so a
    single decoder instance serves a connection regardless of what was
    negotiated; the instance carries the interned-descriptor table the
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
            while True:
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
        data = bytes(payload)
        if data[0] >= 0x80:
            try:
                message = self._decode_binary(data)
            except ProtocolError:
                raise
            except (struct.error, IndexError, UnicodeDecodeError,
                    KeyError) as exc:
                raise ProtocolError(
                    f"undecodable binary frame: {exc}") from None
        else:
            message = decode_message(data)
        self._n_wire_frames_decoded += 1
        self._n_wire_bytes_decoded += len(data) + _LEN.size
        return message

    # -- binary parsing -----------------------------------------------------
    def _decode_binary(self, data: bytes) -> Dict[str, Any]:
        tag = data[0]
        if tag == _TAG_GENERIC:
            return decode_message(data[1:])
        if tag == _TAG_INFORM:
            message, pos = self._dec_inform(data)
        elif tag == _TAG_RELEASE:
            message, pos = self._dec_release(data)
        elif tag in (_TAG_COMPLETE, _TAG_WITHDRAW):
            message, pos = self._dec_complete(data, tag)
        elif tag == _TAG_ACK:
            message, pos = self._dec_ack(data)
        elif tag == _TAG_GRANT:
            message, pos = self._dec_grant(data)
        else:
            raise ProtocolError(f"unknown binary frame tag 0x{tag:02x}")
        if pos != len(data):
            raise ProtocolError(
                f"binary frame has {len(data) - pos} trailing bytes")
        return message

    @staticmethod
    def _get_str(data: bytes, pos: int) -> Tuple[str, int]:
        (n,) = _U16.unpack_from(data, pos)
        pos += 2
        end = pos + n
        if end > len(data):
            raise ProtocolError("truncated string in binary frame")
        return data[pos:end].decode("utf-8"), end

    @staticmethod
    def _get_seq_t(data: bytes, pos: int, flags: int,
                   message: Dict[str, Any]) -> int:
        if flags & 1:
            (seq,) = _U64.unpack_from(data, pos)
            pos += 8
            message["seq"] = seq
        if flags & 2:
            (t,) = _F64.unpack_from(data, pos)
            pos += 8
            message["t"] = t
        return pos

    def _dec_inform(self, data: bytes) -> Tuple[Dict[str, Any], int]:
        flags = data[1]
        message: Dict[str, Any] = {"type": "inform"}
        pos = self._get_seq_t(data, 2, flags, message)
        message["descriptor"], pos = self._get_descriptor(data, pos)
        return message, pos

    def _dec_release(self, data: bytes) -> Tuple[Dict[str, Any], int]:
        flags = data[1]
        message: Dict[str, Any] = {"type": "release"}
        pos = self._get_seq_t(data, 2, flags, message)
        message["app"], pos = self._get_str(data, pos)
        if flags & 4:
            (remaining,) = _F64.unpack_from(data, pos)
            pos += 8
            message["remaining"] = remaining
        else:
            message["remaining"] = None
        return message, pos

    def _dec_complete(self, data: bytes,
                      tag: int) -> Tuple[Dict[str, Any], int]:
        flags = data[1]
        message: Dict[str, Any] = {
            "type": "complete" if tag == _TAG_COMPLETE else "withdraw"}
        pos = self._get_seq_t(data, 2, flags, message)
        message["app"], pos = self._get_str(data, pos)
        return message, pos

    def _dec_ack(self, data: bytes) -> Tuple[Dict[str, Any], int]:
        subtype, flags = data[1], data[2]
        if subtype >= len(_ACK_TYPES):
            raise ProtocolError(f"unknown ack subtype {subtype}")
        message: Dict[str, Any] = {"type": _ACK_TYPES[subtype]}
        (t,) = _F64.unpack_from(data, 3)
        message["t"] = t
        pos = 11
        if flags & 1:
            (seq,) = _U64.unpack_from(data, pos)
            pos += 8
            message["seq"] = seq
        message["app"], pos = self._get_str(data, pos)
        if flags & 2:
            message["authorized"] = bool(flags & 4)
        return message, pos

    def _dec_grant(self, data: bytes) -> Tuple[Dict[str, Any], int]:
        (t,) = _F64.unpack_from(data, 1)
        app, pos = self._get_str(data, 9)
        return {"type": "grant", "app": app, "t": t}, pos

    def _get_descriptor(self, data: bytes,
                        pos: int) -> Tuple[Dict[str, Any], int]:
        kind = data[pos]
        pos += 1
        if kind == 1:
            (did,) = _U32.unpack_from(data, pos)
            pos += 4
            static = self._desc_static.get(did)
            if static is None:
                raise ProtocolError(
                    f"descriptor ref to unknown intern id {did}")
            (remaining,) = _F64.unpack_from(data, pos)
            pos += 8
            started, pos = self._get_opt_float(data, pos)
            app, nprocs, files, rounds, parts, total, t_alone = static
            return {
                "app": app,
                "nprocs": nprocs,
                "total_bytes": total,
                "t_alone": t_alone,
                "remaining_bytes": remaining,
                "access_started": started,
                "files": files,
                "rounds": rounds,
                "partitions": list(parts),
            }, pos
        if kind != 0:
            raise ProtocolError(f"unknown descriptor kind {kind}")
        (did,) = _U32.unpack_from(data, pos)
        pos += 4
        app, pos = self._get_str(data, pos)
        (nprocs,) = _I64.unpack_from(data, pos)
        (files,) = _I64.unpack_from(data, pos + 8)
        (rounds,) = _I64.unpack_from(data, pos + 16)
        (npart,) = _U16.unpack_from(data, pos + 24)
        pos += 26
        parts = []
        for _ in range(npart):
            (p,) = _I32.unpack_from(data, pos)
            pos += 4
            parts.append(p)
        (total,) = _F64.unpack_from(data, pos)
        (t_alone,) = _F64.unpack_from(data, pos + 8)
        (remaining,) = _F64.unpack_from(data, pos + 16)
        pos += 24
        started, pos = self._get_opt_float(data, pos)
        if did != _NO_ID:
            self._desc_static[did] = (app, nprocs, files, rounds,
                                      tuple(parts), total, t_alone)
        return {
            "app": app,
            "nprocs": nprocs,
            "total_bytes": total,
            "t_alone": t_alone,
            "remaining_bytes": remaining,
            "access_started": started,
            "files": files,
            "rounds": rounds,
            "partitions": parts,
        }, pos

    @staticmethod
    def _get_opt_float(data: bytes, pos: int) -> Tuple[Optional[float], int]:
        has = data[pos]
        pos += 1
        if not has:
            return None, pos
        (v,) = _F64.unpack_from(data, pos)
        return v, pos + 8


# ---------------------------------------------------------------------------
# Asynchronous framing (asyncio streams)
# ---------------------------------------------------------------------------

async def read_message(reader: asyncio.StreamReader,
                       decoder: Optional[WireDecoder] = None
                       ) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    With a :class:`WireDecoder` the payload may be either codec (and the
    decoder's intern table is maintained); without one the payload must
    be JSON — the pre-negotiation and legacy-caller path.
    """
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError(f"connection dropped mid-frame: got "
                         f"{len(exc.partial)} of {_LEN.size} header bytes"
                         ) from None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"announced frame of {length} bytes exceeds "
                         f"MAX_FRAME ({MAX_FRAME})")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(f"connection dropped mid-frame: got "
                         f"{len(exc.partial)} of {length} payload bytes"
                         ) from None
    if decoder is not None:
        return decoder.decode(payload)
    return decode_message(payload)


async def write_message(writer: asyncio.StreamWriter,
                        message: Mapping[str, Any],
                        encoder: Optional[WireEncoder] = None) -> None:
    """Write one frame and drain (the back of the backpressure story)."""
    writer.write(encoder.encode(message) if encoder is not None
                 else encode_message(message))
    await writer.drain()


# ---------------------------------------------------------------------------
# Push-style framing (every buffered reader)
# ---------------------------------------------------------------------------

class FrameSplitter:
    """Feed bytes in, take complete frame payloads out.

    The one length-prefix parser of the buffered data planes: the
    daemon's and the client's asyncio protocols feed it each chunk the
    transport delivers, and :class:`FrameReader` feeds it each ``recv``.
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
# event loop, it just alternates read/apply/write.  ``None`` on clean EOF
# at a frame boundary mirrors :func:`read_message`.

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


def decisions_to_json(records) -> str:
    """Canonical serialization of a decision log.

    Two logs are *bit-identical* iff their canonical serializations are
    equal strings — the equality the service's replay guarantees against
    the in-process run.  The float/separator policy is
    :func:`canonical_json`, the same helper every JSON payload on the
    wire goes through, so the two contracts cannot drift apart.
    """
    return canonical_json([decision_to_dict(r) for r in records],
                          sort_keys=True)
