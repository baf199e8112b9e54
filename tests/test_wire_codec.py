"""The binary wire codec against its JSON oracle.

Two layers of guarantee:

* **Codec equality** — a randomized fuzzer generates messages of every
  hot type (unicode app tags, inf/NaN-adjacent float magnitudes, empty
  partitions, interned and non-interned descriptors) plus off-schema
  strays, and asserts the binary encoding decodes to *exactly* the dict
  the JSON encoding decodes to.  The generic fallback makes coverage
  total: anything the fast paths refuse must still round-trip.
* **Decision-log bit-identity** — replaying the committed
  ``service-many-writers`` scenario through the daemon must produce
  string-equal canonical decision logs with the service plane's binary
  encoders and with the JSON oracle substituted for them.  The
  ``workers="process"`` shard plane speaks JSON only, and its log equals
  the inline one.

Plus the framing satellites: `FrameError` with byte offsets out of every
truncation path of the blocking `FrameReader` and the push-style
`FrameSplitter`, the splitter under every chunking of a recorded replay
and its one `next()` per frame, the daemon's answer to hellos that still
propose a codec, the shared canonical-JSON helper, and the field-level
ack packer: its frames against a frozen copy of the dict ack encoder,
and JSON-only daemon frames under the oracle.
"""

import asyncio
import json
import math
import socket
import struct
from pathlib import Path

import pytest

from repro.core.metrics import AccessDescriptor
from repro.core.sharding import ShardRouter
from repro.perf import PerfCounters
from repro.service.protocol import (
    MAX_FRAME, FrameError, FrameReader, FrameSplitter, ProtocolError,
    WireDecoder, WireEncoder, canonical_json, decisions_to_json,
    decode_message, descriptor_from_dict, descriptor_to_dict,
    encode_message, write_frame,
)
from repro.simcore import Simulator

_TIMEOUT = 120.0


# ---------------------------------------------------------------------------
# Fuzzing helpers
# ---------------------------------------------------------------------------

_APPS = ["a", "writer-07", "chéckpoint", "アプリ", "x" * 120, "", "app🚀"]
#: Exact-round-trip floats near the representable extremes (true inf/NaN
#: are not canonical-JSON-serializable, so the wire never carries them).
_FLOATS = [0.0, -0.0, 1.0, -1.5, 1e-300, 5e-324, 1e308, -1.7976931348623157e308,
           math.pi, 2.0 ** 53, 1 / 3]


def _rand_float(rng):
    return rng.choice(_FLOATS) * rng.choice([1.0, -1.0])


def _rand_descriptor(rng):
    return {
        "app": rng.choice(_APPS),
        "nprocs": rng.choice([1, 64, 2 ** 31, -3]),
        "total_bytes": abs(_rand_float(rng)) + 1.0,
        "t_alone": abs(_rand_float(rng)),
        "remaining_bytes": _rand_float(rng),
        "access_started": rng.choice([None, _rand_float(rng)]),
        "files": rng.choice([1, 7, 10 ** 9]),
        "rounds": rng.choice([1, 3]),
        "partitions": rng.choice([[], [0], [0, 1, 2], [-1, 2 ** 30],
                                  list(range(40))]),
    }


def _rand_message(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return {"type": "inform", "seq": rng.randrange(2 ** 48),
                "t": abs(_rand_float(rng)),
                "descriptor": _rand_descriptor(rng)}
    if kind == 1:
        return {"type": "inform", "descriptor": _rand_descriptor(rng)}
    if kind == 2:
        return {"type": "release", "seq": rng.randrange(100),
                "t": abs(_rand_float(rng)), "app": rng.choice(_APPS),
                "remaining": rng.choice([None, _rand_float(rng)])}
    if kind == 3:
        return {"type": rng.choice(["complete", "withdraw"]),
                "seq": rng.randrange(100), "t": abs(_rand_float(rng)),
                "app": rng.choice(_APPS)}
    if kind == 4:
        msg = {"type": "inform-ack", "t": abs(_rand_float(rng)),
               "app": rng.choice(_APPS),
               "authorized": rng.choice([True, False])}
        if rng.random() < 0.5:
            msg["seq"] = rng.randrange(2 ** 60)
        return msg
    if kind == 5:
        return {"type": rng.choice(["release-ack", "complete-ack",
                                    "withdraw-ack"]),
                "t": abs(_rand_float(rng)), "app": rng.choice(_APPS)}
    if kind == 6:
        return {"type": "grant", "app": rng.choice(_APPS),
                "t": abs(_rand_float(rng))}
    # Off-schema strays: must survive via the generic fallback.
    return rng.choice([
        {"type": "hello", "apps": [rng.choice(_APPS)], "mode": "replay",
         "spec_sha": None, "codec": rng.choice(["json", "binary"])},
        {"type": "bye"},
        {"type": "decision-digest"},
        {"type": "error", "reason": "Δ" * rng.randrange(5)},
        {"type": "inform", "descriptor": _rand_descriptor(rng),
         "surprise": [1, {"k": None}]},
        {"type": "release", "app": rng.choice(_APPS),
         "remaining": "not-a-float"},
    ])


def test_fuzz_binary_json_roundtrip():
    """2000 random messages: binary decode == JSON decode == original."""
    import random
    rng = random.Random(0x10C0DEC)
    enc_bin = WireEncoder("binary")
    enc_json = WireEncoder("json")
    dec_bin = WireDecoder()
    dec_json = WireDecoder()
    for i in range(2000):
        msg = _rand_message(rng)
        frame_bin = enc_bin.encode(msg)
        frame_json = enc_json.encode(msg)
        got_bin = dec_bin.decode(frame_bin[4:])
        got_json = dec_json.decode(frame_json[4:])
        assert got_bin == msg, f"binary diverged at #{i}: {msg!r}"
        assert got_json == msg, f"json diverged at #{i}: {msg!r}"
        # Exact float fidelity, not just dict ==: re-serialize both
        # decodes canonically and demand the same bytes.
        assert (canonical_json(got_bin, sort_keys=True)
                == canonical_json(got_json, sort_keys=True)), msg


def test_fuzzed_descriptors_reconstruct_identically():
    """descriptor_from_dict over both codecs builds equal descriptors."""
    import random
    rng = random.Random(7)
    enc = WireEncoder("binary")
    dec = WireDecoder()
    for _ in range(200):
        d = _rand_descriptor(rng)
        if not d["partitions"]:
            d["partitions"] = [0]   # the dataclass requires >= 1 partition
        msg = {"type": "inform", "descriptor": d}
        via_bin = dec.decode(enc.encode(msg)[4:])["descriptor"]
        a = descriptor_from_dict(via_bin)
        b = descriptor_from_dict(d)
        assert descriptor_to_dict(a) == descriptor_to_dict(b)


# ---------------------------------------------------------------------------
# Descriptor interning
# ---------------------------------------------------------------------------

def _desc_dict(app="appA", remaining=512.0, started=None):
    return {"app": app, "nprocs": 8, "total_bytes": 1024.0, "t_alone": 2.0,
            "remaining_bytes": remaining, "access_started": started,
            "files": 2, "rounds": 3, "partitions": [0, 1]}


def test_interning_shrinks_repeat_descriptors():
    perf = PerfCounters()
    enc = WireEncoder("binary", perf=perf)
    dec = WireDecoder()
    first = enc.encode({"type": "inform", "descriptor": _desc_dict()})
    second = enc.encode({"type": "inform",
                         "descriptor": _desc_dict(remaining=100.5,
                                                  started=7.25)})
    assert len(second) < len(first) / 2
    assert dec.decode(first[4:])["descriptor"] == _desc_dict()
    assert dec.decode(second[4:])["descriptor"] == _desc_dict(
        remaining=100.5, started=7.25)
    assert perf.get("wire_desc_interned") == 1
    assert perf.get("wire_desc_refs") == 1
    # A different static tuple interns separately.
    other = enc.encode({"type": "inform",
                        "descriptor": _desc_dict(app="appB")})
    assert dec.decode(other[4:])["descriptor"] == _desc_dict(app="appB")
    assert perf.get("wire_desc_interned") == 2


def test_generic_fallback_does_not_corrupt_intern_table():
    """A failed fast-path encode must not desync encoder/decoder tables."""
    perf = PerfCounters()
    enc = WireEncoder("binary", perf=perf)
    dec = WireDecoder()
    bad = _desc_dict()
    bad["app"] = "x" * 70_000          # blows the u16 string bound mid-body
    fallback = enc.encode({"type": "inform", "descriptor": bad})
    assert dec.decode(fallback[4:])["descriptor"] == bad
    assert perf.get("wire_generic_frames") == 1
    assert enc._desc_ids == {}         # nothing committed
    # The table still works from id 0 after the failure.
    full = enc.encode({"type": "inform", "descriptor": _desc_dict()})
    ref = enc.encode({"type": "inform", "descriptor": _desc_dict()})
    assert dec.decode(full[4:])["descriptor"] == _desc_dict()
    assert dec.decode(ref[4:])["descriptor"] == _desc_dict()
    assert len(ref) < len(full)


def test_unknown_intern_ref_is_a_protocol_error():
    enc = WireEncoder("binary")
    enc.encode({"type": "inform", "descriptor": _desc_dict()})   # interns 0
    ref = enc.encode({"type": "inform", "descriptor": _desc_dict()})
    fresh = WireDecoder()              # never saw the full descriptor
    with pytest.raises(ProtocolError, match="unknown intern id"):
        fresh.decode(ref[4:])


def test_trailing_bytes_rejected():
    enc = WireEncoder("binary")
    frame = enc.encode({"type": "grant", "app": "a", "t": 1.0})
    with pytest.raises(ProtocolError, match="trailing"):
        WireDecoder().decode(frame[4:] + b"\x00")


def test_unknown_codec_name_rejected():
    with pytest.raises(ValueError, match="unknown wire codec"):
        WireEncoder("msgpack")


# ---------------------------------------------------------------------------
# Golden frames: the binary layouts are frozen byte for byte
# ---------------------------------------------------------------------------

_GOLDEN = Path(__file__).parent / "data" / "wire" / "golden_frames.json"


def _golden_streams():
    """(name, [{"message", "frame"}, ...]) per recorded encoder stream.

    ``replay`` holds every binary encoder's frames from a small lockstep
    ``service-many-writers`` replay (client requests, daemon acks and
    pushed grants); ``edge`` holds one encoder's frames for the shapes
    the replay never sends: absent ``seq``/``t``, ``remaining`` None, an
    inform-ack without ``authorized``, both ``access_started`` forms, a
    3-partition descriptor and references to it, an int ``t``, a bool
    ``seq``, non-ASCII and 70,000-byte app names, extra keys, and fields
    at and just past their layout ranges (the largest ``seq``, signed
    descriptor ints).
    """
    golden = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    streams = [(f"replay[{i}]", stream)
               for i, stream in enumerate(golden["replay"]["streams"])]
    return streams + [("edge", golden["edge"]["stream"])]


@pytest.mark.parametrize("name,stream", _golden_streams(),
                         ids=[name for name, _ in _golden_streams()])
def test_binary_frames_match_golden(name, stream):
    # Each stream runs through fresh endpoints: interning is per stream.
    encoder, decoder = WireEncoder("binary"), WireDecoder()
    for i, entry in enumerate(stream):
        frame = encoder.encode(entry["message"])
        assert frame.hex() == entry["frame"], (name, i, entry["message"])
        decoded = decoder.decode(bytes.fromhex(entry["frame"])[4:])
        assert decoded == entry["message"], (name, i)


def test_golden_edge_cases_cover_both_paths():
    """The edge stream exercises fast paths and the generic fallback."""
    (_, edge), = [s for s in _golden_streams() if s[0] == "edge"]
    tags = {bytes.fromhex(entry["frame"])[4] for entry in edge}
    assert {0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86} <= tags


# ---------------------------------------------------------------------------
# The field-level ack packer against the dict encoder it replaced
# ---------------------------------------------------------------------------

_ACK_LAYOUTS = (struct.Struct(">IBBBdH"), struct.Struct(">IBBBdQH"))
_ACK_NAMES = ("inform-ack", "release-ack", "complete-ack", "withdraw-ack")


def _reference_ack_frame(m):
    """An ack's frame as the per-message ack encoder wrote it.

    A frozen copy of the encoder's dict-only ack path from before acks
    were packed field by field; anything it refuses is generic JSON.
    """
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    def is_num(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def fast():
        code = _ACK_NAMES.index(m["type"])
        t, app = m["t"], m["app"]
        if not isinstance(app, str) or not is_num(t):
            raise ValueError
        name = app.encode("utf-8")
        flags, nkeys = 0, 3
        if code == 0:
            authorized = m["authorized"]
            if not isinstance(authorized, bool):
                raise ValueError
            flags, nkeys = (6 if authorized else 2), 4
        if "seq" in m:
            seq = m["seq"]
            if not is_int(seq) or len(m) != nkeys + 1:
                raise ValueError
            layout = _ACK_LAYOUTS[1]
            return layout.pack(layout.size - 4 + len(name), 0x85, code,
                               flags | 1, t, seq, len(name)) + name
        if len(m) != nkeys:
            raise ValueError
        layout = _ACK_LAYOUTS[0]
        return layout.pack(layout.size - 4 + len(name), 0x85, code, flags,
                           t, len(name)) + name

    try:
        return fast()
    except (ValueError, KeyError, struct.error, OverflowError,
            UnicodeEncodeError):
        payload = b"\x80" + canonical_json(m).encode("utf-8")
        return struct.pack(">I", len(payload)) + payload


_NO = object()      #: "key absent" in the ack cases below


def _ack_cases():
    """(op, t, seq, app, authorized) over every subtype and edge field."""
    for op in ("inform", "release", "complete", "withdraw"):
        for seq in (_NO, 0, 7, 2 ** 64 - 1, 2 ** 64, -1, True, None, 3.0):
            for verdict in ((True, False, _NO, None, 1) if op == "inform"
                            else (_NO, True)):
                for t in (0.0, 2.5, 3, True):
                    for app in ("w00", "アプリ", "", 5):
                        yield op, t, seq, app, verdict


def _ack_dict(op, t, seq, app, verdict):
    """The ack message as the daemon built it: type, t, seq, app, verdict."""
    m = {"type": f"{op}-ack", "t": t}
    if seq is not _NO:
        m["seq"] = seq
    m["app"] = app
    if verdict is not _NO:
        m["authorized"] = verdict
    return m


def test_ack_dicts_encode_as_before():
    encoder = WireEncoder("binary")
    for case in _ack_cases():
        m = _ack_dict(*case)
        assert encoder.encode(m) == _reference_ack_frame(m), m


@pytest.mark.parametrize("codec", ["binary", "json"])
def test_field_level_acks_match_the_dict_encoding(codec):
    """``queue_ack`` packs each ack the daemon can send exactly as the
    dict encoder wrote it: binary frames byte-identical to the reference,
    JSON frames those of the canonical message."""
    encoder = WireEncoder(codec)
    checked = 0
    for op, t, seq, app, verdict in _ack_cases():
        # The daemon sends no null seq, and a verdict on inform-acks only.
        if seq is None or (verdict is not _NO) != (op == "inform"):
            continue
        encoder.queue_ack(op, t, None if seq is _NO else seq, app,
                          None if verdict is _NO else verdict)
        m = _ack_dict(op, t, seq, app, verdict)
        expected = (_reference_ack_frame(m) if codec == "binary"
                    else encode_message(m))
        assert encoder.flush() == expected, m
        checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# FrameError: byte offsets out of every truncation path
# ---------------------------------------------------------------------------

def test_sync_read_truncated_payload_carries_offsets():
    a, b = socket.socketpair()
    try:
        payload = canonical_json({"type": "bye"}).encode()
        a.sendall(struct.pack(">I", len(payload)) + payload[:3])
        a.close()
        with pytest.raises(FrameError, match=r"got 7 of 18 frame bytes"):
            FrameReader(b).read_frame()
    finally:
        b.close()


def test_sync_read_truncated_header_carries_offsets():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00")
        a.close()
        with pytest.raises(FrameError, match=r"got 2 of 4 header bytes"):
            FrameReader(b).read_frame()
    finally:
        b.close()


def test_sync_read_clean_eof_is_none():
    a, b = socket.socketpair()
    try:
        write_frame(a, {"type": "bye"})
        a.close()
        reader = FrameReader(b)
        assert reader.read_frame() == {"type": "bye"}
        assert reader.read_frame() is None
    finally:
        b.close()


def test_sync_oversized_frame_is_frame_error():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(FrameError, match="exceeds MAX_FRAME"):
            FrameReader(b).read_frame()
    finally:
        a.close()
        b.close()


def test_frame_error_is_a_protocol_error():
    """Existing `except ProtocolError` sites keep catching frame faults."""
    assert issubclass(FrameError, ProtocolError)


# ---------------------------------------------------------------------------
# FrameReader: buffered reads, coalesced waves
# ---------------------------------------------------------------------------

def test_frame_reader_parses_coalesced_wave_from_buffer():
    a, b = socket.socketpair()
    try:
        enc = WireEncoder("binary")
        wave = b"".join(enc.encode({"type": "grant", "app": f"a{i}",
                                    "t": float(i)}) for i in range(5))
        a.sendall(wave)
        reader = FrameReader(b)
        assert not reader.has_buffered_frame()   # nothing recv'd yet
        for i in range(5):
            msg = reader.read_frame()
            assert msg == {"type": "grant", "app": f"a{i}", "t": float(i)}
            # After one recv the whole wave is in the buffer.
            assert reader.has_buffered_frame() == (i < 4)
        a.close()
        assert reader.read_frame() is None
    finally:
        b.close()


def test_frame_reader_mid_frame_eof_carries_offsets():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", 100) + b"partial")
        a.close()
        reader = FrameReader(b)
        with pytest.raises(FrameError, match=r"got 11 of 104"):
            reader.read_frame()
    finally:
        b.close()


def test_frame_reader_mixed_codecs_one_stream():
    """Payloads are self-describing: one reader handles both codecs."""
    a, b = socket.socketpair()
    try:
        enc_b, enc_j = WireEncoder("binary"), WireEncoder("json")
        msg = {"type": "release", "app": "α", "remaining": None}
        a.sendall(enc_b.encode(msg) + enc_j.encode(msg) + enc_b.encode(msg))
        reader = FrameReader(b)
        assert [reader.read_frame() for _ in range(3)] == [msg, msg, msg]
    finally:
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# FrameSplitter: any chunking of a stream splits into the same frames
# ---------------------------------------------------------------------------

def _replay_stream(codec):
    """A recorded replay's client frames: (stream bytes, frame offsets)."""
    from repro.experiments.scenarios import build_scenario
    from repro.service.loadgen import _entry_message
    from repro.service.trace import record_trace

    spec, = build_scenario("service-many-writers", napps=16, nservers=4,
                           phases=3, seed=5, strategy="dynamic")
    trace, _result = record_trace(spec)
    encoder = WireEncoder(codec)
    for entry in trace.entries:
        message = _entry_message(entry)
        message.update(seq=entry["seq"], t=entry["t"])
        encoder.queue(message)
    stream = encoder.flush()
    offsets, pos = [], 0
    while pos < len(stream):
        offsets.append(pos)
        (length,) = struct.unpack_from(">I", stream, pos)
        pos += 4 + length
    assert pos == len(stream) and len(offsets) == len(trace.entries)
    return stream, offsets


def _split_decode(chunks):
    splitter, decoder, out = FrameSplitter(), WireDecoder(), []
    for chunk in chunks:
        splitter.feed(chunk)
        decoder.decode_frames(splitter, out)
    assert splitter.buffered == 0 and splitter.truncation() is None
    return out


def _cut(stream, cuts):
    bounds = [0] + sorted(set(cuts) - {0, len(stream)}) + [len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_splitter_any_chunking_decodes_like_whole_buffer(codec):
    stream, offsets = _replay_stream(codec)
    whole = _split_decode([stream])
    assert len(whole) == len(offsets) > 64
    assert not any(isinstance(m, ProtocolError) for m in whole)
    chunkings = {
        "1-byte": [stream[i:i + 1] for i in range(len(stream))],
        "mid-header": _cut(stream, [o + 2 for o in offsets]),
        "mid-payload": _cut(stream, [o + 4 + (struct.unpack_from(
            ">I", stream, o)[0] // 2) for o in offsets]),
        "64-frames": _cut(stream, offsets[::64]),
    }
    for name, chunks in chunkings.items():
        assert _split_decode(chunks) == whole, name


def test_splitter_returns_payloads_only_when_complete():
    frame = WireEncoder("json").encode({"type": "bye"})
    splitter = FrameSplitter()
    splitter.feed(frame[:3])
    assert splitter.next() is None
    assert splitter.need() == (4, "header")
    splitter.feed(frame[3:6])
    assert splitter.next() is None
    assert splitter.need() == (len(frame), "frame")
    error = splitter.truncation()
    assert isinstance(error, FrameError)
    assert f"got 6 of {len(frame)} frame bytes" in str(error)
    splitter.feed(frame[6:] + frame)
    assert splitter.next() == frame[4:]
    assert splitter.next() == frame[4:]
    assert splitter.next() is None and splitter.buffered == 0


def test_splitter_oversized_announcement_is_frame_error():
    splitter = FrameSplitter()
    splitter.feed(struct.pack(">I", MAX_FRAME + 1))
    with pytest.raises(FrameError, match="exceeds MAX_FRAME"):
        splitter.next()


def test_decode_frames_keeps_stream_order_up_to_a_bad_frame():
    """Frames before a bad one are delivered; the error comes last."""
    encoder = WireEncoder("json")
    good = encoder.encode({"type": "bye"})
    splitter, out = FrameSplitter(), []
    splitter.feed(good + struct.pack(">I", 3) + b"{x}" + good)
    WireDecoder().decode_frames(splitter, out)
    assert out[0] == {"type": "bye"}
    assert isinstance(out[1], ProtocolError) and len(out) == 2


# ---------------------------------------------------------------------------
# Canonical JSON: one policy, two call sites
# ---------------------------------------------------------------------------

def test_encode_message_uses_canonical_json():
    msg = {"type": "inform", "t": 1 / 3, "descriptor": _desc_dict()}
    assert encode_message(msg)[4:] == canonical_json(msg).encode("utf-8")


def test_canonical_json_float_policy_round_trips():
    for value in _FLOATS:
        assert json.loads(canonical_json(value)) == value


# ---------------------------------------------------------------------------
# Hellos that still propose a codec
# ---------------------------------------------------------------------------

def _service_spec():
    from repro.experiments.scenarios import build_scenario
    return build_scenario("service-many-writers", napps=4, nservers=4,
                          phases=1, seed=5, strategy="fcfs")[0]


@pytest.mark.parametrize("proposal", [None, "json", "binary", "msgpack"])
def test_hello_codec_proposal_is_ignored(proposal):
    """Clients from before the binary-only service plane put a ``codec``
    in their hello and send JSON frames: they are admitted, and the daemon
    answers a JSON welcome, then binary acks that WireDecoder decodes."""
    from repro.service.server import CoordinationService

    async def go():
        service = CoordinationService(_service_spec())
        await service.start()
        reader, writer = await asyncio.open_connection(*service.address)
        hello = {"type": "hello", "apps": ["w00"], "mode": "live",
                 "spec_sha": None}
        if proposal is not None:
            hello["codec"] = proposal
        descriptor = AccessDescriptor(app="w00", nprocs=4, total_bytes=1e6,
                                      t_alone=1.0)
        writer.write(encode_message(hello) + encode_message(
            {"type": "inform", "descriptor": descriptor_to_dict(descriptor)}))
        splitter, payloads = FrameSplitter(), []
        try:
            while len(payloads) < 2:
                chunk = await reader.read(1 << 16)
                assert chunk, "the daemon closed the connection"
                splitter.feed(chunk)
                payloads.extend(iter(splitter.next, None))
        finally:
            writer.close()
            await service.close()
        welcome, ack = payloads
        assert decode_message(welcome)["type"] == "welcome"
        assert "codec" not in decode_message(welcome)
        assert ack[0] == 0x85                          # the binary ack tag
        assert WireDecoder().decode(ack) == {
            "type": "inform-ack", "t": 0.0, "app": "w00", "authorized": True}

    asyncio.run(asyncio.wait_for(go(), _TIMEOUT))


# ---------------------------------------------------------------------------
# Decision-log bit-identity: binary against the JSON oracle
# ---------------------------------------------------------------------------

def _substitute_json_oracle(monkeypatch):
    """Build the service plane's encoders as JSON, on both ends."""
    from repro.service import client, server

    def oracle(_codec, perf=None):
        return WireEncoder("json", perf=perf)

    monkeypatch.setattr(server, "WireEncoder", oracle)
    monkeypatch.setattr(client, "WireEncoder", oracle)


def _replay(pipeline, spec=None):
    from repro.service.loadgen import run_service_benchmark
    from repro.service.trace import record_trace

    spec = spec or _service_spec()

    async def go():
        trace, result = record_trace(spec)
        stats, service = await run_service_benchmark(
            spec, 3,
            trace_and_reference=(trace, result.decisions,
                                 float(result.perf["wall_seconds"])),
            pipeline=pipeline)
        return result, stats, service

    return asyncio.run(asyncio.wait_for(go(), _TIMEOUT))


@pytest.mark.parametrize("pipeline", [1, 16])
def test_service_replay_bit_identical_across_codecs(pipeline, monkeypatch):
    logs = {}
    for codec in ("json", "binary"):
        with monkeypatch.context() as patch:
            if codec == "json":
                _substitute_json_oracle(patch)
            result, stats, service = _replay(pipeline)
        assert stats.equivalent, f"{codec} digest diverged"
        logs[codec] = decisions_to_json(service.decision_log)
        assert logs[codec] == decisions_to_json(result.decisions)
        # The daemon's off-schema answers (bye-ack, the digest) take the
        # binary generic path, so they show which encoder served.
        generic = service.metrics_snapshot().get("wire_generic_frames", 0)
        assert (generic > 0) == (codec == "binary"), (codec, generic)
    assert logs["binary"] == logs["json"]


def test_json_oracle_daemon_sends_only_json(monkeypatch):
    """With the JSON oracle substituted, every frame the daemon writes —
    each ack and pushed grant included — has a JSON payload."""
    from repro.service import client, server

    written = []

    class Recording(WireEncoder):
        def flush(self):
            data = super().flush()
            written.append(data)
            return data

    monkeypatch.setattr(server, "WireEncoder",
                        lambda _codec, perf=None: Recording("json", perf))
    monkeypatch.setattr(client, "WireEncoder",
                        lambda _codec, perf=None: WireEncoder("json", perf))
    # Contended enough that the daemon pushes grants.
    from repro.experiments.scenarios import build_scenario
    spec, = build_scenario("service-many-writers", napps=8, nservers=4,
                           phases=2, seed=5, strategy="fcfs")
    for pipeline in (1, 16):
        result, stats, service = _replay(pipeline, spec)
        assert stats.equivalent
        assert service.metrics_snapshot()["service_grants_pushed"] > 0
    splitter, types = FrameSplitter(), {}
    splitter.feed(b"".join(written))
    for payload in iter(splitter.next, None):
        assert payload[0] < 0x80, payload[:16]
        mtype = decode_message(payload)["type"]
        types[mtype] = types.get(mtype, 0) + 1
    assert splitter.buffered == 0
    assert types.get("grant", 0) > 0, types
    assert sum(types.get(name, 0) for name in _ACK_NAMES) == 2 * stats.exchanges


def test_lockstep_replay_splits_each_frame_with_one_next(monkeypatch):
    """Every ``FrameSplitter.next`` call of a lockstep replay, on both
    ends, returns a frame: a chunk is not probed again once it is used
    up."""
    calls, frames = [0], [0]
    split = FrameSplitter.next

    def counted(splitter):
        calls[0] += 1
        payload = split(splitter)
        frames[0] += payload is not None
        return payload

    monkeypatch.setattr(FrameSplitter, "next", counted)
    result, stats, service = _replay(1)
    assert stats.equivalent
    # Each exchange is a request and an ack, each split once.
    assert frames[0] > 2 * stats.exchanges
    assert calls[0] == frames[0]


def test_run_service_benchmark_refuses_other_codecs():
    from repro.service.loadgen import run_service_benchmark

    with pytest.raises(ValueError, match="encodes binary"):
        asyncio.run(run_service_benchmark(_service_spec(), 1, codec="json"))


def test_service_metrics_expose_wire_counters():
    result, stats, service = _replay(16)
    snap = service.metrics_snapshot()
    assert snap.get("wire_frames_encoded", 0) > 0
    assert snap.get("wire_frames_decoded", 0) > 0
    assert snap.get("wire_bytes_encoded", 0) > 0
    assert snap.get("wire_flushes", 0) > 0
    # Descriptors flow client->server, so interning counters are bumped
    # by the *client's* encoder — the daemon side only decodes them.
    assert snap.get("wire_frames_decoded", 0) >= stats.exchanges


def _drive_shards(workers, seed=11):
    """The randomized shard trace from test_process_shards."""
    import numpy as np

    rng = np.random.default_rng(seed)
    napps, nparts = 12, 2
    starts = rng.uniform(0.0, 3.0, size=napps)
    holds = rng.uniform(0.1, 1.0, size=napps)
    phases = rng.integers(1, 4, size=napps)
    parts = rng.integers(0, nparts, size=napps)
    sim = Simulator()
    perf = PerfCounters()
    router = ShardRouter(sim, nparts, "dynamic", grant_latency=1e-3,
                         workers=workers, perf=perf)

    def app(i):
        name = f"app{i:02d}"
        yield sim.timeout(float(starts[i]))
        for _ in range(int(phases[i])):
            d = AccessDescriptor(app=name, nprocs=int(rng.integers(1, 64)),
                                 total_bytes=1e6,
                                 t_alone=float(holds[i]),
                                 partitions=(int(parts[i]),))
            ok = yield router.submit_inform(d)
            if not ok:
                yield router.authorization_event(name)
            yield sim.timeout(float(holds[i]) / 2)
            router.submit_release(name, d.total_bytes / 2)
            yield sim.timeout(float(holds[i]) / 2)
            router.on_complete(name)

    for i in range(napps):
        sim.process(app(i))
    sim.run()
    router.close()
    return decisions_to_json(router.decision_log), sim.now, perf


def test_process_shards_speak_json_whatever_the_env():
    """Process shards speak JSON whatever the service plane encodes, and
    their log equals the inline log."""
    log_inline, end_inline, _ = _drive_shards("inline")
    log_proc, end_proc, perf = _drive_shards("process")
    assert log_proc == log_inline
    assert end_proc == end_inline
    # Every frame was metered, and none took a binary-only path.
    assert perf.get("wire_frames_encoded") > 0
    assert perf.get("wire_flushes") > 0
    for counter in ("wire_desc_interned", "wire_desc_refs",
                    "wire_generic_frames"):
        assert perf.get(counter) == 0, counter
