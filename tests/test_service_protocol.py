"""Wire-protocol contract tests: framing, schemas, serialization exactness.

The service's correctness story rests on the protocol layer being *exact*:
length-prefixed frames must round-trip unmodified, descriptor snapshots
must restore every field bit for bit (including the zero-``remaining_bytes``
coercion hazard), and the canonical decision-log serialization must be a
deterministic string — that string's equality is the definition of
"bit-identical decision logs" the replay equivalence tests rely on.
"""

import json
import math

import pytest

from repro.core.arbiter import DecisionRecord
from repro.core.metrics import AccessDescriptor
from repro.core.strategies import Action
from repro.experiments.scenarios import build_scenario
from repro.service.protocol import (
    MAX_FRAME,
    FrameSplitter,
    ProtocolError,
    WireDecoder,
    decision_to_dict,
    decisions_to_json,
    decode_message,
    descriptor_from_dict,
    descriptor_to_dict,
    encode_message,
)
from repro.service.trace import CoordinationTrace, spec_fingerprint


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def test_frame_round_trip():
    message = {"type": "inform", "seq": 17, "t": 30.000123,
               "descriptor": {"app": "app003", "total_bytes": 4.0e6}}
    frame = encode_message(message)
    assert frame[:4] == len(frame[4:]).to_bytes(4, "big")
    assert decode_message(frame[4:]) == message
    splitter = FrameSplitter()
    splitter.feed(frame)
    assert splitter.next() == frame[4:]


def test_encode_rejects_oversized_payload():
    with pytest.raises(ProtocolError):
        encode_message({"type": "blob", "data": "x" * MAX_FRAME})


def test_decode_rejects_untyped_and_undecodable():
    with pytest.raises(ProtocolError):
        decode_message(b"[1, 2, 3]")          # not an object
    with pytest.raises(ProtocolError):
        decode_message(b'{"seq": 1}')         # no "type"
    with pytest.raises(ProtocolError):
        decode_message(b"\xff\xfe not json")  # undecodable


def test_multiple_frames_stream_in_order():
    frames = [{"type": "a", "n": i} for i in range(5)]
    data = b"".join(encode_message(f) for f in frames)
    splitter, out = FrameSplitter(), []
    splitter.feed(data)
    WireDecoder().decode_frames(splitter, out)
    assert out == frames
    assert splitter.truncation() is None


# ---------------------------------------------------------------------------
# Descriptor snapshots
# ---------------------------------------------------------------------------

def _descriptor(**overrides) -> AccessDescriptor:
    kwargs = dict(app="app007", nprocs=64, total_bytes=4_000_000.0,
                  t_alone=12.5, files=2, rounds=3, partitions=(0, 1))
    kwargs.update(overrides)
    return AccessDescriptor(**kwargs)


def test_descriptor_round_trip_exact():
    desc = _descriptor(total_bytes=0.1 + 0.2, t_alone=1.0 / 3.0)
    desc.remaining_bytes = 123456.789e-3
    desc.access_started = 30.000000000001
    back = descriptor_from_dict(descriptor_to_dict(desc))
    for name in ("app", "nprocs", "total_bytes", "t_alone",
                 "remaining_bytes", "access_started", "files", "rounds",
                 "partitions"):
        assert getattr(back, name) == getattr(desc, name), name


def test_descriptor_round_trip_survives_json():
    """The wire adds a JSON hop; floats must still be bitwise-exact."""
    desc = _descriptor(total_bytes=math.pi * 1e6, t_alone=math.e)
    desc.remaining_bytes = desc.total_bytes / 7.0
    wired = json.loads(json.dumps(descriptor_to_dict(desc)))
    back = descriptor_from_dict(wired)
    assert back.total_bytes == desc.total_bytes
    assert back.t_alone == desc.t_alone
    assert back.remaining_bytes == desc.remaining_bytes


def test_descriptor_drained_snapshot_not_recoerced():
    """``__post_init__`` turns 0.0 remaining into total; a genuinely
    drained snapshot must survive the round trip as 0.0."""
    desc = _descriptor()
    desc.remaining_bytes = 0.0
    back = descriptor_from_dict(descriptor_to_dict(desc))
    assert back.remaining_bytes == 0.0


def test_descriptor_snapshot_is_a_copy():
    desc = _descriptor()
    snap = descriptor_to_dict(desc)
    desc.remaining_bytes = 1.0
    desc.access_started = 99.0
    assert snap["remaining_bytes"] == desc.total_bytes
    assert snap["access_started"] is None


def test_descriptor_from_dict_rejects_garbage():
    with pytest.raises(ProtocolError):
        descriptor_from_dict({"app": "x"})  # missing required fields
    with pytest.raises(ProtocolError):
        descriptor_from_dict({"app": "x", "nprocs": "many",
                              "total_bytes": 1.0, "t_alone": 1.0})


# ---------------------------------------------------------------------------
# Decision-log canonical serialization
# ---------------------------------------------------------------------------

def _record(time=30.25, app="app001", action=Action.WAIT):
    return DecisionRecord(time=time, app=app, action=action,
                          active=["app000"], waiting=["app001"],
                          costs={"t_wait": 1.5, "t_interfere": 2.25})


def test_decision_to_dict_uses_plain_json_types():
    entry = decision_to_dict(_record())
    assert entry["action"] == "wait"
    assert json.loads(json.dumps(entry)) == entry


def test_decisions_to_json_is_canonical():
    log = [_record(), _record(time=31.0, app="app002", action=Action.GO)]
    text = decisions_to_json(log)
    # Deterministic: same log, same string; compact, key-sorted.
    assert text == decisions_to_json(list(log))
    assert ": " not in text and '"action"' in text
    parsed = json.loads(text)
    assert [e["app"] for e in parsed] == ["app001", "app002"]


def test_decisions_to_json_distinguishes_logs():
    base = decisions_to_json([_record()])
    assert decisions_to_json([_record(time=30.250000001)]) != base
    assert decisions_to_json([_record(action=Action.GO)]) != base


# ---------------------------------------------------------------------------
# Traces and spec fingerprints
# ---------------------------------------------------------------------------

def test_trace_round_trip_and_views():
    trace = CoordinationTrace(meta={"spec_sha": "abc"})
    trace.add("inform", "a", 0.0, descriptor={"app": "a"})
    trace.add("inform", "b", 0.5, descriptor={"app": "b"})
    trace.add("release", "a", 1.0, remaining=None)
    trace.add("complete", "a", 1.0)
    assert trace.apps == ["a", "b"]
    assert [e["seq"] for e in trace.entries] == [0, 1, 2, 3]
    assert [e["seq"] for e in trace.entries_for(["a"])] == [0, 2, 3]
    back = CoordinationTrace.from_json(trace.to_json())
    assert back.to_dict() == trace.to_dict()


def test_spec_fingerprint_stable_and_discriminating():
    spec = build_scenario("service-many-writers", napps=4, nservers=2,
                          phases=1, seed=3, strategy="fcfs")[0]
    other = build_scenario("service-many-writers", napps=4, nservers=2,
                           phases=1, seed=4, strategy="fcfs")[0]
    assert spec_fingerprint(spec) == spec_fingerprint(spec)
    assert spec_fingerprint(spec) != spec_fingerprint(other)
    assert len(spec_fingerprint(spec)) == 16
