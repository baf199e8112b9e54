"""Daemon behaviour tests: admission control, crash semantics, backpressure,
and the ops (healthz/metrics/drain) HTTP contract.

Each test hosts a real :class:`CoordinationService` on an ephemeral
localhost port inside ``asyncio.run`` (the repo takes no async test
dependencies) and talks to it over genuine sockets.
"""

import asyncio
import json
import math
import socket

import pytest

from repro.core.metrics import AccessDescriptor
from repro.experiments.scenarios import build_scenario
from repro.service.client import AdmissionRejected, ServiceClient
from repro.service.loadgen import _entry_message
from repro.service.protocol import (
    FrameSplitter, WireDecoder, WireEncoder, decisions_to_json,
    descriptor_to_dict, encode_message, read_message, write_message,
)
from repro.service.server import CoordinationService, ServiceConfig
from repro.service.trace import record_trace, spec_fingerprint

_TIMEOUT = 30.0


def _spec(napps=4, phases=1, strategy="fcfs", seed=11):
    return build_scenario("service-many-writers", napps=napps, nservers=4,
                          phases=phases, seed=seed, strategy=strategy)[0]


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, _TIMEOUT))


async def _start(spec=None, **config) -> CoordinationService:
    service = CoordinationService(spec or _spec(), ServiceConfig(**config))
    await service.start()
    return service


async def _eventually(predicate, timeout=5.0) -> bool:
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return predicate()


def _descriptor(app: str) -> AccessDescriptor:
    return AccessDescriptor(app=app, nprocs=16, total_bytes=1_000_000.0,
                            t_alone=5.0)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_admission_at_capacity():
    async def go():
        service = await _start(max_sessions=2)
        host, port = service.address
        first = await ServiceClient.connect(host, port, ["a", "b"])
        try:
            with pytest.raises(AdmissionRejected) as err:
                await ServiceClient.connect(host, port, ["c"])
            assert err.value.reason == "at-capacity"
            assert service.perf.as_dict()["service_rejections"] == 1
        finally:
            await first.close()
            await service.close()

    _run(go())


def test_admission_rejects_while_draining():
    async def go():
        service = await _start()
        host, port = service.address
        # Flag-only: the listener is still up, so the rejection (not a
        # connect error) is what a racing client observes.
        service.draining = True
        try:
            with pytest.raises(AdmissionRejected) as err:
                await ServiceClient.connect(host, port, ["a"])
            assert err.value.reason == "draining"
        finally:
            await service.close()

    _run(go())


def test_admission_duplicate_app_and_empty_hello():
    async def go():
        service = await _start()
        host, port = service.address
        first = await ServiceClient.connect(host, port, ["a"])
        try:
            with pytest.raises(AdmissionRejected) as err:
                await ServiceClient.connect(host, port, ["b", "a"])
            assert err.value.reason == "duplicate-app"
            with pytest.raises(AdmissionRejected) as err:
                await ServiceClient.connect(host, port, [])
            assert "no apps" in err.value.reason
        finally:
            await first.close()
            await service.close()

    _run(go())


def test_admission_spec_fingerprint():
    async def go():
        spec = _spec()
        sha = spec_fingerprint(spec)
        service = await _start(spec=spec, spec_sha=sha)
        host, port = service.address
        try:
            with pytest.raises(AdmissionRejected) as err:
                await ServiceClient.connect(host, port, ["a"],
                                            spec_sha="f" * 16)
            assert err.value.reason == "spec-mismatch"
            # The right fingerprint — and no fingerprint — are admitted.
            matching = await ServiceClient.connect(host, port, ["a"],
                                                   spec_sha=sha)
            await matching.close()
            agnostic = await ServiceClient.connect(host, port, ["b"])
            await agnostic.close()
        finally:
            await service.close()

    _run(go())


# ---------------------------------------------------------------------------
# Live mode: sessions, grants, crash semantics
# ---------------------------------------------------------------------------

def test_live_session_reaches_arbiter_and_frees_capacity():
    async def go():
        service = await _start()
        host, port = service.address
        client = await ServiceClient.connect(host, port, ["w1"])
        try:
            session = client.session("w1")
            assert await session.inform(_descriptor("w1")) is True
            assert service.coordinator.is_authorized("w1")
            await session.complete()
            assert not service.coordinator.is_authorized("w1")
        finally:
            await client.close()
            await service.close()

    _run(go())


def test_live_grant_pushed_when_predecessor_completes():
    async def go():
        service = await _start()
        host, port = service.address
        client = await ServiceClient.connect(host, port, ["g1", "g2"])
        try:
            ahead, behind = client.session("g1"), client.session("g2")
            assert await ahead.inform(_descriptor("g1")) is True
            # FCFS queues the second writer behind the first.
            assert await behind.inform(_descriptor("g2")) is False
            await ahead.complete()
            grant = await behind.wait_grant(timeout=5.0)
            assert grant["app"] == "g2"
            assert service.coordinator.is_authorized("g2")
            assert service.perf.as_dict()["service_grants_pushed"] == 1
        finally:
            await client.close()
            await service.close()

    _run(go())


def test_live_disconnect_withdraws_sessions():
    async def go():
        service = await _start()
        host, port = service.address
        crasher = await ServiceClient.connect(host, port, ["w1"])
        assert await crasher.session("w1").inform(_descriptor("w1"))
        assert service.coordinator.is_authorized("w1")
        await crasher.abort()  # vanish without bye
        try:
            assert await _eventually(lambda: not service._connections)
            assert not service.coordinator.is_authorized("w1")
            counters = service.perf.as_dict()
            assert counters["service_crash_withdrawals"] == 1
            assert counters["service_abnormal_disconnects"] == 1
        finally:
            await service.close()

    _run(go())


def test_hello_frames_and_eof_in_one_write():
    """A client that sends its hello, an inform and EOF at once is
    admitted, served and then treated as vanished."""
    async def go():
        service = await _start()
        host, port = service.address
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_message({"type": "hello", "apps": ["w1"],
                                     "mode": "live"})
                     + encode_message({
                         "type": "inform",
                         "descriptor": descriptor_to_dict(_descriptor("w1"))}))
        writer.write_eof()
        try:
            assert (await read_message(reader))["type"] == "welcome"
            assert (await read_message(reader))["type"] == "inform-ack"
            assert await _eventually(lambda: not service._connections)
            counters = service.perf.as_dict()
            assert counters["service_crash_withdrawals"] == 1
            assert not service.coordinator.is_authorized("w1")
            assert await service.drain(timeout=5.0) is True
        finally:
            writer.close()
            await service.close()

    _run(go())


def test_clean_bye_keeps_authorizations():
    async def go():
        service = await _start()
        host, port = service.address
        client = await ServiceClient.connect(host, port, ["w1"])
        assert await client.session("w1").inform(_descriptor("w1"))
        await client.close()
        try:
            assert await _eventually(lambda: not service._connections)
            # A clean bye is not a crash: no forced withdrawal.
            assert service.coordinator.is_authorized("w1")
            counters = service.perf.as_dict()
            assert counters.get("service_crash_withdrawals", 0) == 0
            assert counters.get("service_abnormal_disconnects", 0) == 0
        finally:
            await service.close()

    _run(go())


# ---------------------------------------------------------------------------
# Replay sequencing and backpressure
# ---------------------------------------------------------------------------

async def _raw_replay_connection(host, port, apps):
    reader, writer = await asyncio.open_connection(host, port)
    await write_message(writer, {"type": "hello", "apps": apps,
                                 "mode": "replay", "spec_sha": None})
    welcome = await read_message(reader)
    assert welcome["type"] == "welcome"
    return reader, writer


def test_sequencer_buffers_and_backpressures_out_of_order_entries():
    async def go():
        service = await _start(max_pending=2)
        host, port = service.address
        ra, wa = await _raw_replay_connection(host, port, ["a"])
        rb, wb = await _raw_replay_connection(host, port, ["b"])
        try:
            # Connection A races ahead: its entries (seq 1, 2) arrive
            # before the global head (seq 0, owned by connection B).
            await write_message(wa, {
                "type": "inform", "seq": 1, "t": 0.0,
                "descriptor": descriptor_to_dict(_descriptor("a"))})
            await write_message(wa, {
                "type": "complete", "seq": 2, "t": 1.0, "app": "a"})
            counters = service.perf.as_dict
            assert await _eventually(
                lambda: counters().get("service_reordered_frames") == 2)
            assert counters()["service_backpressure_stalls"] == 1
            assert service.health()["pending"] == 2

            # The head arrives; the sequencer drains everything buffered.
            await write_message(wb, {
                "type": "inform", "seq": 0, "t": 0.0,
                "descriptor": descriptor_to_dict(_descriptor("b"))})
            acks_a = [await read_message(ra), await read_message(ra)]
            assert [a["seq"] for a in acks_a] == [1, 2]
            assert acks_a[0]["type"] == "inform-ack"
            ack_b = await read_message(rb)
            assert (ack_b["type"], ack_b["seq"]) == ("inform-ack", 0)
            assert service.health()["next_seq"] == 3

            await write_message(wb, {"type": "complete", "seq": 3,
                                     "t": 1.0, "app": "b"})
            assert (await read_message(rb))["seq"] == 3
        finally:
            for w in (wa, wb):
                w.close()
            await service.close()

    _run(go())


def test_sequencer_rejects_duplicate_seq():
    async def go():
        service = await _start()
        host, port = service.address
        reader, writer = await _raw_replay_connection(host, port, ["a"])
        try:
            inform = {"type": "inform", "seq": 0, "t": 0.0,
                      "descriptor": descriptor_to_dict(_descriptor("a"))}
            await write_message(writer, inform)
            ack = await read_message(reader)
            assert ack["type"] == "inform-ack"
            await write_message(writer, dict(inform))  # replayed seq 0
            error = await read_message(reader)
            assert error["type"] == "error"
            assert "duplicate seq" in error["reason"]
        finally:
            writer.close()
            await service.close()

    _run(go())


def test_peer_that_stops_reading_is_not_read_until_it_drains():
    """A client that sends its whole replay and reads nothing: once the
    daemon's unsent acks pass the transport's high-water mark the daemon
    stops reading that connection, and it resumes when the client drains.
    """
    spec = _spec(napps=16, phases=12)
    trace, result = record_trace(spec)

    async def go():
        service = await _start(spec=spec)
        host, port = service.address
        loop = asyncio.get_running_loop()
        # A bare socket: nothing reads it until the test does.
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await loop.sock_connect(sock, (host, port))
        splitter, decoder, frames = FrameSplitter(), WireDecoder(), []

        async def next_frame():
            while not frames:
                splitter.feed(await loop.sock_recv(sock, 65536))
                decoder.decode_frames(splitter, frames)
            return frames.pop(0)

        await loop.sock_sendall(sock, encode_message({
            "type": "hello", "apps": trace.apps, "mode": "replay",
            "spec_sha": None}))
        assert (await next_frame())["type"] == "welcome"
        conn, = service._connections.values()
        conn.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        conn.transport.set_write_buffer_limits(high=4096)
        encoder = WireEncoder("json")
        for entry in trace.entries:
            message = _entry_message(entry)
            message.update(seq=entry["seq"], t=entry["t"])
            encoder.queue(message)
        sending = asyncio.ensure_future(
            loop.sock_sendall(sock, encoder.flush()))
        try:
            assert await _eventually(lambda: not conn.transport.is_reading())
            assert service.perf.get("service_backpressure_stalls") >= 1
            # Held: nothing more of the client's replay is applied.
            paused_at = service.health()["next_seq"]
            await asyncio.sleep(0.05)
            assert service.health()["next_seq"] == paused_at

            acked = []
            while len(acked) < len(trace.entries):
                frame = await next_frame()
                assert frame["type"] != "error", frame
                if frame["type"] != "grant":
                    acked.append(frame["seq"])
            assert acked == list(range(len(trace.entries)))
            await sending
            assert conn.transport.is_reading()
            await loop.sock_sendall(sock, encode_message({"type": "bye"}))
            while (await next_frame())["type"] != "bye-ack":
                pass
        finally:
            sending.cancel()
            sock.close()
            await service.close()
        assert (decisions_to_json(service.decision_log)
                == decisions_to_json(result.decisions))

    _run(go())


# ---------------------------------------------------------------------------
# Malformed frames: blamed on their sender, never unhandled
# ---------------------------------------------------------------------------

def _catch_loop_errors():
    """Collect what the event loop would log as unhandled exceptions."""
    errors = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: errors.append(context))
    return errors


def test_malformed_out_of_order_frame_is_blamed_on_its_sender():
    async def go():
        unhandled = _catch_loop_errors()
        service = await _start()
        host, port = service.address
        ra, wa = await _raw_replay_connection(host, port, ["a"])
        rb, wb = await _raw_replay_connection(host, port, ["b"])
        try:
            # A races ahead with a malformed seq 1: it must be rejected on
            # A's connection at once, not buffered for B to trip over.
            bad = descriptor_to_dict(_descriptor("a"))
            bad["nprocs"] = "many"
            await write_message(wa, {"type": "inform", "seq": 1, "t": 0.0,
                                     "descriptor": bad})
            error = await asyncio.wait_for(read_message(ra), 5.0)
            assert error["type"] == "error"
            assert "bad descriptor" in error["reason"]
            assert service.health()["pending"] == 0

            # B owns the sequencer head and keeps its session throughout.
            await write_message(wb, {
                "type": "inform", "seq": 0, "t": 0.0,
                "descriptor": descriptor_to_dict(_descriptor("b"))})
            ack = await read_message(rb)
            assert (ack["type"], ack["seq"]) == ("inform-ack", 0)
            await write_message(wb, {"type": "complete", "seq": 1,
                                     "t": 1.0, "app": "b"})
            ack = await read_message(rb)
            assert (ack["type"], ack["seq"]) == ("complete-ack", 1)
            assert service.perf.get("service_protocol_errors") == 1
            assert service.health()["sessions"] == 1
        finally:
            for w in (wa, wb):
                w.close()
            await service.close()
        assert not unhandled

    _run(go())


def _bad_descriptor(**fields):
    data = descriptor_to_dict(_descriptor("a"))
    data.update(fields)
    return data


@pytest.mark.parametrize("frame, reason", [
    ({"type": "inform", "seq": 0, "t": "soon",
      "descriptor": descriptor_to_dict(_descriptor("a"))}, "t must be"),
    ({"type": "inform", "seq": 0, "t": math.inf,
      "descriptor": descriptor_to_dict(_descriptor("a"))}, "t must be"),
    ({"type": "complete", "seq": 0, "t": math.nan, "app": "a"},
     "t must be"),
    ({"type": "release", "seq": 0, "t": 0.0, "app": "a",
      "remaining": "half"}, "remaining must be"),
    ({"type": "release", "seq": 0, "t": 0.0, "app": "a",
      "remaining": -math.inf}, "remaining must be"),
    ({"type": "inform", "seq": 0, "t": 0.0, "descriptor": ["a", 16]},
     "descriptor object"),
    ({"type": "inform", "seq": 0, "t": 0.0, "descriptor": "a"},
     "descriptor object"),
    ({"type": "inform", "seq": 0, "t": 0.0,
      "descriptor": _bad_descriptor(remaining_bytes="lots")},
     "bad descriptor"),
    ({"type": "inform", "seq": 0, "t": 0.0,
      "descriptor": _bad_descriptor(access_started="yesterday")},
     "bad descriptor"),
    ({"type": "inform", "seq": 0, "t": 0.0,
      "descriptor": _bad_descriptor(nprocs=math.inf)}, "bad descriptor"),
    ({"type": "withdraw", "seq": 0, "t": 0.0, "app": ["a"]},
     "needs an app name"),
], ids=["t-text", "t-inf", "t-nan", "remaining-text", "remaining-inf",
        "descriptor-list", "descriptor-str", "descriptor-remaining",
        "descriptor-started", "descriptor-nprocs-inf", "app-list"])
def test_malformed_field_gets_an_error_frame(frame, reason):
    async def go():
        unhandled = _catch_loop_errors()
        service = await _start()
        host, port = service.address
        reader, writer = await _raw_replay_connection(host, port, ["a"])
        try:
            await write_message(writer, frame)
            error = await read_message(reader)
            assert error["type"] == "error"
            assert reason in error["reason"]
            assert service.perf.get("service_protocol_errors") == 1
            assert service.health()["next_seq"] == 0
        finally:
            writer.close()
            await service.close()
        assert not unhandled

    _run(go())


@pytest.mark.parametrize("apps", [5, "a", {"a": 1}])
def test_malformed_hello_apps_gets_an_error_frame(apps):
    async def go():
        unhandled = _catch_loop_errors()
        service = await _start()
        host, port = service.address
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await write_message(writer, {"type": "hello", "apps": apps,
                                         "mode": "replay"})
            error = await read_message(reader)
            assert error["type"] == "error"
            assert "hello.apps must be a list" in error["reason"]
            assert service.perf.get("service_protocol_errors") == 1
            assert service.health()["sessions"] == 0
        finally:
            writer.close()
            await service.close()
        assert not unhandled

    _run(go())


# ---------------------------------------------------------------------------
# The ops surface
# ---------------------------------------------------------------------------

async def _http(host, port, method, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"{method} {path} HTTP/1.0\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def test_ops_healthz_metrics_and_drain():
    async def go():
        service = await _start(ops_port=0)
        host, port = service.ops_address
        coord_host, coord_port = service.address
        client = await ServiceClient.connect(coord_host, coord_port, ["a"])

        status, body = await _http(host, port, "GET", "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["sessions"] == 1

        status, body = await _http(host, port, "GET", "/metrics")
        text = body.decode("utf-8")
        assert status == 200
        assert "# TYPE service_sessions_active gauge" in text
        assert "service_sessions_active 1" in text
        assert "service_draining 0" in text

        status, _ = await _http(host, port, "GET", "/no-such-route")
        assert status == 404

        status, body = await _http(host, port, "POST", "/drain")
        assert status == 202
        await client.close()
        await asyncio.wait_for(service._drained.wait(), 5.0)

        status, body = await _http(host, port, "GET", "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "draining"
        await service.close()

    _run(go())


def _parse_exposition(text):
    """Parse Prometheus text line by line into ``{name: (kind, value)}``.

    Every sample must directly follow its own ``# TYPE`` line, and every
    name must appear exactly once.
    """
    samples = {}
    lines = text.split("\n")
    assert lines[-1] == ""  # the exposition ends with a newline
    lines = lines[:-1]
    assert len(lines) % 2 == 0
    for type_line, sample_line in zip(lines[::2], lines[1::2]):
        marker, keyword, name, kind = type_line.split(" ")
        assert (marker, keyword) == ("#", "TYPE")
        assert kind in ("counter", "gauge")
        sample_name, value = sample_line.split(" ")
        assert sample_name == name
        assert name not in samples
        samples[name] = (kind, value)
    return samples


def test_ops_metrics_exact_values_and_types():
    async def go():
        service = await _start(ops_port=0)
        host, port = service.ops_address
        coord_host, coord_port = service.address
        client = await ServiceClient.connect(coord_host, coord_port, ["a"])
        # A count past six significant digits, and a float counter.
        service.perf.bump("probe_count", 1_234_567)
        service.perf.bump("probe_seconds", 0.1)
        service.perf.bump("probe_seconds", 0.2)
        try:
            status, body = await _http(host, port, "GET", "/metrics")
            assert status == 200
            samples = _parse_exposition(body.decode("utf-8"))
            snapshot = service.metrics_snapshot()
            gauges = service.live_gauges()
        finally:
            await client.close()
            await service.close()

        assert set(samples) == set(snapshot)
        assert samples["probe_count"] == ("counter", "1234567")
        assert samples["probe_seconds"] == ("counter", repr(0.1 + 0.2))
        assert samples["service_sessions_active"] == ("gauge", "1")
        assert samples["service_draining"] == ("gauge", "0")
        for name, (kind, value) in samples.items():
            assert kind == ("gauge" if name in gauges else "counter")
            expected = snapshot[name]
            if isinstance(expected, int):
                assert int(value) == expected
            else:
                assert float(value) == expected

    _run(go())


def test_drain_times_out_on_stuck_connection():
    async def go():
        service = await _start()
        host, port = service.address
        stuck = await ServiceClient.connect(host, port, ["a"])
        try:
            clean = await service.drain(timeout=0.2)
            assert clean is False
            assert service._drained.is_set()
        finally:
            await stuck.abort()
            await service.close()

    _run(go())
