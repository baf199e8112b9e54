"""Direct tests of the paper's §III-C API on a CalciomSession.

The six calls — Prepare, Inform, Check, Wait, Release, Complete — are the
paper's public contract; these tests drive them by hand (no ADIO in the
way) and verify the documented semantics:

* "Prepare adds more information about the future I/O accesses ...
  a call to Complete() will later unstack information";
* "Inform sends the information to the set of running applications ...
  suggestions of authorizations are eventually sent back";
* "Check checks whether the application is allowed to access";
* "Wait explicitly waits for all the other applications to agree";
* "Release ends a step in the I/O access ... reevaluates the global
  strategy ... A new call to Inform is necessary before the next access."
"""

import pytest

from repro.core import AccessState, CalciomRuntime
from repro.mpisim import MPIInfo
from repro.platforms import Platform, PlatformConfig


def setup_two_sessions(strategy="fcfs"):
    platform = Platform(PlatformConfig(
        name="api", nservers=1, disk_bandwidth=100.0,
        per_core_bandwidth=10.0, stripe_size=100, latency=1e-6,
    ))
    runtime = CalciomRuntime(platform, strategy=strategy)
    platform.add_client("a", 10)
    platform.add_client("b", 10)
    sa = runtime.session("a", "a", 10)
    sb = runtime.session("b", "b", 10)
    return platform, runtime, sa, sb


def test_prepare_inform_check_flow():
    platform, runtime, sa, sb = setup_two_sessions()
    log = []

    def app_a():
        sa.prepare(MPIInfo(total_bytes=1000, nprocs=10, rounds=2))
        authorized = yield from sa.inform()
        log.append(("a-informed", authorized, sa.check()))
        yield platform.sim.timeout(5.0)  # pretend to do I/O
        yield from sa.release()
        sa.complete()
        log.append(("a-done", platform.sim.now))

    def app_b():
        yield platform.sim.timeout(1.0)
        sb.prepare(MPIInfo(total_bytes=500, nprocs=10, rounds=1))
        authorized = yield from sb.inform()
        log.append(("b-informed", authorized, sb.check()))
        if not authorized:
            yield from sb.wait()
        log.append(("b-authorized", platform.sim.now))
        yield from sb.release()
        sb.complete()

    platform.sim.process(app_a())
    platform.sim.process(app_b())
    platform.sim.run()
    assert log[0][0] == "a-informed" and log[0][1] is True
    assert log[1][0] == "b-informed" and log[1][1] is False
    # b was authorized only once a completed (~t=5).
    b_auth = [entry for entry in log if entry[0] == "b-authorized"][0]
    assert b_auth[1] >= 5.0


def test_check_is_nonblocking_and_truthful():
    platform, runtime, sa, sb = setup_two_sessions()

    def body():
        sa.prepare(MPIInfo(total_bytes=100, nprocs=10))
        yield from sa.inform()
        assert sa.check() is True
        sb.prepare(MPIInfo(total_bytes=100, nprocs=10))
        yield from sb.inform()
        assert sb.check() is False  # a holds the machine under FCFS
        sa.complete()
        yield platform.sim.timeout(0.01)  # grant latency
        assert sb.check() is True
        sb.complete()

    p = platform.sim.process(body())
    platform.sim.run(until=p)


def test_wait_returns_immediately_when_authorized():
    platform, runtime, sa, sb = setup_two_sessions()

    def body():
        sa.prepare(MPIInfo(total_bytes=100, nprocs=10))
        yield from sa.inform()
        t0 = platform.sim.now
        yield from sa.wait()
        assert platform.sim.now == t0
        sa.complete()

    p = platform.sim.process(body())
    platform.sim.run(until=p)


def test_release_refreshes_remaining_knowledge():
    platform, runtime, sa, sb = setup_two_sessions()

    def body():
        sa.prepare(MPIInfo(total_bytes=1000, nprocs=10, rounds=4))
        yield from sa.inform()
        desc = runtime.coordinator.descriptor_of("a")
        assert desc.remaining_bytes == 1000
        yield from sa.end_access()  # one round done: 250 bytes
        assert desc.remaining_bytes == pytest.approx(750.0)
        sa.complete()

    p = platform.sim.process(body())
    platform.sim.run(until=p)


def test_complete_ends_access_and_descriptor():
    platform, runtime, sa, sb = setup_two_sessions()

    def body():
        sa.prepare(MPIInfo(total_bytes=100, nprocs=10))
        yield from sa.inform()
        sa.complete()
        assert runtime.coordinator.state_of("a") is AccessState.IDLE
        assert runtime.coordinator.descriptor_of("a") is None
        # A new access needs a fresh Prepare + Inform.
        sa.prepare(MPIInfo(total_bytes=200, nprocs=10))
        authorized = yield from sa.inform()
        assert authorized
        sa.complete()

    p = platform.sim.process(body())
    platform.sim.run(until=p)


def test_inform_costs_coordination_latency():
    platform, runtime, sa, sb = setup_two_sessions()

    def body():
        sa.prepare(MPIInfo(total_bytes=100, nprocs=10))
        t0 = platform.sim.now
        yield from sa.inform()
        assert platform.sim.now > t0  # messages are not free
        sa.complete()

    p = platform.sim.process(body())
    platform.sim.run(until=p)


def test_nested_prepare_complete_balance():
    """ADIO inside an application phase: inner pairs must not end the
    outer access."""
    platform, runtime, sa, sb = setup_two_sessions()

    def body():
        sa.prepare(MPIInfo(total_bytes=1000, nprocs=10, files=2))
        yield from sa.inform()
        sa.prepare(MPIInfo(total_bytes=500, nprocs=10))  # file 1 (nested)
        sa.complete()
        assert runtime.coordinator.state_of("a") is AccessState.ACTIVE
        sa.prepare(MPIInfo(total_bytes=500, nprocs=10))  # file 2 (nested)
        sa.complete()
        assert runtime.coordinator.state_of("a") is AccessState.ACTIVE
        sa.complete()  # outer
        assert runtime.coordinator.state_of("a") is AccessState.IDLE

    p = platform.sim.process(body())
    platform.sim.run(until=p)
