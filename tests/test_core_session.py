"""Integration tests: CALCioM sessions + runtime + real applications."""

import pytest

from repro.apps import IORApp, IORConfig
from repro.core import CalciomRuntime
from repro.mpisim import Contiguous, MPIInfo
from repro.platforms import Platform, PlatformConfig
from repro.simcore import SimulationError


def tiny_cfg(**overrides):
    base = dict(name="tiny", nservers=2, disk_bandwidth=100.0,
                per_core_bandwidth=10.0, stripe_size=100, latency=1e-5)
    base.update(overrides)
    return PlatformConfig(**base)


def make_pair(strategy, dt=0.0, nprocs_a=20, nprocs_b=20, nbytes=1000,
              platform_cfg=None, **app_kwargs):
    platform = Platform(platform_cfg or tiny_cfg())
    runtime = CalciomRuntime(platform, strategy=strategy)
    apps = []
    for name, nprocs, start in [("A", nprocs_a, 0.0), ("B", nprocs_b, dt)]:
        cfg = IORConfig(name=name, nprocs=nprocs,
                        pattern=Contiguous(block_size=nbytes),
                        start_time=start, **app_kwargs)
        app = IORApp(platform, cfg)
        session = runtime.session(name, app.client, nprocs, app.comm)
        app.guard = session
        app.adio.guard = session
        apps.append(app)
    return platform, runtime, apps


def test_session_prepare_complete_balance():
    platform = Platform(tiny_cfg())
    runtime = CalciomRuntime(platform, strategy="fcfs")
    platform.add_client("x", 4)
    session = runtime.session("x", "x", 4)
    with pytest.raises(SimulationError):
        session.complete()
    session.prepare(MPIInfo(total_bytes=100, nprocs=4))
    session.complete()


def test_session_inform_requires_prepare():
    platform = Platform(tiny_cfg())
    runtime = CalciomRuntime(platform, strategy="fcfs")
    platform.add_client("x", 4)
    session = runtime.session("x", "x", 4)

    def body():
        yield from session.inform()

    platform.sim.process(body())
    with pytest.raises(SimulationError, match="Prepare"):
        platform.sim.run()


def test_duplicate_session_rejected():
    platform = Platform(tiny_cfg())
    runtime = CalciomRuntime(platform, strategy="fcfs")
    platform.add_client("x", 4)
    runtime.session("x", "x", 4)
    with pytest.raises(SimulationError):
        runtime.session("x", "x", 4)


def test_end_job_withdraws():
    platform = Platform(tiny_cfg())
    runtime = CalciomRuntime(platform, strategy="fcfs")
    platform.add_client("x", 4)
    runtime.session("x", "x", 4)
    runtime.end_job("x")
    assert runtime.sessions() == {}
    with pytest.raises(SimulationError):
        runtime.end_job("x")
    # Name can be reused for a new job.
    platform.add_client("x2", 4)
    runtime.session("x", "x2", 4)


def test_fcfs_serializes_simultaneous_writers():
    platform, runtime, (a, b) = make_pair("fcfs", dt=0.0)
    a.start(); b.start()
    platform.sim.run()
    # One app must have finished its write before the other started writing:
    # total span ~= sum of standalone times, and one app waited.
    waits = [sum(p.wait_time for p in app.phases) for app in (a, b)]
    assert max(waits) > 0.9 * min(a.phases[0].duration, b.phases[0].duration) / 2
    # The second app's phase contains the first's write time.
    t_long = max(a.phases[0].duration, b.phases[0].duration)
    t_short = min(a.phases[0].duration, b.phases[0].duration)
    assert t_long > 1.5 * t_short


def test_interfere_strategy_shares():
    platform, runtime, (a, b) = make_pair("interfere", dt=0.0)
    a.start(); b.start()
    platform.sim.run()
    # Both see roughly the doubled time; neither waits.
    assert sum(p.wait_time for p in a.phases) < 0.01
    assert sum(p.wait_time for p in b.phases) < 0.01
    assert a.phases[0].duration == pytest.approx(b.phases[0].duration, rel=0.1)


def test_interrupt_lets_second_app_through():
    # A is long (big write), B short, arriving mid-A.
    platform = Platform(tiny_cfg())
    runtime = CalciomRuntime(platform, strategy="interrupt")
    cfg_a = IORConfig(name="A", nprocs=20, pattern=Contiguous(block_size=10000),
                      grain="round", cb_buffer_size=200)
    cfg_b = IORConfig(name="B", nprocs=20, pattern=Contiguous(block_size=500),
                      start_time=2.0, grain="round", cb_buffer_size=200)
    a = IORApp(platform, cfg_a)
    b = IORApp(platform, cfg_b)
    for app in (a, b):
        s = runtime.session(app.config.name, app.client, app.config.nprocs,
                            app.comm)
        app.guard = s
        app.adio.guard = s
    a.start(); b.start()
    platform.sim.run()
    t_b_alone = 20 * 500 / 200.0  # 10000 B at 200 B/s (client-bound)
    # B barely suffers; A absorbs the interruption.
    assert b.phases[0].duration < 2.5 * t_b_alone
    assert sum(p.wait_time for p in a.phases) > 0


def test_coordination_message_accounting():
    platform, runtime, (a, b) = make_pair("fcfs", dt=0.0)
    a.start(); b.start()
    platform.sim.run()
    sessions = runtime.sessions()
    assert sessions["A"].coordination_messages > 0
    assert sessions["B"].coordination_messages > 0


def test_decision_log_populated():
    platform, runtime, (a, b) = make_pair("dynamic", dt=0.0)
    a.start(); b.start()
    platform.sim.run()
    assert len(runtime.decision_log) >= 2
    apps_seen = {d.app for d in runtime.decision_log}
    assert apps_seen == {"A", "B"}


def test_strategy_property_exposed():
    platform = Platform(tiny_cfg())
    runtime = CalciomRuntime(platform, strategy="fcfs")
    assert runtime.strategy.name == "fcfs"


def test_total_wait_time_tracked_on_session():
    platform, runtime, (a, b) = make_pair("fcfs", dt=0.0)
    a.start(); b.start()
    platform.sim.run()
    sessions = runtime.sessions()
    total_wait = (sessions["A"].total_wait_time
                  + sessions["B"].total_wait_time)
    assert total_wait > 0
