"""Sharded coordination: routing, cross-shard protocol, and equivalence.

Three layers of guarantees:

* **Transparency** — an unsharded inline runtime talks to a plain
  :class:`Arbiter`, and a single-shard :class:`ShardRouter` (which runs
  the general routing path) must stay decision-log- and
  completion-time-identical to it on randomized workloads and committed
  figure scenarios.
* **Partitioned platforms** — server groups, per-partition file systems,
  stable path routing, and partition-aware workload placement.
* **Cross-shard protocol** — the ordered-lock two-phase grant: span
  accesses hold every involved shard, survive per-shard preemption, and
  clean up when withdrawn mid-acquisition.
"""

import numpy as np
import pytest

from repro.core import (
    AccessDescriptor, AccessState, Arbiter, CalciomRuntime, ShardRouter,
)
from repro.experiments import (
    ExperimentEngine, ExperimentSpec, WorkloadSpec, build_scenario,
)
from repro.mpisim import Contiguous
from repro.oracles import unbatched_arbiters
from repro.perf import PerfCounters
from repro.platforms import Platform, PlatformConfig
from repro.simcore import SimulationError, Simulator


def desc(app, nprocs=10, t_alone=5.0, total=1e6, partitions=(0,)):
    return AccessDescriptor(app=app, nprocs=nprocs, total_bytes=total,
                            t_alone=t_alone, partitions=tuple(partitions))


def partitioned_config(npartitions=4, nservers=8, **overrides):
    cfg = PlatformConfig(name=f"part-{npartitions}", nservers=nservers,
                         disk_bandwidth=100e6, per_core_bandwidth=10e6,
                         stripe_size=1 << 20, latency=1e-5,
                         pool_servers=False, npartitions=npartitions)
    return cfg.with_(**overrides) if overrides else cfg


# -- transparency: one shard == the arbiter -----------------------------------

def test_unsharded_inline_runtime_talks_to_its_arbiter():
    """One inline shard gets a plain Arbiter (an UnbatchedArbiter under
    the oracle swap); every other configuration gets a ShardRouter."""
    from repro.oracles import UnbatchedArbiter

    def coordinator(**kwargs):
        platform = Platform(partitioned_config(npartitions=2))
        return CalciomRuntime(platform, strategy="fcfs", **kwargs).coordinator

    assert type(coordinator(shards=1)) is Arbiter
    assert isinstance(coordinator(), ShardRouter)
    with unbatched_arbiters():
        assert type(coordinator(shards=1)) is UnbatchedArbiter
        router = coordinator()
        assert all(type(shard.arbiter) is UnbatchedArbiter
                   for shard in router.shards)
    assert type(coordinator(shards=1)) is Arbiter
    # The process pool starts lazily: building the router spawns nothing.
    process = coordinator(shards=1, workers="process")
    assert isinstance(process, ShardRouter) and process.nshards == 1
    process.close()


def test_randomized_traces_single_shard_equals_arbiter():
    """Random schedules: router(1) and Arbiter must be bit-identical."""
    def drive(sharded, seed):
        rng = np.random.default_rng(seed)
        napps = 24
        starts = rng.uniform(0.0, 3.0, size=napps)
        holds = rng.uniform(0.1, 1.0, size=napps)
        phases = rng.integers(1, 4, size=napps)
        sim = Simulator()
        if sharded:
            coord = ShardRouter(sim, 1, "dynamic", grant_latency=1e-3)
        else:
            coord = Arbiter(sim, "dynamic", grant_latency=1e-3)

        def app(i):
            name = f"app{i:02d}"
            yield sim.timeout(float(starts[i]))
            for _ in range(int(phases[i])):
                d = desc(name, nprocs=int(rng.integers(1, 64)),
                         t_alone=float(holds[i]))
                ok = yield coord.submit_inform(d)
                if not ok:
                    yield coord.authorization_event(name)
                yield sim.timeout(float(holds[i]) / 2)
                coord.submit_release(name, d.total_bytes / 2)
                yield sim.timeout(float(holds[i]) / 2)
                coord.on_complete(name)

        for i in range(napps):
            sim.process(app(i))
        sim.run()
        return list(coord.decision_log), sim.now

    for seed in (3, 11, 2014):
        log_s, end_s = drive(True, seed)
        log_a, end_a = drive(False, seed)
        assert log_s == log_a, f"seed {seed}: decision logs diverged"
        assert end_s == end_a, f"seed {seed}: end times diverged"


@pytest.mark.parametrize("name,kwargs", [
    ("three-way-contention", dict(strategy="dynamic")),
    ("rennes-big-small", dict(dt=2.0, strategy="fcfs")),
    ("many-writers", dict(napps=20, nservers=4, phases=2,
                          strategy="dynamic")),
])
def test_figure_scenarios_shards1_identical(name, kwargs):
    """spec.arbiter={'shards': 1} must not change any committed scenario."""
    engine = ExperimentEngine()
    specs = build_scenario(name, **kwargs)
    spec = specs[0]
    base = engine.run(spec)
    sharded = engine.run(spec.with_(
        arbiter={**spec.arbiter, "shards": 1}))
    assert sharded.decisions == base.decisions
    assert sharded.makespan == base.makespan
    for app, rec in base.records.items():
        assert sharded.records[app].write_times == rec.write_times


def test_sharded_writers_shards1_equals_machine_wide_arbiter():
    """On a *partitioned* machine, shards=1 is the single-arbiter baseline
    and must serialize exactly like one machine-wide decision point."""
    engine = ExperimentEngine()
    spec, = build_scenario("sharded-writers", napps=16, npartitions=4,
                           nservers=8, phases=2, strategy="fcfs", shards=1)
    result = engine.run(spec)
    # One arbiter: no two applications are ever authorized concurrently
    # under FCFS, so every grant happens against an empty active set.
    assert all(len(r.active) == 0 or r.action.name != "GO"
               for r in result.decisions)
    assert not any("_shard" in key for key in result.perf)


# -- partitioned platforms ----------------------------------------------------

def test_platform_builds_partition_groups():
    platform = Platform(partitioned_config(npartitions=4, nservers=10))
    assert [len(pfs.servers) for pfs in platform.partitions] == [3, 3, 2, 2]
    assert platform.config.partition_sizes == (3, 3, 2, 2)
    assert len(platform.servers) == 10
    # Server names stay the historical dense sequence.
    assert [s.name for s in platform.servers] == \
        [f"server{i}" for i in range(10)]
    assert platform.config.partition_bandwidth(0) == 3 * 100e6
    assert platform.config.partition_bandwidth(3) == 2 * 100e6


def test_platform_partition_validation():
    with pytest.raises(SimulationError, match="npartitions"):
        Platform(partitioned_config(npartitions=0))
    with pytest.raises(SimulationError, match="cannot exceed"):
        Platform(partitioned_config(npartitions=9, nservers=8))


def test_single_partition_platform_unchanged():
    cfg = partitioned_config(npartitions=1)
    platform = Platform(cfg)
    assert platform.pfs is platform.partitions[0]
    assert platform.app_partitions("anything") == (0,)
    platform.pin_path("/a/f", 0)  # no-op, must not raise


def test_partitioned_pfs_routing_and_accounting():
    platform = Platform(partitioned_config(npartitions=4))
    pfs = platform.pfs
    pfs.pin("/appA/f0", 2)
    assert pfs.partition_of("/appA/f0") == 2
    with pytest.raises(SimulationError, match="already pinned"):
        pfs.pin("/appA/f0", 3)
    # Unpinned paths route by the top-level (application) directory, so
    # one app's files share a partition by default.
    assert pfs.partition_of("/appB/x") == pfs.partition_of("/appB/y")
    meta = pfs.create("/appA/f0")
    assert pfs.stat("/appA/f0") is meta
    assert "/appA/f0" in pfs.listdir()
    client = platform.add_client("c", 4)
    done = pfs.write(client, "appA", "/appA/f0", 0, 1000, weight=4)
    platform.sim.run(until=done)
    assert pfs.total_bytes_written == pytest.approx(1000.0)
    assert platform.partitions[2].total_bytes_written == pytest.approx(1000.0)
    pfs.unlink("/appA/f0")
    assert "/appA/f0" not in pfs.listdir()


def test_app_partition_placement_rules():
    platform = Platform(partitioned_config(npartitions=4))
    assert platform.app_partitions("x", (1, 3)) == (1, 3)
    assert platform.app_partitions("x", (3, 1, 3)) == (1, 3)
    assert platform.app_partitions("x", (5,)) == (1,)   # modulo wrap
    assert platform.file_partition("x", 0, (1, 3)) == 1
    assert platform.file_partition("x", 1, (1, 3)) == 3
    assert platform.file_partition("x", 2, (1, 3)) == 1
    default, = platform.app_partitions("x")
    assert platform.file_partition("x", 7) == default


def test_runtime_shard_validation_and_capacity():
    platform = Platform(partitioned_config(npartitions=4))
    with pytest.raises(SimulationError, match="shards"):
        CalciomRuntime(platform, strategy="fcfs", shards=3)
    runtime = CalciomRuntime(platform, strategy="dynamic")
    assert runtime.coordinator.nshards == 4
    for shard in runtime.coordinator.shards:
        # Each shard's dynamic strategy is capacity-bounded to its own
        # partition, not the whole machine.
        assert shard.arbiter.strategy.capacity == \
            platform.config.partition_bandwidth(shard.index)
    single = CalciomRuntime(Platform(partitioned_config(npartitions=4)),
                            strategy="dynamic", shards=1)
    assert single.coordinator.strategy.capacity == \
        platform.config.aggregate_bandwidth


def test_strategy_instance_is_copied_per_shard():
    """A Strategy *instance* must not alias per-shard configuration: each
    shard's copy gets its own partition-bounded capacity."""
    from repro.core import DynamicStrategy
    cfg = partitioned_config(npartitions=3, nservers=10)
    runtime = CalciomRuntime(Platform(cfg), strategy=DynamicStrategy())
    strategies = [s.arbiter.strategy for s in runtime.coordinator.shards]
    assert len({id(s) for s in strategies}) == 3
    assert [s.capacity for s in strategies] == \
        [cfg.partition_bandwidth(p) for p in range(3)]
    # With one shard the instance is used as-is (historical behavior).
    inst = DynamicStrategy()
    single = CalciomRuntime(Platform(cfg.with_(name="p2")), strategy=inst,
                            shards=1)
    assert single.coordinator.strategy is inst


# -- sharded semantics --------------------------------------------------------

def test_disjoint_partitions_coordinate_independently():
    """Two FCFS writers on different partitions both run at once — the
    scale-out point; a single arbiter would serialize them."""
    sim = Simulator()
    router = ShardRouter(sim, 2, "fcfs")
    assert router.on_inform(desc("a", partitions=(0,))) is True
    assert router.on_inform(desc("b", partitions=(1,))) is True
    assert router.is_authorized("a") and router.is_authorized("b")
    # Same partitions, single shard: b would have waited.
    sim2 = Simulator()
    single = ShardRouter(sim2, 1, "fcfs")
    assert single.on_inform(desc("a", partitions=(0,))) is True
    assert single.on_inform(desc("b", partitions=(1,))) is False


def test_span_access_holds_every_involved_shard():
    sim = Simulator()
    router = ShardRouter(sim, 4, "fcfs")
    result = {}

    def span():
        result["inform"] = yield router.submit_inform(
            desc("s", partitions=(1, 3)))

    sim.process(span())
    sim.run()
    assert result["inform"] is True
    assert router.is_authorized("s")
    for shard, expected in enumerate([AccessState.IDLE, AccessState.ACTIVE,
                                      AccessState.IDLE, AccessState.ACTIVE]):
        assert router.shards[shard].arbiter.state_of("s") is expected
    # Pinned writers on the held partitions queue behind the span access.
    assert router.on_inform(desc("p", partitions=(1,))) is False
    router.on_complete("s")
    sim.run()
    assert router.is_authorized("p")


def test_span_access_waits_for_busy_shard_in_order():
    """Ordered acquisition: the span app holds shard 0 while queueing on
    shard 1, and completes once the holder releases."""
    sim = Simulator()
    router = ShardRouter(sim, 2, "fcfs")
    timeline = []

    def holder():
        ok = yield router.submit_inform(desc("h", partitions=(1,)))
        timeline.append(("h", ok, sim.now))
        yield sim.timeout(2.0)
        router.on_complete("h")

    def span():
        yield sim.timeout(0.5)
        ok = yield router.submit_inform(desc("s", partitions=(0, 1)))
        timeline.append(("s-inform", ok, sim.now))
        assert router.shards[0].arbiter.state_of("s") is AccessState.ACTIVE
        assert router.shards[1].arbiter.state_of("s") is AccessState.WAITING
        assert router.state_of("s") is AccessState.WAITING
        if not ok:
            yield router.authorization_event("s")
        timeline.append(("s-granted", router.is_authorized("s"), sim.now))
        router.on_complete("s")

    sim.process(holder())
    sim.process(span())
    sim.run()
    assert timeline == [("h", True, 0.0), ("s-inform", False, 0.5),
                        ("s-granted", True, 2.0)]


def test_span_access_preempted_on_one_shard_reblocks():
    """A span app preempted on one shard loses overall authorization and
    regains it when that shard re-grants (priority over fresh waiters)."""
    sim = Simulator()
    router = ShardRouter(sim, 2, "interrupt")
    log = []

    def span():
        ok = yield router.submit_inform(desc("s", partitions=(0, 1)))
        assert ok
        yield sim.timeout(1.0)   # guarded step in progress
        # Preempted on shard 1 only by now: next step must re-block.
        log.append(("mid", router.is_authorized("s"),
                    router.state_of("s"), sim.now))
        yield router.authorization_event("s")
        log.append(("regranted", router.is_authorized("s"), sim.now))
        router.on_complete("s")

    def intruder():
        yield sim.timeout(0.5)
        ok = yield router.submit_inform(desc("b", partitions=(1,)))
        assert ok   # INTERRUPT preempts s on shard 1 only
        assert router.shards[1].arbiter.state_of("s") is AccessState.PREEMPTED
        assert router.shards[0].arbiter.state_of("s") is AccessState.ACTIVE
        yield sim.timeout(1.0)
        router.on_complete("b")

    sim.process(span())
    sim.process(intruder())
    sim.run()
    assert log[0][:3] == ("mid", False, AccessState.PREEMPTED)
    assert log[1] == ("regranted", True, 1.5)


def test_withdraw_mid_two_phase_grant_releases_held_shards():
    """Withdrawing while holding shard 0 and queueing on shard 1 must free
    shard 0 and leave no ghost entry on shard 1."""
    sim = Simulator()
    router = ShardRouter(sim, 2, "fcfs")

    def holder():
        yield router.submit_inform(desc("h", partitions=(1,)))
        yield sim.timeout(3.0)
        router.on_complete("h")

    def span():
        yield sim.timeout(0.5)
        ok = yield router.submit_inform(desc("s", partitions=(0, 1)))
        assert not ok   # holds shard 0, queued on shard 1

    def withdraw_then_rival():
        yield sim.timeout(1.0)
        router.withdraw("s")
        assert router.shards[0].arbiter.state_of("s") is AccessState.IDLE
        assert router.shards[1].arbiter.state_of("s") is AccessState.IDLE
        # Shard 0 is free again for a pinned writer.
        assert router.on_inform(desc("w0", partitions=(0,))) is True
        # Shard 1's queue no longer holds s: the next grant goes to w1.
        assert router.on_inform(desc("w1", partitions=(1,))) is False

    sim.process(holder())
    sim.process(span())
    sim.process(withdraw_then_rival())
    sim.run()
    assert router.is_authorized("w1")
    assert router.state_of("s") is AccessState.IDLE


def test_merged_decision_log_is_time_ordered():
    sim = Simulator()
    router = ShardRouter(sim, 2, "fcfs")

    def app(name, at, partition):
        yield sim.timeout(at)
        yield router.submit_inform(desc(name, partitions=(partition,)))

    sim.process(app("a", 1.0, 1))
    sim.process(app("b", 2.0, 0))
    sim.process(app("c", 3.0, 1))
    sim.run()
    merged = router.decision_log
    assert [r.app for r in merged] == ["a", "b", "c"]
    assert [r.time for r in merged] == [1.0, 2.0, 3.0]


def test_per_shard_perf_counters():
    perf = PerfCounters()
    sim = Simulator()
    router = ShardRouter(sim, 2, "fcfs", perf=perf)
    router.on_inform(desc("a", partitions=(0,)))
    router.on_inform(desc("b", partitions=(1,)))
    router.on_inform(desc("c", partitions=(1,)))
    counts = perf.as_dict()
    assert counts["coord_decisions"] == 3            # machine-wide total
    assert counts["coord_decisions_shard0"] == 1
    assert counts["coord_decisions_shard1"] == 2


# -- engine / spec / scenario wiring ------------------------------------------

def test_workload_partitions_round_trip():
    w = WorkloadSpec(name="w", nprocs=4, pattern=Contiguous(block_size=1000),
                     partitions=(0, 2))
    spec = ExperimentSpec(platform=partitioned_config(npartitions=4),
                          workloads=(w,), strategy="fcfs",
                          arbiter={"shards": 4})
    clone = ExperimentSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.workloads[0].partitions == (0, 2)
    assert clone.platform.npartitions == 4


def test_cross_partition_scenario_runs_span_accesses():
    engine = ExperimentEngine()
    spec, = build_scenario("cross-partition", napps=8, npartitions=4,
                           nservers=8, strategy="fcfs")
    nspan = sum(1 for w in spec.workloads
                if w.partitions and len(w.partitions) > 1)
    assert nspan == spec.meta["nspan"] > 0
    result = engine.run(spec)
    assert result.makespan > 0
    # Every app finished all its phases.
    for name, rec in result.records.items():
        assert len(rec.write_times) == spec.workload(name).iterations
    # Decisions landed on more than one shard.
    shard_keys = {k for k in result.perf
                  if k.startswith("coord_decisions_shard")}
    assert len(shard_keys) > 1


def test_sharded_writers_scales_out_makespan():
    """Same offered workload: per-partition arbiters beat one arbiter."""
    engine = ExperimentEngine()
    sharded, = build_scenario("sharded-writers", napps=16, npartitions=4,
                              nservers=8, phases=2, strategy="fcfs")
    single = sharded.with_(arbiter={**sharded.arbiter, "shards": 1})
    r_sharded = engine.run(sharded)
    r_single = engine.run(single)
    assert len(r_sharded.decisions) == len(r_single.decisions)
    assert r_sharded.makespan <= r_single.makespan


def test_sharding_works_with_unbatched_oracle_arbiters():
    engine = ExperimentEngine()
    spec, = build_scenario("sharded-writers", napps=12, npartitions=4,
                           nservers=8, phases=2, strategy="fcfs")
    batched = engine.run(spec)
    with unbatched_arbiters():
        unbatched = engine.run(spec)
    assert batched.decisions == unbatched.decisions
    assert batched.makespan == unbatched.makespan
