"""Unit tests for the simulated MPI layer: info, patterns, communicators,
two-phase planning, ADIO execution, and the MPI-IO facade."""


import pytest

from repro.mpisim import (
    ADIOLayer, Communicator, Contiguous, MPIInfo, MPIIOFile,
    Strided, WriteStats, plan_collective_write,
)
from repro.platforms import Platform, PlatformConfig
from repro.simcore import SimulationError


# -- MPIInfo -----------------------------------------------------------------

def test_info_set_get_roundtrip():
    info = MPIInfo(files=4)
    info.set("rounds", 16)
    assert info.get("files") == 4
    assert info["rounds"] == 16
    assert info.get("missing", "dflt") == "dflt"


def test_info_typed_accessors():
    info = MPIInfo(total_bytes="1024", rounds=7.0)
    assert info.get_float("total_bytes") == 1024.0
    assert info.get_int("rounds") == 7
    assert info.get_int("absent", 3) == 3


def test_info_merge_overrides():
    merged = MPIInfo(a=1, b=2).merged(MPIInfo(b=3, c=4))
    assert dict(merged.items()) == {"a": 1, "b": 3, "c": 4}


def test_info_rejects_non_string_keys():
    with pytest.raises(TypeError):
        MPIInfo().set(42, "x")


def test_info_len_contains_iter():
    info = MPIInfo(a=1, b=2)
    assert len(info) == 2 and "a" in info and sorted(info) == ["a", "b"]


# -- patterns ---------------------------------------------------------------------

def test_contiguous_bytes_per_process():
    p = Contiguous(block_size=1000)
    assert p.bytes_per_process == 1000
    assert not p.is_strided
    assert p.total_bytes(8) == 8000


def test_strided_bytes_per_process():
    p = Strided(block_size=2_000_000, nblocks=8)  # the paper's Fig 6 pattern
    assert p.bytes_per_process == 16_000_000
    assert p.is_strided


def test_pattern_validation():
    with pytest.raises(ValueError):
        Contiguous(block_size=0)
    with pytest.raises(ValueError):
        Strided(block_size=10, nblocks=0)


# -- communicator ----------------------------------------------------------------

def test_communicator_single_rank_barriers_are_free():
    from repro.simcore import Simulator
    comm = Communicator(Simulator(), 1, alpha=1e-3)
    assert comm.barrier_time() == 0.0


def test_communicator_barrier_scales_logarithmically():
    from repro.simcore import Simulator
    sim = Simulator()
    alpha = 1e-3
    c64 = Communicator(sim, 64, alpha=alpha)
    c1024 = Communicator(sim, 1024, alpha=alpha)
    assert c64.barrier_time() == pytest.approx(6 * alpha)
    assert c1024.barrier_time() == pytest.approx(10 * alpha)


def test_communicator_alltoall_bandwidth_term():
    from repro.simcore import Simulator
    comm = Communicator(Simulator(), 16, alpha=0.0, per_proc_bandwidth=100.0)
    # 16 procs x 100 B/s aggregate = 1600 B/s; 3200 B -> 2 s.
    assert comm.alltoall_time(3200.0) == pytest.approx(2.0)


def test_communicator_shuffle_fraction():
    from repro.simcore import Simulator
    comm = Communicator(Simulator(), 16, alpha=0.0, per_proc_bandwidth=100.0)
    assert comm.shuffle_time(3200.0, fraction_remote=0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        comm.shuffle_time(100.0, fraction_remote=1.5)


def test_communicator_split():
    from repro.simcore import Simulator
    comm = Communicator(Simulator(), 64)
    sub = comm.split(8)
    assert sub.nprocs == 8
    with pytest.raises(ValueError):
        comm.split(65)


def test_communicator_validation():
    from repro.simcore import Simulator
    with pytest.raises(ValueError):
        Communicator(Simulator(), 0)


# -- two-phase planning -------------------------------------------------------------

def test_plan_covers_all_bytes():
    plan = plan_collective_write(Strided(block_size=1_000_000, nblocks=4),
                                 nprocs=64, cb_buffer_size=4_000_000,
                                 procs_per_node=4)
    assert sum(r.write_bytes for r in plan.rounds) == plan.total_bytes
    assert plan.total_bytes == 64 * 4_000_000


def test_plan_round_count():
    # 64 procs / 4 per node -> 16 aggregators x 4 MB buffer = 64 MB/round;
    # 256 MB total -> 4 rounds.
    plan = plan_collective_write(Strided(block_size=1_000_000, nblocks=4),
                                 nprocs=64, cb_buffer_size=4_000_000,
                                 procs_per_node=4)
    assert plan.naggregators == 16
    assert plan.nrounds == 4


def test_plan_offsets_are_contiguous():
    plan = plan_collective_write(Contiguous(block_size=10_000_000), nprocs=8,
                                 cb_buffer_size=4_000_000, naggregators=4)
    expected_offset = 0
    for rnd in plan.rounds:
        assert rnd.offset == expected_offset
        expected_offset += rnd.write_bytes


def test_strided_shuffles_everything_contiguous_little():
    strided = plan_collective_write(Strided(block_size=1_000_000, nblocks=4),
                                    nprocs=16, naggregators=4)
    contig = plan_collective_write(Contiguous(block_size=4_000_000),
                                   nprocs=16, naggregators=4)
    s_frac = sum(r.shuffle_bytes for r in strided.rounds) / strided.total_bytes
    c_frac = sum(r.shuffle_bytes for r in contig.rounds) / contig.total_bytes
    assert s_frac == pytest.approx(1.0, abs=0.01)
    assert c_frac < 0.2


def test_plan_single_round_when_buffer_is_huge():
    plan = plan_collective_write(Contiguous(block_size=1000), nprocs=4,
                                 cb_buffer_size=1 << 30, naggregators=4)
    assert plan.nrounds == 1


def test_plan_aggregators_capped_at_nprocs():
    plan = plan_collective_write(Contiguous(block_size=1000), nprocs=2,
                                 naggregators=64)
    assert plan.naggregators == 2


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_collective_write(Contiguous(block_size=10), nprocs=0)
    with pytest.raises(ValueError):
        plan_collective_write(Contiguous(block_size=10), nprocs=1,
                              cb_buffer_size=0)


# -- ADIO execution -------------------------------------------------------------------

def adio_fixture(nprocs=8, per_core=10.0, disk=100.0, nservers=2):
    cfg = PlatformConfig(name="t", nservers=nservers, disk_bandwidth=disk,
                         per_core_bandwidth=per_core, stripe_size=1000,
                         latency=0.0)
    platform = Platform(cfg)
    client = platform.add_client("app", nprocs)
    comm = Communicator(platform.sim, nprocs, alpha=0.0,
                        per_proc_bandwidth=per_core)
    adio = ADIOLayer(platform.sim, platform.pfs, client, "app", comm,
                     cb_buffer_size=1000, naggregators=nprocs)
    return platform, adio


def test_adio_collective_write_moves_all_bytes():
    platform, adio = adio_fixture()

    def body():
        stats = yield from adio.write_collective(
            "/f", Contiguous(block_size=1000), grain="round")
        return stats

    p = platform.sim.process(body())
    stats = platform.sim.run(until=p)
    assert stats.bytes == 8000
    assert platform.pfs.stat("/f").size == 8000
    assert stats.duration > 0
    assert stats.write_time > 0


def test_adio_contiguous_write_time_matches_bandwidth():
    # 8 procs x 10 B/s = 80 B/s client; servers 200 B/s -> client-bound.
    platform, adio = adio_fixture()

    def body():
        return (yield from adio.write_collective(
            "/f", Contiguous(block_size=1000), grain=None))

    p = platform.sim.process(body())
    stats = platform.sim.run(until=p)
    # Write phase: 8000 B at 80 B/s = 100 s; contiguous collective buffering
    # still shuffles the 12.5% domain-boundary fraction -> +12.5 s comm.
    assert stats.write_time == pytest.approx(100.0, rel=0.01)
    assert stats.duration == pytest.approx(112.5, rel=0.01)


def test_adio_strided_write_includes_comm_phases():
    platform, adio = adio_fixture()

    def body():
        return (yield from adio.write_collective(
            "/f", Strided(block_size=500, nblocks=2), grain=None))

    p = platform.sim.process(body())
    stats = platform.sim.run(until=p)
    assert stats.comm_time > 0
    assert stats.duration == pytest.approx(
        stats.comm_time + stats.write_time, rel=1e-6)


def test_adio_history_accumulates():
    platform, adio = adio_fixture()

    def body():
        yield from adio.write_collective("/a", Contiguous(block_size=100))
        yield from adio.write_collective("/b", Contiguous(block_size=100))

    platform.sim.process(body())
    platform.sim.run()
    assert [s.path for s in adio.history] == ["/a", "/b"]


def test_adio_rejects_bad_grain():
    platform, adio = adio_fixture()

    def body():
        yield from adio.write_collective("/f", Contiguous(block_size=100),
                                         grain="banana")

    platform.sim.process(body())
    with pytest.raises(ValueError, match="grain"):
        platform.sim.run()


def test_adio_independent_write():
    platform, adio = adio_fixture()

    def body():
        return (yield from adio.write_independent("/f", 4000))

    p = platform.sim.process(body())
    stats = platform.sim.run(until=p)
    assert stats.bytes == 4000
    assert stats.nrounds == 1
    assert stats.comm_time == 0.0


def test_adio_plan_is_memoized_and_immutable(monkeypatch):
    from repro.mpisim import adio as adio_mod
    calls = []
    planner = adio_mod.plan_collective_write

    def counted(*args, **kwargs):
        calls.append(args)
        return planner(*args, **kwargs)
    monkeypatch.setattr(adio_mod, "plan_collective_write", counted)
    _platform, adio = adio_fixture()
    plan = adio.plan(Strided(block_size=500, nblocks=4))
    # An equal pattern object hits the memo; another base offset does not.
    assert adio.plan(Strided(block_size=500, nblocks=4)) is plan
    shifted = adio.plan(Strided(block_size=500, nblocks=4), base_offset=4000)
    assert shifted is not plan
    assert adio.plan(Strided(block_size=500, nblocks=4), 4000) is shifted
    assert len(calls) == 2
    assert isinstance(plan.rounds, tuple)
    assert plan == planner(Strided(block_size=500, nblocks=4), 8,
                           cb_buffer_size=1000, naggregators=8)


def test_adio_stats_with_shared_plans():
    """Operations that reuse one memoized plan keep their own timings."""
    platform, adio = adio_fixture()
    pattern = Strided(block_size=500, nblocks=4)

    def body():
        w = yield from adio.write_collective("/f", pattern, grain="round")
        r = yield from adio.read_collective("/f", pattern, grain="round")
        w2 = yield from adio.write_collective("/g", pattern, grain="file",
                                              base_offset=4000)
        return w, r, w2

    p = platform.sim.process(body())
    assert platform.sim.run(until=p) == (
        WriteStats(path="/f", bytes=16000, nrounds=2, start=0.0, end=400.0,
                   comm_time=200.0, write_time=200.0, wait_time=0.0,
                   round_marks=[200.0, 400.0]),
        WriteStats(path="/f", bytes=16000, nrounds=2, start=400.0,
                   end=800.0, comm_time=200.0, write_time=200.0,
                   wait_time=0.0, round_marks=[500.0, 700.0]),
        WriteStats(path="/g", bytes=16000, nrounds=2, start=800.0,
                   end=1200.0, comm_time=200.0, write_time=200.0,
                   wait_time=0.0, round_marks=[1000.0, 1200.0]),
    )


# -- MPI-IO facade ---------------------------------------------------------------------

def test_mpiio_file_advances_offset():
    platform, adio = adio_fixture()
    f = MPIIOFile(adio, "/f")

    def body():
        yield from f.write_all(Contiguous(block_size=1000), grain=None)
        yield from f.write_all(Contiguous(block_size=1000), grain=None)

    platform.sim.process(body())
    platform.sim.run()
    assert f.offset == 16000
    assert platform.pfs.stat("/f").size == 16000


def test_mpiio_write_at_all_does_not_move_pointer():
    platform, adio = adio_fixture()
    f = MPIIOFile(adio, "/f")

    def body():
        yield from f.write_at_all(0, Contiguous(block_size=1000), grain=None)

    platform.sim.process(body())
    platform.sim.run()
    assert f.offset == 0


def test_mpiio_closed_file_rejects_io():
    platform, adio = adio_fixture()
    f = MPIIOFile(adio, "/f")
    f.close()

    def body():
        yield from f.write(100)

    platform.sim.process(body())
    with pytest.raises(SimulationError, match="closed"):
        platform.sim.run()
