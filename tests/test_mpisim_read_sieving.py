"""Tests for collective reads and data sieving."""

import pytest

from repro.mpisim import (
    ADIOLayer, Communicator, Contiguous, Strided, plan_data_sieving,
)
from repro.platforms import Platform, PlatformConfig


def adio_fixture(nprocs=8, per_core=10.0, disk=100.0):
    cfg = PlatformConfig(name="t", nservers=2, disk_bandwidth=disk,
                         per_core_bandwidth=per_core, stripe_size=1000,
                         latency=0.0)
    platform = Platform(cfg)
    client = platform.add_client("app", nprocs)
    comm = Communicator(platform.sim, nprocs, alpha=0.0,
                        per_proc_bandwidth=per_core)
    adio = ADIOLayer(platform.sim, platform.pfs, client, "app", comm,
                     cb_buffer_size=1000, naggregators=nprocs)
    return platform, adio


# -- sieve planning -----------------------------------------------------------

def test_sieve_contiguous_no_amplification():
    plan = plan_data_sieving(Contiguous(block_size=10_000), nprocs=4,
                             buffer_size=4000)
    assert plan.amplification == 1.0
    assert all(w for _o, _n, w in plan.operations)  # writes only
    assert plan.nrequests == 3  # ceil(10000/4000)


def test_sieve_strided_amplification():
    # 4 procs x 4 blocks x 100 B: extent 1600 B per proc, payload 400 B.
    plan = plan_data_sieving(Strided(block_size=100, nblocks=4), nprocs=4,
                             buffer_size=800)
    # read+write of the full extent: 3200 B moved for 400 B payload.
    assert plan.amplification == pytest.approx(8.0)
    assert plan.nrequests == 4  # 2 windows x (read + write)
    kinds = [w for _o, _n, w in plan.operations]
    assert kinds == [False, True, False, True]


def test_sieve_without_rmw_halves_traffic():
    plan = plan_data_sieving(Strided(block_size=100, nblocks=4), nprocs=4,
                             buffer_size=800, read_modify_write=False)
    assert plan.amplification == pytest.approx(4.0)


def test_sieve_operations_cover_extent():
    plan = plan_data_sieving(Strided(block_size=128, nblocks=3), nprocs=5,
                             buffer_size=1000)
    writes = [(o, n) for o, n, w in plan.operations if w]
    assert sum(n for _o, n in writes) == 128 * 3 * 5
    offsets = [o for o, _n in writes]
    assert offsets == sorted(offsets)


def test_sieve_validation():
    with pytest.raises(ValueError):
        plan_data_sieving(Contiguous(block_size=10), nprocs=0)
    with pytest.raises(ValueError):
        plan_data_sieving(Contiguous(block_size=10), nprocs=1, buffer_size=0)


def test_sieve_aggregate_transferred():
    plan = plan_data_sieving(Strided(block_size=100, nblocks=2), nprocs=3,
                             buffer_size=600)
    assert plan.aggregate_transferred == plan.transferred_bytes_per_process * 3


# -- ADIO execution -----------------------------------------------------------

def test_read_collective_roundtrip():
    platform, adio = adio_fixture()

    def body():
        yield from adio.write_collective("/f", Contiguous(block_size=1000),
                                         grain=None)
        stats = yield from adio.read_collective(
            "/f", Contiguous(block_size=1000), grain=None)
        return stats

    p = platform.sim.process(body())
    stats = platform.sim.run(until=p)
    assert stats.bytes == 8000
    assert stats.write_time > 0  # read-phase time lands here


def test_read_collective_strided_has_scatter_phase():
    platform, adio = adio_fixture()

    def body():
        yield from adio.write_collective(
            "/f", Strided(block_size=500, nblocks=2), grain=None)
        return (yield from adio.read_collective(
            "/f", Strided(block_size=500, nblocks=2), grain=None))

    p = platform.sim.process(body())
    stats = platform.sim.run(until=p)
    assert stats.comm_time > 0


def test_sieved_write_moves_amplified_volume():
    platform, adio = adio_fixture()

    def body():
        return (yield from adio.write_independent_sieved(
            "/f", Strided(block_size=100, nblocks=4), guarded=False))

    p = platform.sim.process(body())
    stats = platform.sim.run(until=p)
    # Aggregate: 8 procs x (read 3200 + write 3200) = 51200 B through a
    # client at 80 B/s (both directions full duplex).
    assert platform.pfs.total_bytes_written == pytest.approx(8 * 3200)
    assert platform.pfs.total_bytes_read == pytest.approx(8 * 3200)


def test_sieved_contiguous_as_fast_as_plain():
    platform, adio = adio_fixture()

    def body():
        s1 = yield from adio.write_independent("/plain", 8000, guarded=False)
        s2 = yield from adio.write_independent_sieved(
            "/sieved", Contiguous(block_size=1000), guarded=False)
        return s1, s2

    p = platform.sim.process(body())
    s1, s2 = platform.sim.run(until=p)
    assert s2.duration == pytest.approx(s1.duration, rel=0.05)


def test_sieved_strided_much_slower_than_collective():
    """The reason two-phase I/O exists: sieving a strided pattern moves
    2 x nprocs x payload; collective buffering moves ~2 x payload."""
    platform, adio = adio_fixture()

    def body():
        s_cb = yield from adio.write_collective(
            "/cb", Strided(block_size=100, nblocks=4), grain=None)
        s_sv = yield from adio.write_independent_sieved(
            "/sv", Strided(block_size=100, nblocks=4), guarded=False)
        return s_cb, s_sv

    p = platform.sim.process(body())
    s_cb, s_sv = platform.sim.run(until=p)
    assert s_sv.duration > 3.0 * s_cb.duration


def test_mpiio_read_all_advances_offset():
    """Consecutive collective reads, each at the offset the last one ended."""
    platform, adio = adio_fixture()
    pattern = Contiguous(block_size=1000)

    def body():
        offset = 0
        for _ in range(2):
            stats = yield from adio.write_collective(
                "/f", pattern, grain=None, base_offset=offset)
            offset += stats.bytes
        offset = 0
        for _ in range(2):
            stats = yield from adio.read_collective(
                "/f", pattern, grain=None, base_offset=offset)
            assert stats.bytes == 8000 and stats.duration > 0
            offset += stats.bytes
        return offset

    p = platform.sim.process(body())
    assert platform.sim.run(until=p) == 16000
    assert platform.pfs.stat("/f").size == 16000
