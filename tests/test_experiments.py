"""Integration tests for the experiment harness against the analytic model."""

import numpy as np
import pytest

from repro.apps import IORConfig
from repro.core.sharing import interfere_times, water_fill
from repro.experiments import (
    ExperimentEngine, ExperimentSpec, cpu_seconds_wasted,
    efficiency_summary, format_series, format_table,
    interference_factor, sparkline, split_pairs,
    sum_interference_factors,
)
from repro.mpisim import Contiguous
from repro.platforms import PlatformConfig

PLATFORM = PlatformConfig(
    name="bench", nservers=4, disk_bandwidth=250.0,
    per_core_bandwidth=10.0, stripe_size=1000, latency=0.0,
)
# 4 servers x 250 = 1000 B/s aggregate; 100 procs saturate.

#: One engine for the module, so baselines are shared across tests.
ENGINE = ExperimentEngine()


def cfg(name, nprocs, block=1000, **kw):
    return IORConfig(name=name, nprocs=nprocs,
                     pattern=Contiguous(block_size=block), grain=None, **kw)


# -- analytic model (repro.core.sharing) ---------------------------------------

def pair_times(nprocs_a, bytes_a, nprocs_b, bytes_b, dt):
    """(T_A, T_B) on PLATFORM with B starting ``dt`` after A, mapped the
    way ``ResultSet.delta_graph`` maps a negative dt (B starts first)."""
    return tuple(interfere_times(
        PLATFORM.aggregate_bandwidth,
        (0.0, dt) if dt >= 0 else (-dt, 0.0),
        (bytes_a, bytes_b), (nprocs_a, nprocs_b),
        (nprocs_a * PLATFORM.per_core_bandwidth,
         nprocs_b * PLATFORM.per_core_bandwidth)))


def test_water_fill_alone_rates():
    assert water_fill(1000.0, [50], [500.0]) == [500.0]
    assert water_fill(1000.0, [200], [2000.0]) == [1000.0]


def test_water_fill_proportional_shares():
    ra, rb = water_fill(1000.0, [100, 300], [1e9, 1e9])
    assert ra == pytest.approx(250.0)
    assert rb == pytest.approx(750.0)


def test_water_fill_cap_redistribution():
    ra, rb = water_fill(1000.0, [100, 100], [200.0, 1e9])
    assert ra == pytest.approx(200.0)   # capped
    assert rb == pytest.approx(800.0)   # picks up the slack


def test_expected_pair_symmetric_at_dt_zero():
    ta, tb = pair_times(200, 100000.0, 200, 100000.0, 0.0)
    assert ta == pytest.approx(tb)
    # Equal halves of 1000 B/s: each 500 B/s for 100 kB -> 200 s.
    assert ta == pytest.approx(200.0)


def test_expected_pair_no_overlap_when_dt_large():
    ta, tb = pair_times(200, 100000.0, 200, 100000.0, 1e6)
    assert ta == pytest.approx(100.0)
    assert tb == pytest.approx(100.0)


def test_expected_pair_negative_dt_mirrors():
    ta, tb = pair_times(200, 1e5, 100, 5e4, 30.0)
    # Mirror: (A,B,dt) == swapped (B,A,-dt).
    tb_swapped, ta_swapped = pair_times(100, 5e4, 200, 1e5, -30.0)
    assert ta == pytest.approx(ta_swapped)
    assert tb == pytest.approx(tb_swapped)


def test_expected_identical_apps_finish_in_equal_time():
    """Under exact proportional sharing, two identical apps see the *same*
    write time for any overlap (work conservation); the paper's measured
    first-arriver advantage is a sub-proportional queueing effect."""
    for dt in (0.0, 25.0, 50.0, 99.0):
        ta, tb = pair_times(200, 1e5, 200, 1e5, dt)
        assert ta == pytest.approx(tb)


# -- runner ------------------------------------------------------------------------

def test_single_app_run_matches_analytic():
    result = ENGINE.run(ExperimentSpec.single(
        PLATFORM, cfg("solo", 50), measure_alone=False))
    # 50 procs x 10 B/s = 500 B/s client-bound; 50 kB data + 12.5% shuffle.
    base = 50 * 1000 / 500.0
    assert result.record("solo").write_time == pytest.approx(base * 1.125,
                                                             rel=0.01)


def test_standalone_time_cache_consistency():
    t1 = ENGINE.baseline(PLATFORM, cfg("x", 50))
    t2 = ENGINE.baseline(PLATFORM, cfg("y", 50, start_time=17.0))
    assert t1 == t2  # name and start_time are normalized away


def test_run_pair_interference_factors():
    res = ENGINE.run(ExperimentSpec.pair(
        PLATFORM, cfg("A", 200), cfg("B", 200), dt=0.0))
    assert res.record("A").interference_factor > 1.5
    assert res.record("B").interference_factor > 1.5
    assert res.cpu_seconds_wasted() > 0
    assert res.sum_interference_factors() > 3.0


def test_run_pair_negative_dt_shifts_a():
    res = ENGINE.run(ExperimentSpec.pair(
        PLATFORM, cfg("A", 200), cfg("B", 200), dt=-1e5))
    # B ran long before A: no interference either way.
    assert res.record("A").interference_factor == pytest.approx(1.0, abs=0.01)
    assert res.record("B").interference_factor == pytest.approx(1.0, abs=0.01)


def test_delta_graph_shape_matches_expected():
    dts = [-300.0, -100.0, 0.0, 100.0, 300.0]
    g = ENGINE.delta_graph(PLATFORM, cfg("A", 200), cfg("B", 200), dts,
                           with_expected=True)
    # Peak interference at dt=0, falling off on both sides.
    i_b = g.interference_b
    assert i_b[2] == max(i_b)
    assert i_b[0] < i_b[1] <= i_b[2]
    # Measured tracks expected within the shuffle overhead (~12.5%).
    ratio = g.t_a / g.expected_a
    assert np.all(ratio > 0.99) and np.all(ratio < 1.30)


def test_delta_graph_rows():
    g = ENGINE.delta_graph(PLATFORM, cfg("A", 100), cfg("B", 100), [0.0])
    rows = g.rows()
    assert len(rows) == 1
    dt, ta, tb, ia, ib = rows[0]
    assert dt == 0.0 and ia >= 1.0 and ib >= 1.0


def test_split_pairs():
    assert split_pairs(768, [24, 384]) == [(744, 24), (384, 384)]
    with pytest.raises(ValueError):
        split_pairs(768, [768])


def test_size_split_sweep_returns_graph_per_split():
    # total=400 puts B=50 below the ~100-proc saturation knee (I ~ cT/S = 4)
    # and B=200 above it (I ~ T/N = 2).
    graphs = ENGINE.size_split_sweep(PLATFORM, cfg("A", 1), cfg("B", 1),
                                     total_cores=400, sizes_b=[50, 200],
                                     dts=[0.0])
    assert set(graphs) == {50, 200}
    # The smaller B suffers more at dt=0.
    assert graphs[50].max_interference_b() > graphs[200].max_interference_b()


def test_strategy_comparison_covers_strategies():
    results = ENGINE.strategy_comparison(
        PLATFORM, cfg("A", 150), cfg("B", 50), dt=10.0,
        strategies=(None, "fcfs", "interrupt"))
    assert set(results) == {None, "fcfs", "interrupt"}
    # Interrupt saves the small app relative to FCFS.
    assert (results["interrupt"].record("B").interference_factor
            < results["fcfs"].record("B").interference_factor)


# -- interference helpers ------------------------------------------------------------

def test_interference_factor_validation():
    assert interference_factor(10.0, 5.0) == 2.0
    with pytest.raises(ValueError):
        interference_factor(10.0, 0.0)
    with pytest.raises(ValueError):
        interference_factor(4.0, 5.0)  # speedup under contention = bug


def test_summary_metrics():
    io = {"a": 10.0, "b": 4.0}
    alone = {"a": 5.0, "b": 4.0}
    nprocs = {"a": 100, "b": 10}
    assert cpu_seconds_wasted(io, nprocs) == pytest.approx(1040.0)
    assert sum_interference_factors(io, alone) == pytest.approx(3.0)
    summary = efficiency_summary(io, alone, nprocs)
    assert summary["max-slowdown"] == pytest.approx(2.0)
    assert summary["total-io-time"] == pytest.approx(14.0)


# -- reporting ------------------------------------------------------------------------

def test_format_table_alignment():
    out = format_table(["x", "value"], [[1, 2.5], [10, 0.125]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "value" in lines[0]


def test_sparkline_range():
    line = sparkline([0, 1, 2, 3])
    assert len(line) == 4
    assert line[0] != line[-1]
    assert sparkline([]) == ""
    assert len(set(sparkline([5, 5, 5]))) == 1


def test_format_series_contains_rows():
    out = format_series("test", [1.0, 2.0], [3.0, 4.0], xlabel="dt",
                        ylabel="T")
    assert "dt=" in out and "T=3" in out
