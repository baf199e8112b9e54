"""Unit tests for kernel primitives: Store, TimeSeries, RNG."""

import numpy as np
import pytest

from repro.simcore import (
    SimulationError, Simulator, Store, TimeSeries, ensure_rng, substream,
)


# -- Store ----------------------------------------------------------------------

def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    g1, g2 = store.get(), store.get()
    sim.run()
    assert g1.value == 1 and g2.value == 2


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    result = []

    def consumer():
        item = yield store.get()
        result.append((sim.now, item))

    def producer():
        yield sim.timeout(3.0)
        store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert result == [(3.0, "x")]


def test_store_len_and_peek():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    assert len(store) == 2
    assert store.peek_all() == ["a", "b"]
    assert len(store) == 2  # peek is non-destructive


# -- TimeSeries -------------------------------------------------------------------

def test_timeseries_record_and_value_at():
    ts = TimeSeries()
    ts.record(0.0, 1.0)
    ts.record(5.0, 3.0)
    assert ts.value_at(0.0) == 1.0
    assert ts.value_at(4.9) == 1.0
    assert ts.value_at(5.0) == 3.0
    assert ts.value_at(100.0) == 3.0


def test_timeseries_value_before_first_sample_raises():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.value_at(4.0)


def test_timeseries_non_monotonic_rejected():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.record(4.0, 2.0)


def test_timeseries_same_instant_supersedes():
    ts = TimeSeries()
    ts.record(1.0, 10.0)
    ts.record(1.0, 20.0)
    assert len(ts) == 1
    assert ts.value_at(1.0) == 20.0


def test_timeseries_integral_step_semantics():
    ts = TimeSeries()
    ts.record(0.0, 2.0)   # 2.0 on [0, 10)
    ts.record(10.0, 4.0)  # 4.0 on [10, ...)
    assert ts.integral(0.0, 10.0) == pytest.approx(20.0)
    assert ts.integral(0.0, 15.0) == pytest.approx(40.0)
    assert ts.integral(5.0, 12.0) == pytest.approx(10.0 + 8.0)
    assert ts.time_average(0.0, 20.0) == pytest.approx(3.0)


def test_timeseries_integral_validation():
    ts = TimeSeries()
    ts.record(0.0, 1.0)
    with pytest.raises(ValueError):
        ts.integral(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.time_average(3.0, 3.0)


def test_timeseries_arrays():
    ts = TimeSeries()
    ts.record(0.0, 1.0)
    ts.record(2.0, 5.0)
    assert np.allclose(ts.times, [0.0, 2.0])
    assert np.allclose(ts.values, [1.0, 5.0])
    assert ts.samples() == [(0.0, 1.0), (2.0, 5.0)]


# -- RNG ----------------------------------------------------------------------------

def test_substream_deterministic():
    a = substream(42, "component", 3).random(5)
    b = substream(42, "component", 3).random(5)
    assert np.array_equal(a, b)


def test_substream_independent_keys():
    a = substream(42, "x").random(5)
    b = substream(42, "y").random(5)
    assert not np.array_equal(a, b)


def test_substream_string_hash_stable():
    """Key hashing must not depend on Python's randomized hash()."""
    a = substream(7, "appA").random(3)
    b = substream(7, "appA").random(3)
    assert np.array_equal(a, b)


def test_ensure_rng_coercions():
    gen = ensure_rng(5)
    assert isinstance(gen, np.random.Generator)
    assert ensure_rng(gen) is gen
    assert isinstance(ensure_rng(None), np.random.Generator)
