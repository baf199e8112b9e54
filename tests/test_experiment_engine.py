"""Tests for the declarative experiment API: spec, engine, executors, cache."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.apps import IORConfig
from repro.experiments import (
    BaselineCache, ExperimentEngine, ExperimentSpec, ParallelExecutor,
    SerialExecutor, WorkloadSpec, build_scenario, get_scenario,
    list_scenarios, result_set_csv, result_set_json,
)
from repro.experiments.export import MISSING, multi_result_csv
from repro.experiments.spec import (
    baseline_spec, pattern_from_dict, pattern_to_dict, platform_from_dict,
    platform_to_dict,
)
from repro.mpisim import Contiguous, Strided
from repro.platforms import PlatformConfig, grid5000_rennes

PLATFORM = PlatformConfig(
    name="bench", nservers=4, disk_bandwidth=250.0,
    per_core_bandwidth=10.0, stripe_size=1000, latency=0.0,
)


def w(name, nprocs, block=1000, **kw):
    return WorkloadSpec(name=name, nprocs=nprocs,
                        pattern=Contiguous(block_size=block), grain=None,
                        **kw)


# -- serialization -----------------------------------------------------------

def test_pattern_roundtrip():
    for pattern in (Contiguous(block_size=4096),
                    Strided(block_size=2_000_000, nblocks=8)):
        assert pattern_from_dict(pattern_to_dict(pattern)) == pattern
    with pytest.raises(ValueError):
        pattern_from_dict({"kind": "mystery", "block_size": 1})


def test_platform_roundtrip_handles_infinity():
    cfg = grid5000_rennes()
    data = json.loads(json.dumps(platform_to_dict(cfg)))
    assert platform_from_dict(data) == cfg
    assert data["server_link_bandwidth"] == "inf"
    with pytest.raises(ValueError):
        platform_from_dict({**platform_to_dict(cfg), "bogus": 1})


def test_platform_roundtrip_keeps_kernel_knobs():
    from dataclasses import replace
    cfg = replace(grid5000_rennes(), allocator="vectorized",
                  fill_cache_min_flows=8)
    data = json.loads(json.dumps(platform_to_dict(cfg)))
    assert platform_from_dict(data) == cfg
    assert data["allocator"] == "vectorized"
    assert data["fill_cache_min_flows"] == 8


def test_workload_spec_mirrors_ior_config():
    spec = w("A", 50, start_time=3.0, iterations=2)
    cfg = spec.to_ior()
    assert isinstance(cfg, IORConfig)
    assert (cfg.name, cfg.nprocs, cfg.start_time) == ("A", 50, 3.0)
    assert WorkloadSpec.from_ior(cfg) == spec
    # Validation runs eagerly (IORConfig's checks).
    with pytest.raises(ValueError):
        WorkloadSpec(name="bad", nprocs=0, pattern=Contiguous(block_size=1))


def test_experiment_spec_json_roundtrip():
    spec = ExperimentSpec.pair(
        grid5000_rennes(), w("A", 200), w("B", 100), dt=-5.0,
        strategy="fcfs", name="trip", meta={"split": 24})
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert again.meta == {"split": 24, "dt": -5.0}
    assert again.dt == -5.0
    # Negative dt shifted A, kept B at zero.
    assert again.workload("A").start_time == 5.0
    assert again.workload("B").start_time == 0.0


def test_experiment_spec_rejects_object_strategy_in_to_dict():
    from repro.core import DynamicStrategy
    spec = ExperimentSpec.pair(PLATFORM, w("A", 10), w("B", 10),
                               strategy=DynamicStrategy())
    with pytest.raises(TypeError):
        spec.to_dict()


def test_experiment_spec_validates_workloads():
    with pytest.raises(ValueError):
        ExperimentSpec(platform=PLATFORM, workloads=())
    with pytest.raises(ValueError):
        ExperimentSpec(platform=PLATFORM,
                       workloads=(w("x", 1), w("x", 2)))


def test_experiment_spec_rejects_unknown_arbiter_options():
    spec = ExperimentSpec(platform=PLATFORM, workloads=(w("x", 1),),
                          strategy="fcfs", arbiter={"decision_log_limit": 8})
    # A typo, and the removed batched/span_delay options, fail when the
    # spec is built, naming the accepted keys -- with or without a strategy.
    for bad in ({"batchd": False}, {"batched": False},
                {"span_delay": "hold"}):
        with pytest.raises(ValueError, match="decision_log_limit"):
            dataclasses.replace(spec, arbiter=bad)
        with pytest.raises(ValueError, match=sorted(bad)[0]):
            spec.with_(strategy=None, arbiter=bad)
    data = spec.to_dict()
    data["arbiter"] = {"decision_log_limit": 8, "batched": False}
    with pytest.raises(ValueError, match="batched"):
        ExperimentSpec.from_dict(data)
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_experiment_spec_accepts_raw_ior_configs():
    cfg = IORConfig(name="A", nprocs=5, pattern=Contiguous(block_size=100))
    spec = ExperimentSpec(platform=PLATFORM, workloads=(cfg,))
    assert isinstance(spec.workloads[0], WorkloadSpec)


# -- engine + executors ------------------------------------------------------

def _fig6_style_specs():
    """A miniature Fig 6 campaign: two size splits x a handful of dts."""
    specs = []
    for nb in (50, 200):
        for dt in (-50.0, 0.0, 100.0):
            specs.append(ExperimentSpec.pair(
                PLATFORM, w("A", 400 - nb), w("B", nb), dt=dt,
                meta={"split": nb}))
    return specs


def test_parallel_executor_matches_serial_exactly():
    serial = ExperimentEngine(SerialExecutor())
    parallel = ExperimentEngine(ParallelExecutor(max_workers=2))
    rs_serial = serial.run_all(_fig6_style_specs())
    rs_parallel = parallel.run_all(_fig6_style_specs())
    # Bit-identical result sets (worker pid excluded from equality)...
    assert rs_serial == rs_parallel
    # ...but the parallel one really ran in separate worker processes.
    assert all(pid != os.getpid() for pid in rs_parallel.worker_pids())
    assert all(pid == os.getpid() for pid in rs_serial.worker_pids())


def test_parallel_delta_graph_matches_serial():
    dts = [-100.0, 0.0, 100.0]
    g_serial = ExperimentEngine(SerialExecutor()).delta_graph(
        PLATFORM, w("A", 200), w("B", 200), dts)
    g_parallel = ExperimentEngine(ParallelExecutor(max_workers=2)).delta_graph(
        PLATFORM, w("A", 200), w("B", 200), dts)
    assert np.array_equal(g_serial.t_a, g_parallel.t_a)
    assert np.array_equal(g_serial.t_b, g_parallel.t_b)
    assert g_serial.t_alone_a == g_parallel.t_alone_a


def test_result_set_grouping_and_errors():
    engine = ExperimentEngine()
    rs = engine.run_all(_fig6_style_specs())
    groups = rs.group_by_meta("split")
    assert set(groups) == {50, 200}
    assert all(len(sub) == 3 for sub in groups.values())
    graphs = {nb: sub.delta_graph() for nb, sub in groups.items()}
    assert graphs[50].max_interference_b() > graphs[200].max_interference_b()
    with pytest.raises(ValueError):
        rs.filter(lambda r: False).delta_graph()   # empty
    with pytest.raises(ValueError):
        rs.delta_graph()                           # mixed (A, B) sizes
    mixed_policy = engine.run_all([
        ExperimentSpec.pair(PLATFORM, w("A", 100), w("B", 100), dt=0.0,
                            strategy=s)
        for s in (None, "fcfs")])
    with pytest.raises(ValueError):
        mixed_policy.delta_graph()                 # mixed strategies


# -- baseline cache ----------------------------------------------------------

def test_baseline_cache_shared_across_delta_sweep():
    cache = BaselineCache()
    engine = ExperimentEngine(cache=cache)
    engine.delta_graph(PLATFORM, w("A", 200), w("B", 100),
                       dts=[-50.0, 0.0, 50.0])
    # One baseline per distinct workload, not per dt.
    assert len(cache) == 2
    hits_after_first = cache.hits
    # A second sweep over the same workloads recomputes nothing.
    engine.delta_graph(PLATFORM, w("A", 200), w("B", 100), dts=[25.0, 75.0])
    assert len(cache) == 2
    assert cache.hits > hits_after_first
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0


def test_baseline_cache_key_normalizes_name_and_offset():
    engine = ExperimentEngine()
    t1 = engine.baseline(PLATFORM, w("x", 50))
    t2 = engine.baseline(PLATFORM, w("y", 50, start_time=17.0))
    assert t1 == t2
    assert len(engine.cache) == 1


def test_baseline_bypass_and_clear():
    engine = ExperimentEngine()
    t1 = engine.baseline(PLATFORM, w("solo", 50).to_ior())
    assert len(engine.cache) == 1
    t2 = engine.baseline(PLATFORM, w("solo", 50).to_ior(), use_cache=False)
    assert t1 == t2
    assert len(engine.cache) == 1  # bypass neither read nor wrote
    engine.cache.clear()
    assert len(engine.cache) == 0


def test_injected_caches_are_isolated():
    a, b = BaselineCache(), BaselineCache()
    ExperimentEngine(cache=a).baseline(PLATFORM, w("iso", 50))
    assert len(a) == 1 and len(b) == 0


def test_measure_alone_false_skips_baselines():
    engine = ExperimentEngine()
    spec = ExperimentSpec.pair(PLATFORM, w("A", 100), w("B", 100),
                               measure_alone=False)
    result = engine.run(spec)
    assert len(engine.cache) == 0
    assert result.record("A").t_alone is None


def test_baseline_spec_shape():
    spec = baseline_spec(PLATFORM, w("anything", 10, start_time=9.0))
    assert spec.workloads[0].name == "_alone"
    assert spec.workloads[0].start_time == 0.0
    assert not spec.measure_alone


# -- scenarios ---------------------------------------------------------------

def test_scenario_registry_lists_builtins():
    names = list_scenarios()
    for expected in ("rennes-big-small", "fig06-size-split",
                     "fig09-policies", "surveyor-four-files"):
        assert expected in names
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")


def test_scenarios_build_spec_lists():
    specs = build_scenario("fig06-size-split", sizes_b=(24,), dts=(0.0, 5.0))
    assert len(specs) == 2
    assert all(s.meta["split"] == 24 for s in specs)
    assert [s.dt for s in specs] == [0.0, 5.0]
    quick = build_scenario("rennes-big-small", dt=1.0, strategy="fcfs")
    assert len(quick) == 1 and quick[0].strategy == "fcfs"


def test_three_way_scenario_runs():
    engine = ExperimentEngine()
    result = engine.run(build_scenario("three-way-contention")[0])
    factors = result.interference_factors()
    assert set(factors) == {"a", "b", "c"}
    assert all(f > 1.5 for f in factors.values())


# -- uniform export ----------------------------------------------------------

def test_result_set_csv_and_json():
    engine = ExperimentEngine()
    specs = [ExperimentSpec.pair(PLATFORM, w("A", 200), w("B", 100), dt=dt,
                                 name="pairs")
             for dt in (0.0, 50.0)]
    rs = engine.run_all(specs)
    lines = result_set_csv(rs).strip().splitlines()
    assert lines[0].startswith("experiment,strategy,dt,app")
    assert len(lines) == 5   # header + 2 experiments x 2 apps
    assert lines[1].startswith("pairs,none,0,A,200")

    data = json.loads(result_set_json(rs))
    assert len(data["results"]) == 2
    first = data["results"][0]
    assert first["spec"]["meta"]["dt"] == 0.0
    assert set(first["records"]) == {"A", "B"}
    assert first["records"]["A"]["t_alone"] is not None


def test_multi_result_csv_keeps_zero_baseline():
    from repro.experiments import MultiResult
    from repro.experiments.runner import AppRecord
    records = {
        "zero": AppRecord(name="zero", nprocs=4, write_times=[2.0],
                          wait_times=[0.0], comm_times=[0.0],
                          io_write_times=[2.0], t_alone=0.0),
        "none": AppRecord(name="none", nprocs=8, write_times=[3.0],
                          wait_times=[0.0], comm_times=[0.0],
                          io_write_times=[3.0], t_alone=None),
    }
    lines = multi_result_csv(
        MultiResult(records=records, strategy=None)).strip().splitlines()
    by_app = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    # t_alone == 0.0 exports as 0 (not dropped); its factor is undefined.
    assert by_app["zero"][3] == "0"
    assert by_app["zero"][4] == MISSING
    # Missing baseline gets explicit markers in both cells.
    assert by_app["none"][3] == MISSING
    assert by_app["none"][4] == MISSING
