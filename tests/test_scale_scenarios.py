"""The many-application trace scenarios and the perf-instrumented results."""

import pytest

from repro.experiments import (
    ExperimentEngine, ExperimentSpec, build_scenario, get_scenario,
    replay_spec,
)
from repro.platforms import grid5000_rennes
from repro.traces import IntrepidModel, generate_intrepid_like


@pytest.fixture(scope="module")
def engine():
    return ExperimentEngine()


def test_many_writers_builds_requested_population():
    spec, = build_scenario("many-writers", napps=50, nservers=8)
    assert len(spec.workloads) == 50
    assert spec.meta["napps"] == 50
    assert spec.platform.pool_servers is False
    # Deterministic: the same seed yields the same campaign.
    again, = build_scenario("many-writers", napps=50, nservers=8)
    assert again == spec


def test_many_writers_runs_under_strategies(engine):
    for strategy in (None, "fcfs", "interrupt"):
        spec, = build_scenario("many-writers", napps=10, nservers=4,
                               strategy=strategy, phases=2)
        result = engine.run(spec)
        assert len(result.records) == 10
        assert result.makespan > 0
        for record in result.records.values():
            assert len(record.write_times) == 2


def test_swf_replay_scenario_reaches_scale(engine):
    spec, = build_scenario("swf-replay", napps=60, hours=3.0)
    assert 50 <= len(spec.workloads) <= 60
    assert spec.meta["scenario"] == "swf-replay"
    result = engine.run(spec)
    assert len(result.records) == len(spec.workloads)


def test_replay_spec_round_trips_through_json():
    trace = generate_intrepid_like(
        model=IntrepidModel(duration_days=1.0, jobs_per_hour=30.0), seed=3)
    spec = replay_spec(grid5000_rennes(), trace, window=(0.0, 4 * 3600.0),
                       max_jobs=20, measure_alone=False)
    clone = ExperimentSpec.from_json(spec.to_json())
    assert clone == spec


def test_experiment_results_carry_perf_counters(engine):
    spec, = build_scenario("many-writers", napps=6, nservers=3, phases=1)
    result = engine.run(spec)
    perf = result.perf
    assert perf["events_processed"] > 0
    assert perf["rate_recomputations"] > 0
    assert perf["flows_touched"] >= perf["rate_recomputations"]
    assert perf["flow_starts"] == perf["flow_completions"]
    assert perf["pfs_writes"] > 0
    assert perf["io_requests"] >= perf["pfs_writes"]
    assert perf["wall_seconds"] > 0


def test_result_set_total_perf_sums_campaign(engine):
    specs = [build_scenario("many-writers", napps=4, nservers=2, phases=1,
                            seed=s)[0] for s in (1, 2)]
    rs = engine.run_all(specs)
    total = rs.total_perf()
    assert total["flow_starts"] == sum(r.perf["flow_starts"] for r in rs)
    assert total["wall_seconds"] > 0


def test_scenario_descriptions_mention_scale():
    assert "50-500" in get_scenario("many-writers").description
    assert "50-500" in get_scenario("swf-replay").description


# -- Fig 1-style per-job I/O sampling (swf-replay realism) --------------------

def test_swf_replay_samples_patterns_and_volumes():
    spec, = build_scenario("swf-replay", napps=40, hours=3.0)
    kinds = {type(w.pattern).__name__ for w in spec.workloads}
    assert kinds == {"Contiguous", "Strided"}  # a mixed population
    volumes = {w.pattern.block_size * getattr(w.pattern, "nblocks", 1)
               for w in spec.workloads}
    assert len(volumes) > len(spec.workloads) // 2  # volumes vary per job
    # Sampling is deterministic: same seed, same population.
    again, = build_scenario("swf-replay", napps=40, hours=3.0)
    assert again == spec


def test_swf_replay_uniform_population_on_request():
    spec, = build_scenario("swf-replay", napps=20, hours=3.0,
                           sampled_io=False, bytes_per_process=1_000_000)
    for w in spec.workloads:
        assert type(w.pattern).__name__ == "Contiguous"
        assert w.pattern.block_size == 1_000_000


def test_job_io_model_sampling_is_per_job_deterministic():
    import numpy as np

    from repro.traces import JobIOModel

    model = JobIOModel()
    a1 = model.sample(np.random.default_rng((3, 17)), nprocs=8)
    a2 = model.sample(np.random.default_rng((3, 17)), nprocs=8)
    assert a1 == a2
    volumes = [model.sample_volume(np.random.default_rng((3, j)), 8)
               for j in range(200)]
    assert model.min_bytes <= min(volumes) <= max(volumes) <= model.max_bytes
    # Lognormal spread: the population is genuinely heterogeneous.
    assert max(volumes) / min(volumes) > 5
