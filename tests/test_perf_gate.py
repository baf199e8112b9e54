"""The CI perf-regression gate over BENCH_*.json records.

The gate compares *achieved speedups* (optimized path vs retained oracle,
measured within one run on one machine) rather than raw wall-clock, so a
committed record from one machine gates a CI runner without tripping on
hardware speed; a >2x wall-clock regression of the optimized path alone
shows up exactly as a >2x speedup collapse.
"""

import importlib.util
import pathlib

import pytest

_GATE = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / \
    "check_perf_regression.py"
_spec = importlib.util.spec_from_file_location("check_perf_regression", _GATE)
_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_gate)
check_perf_regression = _gate.check_perf_regression


def kernel_record(speedup, napps=200, wall=0.05):
    return {
        "benchmark": "scale_kernel",
        "config": {"napps": napps, "nservers": 40},
        "incremental": {"wall_seconds": wall, "events_processed": 5000},
        "global": {"wall_seconds": wall * speedup, "events_processed": 5000},
        "speedup": speedup,
    }


def arbiter_record(speedups_by_scale, phases=3, wall=0.01):
    return {
        "benchmark": "scale_arbiter",
        "config": {"scales": sorted(map(int, speedups_by_scale)),
                   "phases": phases, "rounds": 3, "strategy": "dynamic",
                   "full_scale": max(map(int, speedups_by_scale)) >= 500},
        "scales": {
            scale: {"batched": {"coord_seconds": wall,
                                "coord_decisions": 1000},
                    "unbatched": {"coord_seconds": wall * speedup,
                                  "coord_decisions": 1000},
                    "speedup": speedup}
            for scale, speedup in speedups_by_scale.items()
        },
    }


def test_kernel_gate_fails_on_speedup_collapse():
    ok, msg = check_perf_regression(kernel_record(80.0), kernel_record(200.0),
                                    "kernel")
    assert not ok and "collapse" in msg
    ok, _ = check_perf_regression(kernel_record(150.0), kernel_record(200.0),
                                  "kernel")
    assert ok


def test_kernel_gate_is_hardware_independent():
    # A 3x slower machine scales both paths' wall-clock equally: the
    # speedup is unchanged and the gate must pass.
    slow_machine = kernel_record(200.0, wall=0.15)
    ok, _ = check_perf_regression(slow_machine, kernel_record(200.0, wall=0.05),
                                  "kernel")
    assert ok


def test_kernel_gate_skips_on_differing_config():
    ok, msg = check_perf_regression(kernel_record(20.0, napps=60),
                                    kernel_record(200.0, napps=200), "kernel")
    assert ok and "skipping gate" in msg


def test_kernel_gate_skips_missing_base_speedup_loudly():
    """A record without a speedup must skip the gate with a message, not
    KeyError."""
    fresh = {"benchmark": "scale_kernel",
             "config": {"napps": 200, "nservers": 40}}
    ok, msg = check_perf_regression(fresh, kernel_record(200.0), "kernel")
    assert ok and "lacks the speedup" in msg


def test_arbiter_gate_uses_largest_common_scale():
    committed = arbiter_record({"100": 2.0, "500": 8.0, "1000": 15.0})
    fresh = arbiter_record({"60": 1.5, "100": 1.9})
    ok, msg = check_perf_regression(fresh, committed, "arbiter")
    assert ok and "arbiter@100" in msg
    collapsed = arbiter_record({"60": 1.0, "100": 0.9})
    ok, msg = check_perf_regression(collapsed, committed, "arbiter")
    assert not ok and "arbiter@100" in msg


def test_arbiter_gate_skips_on_disjoint_scales():
    ok, msg = check_perf_regression(arbiter_record({"60": 1.5}),
                                    arbiter_record({"500": 8.0}), "arbiter")
    assert ok and "no scale" in msg


def test_arbiter_gate_skips_on_differing_workload_parameters():
    # Same scale but different phases-per-app: speedups not comparable.
    ok, msg = check_perf_regression(arbiter_record({"100": 1.0}, phases=9),
                                    arbiter_record({"100": 2.0}, phases=3),
                                    "arbiter")
    assert ok and "not comparable" in msg


def shard_record(speedups, phases=3, wall=0.01):
    """``speedups``: {scale: {nshards: speedup}} (1-shard baseline = 1.0)."""
    return {
        "benchmark": "scale_shards",
        "config": {"scales": sorted(map(int, speedups)),
                   "shard_counts": [1, 4, 8], "npartitions": 8,
                   "phases": phases, "dt_arrival": 0.05,
                   "strategy": "fcfs-audited",
                   "full_scale": max(map(int, speedups)) >= 1000},
        "scales": {
            scale: {
                nshards: {"perf": {"coord_seconds": wall / speedup,
                                   "coord_decisions": 3000},
                          "speedup": speedup,
                          "mean_waiting_depth": 100.0}
                for nshards, speedup in per_shardcount.items()
            }
            for scale, per_shardcount in speedups.items()
        },
    }


def test_shard_gate_uses_largest_common_scale_and_shard_count():
    committed = shard_record({"500": {"1": 1.0, "8": 3.0},
                              "1000": {"1": 1.0, "8": 4.5}})
    fresh = shard_record({"500": {"1": 1.0, "8": 2.8},
                          "1000": {"1": 1.0, "8": 4.0}})
    ok, msg = check_perf_regression(fresh, committed, "shard")
    assert ok and "shard@1000x8" in msg
    collapsed = shard_record({"1000": {"1": 1.0, "8": 1.5}})
    ok, msg = check_perf_regression(collapsed, committed, "shard")
    assert not ok and "shard@1000x8" in msg


def process_subrecord(speedup_cpu, cores=8, napps=2000):
    return {
        "config": {"napps": napps, "nshards": 8, "dt_wave": 0.01,
                   "phases": 3, "strategy": "fcfs-wave-audit",
                   "cores": cores, "full_scale": napps >= 2000},
        "inline": {"coord_seconds": 3.0, "coord_wall_seconds": 3.0},
        "process": {"coord_seconds": 3.0 / speedup_cpu,
                    "coord_wall_seconds": 3.0 / speedup_cpu},
        "speedup_wall": speedup_cpu,
        "speedup_cpu": speedup_cpu,
    }


def test_shard_gate_process_subrecord():
    committed = shard_record({"1000": {"1": 1.0, "8": 4.0}})
    committed["process"] = process_subrecord(2.0, cores=8)
    # CPU speedup collapse fails the gate even when the main regime holds.
    fresh = shard_record({"1000": {"1": 1.0, "8": 4.0}})
    fresh["process"] = process_subrecord(0.5, cores=1)
    ok, msg = check_perf_regression(fresh, committed, "shard")
    assert not ok and "shard-process" in msg
    # A matching speedup passes — core count is ignored for comparability
    # (CPU seconds are hardware-stable; only wall-clock depends on cores).
    fresh["process"] = process_subrecord(1.8, cores=1)
    ok, msg = check_perf_regression(fresh, committed, "shard")
    assert ok and "shard@1000x8" in msg
    # A different wave workload skips the sub-gate, not the whole gate.
    fresh["process"] = process_subrecord(0.5, napps=400)
    ok, msg = check_perf_regression(fresh, committed, "shard")
    assert ok and "shard@1000x8" in msg
    # Records without the sub-record (pre-process-mode) still gate.
    del fresh["process"]
    ok, msg = check_perf_regression(fresh, committed, "shard")
    assert ok and "shard@1000x8" in msg


def test_shard_gate_skips_on_mismatches():
    ok, msg = check_perf_regression(shard_record({"250": {"1": 1.0, "8": 2.0}}),
                                    shard_record({"1000": {"1": 1.0, "8": 4.0}}),
                                    "shard")
    assert ok and "no scale" in msg
    ok, msg = check_perf_regression(
        shard_record({"1000": {"1": 1.0, "8": 2.0}}, phases=9),
        shard_record({"1000": {"1": 1.0, "8": 4.0}}, phases=3), "shard")
    assert ok and "not comparable" in msg
    # Reduced smoke scales (a config-list subset) still gate: the scale
    # list itself is ignored, only per-scale workload parameters matter.
    ok, msg = check_perf_regression(
        shard_record({"500": {"1": 1.0, "8": 2.9}, "1000": {"1": 1.0, "8": 4.2}}),
        shard_record({"500": {"1": 1.0, "8": 3.0}, "1000": {"1": 1.0, "8": 4.5},
                      "2000": {"1": 1.0, "8": 6.0}}),
        "shard")
    assert ok and "shard@1000x8" in msg


def service_record(speedups_by_clients, napps=32, phases=3):
    """``speedups_by_clients``: {nclients: over-the-wire/in-process ratio}."""
    return {
        "benchmark": "scale_service",
        "config": {"napps": napps, "nservers": 8, "phases": phases,
                   "strategy": "fcfs", "seed": 1,
                   "scales": sorted(map(int, speedups_by_clients)),
                   "full_scale": max(map(int, speedups_by_clients)) >= 8},
        "scales": {
            nclients: {"speedup": speedup,
                       "service_rate": 3000.0 * speedup,
                       "inproc_rate": 3000.0,
                       "p50_latency_s": 1e-4, "p99_latency_s": 2e-3,
                       "decisions": 96, "exchanges": 480,
                       "wall_seconds": 0.03,
                       "identical_decision_log": True}
            for nclients, speedup in speedups_by_clients.items()
        },
    }


def test_service_gate_uses_largest_common_client_count():
    committed = service_record({"1": 0.55, "4": 0.52, "8": 0.48})
    fresh = service_record({"1": 0.50, "4": 0.45})
    ok, msg = check_perf_regression(fresh, committed, "service")
    assert ok and "service@4" in msg
    collapsed = service_record({"1": 0.50, "4": 0.20})
    ok, msg = check_perf_regression(collapsed, committed, "service")
    assert not ok and "service@4" in msg and "collapse" in msg


def test_service_gate_skips_on_mismatches():
    ok, msg = check_perf_regression(service_record({"2": 0.5}),
                                    service_record({"8": 0.5}), "service")
    assert ok and "no scale" in msg
    ok, msg = check_perf_regression(service_record({"8": 0.5}, napps=64),
                                    service_record({"8": 0.5}, napps=32),
                                    "service")
    assert ok and "not comparable" in msg


def codec_subrecord(speedup, nclients=8, napps=32, phases=3):
    """The binary-vs-JSON codec sub-record of ``BENCH_service.json``."""
    return {
        "config": {"napps": napps, "nservers": 8, "phases": phases,
                   "strategy": "fcfs", "seed": 1, "nclients": nclients,
                   "json_pipeline": 1, "binary_pipeline": 64},
        "speedup": speedup,
        "json_rate": 5000.0,
        "binary_rate": 5000.0 * speedup,
        "identical_decision_log": True,
    }


def test_service_codec_subgate_fails_on_collapse():
    committed = service_record({"8": 0.5})
    committed["codec"] = codec_subrecord(2.4)
    fresh = service_record({"8": 0.5})
    fresh["codec"] = codec_subrecord(2.2)
    ok, msg = check_perf_regression(fresh, committed, "service")
    assert ok
    fresh["codec"] = codec_subrecord(1.0)
    ok, msg = check_perf_regression(fresh, committed, "service")
    assert not ok and "service-codec" in msg and "collapse" in msg


def test_service_codec_subgate_skips_loudly_when_one_sided():
    committed = service_record({"8": 0.5})
    fresh = service_record({"8": 0.5})
    fresh["codec"] = codec_subrecord(2.4)
    ok, msg = check_perf_regression(fresh, committed, "service")
    assert ok and "service-codec" in msg and "lacks the sub-record" in msg
    ok, msg = check_perf_regression(committed, fresh, "service")
    assert ok and "service-codec" in msg and "lacks the sub-record" in msg


def test_service_codec_subgate_skips_on_differing_workload():
    committed = service_record({"8": 0.5})
    committed["codec"] = codec_subrecord(2.4, nclients=8)
    fresh = service_record({"8": 0.5})
    fresh["codec"] = codec_subrecord(1.0, nclients=4)
    ok, msg = check_perf_regression(fresh, committed, "service")
    assert ok and "service-codec" in msg and "differ" in msg


def test_custom_factor_and_unknown_kind():
    fresh, committed = kernel_record(150.0), kernel_record(200.0)
    ok, _ = check_perf_regression(fresh, committed, "kernel", factor=1.2)
    assert not ok
    ok, _ = check_perf_regression(fresh, committed, "kernel", factor=2.0)
    assert ok
    with pytest.raises(ValueError, match="unknown benchmark kind"):
        check_perf_regression(fresh, committed, "frobnicator")


def sim_record(speedups_by_scale, slots=64):
    return {
        "dispatch": {
            "benchmark": "scale_sim_dispatch",
            "config": {"slots": slots, "churn": 8, "wave_width": 512,
                       "wave_depth": 4, "seed": 1,
                       "full_scale": max(map(int, speedups_by_scale)) >= 10**6,
                       "scales": sorted(speedups_by_scale, key=float)},
            "scales": {
                scale: {"oracle_wall": 1.0 * speedup, "heap_wall": 1.0,
                        "speedup": speedup}
                for scale, speedup in speedups_by_scale.items()
            },
            "identical_decision_logs": True,
        },
    }


def test_sim_gate_uses_largest_common_scale():
    committed = sim_record({"10000": 2.1, "100000": 2.8, "1000000": 3.4})
    # Reduced smoke config: compare at the largest scale both sides ran.
    fresh_ok = sim_record({"10000": 2.0, "100000": 2.7})
    ok, msg = check_perf_regression(fresh_ok, committed, "sim")
    assert ok and "sim-dispatch@100000" in msg
    fresh_bad = sim_record({"10000": 2.0, "100000": 1.1})
    ok, msg = check_perf_regression(fresh_bad, committed, "sim")
    assert not ok and "sim-dispatch@100000" in msg


def test_sim_gate_skips_loudly_on_one_sided_regime():
    """A BENCH_sim.json that predates (or postdates) the dispatch regime
    on one side must skip with a note, not KeyError."""
    committed = sim_record({"1000000": 3.4})
    fresh = {"dispatch": {}}
    ok, msg = check_perf_regression(fresh, committed, "sim")
    assert ok and "sim-dispatch" in msg and "lacks the regime" in msg
    ok, msg = check_perf_regression(committed, fresh, "sim")
    assert ok and "sim-dispatch" in msg and "lacks the regime" in msg
    ok, msg = check_perf_regression({"dispatch": {}}, {"dispatch": {}}, "sim")
    assert ok and "neither record has the regime" in msg


def test_sim_gate_skips_on_mismatches():
    committed = sim_record({"1000000": 3.4})
    # Disjoint scales: nothing comparable.
    ok, msg = check_perf_regression(sim_record({"10000": 2.0}),
                                    committed, "sim")
    assert ok and "share no scale" in msg
    # Differing workload shape: speedups are not comparable.
    ok, msg = check_perf_regression(sim_record({"1000000": 1.0}, slots=8),
                                    committed, "sim")
    assert ok and "workload parameters differ" in msg
    # Scale list / full_scale flag alone must NOT trip the config check —
    # that is exactly what a reduced CI smoke run looks like.
    fresh = sim_record({"10000": 2.0, "1000000": 3.3})
    ok, msg = check_perf_regression(fresh, committed, "sim")
    assert ok and "sim-dispatch@1000000" in msg
