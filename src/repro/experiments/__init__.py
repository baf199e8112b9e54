"""Experiment harness: declarative specs, pluggable engines, Δ-graphs.

The declarative API (:class:`ExperimentSpec` + :class:`ExperimentEngine`)
is the only path: describe a campaign as data, run it through a serial
or process-parallel executor, and get a uniform :class:`ResultSet`.
"""

from .deltagraph import DeltaGraph
from .engine import (
    BaselineCache, Executor, ExperimentEngine, ExperimentResult,
    ParallelExecutor, ResultSet, SerialExecutor, default_engine,
)
from .expected import TwoFlowModel, expected_delta_curve, expected_pair_times
from .export import (
    delta_graph_csv, multi_result_csv, result_set_csv, result_set_json,
)
from .interference import (
    cpu_seconds_wasted, efficiency_summary, interference_factor,
    sum_interference_factors,
)
from .multi import MultiResult
from .replay import (
    ReplayPlan, plan_replay, replay_result, replay_spec, replay_trace,
)
from .reporting import banner, format_series, format_table, sparkline
from .runner import AppRecord, PairResult, run_single
from .scenarios import (
    Scenario, build_scenario, get_scenario, list_scenarios,
    register_scenario,
)
from .spec import (
    ExperimentSpec, WorkloadSpec, pattern_from_dict, pattern_to_dict,
    platform_from_dict, platform_to_dict,
)
from .sweeps import split_pairs

__all__ = [
    # declarative API
    "ExperimentSpec", "WorkloadSpec",
    "pattern_to_dict", "pattern_from_dict",
    "platform_to_dict", "platform_from_dict",
    "ExperimentEngine", "ExperimentResult", "ResultSet",
    "Executor", "SerialExecutor", "ParallelExecutor",
    "BaselineCache", "default_engine",
    # scenarios
    "Scenario", "register_scenario", "get_scenario", "build_scenario",
    "list_scenarios",
    # Δ-graphs and analytics
    "DeltaGraph",
    "TwoFlowModel", "expected_pair_times", "expected_delta_curve",
    "interference_factor", "sum_interference_factors", "cpu_seconds_wasted",
    "efficiency_summary",
    # result shapes, single runs and trace replay
    "AppRecord", "PairResult", "run_single",
    "MultiResult", "ReplayPlan", "plan_replay", "replay_spec",
    "replay_result", "replay_trace",
    # export and reporting
    "delta_graph_csv", "multi_result_csv", "result_set_csv",
    "result_set_json",
    "split_pairs",
    "format_table", "format_series", "sparkline", "banner",
]
