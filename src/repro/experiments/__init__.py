"""Experiment harness: declarative specs, pluggable engines, Δ-graphs.

The declarative API is the only path.  Describe each application as an
:class:`~repro.apps.IORConfig` and each run as an
:class:`ExperimentSpec` (a platform, the workloads, a strategy); run a
campaign of specs through an :class:`ExperimentEngine` with a serial or
process-parallel executor.  Every run yields one
:class:`ExperimentResult`, and a campaign one :class:`ResultSet`, whether
it holds a single application, a Δ-graph pair or a whole trace window.
"""

from .deltagraph import DeltaGraph
from .engine import (
    BaselineCache, Executor, ExperimentEngine, ExperimentResult,
    ParallelExecutor, ResultSet, SerialExecutor, default_engine,
)
from .export import delta_graph_csv, result_set_csv, result_set_json
from .interference import (
    cpu_seconds_wasted, efficiency_summary, interference_factor,
    sum_interference_factors,
)
from .replay import ReplayPlan, plan_replay, replay_result, replay_spec
from .reporting import banner, format_series, format_table, sparkline
from .runner import AppRecord
from .scenarios import (
    Scenario, build_scenario, get_scenario, list_scenarios,
    register_scenario,
)
from .spec import (
    ExperimentSpec, pattern_from_dict, pattern_to_dict, platform_from_dict,
    platform_to_dict, workload_from_dict, workload_to_dict,
)
from .sweeps import split_pairs

__all__ = [
    # declarative API
    "ExperimentSpec",
    "pattern_to_dict", "pattern_from_dict",
    "platform_to_dict", "platform_from_dict",
    "workload_to_dict", "workload_from_dict",
    "ExperimentEngine", "ExperimentResult", "ResultSet", "AppRecord",
    "Executor", "SerialExecutor", "ParallelExecutor",
    "BaselineCache", "default_engine",
    # scenarios
    "Scenario", "register_scenario", "get_scenario", "build_scenario",
    "list_scenarios",
    # Δ-graphs and analytics
    "DeltaGraph",
    "interference_factor", "sum_interference_factors", "cpu_seconds_wasted",
    "efficiency_summary",
    # trace replay
    "ReplayPlan", "plan_replay", "replay_spec", "replay_result",
    # export and reporting
    "delta_graph_csv", "result_set_csv", "result_set_json",
    "split_pairs",
    "format_table", "format_series", "sparkline", "banner",
]
