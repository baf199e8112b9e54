"""CALCioM — the paper's contribution: cross-application I/O coordination.

Public surface:

* :class:`CalciomRuntime` — per-machine entry point; builds sessions.
* :class:`CalciomSession` — per-application coordinator implementing the
  paper's ``Prepare/Inform/Check/Wait/Release/Complete`` API and the ADIO
  guard protocol.
* Strategies: interfere / FCFS-serialize / interrupt / dynamic.
* Metrics: CPU-seconds-wasted, sum of interference factors, max slowdown.
* Sharding: :class:`ShardRouter` / :class:`ArbiterShard` — one arbiter per
  file-system partition with an ordered-lock cross-shard protocol, inline
  or with one worker process per shard (``workers="process"``).
"""

from .api import CalciomRuntime
from .arbiter import AccessState, Arbiter, CoordinationRound, DecisionRecord
from .metrics import (
    AccessDescriptor, CpuSecondsWasted, DescriptorSetView, EfficiencyMetric,
    MaxSlowdown, SumInterferenceFactors, TotalIOTime, WaitingTotals,
    make_metric,
)
from .session import CalciomSession
from .sharding import ArbiterShard, ShardRouter, ShardWorkerError
from .strategies import (
    Action, Decision, DynamicStrategy, FCFSStrategy, InterfereStrategy,
    InterruptStrategy, Strategy, make_strategy,
)

__all__ = [
    "CalciomRuntime", "CalciomSession",
    "Arbiter", "AccessState", "CoordinationRound", "DecisionRecord",
    "ArbiterShard", "ShardRouter", "ShardWorkerError",
    "AccessDescriptor", "DescriptorSetView", "WaitingTotals",
    "EfficiencyMetric", "CpuSecondsWasted",
    "SumInterferenceFactors", "MaxSlowdown", "TotalIOTime", "make_metric",
    "Strategy", "InterfereStrategy", "FCFSStrategy", "InterruptStrategy",
    "DynamicStrategy", "Action", "Decision", "make_strategy",
]
