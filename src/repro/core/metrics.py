"""Machine-wide efficiency metrics.

The paper's central argument is that per-application "fairness" is the
wrong objective: scheduling decisions should optimize *a specified metric
of machine-wide efficiency* (§I, §III-A.4).  A metric here maps predicted
per-application I/O times to a scalar cost; strategies pick the option with
the lowest predicted cost.

Implemented metrics:

* :class:`CpuSecondsWasted` — f = Σ N_X · T_X, the paper's Fig 11 metric
  ("total number of CPU hours wasted in I/O phases").
* :class:`SumInterferenceFactors` — f = Σ T_X / T_X(alone), the §III-A.4
  example (avoids small apps being crushed by big ones).
* :class:`MaxSlowdown` — f = max T_X / T_X(alone), a fairness-flavoured
  alternative for the metric-choice ablation.
* :class:`TotalIOTime` — f = Σ T_X, size-blind (what a naive scheduler
  would optimize).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "AccessDescriptor", "DescriptorSetView", "WaitingTotals",
    "EfficiencyMetric", "CpuSecondsWasted", "SumInterferenceFactors",
    "MaxSlowdown", "TotalIOTime", "make_metric",
]


@dataclass
class AccessDescriptor:
    """What CALCioM knows about one application's current/pending access.

    Every field is *exchanged information* (via ``Prepare``/``Inform``) or
    derived from it — never oracle simulator state.  That constraint is a
    design principle of the paper: CALCioM only provides the means by which
    applications communicate.
    """

    app: str                      #: application name
    nprocs: int                   #: cores behind the access
    total_bytes: float            #: bytes the access intends to move
    t_alone: float                #: estimated standalone duration, s
    remaining_bytes: float = 0.0  #: bytes not yet written
    access_started: Optional[float] = None  #: time the access began, if it has
    files: int = 1                #: files in the access
    rounds: int = 1               #: collective-buffering rounds
    #: File-system partitions the access targets (exchanged knowledge like
    #: everything else here).  The :class:`~repro.core.sharding.ShardRouter`
    #: routes Inform/Release to the arbiter shard(s) owning these; on
    #: unpartitioned machines every access targets partition 0.
    partitions: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.remaining_bytes == 0.0:
            self.remaining_bytes = self.total_bytes

    @property
    def remaining_t(self) -> float:
        """Estimated standalone time to finish the remaining bytes."""
        if self.total_bytes <= 0:
            return 0.0
        return self.t_alone * (self.remaining_bytes / self.total_bytes)

    def copy(self) -> "AccessDescriptor":
        return AccessDescriptor(
            app=self.app, nprocs=self.nprocs, total_bytes=self.total_bytes,
            t_alone=self.t_alone, remaining_bytes=self.remaining_bytes,
            access_started=self.access_started, files=self.files,
            rounds=self.rounds, partitions=self.partitions,
        )


class DescriptorSetView:
    """Live, read-only view over one of the arbiter's app-name indexes.

    Strategies receive these instead of materialized descriptor lists: the
    arbiter no longer copies its state per decision, and truthiness/length
    checks (the whole of FCFS's work) are O(1).  The view is *live* — it
    always reflects the arbiter's current indexes, which is what makes the
    lazily-pulled :meth:`~repro.core.strategies.Strategy.decide_batch`
    protocol correct: a decision applied mid-batch is visible to the next
    ``decide`` call through the same view objects.

    Iteration yields :class:`AccessDescriptor`\\ s in the index's canonical
    order (first-decision order for actives, FIFO arrival order for
    waiters), matching what the old list-building arbiter produced.

    Running aggregates
    ------------------
    With ``track_totals=True`` the view additionally maintains the
    :class:`WaitingTotals` deep-backlog strategies need (Σ ``t_alone``,
    Σ ``nprocs * t_alone``, count of positive ``t_alone``) so a decision
    under an n-deep waiting queue costs O(1) instead of O(n).  The owner
    of the underlying index reports mutations through :meth:`note_append`
    / :meth:`note_remove`.  Exactness discipline: appends *extend* the
    cached left-to-right float fold (bit-identical to re-summing the
    grown queue in FIFO order), while any removal drops the cache so the
    next read recomputes a fresh fold — the cached values are therefore
    always bit-identical to ``sum(... for d in view)``, which is what
    keeps indexed-arbiter decision costs equal to the unbatched oracle's.
    """

    __slots__ = ("_names", "_descriptors", "_sort_key", "_totals")

    def __init__(self, names, descriptors: Mapping[str, AccessDescriptor],
                 sort_key: Optional[Callable[[str], int]] = None,
                 track_totals: bool = False):
        self._names = names          #: live container of app names
        self._descriptors = descriptors
        self._sort_key = sort_key    #: None = container iteration order
        self._totals: Optional["WaitingTotals"] = None
        if track_totals:
            self._totals = WaitingTotals()
            self._totals.valid = False

    def _ordered_names(self) -> List[str]:
        if self._sort_key is None:
            return list(self._names)
        return sorted(self._names, key=self._sort_key)

    def names(self) -> List[str]:
        """App names in canonical order (a fresh list, safe to keep)."""
        return self._ordered_names()

    def __iter__(self) -> Iterator[AccessDescriptor]:
        descriptors = self._descriptors
        return (descriptors[name] for name in self._ordered_names())

    def __len__(self) -> int:
        return len(self._names)

    def __bool__(self) -> bool:
        return len(self._names) > 0

    def __getitem__(self, index):
        # O(k log k): views are made for iteration; indexing materializes.
        return list(self)[index]

    # -- running aggregates (track_totals=True views) ----------------------
    def note_append(self, descriptor: AccessDescriptor) -> None:
        """The underlying index appended ``descriptor``'s app at the back."""
        totals = self._totals
        if totals is not None and totals.valid:
            totals.add(descriptor)

    def note_remove(self) -> None:
        """The underlying index removed an app (any position): drop cache."""
        if self._totals is not None:
            self._totals.valid = False

    def totals(self) -> "WaitingTotals":
        """Current :class:`WaitingTotals` — O(1) when cached, else a fresh
        FIFO-order fold over the view (then cached if tracking)."""
        totals = self._totals
        if totals is not None and totals.valid:
            return totals
        fresh = WaitingTotals.fold(self)
        if totals is not None:
            self._totals = fresh
        return fresh

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DescriptorSetView {self._ordered_names()!r}>"


@dataclass
class WaitingTotals:
    """Backlog aggregates of a waiting queue, in FIFO fold order.

    Every waiting application is predicted to run for its own ``t_alone``
    under *any* option a strategy evaluates (it is already queued; the
    option only reorders actives and the incoming access), so the queue's
    contribution to backlog and to every decomposable metric reduces to
    these three numbers.  ``fold`` computes them left-to-right exactly as
    the historical per-decision ``sum(...)`` scans did, which is what lets
    cached and fresh values compare bit-identical.
    """

    t_alone: float = 0.0         #: Σ t_alone over the queue
    nprocs_t_alone: float = 0.0  #: Σ nprocs * t_alone (CPU-seconds weight)
    positive: int = 0            #: queue members with t_alone > 0
    count: int = 0               #: queue length
    valid: bool = field(default=True, compare=False)

    @classmethod
    def fold(cls, waiting) -> "WaitingTotals":
        totals = cls()
        for d in waiting:
            totals.add(d)
        return totals

    def add(self, d: AccessDescriptor) -> None:
        """Extend the fold with one descriptor appended at the back."""
        self.t_alone += d.t_alone
        self.nprocs_t_alone += d.nprocs * d.t_alone
        if d.t_alone > 0:
            self.positive += 1
        self.count += 1


class EfficiencyMetric(ABC):
    """Scalar cost of a predicted outcome; lower is better.

    Decomposition contract (O(1) deep-backlog support)
    --------------------------------------------------
    Waiting applications are predicted at their own ``t_alone`` under every
    option, so a metric's cost splits as ``combine(cost(rest),
    waiting_part)``: :meth:`alone_cost` answers ``waiting_part`` from a
    queue's :class:`WaitingTotals` instead of folding the whole queue per
    option.  Every metric implements it; the whole-population evaluation
    it replaces lives in :mod:`repro.oracles`.
    """

    name: str = "metric"

    @abstractmethod
    def cost(self, predicted_io_times: Dict[str, float],
             descriptors: Dict[str, AccessDescriptor]) -> float:
        """Cost of an option.

        Parameters
        ----------
        predicted_io_times:
            app -> predicted total I/O-phase time (including any waiting)
            under the option being evaluated.
        descriptors:
            app -> exchanged knowledge (for weights and t_alone baselines).
        """

    @abstractmethod
    def alone_cost(self, totals: WaitingTotals) -> float:
        """Cost contribution of apps predicted at their own ``t_alone``,
        from queue aggregates alone."""

    def combine(self, a: float, b: float) -> float:
        """Fold two disjoint cost contributions (sum-like by default)."""
        return a + b


class CpuSecondsWasted(EfficiencyMetric):
    """f = Σ N_X · T_X — CPU time not spent on science (paper Fig 11)."""

    name = "cpu-seconds-wasted"

    def cost(self, predicted_io_times, descriptors):
        return sum(descriptors[app].nprocs * t
                   for app, t in predicted_io_times.items())

    def alone_cost(self, totals):
        return totals.nprocs_t_alone


class SumInterferenceFactors(EfficiencyMetric):
    """f = Σ T_X / T_X(alone) — §III-A.4's example objective."""

    name = "sum-interference-factors"

    def cost(self, predicted_io_times, descriptors):
        total = 0.0
        for app, t in predicted_io_times.items():
            t_alone = descriptors[app].t_alone
            total += t / t_alone if t_alone > 0 else 0.0
        return total

    def alone_cost(self, totals):
        # Each waiting app contributes t_alone / t_alone = 1 (when defined).
        return float(totals.positive)


class MaxSlowdown(EfficiencyMetric):
    """f = max_X T_X / T_X(alone) — bounds the worst-treated application."""

    name = "max-slowdown"

    def cost(self, predicted_io_times, descriptors):
        worst = 0.0
        for app, t in predicted_io_times.items():
            t_alone = descriptors[app].t_alone
            if t_alone > 0:
                worst = max(worst, t / t_alone)
        return worst

    def alone_cost(self, totals):
        return 1.0 if totals.positive else 0.0

    def combine(self, a, b):
        return max(a, b)


class TotalIOTime(EfficiencyMetric):
    """f = Σ T_X — ignores application size entirely."""

    name = "total-io-time"

    def cost(self, predicted_io_times, descriptors):
        return sum(predicted_io_times.values())

    def alone_cost(self, totals):
        return totals.t_alone


_METRICS = {
    cls.name: cls
    for cls in (CpuSecondsWasted, SumInterferenceFactors, MaxSlowdown,
                TotalIOTime)
}


def make_metric(spec) -> EfficiencyMetric:
    """Build a metric from a name, class, or instance."""
    if isinstance(spec, EfficiencyMetric):
        return spec
    if isinstance(spec, str):
        try:
            return _METRICS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown metric {spec!r}; choose from {sorted(_METRICS)}"
            ) from None
    if isinstance(spec, type) and issubclass(spec, EfficiencyMetric):
        return spec()
    raise TypeError(f"cannot build a metric from {spec!r}")
