"""CALCioM scheduling strategies.

§III-A of the paper names four ways to handle a newly arriving I/O access
while others run: let them **interfere**, **serialize** behind the running
one (FCFS), **interrupt** the running one, or pick **dynamically** using a
machine-wide efficiency metric.  A strategy sees only exchanged
:class:`~repro.core.metrics.AccessDescriptor` information and returns a
:class:`Decision` for the arbiter to enforce.

The dynamic strategy implements the paper's §IV-D cost comparison exactly:
with equal core counts and B arriving dt after A, interrupting A wins iff
``dt < T_A(alone) - T_B(alone)`` — and the general weighted form
``N_A · T_B < N_B · (T_A - dt)`` otherwise.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence

from .metrics import (
    AccessDescriptor, CpuSecondsWasted, EfficiencyMetric, WaitingTotals,
    make_metric,
)

__all__ = [
    "Action", "Decision", "Strategy", "InterfereStrategy", "FCFSStrategy",
    "InterruptStrategy", "DynamicStrategy", "make_strategy",
]


def _capture_totals(waiting) -> WaitingTotals:
    """Waiting-queue aggregates: O(1) from a tracking view, else a fold."""
    totals = getattr(waiting, "totals", None)
    return totals() if totals is not None else WaitingTotals.fold(waiting)


def _accepts_preempted(fn) -> bool:
    """Whether a decide/decide_batch signature takes the preempted view.

    The preempted queue is newer than the strategy contract, so it rides
    in as an *optional* keyword: strategies that declare ``preempted``
    (or ``**kwargs``) receive the live view, everyone else keeps the
    historical four-argument call.
    """
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # pragma: no cover - builtins/oddities
        return False
    for p in sig.parameters.values():
        if p.name == "preempted" or p.kind is p.VAR_KEYWORD:
            return True
    return False


#: Per-class cache of whether ``decide`` accepts the preempted view.
_DECIDE_PREEMPTED: Dict[type, bool] = {}


class Action(Enum):
    """What the arbiter should do with an arriving access."""

    GO = "go"                #: authorize immediately (share the file system)
    WAIT = "wait"            #: queue until running accesses complete
    INTERRUPT = "interrupt"  #: preempt running accesses, then authorize
    DELAY = "delay"          #: hold for a fixed time, then share (Fig 12)


@dataclass
class Decision:
    """A strategy's verdict for one arriving access."""

    action: Action
    #: Apps whose authorization to revoke when ``action == INTERRUPT``
    #: (default: every currently active one).
    preempt: Optional[List[str]] = None
    #: Hold time in seconds when ``action == DELAY``.
    delay: float = 0.0
    #: Predicted metric costs per option, for logging/EXPERIMENTS.md.
    costs: Dict[str, float] = field(default_factory=dict)


class Strategy(ABC):
    """Policy mapping (running accesses, incoming access) to a decision.

    Contract: ``active`` and ``waiting`` are *read-only views* over the
    arbiter's live indexes (:class:`~repro.core.metrics.DescriptorSetView`)
    — iterable, sized, truth-testable, but not lists and never to be
    mutated.

    Strategies that price deep preemption stacks can additionally declare
    a ``preempted`` keyword on :meth:`decide` (or :meth:`decide_batch`) to
    receive a read-only view of the preempted queue, in preemption order.
    Built-ins ignore it — their decisions are unchanged — but §IV-D-style
    cost models can use it to see the work an INTERRUPT would stack on.
    """

    name: str = "strategy"

    @abstractmethod
    def decide(self, now: float, active: Sequence[AccessDescriptor],
               waiting: Sequence[AccessDescriptor],
               incoming: AccessDescriptor) -> Decision:
        """Decide what to do with ``incoming`` at time ``now``."""

    def decide_batch(self, now: float, active: Sequence[AccessDescriptor],
                     waiting: Sequence[AccessDescriptor],
                     incomings: Sequence[AccessDescriptor],
                     preempted: Sequence[AccessDescriptor] = (),
                     ) -> Iterable[Decision]:
        """Decide a whole :class:`~repro.core.arbiter.CoordinationRound`.

        Called once per batch of same-timestamp fresh informs, in arrival
        order.  The arbiter pulls decisions lazily and **applies each one
        before pulling the next**, so a generator implementation observing
        the live views sees the effects of its earlier decisions — which
        is exactly what makes the default (one :meth:`decide` per
        incoming) bit-identical to N independent unbatched calls.
        Override to share work across the batch; yield exactly one
        :class:`Decision` per incoming, in order.  ``preempted`` is the
        read-only preempted-queue view, forwarded to :meth:`decide` only
        when its signature asks for it.
        """
        cls = type(self)
        wants = _DECIDE_PREEMPTED.get(cls)
        if wants is None:
            wants = _DECIDE_PREEMPTED[cls] = _accepts_preempted(self.decide)
        if wants:
            for incoming in incomings:
                yield self.decide(now, active, waiting, incoming,
                                  preempted=preempted)
        else:
            for incoming in incomings:
                yield self.decide(now, active, waiting, incoming)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class InterfereStrategy(Strategy):
    """The uncoordinated baseline: everyone writes whenever they like."""

    name = "interfere"

    def decide(self, now, active, waiting, incoming) -> Decision:
        return Decision(Action.GO)


class FCFSStrategy(Strategy):
    """First-come-first-served serialization (§III-A.1).

    The second arriver waits for the first to finish; nobody is ever
    preempted.  Good when apps are alike; terrible for a small app stuck
    behind a big one (Fig 9b).
    """

    name = "fcfs"

    def decide(self, now, active, waiting, incoming) -> Decision:
        if active or waiting:
            return Decision(Action.WAIT)
        return Decision(Action.GO)

    def decide_batch(self, now, active, waiting, incomings, preempted=()):
        # Batch-aware: the machine's busyness is evaluated once per
        # coordination round.  The first incoming can only GO on an idle
        # machine, and its own admission (GO -> active, WAIT -> waiting)
        # makes the machine busy for every later incoming in the round —
        # exactly what N per-incoming re-checks of the live views decide.
        if type(self).decide is not FCFSStrategy.decide:
            # A subclass customized decide(): its per-incoming logic (extra
            # audit fields, tweaked policy) must keep running.
            yield from super().decide_batch(now, active, waiting, incomings,
                                            preempted=preempted)
            return
        busy = bool(active) or bool(waiting)
        for _ in incomings:
            if busy:
                yield Decision(Action.WAIT)
            else:
                busy = True
                yield Decision(Action.GO)


class InterruptStrategy(Strategy):
    """Always preempt the running access for the new arriver (§III-A.2).

    The mirror image of FCFS: great when a small app interrupts a big one,
    counterproductive between equals (Fig 9c).
    """

    name = "interrupt"

    def decide(self, now, active, waiting, incoming) -> Decision:
        if active:
            return Decision(Action.INTERRUPT)
        if waiting:
            # Nothing running (all preempted/queued): take a queue slot.
            return Decision(Action.WAIT)
        return Decision(Action.GO)


class DynamicStrategy(Strategy):
    """Choose FCFS vs interruption (vs interference) per arrival (§III-A.4).

    For each option the strategy predicts every involved application's
    I/O-phase time from exchanged information only, evaluates the
    efficiency metric, and picks the cheapest.

    Parameters
    ----------
    metric:
        The machine-wide efficiency metric (default: the paper's Fig 11
        CPU-seconds-wasted).
    consider_interference:
        Also evaluate the "just share" option, predicting proportional
        slowdown.  The paper's Fig 11 dynamic selector chooses between
        FCFS and interruption only; Fig 12 argues sharing/delaying can win
        when interference is weaker than proportional — enabling this flag
        is that extension.
    interference_estimator:
        Optional callable ``(active_descriptors, incoming) -> dict of
        predicted I/O times`` replacing the built-in estimator.
    capacity:
        The shared file system's aggregate bandwidth, B/s.  When set (the
        runtime injects it — a system-provided arbiter knows its machine),
        the built-in estimator water-fills predicted rates against it, with
        each application's standalone drain rate (``total_bytes/t_alone``,
        derived from exchanged info only) as its cap.  Without it, the
        estimator falls back to pessimistic pure-proportional stretching.
    price_preempted:
        Also charge the preempted queue into every option's cost.  The
        arbiter resumes preempted applications one at a time, ahead of the
        FIFO waiters (and an INTERRUPT's victims queue *behind* already-
        preempted apps), so a deep preemption stack is real deferred work
        the INTERRUPT option would push further out.  Off by default:
        decisions are bit-identical to the historical cost model whenever
        the flag is off or the preempted queue is empty.
    """

    name = "dynamic"

    def __init__(self, metric: EfficiencyMetric | str = None,
                 consider_interference: bool = False,
                 consider_delay: bool = False,
                 interference_estimator=None,
                 capacity: Optional[float] = None,
                 price_preempted: bool = False):
        self.metric = make_metric(metric) if metric is not None else CpuSecondsWasted()
        self.consider_interference = consider_interference
        self.consider_delay = consider_delay
        self.interference_estimator = interference_estimator
        self.capacity = capacity
        self.price_preempted = price_preempted

    def decide(self, now, active, waiting, incoming,
               preempted: Sequence[AccessDescriptor] = ()) -> Decision:
        return self._decide_one(now, active, waiting, incoming,
                                _capture_totals(waiting), preempted)

    def decide_batch(self, now, active, waiting, incomings, preempted=()):
        # Batch-aware: the waiting-queue aggregates are shared across the
        # round.  On a tracking view ``_capture_totals`` is O(1) and stays
        # current as the arbiter applies each decision (a WAIT/DELAY
        # extends the view's running fold); the one-off fold for plain
        # sequences is paid once per round, not once per incoming.
        if type(self).decide is not DynamicStrategy.decide:
            # A subclass customized decide(): preserve its logic.
            yield from super().decide_batch(now, active, waiting, incomings,
                                            preempted=preempted)
            return
        # Captured once per round: a tracking view's totals object is live
        # (the arbiter's WAIT applications extend it in place), and a
        # plain sequence's one-off fold stays valid because a round only
        # ever appends to the waiting queue.
        totals = _capture_totals(waiting)
        for incoming in incomings:
            yield self._decide_one(now, active, waiting, incoming, totals,
                                   preempted)

    def _decide_one(self, now, active, waiting, incoming,
                    totals: WaitingTotals,
                    preempted: Sequence[AccessDescriptor] = ()) -> Decision:
        if not active and not waiting:
            return Decision(Action.GO)
        waiting_part = self.metric.alone_cost(totals)
        if waiting_part is None:
            # Non-decomposable custom metric: full prediction dicts.
            return self._decide_full(now, active, waiting, incoming,
                                     preempted)
        combine = self.metric.combine
        actives = list(active)
        descriptors = {d.app: d for d in actives}
        descriptors[incoming.app] = incoming

        # Option 1 — FCFS: incoming runs after everything already admitted.
        # Every waiting app is predicted at its own t_alone under *all*
        # options, so the queue enters each cost as the same O(1)
        # ``waiting_part`` instead of an O(n) per-option fold.
        backlog = sum(d.remaining_t for d in actives) + totals.t_alone
        fcfs_times = {d.app: self._elapsed(d, now) + d.remaining_t
                      for d in actives}
        fcfs_times[incoming.app] = backlog + incoming.t_alone

        # Option 2 — interrupt: incoming runs now; actives pause and finish
        # after it (plus anything already queued keeps waiting).
        int_times = {d.app: (self._elapsed(d, now) + incoming.t_alone
                             + d.remaining_t)
                     for d in actives}
        int_times[incoming.app] = incoming.t_alone

        fcfs_pre, pre_stack = self._price_preempted(
            now, actives, incoming, preempted, descriptors,
            fcfs_times, int_times)

        costs = {
            "fcfs": combine(self.metric.cost(fcfs_times, descriptors),
                            waiting_part),
            "interrupt": combine(self.metric.cost(int_times, descriptors),
                                 waiting_part),
        }

        if self.consider_interference:
            share_times = self._interference_prediction(now, actives,
                                                        incoming)
            # The preempted stack stays queued whether or not the
            # incoming shares: price it exactly as under FCFS.
            share_times.update(fcfs_pre)
            costs["interfere"] = combine(
                self.metric.cost(share_times, descriptors), waiting_part)

        best_delay = 0.0
        if self.consider_delay and actives:
            horizon = max(d.remaining_t for d in actives)
            for frac in (0.25, 0.5, 0.75):
                delta = frac * horizon
                delay_times = self._delay_prediction(now, actives, incoming,
                                                     delta)
                delay_times.update(fcfs_pre)
                key = f"delay@{frac:.2f}"
                costs[key] = combine(
                    self.metric.cost(delay_times, descriptors), waiting_part)
                if costs[key] == min(costs.values()):
                    best_delay = delta

        return self._verdict(costs, best_delay)

    def _price_preempted(self, now, actives, incoming, preempted,
                         descriptors, fcfs_times, int_times):
        """Charge the preempted queue into the FCFS/interrupt predictions.

        Mirrors the arbiter's grant order: preempted applications resume
        one at a time (queue order) once the actives drain, ahead of FIFO
        waiters — and an INTERRUPT's victims join *behind* the existing
        stack, so under that option the stack resumes right after the
        incoming while the victims also eat the whole stack's remainder.
        Mutates ``fcfs_times``/``int_times`` in place and returns
        ``(fcfs_pre, pre_stack)`` — the FCFS-option times of the preempted
        apps (reused by interfere/delay pricing) and the stack's total
        remaining seconds.  No-ops (empty dict, 0.0) unless
        ``price_preempted`` is set and the queue is non-empty, keeping the
        historical decisions bit-identical.
        """
        if not self.price_preempted:
            return {}, 0.0
        pre = list(preempted)
        if not pre:
            return {}, 0.0
        backlog_active = sum(d.remaining_t for d in actives)
        fcfs_pre: Dict[str, float] = {}
        cum = 0.0
        for d in pre:
            descriptors[d.app] = d
            cum += d.remaining_t
            fcfs_pre[d.app] = self._elapsed(d, now) + backlog_active + cum
            int_times[d.app] = (self._elapsed(d, now) + incoming.t_alone
                                + cum)
        pre_stack = cum
        fcfs_times.update(fcfs_pre)
        fcfs_times[incoming.app] += pre_stack
        for d in actives:
            int_times[d.app] += pre_stack
        return fcfs_pre, pre_stack

    def _decide_full(self, now, active, waiting, incoming,
                     preempted: Sequence[AccessDescriptor] = ()) -> Decision:
        """The historical whole-population cost evaluation (O(n) per
        inform): kept for metrics that cannot decompose a waiting queue's
        contribution out of their cost."""
        involved = list(active) + list(waiting) + [incoming]
        descriptors = {d.app: d for d in involved}

        backlog = sum(d.remaining_t for d in active) + \
            sum(d.t_alone for d in waiting)
        fcfs_times = {}
        for d in active:
            fcfs_times[d.app] = self._elapsed(d, now) + d.remaining_t
        for d in waiting:
            # Waiting time so far is unknowable here without more state;
            # count their standalone time plus the backlog ahead of them.
            fcfs_times[d.app] = d.t_alone
        fcfs_times[incoming.app] = backlog + incoming.t_alone

        int_times = {}
        for d in active:
            int_times[d.app] = (self._elapsed(d, now) + incoming.t_alone
                                + d.remaining_t)
        for d in waiting:
            int_times[d.app] = d.t_alone
        int_times[incoming.app] = incoming.t_alone

        fcfs_pre, _ = self._price_preempted(
            now, list(active), incoming, preempted, descriptors,
            fcfs_times, int_times)

        costs = {
            "fcfs": self.metric.cost(fcfs_times, descriptors),
            "interrupt": self.metric.cost(int_times, descriptors),
        }

        if self.consider_interference:
            share_times = self._interference_prediction(now, active, incoming)
            for d in waiting:
                share_times[d.app] = d.t_alone
            share_times.update(fcfs_pre)
            costs["interfere"] = self.metric.cost(share_times, descriptors)

        best_delay = 0.0
        if self.consider_delay and active:
            horizon = max(d.remaining_t for d in active)
            for frac in (0.25, 0.5, 0.75):
                delta = frac * horizon
                delay_times = self._delay_prediction(now, active, incoming,
                                                     delta)
                for d in waiting:
                    delay_times[d.app] = d.t_alone
                delay_times.update(fcfs_pre)
                key = f"delay@{frac:.2f}"
                costs[key] = self.metric.cost(delay_times, descriptors)
                if costs[key] == min(costs.values()):
                    best_delay = delta

        return self._verdict(costs, best_delay)

    @staticmethod
    def _verdict(costs: Dict[str, float], best_delay: float) -> Decision:
        best = min(costs, key=costs.get)
        if best == "interrupt":
            return Decision(Action.INTERRUPT, costs=costs)
        if best == "interfere":
            return Decision(Action.GO, costs=costs)
        if best.startswith("delay@"):
            return Decision(Action.DELAY, delay=best_delay, costs=costs)
        return Decision(Action.WAIT, costs=costs)

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _elapsed(d: AccessDescriptor, now: float) -> float:
        return (now - d.access_started) if d.access_started is not None else 0.0

    def _interference_prediction(self, now, active, incoming) -> Dict[str, float]:
        """Estimate everyone's time if all overlap for their remainder."""
        if self.interference_estimator is not None:
            return self.interference_estimator(active, incoming)
        parts = list(active) + [incoming]
        rates = self._shared_rates(parts)
        times = {}
        for d in parts:
            drain = d.total_bytes / d.t_alone if d.t_alone > 0 else 0.0
            rate = rates[d.app]
            if rate <= 0 or drain <= 0:
                stretched = 0.0 if d.remaining_t == 0 else float("inf")
            else:
                stretched = d.remaining_t * drain / rate
            times[d.app] = self._elapsed(d, now) + stretched
        return times

    def _delay_prediction(self, now, active, incoming,
                          delta: float) -> Dict[str, float]:
        """Times if ``incoming`` idles ``delta`` seconds, then shares.

        The Fig 12 tradeoff: actives drain alone during the hold (shedding
        ``delta`` of standalone work), then whoever still has a remainder
        shares with the newcomer.
        """
        survivors = []
        times: Dict[str, float] = {}
        for d in active:
            if d.remaining_t <= delta:
                times[d.app] = self._elapsed(d, now) + d.remaining_t
            else:
                shadow = d.copy()
                if d.total_bytes > 0 and d.t_alone > 0:
                    drained = delta * d.total_bytes / d.t_alone
                    shadow.remaining_bytes = max(
                        0.0, shadow.remaining_bytes - drained)
                survivors.append((d, shadow))
        parts = [shadow for _, shadow in survivors] + [incoming]
        rates = self._shared_rates(parts)
        for original, shadow in survivors:
            drain = (original.total_bytes / original.t_alone
                     if original.t_alone > 0 else 0.0)
            rate = rates[original.app]
            stretched = (shadow.remaining_t * drain / rate
                         if rate > 0 and drain > 0 else shadow.remaining_t)
            times[original.app] = self._elapsed(original, now) + delta + stretched
        drain_in = (incoming.total_bytes / incoming.t_alone
                    if incoming.t_alone > 0 else 0.0)
        rate_in = rates[incoming.app]
        stretched_in = (incoming.remaining_t * drain_in / rate_in
                        if rate_in > 0 and drain_in > 0
                        else incoming.remaining_t)
        times[incoming.app] = delta + stretched_in
        return times

    def _shared_rates(self, parts: List[AccessDescriptor]) -> Dict[str, float]:
        """Weighted max-min share of ``capacity`` with per-app drain caps.

        Mirrors the fluid physics of the machine using only exchanged
        knowledge: weight = core count, cap = the standalone drain rate the
        application itself reported (bytes over estimated alone-time).
        """
        drains = {d.app: (d.total_bytes / d.t_alone if d.t_alone > 0 else 0.0)
                  for d in parts}
        if self.capacity is None:
            # No machine knowledge: pure proportional split of the largest
            # observed drain rate (a pessimistic overlap estimate).
            total_w = sum(d.nprocs for d in parts)
            peak = max(drains.values(), default=0.0)
            return {d.app: peak * d.nprocs / total_w for d in parts}
        rates: Dict[str, float] = {}
        residual = self.capacity
        unfixed = list(parts)
        while unfixed:
            total_w = sum(d.nprocs for d in unfixed)
            share = residual / total_w
            capped = [d for d in unfixed if drains[d.app] < d.nprocs * share]
            if not capped:
                for d in unfixed:
                    rates[d.app] = d.nprocs * share
                break
            for d in capped:
                rates[d.app] = drains[d.app]
                residual -= drains[d.app]
                unfixed.remove(d)
        return rates


_STRATEGIES = {
    "interfere": InterfereStrategy,
    "fcfs": FCFSStrategy,
    "interrupt": InterruptStrategy,
    "dynamic": DynamicStrategy,
}


def make_strategy(spec) -> Strategy:
    """Build a strategy from a name, class, or instance."""
    if isinstance(spec, Strategy):
        return spec
    if isinstance(spec, str):
        try:
            return _STRATEGIES[spec]()
        except KeyError:
            raise ValueError(
                f"unknown strategy {spec!r}; choose from {sorted(_STRATEGIES)}"
            ) from None
    if isinstance(spec, type) and issubclass(spec, Strategy):
        return spec()
    raise TypeError(f"cannot build a strategy from {spec!r}")
