"""Reference oracles for the equivalence suites and the scale benchmarks.

Each production layer has one path; the deliberately simple versions it
replaced live here, where tests and benchmarks import them.  Nothing under
``repro`` imports this module.

* :class:`OracleSimulator` — the seed dispatch loop: one heap pop, one
  event, one perf bump per dispatch, and ``call_at`` handles that wrap a
  full :class:`~repro.simcore.events.Event`.  It dispatches in the same
  ``(time, insertion id)`` order as :class:`~repro.simcore.Simulator`, so
  decision logs and finish times must be string-equal between the two.
* :class:`UnbatchedArbiter` — the historical per-inform decision loop over
  scanned lists: every decision rebuilds the active/waiting/preempted
  lists in O(n).  ``submit_*`` resolve on the spot, so no coordination
  round ever forms.  Decision logs and makespans must be string-equal to
  :class:`~repro.core.Arbiter`'s.
* :func:`unbatched_arbiters` — runs whole experiments under the oracle
  arbiter: while active, every arbiter :mod:`repro.core.sharding` builds
  — an unsharded :class:`~repro.core.CalciomRuntime`'s plain arbiter and
  every inline :class:`~repro.core.ShardRouter` shard, so every
  ``ExperimentSpec`` run — is an :class:`UnbatchedArbiter`.
  Process-shard workers build their own arbiters and are not affected.
* :class:`WholePopulationDynamic` — the dynamic strategy's historical
  cost model, pricing every waiting application per option (O(n) per
  inform) instead of the metric's O(1) ``alone_cost`` aggregate.
* :class:`GlobalFlowNetwork` — the whole-network bandwidth allocator:
  every change re-prices every flow with a fresh progressive filling.
  For the same active flows its rates equal
  :class:`~repro.simcore.FlowNetwork`'s bit for bit; integrated
  completion times agree to ~1e-14 relative, because it banks every
  flow's progress at every change.
* :func:`global_allocator` — runs whole experiments under the oracle
  allocator: while active, every :class:`~repro.platforms.Platform`
  builds a :class:`GlobalFlowNetwork`.
"""

from __future__ import annotations

import heapq
import math
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Sequence

from . import platforms
from .core import sharding
from .core.arbiter import AccessState, Arbiter
from .core.metrics import AccessDescriptor
from .core.strategies import Action, Decision, DynamicStrategy
from .simcore import (
    Event, FlowNetwork, FluidFlow, FluidLink, SimulationError, Simulator,
)
from .simcore.fairshare import _EPS_BYTES

__all__ = ["OracleSimulator", "UnbatchedArbiter", "unbatched_arbiters",
           "WholePopulationDynamic", "GlobalFlowNetwork", "global_allocator"]


# ---------------------------------------------------------------------------
# Event core
# ---------------------------------------------------------------------------

class _EventTimer:
    """``call_at`` handle of :class:`OracleSimulator`: wraps the full Event.

    Presents the same ``cancel()``/``reschedule()``/``active`` surface as
    :class:`~repro.simcore.Timer` so call sites cannot tell the two apart;
    the underlying event is deadmarked through the simulator's
    cancelled-event set.
    """

    __slots__ = ("sim", "when", "event", "_fn")

    def __init__(self, sim: "OracleSimulator", when: float, event: Event,
                 fn: Callable[[], None]):
        self.sim = sim
        self.when = when
        self.event = event
        self._fn = fn

    @property
    def cancelled(self) -> bool:
        return self.event in self.sim._cancelled_events

    @property
    def active(self) -> bool:
        return not self.event.processed and not self.cancelled

    def cancel(self) -> bool:
        return self.sim._cancel_event(self.event)

    def reschedule(self, when: float) -> "_EventTimer":
        sim = self.sim
        now = sim._now
        if when < now:
            raise SimulationError(
                f"reschedule({when}) is in the past (now={now})"
            )
        sim._cancel_event(self.event)  # no-op if it already fired
        self.event = sim._event_at(when, self._fn)
        self.when = when
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventTimer t={self.when:.6g}>"


class OracleSimulator(Simulator):
    """:class:`~repro.simcore.Simulator` with the original dispatch loop.

    Every dispatch pops exactly one live event; nothing is batched, no
    delay-0 lane forms, and ``call_at`` schedules a full event.  The
    public surface (``run``/``step``/``peek``/``call_at``) is the
    production one.
    """

    def call_at(self, when: float, fn: Callable[[], None]) -> _EventTimer:
        now = self._now
        if when < now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={now})"
            )
        return _EventTimer(self, when, self._event_at(when, fn), fn)

    def _event_at(self, when: float, fn: Callable[[], None]) -> Event:
        ev = Event(self)
        ev._ok = True
        ev._value = None
        self._schedule(ev, when - self._now)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    def _step_batch(self) -> None:
        # The seed dispatch loop: one peek, one pop, one event, one perf
        # bump.  The peek per event is part of the seed's cost (its run()
        # loop paid it too), and it discards the dead heads on the way.
        if self.peek() == math.inf:
            return
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        if self.perf is not None:
            self.perf.bump("events_processed")
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # A failure nobody handled: abort the run loudly.
            raise event._value


# ---------------------------------------------------------------------------
# Arbiter
# ---------------------------------------------------------------------------

class UnbatchedArbiter(Arbiter):
    """:class:`~repro.core.Arbiter` with the historical per-inform loop.

    Waiting and preempted queues are plain lists, the active set is a scan
    of every application ever seen, and each fresh inform calls
    ``strategy.decide`` on freshly materialized lists — the O(n) cost
    ``benchmarks/test_scale_arbiter.py`` measures the indexed arbiter
    against.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._waiting: List[str] = []     # FIFO arrival order
        self._preempted: List[str] = []   # FIFO preemption order

    # -- queries -----------------------------------------------------------
    def active_descriptors(self) -> List[AccessDescriptor]:
        return [self._desc[a] for a, s in self._state.items()
                if s is AccessState.ACTIVE]

    def waiting_descriptors(self) -> List[AccessDescriptor]:
        return [self._desc[a] for a in self._waiting]

    def preempted_descriptors(self) -> List[AccessDescriptor]:
        return [self._desc[a] for a in self._preempted]

    # -- protocol entry points ---------------------------------------------
    def on_inform(self, descriptor: AccessDescriptor) -> bool:
        """The pre-index decision loop: list rebuilds, O(n) scans."""
        t0 = time.perf_counter() if self.perf is not None else 0.0
        try:
            app = descriptor.app
            state = self.state_of(app)
            if state in (AccessState.ACTIVE, AccessState.WAITING,
                         AccessState.PREEMPTED):
                self._merge_descriptor(app, descriptor)
                return state is AccessState.ACTIVE

            decision = self.strategy.decide(
                self.sim.now,
                self.active_descriptors(),
                self.waiting_descriptors(),
                descriptor,
            )
            self._log_decision(
                app, decision,
                active=[d.app for d in self.active_descriptors()],
                waiting=list(self._waiting))
            self._desc[app] = descriptor
            if decision.action is Action.GO:
                self._activate(app)
                return True
            if decision.action in (Action.WAIT, Action.DELAY):
                self.set(app, AccessState.WAITING)
                self._waiting.append(app)
                if decision.action is Action.DELAY:
                    self._schedule_hold(app, decision.delay)
                return False
            targets = decision.preempt
            if targets is None:
                targets = [d.app for d in self.active_descriptors()]
            for victim in targets:
                if self.state_of(victim) is AccessState.ACTIVE:
                    self.set(victim, AccessState.PREEMPTED)
                    self._preempted.append(victim)
                    self._n_coord_preemptions += 1
            self._activate(app)
            return True
        finally:
            if self.perf is not None:
                self._add_seconds(time.perf_counter() - t0)

    def submit_inform(self, descriptor: AccessDescriptor) -> Event:
        """Decided on the spot; the returned event is already triggered."""
        ev = self.sim.event()
        ev.succeed(self.on_inform(descriptor))
        return ev

    def submit_release(self, app: str, remaining_bytes=None) -> None:
        self.on_release(app, remaining_bytes)

    def on_complete(self, app: str) -> None:
        state = self.state_of(app)
        if state is AccessState.IDLE:
            return
        t0 = time.perf_counter() if self.perf is not None else 0.0
        if app in self._waiting:
            self._waiting.remove(app)
        if app in self._preempted:
            self._preempted.remove(app)
        self.set(app, AccessState.IDLE)
        self._epoch[app] = self._epoch.get(app, 0) + 1
        self._cancel_hold(app)
        self._desc.pop(app, None)
        self._grant_next()
        if self.perf is not None:
            self._add_seconds(time.perf_counter() - t0)

    # -- internals ---------------------------------------------------------
    def _leave_waiting(self, app: str) -> None:
        self._waiting.remove(app)

    def _grant_next(self) -> None:
        if self.active_descriptors():
            return
        if self._preempted:
            self._activate(self._preempted.pop(0))
            return
        if self._waiting:
            self._activate(self._waiting.pop(0))


@contextmanager
def unbatched_arbiters() -> Iterator[None]:
    """Build every inline arbiter as an :class:`UnbatchedArbiter`.

    Swaps the class :mod:`repro.core.sharding` instantiates (for
    :func:`~repro.core.sharding.make_coordinator`'s plain arbiter and the
    :class:`~repro.core.ShardRouter`'s shards) for the duration of the
    block, so whole ``ExperimentSpec`` runs go through the
    oracle without a constructor parameter or a spec key::

        with unbatched_arbiters():
            oracle = ExperimentEngine().run(spec)
    """
    saved = sharding.Arbiter
    sharding.Arbiter = UnbatchedArbiter
    try:
        yield
    finally:
        sharding.Arbiter = saved


# ---------------------------------------------------------------------------
# Dynamic strategy cost model
# ---------------------------------------------------------------------------

class WholePopulationDynamic(DynamicStrategy):
    """:class:`~repro.core.DynamicStrategy` with the historical
    whole-population cost model.

    Every option predicts every waiting application's time into a full
    per-app dict and prices it through ``metric.cost`` — O(n) per inform.
    Production answers the waiting queue's share in O(1) through
    ``metric.alone_cost``; decisions must match, and costs agree to
    rounding (exactly for max-combining metrics).
    """

    def decide(self, now, active, waiting, incoming) -> Decision:
        if not active and not waiting:
            return Decision(Action.GO)
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

        costs = {
            "fcfs": self.metric.cost(fcfs_times, descriptors),
            "interrupt": self.metric.cost(int_times, descriptors),
        }

        if self.consider_interference:
            share_times = self._interference_prediction(now, active, incoming)
            for d in waiting:
                share_times[d.app] = d.t_alone
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
                key = f"delay@{frac:.2f}"
                costs[key] = self.metric.cost(delay_times, descriptors)
                if costs[key] == min(costs.values()):
                    best_delay = delta

        return self._verdict(costs, best_delay)


# ---------------------------------------------------------------------------
# Fluid-flow allocator
# ---------------------------------------------------------------------------

class GlobalFlowNetwork(FlowNetwork):
    """:class:`~repro.simcore.FlowNetwork` that re-prices every flow, fresh.

    Overrides the refill hook: instead of walking the dirty components,
    every change syncs every flow and re-runs progressive filling over all
    unpaused ones.  It also overrides the departure hook to mark a
    departed flow's whole path, so a completion, cancellation or pause
    re-prices the network even when it leaves every link empty.  Lazy
    integration, completion horizons and wakes are the production ones.
    """

    def _mark_released(self, path: Sequence[FluidLink]) -> None:
        self._mark_dirty(path)

    def _refill(self, seeds: List[FluidLink], now: float) -> None:
        self._n_components_refilled += 1
        live: List[FluidFlow] = []
        for f in list(self._flows):
            self._sync_flow(f, now)
            if f.remaining <= _EPS_BYTES:
                self._finish_flow(f, now)
            elif not f.paused:
                live.append(f)
        if live:
            self._fill_rates(live)
            self._push_horizons(live, now)


@contextmanager
def global_allocator() -> Iterator[None]:
    """Build every :class:`~repro.platforms.Platform`'s network as a
    :class:`GlobalFlowNetwork`.

    Swaps the class :class:`~repro.platforms.Platform` instantiates for the
    duration of the block, so whole ``ExperimentSpec`` runs go through the
    oracle without a constructor parameter or a config field::

        with global_allocator():
            oracle = ExperimentEngine().run(spec)
    """
    saved = platforms.FlowNetwork
    platforms.FlowNetwork = GlobalFlowNetwork
    try:
        yield
    finally:
        platforms.FlowNetwork = saved
