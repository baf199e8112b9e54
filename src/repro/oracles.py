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
  arbiter: while active, every inline shard a
  :class:`~repro.core.ShardRouter` builds (and so every
  :class:`~repro.core.CalciomRuntime` and ``ExperimentSpec`` run) is an
  :class:`UnbatchedArbiter`.  Process-shard workers build their own
  arbiters and are not affected.
"""

from __future__ import annotations

import heapq
import math
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List

from .core import sharding
from .core.arbiter import AccessState, Arbiter
from .core.metrics import AccessDescriptor
from .core.strategies import Action, _accepts_preempted
from .simcore import Event, SimulationError, Simulator

__all__ = ["OracleSimulator", "UnbatchedArbiter", "unbatched_arbiters"]


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
        #: Whether the strategy's decide asks for the preempted list.
        self._decide_preempted = _accepts_preempted(self.strategy.decide)
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

            if self._decide_preempted:
                decision = self.strategy.decide(
                    self.sim.now,
                    self.active_descriptors(),
                    self.waiting_descriptors(),
                    descriptor,
                    preempted=self.preempted_descriptors(),
                )
            else:
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
            if decision.action is Action.WAIT:
                self._state[app] = AccessState.WAITING
                self._note_transition(app, AccessState.WAITING)
                self._waiting.append(app)
                self._register_auth_event(app)
                return False
            if decision.action is Action.DELAY:
                self._state[app] = AccessState.WAITING
                self._note_transition(app, AccessState.WAITING)
                self._waiting.append(app)
                self._register_auth_event(app)
                self._schedule_hold(app, decision.delay)
                return False
            targets = decision.preempt
            if targets is None:
                targets = [d.app for d in self.active_descriptors()]
            for victim in targets:
                if self.state_of(victim) is AccessState.ACTIVE:
                    self._state[victim] = AccessState.PREEMPTED
                    self._note_transition(victim, AccessState.PREEMPTED)
                    self._preempted.append(victim)
                    if self.perf is not None:
                        self.perf.bump("coord_preemptions")
            self._activate(app)
            return True
        finally:
            if self.perf is not None:
                self._bump_seconds(time.perf_counter() - t0)

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
        self._state[app] = AccessState.IDLE
        self._note_transition(app, AccessState.IDLE)
        self._last_decision.pop(app, None)
        self._epoch[app] = self._epoch.get(app, 0) + 1
        self._cancel_hold(app)
        self._inflight.pop(app, None)
        self._desc.pop(app, None)
        self._grant_next()
        if self.perf is not None:
            self._bump_seconds(time.perf_counter() - t0)

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
    """Build every inline shard arbiter as an :class:`UnbatchedArbiter`.

    Swaps the class :class:`~repro.core.ShardRouter` instantiates for the
    duration of the block, so whole ``ExperimentSpec`` runs go through the
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
