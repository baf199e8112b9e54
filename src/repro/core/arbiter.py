"""The CALCioM arbiter: tracks access states and enforces strategy decisions.

The paper leaves open whether decisions are taken by the applications
themselves (peer to peer) or by "a system-provided entity"; the mechanism is
the same information either way.  We implement the entity form — one
:class:`Arbiter` per machine — because it makes the decision point explicit
and auditable (every decision is logged with its predicted costs, which
EXPERIMENTS.md quotes for Fig 11).

State machine per application access::

    IDLE --inform--> ACTIVE                    (strategy says GO)
    IDLE --inform--> WAITING                   (strategy says WAIT)
    ACTIVE --(another app's INTERRUPT)--> PREEMPTED
    PREEMPTED/WAITING --grant--> ACTIVE
    ACTIVE --complete--> IDLE  (grants: preempted first, then FIFO waiters)

A *preempted* application keeps its in-flight request (interruption happens
at the next guard hook — the round/file boundary, exactly like the paper's
ADIO placement) and resumes with priority once the interrupter completes.

Every state write goes through one :class:`AccessBook`, which owns the
per-app state map and the side effects of a transition: the waiter event
a WAITING app registers, the grant that reaches an ACTIVE one
``grant_latency`` later, and what a return to IDLE forgets.  The arbiter,
the process-shard router's mirror of a worker
(:class:`~repro.core.shardproc.WorkerShardProxy`) and the
:class:`repro.oracles.UnbatchedArbiter` oracle all keep their states in it.

Scaling (the indexed/batched coordination layer)
------------------------------------------------
The arbiter keeps **maintained indexes** — an O(1)-membership
active set iterated in first-decision order, FIFO waiting/preempted queues
with O(1) removal and O(log n) pop-first — instead of rebuilding lists by
scanning every application ever seen, and **coalesces same-timestamp
Inform/Release exchanges** from sessions into one :class:`CoordinationRound`
flushed through a single :meth:`~repro.core.strategies.Strategy.decide_batch`
invocation.  Arrival order is preserved exactly, so decision logs and
simulated timing are bit-identical to the historical per-inform path, which
survives as the test-support oracle :class:`repro.oracles.UnbatchedArbiter`
(the equivalence suites' reference and the baseline for
``benchmarks/test_scale_arbiter.py``).
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Dict, List, Optional

from ..simcore import Event, SimulationError, Simulator
from .metrics import AccessDescriptor, DescriptorSetView
from .strategies import Action, Decision, Strategy, make_strategy

__all__ = ["AccessBook", "AccessState", "Arbiter", "CoordinationRound",
           "DecisionRecord"]

#: The arbiter's counters, folded into its ``perf`` bag on read.
_COORD_COUNTERS = ("coord_decisions", "coord_rounds", "coord_exchanges",
                   "coord_grants", "coord_preemptions", "coord_seconds",
                   "coord_wall_seconds")


class AccessState(Enum):
    IDLE = "idle"
    ACTIVE = "active"
    WAITING = "waiting"
    PREEMPTED = "preempted"


@dataclass
class DecisionRecord:
    """Audit-log entry for one strategy decision."""

    time: float
    app: str                 #: the informing application
    action: Action
    active: List[str]        #: apps active at decision time
    waiting: List[str]
    costs: Dict[str, float] = field(default_factory=dict)


class AccessBook:
    """Per-app access states and the side effects of changing them.

    :meth:`set` is the only state write; by the new state it

    * ACTIVE — fires the app's waiter event ``grant_latency`` later (the
      grant notification crossing the fabric) and keeps it as the
      in-flight grant until it is processed;
    * WAITING — registers a waiter event now, not lazily in ``wait()``,
      so a same-timestamp grant still delivers ``grant_latency``;
    * IDLE — forgets the in-flight grant, which belongs to the access
      that ended, and the last decision.

    Every write is reported to ``transition_observer``
    (``(app, AccessState)``, in apply order) when one is set.  IDLE
    entries stay in ``_state``, so its order is first-seen order.
    """

    def __init__(self, sim: Simulator, grant_latency: float = 0.0):
        self.sim = sim
        self.grant_latency = float(grant_latency)
        self._state: Dict[str, AccessState] = {}
        self._waiters: Dict[str, Event] = {}
        #: Granted-but-unprocessed waiter events (grant_latency in flight);
        #: lets late ``authorization_event`` callers observe the delayed
        #: grant instead of an instant one.
        self._inflight: Dict[str, Event] = {}
        #: Most recent strategy decision per app: ``(Action, delay)``.
        self._last_decision: Dict[str, tuple] = {}
        self.transition_observer = None

    def set(self, app: str, state: AccessState) -> None:
        self._state[app] = state
        observer = self.transition_observer
        if observer is not None:
            observer(app, state)
        if state is AccessState.ACTIVE:
            ev = self._waiters.pop(app, None)
            if ev is not None and not ev.triggered:
                ev.succeed(None, delay=self.grant_latency)
                if self.grant_latency > 0:
                    self._inflight[app] = ev

                    def _clear(_processed, app=app, ev=ev):
                        # Only this grant's entry: a withdraw + re-grant
                        # may have installed a successor event meanwhile.
                        if self._inflight.get(app) is ev:
                            del self._inflight[app]

                    ev.callbacks.append(_clear)
        elif state is AccessState.WAITING:
            ev = self._waiters.get(app)
            if ev is None or ev.triggered:
                self._waiters[app] = self.sim.event()
        elif state is AccessState.IDLE:
            self._inflight.pop(app, None)
            self._last_decision.pop(app, None)

    def state_of(self, app: str) -> AccessState:
        return self._state.get(app, AccessState.IDLE)

    def is_authorized(self, app: str) -> bool:
        """Whether ``app`` may issue file-system requests right now."""
        return self.state_of(app) is AccessState.ACTIVE

    def grant_in_flight(self, app: str) -> bool:
        """Whether ``app``'s grant notification is still crossing the fabric.

        True between a grant decision and the granted application observing
        it (``grant_latency`` later).  Sessions consult this so a batched
        round's deferred continuation still pays the authorization-message
        latency.
        """
        ev = self._inflight.get(app)
        return ev is not None and not ev.processed

    def authorization_event(self, app: str) -> Event:
        """Event that fires when ``app`` becomes (or already is) authorized."""
        inflight = self._inflight.get(app)
        if inflight is not None and not inflight.processed:
            return inflight  # grant_latency still in flight
        if self._state.get(app) is AccessState.ACTIVE:
            ev = self.sim.event()
            ev.succeed(None)
            return ev
        ev = self._waiters.get(app)
        if ev is None or ev.triggered:
            ev = self._waiters[app] = self.sim.event()
        return ev

    def last_decision_for(self, app: str):
        """``(Action, delay)`` of ``app``'s most recent strategy decision.

        ``None`` once the access returned to IDLE (or was never seen).
        Continuations don't re-decide, so this is the verdict that put the
        app in its current queue — the shard router reads it to tell a
        DELAY-hold apart from a plain WAIT.
        """
        return self._last_decision.get(app)


class _FifoIndex:
    """Insertion-ordered app set: O(1) membership/removal, O(log n) pop-first.

    Dict iteration order equals arrival order because entries are only ever
    appended with a monotonically increasing sequence number (a re-added app
    goes to the back, like the old list's remove-then-append).  A lazily
    invalidated heap gives pop-first without the O(n) tombstone scans a
    bare dict would accumulate under sustained FIFO traffic.
    """

    __slots__ = ("_members", "_heap", "_seq")

    def __init__(self) -> None:
        self._members: Dict[str, int] = {}
        self._heap: List[tuple] = []
        self._seq = count()

    def add(self, app: str) -> None:
        if app in self._members:
            return
        seq = next(self._seq)
        self._members[app] = seq
        heapq.heappush(self._heap, (seq, app))

    def discard(self, app: str) -> None:
        self._members.pop(app, None)

    def pop_first(self) -> str:
        members, heap = self._members, self._heap
        while heap:
            seq, app = heapq.heappop(heap)
            if members.get(app) == seq:
                del members[app]
                return app
        raise IndexError("pop_first() on an empty index")

    def __contains__(self, app: str) -> bool:
        return app in self._members

    def __iter__(self):
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)


class _Exchange:
    """One session message queued in a :class:`CoordinationRound`."""

    __slots__ = ("kind", "app", "descriptor", "remaining", "event")

    INFORM = "inform"
    RELEASE = "release"

    def __init__(self, kind, app, descriptor=None, remaining=None, event=None):
        self.kind = kind
        self.app = app
        self.descriptor = descriptor
        self.remaining = remaining
        self.event = event


class CoordinationRound:
    """All Inform/Release exchanges submitted at one simulated timestamp.

    Sessions enqueue here instead of invoking the strategy N independent
    times; the arbiter flushes the round (in arrival order) either at the
    scheduled same-timestamp flush event or eagerly, whenever a synchronous
    state change (``on_complete``, ``withdraw``, a direct ``on_inform``)
    must observe every exchange already submitted.
    """

    __slots__ = ("time", "entries")

    def __init__(self, time_: float):
        self.time = time_
        self.entries: List[_Exchange] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CoordinationRound t={self.time:g} entries={len(self.entries)}>"


class Arbiter(AccessBook):
    """Decision-maker over an :class:`AccessBook`.

    Parameters
    ----------
    strategy:
        Name, class, or :class:`~repro.core.strategies.Strategy` instance.
    grant_latency:
        Seconds between a grant decision and the granted application
        observing it (the authorization message crossing the fabric).
    decision_log_limit:
        ``None`` (default) keeps every :class:`DecisionRecord` — required
        for figure reproduction.  An integer bounds the log to the most
        recent N records (a ring buffer) so 10^5-decision scale scenarios
        don't retain 10^5 snapshots.
    perf:
        Optional :class:`~repro.perf.PerfCounters`; when set the arbiter
        counts ``coord_decisions`` / ``coord_rounds`` / ``coord_exchanges``
        / ``coord_grants`` / ``coord_preemptions`` and accumulates
        ``coord_seconds`` of host wall-clock spent in the decision loop,
        timed per entry point.  The counts are plain integer attributes
        folded into ``perf`` when it is read
        (:meth:`~repro.perf.PerfCounters.attach`).
    """

    def __init__(self, sim: Simulator, strategy, grant_latency: float = 0.0,
                 decision_log_limit: Optional[int] = None,
                 perf=None):
        super().__init__(sim, grant_latency)
        self.strategy: Strategy = make_strategy(strategy)
        self.perf = perf
        for name in _COORD_COUNTERS:
            setattr(self, "_n_" + name, 0)
        if perf is not None:
            perf.attach(self, _COORD_COUNTERS)
        self._desc: Dict[str, AccessDescriptor] = {}
        #: Per-app access generation; bumped on every return to IDLE so
        #: stale DELAY-hold timers can detect a withdraw+re-inform cycle.
        #: Kept as a belt-and-braces cross-check even though stale hold
        #: timers are now *cancelled* outright (see ``_hold_timers``).
        self._epoch: Dict[str, int] = {}
        #: Pending DELAY-hold timer per app; cancelled (not just outrun by
        #: the epoch guard) when the access ends or a new hold supersedes.
        self._hold_timers: Dict[str, object] = {}
        self.decision_log_limit = decision_log_limit
        self.decision_log = ([] if decision_log_limit is None
                             else deque(maxlen=int(decision_log_limit)))
        #: First-decision order (never reset) — the iteration order the
        #: old ``_state``-scanning ``active_descriptors()`` produced.
        self._order: Dict[str, int] = {}
        self._order_seq = count()
        self._active: Dict[str, None] = {}
        self._waiting = _FifoIndex()
        self._preempted = _FifoIndex()
        self._round: Optional[CoordinationRound] = None
        self._active_view = DescriptorSetView(
            self._active, self._desc, sort_key=self._order.__getitem__)
        # track_totals: the waiting view maintains the backlog aggregates
        # (Σ t_alone, Σ nprocs·t_alone, ...) deep-queue strategies read in
        # O(1); every mutation of the waiting index below reports through
        # note_append/note_remove.
        self._waiting_view = DescriptorSetView(self._waiting, self._desc,
                                               track_totals=True)

    # -- queries -----------------------------------------------------------
    def descriptor_of(self, app: str) -> Optional[AccessDescriptor]:
        return self._desc.get(app)

    def active_descriptors(self) -> List[AccessDescriptor]:
        return list(self._active_view)

    def waiting_descriptors(self) -> List[AccessDescriptor]:
        return list(self._waiting_view)

    def preempted_descriptors(self) -> List[AccessDescriptor]:
        """Preempted accesses, in preemption (FIFO re-grant) order."""
        return [self._desc[app] for app in self._preempted]

    def _add_seconds(self, dt: float) -> None:
        self._n_coord_seconds += dt
        self._n_coord_wall_seconds += dt

    # -- protocol entry points (synchronous) -------------------------------
    def on_inform(self, descriptor: AccessDescriptor) -> bool:
        """An application announces (or refreshes) an access.

        Returns True if the application is authorized after the call.
        Synchronous: any pending coordination round is flushed first so the
        decision observes every exchange submitted before this call.
        """
        self._flush_pending()
        t0 = time.perf_counter() if self.perf is not None else 0.0
        app = descriptor.app
        if self.state_of(app) is not AccessState.IDLE:
            # Continuation or refresh: update knowledge, no new decision.
            self._merge_descriptor(app, descriptor)
            authorized = self.state_of(app) is AccessState.ACTIVE
        else:
            authorized = self._decide_fresh([descriptor], events=None)[0]
        if self.perf is not None:
            self._add_seconds(time.perf_counter() - t0)
        return authorized

    def submit_inform(self, descriptor: AccessDescriptor) -> Event:
        """Queue an Inform into the current round; fires with the result.

        The returned event succeeds (at the same timestamp) with the value
        :meth:`on_inform` would have returned.
        """
        ev = self.sim.event()
        t0 = time.perf_counter() if self.perf is not None else 0.0
        app = descriptor.app
        if self._round is None and self.state_of(app) is not AccessState.IDLE:
            # Continuation with no pending round: there is nothing to
            # preserve ordering against, so skip the round machinery and
            # apply the knowledge refresh immediately (the bulk of session
            # traffic is exactly this).  Fresh informs always queue — they
            # are the decisions coordination rounds batch.
            self._merge_descriptor(app, descriptor)
            ev.succeed(self.state_of(app) is AccessState.ACTIVE)
            self._n_coord_exchanges += 1
        else:
            self._open_round().entries.append(_Exchange(
                _Exchange.INFORM, app, descriptor=descriptor, event=ev))
        if self.perf is not None:
            self._add_seconds(time.perf_counter() - t0)
        return ev

    def on_release(self, app: str, remaining_bytes: Optional[float] = None) -> None:
        """End of one guarded step: refresh remaining-work knowledge."""
        self._flush_pending()
        t0 = time.perf_counter() if self.perf is not None else 0.0
        self._refresh(app, remaining_bytes)
        if self.perf is not None:
            self._add_seconds(time.perf_counter() - t0)

    def submit_release(self, app: str,
                       remaining_bytes: Optional[float] = None) -> None:
        """Queue a Release into the current round.

        With no round pending there is nothing to order against, so the
        refresh applies immediately (same fast path as continuation
        informs).
        """
        t0 = time.perf_counter() if self.perf is not None else 0.0
        if self._round is None:
            self._refresh(app, remaining_bytes)
            self._n_coord_exchanges += 1
        else:
            self._open_round().entries.append(_Exchange(
                _Exchange.RELEASE, app, remaining=remaining_bytes))
        if self.perf is not None:
            self._add_seconds(time.perf_counter() - t0)

    def on_complete(self, app: str) -> None:
        """The whole access finished: free the slot, grant successors."""
        self._flush_pending()
        state = self.state_of(app)
        if state is AccessState.IDLE:
            return
        t0 = time.perf_counter() if self.perf is not None else 0.0
        if app in self._waiting:
            self._leave_waiting(app)
        self._preempted.discard(app)
        self._active.pop(app, None)
        self.set(app, AccessState.IDLE)
        self._epoch[app] = self._epoch.get(app, 0) + 1
        self._cancel_hold(app)
        self._desc.pop(app, None)
        self._grant_next()
        if self.perf is not None:
            self._add_seconds(time.perf_counter() - t0)

    def withdraw(self, app: str) -> None:
        """Remove an application entirely (job end, error paths)."""
        self.on_complete(app)

    # -- coordination rounds ------------------------------------------------
    def _open_round(self) -> CoordinationRound:
        rnd = self._round
        if rnd is None:
            rnd = self._round = CoordinationRound(self.sim.now)
            self.sim.call_at(self.sim.now, self._flush_pending)
        return rnd

    def _flush_pending(self) -> None:
        """Apply every queued exchange, in arrival order.

        Runs at the round's scheduled flush event, and eagerly from any
        synchronous entry point — whichever comes first.  Idempotent.
        """
        rnd = self._round
        if rnd is None:
            return
        self._round = None
        entries = rnd.entries
        perf = self.perf
        t0 = time.perf_counter() if perf is not None else 0.0
        self._n_coord_rounds += 1
        self._n_coord_exchanges += len(entries)
        i, n = 0, len(entries)
        while i < n:
            e = entries[i]
            if e.kind == _Exchange.RELEASE:
                self._refresh(e.app, e.remaining)
                i += 1
                continue
            if self.state_of(e.app) is not AccessState.IDLE:
                # Continuation or refresh: no strategy decision.
                self._merge_descriptor(e.app, e.descriptor)
                e.event.succeed(self.state_of(e.app) is AccessState.ACTIVE)
                i += 1
                continue
            # Maximal run of fresh informs (distinct apps) -> one batched
            # strategy invocation.  A repeated app or an interleaved
            # release breaks the run: later entries must observe the
            # earlier ones' effects exactly as the per-inform path would.
            batch = [e]
            seen = {e.app}
            j = i + 1
            while j < n:
                nxt = entries[j]
                if (nxt.kind != _Exchange.INFORM or nxt.app in seen
                        or self.state_of(nxt.app) is not AccessState.IDLE):
                    break
                batch.append(nxt)
                seen.add(nxt.app)
                j += 1
            self._decide_fresh([b.descriptor for b in batch],
                               events=[b.event for b in batch])
            i = j
        if perf is not None:
            self._add_seconds(time.perf_counter() - t0)

    def _decide_fresh(self, descriptors: List[AccessDescriptor],
                      events: Optional[List[Event]]) -> List[bool]:
        """One batched strategy invocation over fresh informs, in order.

        Decisions are pulled lazily and applied one at a time, so a
        strategy observing the live views sees each earlier decision's
        effect — bit-identical to N independent unbatched calls.
        """
        decisions = iter(self.strategy.decide_batch(
            self.sim.now, self._active_view, self._waiting_view,
            descriptors))
        results: List[bool] = []
        for k, descriptor in enumerate(descriptors):
            try:
                decision = next(decisions)
            except StopIteration:
                raise SimulationError(
                    f"{self.strategy!r}.decide_batch yielded {k} decisions "
                    f"for {len(descriptors)} incoming accesses") from None
            authorized = self._apply_decision(descriptor, decision)
            results.append(authorized)
            if events is not None:
                events[k].succeed(authorized)
        return results

    def _apply_decision(self, descriptor: AccessDescriptor,
                        decision: Decision) -> bool:
        app = descriptor.app
        if app not in self._order:
            self._order[app] = next(self._order_seq)
        self._log_decision(app, decision,
                           active=self._active_view.names(),
                           waiting=list(self._waiting))
        self._desc[app] = descriptor
        if decision.action is Action.GO:
            self._activate(app)
            return True
        if decision.action is Action.WAIT:
            self._enqueue_waiting(app)
            return False
        if decision.action is Action.DELAY:
            # Fig 12's tradeoff: hold the newcomer briefly, then let it
            # share.  An earlier grant (actives completing) still wins.
            self._enqueue_waiting(app)
            self._schedule_hold(app, decision.delay)
            return False
        # INTERRUPT: revoke targets' authorization, then run.
        targets = decision.preempt
        if targets is None:
            targets = self._active_view.names()
        for victim in targets:
            if self.state_of(victim) is AccessState.ACTIVE:
                self.set(victim, AccessState.PREEMPTED)
                self._active.pop(victim, None)
                self._preempted.add(victim)
                self._n_coord_preemptions += 1
        self._activate(app)
        return True

    def _enqueue_waiting(self, app: str) -> None:
        self.set(app, AccessState.WAITING)
        self._waiting.add(app)
        self._waiting_view.note_append(self._desc[app])

    def _leave_waiting(self, app: str) -> None:
        """Take a WAITING ``app`` off the waiting queue."""
        self._waiting.discard(app)
        self._waiting_view.note_remove()

    def _schedule_hold(self, app: str, delay: float) -> None:
        epoch = self._epoch.get(app, 0)

        def _hold_expired() -> None:
            self._hold_timers.pop(app, None)
            self._flush_pending()
            # Guard on the access generation: a stale timer is cancelled at
            # the epoch bump, so a fire from a previous access would mean
            # the cancellation contract broke — never activate from one.
            if self._epoch.get(app, 0) != epoch:
                return
            if self.state_of(app) is not AccessState.WAITING:
                return
            self._leave_waiting(app)
            self._activate(app)

        self._cancel_hold(app)
        self._hold_timers[app] = self.sim.call_at(
            self.sim.now + max(0.0, delay), _hold_expired)

    def _cancel_hold(self, app: str) -> None:
        timer = self._hold_timers.pop(app, None)
        if timer is not None:
            timer.cancel()

    # -- internals ---------------------------------------------------------
    def _log_decision(self, app: str, decision: Decision,
                      active: List[str], waiting: List[str]) -> None:
        self._last_decision[app] = (decision.action, decision.delay)
        self.decision_log.append(DecisionRecord(
            time=self.sim.now, app=app, action=decision.action,
            active=active, waiting=waiting, costs=dict(decision.costs),
        ))
        self._n_coord_decisions += 1

    def _merge_descriptor(self, app: str, incoming: AccessDescriptor) -> None:
        current = self._desc.get(app)
        if current is None:
            self._desc[app] = incoming
            return
        current.remaining_bytes = incoming.remaining_bytes
        current.rounds = incoming.rounds

    def _activate(self, app: str) -> None:
        # Granted by any route (hold expiry, slot free, preemption refill):
        # a still-pending hold timer for this access is now moot.
        self._cancel_hold(app)
        self._active[app] = None
        desc = self._desc.get(app)
        if desc is not None and desc.access_started is None:
            desc.access_started = self.sim.now
        self._n_coord_grants += 1
        self.set(app, AccessState.ACTIVE)

    def _grant_next(self) -> None:
        """Grant priority to preempted apps, then the FIFO waiter queue."""
        if self._active:
            return  # someone is still running; nothing to grant
        if self._preempted:
            self._activate(self._preempted.pop_first())
            return
        if self._waiting:
            app = self._waiting.pop_first()
            self._waiting_view.note_remove()
            self._activate(app)

    def _refresh(self, app: str, remaining_bytes: Optional[float]) -> None:
        """A Release: refresh ``app``'s remaining-work knowledge."""
        desc = self._desc.get(app)
        if desc is not None and remaining_bytes is not None:
            desc.remaining_bytes = max(0.0, float(remaining_bytes))
