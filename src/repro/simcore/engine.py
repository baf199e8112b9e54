"""The simulation engine: a time-ordered event queue and its driver loop.

:class:`Simulator` owns the clock and the queue of scheduled events.  All
model components (network flows, storage servers, applications, CALCioM
coordinators) hang off one simulator instance, which makes every experiment
fully deterministic and repeatable — a property the paper's authors had to
approximate by reserving entire machines.

Dispatch architecture
---------------------
The core is built around two throughput levers, both invisible to model
code:

* **Cancellable timers.** :meth:`Simulator.call_at` returns a slotted
  :class:`Timer` handle whose :meth:`Timer.cancel` deadmarks the queue
  entry, so superseded wakes (fair-share horizons, arbiter DELAY holds,
  shard wake fronts, cache boundaries) never travel through the dispatch
  loop at all.  :meth:`~repro.simcore.events.Timeout.cancel` does the same
  for timeout events.  Dead entries are skipped lazily on pop and swept in
  bulk once they outnumber the live population.
* **Same-timestamp batch dispatch.** :meth:`step` drains *every* event at
  the head timestamp in one pass: one clock write, one counter update of ``n``,
  and a FIFO "lane" for events scheduled at the current timestamp *during*
  the batch (delay-0 completions, coordination rounds) so coincident waves
  never re-enter the heap.

The binary heap plus the lane is the only dispatch path.  The original
one-event-per-pop loop survives as :class:`repro.oracles.OracleSimulator`,
a test-support subclass the equivalence suites and the dispatch benchmark
run against: both consume insertion ids from the same counter and dispatch
in identical ``(time, insertion id)`` order, so decision logs and finish
times are bit-equal.
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Any, Callable, Generator, Optional

from .errors import SimulationError, StopSimulation
from .events import Event, Timeout
from .process import Process

__all__ = ["Simulator", "Timer"]

#: Sweep dead entries once at least this many are queued *and* they
#: outnumber the live population (amortized O(1) per cancellation).  The
#: floor is deliberately generous: below it, dead entries are cheaper to
#: skip lazily at pop time than to sweep, and the memory they pin is
#: bounded by the floor itself.
_COMPACT_MIN_DEAD = 1024


#: Dispatch counters the simulator keeps as ``_n_<name>`` integers instead
#: of bumping its :class:`~repro.perf.PerfCounters` once per batch.
_FOLDED_COUNTERS = ("events_processed", "events_coincident",
                    "timer_fastpath_hits", "timers_cancelled")

#: Timer._eid sentinels; non-negative values are the insertion id of the
#: timer's live queue entry.
_FIRED = -1
_CANCELLED = -2


class Timer:
    """Cancellable, re-armable handle for a ``call_at`` function.

    A pure timer skips the full :class:`~repro.simcore.events.Event`
    machinery: no callback list, no value, no failure state — just "run
    ``fn()`` at ``when`` unless superseded".  This is the fast path for
    the overwhelming majority of queue traffic.

    Validity is tracked by insertion id: the queue entry records the id it
    was pushed with, the handle records the id of its *live* entry, and a
    mismatch at pop time means the entry was cancelled or superseded.
    That makes the handle reusable — :meth:`reschedule` moves the timer
    to a new time with one queue push and zero allocations, which is what
    supersede-heavy call sites (completion horizons, shard wake fronts,
    cache boundaries) do on every update.
    """

    __slots__ = ("sim", "when", "_fn", "_eid", "_pending")

    def __init__(self, sim: "Simulator", when: float,
                 fn: Callable[[], None]):
        self.sim = sim
        #: Absolute simulated time the timer fires at.
        self.when = when
        self._fn: Callable[[], None] = fn
        self._eid = _FIRED  # not queued yet; call_at installs the live id
        self._pending = False  # push deferred until the current batch ends

    @property
    def active(self) -> bool:
        """True while the timer is still scheduled to fire."""
        return self._eid >= 0

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (and not re-armed)."""
        return self._eid == _CANCELLED

    def cancel(self) -> bool:
        """Deadmark the timer so it never fires.

        Returns True if the timer was still pending, False if it already
        fired or was already cancelled.  The queue entry is skipped lazily
        on pop (or swept by compaction) — cancellation itself is O(1) and
        call-free on the hot path: the ``timers_cancelled`` count
        happens when the dead entry is retired, not here.
        """
        if self._eid < 0:
            return False
        self._eid = _CANCELLED
        sim = self.sim
        if self._pending:
            # The push was still deferred — no queue entry exists to
            # deadmark, so the retirement is counted on the spot.
            self._pending = False
            sim._n_timers_cancelled += 1
            return True
        sim._dead += 1
        if sim._dead >= _COMPACT_MIN_DEAD:
            sim._maybe_compact()
        return True

    def reschedule(self, when: float) -> "Timer":
        """Move the timer to fire at ``when`` instead; returns ``self``.

        Works whether the timer is pending (the old entry is superseded
        and counted as cancelled), already fired (the handle is re-armed)
        or cancelled.  Exactly one insertion id is consumed — the same as
        the ``cancel()`` + ``call_at()`` sequence it replaces — so the
        oracle simulator stays dispatch-order identical.

        Reschedules issued *during a batch* defer the queue push to the
        end of the batch: supersede-heavy call sites routinely move the
        same timer several times within one dispatch (a completion
        cascade shrinking a horizon step by step), and only the last
        target ever needs to reach the queue — the superseded
        intermediates are retired on the spot, never pushed, never
        popped over.  Deferral is invisible to dispatch order because a
        mid-batch reschedule always targets the lane (``when == now``)
        or a strictly future time.
        """
        sim = self.sim
        now = sim._now
        if when < now:
            raise SimulationError(
                f"reschedule({when}) is in the past (now={now})"
            )
        if self._eid >= 0:
            if self._pending:
                # Superseded before its deferred push ever reached the
                # queue: retired on the spot.
                sim._n_timers_cancelled += 1
            else:
                sim._dead += 1
                if sim._dead >= _COMPACT_MIN_DEAD:
                    sim._maybe_compact()
        self.when = when
        eid = next(sim._eid)
        self._eid = eid
        if sim._batching:
            if when == now:
                self._pending = False
                sim._lane.append((eid, self))
            elif not self._pending:
                self._pending = True
                sim._deferred.append(self)
        else:
            heapq.heappush(sim._queue, (when, eid, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("pending" if self._eid >= 0
                 else "cancelled" if self._eid == _CANCELLED else "fired")
        return f"<Timer t={self.when:.6g} {state}>"


class Simulator:
    """Discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial clock value.
    perf:
        Optional :class:`~repro.perf.PerfCounters`; when set, dispatch
        counts ``events_processed`` (plus ``events_coincident``,
        ``timer_fastpath_hits`` and ``timers_cancelled``).

    Examples
    --------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> p = sim.process(hello(sim))
    >>> sim.run()
    >>> p.value
    3.0
    """

    def __init__(self, start_time: float = 0.0, perf=None):
        self._now = float(start_time)
        self._queue: list = []
        self._eid = count()
        #: FIFO of (eid, obj) scheduled at the current batch timestamp
        #: while a batch is dispatching; merged with the queue by eid.
        self._lane: list = []
        #: Timers rescheduled to a future time during a batch; their queue
        #: push is deferred to the batch end so same-batch supersedes
        #: never touch the queue at all (see :meth:`Timer.reschedule`).
        self._deferred: list = []
        self._batching = False
        #: Number of deadmarked (cancelled) entries still in the queue.
        #: The ``timers_cancelled`` counter is bumped when dead entries are
        #: *retired* (lazily popped or swept), keeping cancellation itself
        #: free of perf bookkeeping; totals match once the queue drains.
        self._dead = 0
        #: Cancelled Event objects (Timeouts, oracle call_at events) still
        #: queued — kept out of Event.__slots__ so the Event stays lean.
        self._cancelled_events: set = set()
        self._active_process: Optional[Process] = None
        #: Optional :class:`~repro.perf.PerfCounters`; see class docstring.
        self.perf = perf
        # Per-batch dispatch counters are plain integers, folded into
        # ``perf`` whenever it is read (PerfCounters.attach).
        self._n_events_processed = 0
        self._n_events_coincident = 0
        self._n_timer_fastpath_hits = 0
        self._n_timers_cancelled = 0
        if perf is not None:
            perf.attach(self, _FOLDED_COUNTERS)

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now.

        The returned :class:`~repro.simcore.events.Timeout` has a
        ``cancel()`` method; see its docstring for the contract.
        """
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    # -- scheduling -------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past: delay={delay} targets "
                f"t={self._now + delay} (now={self._now})"
            )
        if delay == 0.0 and self._batching:
            self._lane.append((next(self._eid), event))
        else:
            heapq.heappush(self._queue, (self._now + delay, next(self._eid), event))

    def call_at(self, when: float, fn: Callable[[], None]) -> "Timer":
        """Run ``fn()`` at absolute simulated time ``when``.

        Returns a :class:`Timer` handle; call its ``cancel()`` to stop the
        timer from firing (the queue entry is deadmarked and skipped, so a
        cancelled timer costs nothing at dispatch time — no generation
        counter needed).
        """
        now = self._now
        if when < now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={now})"
            )
        # Inline construction: call_at is the hottest allocation site in
        # timer-churn regimes, and skipping the __init__ frame is worth it.
        timer = Timer.__new__(Timer)
        timer.sim = self
        timer.when = when
        timer._fn = fn
        timer._pending = False
        eid = next(self._eid)
        timer._eid = eid
        if when == now and self._batching:
            self._lane.append((eid, timer))
        else:
            heapq.heappush(self._queue, (when, eid, timer))
        return timer

    # -- cancellation bookkeeping ---------------------------------------------
    def _cancel_event(self, event: Event) -> bool:
        """Deadmark a queued event (Timeout / oracle call_at) — see
        :meth:`Timer.cancel` for the contract."""
        if event.callbacks is None or event in self._cancelled_events:
            return False
        self._cancelled_events.add(event)
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD:
            self._maybe_compact()
        return True

    def _maybe_compact(self) -> None:
        """Sweep deadmarked entries once they outnumber live ones."""
        dead = self._dead
        if dead < _COMPACT_MIN_DEAD:
            return
        cancelled = self._cancelled_events
        queue = self._queue
        if dead * 2 <= len(queue):
            return
        live = []
        removed = 0
        for entry in queue:
            obj = entry[2]
            if type(obj) is Timer:
                if obj._eid != entry[1]:
                    removed += 1
                    continue
            elif obj in cancelled:
                cancelled.discard(obj)
                removed += 1
                continue
            live.append(entry)
        queue[:] = live
        heapq.heapify(queue)
        self._dead -= removed
        self._n_timers_cancelled += removed

    def _flush_deferred(self) -> None:
        """Push batch-deferred timer entries into the queue.

        Called at the end of every batch (and defensively from
        :meth:`peek`, for model code that inspects the queue mid-batch).
        Only the *final* target of each timer rescheduled during the
        batch reaches the queue; superseded intermediates were already
        retired by :meth:`Timer.reschedule` / :meth:`Timer.cancel`.
        """
        deferred = self._deferred
        queue = self._queue
        for t in deferred:
            if t._pending:
                t._pending = False
                heapq.heappush(queue, (t.when, t._eid, t))
        del deferred[:]

    # -- execution ----------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next *live* event, or ``inf`` if none is queued.

        Deadmarked (cancelled) heads are discarded on the way — the clock
        never advances for a cancelled entry.
        """
        if self._deferred:
            self._flush_deferred()
        cancelled = self._cancelled_events
        dead = 0
        try:
            queue = self._queue
            while queue:
                head = queue[0]
                obj = head[2]
                if type(obj) is Timer:
                    if obj._eid == head[1]:
                        return head[0]
                elif obj in cancelled:
                    heapq.heappop(queue)
                    cancelled.discard(obj)
                    dead += 1
                    continue
                else:
                    return head[0]
                heapq.heappop(queue)
                dead += 1
            return math.inf
        finally:
            if dead:
                self._dead -= dead
                self._n_timers_cancelled += dead

    def step(self) -> None:
        """Dispatch the whole batch of events at the head timestamp.

        All events carrying the earliest scheduled time are drained in one
        pass — one clock write, one ``events_processed`` update of ``n`` —
        in ``(time, insertion id)`` order.  Events scheduled *at the batch
        timestamp* from inside a callback (delay-0 completions) join the
        same batch through a FIFO lane without re-entering the queue.
        """
        # The internal batch dispatcher returns quietly on an empty queue
        # (that lets run() drive it in a tight loop); the public single
        # step keeps the loud contract.
        if self.peek() == math.inf:
            raise SimulationError("step() on an empty event queue")
        self._step_batch()

    def _step_batch(self) -> None:
        queue = self._queue
        pop = heapq.heappop
        cancelled = self._cancelled_events
        dead = 0
        while True:
            if not queue:
                if dead:
                    self._dead -= dead
                    self._n_timers_cancelled += dead
                return
            when, eid, obj = pop(queue)
            if type(obj) is Timer:
                if obj._eid != eid:
                    dead += 1
                    continue
            elif cancelled and obj in cancelled:
                cancelled.discard(obj)
                dead += 1
                continue
            break
        self._now = when
        lane = self._lane
        li = 0
        n = 0
        fast = 0
        fired = _FIRED
        # During a batch no new queue entry can land at `when` (delay-0
        # traffic goes to the lane), so the head-at-batch-time flag only
        # changes when we pop — no per-member head re-inspection needed.
        head_at_when = bool(queue) and queue[0][0] == when
        self._batching = True
        try:
            while True:
                if type(obj) is Timer:
                    if obj._eid != eid:
                        dead += 1
                    else:
                        obj._eid = fired
                        n += 1
                        fast += 1
                        obj._fn()
                elif cancelled and obj in cancelled:
                    cancelled.discard(obj)
                    dead += 1
                else:
                    n += 1
                    callbacks, obj.callbacks = obj.callbacks, None
                    for cb in callbacks:
                        cb(obj)
                    if not obj._ok and not obj._defused:
                        raise obj._value
                # Next batch member: merge the queue head with the delay-0
                # lane, smallest insertion id first.
                if li < len(lane):
                    if head_at_when and queue[0][1] < lane[li][0]:
                        _, eid, obj = pop(queue)
                        head_at_when = bool(queue) and queue[0][0] == when
                    else:
                        eid, obj = lane[li]
                        li += 1
                elif head_at_when:
                    _, eid, obj = pop(queue)
                    head_at_when = bool(queue) and queue[0][0] == when
                else:
                    break
        finally:
            self._batching = False
            if self._deferred:
                self._flush_deferred()
            if dead:
                self._dead -= dead
            if li:
                del lane[:li]
            if lane:
                # Aborted mid-batch (failure / StopSimulation): whatever is
                # still in the lane goes back into the queue, eids intact.
                for leid, lobj in lane:
                    heapq.heappush(queue, (when, leid, lobj))
                del lane[:]
            self._n_timers_cancelled += dead
            self._n_events_processed += n
            if n:
                self._n_events_coincident += n - 1
                self._n_timer_fastpath_hits += fast

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue empties.
            a number — run until that simulated time (clock ends exactly there).
            an :class:`Event` — run until that event is processed; returns its
            value (raising its exception if it failed).
        """
        if until is None:
            stop_at = math.inf
            stop_event = None
        elif isinstance(until, Event):
            stop_at = math.inf
            stop_event = until

            def _stop(ev: Event) -> None:
                raise StopSimulation(ev)

            if until.processed:
                if not until._ok:
                    until.defuse()
                    raise until._value
                return until._value
            until.callbacks.append(_stop)
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"run(until={stop_at}) is in the past (now={self._now})"
                )
            stop_event = None

        try:
            if stop_at == math.inf:
                # Tight drive: the batch dispatcher returns quietly when
                # the queue empties, so the loop needs no per-batch
                # peek()/step() indirection.
                queue = self._queue
                dispatch = self._step_batch
                while queue:
                    dispatch()
            else:
                while True:
                    t = self.peek()
                    if t == math.inf or t > stop_at:
                        break
                    # peek() already discarded dead heads, so the internal
                    # dispatcher can be driven directly.
                    self._step_batch()
        except StopSimulation as stop:
            ev = stop.value
            if not ev._ok:
                ev.defuse()
                raise ev._value from None
            return ev._value
        if stop_event is not None:
            raise SimulationError(
                "run(until=event) exhausted the queue before the event triggered"
            )
        if until is not None and not isinstance(until, Event):
            self._now = stop_at
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        queued = len(self._queue) + len(self._lane)
        return f"<{type(self).__name__} t={self._now:.6g} queued={queued}>"
