"""Generator-based simulated processes.

A process wraps a Python generator.  Each ``yield``ed :class:`Event` suspends
the process until the event triggers; the event's value is sent back into the
generator (or its exception thrown in).  A process is itself an event that
triggers when the generator returns (value = return value) or raises.

Interrupts
----------
:meth:`Process.interrupt` throws :class:`~repro.simcore.errors.Interrupt`
into the generator at the current simulation time, detaching it from whatever
event it was waiting on.  The process may re-wait on that event afterwards
(its reference is available as :attr:`Process.target` before the interrupt).
CALCioM's interruption strategy does not use it — a preempted application
stops at its next guard hook, through its arbiter access state — but a
failure-injection test kills an application this way.

The detached event is deliberately *not* cancelled: the interrupted process
(or anyone else holding a reference) may still re-wait on it, pass it to
``run(until=...)``, or compose it into a condition.  Its later dispatch with
an emptied callback list is a cheap no-op under the batch dispatcher —
cancellation is reserved for timers the canceller exclusively owns (see
:meth:`~repro.simcore.engine.Timer.cancel`).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .errors import Interrupt, SimulationError
from .events import Event, PENDING

__all__ = ["Process"]


class Process(Event):
    """An event that wraps a running generator.

    Do not instantiate directly — use :meth:`Simulator.process`.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, sim, generator: Generator[Event, Any, Any],
                 name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}"
            )
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the generator via an immediately-scheduled event so that
        # process bodies never run synchronously inside the caller.
        start = Event(sim)
        start._ok = True
        start._value = None
        sim._schedule(start, 0.0)
        start.callbacks.append(self._resume)
        self._target = start

    # -- inspection ---------------------------------------------------------
    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (None if running)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    # -- interruption ---------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Raises :class:`SimulationError` if the process already finished, or
        if the process attempts to interrupt itself (which would corrupt the
        generator stack).
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from the pending target so a later trigger doesn't resume us.
        if self._target is not None and not self._target.processed:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        ev = Event(self.sim)
        ev._ok = False
        ev._value = Interrupt(cause)
        ev._defused = True  # the throw below is the handling
        self.sim._schedule(ev, 0.0)
        ev.callbacks.append(self._resume)
        self._target = ev

    # -- engine plumbing ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        sim = self.sim
        sim._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The waiter handles the exception by receiving it.
                    event.defuse()
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._target = None
                sim._active_process = None
                self.succeed(exc.value)
                return
            except BaseException as exc:
                self._target = None
                sim._active_process = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                sim._active_process = None
                err = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._target = None
                try:
                    self._generator.throw(err)
                except BaseException as exc:
                    self.fail(exc)
                    return
                raise err
            if next_event.sim is not sim:
                raise SimulationError("yielded an event from a different simulator")

            if next_event.processed:
                # Already done: loop immediately with its outcome.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            self._target = next_event
            sim._active_process = None
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"
