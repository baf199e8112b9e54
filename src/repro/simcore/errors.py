"""Exception types used by the simulation kernel.

The kernel distinguishes three failure channels:

* :class:`SimulationError` — programming errors in the way the kernel is
  driven (scheduling into the past, reusing a triggered event, ...).
* :class:`Interrupt` — thrown *into* a process generator by
  :meth:`repro.simcore.process.Process.interrupt`; carries an arbitrary
  ``cause`` so the interrupted process can decide how to react.  CALCioM
  does not use it: an application yields the file system at its next guard
  hook, when the arbiter has moved its access state to PREEMPTED.  Tests
  use it to kill a running application.
* Ordinary exceptions raised by a process propagate through the events that
  wait on it, exactly like SimPy's failure propagation.
"""

from __future__ import annotations

__all__ = ["SimulationError", "Interrupt", "StopSimulation"]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


class StopSimulation(Exception):
    """Internal control-flow exception that stops :meth:`Simulator.run`."""

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Exception thrown into a process by :meth:`Process.interrupt`.

    Parameters
    ----------
    cause:
        Arbitrary object describing why the process was interrupted.
    """

    def __init__(self, cause=None):
        super().__init__(cause)

    @property
    def cause(self):
        """The object passed to :meth:`Process.interrupt`."""
        return self.args[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.args[0]!r})"
