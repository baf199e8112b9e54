"""Object stores for simulated processes.

:class:`Store` is the SimPy-style FIFO the storage server schedulers use
as their request queues.
"""

from __future__ import annotations

from typing import Any, List

from .engine import Simulator
from .events import Event

__all__ = ["Store"]


class Store:
    """Unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks (queues are unbounded: simulated messages are cheap
    and the paper's coordinators consume promptly).  ``get`` returns an event
    that triggers with the oldest item.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: List[Any] = []
        self._getters: List[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next item (immediately if available)."""
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.pop(0))
        else:
            self._getters.append(ev)
        return ev

    def peek_all(self) -> List[Any]:
        """Non-destructive snapshot of queued items."""
        return list(self._items)
