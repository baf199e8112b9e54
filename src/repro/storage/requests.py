"""I/O request descriptors exchanged between clients and storage servers."""

from __future__ import annotations

from itertools import count
from typing import Optional

__all__ = ["IORequest"]

_request_ids = count()


class IORequest:
    """One client-side I/O operation as seen by a storage server.

    Requests are *application-level aggregates*: an application writing the
    same amount from each of N processes to one server is one request of
    ``weight=N``.  The fluid allocator treats that identically to N unit
    requests, while keeping the simulated request count (and hence cost)
    proportional to applications x servers instead of processes.

    Attributes: ``app`` (application identifier), ``client`` (fabric
    endpoint the bytes come from), ``path``, ``offset`` and ``size`` (the
    byte range), ``kind`` (``"write"`` or ``"read"``), ``weight`` (max-min
    weight, typically the process count), ``cap`` (per-request rate
    ceiling in B/s, or None), ``submitted`` (simulation time of
    submission) and ``rid`` (a process-wide sequence number).
    """

    __slots__ = ("app", "client", "path", "offset", "size", "kind",
                 "weight", "cap", "submitted", "rid")

    def __init__(self, app: str, client: str, path: str, offset: int,
                 size: float, kind: str = "write", weight: float = 1.0,
                 cap: Optional[float] = None, submitted: float = 0.0):
        if kind != "write" and kind != "read":
            raise ValueError(f"kind must be 'write' or 'read', got {kind!r}")
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        self.app = app
        self.client = client
        self.path = path
        self.offset = offset
        self.size = size
        self.kind = kind
        self.weight = weight
        self.cap = cap
        self.submitted = submitted
        self.rid = next(_request_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IORequest(rid={self.rid}, app={self.app!r}, "
                f"kind={self.kind!r}, path={self.path!r}, "
                f"offset={self.offset}, size={self.size}, "
                f"weight={self.weight})")
