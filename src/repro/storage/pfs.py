"""The parallel file system facade: files, striping, and client operations.

Clients (the simulated MPI-IO layer, or applications directly) address the
file system through :meth:`ParallelFileSystem.write` /
:meth:`ParallelFileSystem.read`, which partition byte ranges across data
servers by the file's stripe layout and submit per-server aggregate
requests.  The returned event completes when every server involved has
absorbed its share — the semantics of a synchronous parallel write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..network import Fabric
from ..simcore import AllOf, Event, SimulationError, Simulator
from .requests import IORequest
from .server import StorageServer
from .striping import StripeLayout

__all__ = ["ParallelFileSystem", "FileMeta"]


@dataclass
class FileMeta:
    """Metadata for one striped file."""

    path: str
    layout: StripeLayout
    size: int = 0
    created_at: float = 0.0
    writes: int = field(default=0)

    def extend(self, offset: int, nbytes: int) -> None:
        self.size = max(self.size, offset + nbytes)
        self.writes += 1


class ParallelFileSystem:
    """A PVFS2/OrangeFS-style striped parallel file system.

    Parameters
    ----------
    sim, fabric:
        Kernel objects (servers must already be fabric endpoints).
    servers:
        Data servers, in stripe order.
    stripe_size:
        Default stripe unit for newly created files, bytes.
    """

    def __init__(self, sim: Simulator, fabric: Fabric,
                 servers: List[StorageServer], stripe_size: int = 64 * 1024):
        if not servers:
            raise SimulationError("a parallel file system needs >= 1 server")
        self.sim = sim
        self.fabric = fabric
        self.servers = list(servers)
        self.stripe_size = int(stripe_size)
        self._files: Dict[str, FileMeta] = {}
        #: Shared :class:`~repro.perf.PerfCounters` (from the flow network).
        self.perf = fabric.net.perf

    # -- namespace ------------------------------------------------------------
    def create(self, path: str, stripe_size: Optional[int] = None) -> FileMeta:
        """Create a file (round-robin start server chosen by path hash)."""
        if path in self._files:
            raise SimulationError(f"file exists: {path!r}")
        layout = StripeLayout(
            nservers=len(self.servers),
            stripe_size=stripe_size or self.stripe_size,
            # Stable, python-hash-randomization-free start-server choice.
            first_server=sum(path.encode()) % len(self.servers),
        )
        meta = FileMeta(path=path, layout=layout, created_at=self.sim.now)
        self._files[path] = meta
        return meta

    def open(self, path: str, create: bool = True) -> FileMeta:
        """Look a file up, optionally creating it."""
        meta = self._files.get(path)
        if meta is None:
            if not create:
                raise SimulationError(f"no such file: {path!r}")
            meta = self.create(path)
        return meta

    def unlink(self, path: str) -> None:
        """Remove a file from the namespace."""
        if path not in self._files:
            raise SimulationError(f"no such file: {path!r}")
        del self._files[path]

    def stat(self, path: str) -> FileMeta:
        """File metadata (raises if absent)."""
        return self.open(path, create=False)

    def listdir(self) -> List[str]:
        """All file paths, sorted."""
        return sorted(self._files)

    # -- data path ----------------------------------------------------------------
    def write(self, client: str, app: str, path: str, offset: int, nbytes: int,
              weight: float = 1.0, cap: Optional[float] = None) -> Event:
        """Write ``nbytes`` at ``offset``; event fires when all servers finish.

        ``client`` is the fabric endpoint sourcing the data; ``weight`` is
        the process count behind this operation (max-min share at each
        server); ``cap`` optionally rate-limits each per-server request.

        A range on one server returns that server's request event itself
        (its value is the request's flow, or ``None`` if cancelled); a
        range over several servers returns an :class:`~repro.simcore.AllOf`
        of their events, whose value maps each to its outcome.  A zero-byte
        write returns an event that already succeeded with ``None``.
        """
        meta = self.open(path)
        meta.extend(offset, nbytes)
        if self.perf is not None:
            self.perf.bump("pfs_writes")
        return self._issue(client, app, path, offset, nbytes, weight, cap, "write")

    def read(self, client: str, app: str, path: str, offset: int, nbytes: int,
             weight: float = 1.0, cap: Optional[float] = None) -> Event:
        """Read ``nbytes`` at ``offset`` into ``client``."""
        meta = self.stat(path)
        if offset + nbytes > meta.size:
            raise SimulationError(
                f"read past EOF on {path!r} ({offset + nbytes} > {meta.size})"
            )
        if self.perf is not None:
            self.perf.bump("pfs_reads")
        return self._issue(client, app, path, offset, nbytes, weight, cap, "read")

    def _issue(self, client: str, app: str, path: str, offset: int,
               nbytes: int, weight: float, cap: Optional[float],
               kind: str) -> Event:
        meta = self._files[path]
        parts = meta.layout.partition(offset, nbytes)
        events = []
        for server_idx, server_bytes in parts.items():
            req = IORequest(
                app=app, client=client, path=path, offset=offset,
                size=server_bytes, kind=kind, weight=weight, cap=cap,
            )
            events.append(self.servers[server_idx].submit(req))
        if len(events) == 1:
            return events[0]
        if not events:  # zero-byte op completes immediately
            ev = self.sim.event()
            ev.succeed(None)
            return ev
        return AllOf(self.sim, events)

    # -- accounting ------------------------------------------------------------------
    @property
    def total_bytes_written(self) -> float:
        return sum(s.bytes_written for s in self.servers)

    @property
    def total_bytes_read(self) -> float:
        return sum(s.bytes_read for s in self.servers)
