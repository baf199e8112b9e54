"""The ADIO layer: where collective writes meet the file system — and CALCioM.

ROMIO's ADIO is the abstract device layer under MPI-IO; the paper's authors
implemented "a custom, CALCioM-enabled ADIO layer for ROMIO" whose
``Inform/Release`` calls surround "each atomic call to independent
contiguous writes".  This module mirrors that: :class:`ADIOLayer` executes
collective-buffering plans against the simulated PFS and invokes an
:class:`IOGuard` at a configurable *grain*:

* ``grain="round"`` — guard brackets every collective-buffering round (the
  authors' ADIO-level placement; finest interruption latency);
* ``grain="file"`` — guard brackets a whole file write (the application
  -level placement that produces Fig 10's "saw" pattern);
* ``grain=None`` — no hooks (callers manage guarding themselves, e.g. for
  phase-level placement around multiple files).

The guard interface is deliberately tiny so that both the no-op baseline
(:class:`NullGuard`) and the CALCioM session satisfy it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..simcore import Simulator
from ..storage import ParallelFileSystem
from .communicator import Communicator
from .datatypes import AccessPattern
from .info import MPIInfo
from .sieving import SievePlan, plan_data_sieving
from .twophase import CollectivePlan, plan_collective_write

__all__ = ["IOGuard", "NullGuard", "ADIOLayer", "WriteStats"]


class IOGuard:
    """Hook protocol invoked around guarded I/O steps.

    ``prepare``/``complete`` push and pop knowledge about a larger enclosing
    operation; ``begin_access``/``end_access`` are generators (they may cost
    simulated time for coordination messages, or block while another
    application holds the file system).
    """

    def prepare(self, info: MPIInfo) -> None:
        """Stack information describing upcoming accesses."""

    def complete(self) -> None:
        """Unstack the most recent :meth:`prepare` info."""

    def begin_access(self, step_info: Optional[MPIInfo] = None
                     ) -> Generator[Any, Any, None]:
        """Announce an imminent access; returns once authorized."""
        raise NotImplementedError

    def end_access(self) -> Generator[Any, Any, None]:
        """Declare the access finished; lets others re-evaluate strategy."""
        raise NotImplementedError


class NullGuard(IOGuard):
    """The interfering baseline: no coordination, no cost."""

    def begin_access(self, step_info: Optional[MPIInfo] = None):
        return
        yield  # pragma: no cover - makes this a generator function

    def end_access(self):
        return
        yield  # pragma: no cover


@dataclass
class WriteStats:
    """Timing breakdown of one ADIO write operation."""

    path: str
    bytes: int
    nrounds: int
    start: float
    end: float = 0.0
    comm_time: float = 0.0    #: total communication-phase time
    write_time: float = 0.0   #: total write-phase time
    wait_time: float = 0.0    #: time spent blocked in the guard
    round_marks: List[float] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall-clock time of the whole operation."""
        return self.end - self.start


class ADIOLayer:
    """Executes MPI-IO operations for one application against the PFS.

    Parameters
    ----------
    sim, pfs:
        Kernel objects.
    client:
        The application's fabric endpoint (from
        :meth:`~repro.platforms.Platform.add_client`).
    app:
        Application name (request labels, server-side weights).
    comm:
        The application's communicator (shuffle-phase cost model).
    cb_buffer_size, naggregators, procs_per_node:
        Collective-buffering configuration (see
        :func:`~repro.mpisim.twophase.plan_collective_write`).
    guard:
        The CALCioM session, or :class:`NullGuard` for the baseline.
    """

    def __init__(self, sim: Simulator, pfs: ParallelFileSystem, client: str,
                 app: str, comm: Communicator,
                 cb_buffer_size: int = 4 * 1024 * 1024,
                 naggregators: Optional[int] = None,
                 procs_per_node: int = 1,
                 guard: Optional[IOGuard] = None):
        self.sim = sim
        self.pfs = pfs
        self.client = client
        self.app = app
        self.comm = comm
        self.cb_buffer_size = int(cb_buffer_size)
        self.naggregators = naggregators
        self.procs_per_node = int(procs_per_node)
        self.guard = guard if guard is not None else NullGuard()
        self.history: List[WriteStats] = []
        self._plans: Dict[Tuple[AccessPattern, int], CollectivePlan] = {}

    # -- operations -------------------------------------------------------------
    def plan(self, pattern: AccessPattern, base_offset: int = 0) -> CollectivePlan:
        """The round plan a collective write of ``pattern`` would execute.

        Plans are pure in their inputs and immutable, so each
        ``(pattern, base_offset)`` is planned once per ADIO layer.
        """
        key = (pattern, base_offset)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = plan_collective_write(
                pattern, self.comm.nprocs,
                cb_buffer_size=self.cb_buffer_size,
                naggregators=self.naggregators,
                procs_per_node=self.procs_per_node,
                base_offset=base_offset,
            )
        return plan

    def write_collective(self, path: str, pattern: AccessPattern,
                         grain: Optional[str] = "round",
                         base_offset: int = 0):
        """Collective write (MPI_File_write_all analogue).  Generator.

        Use as ``stats = yield from adio.write_collective(...)`` inside a
        simulation process.  Returns :class:`WriteStats`.
        """
        if grain not in (None, "round", "file"):
            raise ValueError(f"grain must be None, 'round' or 'file', got {grain!r}")
        plan = self.plan(pattern, base_offset)
        stats = WriteStats(path=path, bytes=plan.total_bytes,
                           nrounds=plan.nrounds, start=self.sim.now)
        op_info = MPIInfo(
            app=self.app, nprocs=self.comm.nprocs, files=1,
            total_bytes=plan.total_bytes, rounds=plan.nrounds,
            bytes_per_round=plan.rounds[0].write_bytes if plan.rounds else 0,
        )
        self.guard.prepare(op_info)
        if grain == "file":
            t0 = self.sim.now
            yield from self.guard.begin_access(op_info)
            stats.wait_time += self.sim.now - t0
        try:
            for rnd in plan.rounds:
                if rnd.shuffle_bytes > 0:
                    t0 = self.sim.now
                    yield self.comm.shuffle(rnd.shuffle_bytes)
                    stats.comm_time += self.sim.now - t0
                if grain == "round":
                    t0 = self.sim.now
                    yield from self.guard.begin_access(MPIInfo(
                        app=self.app, nprocs=self.comm.nprocs,
                        round=rnd.index,
                    ))
                    stats.wait_time += self.sim.now - t0
                t0 = self.sim.now
                yield self.pfs.write(self.client, self.app, path,
                                     rnd.offset, rnd.write_bytes,
                                     weight=self.comm.nprocs)
                stats.write_time += self.sim.now - t0
                stats.round_marks.append(self.sim.now)
                if grain == "round":
                    yield from self.guard.end_access()
            if grain == "file":
                yield from self.guard.end_access()
        finally:
            self.guard.complete()
        stats.end = self.sim.now
        self.history.append(stats)
        return stats

    def write_independent(self, path: str, nbytes: int, offset: int = 0,
                          guarded: bool = True):
        """Independent contiguous write (no collective buffering).  Generator.

        One aggregate request per server, weight = process count.  Returns
        :class:`WriteStats` (with zero comm time and a single round).
        """
        stats = WriteStats(path=path, bytes=nbytes, nrounds=1,
                           start=self.sim.now)
        info = MPIInfo(app=self.app, nprocs=self.comm.nprocs, files=1,
                       total_bytes=nbytes, rounds=1, bytes_per_round=nbytes)
        if guarded:
            self.guard.prepare(info)
            t0 = self.sim.now
            yield from self.guard.begin_access(info)
            stats.wait_time += self.sim.now - t0
        try:
            t0 = self.sim.now
            yield self.pfs.write(self.client, self.app, path, offset, nbytes,
                                 weight=self.comm.nprocs)
            stats.write_time += self.sim.now - t0
            if guarded:
                yield from self.guard.end_access()
        finally:
            if guarded:
                self.guard.complete()
        stats.end = self.sim.now
        self.history.append(stats)
        return stats

    def read_collective(self, path: str, pattern: AccessPattern,
                        grain: Optional[str] = "round",
                        base_offset: int = 0):
        """Collective read (MPI_File_read_all analogue).  Generator.

        The mirror of :meth:`write_collective`: per round, aggregators
        issue one large contiguous read, then scatter the pieces to their
        owners over the compute fabric.  Returns :class:`WriteStats` (the
        same breakdown applies; ``write_time`` holds the read-phase time).
        """
        if grain not in (None, "round", "file"):
            raise ValueError(f"grain must be None, 'round' or 'file', got {grain!r}")
        plan = self.plan(pattern, base_offset)
        stats = WriteStats(path=path, bytes=plan.total_bytes,
                           nrounds=plan.nrounds, start=self.sim.now)
        op_info = MPIInfo(
            app=self.app, nprocs=self.comm.nprocs, files=1,
            total_bytes=plan.total_bytes, rounds=plan.nrounds,
            kind="read",
        )
        self.guard.prepare(op_info)
        if grain == "file":
            t0 = self.sim.now
            yield from self.guard.begin_access(op_info)
            stats.wait_time += self.sim.now - t0
        try:
            for rnd in plan.rounds:
                if grain == "round":
                    t0 = self.sim.now
                    yield from self.guard.begin_access(MPIInfo(
                        app=self.app, nprocs=self.comm.nprocs,
                        round=rnd.index,
                    ))
                    stats.wait_time += self.sim.now - t0
                t0 = self.sim.now
                yield self.pfs.read(self.client, self.app, path,
                                    rnd.offset, rnd.write_bytes,
                                    weight=self.comm.nprocs)
                stats.write_time += self.sim.now - t0
                stats.round_marks.append(self.sim.now)
                if grain == "round":
                    yield from self.guard.end_access()
                if rnd.shuffle_bytes > 0:
                    # Scatter phase follows the read of each round.
                    t0 = self.sim.now
                    yield self.comm.shuffle(rnd.shuffle_bytes)
                    stats.comm_time += self.sim.now - t0
            if grain == "file":
                yield from self.guard.end_access()
        finally:
            self.guard.complete()
        stats.end = self.sim.now
        self.history.append(stats)
        return stats

    def plan_sieved(self, pattern: AccessPattern,
                    buffer_size: Optional[int] = None,
                    base_offset: int = 0) -> SievePlan:
        """The per-process data-sieving plan for an independent access."""
        return plan_data_sieving(
            pattern, self.comm.nprocs,
            buffer_size=buffer_size or self.cb_buffer_size,
            base_offset=base_offset,
        )

    def write_independent_sieved(self, path: str, pattern: AccessPattern,
                                 buffer_size: Optional[int] = None,
                                 base_offset: int = 0,
                                 guarded: bool = True):
        """Independent write through data sieving.  Generator.

        Executes the aggregate traffic of all processes sieving in
        parallel: each buffer window becomes a read-modify-write pair of
        aggregate requests (weight = process count).  Cheap for contiguous
        patterns; for strided ones this moves ``~2 x nprocs`` times the
        payload — the optimization whose economics interference inverts.
        """
        plan = self.plan_sieved(pattern, buffer_size, base_offset)
        stats = WriteStats(path=path,
                           bytes=pattern.total_bytes(self.comm.nprocs),
                           nrounds=plan.nrequests, start=self.sim.now)
        info = MPIInfo(app=self.app, nprocs=self.comm.nprocs, files=1,
                       total_bytes=plan.aggregate_transferred,
                       rounds=plan.nrequests)
        if guarded:
            self.guard.prepare(info)
            t0 = self.sim.now
            yield from self.guard.begin_access(info)
            stats.wait_time += self.sim.now - t0
        try:
            # The plan is per process; all nprocs processes sieve the same
            # region concurrently.  Model the aggregate traffic by scaling
            # both volume and addressing by nprocs (under uniform striping
            # the layout fiction is free; the byte volume is what counts).
            # Reads need backing bytes (holes read as allocated space in
            # PVFS), so extend the file over the scaled extent first.
            scale = self.comm.nprocs
            extent = sum(n for _o, n, w in plan.operations if w)
            self.pfs.open(path).extend(base_offset * scale, extent * scale)
            for offset, nbytes, is_write in plan.operations:
                agg_offset = offset * scale
                aggregate = nbytes * scale
                t0 = self.sim.now
                if is_write:
                    yield self.pfs.write(self.client, self.app, path,
                                         agg_offset, aggregate,
                                         weight=self.comm.nprocs)
                else:
                    yield self.pfs.read(self.client, self.app, path,
                                        agg_offset, aggregate,
                                        weight=self.comm.nprocs)
                stats.write_time += self.sim.now - t0
                if guarded:
                    yield from self.guard.end_access()
                    if (offset, nbytes, is_write) != plan.operations[-1]:
                        t0 = self.sim.now
                        yield from self.guard.begin_access()
                        stats.wait_time += self.sim.now - t0
        finally:
            if guarded:
                self.guard.complete()
        stats.end = self.sim.now
        self.history.append(stats)
        return stats
