"""IOR-like benchmark application.

The paper's evaluation uses "a benchmark similar to IOR ... [that] allows
us to control the access patterns of each group of processes (for example,
contiguous or strided with a specified number of blocks and block sizes)".
:class:`IORApp` is that benchmark: a group of processes that, after an
optional start offset (the Δ-graph ``dt``), performs ``iterations`` I/O
phases of ``nfiles`` collective writes each, with full control over the
pattern, the CALCioM hook grain, and the access scope.

Terminology
-----------
scope:
    What counts as *one access* to the coordination layer — the unit
    FCFS serialization protects.  ``"file"``: each file write is informed
    and completed separately.  ``"phase"``: a whole iteration (all its
    files) is one access (the Fig 10/11 setup, where application A's four
    files form one logical output set).
grain:
    Where the ``Inform/Release`` hook points sit *inside* an access —
    ``"round"`` (each collective-buffering round; the authors' ADIO
    placement), ``"file"`` (between files; the application-level placement
    that yields Fig 10's saw pattern), or ``None`` (no interior hooks).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..mpisim import (
    ADIOLayer, AccessPattern, Communicator, IOGuard, MPIInfo, NullGuard,
)
from ..platforms import Platform
from ..simcore import Process

__all__ = ["IORConfig", "PhaseRecord", "IORApp"]


@dataclass(frozen=True)
class IORConfig:
    """Workload description for one IOR-like application instance."""

    name: str
    nprocs: int
    pattern: AccessPattern
    nfiles: int = 1
    iterations: int = 1
    start_time: float = 0.0        #: Δ-graph dt: when the app begins
    period: Optional[float] = None  #: start-to-start spacing of iterations
    think_time: float = 0.0        #: end-to-start compute gap (if no period)
    scope: str = "phase"           #: "phase" or "file" (see module docs)
    grain: Optional[str] = "round"  #: "round", "file", or None
    #: §VI future work, implemented: "an interrupted application can
    #: reorganize some of its internal operations (communications,
    #: compression, data processing) while waiting for its I/O to be
    #: resumed in order to further gain time."  When True, time spent
    #: blocked in CALCioM is credited against the next compute gap.
    overlap_compute: bool = False
    procs_per_node: int = 1
    cb_buffer_size: int = 4 * 1024 * 1024
    naggregators: Optional[int] = None
    #: File-system placement on partitioned platforms: ``None`` puts every
    #: file on the application's stable default partition; a sequence of
    #: partition indices places file ``f`` of each phase on entry
    #: ``f % len`` (several distinct entries make this a *span-partition*
    #: application, coordinated through the cross-shard protocol).
    #: Ignored (any value) on single-partition machines.
    partitions: Optional[Tuple[int, ...]] = None
    #: I/O direction per phase: ``"write"`` (default — every iteration
    #: writes fresh files) or ``"readwrite"`` (even iterations write, odd
    #: iterations read the previous iteration's files back — a
    #: checkpoint/restart-flavoured mix that keeps read traffic on data
    #: that exists).
    operation: str = "write"

    def __post_init__(self) -> None:
        if self.partitions is not None:
            object.__setattr__(self, "partitions",
                               tuple(int(p) for p in self.partitions))
            if not self.partitions:
                raise ValueError("partitions must be None or non-empty")
            if any(p < 0 for p in self.partitions):
                raise ValueError(f"negative partition in {self.partitions}")
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.nfiles < 1:
            raise ValueError(f"nfiles must be >= 1, got {self.nfiles}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.scope not in ("phase", "file"):
            raise ValueError(f"scope must be 'phase' or 'file', got {self.scope!r}")
        if self.grain not in (None, "round", "file"):
            raise ValueError(f"grain must be None/'round'/'file', got {self.grain!r}")
        if self.operation not in ("write", "readwrite"):
            raise ValueError(
                f"operation must be 'write' or 'readwrite', got {self.operation!r}")
        if self.start_time < 0:
            raise ValueError("start_time must be >= 0 (shift the other app instead)")

    @property
    def bytes_per_phase(self) -> int:
        """Aggregate bytes one iteration writes."""
        return self.nfiles * self.pattern.total_bytes(self.nprocs)

    def with_(self, **changes) -> "IORConfig":
        """A modified copy (e.g. ``cfg.with_(nprocs=384)``)."""
        return replace(self, **changes)

    def to_ior(self) -> "IORConfig":
        """This config itself.

        The benchmark harness (``perfbench/``) calls this on every entry
        of ``ExperimentSpec.workloads`` when it checks byte conservation.
        That harness is kept unchanged so its numbers stay comparable
        across commits; nothing else calls this.
        """
        return self


@dataclass
class PhaseRecord:
    """Measured outcome of one I/O phase (iteration)."""

    iteration: int
    start: float
    end: float
    bytes: int
    wait_time: float = 0.0   #: time blocked in CALCioM
    comm_time: float = 0.0   #: collective-buffering shuffle time
    write_time: float = 0.0  #: time in actual file-system writes

    @property
    def duration(self) -> float:
        """Wall-clock I/O-phase time — the paper's per-phase 'write time'."""
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Bytes/s observed by the application for this phase."""
        return self.bytes / self.duration if self.duration > 0 else float("inf")


class IORApp:
    """A runnable IOR-like application on a platform.

    Parameters
    ----------
    platform:
        The machine; a client endpoint named after the app is registered.
    config:
        The workload.
    guard:
        A CALCioM session (or any :class:`~repro.mpisim.adio.IOGuard`);
        defaults to the uncoordinated :class:`NullGuard`.

    After :meth:`start` and a simulation run, :attr:`phases` holds one
    :class:`PhaseRecord` per iteration and :attr:`done` is the completion
    event (value = this app).
    """

    def __init__(self, platform: Platform, config: IORConfig,
                 guard: Optional[IOGuard] = None):
        self.platform = platform
        self.config = config
        self.guard = guard if guard is not None else NullGuard()
        self.client = platform.add_client(config.name, config.nprocs)
        self.comm = Communicator(
            platform.sim, config.nprocs,
            alpha=platform.config.latency,
            per_proc_bandwidth=platform.config.mpi_bandwidth_per_core,
            name=config.name,
        )
        self.adio = ADIOLayer(
            platform.sim, platform.pfs, self.client, config.name, self.comm,
            cb_buffer_size=config.cb_buffer_size,
            naggregators=config.naggregators,
            procs_per_node=config.procs_per_node,
            guard=self.guard,
        )
        self.phases: List[PhaseRecord] = []
        #: Partition footprint of this application's accesses (always
        #: ``(0,)`` on unpartitioned machines); matches what its CALCioM
        #: session exchanges for shard routing.
        self.partitions = platform.app_partitions(config.name,
                                                  config.partitions)
        self._process: Optional[Process] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Process:
        """Launch the application process; returns it (it is also an event)."""
        if self._process is not None:
            raise RuntimeError(f"{self.config.name} already started")
        self._process = self.platform.sim.process(
            self._run(), name=self.config.name
        )
        return self._process

    @property
    def done(self) -> Process:
        """The app's completion event (call :meth:`start` first)."""
        if self._process is None:
            raise RuntimeError(f"{self.config.name} not started")
        return self._process

    # -- behaviour -------------------------------------------------------------
    def _run(self):
        cfg = self.config
        sim = self.platform.sim
        if cfg.start_time > 0:
            yield sim.timeout(cfg.start_time)
        for it in range(cfg.iterations):
            phase_start = sim.now
            record = yield from self._io_phase(it, phase_start)
            self.phases.append(record)
            if it < cfg.iterations - 1:
                yield sim.timeout(self._gap(phase_start, record))
        return self

    def _gap(self, phase_start: float, record: "PhaseRecord") -> float:
        """Delay before the next iteration starts.

        With ``overlap_compute``, waiting inside CALCioM was spent on
        reorganized internal work, so it shortens the upcoming compute gap
        (bounded at zero — an app cannot bank more credit than it uses).
        """
        cfg = self.config
        now = self.platform.sim.now
        if cfg.period is not None:
            gap = max(0.0, phase_start + cfg.period - now)
        else:
            gap = cfg.think_time
        if cfg.overlap_compute:
            gap = max(0.0, gap - record.wait_time)
        return gap

    def _io_phase(self, iteration: int, phase_start: float):
        cfg = self.config
        sim = self.platform.sim
        record = PhaseRecord(iteration=iteration, start=phase_start,
                             end=phase_start, bytes=cfg.bytes_per_phase)
        phase_scoped = cfg.scope == "phase"
        if phase_scoped:
            plan0 = self.adio.plan(cfg.pattern)
            self.guard.prepare(MPIInfo(
                app=cfg.name, nprocs=cfg.nprocs, files=cfg.nfiles,
                total_bytes=cfg.bytes_per_phase,
                rounds=cfg.nfiles * plan0.nrounds,
            ))
            t0 = sim.now
            yield from self.guard.begin_access()
            record.wait_time += sim.now - t0
        reading = cfg.operation == "readwrite" and iteration % 2 == 1
        try:
            for f in range(cfg.nfiles):
                # Read phases re-read the files the previous (write)
                # iteration produced; write phases create fresh ones.
                source = iteration - 1 if reading else iteration
                path = f"/{cfg.name}/iter{source}/file{f}"
                self.platform.pin_path(path, self.platform.file_partition(
                    cfg.name, f, cfg.partitions))
                if reading:
                    stats = yield from self.adio.read_collective(
                        path, cfg.pattern, grain=cfg.grain
                    )
                else:
                    stats = yield from self.adio.write_collective(
                        path, cfg.pattern, grain=cfg.grain
                    )
                record.wait_time += stats.wait_time
                record.comm_time += stats.comm_time
                record.write_time += stats.write_time
            if phase_scoped:
                yield from self.guard.end_access()
        finally:
            if phase_scoped:
                self.guard.complete()
        record.end = sim.now
        return record

    # -- results ----------------------------------------------------------------
    @property
    def write_times(self) -> List[float]:
        """Per-iteration phase durations (the paper's y-axis)."""
        return [p.duration for p in self.phases]

    def total_io_time(self) -> float:
        """Σ phase durations across iterations."""
        return sum(p.duration for p in self.phases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IORApp {self.config.name!r} P={self.config.nprocs}>"
