"""CALCioM runtime: the machine-level entry point.

Typical usage::

    from repro.platforms import Platform, grid5000_rennes
    from repro.core import CalciomRuntime

    platform = Platform(grid5000_rennes())
    runtime = CalciomRuntime(platform, strategy="dynamic")
    client = platform.add_client("appA", nprocs=336)
    session = runtime.session("appA", client, nprocs=336)
    # hand `session` to an ADIOLayer (guard=session) — done.

The runtime owns the coordinator (strategy enforcement) and builds
per-application sessions wired with the platform's coordination latency
and standalone-time estimator.  Its live sessions are the paper's list of
running applications, which the job scheduler updates when a job starts
(:meth:`CalciomRuntime.session`) and finishes
(:meth:`CalciomRuntime.end_job`).  Each access state lives in the
coordinator's :class:`~repro.core.arbiter.AccessBook`: the arbiter's own,
or, with ``workers="process"``, a router-side mirror of each shard
worker's, replayed from its transition stream through the same book.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

from ..mpisim import Communicator
from ..platforms import Platform
from ..simcore import SimulationError
from .arbiter import Arbiter
from .session import CalciomSession
from .sharding import ShardRouter, make_coordinator
from .strategies import Strategy

__all__ = ["CalciomRuntime"]


class CalciomRuntime:
    """Cross-Application Layer for Coordinated I/O Management.

    Parameters
    ----------
    platform:
        The machine the applications run on (provides the simulator, the
        coordination-message latency, and the standalone-time estimator
        CALCioM sessions use for exchanged predictions).
    strategy:
        'interfere', 'fcfs', 'interrupt', 'dynamic', or a
        :class:`~repro.core.strategies.Strategy` instance.
    coordination_latency:
        Override for the cross-application message latency (defaults to
        twice the platform's link latency: coordinator -> peer coordinator
        crosses the fabric once, through the switch).
    decision_log_limit:
        Ring-buffer bound on the arbiter's decision log (None = unbounded,
        the figure-reproduction default; scale scenarios cap it).
    shards:
        Arbiter shards: ``None`` (default) runs one arbiter per platform
        partition (= the single machine-wide arbiter on unpartitioned
        machines), ``1`` forces one arbiter coordinating every partition
        (the unsharded baseline on partitioned machines).  Explicit values
        must be 1 or the platform's partition count — a shard owns whole
        partitions.  See :mod:`repro.core.sharding`.
    workers:
        ``"inline"`` (default) or ``"process"`` — forwarded to
        :class:`~repro.core.sharding.ShardRouter`.  Process mode runs
        each shard in its own worker process; call :meth:`close` (or let
        the experiment engine do it) after the run.

    The decision point is :attr:`coordinator`: a plain
    :class:`~repro.core.arbiter.Arbiter` for one inline shard, else a
    :class:`~repro.core.sharding.ShardRouter`.
    """

    def __init__(self, platform: Platform, strategy="dynamic",
                 coordination_latency: Optional[float] = None,
                 decision_log_limit: Optional[int] = None,
                 shards: Optional[int] = None,
                 workers: str = "inline"):
        self.platform = platform
        self.sim = platform.sim
        latency = (2 * platform.config.latency
                   if coordination_latency is None else coordination_latency)
        self.coordination_latency = float(latency)
        npartitions = getattr(platform.config, "npartitions", 1)
        nshards = npartitions if shards is None else int(shards)
        if nshards not in (1, npartitions):
            raise SimulationError(
                f"shards must be 1 or the platform's partition count "
                f"({npartitions}), got {nshards}")
        self.coordinator: Union[Arbiter, ShardRouter] = make_coordinator(
            self.sim, nshards, strategy,
            grant_latency=self.coordination_latency,
            decision_log_limit=decision_log_limit,
            perf=getattr(platform, "perf", None),
            workers=workers)
        # A system-provided arbiter knows its machine: give a dynamic
        # strategy the file-system bandwidth its decisions govern — the
        # whole machine for a single arbiter, the owned partition per
        # shard — so interference predictions honour client-side caps.
        if isinstance(self.coordinator, ShardRouter):
            strategies = [(shard.index, shard.arbiter.strategy)
                          for shard in self.coordinator.shards]
        else:
            strategies = [(0, self.coordinator.strategy)]
        for index, strat in strategies:
            if getattr(strat, "capacity", "absent") is None:
                strat.capacity = (
                    platform.config.aggregate_bandwidth if nshards == 1
                    else platform.config.partition_bandwidth(index))
        self._sessions: Dict[str, CalciomSession] = {}

    @property
    def strategy(self) -> Strategy:
        return self.coordinator.strategy

    def session(self, app: str, client: str, nprocs: int,
                comm: Optional[Communicator] = None,
                partitions: Optional[Sequence[int]] = None) -> CalciomSession:
        """Create the CALCioM session for one application (its job start).

        ``partitions`` is the application's declared file-system placement
        (as in :meth:`Platform.app_partitions`); ``None`` resolves to the
        platform's stable default for ``app``.
        """
        if app in self._sessions:
            raise SimulationError(f"application {app!r} already has a session")
        session = CalciomSession(
            self.sim, self.coordinator, app=app, client=client, nprocs=nprocs,
            estimator=self.platform.standalone_write_time,
            comm=comm,
            coordination_latency=self.coordination_latency,
            perf=getattr(self.platform, "perf", None),
            partitions=self._resolve_partitions(app, partitions),
        )
        self._sessions[app] = session
        return session

    def _resolve_partitions(self, app: str,
                            requested: Optional[Sequence[int]]
                            ) -> Tuple[int, ...]:
        resolver = getattr(self.platform, "app_partitions", None)
        if resolver is not None:
            return resolver(app, requested)
        return tuple(int(p) for p in requested) if requested else (0,)

    def end_job(self, app: str) -> None:
        """Job termination: drop the session and withdraw any access state."""
        if app not in self._sessions:
            raise SimulationError(f"unknown application {app!r}")
        self.coordinator.withdraw(app)
        del self._sessions[app]

    def sessions(self) -> Dict[str, CalciomSession]:
        """Live sessions by application name."""
        return dict(self._sessions)

    def close(self) -> None:
        """Release coordinator resources (shard worker processes).

        Idempotent; a no-op for inline coordination.  Call after
        ``sim.run()`` and before the final ``decision_log`` read so
        per-worker logs and perf counters are shipped back and merged.
        """
        closer = getattr(self.coordinator, "close", None)
        if closer is not None:
            closer()

    @property
    def decision_log(self):
        """The audit log of strategy decisions (merged across shards)."""
        return self.coordinator.decision_log
