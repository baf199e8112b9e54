"""Per-application CALCioM session: the paper's API, wired to the arbiter.

A session is the application's *coordinator* (the paper's "one process in
each application, typically rank 0"): it gathers knowledge about upcoming
I/O from inside the application (:meth:`prepare`), exchanges it with the
other applications (:meth:`inform`), and steers the application's I/O
through authorization checks (:meth:`check`, :meth:`wait`) and step
boundaries (:meth:`release`).

The session also implements the :class:`~repro.mpisim.adio.IOGuard`
protocol, so dropping it into an ADIO layer CALCioM-enables the whole I/O
stack of that application — the transparent-integration story of §III-B.

Costs: every ``inform``/``release`` exchange pays round-trip coordination
latency; an intra-application gather (coordinator collecting knowledge from
its ranks) is charged on ``prepare`` via the communicator model.  These
costs are real (and measured by the coordination-overhead ablation bench)
but tiny next to I/O phases, matching the paper's "negligible cost" claim.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..mpisim import Communicator, IOGuard, MPIInfo
from ..simcore import SimulationError, Simulator
from .arbiter import AccessState, Arbiter
from .metrics import AccessDescriptor

__all__ = ["CalciomSession"]


class CalciomSession(IOGuard):
    """One application's handle on the CALCioM coordination layer.

    Created by :meth:`CalciomRuntime.session`; not instantiated directly.
    """

    def __init__(self, sim: Simulator, arbiter: Arbiter, app: str,
                 client: str, nprocs: int, estimator,
                 comm: Optional[Communicator] = None,
                 coordination_latency: float = 50e-6,
                 perf=None, partitions: Optional[Tuple[int, ...]] = None):
        self.sim = sim
        #: The coordination endpoint: an :class:`~repro.core.arbiter.Arbiter`
        #: or a :class:`~repro.core.sharding.ShardRouter` (same protocol
        #: surface) — the session never needs to know which.
        self.arbiter = arbiter
        self.app = app
        self.client = client
        self.nprocs = int(nprocs)
        self._estimate_t_alone = estimator
        self.comm = comm
        self.coordination_latency = float(coordination_latency)
        self.perf = perf
        #: File-system partitions this application's accesses target —
        #: exchanged on every fresh Inform so a sharded coordination layer
        #: can route to the owning arbiter shard(s).
        self.partitions: Tuple[int, ...] = (tuple(int(p) for p in partitions)
                                            if partitions else (0,))
        self._info_stack: List[MPIInfo] = []
        self._descriptor: Optional[AccessDescriptor] = None
        self.total_wait_time = 0.0
        self.coordination_messages = 0

    # ------------------------------------------------------------------
    # The paper's API (§III-C)
    # ------------------------------------------------------------------
    def prepare(self, info: MPIInfo) -> None:
        """``Prepare(MPI_Info)`` — stack knowledge about future accesses.

        The coordinator's intra-application gather is modelled as a cost on
        the next :meth:`inform` (rank 0 collects a few bytes per rank).
        """
        self._info_stack.append(info)
        if self._descriptor is None:
            self._descriptor = self._build_descriptor(info)
        # Nested Prepare calls (e.g. the ADIO layer inside an application
        # -scoped phase) describe a *part* of the outer access; the
        # outermost description stays authoritative.

    def complete(self) -> None:
        """``Complete()`` — unstack; outermost pop ends the access."""
        if not self._info_stack:
            raise SimulationError(f"{self.app}: Complete() without Prepare()")
        self._info_stack.pop()
        if not self._info_stack:
            self.arbiter.on_complete(self.app)
            self._descriptor = None

    def inform(self, step_info: Optional[MPIInfo] = None
               ) -> Generator[object, object, bool]:
        """``Inform()`` — ship current knowledge to the other applications.

        Returns (via StopIteration value) whether the application is
        authorized after the exchange.
        """
        if self._descriptor is None:
            raise SimulationError(f"{self.app}: Inform() without Prepare()")
        if step_info is not None:
            self._refresh_descriptor(step_info)
        cost = 2 * self.coordination_latency  # request + responses
        if self.comm is not None and self._fresh_access():
            # Rank-0 gathers a few tens of bytes of I/O knowledge from its
            # ranks: latency-dominated, so charge the log-tree term only.
            cost += self.comm.gather_time(0.0)
        self.coordination_messages += 1
        if self.perf is not None:
            self.perf.bump("coord_messages")
        yield self.sim.timeout(cost)
        # Join the same-timestamp coordination round; the result event
        # fires (still at this timestamp) when the round is flushed.
        return (yield self.arbiter.submit_inform(self._descriptor))

    def check(self) -> bool:
        """``Check(int*)`` — non-blocking: are we allowed to access?"""
        return self.arbiter.is_authorized(self.app)

    def wait(self) -> Generator[object, object, None]:
        """``Wait()`` — block until the other applications agree we may go."""
        if self.check() and not self.arbiter.grant_in_flight(self.app):
            return
        t0 = self.sim.now
        yield self.arbiter.authorization_event(self.app)
        self.total_wait_time += self.sim.now - t0

    def release(self) -> Generator[object, object, None]:
        """``Release()`` — end a step; let the strategy be re-evaluated."""
        self.coordination_messages += 1
        if self.perf is not None:
            self.perf.bump("coord_messages")
        yield self.sim.timeout(self.coordination_latency)
        remaining = (self._descriptor.remaining_bytes
                     if self._descriptor is not None else None)
        self.arbiter.submit_release(self.app, remaining)

    # ------------------------------------------------------------------
    # IOGuard protocol (what the ADIO layer calls)
    # ------------------------------------------------------------------
    def begin_access(self, step_info: Optional[MPIInfo] = None):
        """Inform + wait-until-authorized, one guarded step about to start."""
        authorized = yield from self.inform(step_info)
        if not authorized:
            yield from self.wait()

    def end_access(self):
        """Release after a guarded step."""
        if self._descriptor is not None and self._descriptor.rounds > 0:
            per_round = self._descriptor.total_bytes / self._descriptor.rounds
            self._descriptor.remaining_bytes = max(
                0.0, self._descriptor.remaining_bytes - per_round
            )
        yield from self.release()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fresh_access(self) -> bool:
        return self.arbiter.state_of(self.app) is AccessState.IDLE

    def _build_descriptor(self, info: MPIInfo) -> AccessDescriptor:
        total = info.get_float("total_bytes")
        partitions = info.get("partitions")
        return AccessDescriptor(
            app=self.app,
            nprocs=info.get_int("nprocs", self.nprocs),
            total_bytes=total,
            t_alone=self._estimate_t_alone(self.nprocs, total),
            files=info.get_int("files", 1),
            rounds=info.get_int("rounds", 1),
            partitions=(tuple(int(p) for p in partitions)
                        if partitions else self.partitions),
        )

    def _refresh_descriptor(self, info: MPIInfo) -> None:
        d = self._descriptor
        if d is None:
            return
        if "remaining_bytes" in info:
            d.remaining_bytes = info.get_float("remaining_bytes")
        if "rounds" in info:
            d.rounds = info.get_int("rounds", d.rounds)
        if "total_bytes" in info and d.total_bytes == 0:
            d.total_bytes = info.get_float("total_bytes")
            d.remaining_bytes = d.total_bytes
            d.t_alone = self._estimate_t_alone(self.nprocs, d.total_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CalciomSession {self.app!r} state={self.arbiter.state_of(self.app).value}>"
