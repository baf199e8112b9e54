"""Sharded coordination: one arbiter per file-system partition.

The paper's arbiter mediates *all* access to *the* shared storage system.
Real platforms expose several file-system partitions (our
:class:`~repro.platforms.Platform` models them as disjoint server groups,
each with its own :class:`~repro.storage.ParallelFileSystem`), and a single
machine-wide decision point becomes the coordination bottleneck long before
the storage does.  This module scales the decision loop out:

* :class:`ArbiterShard` — one indexed/batched
  :class:`~repro.core.arbiter.Arbiter` owning one partition;
* :class:`ShardRouter` — the session-facing coordinator.  It routes each
  application's Inform/Release/Complete to the shard(s) owning the
  access's target partitions (``AccessDescriptor.partitions``, exchanged
  knowledge like everything else) and merges per-shard decision logs.

Cross-shard protocol (span accesses)
------------------------------------
An access touching several partitions must hold an authorization on every
involved shard at once.  The router uses an **ordered-lock two-phase
grant**: shards are engaged strictly in ascending shard order, and the
next shard is only informed once the previous one granted.  Because every
span access acquires in the same global order, no cycle of
"holds i, waits for j" can form — the protocol is deadlock-free by the
classic ordered-resource argument, and per-shard FIFO arbitration keeps it
deterministic.  A shard preempting a span access mid-flight simply makes
the application's next guarded step block until that shard re-grants
(interruption at guard boundaries, exactly the single-arbiter semantics);
a withdraw mid-acquisition releases the already-held shards and abandons
the rest of the chain.

Who uses the router
-------------------
:class:`~repro.core.api.CalciomRuntime` gives an unsharded inline run a
plain :class:`~repro.core.arbiter.Arbiter` and builds a router only for
real sharding or for ``workers="process"``.  A one-shard router runs the
general path below; its decision logs and completion times still equal
the bare arbiter's, which ``benchmarks/test_scale_shards.py`` asserts.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

from ..simcore import AllOf, Event, SimulationError, Simulator
from .arbiter import AccessState, Arbiter, DecisionRecord
from .metrics import AccessDescriptor
from .strategies import Action, Strategy, make_strategy

__all__ = ["ArbiterShard", "ShardRouter", "ShardWorkerError",
           "make_coordinator"]


def make_coordinator(sim: Simulator, nshards: int, strategy,
                     grant_latency: float = 0.0,
                     decision_log_limit: Optional[int] = None, perf=None,
                     workers: str = "inline"):
    """The decision point for ``nshards`` shards: a plain :class:`Arbiter`
    for one inline shard, else a :class:`ShardRouter`."""
    if nshards == 1 and workers == "inline":
        return Arbiter(sim, strategy, grant_latency=grant_latency,
                       decision_log_limit=decision_log_limit, perf=perf)
    return ShardRouter(sim, nshards, strategy, grant_latency=grant_latency,
                       decision_log_limit=decision_log_limit, perf=perf,
                       workers=workers)


class ShardWorkerError(SimulationError):
    """A shard worker process died or misbehaved mid-run.

    Raised out of the simulation by the process-parallel backend
    (:mod:`repro.core.shardproc`) after it has withdrawn in-flight
    grants on the surviving workers and torn the pool down — the
    experiment fails cleanly instead of hanging on a dead pipe.
    """


class _ShardPerf:
    """Per-shard perf proxy: each counter counts globally and per shard.

    ``coord_decisions`` stays the machine-wide total (so sharded and
    unsharded runs read the same way) while ``coord_decisions_shard3``
    makes per-shard load visible in ``ExperimentResult.perf``.  The
    shard's arbiter attaches its counters through the proxy, so every
    read folds each one into both names.
    """

    __slots__ = ("_perf", "_suffix")

    def __init__(self, perf, index: int):
        self._perf = perf
        self._suffix = f"_shard{index}"

    def attach(self, source, names) -> None:
        self._perf.attach(source, names, suffix=self._suffix)


class ArbiterShard:
    """One partition's arbiter plus its identity in the shard set."""

    __slots__ = ("index", "arbiter")

    def __init__(self, index: int, arbiter: Arbiter):
        self.index = index
        self.arbiter = arbiter

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArbiterShard {self.index} {self.arbiter.strategy!r}>"


class _Span:
    """In-flight ordered acquisition state of one multi-shard access."""

    __slots__ = ("app", "shards", "engaged", "cancelled", "complete",
                 "auth_event")

    def __init__(self, app: str, shards: Tuple[int, ...], auth_event: Event):
        self.app = app
        self.shards = shards
        self.engaged: List[int] = []   #: shards already informed, in order
        self.cancelled = False
        self.complete = False
        #: Fires when the whole chain holds (wakes the session's Wait()).
        self.auth_event = auth_event


class ShardRouter:
    """Routes one machine's coordination traffic to per-partition arbiters.

    Implements the same session-facing protocol surface as
    :class:`~repro.core.arbiter.Arbiter` (``submit_inform`` /
    ``on_inform`` / ``on_release`` / ``submit_release`` / ``on_complete``
    / ``withdraw`` / ``authorization_event`` / queries), so
    :class:`~repro.core.session.CalciomSession` and
    :class:`~repro.core.api.CalciomRuntime` use either interchangeably.

    Parameters
    ----------
    sim:
        The simulator shared by every shard.
    nshards:
        Number of arbiter shards.  Partition ``p`` is owned by shard
        ``p % nshards`` — with one shard per partition that is the
        identity map, with ``nshards=1`` everything routes to the single
        arbiter (the unsharded baseline).
    strategy:
        Name, class, or :class:`~repro.core.strategies.Strategy` instance.
        Names/classes build one independent instance per shard; an
        instance is used as-is with one shard and shallow-copied per
        shard otherwise, so per-shard configuration (e.g. the capacity a
        runtime injects) never aliases across shards.
    grant_latency, decision_log_limit:
        Forwarded to every shard's :class:`Arbiter`.
    perf:
        Optional :class:`~repro.perf.PerfCounters`; with several shards
        each arbiter additionally bumps ``coord_*_shard<i>`` counters.
    workers:
        ``"inline"`` (default) hosts every shard's arbiter in this
        process; ``"process"`` runs each shard in its own worker process
        behind :class:`~repro.core.shardproc.ShardProcessPool` (lazy
        fork/spawn on the first exchange, so runtime-injected strategy
        capacity ships with the worker; the worker plane speaks JSON).
        Inline mode is the cross-checked oracle: process mode produces
        bit-identical merged decision logs on the committed scenarios.
    """

    def __init__(self, sim: Simulator, nshards: int, strategy,
                 grant_latency: float = 0.0,
                 decision_log_limit: Optional[int] = None, perf=None,
                 workers: str = "inline"):
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        if workers not in ("inline", "process"):
            raise ValueError(f"workers must be 'inline' or 'process', "
                             f"got {workers!r}")
        self.sim = sim
        self.nshards = int(nshards)
        self.perf = perf
        self.workers = workers
        is_instance = isinstance(strategy, Strategy)

        def _strat() -> Strategy:
            if not is_instance:
                return make_strategy(strategy)
            if self.nshards == 1:
                return strategy
            return copy.copy(strategy)

        self.shards: List[ArbiterShard] = []
        self._pool = None
        if workers == "process":
            # Imported lazily: shardproc pulls in repro.service.protocol,
            # which must not load while repro.core is still initializing.
            from .shardproc import ShardProcessPool, WorkerShardProxy
            self._pool = ShardProcessPool(
                sim, self.nshards, grant_latency=grant_latency,
                decision_log_limit=decision_log_limit, perf=perf)
            for i in range(self.nshards):
                proxy = WorkerShardProxy(self._pool, i, _strat())
                self.shards.append(ArbiterShard(i, proxy))
        else:
            for i in range(self.nshards):
                shard_perf = (perf if (perf is None or self.nshards == 1)
                              else _ShardPerf(perf, i))
                self.shards.append(ArbiterShard(i, Arbiter(
                    sim, _strat(), grant_latency=grant_latency,
                    decision_log_limit=decision_log_limit,
                    perf=shard_perf)))
        self._targets: Dict[str, Tuple[int, ...]] = {}
        self._span: Dict[str, _Span] = {}

    def close(self) -> None:
        """Tear down worker processes (no-op for inline shards).

        With ``workers="process"`` this drains outstanding replies,
        ships every worker's decision log and perf counters back to the
        router side, and joins the pool — call it after ``sim.run()``
        and before reading ``decision_log`` for the last time.
        """
        if self._pool is not None:
            self._pool.close()

    # -- routing -----------------------------------------------------------
    def shard_of(self, partition: int) -> int:
        """The shard owning file-system ``partition``."""
        return int(partition) % self.nshards

    def _shards_for(self, descriptor: AccessDescriptor) -> Tuple[int, ...]:
        partitions = descriptor.partitions or (0,)
        return tuple(sorted({self.shard_of(p) for p in partitions}))

    def _involved(self, app: str) -> Tuple[int, ...]:
        span = self._span.get(app)
        if span is not None and not span.complete:
            return tuple(span.engaged)
        return self._targets.get(app, ())

    def _arb(self, index: int) -> Arbiter:
        return self.shards[index].arbiter

    # -- queries -----------------------------------------------------------
    @property
    def strategy(self) -> Strategy:
        return self.shards[0].arbiter.strategy

    @property
    def decision_log(self) -> List[DecisionRecord]:
        """All shards' decision records merged in time order (a snapshot;
        the sort is stable, so ties keep shard order)."""
        merged: List[DecisionRecord] = []
        for shard in self.shards:
            merged.extend(shard.arbiter.decision_log)
        merged.sort(key=lambda record: record.time)
        return merged

    def state_of(self, app: str) -> AccessState:
        involved = self._targets.get(app)
        if not involved:
            return AccessState.IDLE
        states = [self._arb(s).state_of(app) for s in self._involved(app)]
        span = self._span.get(app)
        if span is not None and not span.complete:
            # Mid-acquisition: holding a prefix of the chain is waiting.
            return AccessState.WAITING
        if states and all(s is AccessState.ACTIVE for s in states):
            return AccessState.ACTIVE
        if any(s is AccessState.PREEMPTED for s in states):
            return AccessState.PREEMPTED
        if all(s is AccessState.IDLE for s in states):
            return AccessState.IDLE
        return AccessState.WAITING

    def is_authorized(self, app: str) -> bool:
        return self.state_of(app) is AccessState.ACTIVE

    def descriptor_of(self, app: str) -> Optional[AccessDescriptor]:
        for s in self._involved(app):
            desc = self._arb(s).descriptor_of(app)
            if desc is not None:
                return desc
        return None

    def active_descriptors(self) -> List[AccessDescriptor]:
        out: List[AccessDescriptor] = []
        for shard in self.shards:
            out.extend(shard.arbiter.active_descriptors())
        return out

    def waiting_descriptors(self) -> List[AccessDescriptor]:
        out: List[AccessDescriptor] = []
        for shard in self.shards:
            out.extend(shard.arbiter.waiting_descriptors())
        return out

    def grant_in_flight(self, app: str) -> bool:
        return any(self._arb(s).grant_in_flight(app)
                   for s in self._involved(app))

    def authorization_event(self, app: str) -> Event:
        span = self._span.get(app)
        if span is not None and not span.complete:
            return span.auth_event
        involved = self._targets.get(app)
        if not involved:
            return self.shards[0].arbiter.authorization_event(app)
        events = [self._arb(s).authorization_event(app) for s in involved]
        if len(events) == 1:
            return events[0]
        return AllOf(self.sim, events)

    # -- protocol entry points ---------------------------------------------
    def submit_inform(self, descriptor: AccessDescriptor) -> Event:
        app = descriptor.app
        if app in self._targets:   # continuation / knowledge refresh
            involved = self._involved(app)
            if len(involved) == 1:
                return self._arb(involved[0]).submit_inform(descriptor)
            return self._and_events(
                [self._arb(s).submit_inform(descriptor.copy())
                 for s in involved])
        involved = self._shards_for(descriptor)
        self._targets[app] = involved
        if len(involved) == 1:
            return self._arb(involved[0]).submit_inform(descriptor)
        return self._begin_span(app, descriptor, involved)

    def on_inform(self, descriptor: AccessDescriptor) -> bool:
        app = descriptor.app
        if app in self._targets:
            involved = self._involved(app)
            results = [self._arb(s).on_inform(
                descriptor if len(involved) == 1 else descriptor.copy())
                for s in involved]
            return bool(results) and all(results)
        involved = self._shards_for(descriptor)
        self._targets[app] = involved
        if len(involved) == 1:
            return self._arb(involved[0]).on_inform(descriptor)
        # Ordered acquisition is inherently asynchronous: report
        # unauthorized now, let the chain run, and wake the session's
        # Wait() through the span's authorization event.
        self._begin_span(app, descriptor, involved)
        return False

    def on_release(self, app: str,
                   remaining_bytes: Optional[float] = None) -> None:
        for s in self._involved(app):
            self._arb(s).on_release(app, remaining_bytes)

    def submit_release(self, app: str,
                       remaining_bytes: Optional[float] = None) -> None:
        for s in self._involved(app):
            self._arb(s).submit_release(app, remaining_bytes)

    def on_complete(self, app: str) -> None:
        span = self._span.pop(app, None)
        if span is not None:
            span.cancelled = True
        involved = self._targets.pop(app, None)
        for s in involved or ():
            # Shards the chain never engaged see an IDLE app: no-op.
            self._arb(s).on_complete(app)

    def withdraw(self, app: str) -> None:
        self.on_complete(app)

    # -- the ordered-lock two-phase grant ----------------------------------
    def _begin_span(self, app: str, descriptor: AccessDescriptor,
                    involved: Tuple[int, ...]) -> Event:
        span = _Span(app, involved, self.sim.event())
        self._span[app] = span
        result = self.sim.event()
        self.sim.process(self._acquire(span, descriptor, result),
                         name=f"span-grant:{app}")
        return result

    def _acquire(self, span: _Span, descriptor: AccessDescriptor,
                 result: Event):
        """Engage each involved shard in ascending order, holding grants.

        ``result`` reports the Inform outcome to the session: True only
        if every shard granted without queueing, otherwise False as soon
        as the first shard queues us (the session then blocks in Wait()
        on the span's authorization event, which fires when the full
        chain is held).

        DELAY negotiation: when a *later* shard in the chain answers with
        a DELAY hold while earlier shards are already granted, holding
        that prefix would pin their capacity idle for the whole hold.
        Instead the chain retreats — withdraws from every engaged shard —
        waits out the hold, and re-acquires the full chain in ascending
        order.  Each attempt acquires in the same global order, so
        deadlock-freedom is preserved; a DELAY on the *first* shard holds
        nothing and simply waits.
        """
        app = span.app
        while True:
            requeue_delay = None
            for s in span.shards:
                if span.cancelled:
                    break
                arb = self._arb(s)
                span.engaged.append(s)
                ok = yield arb.submit_inform(descriptor.copy())
                if span.cancelled:
                    break
                if not ok:
                    if not result.triggered:
                        result.succeed(False)
                    if len(span.engaged) > 1:
                        dec = arb.last_decision_for(app)
                        if (dec is not None and dec[0] is Action.DELAY
                                and dec[1] > 0.0):
                            requeue_delay = dec[1]
                            break
                    yield arb.authorization_event(app)
            if span.cancelled:
                if not result.triggered:
                    result.succeed(False)
                return
            if requeue_delay is None:
                break
            # Retreat: release every engaged shard (the delaying one's
            # hold is epoch-cancelled by its withdraw), sleep the hold
            # out, then restart the whole ascending chain.
            for s in span.engaged:
                self._arb(s).withdraw(app)
            del span.engaged[:]
            yield self.sim.timeout(requeue_delay)
            if span.cancelled:
                if not result.triggered:
                    result.succeed(False)
                return
        span.complete = True
        if not result.triggered:
            # Every shard granted synchronously: the session never waits.
            result.succeed(True)
        if not span.auth_event.triggered:
            span.auth_event.succeed(None)

    # -- internals ---------------------------------------------------------
    def _and_events(self, events: List[Event]) -> Event:
        """An event firing (same timestamp) with the AND of all values."""
        out = self.sim.event()
        state = {"pending": len(events), "ok": True}

        def _collect(ev: Event) -> None:
            state["ok"] = state["ok"] and bool(ev.value)
            state["pending"] -= 1
            if state["pending"] == 0:
                out.succeed(state["ok"])

        for ev in events:
            ev.callbacks.append(_collect)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardRouter nshards={self.nshards} workers={self.workers}>"
