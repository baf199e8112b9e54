"""Fluid-flow bandwidth sharing with weighted max-min fairness.

This module is the physical heart of the reproduction.  Every byte that
moves in the simulated machine — from a compute node's NIC through the
interconnect into a storage server and its disk — moves as a *fluid flow*
across one or more :class:`FluidLink` resources managed by a single
:class:`FlowNetwork`.

Rates are assigned by **weighted max-min fairness** (progressive filling):
repeatedly find the most-constrained link, fix the rates of the flows that
cross it in proportion to their weights, subtract, and continue.  Per-flow
rate caps (e.g. a client NIC limit) are modelled as a private virtual link.

Why fluid flows?  Two reasons, both load-bearing for the paper:

1. When two equal applications overlap at a shared file system, proportional
   sharing of bandwidth produces exactly the piecewise-linear "expected"
   Δ-graph of §II-C of the paper.  A fluid model gives that closed form by
   construction, so deviations we *measure* (caches, collective buffering)
   are genuine model effects, not packet-level noise.
2. Completion times only need recomputing when the set of active flows (or a
   link capacity) changes, so simulating 768-process I/O phases costs
   microseconds — fast enough for the hundreds of Δ-graph points the
   benchmark harness sweeps.

Incremental allocation
----------------------
Point 2 only pays off if a change re-prices *what it touches*.  Max-min
rates decompose over the connected components of the bipartite graph whose
vertices are links and (unpaused) flows, with an edge wherever a flow
crosses a link: progressive filling inside one component never reads or
writes state of another.  The network exploits that:

* every link keeps an index of the unpaused flows crossing it, and the flow
  registry is a dict (O(1) removal, insertion-ordered);
* a change (start / pause / resume / cancel / completion / capacity) marks
  the links it touches *dirty*; reallocation walks the dirty connected
  components only and re-runs progressive filling there, while untouched
  components keep their rates and their scheduled completions;
* flow progress is integrated lazily per flow (``remaining`` is exact as of
  the flow's own sync point), so an event in one component costs nothing in
  another.

Lone flows
----------
The paper's campaigns are a few large applications, each one weighted flow
per collective-buffering round, so most dirty components hold a single
flow.  Such a component skips progressive filling: its flow's rate is the
smallest of ``capacity / weight`` over its finite links and ``cap /
weight``, times ``weight`` — the very float expressions the generic fill
evaluates for one flow, with the same strict ``<`` (a link wins a tie
against the cap), so the rate is bit-identical.  A path that crosses one
link twice keeps the generic fill, which counts such a flow once per
crossing.  The global oracle and the vectorized backend always fill
generically, so the equivalence suites compare the closed form against
progressive filling.

Bottleneck-incremental filling
------------------------------
Within one dirty component the filling itself is incremental too.  Each
live component caches its **bottleneck order** — the sequence of saturating
links and binding per-flow caps the previous progressive filling walked.
On the next perturbation the cached steps are *replayed*: a step whose
bottleneck is untouched (not dirty, population unchanged) re-derives the
exact same share from the maintained residuals without scanning every link,
and only from the first changed step onward does the filling fall back to
the fresh most-constrained scan.  Replay is verified, never trusted: at
every reused step the dirty links and newly capped flows are checked (with
a conservative float margin) to still lose to the cached bottleneck, and
any doubt bails out to the fresh scan — which is what makes the cached
rates bit-identical to a from-scratch fill (cross-checked on randomized
topologies by ``tests/test_fairshare_bottleneck.py``).

Wake-heap pool
--------------
Completions are driven by per-flow completion horizons with lazy
invalidation (a refill bumps the generation of every flow it touches).
Instead of one machine-wide heap, horizons live in a **pool of
per-component heaps** keyed by a component registry (links carry their
component; refills union touched components and split off the refilled
part when membership shrinks), and a small index heap of per-component
next-wake times drives the simulator wake.  Stale-entry churn — the
``_schedule_next_wake`` compaction that used to scan a heap proportional
to *every* flow in the machine — is now confined to the component that
caused it, and a retired component drops its garbage wholesale.

One integration path
--------------------
Within a component the filling iterates flows in registration order —
exactly the order the historical global allocator used — so the
incremental allocator reproduces the global allocator's rates bit for bit.
The global path is retained purely as a rate-computation oracle
(``FlowNetwork(sim, incremental=False)``, or
``PlatformConfig(allocator="global")``): it shares the lazy per-flow
integration, the dirty-driven reallocation loop and the completion-horizon
machinery with the incremental path (the historical eager ``_advance``
loop is gone) and differs only in re-pricing every flow, fresh, on every
change.  ``FlowNetwork(sim, fill_cache=False, heap_pool=False)`` is the
PR-2 regime — dirty-component refills with from-scratch filling and a
single flat heap — kept as the baseline for
``benchmarks/test_scale_kernel.py`` and as a second equivalence oracle.

For the 10^6-flow regime, ``FlowNetwork(sim, vectorized=True)``
(``PlatformConfig(allocator="vectorized")``) swaps the per-flow Python
inner loops for the structure-of-arrays backend in
:mod:`repro.simcore.fairshare_vec`: per-component numpy arrays, masked
array reductions for whole fill steps, fused ``rates * dt`` integration
and array horizon recomputation, with completion ordering always
identical to the scalar incremental allocator (exact rates where the
scan order is deterministic, ulp-bounded otherwise — see that module's
docstring for the contract and ``start_flows`` for the batch-start API
that keeps 10^6-flow bursts linear).
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from .engine import Simulator
from .errors import SimulationError
from .events import Event

__all__ = ["FluidLink", "FluidFlow", "FlowNetwork"]

#: Flows with fewer remaining bytes than this are considered complete.
_EPS_BYTES = 1e-6

#: ``FluidFlow._outcome`` sentinel: the flow has not completed or been
#: cancelled yet (distinguishes "running" from "cancelled with value None").
_UNFINISHED = object()

#: Relative margin for replayed-step verification against links whose
#: unfixed-weight sum is maintained incrementally (exact left-to-right
#: resummation is what the fresh scan does; the incremental sum can differ
#: in the last bits, so a dirty link within this margin of the cached
#: bottleneck conservatively invalidates the step instead of risking a
#: different choice than the fresh scan would make).
_REPLAY_MARGIN = 1.0 + 1e-9

#: Counters the network keeps as ``_n_<name>`` integers instead of bumping
#: its :class:`~repro.perf.PerfCounters` on every flow, refill and wake.
_FOLDED_COUNTERS = (
    "flow_starts", "flow_completions", "reallocations",
    "rate_recomputations", "flows_touched", "components_refilled", "wakes",
    "wake_stale_pops", "wake_compactions", "wake_comp_rebuilds",
)

#: Cached-step kinds (see ``_Component.fill_slots``).
_STEP_LINK = 0   #: payload: the saturating FluidLink
_STEP_CAP = 1    #: payload: the cap-bound FluidFlow
_STEP_INF = 2    #: terminal: no finite constraint remained

#: Components smaller than this skip the bottleneck cache: a from-scratch
#: fill over a handful of flows is cheaper than the replay bookkeeping
#: (the common per-server components of the figure workloads).  This is
#: the historical fixed cutover, kept as the ``fill_cache_min_flows=8``
#: override; the default policy is now adaptive (see ``_cache_wants``).
_CACHE_MIN_FLOWS = 8

#: Adaptive-cutover knobs (``fill_cache_min_flows=None``).  The policy is
#: per-component: an EWMA of replay outcomes (hit 1.0, partial 0.5, miss
#: 0.0) decides whether the next refill replays or bypasses.  Components
#: below the floor never cache (bookkeeping cannot win); between the floor
#: and the historical threshold the EWMA must argue *for* replay; above it
#: replay is the default until the EWMA collapses.  A bypassed component
#: re-probes the cache periodically so a workload shift can re-qualify it.
_CACHE_ADAPTIVE_FLOOR = 4
_CACHE_EWMA_DECAY = 0.75
_CACHE_EWMA_OPTIN = 0.55    #: floor..threshold: EWMA needed to opt in
_CACHE_EWMA_CUTOFF = 0.2    #: >= threshold: EWMA below this backs off
_CACHE_PROBE_PERIOD = 32

#: Cached fill orders kept per component, most recently used first.  Each
#: slot records the bottleneck order together with the capacity vector it
#: was priced under, so an observer wiggling ``set_capacity`` between a few
#: operating points (the write-back cache model throttling ingest) replays
#: the order recorded for the *matching* vector instead of invalidating the
#: only cache on every flip.
_CACHE_SLOTS = 4


class FluidLink:
    """A shared-bandwidth resource (NIC, switch port, server ingest, disk).

    Parameters
    ----------
    capacity:
        Bandwidth in bytes/second.  ``math.inf`` means unconstrained (the
        link only exists for accounting/observation).
    name:
        Label used in reprs and monitoring output.
    """

    __slots__ = ("name", "_capacity", "network", "_active", "_comp")

    def __init__(self, capacity: float, name: str = "link"):
        if capacity <= 0:
            raise SimulationError(f"link capacity must be positive, got {capacity}")
        self._capacity = float(capacity)
        self.name = name
        self.network: Optional["FlowNetwork"] = None
        #: Unpaused, unfinished flows crossing this link (insertion-ordered).
        self._active: Dict["FluidFlow", None] = {}
        #: Registry component this link currently belongs to (incremental
        #: networks with the fill cache or heap pool enabled).
        self._comp: Optional["_Component"] = None

    @property
    def capacity(self) -> float:
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change capacity; reallocates the link's component at the current time.

        Progress accrued under the old capacity is integrated *before* the
        new rates take effect (integrate-then-change): every touched flow
        is synced against its pre-change rate during the refill.
        """
        if capacity <= 0:
            raise SimulationError(f"link capacity must be positive, got {capacity}")
        if capacity == self._capacity:
            return
        self._capacity = float(capacity)
        net = self.network
        if net is None:
            return
        if net._vec is not None:
            net._vec.capacity_changed(self)
        net._mark_dirty((self,))
        net._reallocate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FluidLink {self.name!r} cap={self._capacity:.4g} B/s>"


class FluidFlow:
    """A transfer of ``size`` bytes across a path of links.

    Attributes
    ----------
    done:
        Event that triggers (with this flow as value) when the last byte is
        delivered, or with ``None`` if the flow is cancelled without an
        exception (see :meth:`FlowNetwork.cancel_flow`).  Either supplied
        by the starter (``start_flow(done=...)``) or created lazily on
        first access: flows nobody waits on never allocate (or dispatch) a
        completion event, which is what keeps 10^6-flow bursts affordable.
        Accessing ``done`` after the flow already completed returns an
        event synthesized directly in the *processed* state.
    weight:
        Max-min weight.  An application writing from ``N`` processes can be
        modelled as one flow of weight ``N``, which yields the same
        allocation as ``N`` unit flows while keeping the flow set small.
    cap:
        Optional per-flow rate limit in bytes/s (client-side NIC ceiling).
    """

    __slots__ = (
        "size", "remaining", "weight", "cap", "path", "paused",
        "start_time", "finish_time", "rate", "label",
        "_sim", "_done", "_outcome",
        "_seq", "_synced", "_gen", "_comp", "_vec", "_vidx",
    )

    def __init__(self, sim, size: float, path: Sequence[FluidLink],
                 weight: float, cap: Optional[float], label: str):
        self.size = float(size)
        self.remaining = float(size)
        self.weight = float(weight)
        self.cap = cap
        self.path = tuple(path)
        self._sim = sim
        self._done: Optional[Event] = None
        self._outcome: Any = _UNFINISHED
        self.paused = False
        self.start_time: float = math.nan
        self.finish_time: float = math.nan
        self.rate: float = 0.0
        self.label = label
        self._seq = -1           #: registration order within the network
        self._synced = 0.0       #: time ``remaining`` was last integrated to
        self._gen = 0            #: bumped on every rate change (heap validity)
        self._comp: Optional["_Component"] = None  #: owner of the live heap entry
        self._vec = None         #: VecState holding this flow's row (vectorized)
        self._vidx = -1          #: row index within ``_vec``

    @property
    def done(self) -> Event:
        """Completion event, created on first access.

        Succeeds with the flow itself on completion, with ``None`` on
        cancellation (see :meth:`FlowNetwork.cancel_flow`).  If the flow
        already finished before the first access, the event is returned
        directly in the *processed* state — its dispatch moment has passed.
        """
        ev = self._done
        if ev is None:
            ev = Event(self._sim)
            if self._outcome is not _UNFINISHED:
                ev._ok = True
                ev._value = self._outcome
                ev.callbacks = None
            self._done = ev
        return ev

    @property
    def elapsed(self) -> float:
        """Transfer duration (nan until finished)."""
        return self.finish_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FluidFlow {self.label!r} {self.remaining:.4g}/{self.size:.4g}B"
            f" w={self.weight:g}{' paused' if self.paused else ''}>"
        )


def _by_registration(flows: Dict[FluidFlow, None]) -> List[FluidFlow]:
    """A component's flows in registration order."""
    if len(flows) == 1:
        return list(flows)
    return sorted(flows, key=lambda f: f._seq)


class _Component:
    """Registry entry for one connected component of the link/flow graph.

    Owns the component's wake heap (``(time, seq, gen, flow)`` entries with
    lazy invalidation) and its cached bottleneck orders from recent
    progressive fillings (one slot per capacity vector seen).
    :meth:`FlowNetwork._resolve_component` reshapes
    an existing component in place when a refill's membership changes
    (union on merge, shrink on split — the refilled part keeps the first
    owner's identity, heap and cache); a component whose links were all
    absorbed elsewhere is marked dead and its heap garbage is dropped
    wholesale instead of being compacted entry by entry.
    """

    __slots__ = ("_seq", "links", "heap", "wake_gen", "alive", "nflows",
                 "fill_slots", "fill_ewma", "fill_probe", "vec")

    def __init__(self, seq: int, links: Set[FluidLink]):
        self._seq = seq
        self.links = links
        self.heap: List[Tuple[float, int, int, FluidFlow]] = []
        self.wake_gen = 0
        self.alive = True
        self.nflows = 0
        #: Adaptive fill-cache state: EWMA of replay outcomes (optimistic
        #: start so mid-size components try the cache before judging it)
        #: and the bypass counter driving periodic re-probes.
        self.fill_ewma = 1.0
        self.fill_probe = 0
        #: Structure-of-arrays state (``vectorized`` networks only).
        self.vec = None
        #: Cached bottleneck orders, most recently used first (bounded by
        #: ``_CACHE_SLOTS``).  Each slot is ``(steps, flows, caps)``: the
        #: recorded ``(_STEP_*, payload)`` pairs, the registration-ordered
        #: flows the order priced, and the capacity of every link those
        #: flows crossed at record time — the key that lets a capacity
        #: wiggle come back to a still-valid order.
        self.fill_slots: List[Tuple[List[Tuple[int, object]],
                                    List[FluidFlow],
                                    Dict[FluidLink, float]]] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<_Component #{self._seq} {state} links={len(self.links)}>"


class FlowNetwork:
    """Allocator and scheduler for a set of fluid flows over shared links.

    One instance per simulated machine.  Components start transfers with
    :meth:`start_flow` and wait on the returned flow's ``done`` event.

    Observers registered with :meth:`add_observer` are called as
    ``fn(time, flows)`` after every rate reallocation — the write-back cache
    model uses this to watch the ingest rate at each storage server.

    Parameters
    ----------
    sim:
        The simulator driving this network.
    incremental:
        ``True`` (default): dirty-component reallocation.  ``False``: the
        reference oracle — every change re-prices every flow with a fresh
        progressive filling (identical rates, slower); it shares the lazy
        per-flow integration and wake machinery with the incremental path.
    perf:
        Optional :class:`~repro.perf.PerfCounters`; when given the network
        counts the ``flow_*`` / ``reallocations`` / ``rate_recomputations``
        / ``flows_touched`` / ``components_refilled`` / ``wakes`` family
        plus the ``fill_*`` (bottleneck-cache) and ``wake_*`` (heap-pool)
        counters documented in :mod:`repro.perf`.  The per-flow, per-refill
        and per-wake ones are plain integers the bag folds in when read
        (:meth:`~repro.perf.PerfCounters.attach`).
    fill_cache:
        Cache each component's bottleneck order and replay the verified
        prefix on the next refill (incremental mode only; default on).
    heap_pool:
        Keep completion horizons in per-component heaps behind a component
        index instead of one machine-wide heap (incremental mode only;
        default on).  ``fill_cache=False, heap_pool=False`` is the PR-2
        baseline regime the scale benchmark compares against.
    vectorized:
        Store each component's flows as contiguous numpy arrays and run
        filling, integration and horizon recomputation as array operations
        (:mod:`repro.simcore.fairshare_vec`).  Requires ``incremental``;
        supersedes ``fill_cache``/``heap_pool`` (the arrays have their own
        wake index, and replay caching is meaningless against a vector
        fill).  Completion ordering is always identical to the scalar
        incremental allocator; rates are exact where the scan order is
        deterministic and ulp-bounded otherwise.
    fill_cache_min_flows:
        Fill-cache cutover policy (scalar incremental mode).  ``None``
        (default): adaptive — a per-component EWMA of observed replay
        outcomes decides when the bottleneck cache pays.  An ``int`` pins
        the historical fixed threshold (``8`` is the pre-adaptive
        behaviour).  Either policy is bit-identical in rates: it only
        chooses *how* a refill is computed, never what it computes.
    """

    def __init__(self, sim: Simulator, incremental: bool = True,
                 perf=None, fill_cache: bool = True, heap_pool: bool = True,
                 vectorized: bool = False,
                 fill_cache_min_flows: Optional[int] = None):
        self.sim = sim
        self.incremental = bool(incremental)
        self.perf = perf
        self.vectorized = bool(vectorized)
        if self.vectorized and not self.incremental:
            raise SimulationError(
                "vectorized allocation requires incremental mode")
        self.fill_cache = bool(fill_cache) and self.incremental \
            and not self.vectorized
        self.heap_pool = bool(heap_pool) and self.incremental \
            and not self.vectorized
        self.fill_cache_min_flows = fill_cache_min_flows
        if self.vectorized:
            from .fairshare_vec import VecEngine
            self._vec: Optional["VecEngine"] = VecEngine(self)
        else:
            self._vec = None
        #: Whether the component registry (link -> _Component) is maintained.
        self._registry = self.fill_cache or self.heap_pool or self.vectorized
        self._flows: Dict[FluidFlow, None] = {}
        self._seq = count()
        self._observers: List[Callable[[float, List[FluidFlow]], None]] = []
        self._in_reallocate = False
        #: Links awaiting a component refill.
        self._dirty: Dict[FluidLink, None] = {}
        #: Flat-mode (and oracle-mode) completion-horizon heap.
        self._heap: List[Tuple[float, int, int, FluidFlow]] = []
        #: Pool-mode index heap of (next_wake, comp_seq, wake_gen, component).
        self._comp_index: List[Tuple[float, int, int, _Component]] = []
        self._comp_seq = count()
        self._ncomps = 0
        self._wake_at: Optional[float] = None
        self._wake_timer = None  #: pending engine Timer for the next wake
        # Per-flow, per-refill and per-wake counters are plain integers,
        # folded into ``perf`` whenever it is read (PerfCounters.attach).
        self._n_flow_starts = 0
        self._n_flow_completions = 0
        self._n_reallocations = 0
        self._n_rate_recomputations = 0
        self._n_flows_touched = 0
        self._n_components_refilled = 0
        self._n_wakes = 0
        self._n_wake_stale_pops = 0
        self._n_wake_compactions = 0
        self._n_wake_comp_rebuilds = 0
        if perf is not None:
            perf.attach(self, _FOLDED_COUNTERS)

    # -- public API ----------------------------------------------------------
    def _register_flow(self, size: float, path: Iterable[FluidLink],
                       weight: float = 1.0, cap: Optional[float] = None,
                       label: str = "flow",
                       done: Optional[Event] = None) -> FluidFlow:
        """Validate, create and register one flow — no reallocation.

        Zero-byte flows complete immediately and are *not* registered;
        callers detect that via ``flow not in self._flows``.
        """
        if size < 0:
            raise SimulationError(f"flow size must be >= 0, got {size}")
        if weight <= 0:
            raise SimulationError(f"flow weight must be positive, got {weight}")
        if cap is not None and cap <= 0:
            raise SimulationError(f"flow cap must be positive, got {cap}")
        path = list(path)
        for link in path:
            if link.network is None:
                link.network = self
            elif link.network is not self:
                raise SimulationError(f"{link!r} belongs to a different network")
        flow = FluidFlow(self.sim, size, path, weight, cap, label)
        flow.start_time = self.sim.now
        flow._synced = self.sim.now
        flow._seq = next(self._seq)
        self._n_flow_starts += 1
        if size <= _EPS_BYTES:
            flow.remaining = 0.0
            flow.finish_time = self.sim.now
            self._n_flow_completions += 1
            flow._outcome = flow
            if done is not None:
                done.succeed(flow)
            return flow
        flow._done = done
        self._flows[flow] = None
        for link in flow.path:
            link._active[flow] = None
        if self._vec is not None:
            self._vec.touch(flow.path, flow)
        self._mark_dirty(flow.path)
        return flow

    def start_flow(self, size: float, path: Iterable[FluidLink],
                   weight: float = 1.0, cap: Optional[float] = None,
                   label: str = "flow",
                   done: Optional[Event] = None) -> FluidFlow:
        """Begin transferring ``size`` bytes across ``path``.

        Returns the flow; its ``done`` event triggers on completion.  A
        zero-byte flow completes immediately (at the current time).
        ``done``, when given, is an untriggered event the flow adopts as
        its completion event, so a caller that already handed an event to
        its waiters needs no second event to relay the outcome.
        """
        flow = self._register_flow(size, path, weight=weight, cap=cap,
                                   label=label, done=done)
        if flow in self._flows:
            self._reallocate()
        return flow

    def start_flows(self, requests: Iterable[dict]) -> List[FluidFlow]:
        """Begin many transfers with **one** reallocation (batch start).

        ``requests`` is an iterable of keyword dicts for
        :meth:`start_flow` (``size`` and ``path`` required; ``weight``,
        ``cap``, ``label`` optional).  Physically equivalent to starting
        each flow alone at the same instant, but the rates are computed
        once over the final population instead of once per arrival —
        which is what makes 10^6-flow bursts affordable under *any*
        allocator (per-arrival reallocation is quadratic in the burst).
        Note the event sequence therefore differs from a start-one-at-a-
        time loop (one reallocation, one observer pass); within a run the
        physics are exact as always.
        """
        flows = [self._register_flow(**req) for req in requests]
        if any(f in self._flows for f in flows):
            self._reallocate()
        return flows

    def pause_flow(self, flow: FluidFlow) -> None:
        """Freeze a flow's progress (it keeps its remaining bytes)."""
        if flow.paused or flow.remaining <= 0:
            return
        if flow not in self._flows:  # cancelled or never registered
            flow.paused = True
            return
        self._sync_flow(flow, self.sim.now)
        if flow.remaining <= _EPS_BYTES:
            # The flow delivered its last byte by now (pause raced its
            # completion wake): it is done, not paused — exactly what a
            # whole-network completion sweep would conclude.
            self._finish_flow(flow, self.sim.now)
            self._mark_dirty(flow.path)
            self._reallocate()
            return
        flow.paused = True
        flow.rate = 0.0
        flow._gen += 1
        for link in flow.path:
            link._active.pop(flow, None)
        if self._vec is not None:
            self._vec.drop(flow)
        self._mark_dirty(flow.path)
        self._reallocate()

    def resume_flow(self, flow: FluidFlow) -> None:
        """Resume a paused flow."""
        if not flow.paused:
            return
        if flow not in self._flows:  # cancelled while paused
            flow.paused = False
            return
        flow.paused = False
        flow._synced = self.sim.now
        for link in flow.path:
            link._active[flow] = None
        if self._vec is not None:
            # No append fast path here: a resumed flow re-enters the fill
            # in registration (_seq) order, not at the end of the arrays,
            # so the state must be repacked to keep the scan order — and
            # therefore the weight-sum accumulation — bit-identical.
            self._vec.touch(flow.path)
        self._mark_dirty(flow.path)
        self._reallocate()

    def cancel_flow(self, flow: FluidFlow, exc: Optional[BaseException] = None) -> None:
        """Abort a flow, releasing its bandwidth.

        The flow's ``done`` event *fails* with ``exc`` when one is given;
        otherwise it **succeeds with value ``None``** so that processes
        yielding on the event are released rather than parked forever (the
        ``None`` value — instead of the flow — is how waiters distinguish
        cancellation from completion).  ``finish_time`` stays ``nan``.
        """
        if flow not in self._flows:
            return
        self._sync_flow(flow, self.sim.now)
        del self._flows[flow]
        for link in flow.path:
            link._active.pop(flow, None)
        flow._gen += 1
        flow.rate = 0.0
        if self._vec is not None:
            self._vec.drop(flow)
        ev = flow._done
        if exc is not None and ev is None:
            # A failure must travel the event queue so an unhandled one
            # still aborts the run — materialize the event before the
            # outcome is recorded.
            ev = flow.done
        flow._outcome = None
        if ev is not None and not ev.triggered:
            if exc is not None:
                ev.fail(exc)
            else:
                ev.succeed(None)
        self._mark_dirty(flow.path)
        self._reallocate()

    def add_observer(self, fn: Callable[[float, List[FluidFlow]], None]) -> None:
        """Register ``fn(time, active_flows)`` to run after reallocations."""
        self._observers.append(fn)

    @property
    def active_flows(self) -> List[FluidFlow]:
        """Snapshot of currently registered (unfinished) flows."""
        return list(self._flows)

    def link_rate(self, link: FluidLink) -> float:
        """Aggregate current rate through ``link`` (bytes/s)."""
        return sum(f.rate for f in link._active)

    def link_flows(self, link: FluidLink) -> List[FluidFlow]:
        """The unpaused flows currently crossing ``link``."""
        return list(link._active)

    # -- progress integration ------------------------------------------------
    def sync(self) -> None:
        """Integrate every flow's progress up to now.

        Each flow carries its own sync point, so this is a per-flow
        integration — there is no shared checkpoint to double-count from.
        Rates are always current after a mutation; this only banks progress
        (useful before inspecting ``remaining`` mid-simulation).
        """
        now = self.sim.now
        if self._vec is not None:
            self._vec.sync_all(now)
            return
        for f in self._flows:
            self._sync_flow(f, now)

    def _sync_flow(self, f: FluidFlow, now: float) -> None:
        """Integrate one flow's progress from its own sync point to ``now``."""
        if f._vec is not None:
            # Array-managed: integrate the whole state (the component's
            # flows share their sync point anyway) and bank this row back.
            self._vec.sync_flow(f, now)
            return
        dt = now - f._synced
        if dt > 0 and not f.paused and f.rate > 0:
            f.remaining = max(0.0, f.remaining - f.rate * dt)
        f._synced = now

    # -- progressive filling ------------------------------------------------
    def _fill_setup(self, flows: List[FluidFlow]):
        """Residual capacity and per-link flow lists for a fill over ``flows``."""
        residual: Dict[FluidLink, float] = {}
        link_flows: Dict[FluidLink, List[FluidFlow]] = {}
        for f in flows:
            for link in f.path:
                if link not in residual:
                    residual[link] = link.capacity
                    link_flows[link] = []
                link_flows[link].append(f)
        return residual, link_flows

    def _fill_rates(self, flows: List[FluidFlow],
                    record: Optional[List[Tuple[int, object]]] = None) -> None:
        """Weighted max-min (progressive filling) over ``flows``, from scratch.

        ``flows`` must be unpaused and ordered by registration; every flow
        is assigned a fresh rate.  Only links crossed by these flows are
        read or written, which is what makes per-component refills exact.
        ``record`` (when given) captures the bottleneck order for the
        component's fill cache.
        """
        self._n_rate_recomputations += 1
        self._n_flows_touched += len(flows)
        residual, link_flows = self._fill_setup(flows)
        self._fill_loop(flows, residual, link_flows, set(flows), record)

    def _fill_lone(self, f: FluidFlow) -> bool:
        """Price a component's only flow in closed form.

        Evaluates exactly the float expressions :meth:`_fill_loop` would
        for one flow — ``capacity / weight`` per finite link, ``cap /
        weight`` for a cap that is strictly below every link share, rate
        ``weight * share`` — so the rate is bit-identical to the generic
        fill.  Returns False, pricing nothing, when the path crosses a link
        twice: the generic fill then counts the flow twice on that link.
        """
        path = f.path
        if len(path) > 1 and len(set(path)) != len(path):
            return False
        self._n_rate_recomputations += 1
        self._n_flows_touched += 1
        w = f.weight
        best = math.inf
        for link in path:
            capacity = link._capacity
            if capacity != math.inf:
                share = capacity / w
                if share < best:
                    best = share
        if f.cap is not None:
            share = f.cap / w
            if share < best:
                best = share
        f.rate = math.inf if best == math.inf else w * best
        return True

    def _fill_loop(self, flows: List[FluidFlow],
                   residual: Dict[FluidLink, float],
                   link_flows: Dict[FluidLink, List[FluidFlow]],
                   unfixed: Set[FluidFlow],
                   record: Optional[List[Tuple[int, object]]]) -> None:
        """The most-constrained-first filling loop, from the given state.

        Runs the historical from-scratch scan; the cached-replay path calls
        it with a partially fixed state to price everything after the first
        changed bottleneck.
        """
        while unfixed:
            # Most-constrained bottleneck: min rate-per-unit-weight over
            # links (and over flow caps, treated as private links).
            best_share = math.inf
            best_link: Optional[FluidLink] = None
            best_flow: Optional[FluidFlow] = None
            for link, lflows in link_flows.items():
                if math.isinf(residual[link]):
                    continue
                w = sum(f.weight for f in lflows if f in unfixed)
                if w <= 0:
                    continue
                share = residual[link] / w
                if share < best_share:
                    best_share, best_link, best_flow = share, link, None
            for f in flows:
                if f.cap is None or f not in unfixed:
                    continue
                share = f.cap / f.weight
                if share < best_share:
                    best_share, best_link, best_flow = share, None, f
            if best_link is None and best_flow is None:
                # No finite constraint anywhere: unconstrained flows finish
                # "instantly"; give them an effectively infinite rate.
                for f in unfixed:
                    f.rate = math.inf
                if record is not None:
                    record.append((_STEP_INF, None))
                break
            if best_flow is not None:
                fixed = [best_flow]
                if record is not None:
                    record.append((_STEP_CAP, best_flow))
            else:
                fixed = [f for f in link_flows[best_link] if f in unfixed]
                if record is not None:
                    record.append((_STEP_LINK, best_link))
            for f in fixed:
                f.rate = f.weight * best_share
                unfixed.discard(f)
                for link in f.path:
                    residual[link] = max(0.0, residual[link] - f.rate)

    def _fill_rates_cached(self, comp: _Component, flows: List[FluidFlow]) -> None:
        """Fill ``flows`` by replaying one of the component's cached orders.

        Replays cached steps while they are provably still what the fresh
        scan would choose; prices the rest with the fresh loop from the
        replayed state.  Bit-identical to :meth:`_fill_rates` because every
        reused step's share is recomputed from residuals maintained exactly
        as the fresh loop maintains them, and any step a changed link or a
        changed flow could plausibly preempt is not reused.

        The slot to replay is chosen by capacity vector: the first slot
        (most recently used first) whose recorded capacities match every
        link the current flows cross replays with no capacity-changed
        links at all; failing that, the most recent slot replays with its
        capacity mismatches treated as changed.  Verification is entirely
        input-based — recorded capacities versus current, recorded flows
        versus current — so no dirty-seed history needs to be threaded in,
        and a fill that bypassed the cache in between cannot invalidate a
        slot whose inputs still match.
        """
        perf = self.perf
        self._n_rate_recomputations += 1
        self._n_flows_touched += len(flows)
        residual, link_flows = self._fill_setup(flows)
        # MRU-first slot selection.  A link in the current residual but
        # absent from a slot's recorded capacities is crossed only by flows
        # added since that slot — the flow diff below already re-checks it.
        slots = comp.fill_slots
        slot_index = 0
        cap_diffs: List[FluidLink] = []
        for i, (_steps, _prev, caps) in enumerate(slots):
            diffs = [link for link in residual
                     if link in caps and caps[link] != link.capacity]
            if i == 0:
                cap_diffs = diffs
            if not diffs:
                slot_index, cap_diffs = i, diffs
                break
        if slot_index and perf is not None:
            perf.bump("fill_slot_restores")
        steps, prev, _caps = slots[slot_index]
        exact_vector = not cap_diffs
        cold = not steps or set(prev) != set(flows)
        unfixed = set(flows)
        record: List[Tuple[int, object]] = []
        reused = 0
        if steps:
            # Links whose population or capacity changed since the cached
            # fill: the chosen slot's capacity mismatches plus every link
            # crossed by an added or removed flow.  Steps bottlenecked
            # elsewhere replay exactly; these links are re-checked at
            # every reused step.
            changed_links: Set[FluidLink] = set(cap_diffs)
            new_caps: List[FluidFlow] = []
            prev_set = set(prev)
            for f in flows:
                if f not in prev_set:
                    changed_links.update(f.path)
                    if f.cap is not None:
                        new_caps.append(f)
            for f in prev:
                if f not in unfixed:
                    changed_links.update(f.path)
            # Incrementally maintained (weight sum, unfixed count) per
            # changed link; the count is exact, the sum is within float
            # noise of the fresh scan's (covered by _REPLAY_MARGIN).
            dirty_w: Dict[FluidLink, List[float]] = {}
            for d in changed_links:
                lf = link_flows.get(d)
                if lf is not None and not math.isinf(residual[d]):
                    dirty_w[d] = [sum(f.weight for f in lf), len(lf)]
            for kind, obj in steps:
                if kind == _STEP_INF:
                    break  # terminal; let the fresh loop re-derive it
                if kind == _STEP_LINK:
                    link = obj
                    lflows = link_flows.get(link)
                    if lflows is None:
                        continue  # no live flow crosses it; fresh scan skips it
                    if link in changed_links:
                        break
                    w = 0.0
                    fixed = []
                    for f in lflows:
                        if f in unfixed:
                            w += f.weight
                            fixed.append(f)
                    if w <= 0:
                        continue  # everything on it already fixed; scan skips it
                    share = residual[link] / w
                else:
                    f0 = obj
                    if f0 not in unfixed:
                        continue  # flow gone (or repriced away); scan skips it
                    share = f0.cap / f0.weight
                    fixed = [f0]
                ok = True
                for d, (wd, nd) in dirty_w.items():
                    if nd <= 0:
                        continue
                    if wd <= 0 or residual[d] <= share * wd * _REPLAY_MARGIN:
                        ok = False
                        break
                if ok:
                    for f in new_caps:
                        if f in unfixed and f is not obj \
                                and f.cap / f.weight <= share:
                            ok = False
                            break
                if not ok:
                    break
                # Reuse: apply exactly what the fresh loop would have.
                record.append((kind, obj))
                reused += 1
                for f in fixed:
                    f.rate = f.weight * share
                    unfixed.discard(f)
                    for plink in f.path:
                        residual[plink] = max(0.0, residual[plink] - f.rate)
                        entry = dirty_w.get(plink)
                        if entry is not None:
                            entry[0] -= f.weight
                            entry[1] -= 1
        if perf is not None:
            perf.bump("fill_steps_reused", reused)
            if reused == 0:
                perf.bump("fill_cache_misses")
            elif unfixed:
                perf.bump("fill_partial_refills")
            else:
                perf.bump("fill_cache_hits")
        # Feed the adaptive cutover: how well did this replay pay?  (A
        # full hit reuses every step; a partial reuses a prefix; a miss
        # paid the verification bookkeeping for nothing.)  Cold misses —
        # the chosen slot was empty or recorded a different flow
        # membership, so no replay was ever possible — are not scored:
        # they measure churn, not replay quality, and punishing the
        # transient ramp-up of a component would disable the cache right
        # before the stable phase where it pays (e.g. capacity wiggles
        # returning to a recorded vector).
        if reused or not cold:
            score = 0.0 if reused == 0 else (0.5 if unfixed else 1.0)
            comp.fill_ewma = (_CACHE_EWMA_DECAY * comp.fill_ewma
                              + (1.0 - _CACHE_EWMA_DECAY) * score)
        if unfixed:
            self._fill_loop(flows, residual, link_flows, unfixed, record)
        # Store under the capacity vector the fill actually priced.  An
        # exact-vector replay refreshes its slot in place (and bumps it to
        # the front); a mismatched replay leaves the old slot intact for
        # the wiggle to come back to, and files the new vector's order as
        # a fresh most-recent slot.
        if exact_vector:
            del slots[slot_index]
        slots.insert(0, (record, list(flows),
                         {link: link.capacity for link in residual}))
        del slots[_CACHE_SLOTS:]

    # -- component registry --------------------------------------------------
    def _resolve_component(self, links: Set[FluidLink]) -> _Component:
        """Map a refill's visited link set onto the component registry.

        An exact match (or any reshape with at least one owner) keeps a
        stable component identity — heap, fill cache and any remainder's
        live entries stay in place — and inherits the largest owner's
        bottleneck cache on merges (replay verification makes inheritance
        safe).  A brand-new region gets a fresh component.
        """
        owners: Dict[_Component, None] = {}
        for link in links:
            comp = link._comp
            if comp is not None:
                owners[comp] = None
        # Only an owner whose *recorded* domain genuinely overlaps the
        # visited set may keep its identity: a pointer left behind by an
        # earlier reshape is a stale forwarding address, not membership.
        # (Without this, the two halves of a split keep stealing one
        # shared component back and forth forever, wiping each other's
        # fill cache on every refill.)
        keep: Optional[_Component] = None
        for old in owners:
            if not links.isdisjoint(old.links):
                keep = old
                break
        if keep is not None and len(owners) == 1 and keep.links == links:
            return keep  # steady state: the same region refilled again
        best: Optional[_Component] = None
        for old in owners:
            if old.fill_slots and (
                    best is None
                    or len(old.fill_slots[0][1]) > len(best.fill_slots[0][1])):
                best = old
            if old is keep:
                continue
            old.links -= links
            if not old.links and old.alive and not old.heap:
                # Reshapes leave stale link pointers behind, so an emptied
                # recorded domain does NOT prove the heap holds no live
                # entries (a stale-pointer remainder's completion may
                # still be scheduled here).  Only a drained heap may be
                # retired; otherwise the component lingers alive, its
                # index entries keep firing, and the guards sort live
                # entries from garbage.
                old.alive = False
                self._ncomps -= 1
        if keep is None:
            # A brand-new region, or one known only through stale
            # pointers (the far half of a split): fresh component,
            # inheriting the largest owner's cache below — replay
            # verification makes inheritance safe, and after a split it
            # often still covers these flows.
            keep = _Component(next(self._comp_seq), links)
            self._ncomps += 1
        else:
            # Reshape in place: keep's heap, cache and any shrunk-off
            # remainder's still-live entries stay served where they are.
            keep.links = links
            if not keep.alive:  # defensive: overlap implies alive today
                keep.alive = True
                self._ncomps += 1
        if best is not None and best is not keep:
            # Copy the container, not share it: the donor may refill on
            # its own later and must not mutate the heir's MRU order.
            keep.fill_slots = list(best.fill_slots)
        for link in links:
            link._comp = keep
        self._n_wake_comp_rebuilds += 1
        return keep

    # -- reallocation ---------------------------------------------------------
    def _mark_dirty(self, links: Iterable[FluidLink]) -> None:
        for link in links:
            self._dirty[link] = None

    def _components(self, seeds: List[FluidLink]):
        """Connected components of the link/flow graph reachable from seeds.

        Yields ``(flows, links)`` per non-empty component: the flows sorted
        by registration order (keeping the filling's bottleneck tie-breaks
        and residual arithmetic identical to a whole-network fill) and the
        visited link set.  Without the component registry (the flat
        baseline) the link-set bookkeeping is skipped — nothing reads it.
        Which seeds landed where is deliberately *not* tracked: cached-fill
        verification is input-based (recorded capacities and flows versus
        current), so dirty history carries no information it needs.
        """
        if not self._registry:
            return self._components_lean(seeds)
        visited: Set[FluidLink] = set()
        out = []
        for seed in seeds:
            if seed in visited:
                continue
            visited.add(seed)
            links: Set[FluidLink] = {seed}
            stack = [seed]
            flows: Dict[FluidFlow, None] = {}
            while stack:
                link = stack.pop()
                for f in link._active:
                    if f in flows:
                        continue
                    flows[f] = None
                    for other in f.path:
                        if other not in visited:
                            visited.add(other)
                            links.add(other)
                            stack.append(other)
            if flows:
                out.append((_by_registration(flows), links))
        return out

    def _components_lean(self, seeds: List[FluidLink]):
        """The registry-free BFS: flows only (the historical walk)."""
        visited: Set[FluidLink] = set()
        out = []
        for seed in seeds:
            if seed in visited:
                continue
            visited.add(seed)
            stack = [seed]
            flows: Dict[FluidFlow, None] = {}
            while stack:
                link = stack.pop()
                for f in link._active:
                    if f in flows:
                        continue
                    flows[f] = None
                    for other in f.path:
                        if other not in visited:
                            visited.add(other)
                            stack.append(other)
            if flows:
                out.append((_by_registration(flows), None))
        return out

    def _finish_flow(self, f: FluidFlow, now: float) -> None:
        del self._flows[f]
        for link in f.path:
            link._active.pop(f, None)
        if self._vec is not None:
            self._vec.drop(f)
        f._gen += 1
        f.remaining = 0.0
        f.rate = 0.0
        f.finish_time = now
        self._n_flow_completions += 1
        f._outcome = f
        ev = f._done
        if ev is not None and not ev.triggered:
            ev.succeed(f)

    def _refill_component(self, flows: List[FluidFlow], links: Set[FluidLink],
                          now: float) -> None:
        """Sync, complete, and re-price one dirty component."""
        self._n_components_refilled += 1
        live: List[FluidFlow] = []
        for f in flows:
            self._sync_flow(f, now)
            if f.remaining <= _EPS_BYTES:
                self._finish_flow(f, now)
            else:
                live.append(f)
        comp = self._resolve_component(links) if self._registry else None
        if not live:
            if comp is not None:
                comp.fill_slots.clear()
                comp.nflows = 0
                if self.heap_pool:
                    self._reindex_component(comp)
            return
        use_cache = (self.fill_cache and comp is not None
                     and self._cache_wants(comp, len(live)))
        if use_cache and comp.fill_slots:
            self._fill_rates_cached(comp, live)
        elif not use_cache and len(live) == 1 and self._fill_lone(live[0]):
            pass  # priced in closed form
        else:
            record: Optional[List[Tuple[int, object]]] = \
                [] if use_cache else None
            if self.perf is not None and use_cache:
                self.perf.bump("fill_cache_misses")
            self._fill_rates(live, record)
            if comp is not None and record is not None:
                # Fills that bypass the cache (the component dipped below
                # _CACHE_MIN_FLOWS) leave existing slots alone: each slot
                # is verified against its own recorded inputs on replay,
                # so an intervening bypassed fill cannot stale it.
                caps = {link: link.capacity
                        for f in live for link in f.path}
                comp.fill_slots.insert(0, (record, list(live), caps))
                del comp.fill_slots[_CACHE_SLOTS:]
        self._push_horizons(live, now, comp)

    def _cache_wants(self, comp: _Component, nflows: int) -> bool:
        """Should this refill go through the bottleneck cache?

        ``fill_cache_min_flows`` as an ``int`` is the historical fixed
        cutover (``8`` reproduces the pre-adaptive behaviour exactly).
        ``None`` (default) learns per component from the observed ``fill_*``
        outcomes: the replay-score EWMA opts mid-size components in while
        replay pays and backs big ones off when the workload thrashes the
        cache, with a periodic probe so a bypassed component can
        re-qualify.  The choice only affects *how* rates are computed —
        replay is verified bit-identical — so any policy yields the same
        physics.
        """
        min_flows = self.fill_cache_min_flows
        if min_flows is not None:
            return nflows >= min_flows
        if nflows < _CACHE_ADAPTIVE_FLOOR:
            return False
        cutoff = (_CACHE_EWMA_CUTOFF if nflows >= _CACHE_MIN_FLOWS
                  else _CACHE_EWMA_OPTIN)
        if comp.fill_ewma >= cutoff:
            comp.fill_probe = 0
            return True
        comp.fill_probe += 1
        if comp.fill_probe >= _CACHE_PROBE_PERIOD:
            comp.fill_probe = 0
            return True
        return False

    def _refill_global(self, now: float) -> None:
        """The oracle: sync and re-price every flow, fresh."""
        self._n_components_refilled += 1
        live: List[FluidFlow] = []
        for f in list(self._flows):
            self._sync_flow(f, now)
            if f.remaining <= _EPS_BYTES:
                self._finish_flow(f, now)
            elif not f.paused:
                live.append(f)
        if not live:
            return
        self._fill_rates(live)
        self._push_horizons(live, now, None)

    def _push_horizons(self, live: List[FluidFlow], now: float,
                       comp: Optional[_Component]) -> None:
        """Invalidate old heap entries and push fresh completion horizons."""
        use_pool = self.heap_pool and comp is not None
        heap = comp.heap if use_pool else self._heap
        for f in live:
            f._gen += 1
            if comp is not None:
                f._comp = comp
            if f.rate > 0:
                when = now if math.isinf(f.rate) else now + f.remaining / f.rate
                heapq.heappush(heap, (when, f._seq, f._gen, f))
        if use_pool:
            comp.nflows = len(live)
            self._reindex_component(comp)

    def _reallocate(self) -> None:
        """Refill every dirty component, schedule the wake, notify observers."""
        if self._in_reallocate:
            return
        self._in_reallocate = True
        self._n_reallocations += 1
        try:
            while True:
                while self._dirty:
                    seeds = list(self._dirty)
                    self._dirty.clear()
                    now = self.sim.now
                    if self._vec is not None:
                        self._vec.reallocate(seeds, now)
                    elif self.incremental:
                        for flows, links in self._components(seeds):
                            self._refill_component(flows, links, now)
                    else:
                        self._refill_global(now)
                self._schedule_next_wake()
                if not self._observers:
                    break
                snapshot = list(self._flows)
                for fn in self._observers:
                    fn(self.sim.now, snapshot)
                # Observers mark links dirty through set_capacity (the
                # re-entrant call no-ops under the guard); loop until the
                # system is clean.
                if not self._dirty:
                    break
        finally:
            self._in_reallocate = False

    # -- wake scheduling -----------------------------------------------------
    def _reindex_component(self, comp: _Component) -> None:
        """Refresh a component's entry in the next-wake index.

        Pops stale heap tops (repriced, finished, cancelled, or migrated to
        another component — the ownership guard), compacts the component's
        heap when garbage dominates, and re-arms the index with the live
        top under a fresh wake generation.
        """
        heap = comp.heap
        while heap and (heap[0][2] != heap[0][3]._gen
                        or heap[0][3]._comp is not comp):
            heapq.heappop(heap)
            self._n_wake_stale_pops += 1
        if len(heap) > 64 and len(heap) > 4 * comp.nflows:
            live = [e for e in heap
                    if e[2] == e[3]._gen and e[3]._comp is comp]
            heap[:] = live
            heapq.heapify(heap)
            self._n_wake_compactions += 1
        comp.wake_gen += 1
        if heap:
            heapq.heappush(self._comp_index,
                           (heap[0][0], comp._seq, comp.wake_gen, comp))

    def _pool_next_horizon(self) -> Optional[float]:
        """Earliest live completion horizon across the component pool."""
        index = self._comp_index
        if len(index) > 64 and len(index) > 4 * max(1, self._ncomps):
            live = [e for e in index if e[3].alive and e[2] == e[3].wake_gen]
            index[:] = live
            heapq.heapify(index)
            self._n_wake_compactions += 1
        while index:
            when, _, gen, comp = index[0]
            if not comp.alive or gen != comp.wake_gen:
                heapq.heappop(index)
                self._n_wake_stale_pops += 1
                continue
            heap = comp.heap
            if heap and heap[0][0] == when and heap[0][2] == heap[0][3]._gen \
                    and heap[0][3]._comp is comp:
                return when
            # The component's top went stale since it was indexed: drop the
            # entry, let _reindex_component re-arm it with the live top.
            heapq.heappop(index)
            self._reindex_component(comp)
        return None

    def _flat_next_horizon(self) -> Optional[float]:
        """Earliest live completion horizon in the machine-wide heap."""
        heap = self._heap
        # Drop stale entries (flow re-priced, finished, paused or cancelled
        # since the push) and compact the heap if garbage dominates.
        while heap and heap[0][2] != heap[0][3]._gen:
            heapq.heappop(heap)
            self._n_wake_stale_pops += 1
        if len(heap) > 64 and len(heap) > 4 * len(self._flows):
            live = [e for e in heap if e[2] == e[3]._gen]
            heap[:] = live
            heapq.heapify(heap)
            self._n_wake_compactions += 1
        if not heap:
            return None
        return heap[0][0]

    def _schedule_next_wake(self) -> None:
        if self._vec is not None:
            target = self._vec.next_horizon()
        elif self.heap_pool:
            target = self._pool_next_horizon()
        else:
            target = self._flat_next_horizon()
        if target is None:
            return
        now = self.sim.now
        if target <= now:
            # Horizon below float resolution at the current clock value (a
            # nearly-finished flow at a high rate).  Advance by one ulp: the
            # resulting dt moves at least rate * ulp >= remaining bytes, so
            # the flow completes instead of spinning at `now` forever.
            target = now + math.ulp(now if now > 0 else 1.0)
        if self._wake_at is not None and self._wake_at <= target:
            return  # an earlier (or equal) wake is already pending
        self._wake_at = target
        timer = self._wake_timer
        if timer is not None:
            # Supersede the pending wake (or re-arm the fired handle) in
            # place: one queue push, no allocation.
            timer.reschedule(target)
        else:
            self._wake_timer = self.sim.call_at(target, self._wake_fired)

    def _wake_fired(self) -> None:
        self._wake_at = None
        self._on_wake()

    def _on_wake(self) -> None:
        """Handle the earliest completion horizon(s) reaching the clock."""
        now = self.sim.now
        self._n_wakes += 1
        if self._vec is not None:
            # Array mode: the engine pops due states, finishes (or marks
            # dirty) their due flows in the scalar pool's global
            # (horizon, seq) order, and re-arms touched states.
            if self._vec.on_wake(now):
                self._reallocate()
            else:
                self._schedule_next_wake()
            return
        due: List[Tuple[float, int, FluidFlow]] = []
        if self.heap_pool:
            index = self._comp_index
            touched: List[_Component] = []
            while index and index[0][0] <= now:
                _, _, gen, comp = heapq.heappop(index)
                if not comp.alive or gen != comp.wake_gen:
                    self._n_wake_stale_pops += 1
                    continue
                touched.append(comp)
                heap = comp.heap
                while heap and heap[0][0] <= now:
                    when, seq, fgen, f = heapq.heappop(heap)
                    if fgen == f._gen and f._comp is comp:
                        due.append((when, seq, f))
                    else:
                        self._n_wake_stale_pops += 1
            # Re-arm drained components before anything reschedules: a
            # shrunk component's untouched remainder keeps its future
            # completions indexed even though this wake consumed its entry.
            for comp in touched:
                if comp.alive:
                    self._reindex_component(comp)
            due.sort()
        else:
            heap = self._heap
            while heap and heap[0][0] <= now:
                when, seq, fgen, f = heapq.heappop(heap)
                if fgen == f._gen:
                    due.append((when, seq, f))
                else:
                    self._n_wake_stale_pops += 1
        for _, _, f in due:
            self._sync_flow(f, now)
            self._mark_dirty(f.path)
            if f.remaining <= _EPS_BYTES:
                self._finish_flow(f, now)
            else:
                # Float residue: the horizon rounded just short of the final
                # byte.  Bump the generation (no duplicate heap entries) and
                # let the refill push a fresh, one-ulp horizon.
                f._gen += 1
        if due:
            self._reallocate()
        else:
            self._schedule_next_wake()
