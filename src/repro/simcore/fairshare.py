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
  components only and re-runs progressive filling there, from scratch,
  while untouched components keep their rates and their scheduled
  completions;
* flow progress is integrated lazily per flow (``remaining`` is exact as of
  the flow's own sync point), so an event in one component costs nothing in
  another;
* completions are driven by one heap of per-flow completion horizons with
  lazy invalidation: a refill bumps the generation of every flow it
  re-prices, and stale entries are dropped when they reach the top.

Lone flows
----------
The paper's campaigns are a few large applications, each one weighted flow
per collective-buffering round, so most dirty components hold a single
flow.  Both ends of such a flow's life take a fast lane:

* **Arrival.**  :meth:`FlowNetwork._refill` recognizes a seed whose only
  flow is alone on every link of its path and refills that component of
  one on the spot, with no walk.  Its rate is the closed form
  :meth:`FlowNetwork._fill_lone`: the smallest of ``capacity / weight``
  over its finite links and ``cap / weight``, times ``weight`` — the very
  float expressions the generic fill evaluates for one flow, with the
  same strict ``<`` (a link wins a tie against the cap), so the rate is
  bit-identical.  A path that crosses one link twice keeps the generic
  fill, which counts such a flow once per crossing.
* **Departure.**  A completion, cancellation or pause marks dirty only the
  links of the departed flow that still carry flows
  (:meth:`FlowNetwork._mark_released`).  A lone flow's departure leaves
  nothing dirty, so the reallocation that follows only re-arms the wake
  (and notifies observers, if any); a flow left alone by the departure is
  re-priced by the arrival lane's closed form.

Every completion still goes through :meth:`FlowNetwork._finish_flow`, and
every change through :meth:`FlowNetwork._reallocate`, so the flow counters
and anything wrapping those methods see each flow exactly as before.

The oracle contract: :class:`repro.oracles.GlobalFlowNetwork` overrides
both hooks of the lane, ``_refill`` (re-price every flow with the generic
fill) and ``_mark_released`` (mark the departed flow's whole path), so it
re-prices the whole network on every arrival and every departure, and the
equivalence suites compare the fast lane against progressive filling.

What matches the oracle
-----------------------
Within a component the filling iterates flows in registration order —
exactly the order a whole-network fill uses — so for the same active
flows every rate equals, bit for bit, the one
:class:`repro.oracles.GlobalFlowNetwork` computes by re-pricing every flow
on every change, and whole experiments produce string-equal decision logs
under both.  Integrated progress is *not* bit-identical: the oracle banks
every flow's progress at every change, splitting ``rate * dt`` into more,
shorter products, so completion times and per-application I/O times
differ in the last bits (up to ~1.3e-14 relative on the many-writers
scenario).
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

#: Counters the network keeps as ``_n_<name>`` integers instead of bumping
#: its :class:`~repro.perf.PerfCounters` on every flow, refill and wake.
_FOLDED_COUNTERS = (
    "flow_starts", "flow_completions", "reallocations",
    "rate_recomputations", "flows_touched", "components_refilled", "wakes",
    "wake_stale_pops", "wake_compactions",
)

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

    __slots__ = ("name", "_capacity", "network", "_active")

    def __init__(self, capacity: float, name: str = "link"):
        if capacity <= 0:
            raise SimulationError(f"link capacity must be positive, got {capacity}")
        self._capacity = float(capacity)
        self.name = name
        self.network: Optional["FlowNetwork"] = None
        #: Unpaused, unfinished flows crossing this link (insertion-ordered).
        self._active: Dict["FluidFlow", None] = {}

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
        completion event.
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
        "_seq", "_synced", "_gen",
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
    perf:
        Optional :class:`~repro.perf.PerfCounters`; when given the network
        counts the ``flow_*`` / ``reallocations`` / ``rate_recomputations``
        / ``flows_touched`` / ``components_refilled`` / ``wakes`` /
        ``wake_*`` family documented in :mod:`repro.perf`.  They are plain
        integers the bag folds in when read
        (:meth:`~repro.perf.PerfCounters.attach`).
    """

    def __init__(self, sim: Simulator, perf=None):
        self.sim = sim
        self.perf = perf
        self._flows: Dict[FluidFlow, None] = {}
        self._seq = count()
        self._observers: List[Callable[[float, List[FluidFlow]], None]] = []
        self._in_reallocate = False
        #: Links awaiting a component refill.
        self._dirty: Dict[FluidLink, None] = {}
        #: Completion horizons ``(time, seq, gen, flow)``; an entry is live
        #: while ``gen`` matches the flow's generation.
        self._heap: List[Tuple[float, int, int, FluidFlow]] = []
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
        path = tuple(path)
        for link in path:
            owner = link.network
            if owner is not self:
                if owner is not None:
                    raise SimulationError(
                        f"{link!r} belongs to a different network")
                link.network = self
        sim = self.sim
        now = sim._now
        flow = FluidFlow(sim, size, path, weight, cap, label)
        flow.start_time = now
        flow._synced = now
        flow._seq = next(self._seq)
        self._n_flow_starts += 1
        if size <= _EPS_BYTES:
            flow.remaining = 0.0
            flow.finish_time = now
            self._n_flow_completions += 1
            flow._outcome = flow
            if done is not None:
                done.succeed(flow)
            return flow
        flow._done = done
        self._flows[flow] = None
        dirty = self._dirty
        for link in path:
            link._active[flow] = None
            dirty[link] = None
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
        flow = self._register_flow(size, path, weight, cap, label, done)
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
        which keeps large bursts linear (per-arrival reallocation is
        quadratic in the burst).
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
            self._mark_released(flow.path)
            self._reallocate()
            return
        flow.paused = True
        flow.rate = 0.0
        flow._gen += 1
        for link in flow.path:
            link._active.pop(flow, None)
        self._mark_released(flow.path)
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
        self._mark_released(flow.path)
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
        for f in self._flows:
            self._sync_flow(f, now)

    def _sync_flow(self, f: FluidFlow, now: float) -> None:
        """Integrate one flow's progress from its own sync point to ``now``."""
        dt = now - f._synced
        if dt > 0 and not f.paused and f.rate > 0:
            f.remaining = max(0.0, f.remaining - f.rate * dt)
        f._synced = now

    # -- progressive filling ------------------------------------------------
    def _fill_rates(self, flows: List[FluidFlow]) -> None:
        """Weighted max-min (progressive filling) over ``flows``, from scratch.

        ``flows`` must be unpaused and ordered by registration; every flow
        is assigned a fresh rate.  Only links crossed by these flows are
        read or written, which is what makes per-component refills exact.
        """
        self._n_rate_recomputations += 1
        self._n_flows_touched += len(flows)
        residual: Dict[FluidLink, float] = {}
        link_flows: Dict[FluidLink, List[FluidFlow]] = {}
        for f in flows:
            for link in f.path:
                if link not in residual:
                    residual[link] = link.capacity
                    link_flows[link] = []
                link_flows[link].append(f)
        self._fill_loop(flows, residual, link_flows, set(flows))

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
                   unfixed: Set[FluidFlow]) -> None:
        """The most-constrained-first filling loop over ``unfixed``."""
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
                break
            if best_flow is not None:
                fixed = [best_flow]
            else:
                fixed = [f for f in link_flows[best_link] if f in unfixed]
            for f in fixed:
                f.rate = f.weight * best_share
                unfixed.discard(f)
                for link in f.path:
                    residual[link] = max(0.0, residual[link] - f.rate)

    # -- reallocation ---------------------------------------------------------
    def _mark_dirty(self, links: Iterable[FluidLink]) -> None:
        for link in links:
            self._dirty[link] = None

    def _mark_released(self, path: Sequence[FluidLink]) -> None:
        """Mark dirty the links of a departed flow that still carry flows.

        Called after a flow leaves its links (completion, cancellation,
        pause).  A link left empty has nothing to re-price, so a lone
        flow's departure leaves nothing dirty and the reallocation that
        follows only re-arms the wake.  The whole-network oracle overrides
        this to mark the whole path, so it still re-prices on every
        departure.
        """
        dirty = self._dirty
        for link in path:
            if link._active:
                dirty[link] = None

    def _finish_flow(self, f: FluidFlow, now: float) -> None:
        del self._flows[f]
        for link in f.path:
            link._active.pop(f, None)
        f._gen += 1
        f.remaining = 0.0
        f.rate = 0.0
        f.finish_time = now
        self._n_flow_completions += 1
        f._outcome = f
        ev = f._done
        if ev is not None and not ev.triggered:
            ev.succeed(f)

    def _refill(self, seeds: List[FluidLink], now: float) -> None:
        """Sync, complete and re-price the components reachable from seeds.

        The one refill hook :meth:`_reallocate` calls per dirty batch.  It
        walks the connected components of the link/flow graph reachable
        from the seeds and refills each as it is found.  A seed that
        carries no flow is skipped.  A seed's only flow that is alone on
        every link of its path is a component of one: it is refilled on
        the spot, with no walk and no progressive filling.  Larger
        components are refilled with their flows in registration order,
        which keeps the filling's bottleneck tie-breaks and residual
        arithmetic identical to a whole-network fill.
        """
        visited: Set[FluidLink] = set()
        for seed in seeds:
            active = seed._active
            if not active or seed in visited:
                continue
            if len(active) == 1:
                (f,) = active
                path = f.path
                for link in path:
                    if len(link._active) != 1:
                        break
                else:
                    visited.update(path)
                    self._refill_component([f], now)
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
            self._refill_component(_by_registration(flows), now)

    def _refill_component(self, flows: List[FluidFlow], now: float) -> None:
        """Sync, complete, and re-price one dirty component."""
        self._n_components_refilled += 1
        live: List[FluidFlow] = []
        for f in flows:
            self._sync_flow(f, now)
            if f.remaining <= _EPS_BYTES:
                self._finish_flow(f, now)
            else:
                live.append(f)
        if not live:
            return
        if len(live) > 1 or not self._fill_lone(live[0]):
            self._fill_rates(live)
        self._push_horizons(live, now)

    def _push_horizons(self, live: List[FluidFlow], now: float) -> None:
        """Invalidate old heap entries and push fresh completion horizons."""
        heap = self._heap
        for f in live:
            f._gen += 1
            if f.rate > 0:
                when = now if math.isinf(f.rate) else now + f.remaining / f.rate
                heapq.heappush(heap, (when, f._seq, f._gen, f))

    def _reallocate(self) -> None:
        """Refill every dirty component, schedule the wake, notify observers."""
        if self._in_reallocate:
            return
        self._n_reallocations += 1
        dirty = self._dirty
        if not dirty and not self._observers:
            # A lone flow's departure: nothing to re-price, nobody to tell.
            self._schedule_next_wake()
            return
        self._in_reallocate = True
        try:
            while True:
                while dirty:
                    seeds = list(dirty)
                    dirty.clear()
                    self._refill(seeds, self.sim._now)
                self._schedule_next_wake()
                if not self._observers:
                    break
                snapshot = list(self._flows)
                for fn in self._observers:
                    fn(self.sim.now, snapshot)
                # Observers mark links dirty through set_capacity (the
                # re-entrant call no-ops under the guard); loop until the
                # system is clean.
                if not dirty:
                    break
        finally:
            self._in_reallocate = False

    # -- wake scheduling -----------------------------------------------------
    def _next_horizon(self) -> Optional[float]:
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
        target = self._next_horizon()
        if target is None:
            return
        now = self.sim.now
        if target <= now:
            # Horizon below float resolution at the current clock value (a
            # nearly-finished flow at a high rate).  Advance by one ulp: the
            # resulting dt moves at least rate * ulp >= remaining bytes, so
            # the flow completes instead of spinning at `now` forever.
            target = now + math.ulp(now if now > 0 else 1.0)
        if self._wake_at == target:
            return  # this very wake is already pending
        self._wake_at = target
        timer = self._wake_timer
        if timer is not None:
            # Move the pending wake, earlier or later (a refill can push
            # every horizon later), or re-arm the fired handle in place:
            # one queue push, no allocation.
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
        due: List[Tuple[float, int, FluidFlow]] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            when, seq, fgen, f = heapq.heappop(heap)
            if fgen == f._gen:
                due.append((when, seq, f))
            else:
                self._n_wake_stale_pops += 1
        for _, _, f in due:
            self._sync_flow(f, now)
            if f.remaining <= _EPS_BYTES:
                self._finish_flow(f, now)
                self._mark_released(f.path)
            else:
                # Float residue: the horizon rounded just short of the final
                # byte.  Bump the generation (no duplicate heap entries) and
                # let the refill push a fresh, one-ulp horizon.
                self._mark_dirty(f.path)
                f._gen += 1
        if due:
            self._reallocate()
        else:
            self._schedule_next_wake()
