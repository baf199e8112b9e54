"""The dispatch core: cancellable timers, batch dispatch, the oracle loop.

Covers the engine-level contracts the 10^6-flow regime leans on:

* :class:`~repro.simcore.engine.Timer` handle semantics — ``cancel()``,
  ``reschedule()``, ``active``/``cancelled`` — identical on the production
  :class:`~repro.simcore.Simulator` and the one-event-per-pop
  :class:`repro.oracles.OracleSimulator`;
* same-timestamp batch dispatch, including the delay-0 lane and failure
  mid-batch;
* retirement-time ``timers_cancelled`` accounting and bulk compaction;
* a randomized production-vs-oracle equivalence fuzzer (ties, zero
  delays, mid-flight cancellations and reschedules, failing processes,
  ``until=`` variants) — serialized traces must be string-equal;
* committed scenarios: arbiter decision logs string-equal and kernel
  finish times ``np.array_equal`` on both simulators;
* the peripheral call sites that migrated onto handles (fair-share
  horizon wakes, cache boundary wakes) and the arbiter DELAY-hold epoch
  guard kept as belt-and-braces.
"""

import math
import random

import numpy as np
import pytest

from repro.core import AccessDescriptor, AccessState, Arbiter
from repro.core.strategies import Action, Decision, FCFSStrategy
from repro.oracles import OracleSimulator
from repro.perf import PerfCounters
from repro.simcore import (
    FluidLink, FlowNetwork, SimulationError, Simulator,
)
from repro.simcore.engine import _COMPACT_MIN_DEAD, Timer
from repro.storage import WriteBackCache

#: The production simulator and the oracle dispatch loop.
SIMULATORS = [pytest.param(Simulator, id="heap"),
              pytest.param(OracleSimulator, id="oracle")]
#: Batch-dispatch contracts hold for the production simulator only (the
#: oracle never batches).
BATCHING = [pytest.param(Simulator, id="heap")]


# ---------------------------------------------------------------------------
# Timer handle semantics (identical surface on both simulators)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sim_cls", SIMULATORS)
def test_cancelled_timer_never_fires(sim_cls):
    sim = sim_cls()
    fired = []
    t = sim.call_at(1.0, lambda: fired.append(sim.now))
    assert t.active and not t.cancelled
    assert t.cancel() is True
    assert t.cancelled and not t.active
    assert t.cancel() is False  # second cancel is a no-op
    sim.call_at(2.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.0]
    assert sim.now == 2.0  # the clock never advanced for the dead entry


@pytest.mark.parametrize("sim_cls", SIMULATORS)
def test_cancel_after_fire_returns_false(sim_cls):
    sim = sim_cls()
    t = sim.call_at(1.0, lambda: None)
    sim.run()
    assert not t.active
    assert t.cancel() is False


@pytest.mark.parametrize("sim_cls", SIMULATORS)
def test_reschedule_pending_supersedes(sim_cls):
    sim = sim_cls()
    fired = []
    t = sim.call_at(5.0, lambda: fired.append(sim.now))
    assert t.reschedule(2.0) is t
    assert t.when == 2.0
    sim.run()
    assert fired == [2.0]  # fired once, at the new time only


@pytest.mark.parametrize("sim_cls", SIMULATORS)
def test_reschedule_rearms_fired_and_cancelled_handles(sim_cls):
    sim = sim_cls()
    fired = []
    t = sim.call_at(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]
    t.reschedule(3.0)  # re-arm a fired handle
    sim.run()
    assert fired == [1.0, 3.0]
    t.cancel()  # nothing pending: no-op
    t.reschedule(4.0)  # re-arm after an (effective) cancel
    t.cancel()
    t.reschedule(5.0)  # re-arm a genuinely cancelled pending handle
    sim.run()
    assert fired == [1.0, 3.0, 5.0]


@pytest.mark.parametrize("sim_cls", SIMULATORS)
def test_reschedule_into_past_rejected(sim_cls):
    sim = sim_cls()
    sim.call_at(2.0, lambda: None)
    t = sim.call_at(3.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError) as err:
        t.reschedule(1.0)
    # Both the offending timestamp and the current clock are reported.
    assert "1.0" in str(err.value) and "3.0" in str(err.value)


@pytest.mark.parametrize("sim_cls", SIMULATORS)
def test_call_at_past_reports_timestamp_and_clock(sim_cls):
    sim = sim_cls()
    sim.call_at(4.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError) as err:
        sim.call_at(1.5, lambda: None)
    assert "1.5" in str(err.value) and "4.0" in str(err.value)


@pytest.mark.parametrize("sim_cls", SIMULATORS)
def test_reschedule_from_inside_callback_to_now_joins_batch(sim_cls):
    """A handle rescheduled to the current instant from a firing callback
    joins the in-flight batch (production) or dispatches at the same
    timestamp (oracle) — either way it runs at the same sim time."""
    sim = sim_cls()
    fired = []
    later = sim.call_at(9.0, lambda: fired.append(("later", sim.now)))

    def first():
        fired.append(("first", sim.now))
        later.reschedule(sim.now)

    sim.call_at(1.0, first)
    sim.run()
    assert fired == [("first", 1.0), ("later", 1.0)]


# ---------------------------------------------------------------------------
# Batch dispatch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sim_cls", BATCHING)
def test_step_drains_whole_coincident_batch(sim_cls):
    sim = sim_cls()
    order = []
    for i in range(4):
        sim.call_at(1.0, lambda i=i: order.append(i))
    sim.call_at(2.0, lambda: order.append("next"))
    sim.step()
    assert order == [0, 1, 2, 3]  # one step, whole batch, insertion order
    assert sim.now == 1.0
    sim.step()
    assert order == [0, 1, 2, 3, "next"]


@pytest.mark.parametrize("sim_cls", BATCHING)
def test_delay_zero_from_callback_joins_batch(sim_cls):
    """Events scheduled at the batch timestamp *during* the batch ride the
    FIFO lane: same clock instant, ordered after the queued members."""
    sim = sim_cls()
    order = []

    def leader():
        order.append("leader")
        sim.call_at(sim.now, lambda: order.append("lane"))

    sim.call_at(1.0, leader)
    sim.call_at(1.0, lambda: order.append("queued"))
    sim.step()
    assert order == ["leader", "queued", "lane"]
    assert sim.now == 1.0


@pytest.mark.parametrize("sim_cls", SIMULATORS)
def test_step_on_empty_queue_raises(sim_cls):
    sim = sim_cls()
    with pytest.raises(SimulationError):
        sim.step()
    t = sim.call_at(1.0, lambda: None)
    t.cancel()
    with pytest.raises(SimulationError):
        sim.step()  # a dead-only queue is empty for dispatch purposes


@pytest.mark.parametrize("sim_cls", BATCHING)
def test_failure_mid_batch_preserves_undelivered_lane(sim_cls):
    """A process failure aborting a batch must not lose the lane: the
    delay-0 events scheduled before the failure go back into the queue
    and dispatch when the driver resumes."""
    sim = sim_cls()
    order = []

    def boom():
        yield sim.timeout(1.0)
        raise RuntimeError("mid-batch failure")

    def leader():
        order.append("leader")
        sim.call_at(sim.now, lambda: order.append("lane1"))

    def late():
        # Runs after boom's failure event entered the lane, so this lane
        # entry carries a larger eid and is still undelivered at abort.
        order.append("late")
        sim.call_at(sim.now, lambda: order.append("lane2"))

    sim.call_at(1.0, leader)
    sim.process(boom())
    # Armed at t=0.5 so its insertion id lands *after* boom's t=1 timeout:
    # at t=1 the failure event enters the lane between lane1 and lane2.
    sim.call_at(0.5, lambda: sim.call_at(1.0, late))
    with pytest.raises(RuntimeError):
        sim.run()
    assert order == ["leader", "late", "lane1"]
    sim.run()  # the stranded lane entry was re-queued, eid intact
    assert order == ["leader", "late", "lane1", "lane2"]
    assert sim.now == 1.0


# ---------------------------------------------------------------------------
# Perf counters: retirement-time accounting and compaction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sim_cls", BATCHING)
def test_timers_cancelled_counted_at_retirement(sim_cls):
    perf = PerfCounters()
    sim = sim_cls(perf=perf)
    t = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    t.cancel()
    # Cancellation itself is bookkeeping-free: the counter moves when the
    # dead entry is retired from the queue, not at cancel time.
    assert perf.as_dict().get("timers_cancelled", 0) == 0
    sim.run()
    counters = perf.as_dict()
    assert counters["timers_cancelled"] == 1
    assert counters["events_processed"] == 1
    assert counters["timer_fastpath_hits"] == 1


@pytest.mark.parametrize("sim_cls", BATCHING)
def test_coincident_counter_counts_batch_followers(sim_cls):
    perf = PerfCounters()
    sim = sim_cls(perf=perf)
    for _ in range(5):
        sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    sim.run()
    counters = perf.as_dict()
    assert counters["events_processed"] == 6
    # 5-wide batch -> 4 followers; the lone t=2 event adds none.
    assert counters["events_coincident"] == 4
    assert counters["timer_fastpath_hits"] == 6


@pytest.mark.parametrize("sim_cls", BATCHING)
def test_bulk_cancellation_triggers_compaction(sim_cls):
    """Once dead entries outnumber live ones (past the floor) they are
    swept in bulk — without any dispatch — and counted then."""
    perf = PerfCounters()
    sim = sim_cls(perf=perf)
    timers = [sim.call_at(1.0 + i * 1e-3, lambda: None)
              for i in range(_COMPACT_MIN_DEAD + 10)]
    for t in timers:
        t.cancel()
    # The sweep fired during the cancel storm: counted without dispatch.
    assert perf.as_dict()["timers_cancelled"] >= _COMPACT_MIN_DEAD
    assert len(sim._queue) <= 10
    sim.run()
    assert perf.as_dict()["timers_cancelled"] == len(timers)
    assert perf.as_dict().get("events_processed", 0) == 0


def test_reschedule_consumes_one_insertion_id():
    """`reschedule` must burn exactly the ids that cancel()+call_at()
    would, or the oracle stops being dispatch-order comparable."""
    sim_a = Simulator()
    t = sim_a.call_at(1.0, lambda: None)
    t.reschedule(2.0)
    sim_b = Simulator()
    u = sim_b.call_at(1.0, lambda: None)
    u.cancel()
    sim_b.call_at(2.0, lambda: None)
    assert next(sim_a._eid) == next(sim_b._eid)


# ---------------------------------------------------------------------------
# Randomized production-vs-oracle equivalence fuzzer
# ---------------------------------------------------------------------------

def _fuzz_trace(sim_cls, seed, until_mode):
    """One pseudo-random dispatch workout; returns its serialized trace.

    Every decision is drawn from an RNG seeded identically on both
    simulators; since they promise identical dispatch order, the draw
    sequence stays aligned — any divergence desynchronizes the trace and
    the string comparison fails loudly.
    """
    rng = random.Random(seed)
    perf = PerfCounters()
    sim = sim_cls(perf=perf)
    log = []
    handles = []

    def fire(tag):
        log.append((tag, round(sim.now, 9)))
        roll = rng.random()
        if roll < 0.45:  # keep the trace going
            delay = rng.choice((0.0, 0.0, 0.25, 0.5, 1.0, 1.0))
            handles.append(
                sim.call_at(sim.now + delay, _mk(f"{tag}.{len(log)}")))
        if roll < 0.2 and handles:  # cancel something mid-flight
            victim = handles[rng.randrange(len(handles))]
            log.append(("cancel", victim.cancel()))
        elif roll < 0.35 and handles:  # supersede something mid-flight
            victim = handles[rng.randrange(len(handles))]
            when = sim.now + rng.choice((0.0, 0.5, 1.0))
            victim.reschedule(when)
            log.append(("resched", round(when, 9)))

    def _mk(tag):
        return lambda: fire(tag)

    def proc(name, steps):
        for k in range(steps):
            yield sim.timeout(rng.choice((0.0, 0.5, 1.0)))
            log.append((name, k, round(sim.now, 9)))

    for i in range(12):
        handles.append(sim.call_at(rng.choice((0.0, 0.5, 1.0, 1.0)),
                                   _mk(f"t{i}")))
    for i in range(4):
        sim.process(proc(f"p{i}", 3))

    if until_mode == "time":
        sim.run(until=2.0)
        log.append(("pause", sim.now))
        sim.run()
    elif until_mode == "event":
        marker = sim.timeout(1.5, value="marker")
        assert sim.run(until=marker) == "marker"
        log.append(("pause", sim.now))
        sim.run()
    else:
        sim.run()
    log.append(("end", round(sim.now, 9)))
    # Retirement accounting: with the queue drained, every cancelled
    # entry has been counted exactly once on both simulators.
    log.append(("cancelled", perf.as_dict().get("timers_cancelled", 0)))
    return str(log)


@pytest.mark.parametrize("until_mode", ("none", "time", "event"))
def test_fuzzed_traces_identical_across_backends(until_mode):
    for seed in range(8):
        heap = _fuzz_trace(Simulator, seed, until_mode)
        oracle = _fuzz_trace(OracleSimulator, seed, until_mode)
        assert heap == oracle, f"seed {seed}: heap diverged from oracle"


@pytest.mark.parametrize("sim_cls", SIMULATORS)
def test_failing_process_aborts_identically(sim_cls):
    sim = sim_cls()

    def doomed():
        yield sim.timeout(1.0)
        yield sim.timeout(0.0)
        raise ValueError("scripted failure")

    def bystander():
        yield sim.timeout(0.5)
        yield sim.timeout(1.5)

    sim.process(doomed())
    sim.process(bystander())
    with pytest.raises(ValueError, match="scripted failure"):
        sim.run()
    assert sim.now == 1.0


# ---------------------------------------------------------------------------
# Committed scenarios: decision logs and finish times on both simulators
# ---------------------------------------------------------------------------

class _DelayThenShare(FCFSStrategy):
    """FCFS that answers DELAY while anything is active — enough traffic
    through the hold-timer machinery to make a meaty decision log."""

    def decide(self, now, active, waiting, incoming):
        if active:
            return Decision(Action.DELAY, delay=2.0)
        return Decision(Action.GO)


def _arbiter_scenario(sim_cls):
    sim = sim_cls()
    arb = Arbiter(sim, _DelayThenShare())

    def app(name, start, work):
        yield sim.timeout(start)
        arb.submit_inform(AccessDescriptor(
            app=name, nprocs=8, total_bytes=1e6, t_alone=work))
        yield arb.authorization_event(name)
        yield sim.timeout(work)
        arb.on_complete(name)

    for i, (start, work) in enumerate(
            [(0.0, 3.0), (0.5, 1.0), (0.5, 2.0), (1.0, 0.5), (4.0, 1.0)]):
        sim.process(app(f"app{i}", start, work))
    sim.run()
    return str(arb.decision_log), sim.now


def test_arbiter_decision_log_equal_across_backends():
    log_heap, end_heap = _arbiter_scenario(Simulator)
    log_oracle, end_oracle = _arbiter_scenario(OracleSimulator)
    assert log_heap == log_oracle
    assert end_heap == end_oracle


def _kernel_scenario(sim_cls):
    sim = sim_cls()
    net = FlowNetwork(sim)
    shared = FluidLink(100.0, "shared")
    finish = []

    def app(start, sizes):
        yield sim.timeout(start)
        for size in sizes:
            flow = net.start_flow(size, [shared])
            yield flow.done
            finish.append(flow.finish_time)

    for i in range(6):
        sim.process(app(0.25 * i, [50.0 + 10 * i, 80.0, 30.0 + 5 * i]))
    sim.run()
    return np.array(finish)


def test_kernel_finish_times_equal_across_backends():
    assert np.array_equal(_kernel_scenario(Simulator),
                          _kernel_scenario(OracleSimulator))


# ---------------------------------------------------------------------------
# Peripheral call sites on handles
# ---------------------------------------------------------------------------

def desc(app, t_alone=5.0):
    return AccessDescriptor(app=app, nprocs=10, total_bytes=1e6,
                            t_alone=t_alone)


def test_arbiter_hold_cancellation_prevents_ghost_dispatch():
    """An early grant cancels the DELAY hold outright: the stale timer is
    deadmarked in the queue and the app is activated exactly once."""
    sim = Simulator()
    arb = Arbiter(sim, _DelayThenShare())
    activations = []
    original = arb._activate
    arb._activate = lambda app: (activations.append((app, sim.now)),
                                 original(app))[-1]
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))  # DELAY(2.0): hold timer armed at t=2
    assert "b" in arb._hold_timers
    hold = arb._hold_timers["b"]
    assert hold.active
    arb.on_complete("a")  # frees the slot at t=0, long before the hold
    sim.run()
    assert hold.cancelled  # the grant cancelled the hold outright
    assert "b" not in arb._hold_timers
    assert [a for a, _ in activations] == ["a", "b"]  # once each, no ghost
    assert arb.state_of("b") is AccessState.ACTIVE


def test_arbiter_hold_epoch_guard_blocks_resurrected_timer():
    """Belt-and-braces: even if a stale hold callback somehow ran (say the
    cancellation contract broke), the access-epoch guard refuses to
    activate from it."""
    sim = Simulator()
    arb = Arbiter(sim, _DelayThenShare())
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    ghost = arb._hold_timers["b"]._fn  # the hold closure, epoch captured
    arb._epoch["b"] = arb._epoch.get("b", 0) + 1  # a newer access exists
    ghost()  # resurrect the stale timer by hand
    assert arb.state_of("b") is AccessState.WAITING  # guard held the line


def test_arbiter_hold_expiry_still_activates():
    sim = Simulator()
    arb = Arbiter(sim, _DelayThenShare())
    arb.on_inform(desc("a", t_alone=50.0))
    arb.on_inform(desc("b"))
    assert arb.state_of("b") is AccessState.WAITING
    sim.run(until=2.5)  # past the 2.0 s hold; "a" still active
    assert arb.state_of("b") is AccessState.ACTIVE


def test_fairshare_wake_handle_is_reused():
    """The completion-horizon wake owns one Timer for the network's whole
    life: superseded in place on every update, never reallocated."""
    perf = PerfCounters()
    sim = Simulator(perf=perf)
    net = FlowNetwork(sim, perf=perf)
    link = FluidLink(100.0, "l")

    def app(start, size):
        yield sim.timeout(start)
        flow = net.start_flow(size, [link])
        yield flow.done

    # The big flow arms a far horizon; the tiny late arrival pulls it in,
    # superseding the pending wake in place.
    sim.process(app(0.0, 1000.0))
    sim.process(app(0.5, 1.0))
    sim.run(until=0.25)
    first = net._wake_timer
    assert type(first) is Timer
    sim.run()
    assert net._wake_timer is first  # same handle, rescheduled in place
    counters = perf.as_dict()
    # Superseded horizons were cancelled in the queue, not guard-dispatched.
    assert counters.get("timers_cancelled", 0) > 0


def test_cache_boundary_handle_is_reused_and_cancelled_cleanly():
    perf = PerfCounters()
    sim = Simulator(perf=perf)
    net = FlowNetwork(sim, perf=perf)
    link = FluidLink(100.0, "ingest")
    cache = WriteBackCache(sim, net, link, cache_bandwidth=100.0,
                           drain_bandwidth=20.0, capacity=400.0)

    def writer(start, size):
        yield sim.timeout(start)
        flow = net.start_flow(size, [link])
        yield flow.done

    sim.process(writer(0.0, 2000.0))
    sim.process(writer(1.0, 500.0))
    sim.run(until=2.0)
    timer = cache._boundary_timer
    assert type(timer) is Timer
    sim.run()
    assert cache._boundary_timer is timer  # one handle for the cache's life
    assert cache.dirty_now == pytest.approx(0.0, abs=1e-6)
    assert perf.as_dict().get("timers_cancelled", 0) > 0
