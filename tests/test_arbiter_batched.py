"""The indexed/batched coordination layer: rounds, views, oracle equivalence.

Companion to ``tests/test_core_arbiter.py`` (which exercises the state
machine through the synchronous API and keeps passing unchanged): this file
covers what the scalable-coordination refactor added — coordination-round
batching, decision views, the ring-buffer decision log, the DELAY-hold
race fix, and randomized equivalence against the per-inform oracle
(:class:`repro.oracles.UnbatchedArbiter`).
"""

import warnings

import numpy as np
import pytest

from repro.core import (
    AccessDescriptor, AccessState, Action, Arbiter, CalciomRuntime, Decision,
    DescriptorSetView, Strategy,
)
from repro.experiments import ExperimentEngine, ExperimentSpec, build_scenario
from repro.oracles import UnbatchedArbiter
from repro.perf import PerfCounters
from repro.platforms import Platform, PlatformConfig
from repro.simcore import Simulator

#: The production arbiter and the per-inform oracle.  The ids keep the
#: case names from when the oracle was spelled ``Arbiter(batched=False)``.
ARBITERS = [pytest.param(Arbiter, id="True"),
            pytest.param(UnbatchedArbiter, id="False")]


def desc(app, nprocs=10, t_alone=5.0, total=1e6):
    return AccessDescriptor(app=app, nprocs=nprocs, total_bytes=total,
                            t_alone=t_alone)


# -- coordination rounds ------------------------------------------------------

def test_same_timestamp_informs_coalesce_into_one_round():
    perf = PerfCounters()
    sim = Simulator()
    arb = Arbiter(sim, "fcfs", perf=perf)
    results = {}

    def app(name):
        yield sim.timeout(1.0)
        results[name] = yield arb.submit_inform(desc(name))

    for name in ("a", "b", "c"):
        sim.process(app(name))
    sim.run()
    assert results == {"a": True, "b": False, "c": False}
    assert perf.get("coord_rounds") == 1
    assert perf.get("coord_exchanges") == 3
    assert perf.get("coord_decisions") == 3


def test_round_preserves_arrival_order_across_timestamps():
    sim = Simulator()
    arb = Arbiter(sim, "fcfs")

    def app(name, at):
        yield sim.timeout(at)
        yield arb.submit_inform(desc(name))

    sim.process(app("late", 2.0))
    sim.process(app("early", 1.0))
    sim.run()
    assert [r.app for r in arb.decision_log] == ["early", "late"]
    assert arb.is_authorized("early")
    assert arb.state_of("late") is AccessState.WAITING


def test_sync_call_flushes_pending_round_first():
    """on_complete between submit and flush must still see the inform."""
    sim = Simulator()
    arb = Arbiter(sim, "fcfs")
    arb.on_inform(desc("a"))
    seen = []

    def b():
        yield sim.timeout(1.0)
        seen.append((yield arb.submit_inform(desc("b"))))

    def finish_a():
        yield sim.timeout(1.0)
        arb.on_complete("a")  # same timestamp, later event

    sim.process(b())
    sim.process(finish_a())
    sim.run()
    # b informed before a completed -> FCFS said WAIT; a's completion then
    # granted b.  (Had the flush not run eagerly, b would have seen an
    # empty machine and been logged GO.)
    assert seen == [False]
    assert arb.decision_log[-1].action is Action.WAIT
    assert arb.is_authorized("b")


def test_submit_release_updates_knowledge_in_order():
    sim = Simulator()
    arb = Arbiter(sim, "fcfs")
    arb.on_inform(desc("a"))

    def step():
        yield sim.timeout(1.0)
        arb.submit_release("a", 123.0)

    sim.process(step())
    sim.run()
    assert arb.descriptor_of("a").remaining_bytes == 123.0


def test_batched_strategy_invocation_sees_earlier_decisions():
    """The lazily-pulled decide_batch observes in-batch state changes."""
    seen_active = []

    class Recording(Strategy):
        name = "recording"
        supports_views = True

        def decide(self, now, active, waiting, incoming):
            seen_active.append([d.app for d in active])
            return Decision(Action.GO)

    sim = Simulator()
    arb = Arbiter(sim, Recording())

    def app(name):
        yield sim.timeout(1.0)
        yield arb.submit_inform(desc(name))

    sim.process(app("a"))
    sim.process(app("b"))
    sim.run()
    assert seen_active == [[], ["a"]]


# -- decision views -----------------------------------------------------------

def test_views_reach_view_aware_strategies():
    captured = {}

    class Peek(Strategy):
        name = "peek"
        supports_views = True

        def decide(self, now, active, waiting, incoming):
            captured["active"] = active
            captured["waiting"] = waiting
            captured["len_at_decision"] = len(active)
            captured["truthy_at_decision"] = bool(active)
            return Decision(Action.GO)

    arb = Arbiter(Simulator(), Peek())
    arb.on_inform(desc("a"))
    assert isinstance(captured["active"], DescriptorSetView)
    assert isinstance(captured["waiting"], DescriptorSetView)
    assert captured["len_at_decision"] == 0
    assert captured["truthy_at_decision"] is False
    # The view is live: after the decision was applied, a is active.
    assert [d.app for d in captured["active"]] == ["a"]


def test_views_are_the_default_contract():
    """A strategy declaring nothing gets live views, warning-free."""
    captured = {}

    class Plain(Strategy):
        name = "plain"

        def decide(self, now, active, waiting, incoming):
            captured["active"] = active
            return Decision(Action.GO)

    arb = Arbiter(Simulator(), Plain())
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        arb.on_inform(desc("a"))
    assert isinstance(captured["active"], DescriptorSetView)


def test_active_view_order_is_first_decision_order():
    """Re-activation after completion must not reorder the active view."""
    arb = Arbiter(Simulator(), "interfere")
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    arb.on_complete("a")
    arb.on_inform(desc("a"))  # a re-informs: still listed before b
    assert [d.app for d in arb.active_descriptors()] == ["a", "b"]


# -- decision-log ring buffer -------------------------------------------------

def test_decision_log_ring_buffer_bounds_memory():
    """10^5 decisions with a cap must retain only the cap's records."""
    sim = Simulator()
    arb = Arbiter(sim, "fcfs", decision_log_limit=256)
    for i in range(100_000):
        name = f"app{i % 7}"
        arb.on_inform(desc(name))
        arb.on_complete(name)
    assert len(arb.decision_log) == 256
    # Only the most recent records are retained (the ring dropped the
    # 99744 older DecisionRecord snapshots instead of accumulating them).
    times = [r.time for r in arb.decision_log]
    assert times == sorted(times)
    assert arb.decision_log[0].app == "app" + str((100_000 - 256) % 7)


def test_decision_log_unbounded_by_default():
    arb = Arbiter(Simulator(), "fcfs")
    for i in range(500):
        arb.on_inform(desc(f"app{i}"))
    assert len(arb.decision_log) == 500
    assert isinstance(arb.decision_log, list)


def test_scale_scenarios_cap_decision_log():
    spec, = build_scenario("many-writers", napps=4, nservers=2)
    assert spec.arbiter["decision_log_limit"] == 10_000
    spec, = build_scenario("swf-replay", napps=10, hours=2.0)
    assert spec.arbiter["decision_log_limit"] == 10_000


# -- the DELAY-hold race ------------------------------------------------------

class AlwaysDelay(Strategy):
    name = "always-delay"
    supports_views = True

    def __init__(self, delay):
        self.delay = delay

    def decide(self, now, active, waiting, incoming):
        if active:
            return Decision(Action.DELAY, delay=self.delay)
        return Decision(Action.GO)


@pytest.mark.parametrize("arbiter_cls", ARBITERS)
def test_stale_hold_does_not_activate_new_access(arbiter_cls):
    """withdraw() + re-inform between hold scheduling and firing.

    b's first access is held for 5 s, withdrawn at t=1; its *second*
    access (informed at t=2, held until t=7) must not be activated by the
    stale t=5 timer.
    """
    sim = Simulator()
    arb = arbiter_cls(sim, AlwaysDelay(5.0))
    arb.on_inform(desc("a"))
    assert arb.on_inform(desc("b")) is False   # hold scheduled for t=5

    def script():
        yield sim.timeout(1.0)
        arb.withdraw("b")
        yield sim.timeout(1.0)
        arb.on_inform(desc("b"))               # new access, hold at t=7

    sim.process(script())
    sim.run(until=6.0)
    # The stale t=5 hold fired in this window; the new access must still
    # be waiting (its own hold expires at t=7).
    assert arb.state_of("b") is AccessState.WAITING
    sim.run()
    assert arb.is_authorized("b")              # granted by its own hold


@pytest.mark.parametrize("arbiter_cls", ARBITERS)
def test_hold_for_withdrawn_app_is_noop(arbiter_cls):
    sim = Simulator()
    arb = arbiter_cls(sim, AlwaysDelay(5.0))
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    arb.withdraw("b")
    sim.run()
    assert arb.state_of("b") is AccessState.IDLE


# -- arbiter edge cases -------------------------------------------------------

@pytest.mark.parametrize("arbiter_cls", ARBITERS)
def test_preempted_app_completing_while_waiters_queue(arbiter_cls):
    sim = Simulator()
    arb = arbiter_cls(sim, "interrupt")
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))                   # b interrupts a
    assert arb.state_of("a") is AccessState.PREEMPTED

    class JustWait(Strategy):
        supports_views = True

        def decide(self, now, active, waiting, incoming):
            return Decision(Action.WAIT)

    arb.strategy = JustWait()
    arb.on_inform(desc("c"))                   # c queues behind b
    arb.on_complete("a")                       # a gives up while preempted
    arb.on_complete("b")
    sim.run()
    # a must not have been granted (it completed); c gets the machine.
    assert arb.state_of("a") is AccessState.IDLE
    assert arb.is_authorized("c")


@pytest.mark.parametrize("arbiter_cls", ARBITERS)
def test_interrupt_targeting_explicit_subset(arbiter_cls):
    class InterruptOnlyA(Strategy):
        supports_views = True

        def decide(self, now, active, waiting, incoming):
            if active:
                return Decision(Action.INTERRUPT, preempt=["a"])
            return Decision(Action.GO)

    sim = Simulator()
    arb = arbiter_cls(sim, InterruptOnlyA())
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))                   # preempts only a
    assert arb.state_of("a") is AccessState.PREEMPTED
    assert arb.is_authorized("b")              # untargeted: stays active
    arb.on_inform(desc("c"))                   # a already preempted: no-op
    assert arb.is_authorized("c")
    arb.on_complete("b")
    arb.on_complete("c")
    sim.run()
    assert arb.is_authorized("a")              # resumes once machine frees


@pytest.mark.parametrize("arbiter_cls", ARBITERS)
def test_grant_latency_orders_sequential_grants(arbiter_cls):
    sim = Simulator()
    arb = arbiter_cls(sim, "fcfs", grant_latency=0.5)
    grants = []

    def app(name, at, hold):
        yield sim.timeout(at)
        if arbiter_cls is Arbiter:
            authorized = yield arb.submit_inform(desc(name))
        else:
            authorized = arb.on_inform(desc(name))
        if not authorized:
            yield arb.authorization_event(name)
        grants.append((name, sim.now))
        yield sim.timeout(hold)
        arb.on_complete(name)

    sim.process(app("a", 0.0, hold=2.0))
    sim.process(app("b", 1.0, hold=2.0))
    sim.process(app("c", 1.5, hold=2.0))
    sim.run()
    names = [g[0] for g in grants]
    times = dict(grants)
    assert names == ["a", "b", "c"]            # FIFO order survives latency
    assert times["b"] == pytest.approx(2.5)    # a done at 2.0 + 0.5 latency
    assert times["c"] == pytest.approx(5.0)    # b done at 4.5 + 0.5 latency


@pytest.mark.parametrize("arbiter_cls", ARBITERS)
def test_withdraw_clears_in_flight_grant(arbiter_cls):
    """A dead access's in-flight grant must not leak to the next access.

    b is granted at t=2 (notification in flight until t=2.5), withdraws
    before it lands, then re-informs while c holds the machine: b's new
    access is WAIT-decided, and its authorization_event must be the new
    pending one — not the stale triggered grant of the withdrawn access.
    """
    sim = Simulator()
    arb = arbiter_cls(sim, "fcfs", grant_latency=0.5)
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    resumed = []

    def script():
        yield sim.timeout(2.0)
        arb.on_complete("a")        # grants b; notification in flight
        arb.withdraw("b")           # b's job dies before it lands
        arb.on_inform(desc("c"))    # c takes the machine
        assert arb.on_inform(desc("b")) is False  # b's NEW access waits
        ev = arb.authorization_event("b")
        assert not ev.triggered     # not the dead access's grant
        yield ev
        resumed.append((sim.now, arb.is_authorized("b")))

    sim.process(script())
    sim.run(until=4.0)
    assert resumed == []            # stale grant at t=2.5 must not resume b
    arb.on_complete("c")
    sim.run()
    assert resumed == [(4.5, True)]  # c's completion + grant latency


def test_regrant_during_flight_keeps_successor_inflight_entry():
    """A stale grant event's cleanup must not evict the successor's."""
    sim = Simulator()
    arb = Arbiter(sim, "fcfs", grant_latency=0.5)
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    arb.on_complete("a")            # ev1 for b in flight: t=0 -> 0.5

    def regrant():
        yield sim.timeout(0.25)
        arb.withdraw("b")           # ev1 now stale
        arb.on_inform(desc("c"))
        arb.on_inform(desc("b"))    # b's new access waits behind c
        arb.on_complete("c")        # ev2 for b in flight: t=0.25 -> 0.75
        assert arb.grant_in_flight("b")

    sim.process(regrant())
    sim.run(until=0.6)              # ev1 processed at 0.5; ev2 still flying
    assert arb.grant_in_flight("b")  # ev2's entry survived ev1's cleanup
    sim.run()
    assert not arb.grant_in_flight("b")
    assert arb.is_authorized("b")


def test_randomized_traces_batched_equals_unbatched():
    """Random inform/release/complete schedules: logs must be identical."""
    def drive(arbiter_cls, seed):
        batched = arbiter_cls is Arbiter
        rng = np.random.default_rng(seed)
        napps = 24
        starts = rng.uniform(0.0, 3.0, size=napps)
        holds = rng.uniform(0.1, 1.0, size=napps)
        phases = rng.integers(1, 4, size=napps)
        sim = Simulator()
        arb = arbiter_cls(sim, "dynamic", grant_latency=1e-3)

        def app(i):
            name = f"app{i:02d}"
            yield sim.timeout(float(starts[i]))
            for _ in range(int(phases[i])):
                d = desc(name, nprocs=int(rng.integers(1, 64)),
                         t_alone=float(holds[i]))
                if batched:
                    ok = yield arb.submit_inform(d)
                else:
                    ok = arb.on_inform(d)
                if not ok:
                    yield arb.authorization_event(name)
                yield sim.timeout(float(holds[i]) / 2)
                if batched:
                    arb.submit_release(name, d.total_bytes / 2)
                else:
                    arb.on_release(name, d.total_bytes / 2)
                yield sim.timeout(float(holds[i]) / 2)
                arb.on_complete(name)

        for i in range(napps):
            sim.process(app(i))
        sim.run()
        return arb.decision_log, sim.now

    for seed in (1, 7, 2014):
        log_b, end_b = drive(Arbiter, seed)
        log_u, end_u = drive(UnbatchedArbiter, seed)
        assert log_b == log_u, f"seed {seed}: decision logs diverged"
        assert end_b == end_u, f"seed {seed}: end times diverged"


# -- wiring: spec round-trip and perf surfacing -------------------------------

def test_spec_arbiter_options_round_trip():
    spec, = build_scenario("many-writers", napps=3, nservers=2,
                           strategy="fcfs", arbiter={"shards": 1})
    assert spec.arbiter == {"decision_log_limit": 10_000, "shards": 1}
    clone = ExperimentSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.arbiter == spec.arbiter


def test_experiment_results_carry_coordination_counters():
    spec, = build_scenario("many-writers", napps=6, nservers=3, phases=2,
                           strategy="fcfs")
    result = ExperimentEngine().run(spec)
    perf = result.perf
    assert perf["coord_decisions"] > 0
    assert perf["coord_rounds"] > 0
    assert perf["coord_exchanges"] >= perf["coord_rounds"]
    assert perf["coord_grants"] >= perf["coord_decisions"] / 2
    assert perf["coord_messages"] > 0
    assert perf["coord_seconds"] > 0


def test_runtime_perf_wiring_through_platform():
    cfg = PlatformConfig(name="tiny", nservers=2, disk_bandwidth=100.0,
                         per_core_bandwidth=10.0, stripe_size=100,
                         latency=1e-5)
    platform = Platform(cfg)
    runtime = CalciomRuntime(platform, strategy="fcfs")
    assert runtime.coordinator.perf is platform.perf
    runtime.coordinator.on_inform(desc("x"))
    assert platform.perf.get("coord_decisions") == 1
