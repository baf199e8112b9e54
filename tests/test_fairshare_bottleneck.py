"""Component merges, splits and mid-refill mutations against the oracle.

Regression scripts for the dirty-component kernel: bridge flows that merge
and split components, cancels and pauses issued from inside a
reallocation, a split remainder whose completion must still fire, and
capacity wiggles layered over random churn.  Each script runs on the
production :class:`~repro.simcore.FlowNetwork` and on
:class:`repro.oracles.GlobalFlowNetwork`, which re-prices every flow on
every change.  Rates match exactly; completion times match to ``REL``
(the oracle banks every flow's progress at every change, so the
integrated times differ in the last bits).
"""

import math

import numpy as np
import pytest

from repro.experiments import ExperimentEngine, build_scenario
from repro.oracles import GlobalFlowNetwork, global_allocator
from repro.simcore import FluidLink, FlowNetwork, Simulator

HORIZON = 400.0

#: Relative tolerance on integrated completion times vs the oracle.
REL = 1e-12


def _same_times(a, b):
    """Completion times equal to ``REL``; nan (never finished) only
    matches nan."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if math.isnan(x) or math.isnan(y):
            assert math.isnan(x) and math.isnan(y), (x, y)
        else:
            assert x == pytest.approx(y, rel=REL), (x, y)


def _random_script(seed: int, nlinks: int = 5, nflows: int = 48,
                   nevents: int = 24):
    """Randomized starts plus mid-flight mutations over large components
    (few links, many flows)."""
    rng = np.random.default_rng(seed)
    capacities = rng.uniform(100.0, 1000.0, size=nlinks)
    starts = []
    for i in range(nflows):
        npath = int(rng.integers(1, min(3, nlinks) + 1))
        path = sorted(rng.choice(nlinks, size=npath, replace=False).tolist())
        starts.append({
            "time": float(rng.uniform(0.0, 30.0)),
            "size": float(rng.uniform(100.0, 20000.0)),
            "path": path,
            "weight": float(rng.uniform(0.5, 8.0)),
            "cap": (float(rng.uniform(5.0, 80.0))
                    if rng.random() < 0.6 else None),
        })
    events = []
    for _ in range(nevents):
        kind = rng.choice(["pause", "resume", "cancel", "capacity"])
        events.append({
            "time": float(rng.uniform(1.0, 80.0)),
            "kind": str(kind),
            "flow": int(rng.integers(0, nflows)),
            "link": int(rng.integers(0, nlinks)),
            "capacity": float(rng.uniform(60.0, 1200.0)),
        })
    return capacities, starts, events


def _run_script(network, capacities, starts, events):
    """Execute one script; returns per-flow (finish, remaining, rate)."""
    sim = Simulator()
    net = network(sim)
    links = [FluidLink(float(c), f"l{j}") for j, c in enumerate(capacities)]
    flows = {}

    def starter(idx, spec):
        yield sim.timeout(spec["time"])
        flows[idx] = net.start_flow(
            spec["size"], [links[j] for j in spec["path"]],
            weight=spec["weight"], cap=spec["cap"], label=f"f{idx}")

    def mutator(ev):
        yield sim.timeout(ev["time"])
        flow = flows.get(ev["flow"])
        if ev["kind"] == "pause" and flow is not None:
            net.pause_flow(flow)
        elif ev["kind"] == "resume" and flow is not None:
            net.resume_flow(flow)
        elif ev["kind"] == "cancel" and flow is not None:
            net.cancel_flow(flow)
        elif ev["kind"] == "capacity":
            links[ev["link"]].set_capacity(ev["capacity"])

    for idx, spec in enumerate(starts):
        sim.process(starter(idx, spec))
    for ev in events:
        sim.process(mutator(ev))
    sim.run(until=HORIZON)
    return {idx: (None if idx not in flows else
                  (flows[idx].finish_time, flows[idx].remaining,
                   flows[idx].rate))
            for idx in range(len(starts))}


def _same_state(state, oracle):
    """Per-flow script results against the oracle's: rates exactly,
    completion times and leftover bytes to ``REL``."""
    assert state.keys() == oracle.keys()
    for idx in state:
        a, b = state[idx], oracle[idx]
        if a is None or b is None:
            assert a == b
            continue
        _same_times([a[0]], [b[0]])
        assert a[1] == pytest.approx(b[1], rel=REL, abs=1e-9), idx
        assert a[2] == b[2], idx


@pytest.mark.parametrize("seed", range(14))
def test_cached_fill_matches_baseline_exactly(seed):
    """Random starts, pauses, resumes, cancels and capacity changes over
    large components: the production fill matches the global baseline."""
    script = _random_script(seed)
    _same_state(_run_script(FlowNetwork, *script),
                _run_script(GlobalFlowNetwork, *script))


def test_component_registry_survives_merge_and_split():
    """A bridge flow unions two components; its end splits them again —
    with every completion firing exactly once at the oracle's time."""
    def run(network):
        sim = Simulator()
        net = network(sim)
        left = FluidLink(100.0, "left")
        right = FluidLink(100.0, "right")
        fires = []
        flows = []
        # Several capped flows per side.
        for i in range(6):
            flows.append(net.start_flow(1000.0 + 10 * i, [left],
                                        cap=30.0 + i, label=f"L{i}"))
            flows.append(net.start_flow(1200.0 + 10 * i, [right],
                                        cap=28.0 + i, label=f"R{i}"))
        for f in flows:
            f.done.callbacks.append(lambda ev: fires.append(ev.value.label))

        def bridge():
            yield sim.timeout(2.0)
            b = net.start_flow(500.0, [left, right], label="bridge")
            yield b.done
            yield sim.timeout(1.0)
            b2 = net.start_flow(400.0, [left, right], label="bridge2")
            yield sim.timeout(1.0)
            net.cancel_flow(b2)  # split while entries are still heap-live

        sim.process(bridge())
        sim.run()
        return [f.finish_time for f in flows], fires

    times, fires = run(FlowNetwork)
    times_oracle, fires_oracle = run(GlobalFlowNetwork)
    _same_times(times, times_oracle)
    assert sorted(fires) == sorted(fires_oracle)
    assert len(fires) == len(set(fires))  # exactly once each


def test_cancel_mid_refill_leaves_no_stale_wake_for_detached_component():
    """Cancelling (or pausing) a flow while its component is mid-refill —
    from an observer running inside the reallocation loop — must not
    leave a heap entry that fires for the detached flow or completes it
    twice."""
    def run(network):
        sim = Simulator()
        net = network(sim)
        left = FluidLink(100.0, "left")
        right = FluidLink(100.0, "right")
        flows = [net.start_flow(500.0 + 5 * i, [left], cap=20.0 + i)
                 for i in range(5)]
        flows += [net.start_flow(600.0 + 5 * i, [right], cap=18.0 + i)
                  for i in range(5)]
        victim = net.start_flow(5000.0, [left], cap=25.0, label="victim")
        state = {"fired": 0, "cancelled": False}
        victim.done.callbacks.append(
            lambda ev: state.__setitem__("fired", state["fired"] + 1))

        def observer(now, active):
            # Mid-reallocation: detach the victim while the refill that
            # re-priced it is still on the stack.
            if now >= 3.0 and not state["cancelled"]:
                state["cancelled"] = True
                net.cancel_flow(victim)

        net.add_observer(observer)

        def bridge():
            yield sim.timeout(1.0)
            b = net.start_flow(300.0, [left, right], label="bridge")
            yield b.done

        sim.process(bridge())
        sim.run()
        return [f.finish_time for f in flows], state

    times, state = run(FlowNetwork)
    times_oracle, state_oracle = run(GlobalFlowNetwork)
    _same_times(times, times_oracle)
    # The cancelled flow's event fired exactly once (the cancellation),
    # never again from a stale wake.
    assert state["fired"] == 1 == state_oracle["fired"]
    assert all(not math.isnan(t) for t in times)  # all completed


def test_pause_mid_refill_is_exact_and_resumable():
    def run(network):
        sim = Simulator()
        net = network(sim)
        link = FluidLink(200.0)
        flows = [net.start_flow(800.0 + 7 * i, [link], cap=15.0 + i)
                 for i in range(10)]
        target = flows[3]

        def controller():
            yield sim.timeout(2.0)
            net.pause_flow(target)
            yield sim.timeout(5.0)
            net.resume_flow(target)

        sim.process(controller())
        sim.run()
        return [f.finish_time for f in flows]

    _same_times(run(FlowNetwork), run(GlobalFlowNetwork))


def test_merge_must_not_drop_a_stale_pointer_remainders_wake():
    """Regression (found by a scenario equivalence sweep): a split leaves
    each satellite link as the remainder of a former component, and a
    later merge of the main links must not drop the remainders' scheduled
    completions."""
    def run(network):
        sim = Simulator()
        net = network(sim)
        c_sat, c_main = FluidLink(100.0, "c_sat"), FluidLink(100.0, "c_main")
        d_sat, d_main = FluidLink(100.0, "d_sat"), FluidLink(100.0, "d_main")
        # One component per family via a bridge; cancelling the bridge
        # splits it, leaving each *_sat link as a remainder whose flow's
        # completion was scheduled by the family's last refill.
        ca = net.start_flow(5000.0, [c_sat], label="ca")     # done at t=50
        cb = net.start_flow(4000.0, [c_main], label="cb")
        da = net.start_flow(5000.0, [d_sat], label="da")
        db = net.start_flow(4000.0, [d_main], label="db")
        bc = net.start_flow(1e9, [c_sat, c_main], label="bc")
        bd = net.start_flow(1e9, [d_sat, d_main], label="bd")

        def driver():
            yield sim.timeout(1.0)
            net.cancel_flow(bc)
            net.cancel_flow(bd)
            yield sim.timeout(1.0)
            # Merge the two main regions while both satellites'
            # completions are still pending.
            m = net.start_flow(100.0, [c_main, d_main], label="m")
            yield m.done

        sim.process(driver())
        sim.run()
        return [f.finish_time for f in (ca, cb, da, db)]

    times = run(FlowNetwork)
    _same_times(times, run(GlobalFlowNetwork))
    assert all(not math.isnan(t) for t in times)


def test_wiggle_script_with_churn_matches_baseline_exactly():
    """Two-point capacity cycling layered over random starts, pauses,
    resumes and cancels: the oracle's rates exactly, and its completion
    times to ``REL``."""
    capacities, starts, random_events = _random_script(21)
    events = [ev for ev in random_events if ev["kind"] != "capacity"]
    # A two-point throttle on one link; the rest of the vector stays put.
    for k in range(30):
        events.append({
            "time": 1.0 + 2.0 * k, "kind": "capacity", "flow": 0,
            "link": 0,
            "capacity": float(capacities[0] * (0.8 if k % 2 == 0 else 1.0)),
        })
    _same_state(_run_script(FlowNetwork, capacities, starts, events),
                _run_script(GlobalFlowNetwork, capacities, starts, events))


# ---------------------------------------------------------------------------
# Full-stack equivalence on the high-churn scenarios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario,kwargs", [
    ("checkpoint-waves", dict(napps=30, nservers=6, ncohorts=3, phases=2,
                              bridge_every=4)),
    ("read-write-mix", dict(napps=18, nservers=6, phases=4)),
])
def test_scenarios_identical_across_kernel_regimes(scenario, kwargs):
    """checkpoint-waves / read-write-mix: the production kernel and the
    global oracle tell the same story."""
    engine = ExperimentEngine()
    spec = build_scenario(scenario, **kwargs)[0]
    production = engine.run(spec)
    with global_allocator():
        oracle = engine.run(spec)
    assert ([repr(d) for d in production.decisions]
            == [repr(d) for d in oracle.decisions])
    rec_inc = production.records
    rec_glob = oracle.records
    assert rec_inc.keys() == rec_glob.keys()
    for name in rec_inc:
        assert rec_inc[name].write_times == pytest.approx(
            rec_glob[name].write_times, rel=REL), name
    assert production.makespan == pytest.approx(oracle.makespan, rel=REL)


def test_scenario_equivalence_is_stable_across_allocation_layouts():
    """The dirty-component walk iterates sets of links (id ordering), so
    layout-dependent bugs only show up under shifted heap addresses.
    Re-run the read-write-mix comparison against the oracle under a few
    deliberately shifted allocation patterns."""
    import random
    engine = ExperimentEngine()
    spec = build_scenario("read-write-mix", napps=18, nservers=6,
                          phases=4)[0]
    rng = random.Random(1234)
    for _ in range(5):
        ballast = [object() for _ in range(rng.randrange(10000))]  # noqa: F841
        production = engine.run(spec)
        with global_allocator():
            oracle = engine.run(spec)
        assert ([repr(d) for d in production.decisions]
                == [repr(d) for d in oracle.decisions])
        for name, rec in production.records.items():
            assert rec.write_times == pytest.approx(
                oracle.records[name].write_times, rel=REL), name
