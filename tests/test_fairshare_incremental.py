"""Cross-checks of the production kernel against the global oracle.

The incremental (dirty-component) :class:`~repro.simcore.FlowNetwork`
must be an optimization of :class:`repro.oracles.GlobalFlowNetwork`, which
re-prices every flow on every change: the same rates and the same
completion times, for any topology and any event sequence.  These tests
script randomized workloads — random link graphs, weights, caps, pauses,
cancellations and capacity changes — and run the *same* script through
both networks, comparing the full observable state within 1e-9.  The edge
cases below run on both networks.
"""

import math

import numpy as np
import pytest

from repro.experiments import ExperimentEngine, build_scenario
from repro.oracles import GlobalFlowNetwork, global_allocator
from repro.perf import PerfCounters
from repro.simcore import FluidLink, FlowNetwork, Simulator

HORIZON = 500.0

#: The production kernel and the whole-network oracle.  The ids keep the
#: case names from when the oracle was spelled ``incremental=False``.
NETWORKS = [pytest.param(FlowNetwork, id="True"),
            pytest.param(GlobalFlowNetwork, id="False")]


def _random_script(seed: int, nlinks: int = 8, nflows: int = 24,
                   nevents: int = 18):
    """A reproducible event script: flow starts plus mid-flight mutations."""
    rng = np.random.default_rng(seed)
    capacities = rng.uniform(50.0, 500.0, size=nlinks)
    starts = []
    for i in range(nflows):
        npath = int(rng.integers(1, min(4, nlinks) + 1))
        path = sorted(rng.choice(nlinks, size=npath, replace=False).tolist())
        starts.append({
            "time": float(rng.uniform(0.0, 30.0)),
            "size": float(rng.uniform(100.0, 20000.0)),
            "path": path,
            "weight": float(rng.uniform(0.5, 8.0)),
            "cap": (float(rng.uniform(20.0, 200.0))
                    if rng.random() < 0.3 else None),
        })
    events = []
    for _ in range(nevents):
        kind = rng.choice(["pause", "resume", "cancel", "capacity"])
        events.append({
            "time": float(rng.uniform(1.0, 60.0)),
            "kind": str(kind),
            "flow": int(rng.integers(0, nflows)),
            "link": int(rng.integers(0, nlinks)),
            "capacity": float(rng.uniform(30.0, 600.0)),
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
    out = {}
    for idx in range(len(starts)):
        f = flows.get(idx)
        if f is None:
            out[idx] = None
        else:
            out[idx] = (f.finish_time, f.remaining, f.rate)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_incremental_matches_global_on_random_topologies(seed):
    """Same script, both networks: identical state within 1e-9."""
    script = _random_script(seed)
    state_inc = _run_script(FlowNetwork, *script)
    state_glob = _run_script(GlobalFlowNetwork, *script)
    assert state_inc.keys() == state_glob.keys()
    for idx in state_inc:
        a, b = state_inc[idx], state_glob[idx]
        if a is None or b is None:
            assert a == b
            continue
        for x, y, what in zip(a, b, ("finish_time", "remaining", "rate")):
            if math.isnan(x) or math.isnan(y):
                assert math.isnan(x) and math.isnan(y), (idx, what, x, y)
            elif math.isinf(x) or math.isinf(y):
                assert x == y, (idx, what, x, y)
            else:
                assert x == pytest.approx(y, rel=1e-9, abs=1e-9), (
                    f"flow {idx} {what}: incremental={x} global={y}")


@pytest.mark.parametrize("strategy", [None, "fcfs"])
def test_incremental_matches_global_end_to_end(strategy):
    """Full-stack cross-check: the many-writers scenario under both
    networks yields string-equal decision logs and the same per-application
    times.  Rates are exact; the integrated times differ in the last bits
    (the oracle banks every flow's progress at every change)."""
    engine = ExperimentEngine()
    spec = build_scenario("many-writers", napps=24, nservers=8,
                          strategy=strategy, seed=11)[0]
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
            rec_glob[name].write_times, rel=1e-12), name
    assert production.makespan == pytest.approx(oracle.makespan, rel=1e-12)


def test_global_allocator_builds_the_oracle_network():
    """Inside the block every platform prices with the oracle; outside it
    the production kernel is back."""
    from repro.platforms import Platform, grid5000_rennes

    with global_allocator():
        assert type(Platform(grid5000_rennes()).net) is GlobalFlowNetwork
    assert type(Platform(grid5000_rennes()).net) is FlowNetwork


# ---------------------------------------------------------------------------
# cancel_flow regression (the silently-dropped done event)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("network", NETWORKS)
def test_cancel_flow_without_exc_releases_waiters(network):
    """Regression: cancelling with exc=None succeeds `done` with None so a
    process yielding on it resumes instead of being parked forever."""
    sim = Simulator()
    net = network(sim)
    link = FluidLink(100.0)
    flow = net.start_flow(1000.0, [link])

    def canceller():
        yield sim.timeout(1.0)
        net.cancel_flow(flow)

    def waiter():
        value = yield flow.done
        return ("released", value, sim.now)

    p = sim.process(waiter())
    sim.process(canceller())
    sim.run()
    assert p.value == ("released", None, 1.0)
    assert math.isnan(flow.finish_time)  # cancelled, not completed
    assert flow.remaining == pytest.approx(900.0)


def test_cancel_flow_none_value_distinguishes_from_completion():
    sim = Simulator()
    net = FlowNetwork(sim)
    link = FluidLink(100.0)
    cancelled = net.start_flow(500.0, [link], label="cancelled")
    completed = net.start_flow(500.0, [link], label="completed")
    net.cancel_flow(cancelled)
    sim.run()
    assert cancelled.done.value is None
    assert completed.done.value is completed


# ---------------------------------------------------------------------------
# Fairshare edge cases (satellite coverage)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("network", NETWORKS)
def test_set_capacity_integrates_before_changing(network):
    """Progress under the old capacity must be banked before the new rates
    apply (integrate-then-change): 2 s at 100 B/s, then the rest at 10."""
    sim = Simulator()
    net = network(sim)
    link = FluidLink(100.0)
    flow = net.start_flow(1000.0, [link])

    def changer():
        yield sim.timeout(2.0)
        link.set_capacity(10.0)
        # Exactly 200 B must have been delivered under the old capacity.
        assert flow.remaining == pytest.approx(800.0)

    sim.process(changer())
    sim.run()
    assert flow.finish_time == pytest.approx(2.0 + 800.0 / 10.0)


@pytest.mark.parametrize("network", NETWORKS)
def test_pause_resume_accounting_with_sharing(network):
    """Pause banks progress at the *shared* rate; resume re-splits."""
    sim = Simulator()
    net = network(sim)
    link = FluidLink(100.0)
    a = net.start_flow(1000.0, [link])
    b = net.start_flow(1000.0, [link])

    def controller():
        yield sim.timeout(4.0)        # both at 50 B/s -> 200 B each
        net.pause_flow(a)
        assert a.remaining == pytest.approx(800.0)
        assert a.rate == 0.0
        yield sim.timeout(2.0)        # b alone at 100 B/s -> 600 B left
        net.resume_flow(a)
        # The resume re-priced b's component, integrating its solo spell.
        assert b.remaining == pytest.approx(600.0)
        assert a.remaining == pytest.approx(800.0)

    sim.process(controller())
    sim.run()
    # t=6: a has 800, b has 600, both at 50 B/s.  b finishes at t=18,
    # leaving a 200 B at 100 B/s -> a finishes at t=20.
    assert b.finish_time == pytest.approx(18.0)
    assert a.finish_time == pytest.approx(20.0)


@pytest.mark.parametrize("network", NETWORKS)
def test_cap_exactly_equal_to_fair_share(network):
    """A cap equal to the max-min fair share must not perturb anything."""
    sim = Simulator()
    net = network(sim)
    link = FluidLink(100.0)
    capped = net.start_flow(500.0, [link], cap=50.0)   # fair share == 50
    free = net.start_flow(500.0, [link])
    sim.run()
    assert capped.finish_time == pytest.approx(10.0)
    assert free.finish_time == pytest.approx(10.0)


@pytest.mark.parametrize("network", NETWORKS)
def test_sub_ulp_horizon_completes_in_both_modes(network):
    """The math.ulp wake-nudge path: a near-finished flow at a large clock
    value must complete rather than spin at `now` forever."""
    sim = Simulator(start_time=1e9)
    net = network(sim)
    link = FluidLink(1e9)
    flow = net.start_flow(2e-6, [link])
    sim.run(until=flow.done)
    assert flow.remaining == 0.0
    assert sim.now >= 1e9


@pytest.mark.parametrize("network", NETWORKS)
def test_pause_at_exact_completion_horizon_completes(network):
    """Regression: pausing a flow at the instant its last byte lands must
    complete it (triggering `done`), not park it paused forever."""
    sim = Simulator()
    net = network(sim)
    link = FluidLink(100.0)
    # Register the pause callback first so it runs before the network's
    # completion wake at the same timestamp.
    holder = {}
    sim.call_at(10.0, lambda: net.pause_flow(holder["flow"]))
    holder["flow"] = net.start_flow(1000.0, [link])  # completes at t=10
    sim.run()
    flow = holder["flow"]
    assert flow.done.triggered
    assert flow.finish_time == pytest.approx(10.0)
    assert flow not in net.active_flows


def test_sync_respects_per_flow_sync_points():
    """Regression: a whole-network sync() after per-flow syncs must not
    double-integrate progress from a stale shared checkpoint."""
    sim = Simulator()
    net = FlowNetwork(sim)

    def driver():
        yield sim.timeout(40.0)
        flow = net.start_flow(1000.0, [FluidLink(100.0)])
        yield sim.timeout(5.0)   # 500 B delivered
        net.sync()
        assert flow.remaining == pytest.approx(500.0)
        net.cancel_flow(flow)

    p = sim.process(driver())
    sim.run(until=p)


@pytest.mark.parametrize("network", NETWORKS)
def test_untouched_component_keeps_its_schedule(network):
    """Churn in one component must not disturb another's completions."""
    sim = Simulator()
    net = network(sim)
    left = FluidLink(100.0, "left")
    right = FluidLink(100.0, "right")
    steady = net.start_flow(1000.0, [left])   # 10 s, alone on its link

    def churner():
        for _ in range(20):
            f = net.start_flow(50.0, [right])
            yield f.done

    sim.process(churner())
    sim.run()
    assert steady.finish_time == pytest.approx(10.0)
    assert steady.rate == 0.0


# ---------------------------------------------------------------------------
# Batch start
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("network", NETWORKS)
def test_start_flows_batch_single_reallocation(network):
    """A batch start computes rates once over the final population."""
    sim = Simulator()
    perf = PerfCounters()
    net = network(sim, perf=perf)
    link = FluidLink(100.0, "l0")

    def script():
        yield sim.timeout(1.0)
        flows = net.start_flows(
            {"size": 1000.0, "path": [link], "weight": float(1 + i % 3),
             "label": f"f{i}"}
            for i in range(20))
        assert len(flows) == 20
        assert all(f.rate > 0.0 for f in flows)

    before = perf.as_dict().get("reallocations", 0)
    sim.process(script())
    sim.run(until=2.0)
    after = perf.as_dict().get("reallocations", 0)
    assert after - before == 1


@pytest.mark.parametrize("network", NETWORKS)
def test_start_flows_zero_size_completes_immediately(network):
    """Zero-byte flows in a batch complete at the current instant and are
    never registered with the allocator."""
    sim = Simulator()
    net = network(sim)
    link = FluidLink(100.0, "l0")
    out = {}

    def script():
        yield sim.timeout(3.0)
        flows = net.start_flows([
            {"size": 0.0, "path": [link], "label": "empty"},
            {"size": 600.0, "path": [link], "label": "real"},
        ])
        out["empty"], out["real"] = flows

    sim.process(script())
    sim.run(until=100.0)
    assert out["empty"].finish_time == 3.0
    assert out["empty"].remaining == 0.0
    assert out["real"].finish_time == pytest.approx(9.0, rel=1e-12)
