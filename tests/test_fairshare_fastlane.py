"""The lone-flow fast lane against the whole-network oracle.

Most dirty components hold one flow, so ``FlowNetwork._refill`` prices a
flow that is alone on every link of its path in closed form, without a
walk, and a departure marks dirty only the links that still carry flows
(``_mark_released``).  :class:`repro.oracles.GlobalFlowNetwork` overrides
both hooks and must still re-price every flow on every arrival and every
departure.  These tests pin that contract, then run seeded random scripts
through both networks and compare rates exactly and finish times to
``REL``.  The scripts cover lone arrivals on disjoint paths, components
growing 1 -> 3 -> 1, cancel/pause/resume, zero-byte flows, a path that
repeats a link and a server whose seek penalty adds an observer.
"""

import math

import numpy as np
import pytest

from repro.network import Fabric
from repro.oracles import GlobalFlowNetwork
from repro.simcore import FluidLink, FlowNetwork, Simulator
from repro.storage import Disk, StorageServer

#: Finish times agree to this relative tolerance: the oracle banks every
#: flow's progress at every change, so the last bits may differ.
REL = 1e-12


def _counting(monkeypatch, owner, name, log):
    """Wrap ``owner.name`` to log ``(network type, time)`` per call."""
    original = getattr(owner, name)

    def counted(self, *args):
        log.append((type(self), self.sim.now))
        return original(self, *args)

    monkeypatch.setattr(owner, name, counted)


def _lone_flows(network):
    """Three lone flows on disjoint paths, staggered so none overlap."""
    sim = Simulator()
    net = network(sim)
    flows = []

    def starter(i):
        yield sim.timeout(10.0 * i)
        links = [FluidLink(100.0 * (i + 1), f"p{i}.{j}") for j in range(3)]
        flows.append(net.start_flow(250.0, links, weight=1.5, label=f"f{i}"))

    for i in range(3):
        sim.process(starter(i))
    sim.run()
    return flows


def test_oracle_reprices_every_lone_arrival_and_completion(monkeypatch):
    refills, loops = [], []
    _counting(monkeypatch, GlobalFlowNetwork, "_refill", refills)
    _counting(monkeypatch, FlowNetwork, "_fill_loop", loops)
    oracle = _lone_flows(GlobalFlowNetwork)
    times = [when for _, when in refills]
    for flow in oracle:
        assert times.count(flow.start_time) >= 1, flow
        assert times.count(flow.finish_time) >= 1, flow
    assert len(refills) >= 2 * len(oracle)
    # The oracle fills generically; production never does for these.
    assert loops and {kind for kind, _ in loops} == {GlobalFlowNetwork}

    loops.clear()
    production = _lone_flows(FlowNetwork)
    assert loops == []
    assert [f.finish_time for f in production] == \
        [f.finish_time for f in oracle]


def test_a_component_shrinking_to_one_flow_skips_the_generic_fill(
        monkeypatch):
    loops = []
    _counting(monkeypatch, FlowNetwork, "_fill_loop", loops)
    sim = Simulator()
    net = FlowNetwork(sim)
    shared = FluidLink(100.0, "shared")
    short = net.start_flow(100.0, [shared, FluidLink(1e3, "a")], label="a")
    assert loops == []  # a lone arrival
    long = net.start_flow(900.0, [shared, FluidLink(1e3, "b")], label="b")
    assert loops == [(FlowNetwork, 0.0)]  # two flows: the generic fill
    sim.run()
    # The short flow's completion leaves the long one alone: it is
    # re-priced in closed form, not by the generic fill.
    assert loops == [(FlowNetwork, 0.0)]
    assert short.finish_time == 2.0
    assert long.finish_time == pytest.approx(10.0, rel=REL)


# ---------------------------------------------------------------------------
# Differential scripts
# ---------------------------------------------------------------------------

APPS = ("a", "b", "c")


def _script(seed):
    """A reproducible script of flow starts and mid-flight mutations."""
    rng = np.random.default_rng(seed)
    starts = []
    # Lone arrivals on disjoint paths.
    for i in range(4):
        starts.append({"time": float(rng.uniform(0.0, 40.0)),
                       "path": [("private", i), ("private", 10 + i)]})
    # A component that grows 1 -> 3 -> 1: staggered starts, sizes chosen
    # so the flows also leave one at a time.  Each path starts on a
    # private link, as a fabric route starts on the client's uplink.
    t0 = float(rng.uniform(0.0, 5.0))
    for i in range(3):
        starts.append({"time": t0 + 2.0 * i,
                       "path": [("private", 40 + i), ("hub", 0)],
                       "size": 200.0 * (3 - i)})
    # Flows through the seek-penalized server, several applications.
    for i in range(5):
        starts.append({"time": float(rng.uniform(0.0, 40.0)),
                       "path": [("private", 50 + i), ("hub", 1),
                                ("ingest", 0)]})
    # A path that crosses one link twice.
    starts.append({"time": float(rng.uniform(0.0, 40.0)),
                   "path": [("hub", 2), ("private", 20), ("hub", 2)]})
    for spec in starts:
        spec.setdefault("size", float(rng.uniform(100.0, 3000.0)))
        spec["weight"] = float(rng.uniform(0.5, 6.0))
        spec["cap"] = (float(rng.uniform(20.0, 200.0))
                       if rng.random() < 0.3 else None)
        spec["label"] = APPS[int(rng.integers(0, len(APPS)))]
    # Zero-byte flows on shared and private links.
    for i in range(2):
        starts.append({"time": float(rng.uniform(0.0, 40.0)), "size": 0.0,
                       "path": [("hub", i), ("private", 30 + i)],
                       "weight": 1.0, "cap": None, "label": "z"})
    events = []
    for _ in range(10):
        events.append({
            "time": float(rng.uniform(1.0, 60.0)),
            "kind": str(rng.choice(["pause", "resume", "cancel"])),
            "flow": int(rng.integers(0, len(starts))),
        })
    return starts, events


def _run(network, starts, events):
    """Run one script; returns the rate log and per-flow final state."""
    sim = Simulator()
    net = network(sim)
    fabric = Fabric(sim, net)
    server = StorageServer(sim, net, fabric, "srv",
                           Disk(400.0, seek_penalty=0.3))
    links = {}

    def link(key):
        if key == ("ingest", 0):
            return server.ingest_link
        if key not in links:
            kind, i = key
            links[key] = FluidLink(150.0 + 37.0 * i, f"{kind}{i}")
        return links[key]

    flows = {}
    flows_by_id = {}
    rates = []

    def snapshot(what):
        rates.append((what, sim.now, {flows_by_id[id(f)]: f.rate
                                      for f in net.active_flows}))

    def starter(idx, spec):
        yield sim.timeout(spec["time"])
        flow = net.start_flow(spec["size"], [link(k) for k in spec["path"]],
                              weight=spec["weight"], cap=spec["cap"],
                              label=spec["label"])
        flows[idx] = flow
        flows_by_id[id(flow)] = idx
        snapshot(("start", idx))

    def mutator(ev):
        yield sim.timeout(ev["time"])
        flow = flows.get(ev["flow"])
        if flow is None:
            return
        getattr(net, f"{ev['kind']}_flow")(flow)
        snapshot((ev["kind"], ev["flow"]))

    for idx, spec in enumerate(starts):
        sim.process(starter(idx, spec))
    for ev in events:
        sim.process(mutator(ev))
    sim.run()
    final = {idx: (f.finish_time, f.remaining) for idx, f in flows.items()}
    return rates, final


@pytest.mark.parametrize("seed", range(16))
def test_fast_lane_matches_the_oracle(seed, monkeypatch):
    delivered = {FlowNetwork: 0.0, GlobalFlowNetwork: 0.0}
    finish = FlowNetwork._finish_flow

    def counted_finish(net, flow, now):
        delivered[type(net)] += flow.size
        return finish(net, flow, now)

    # The class-level wrapper the benchmark's byte-conservation check
    # installs: every completion must go through it.
    monkeypatch.setattr(FlowNetwork, "_finish_flow", counted_finish)
    starts, events = _script(seed)
    rates_p, final_p = _run(FlowNetwork, starts, events)
    rates_o, final_o = _run(GlobalFlowNetwork, starts, events)

    assert [(what, rates) for what, _, rates in rates_p] == \
        [(what, rates) for what, _, rates in rates_o]
    for (_, tp, _), (_, to, _) in zip(rates_p, rates_o):
        assert tp == to
    assert final_p.keys() == final_o.keys() == set(range(len(starts)))
    for idx in sorted(final_p):
        (fin_p, rem_p), (fin_o, rem_o) = final_p[idx], final_o[idx]
        if math.isnan(fin_p) or math.isnan(fin_o):
            assert math.isnan(fin_p) and math.isnan(fin_o), idx
            assert rem_p == pytest.approx(rem_o, rel=REL, abs=1e-9), idx
        else:
            assert fin_p == pytest.approx(fin_o, rel=REL), idx
            assert rem_p == rem_o == 0.0
    for network, final in ((FlowNetwork, final_p),
                           (GlobalFlowNetwork, final_o)):
        want = sum(starts[idx]["size"] for idx, (fin, _) in final.items()
                   if not math.isnan(fin))
        assert delivered[network] == pytest.approx(want, rel=REL), network
