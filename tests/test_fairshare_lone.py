"""The closed-form price of a lone flow against progressive filling.

A dirty component holding a single live flow is priced by
``FlowNetwork._fill_lone`` instead of the generic fill.  The closed form
evaluates the same float expressions, so equality here is exact (``==``),
not approximate: infinite links, a cap tied with the link share,
non-integral weights.  A path that crosses one link twice must fall back
to the generic fill, which counts the flow once per crossing.
"""

import math

import numpy as np
import pytest

from repro.oracles import GlobalFlowNetwork
from repro.simcore import FluidLink, FlowNetwork, Simulator


def _lone_and_generic(capacities, weight, cap):
    """The closed-form rate and the generic fill's rate for one flow."""
    net = FlowNetwork(Simulator())
    links = [FluidLink(c, f"l{i}") for i, c in enumerate(capacities)]
    flow = net._register_flow(1e6, links, weight=weight, cap=cap)
    assert net._fill_lone(flow)
    lone = flow.rate
    net._fill_rates([flow])
    return lone, flow.rate


def _random_path(rng):
    nlinks = int(rng.integers(1, 6))
    capacities = []
    for _ in range(nlinks):
        draw = rng.random()
        if draw < 0.25:
            capacities.append(math.inf)
        elif draw < 0.5:
            capacities.append(float(rng.integers(1, 10_000)))
        else:
            capacities.append(float(rng.uniform(1e-3, 1e10)))
    weight = float(rng.uniform(0.01, 1000.0))
    draw = rng.random()
    finite = [c for c in capacities if c != math.inf]
    if draw < 0.3:
        cap = None
    elif draw < 0.45 and finite:
        cap = min(finite)  # cap / weight ties the bottleneck share exactly
    elif draw < 0.6 and finite:
        # One ulp either side of the tie: the strict comparison decides.
        cap = float(np.nextafter(min(finite), rng.choice([0.0, math.inf])))
    else:
        cap = float(rng.uniform(1e-3, 1e10))
    return capacities, weight, cap


@pytest.mark.parametrize("seed", range(5))
def test_lone_rate_is_bit_identical_to_generic_fill(seed):
    rng = np.random.default_rng(seed)
    for _ in range(400):
        capacities, weight, cap = _random_path(rng)
        lone, generic = _lone_and_generic(capacities, weight, cap)
        assert lone == generic, (capacities, weight, cap)


def test_infinite_links():
    inf = math.inf
    assert _lone_and_generic([inf, inf], 2.5, None) == (inf, inf)
    lone, generic = _lone_and_generic([inf, inf], 2.5, 7.3)
    assert lone == generic == 2.5 * (7.3 / 2.5)
    lone, generic = _lone_and_generic([inf, 333.3, inf], 0.7, None)
    assert lone == generic == 0.7 * (333.3 / 0.7)


def test_cap_tied_with_link_share():
    # cap / weight == capacity / weight bit for bit: the link wins the tie
    # in the generic fill, and the rate is the same float either way.
    for capacity in (1.0, 100.0, 123.456, 9.87654321e9):
        for weight in (0.3, 1.0, 7.77, 336.0):
            lone, generic = _lone_and_generic([capacity], weight, capacity)
            assert lone == generic == weight * (capacity / weight)


def test_non_integral_weights():
    for weight in (0.1, 1.0 / 3.0, 2.718281828, 511.5):
        lone, generic = _lone_and_generic([1000.0, 700.0], weight, None)
        assert lone == generic == weight * (700.0 / weight)


def test_repeated_link_falls_back_to_the_generic_fill():
    rates = {}
    for network in (FlowNetwork, GlobalFlowNetwork):
        net = network(Simulator())
        twice = FluidLink(100.0, "twice")
        other = FluidLink(1000.0, "other")
        flow = net.start_flow(1e6, [twice, other, twice], weight=1.5)
        rates[network] = flow.rate
        assert net._fill_lone(flow) is False
    # Counted once per crossing: the flow gets half of the link.
    assert rates[FlowNetwork] == rates[GlobalFlowNetwork] \
        == 1.5 * (100.0 / 3.0)


def test_refill_prices_a_lone_flow_without_the_generic_loop(monkeypatch):
    calls = []
    fill_loop = FlowNetwork._fill_loop

    def counted(self, *args):
        calls.append(type(self))
        return fill_loop(self, *args)

    monkeypatch.setattr(FlowNetwork, "_fill_loop", counted)
    finish = {}
    for network in (FlowNetwork, GlobalFlowNetwork):
        sim = Simulator()
        net = network(sim)
        link = FluidLink(100.0, "l")
        flow = net.start_flow(250.0, [link], weight=0.6, cap=41.0)
        sim.run()
        finish[network] = flow.finish_time
    # The oracle keeps the generic fill; the production network never
    # enters it for a component of one flow.
    assert calls == [GlobalFlowNetwork]
    assert finish[FlowNetwork] == finish[GlobalFlowNetwork]

    calls.clear()
    net = FlowNetwork(Simulator())
    link = FluidLink(100.0, "l")
    net.start_flow(250.0, [link])
    net.start_flow(250.0, [link])
    assert calls == [FlowNetwork]  # two flows: the generic fill prices them
