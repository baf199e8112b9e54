"""Unit tests for the interconnect fabric."""


import pytest

from repro.network import Fabric
from repro.simcore import FlowNetwork, SimulationError, Simulator


def star_fabric(latency=0.0):
    sim = Simulator()
    net = FlowNetwork(sim)
    fab = Fabric.star(sim, net, {"a": 100.0, "b": 50.0, "srv": 200.0},
                      latency=latency)
    return sim, net, fab


def test_star_has_paths_between_endpoints():
    sim, net, fab = star_fabric()
    links = fab.path_links("a", "srv")
    assert len(links) == 2
    assert links[0].name == "a->switch"
    assert links[1].name == "switch->srv"


def test_transfer_time_limited_by_narrowest_link():
    sim, net, fab = star_fabric()
    done = fab.transfer("b", "srv", 500.0)  # b uplink = 50 B/s
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_transfer_latency_added_once():
    sim, net, fab = star_fabric(latency=0.5)
    done = fab.transfer("a", "srv", 100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(0.5 + 1.0)


def test_full_duplex_directions_independent():
    """a->srv and srv->a use different directed links, so no contention."""
    sim, net, fab = star_fabric()
    d1 = fab.transfer("a", "srv", 100.0)   # 100 B/s -> 1 s
    d2 = fab.transfer("srv", "a", 100.0)   # also 100 B/s (a downlink)
    sim.run()
    assert d1.value.finish_time == pytest.approx(1.0)
    assert d2.value.finish_time == pytest.approx(1.0)


def test_zero_byte_transfer_completes():
    for latency in (0.0, 0.5):
        sim, net, fab = star_fabric(latency=latency)
        done = fab.transfer("a", "srv", 0.0)
        sim.run()
        assert done.processed and done.ok
        flow = done.value
        assert flow.size == 0.0
        assert flow.finish_time == latency
        assert sim.now == latency


def test_transfer_event_is_the_flows_completion_event():
    sim, net, fab = star_fabric(latency=0.5)
    done = fab.transfer("a", "srv", 100.0)
    sim.run(until=0.75)
    (flow,) = net.active_flows
    assert flow.done is done


def test_cancelled_transfer_succeeds_with_none():
    sim, net, fab = star_fabric(latency=0.5)
    done = fab.transfer("a", "srv", 100.0)  # 100 B/s -> would end at 1.5
    sim.run(until=1.0)
    (flow,) = net.active_flows
    net.cancel_flow(flow)
    assert sim.run(until=done) is None
    assert done.ok
    assert sim.now == 1.0


def test_shared_uplink_contention():
    sim, net, fab = star_fabric()
    d1 = fab.transfer("a", "srv", 100.0)
    d2 = fab.transfer("a", "srv", 100.0)
    sim.run()
    # Both share a's 100 B/s uplink: each finishes at t=2.
    assert d1.value.finish_time == pytest.approx(2.0)
    assert d2.value.finish_time == pytest.approx(2.0)


def test_no_path_raises():
    sim = Simulator()
    net = FlowNetwork(sim)
    fab = Fabric(sim, net)
    fab.add_endpoint("lonely")
    fab.add_endpoint("island")
    with pytest.raises(SimulationError):
        fab.path_links("lonely", "island")


def route(fab, src, dst):
    return [link.name for link in fab.path_links(src, dst)]


def two_rack_tree():
    sim = Simulator()
    return Fabric.tree(sim, FlowNetwork(sim), groups={
        "rack0": {"n0": 100.0, "n1": 100.0},
        "io": {"srv": 200.0},
    }, uplink_bandwidth=50.0)


def test_exact_routes_on_star_and_tree():
    _sim, _net, star = star_fabric()
    assert route(star, "b", "a") == ["b->switch", "switch->a"]
    assert route(star, "srv", "b") == ["srv->switch", "switch->b"]
    assert route(star, "a", "switch") == ["a->switch"]
    assert route(star, "a", "a") == []
    tree = two_rack_tree()
    assert route(tree, "n0", "n1") == ["n0->rack0", "rack0->n1"]
    assert route(tree, "n1", "srv") == [
        "n1->rack0", "rack0->core", "core->io", "io->srv"]
    assert route(tree, "srv", "n0") == [
        "srv->io", "io->core", "core->rack0", "rack0->n0"]


def test_route_takes_fewest_hops_on_edge_built_fabric():
    sim = Simulator()
    fab = Fabric(sim, FlowNetwork(sim))
    for name in ("s", "t"):
        fab.add_endpoint(name)
    for name in ("x", "y", "z"):
        fab.add_switch(name)
    # s-x-y-t (three hops) is added before the two-hop detour s-z-t.
    for a, b in [("s", "x"), ("x", "y"), ("y", "t"), ("s", "z"), ("z", "t")]:
        fab.add_edge(a, b, 10.0)
    assert route(fab, "s", "t") == ["s->z", "z->t"]
    assert route(fab, "t", "x") == ["t->y", "y->x"]


def test_unknown_and_disconnected_nodes_raise():
    sim = Simulator()
    fab = Fabric(sim, FlowNetwork(sim))
    for name in ("a", "b", "c", "d"):
        fab.add_endpoint(name)
    fab.add_edge("a", "b", 10.0)
    fab.add_edge("c", "d", 10.0)
    for src, dst in [("a", "ghost"), ("ghost", "a"), ("a", "d"), ("d", "b")]:
        with pytest.raises(SimulationError):
            fab.path_links(src, dst)


def test_add_edge_invalidates_cached_routes():
    _sim, _net, fab = star_fabric()
    assert route(fab, "a", "b") == ["a->switch", "switch->b"]
    fab.add_edge("a", "b", 10.0)
    assert route(fab, "a", "b") == ["a->b"]
    assert fab.path_links("a", "b") == [fab.link("a", "b")]


def test_graph_counts_match_built_fabric():
    _sim, _net, star = star_fabric()
    assert (star.graph.number_of_nodes(), star.graph.number_of_edges()) == (4, 3)
    tree = two_rack_tree()
    # core + 2 leaves + 3 endpoints; 2 uplinks + 3 access links.
    assert (tree.graph.number_of_nodes(), tree.graph.number_of_edges()) == (6, 5)
    tree.add_edge("n0", "rack0", 1.0)  # re-linking replaces, not adds
    tree.add_endpoint("n2")
    assert (tree.graph.number_of_nodes(), tree.graph.number_of_edges()) == (7, 5)


def test_edge_requires_known_nodes():
    sim = Simulator()
    fab = Fabric(sim, FlowNetwork(sim))
    fab.add_endpoint("a")
    with pytest.raises(SimulationError):
        fab.add_edge("a", "ghost", 10.0)


def test_message_delay_includes_serialization():
    sim, net, fab = star_fabric(latency=1e-3)
    # narrowest link on b->srv is 50 B/s; 100 B serializes in 2 s.
    assert fab.message_delay("b", "srv", 100.0) == pytest.approx(1e-3 + 2.0)


def test_message_delay_zero_bytes_is_latency():
    sim, net, fab = star_fabric(latency=2e-3)
    assert fab.message_delay("a", "b") == pytest.approx(2e-3)


def test_send_message_event():
    sim, net, fab = star_fabric(latency=0.25)
    ev = fab.send_message("a", "b")
    sim.run(until=ev)
    assert sim.now == pytest.approx(0.25)


def test_extra_links_constrain_transfer():
    from repro.simcore import FluidLink
    sim, net, fab = star_fabric()
    slow = FluidLink(10.0, "disk")
    done = fab.transfer("a", "srv", 100.0, extra_links=[slow])
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_tree_intra_group_avoids_uplink():
    sim = Simulator()
    net = FlowNetwork(sim)
    fab = Fabric.tree(sim, net, groups={
        "rack0": {"n0": 100.0, "n1": 100.0},
        "io": {"srv": 200.0},
    }, uplink_bandwidth=50.0, latency=0.0)
    # Intra-rack transfer: n0 -> rack0 -> n1, never touching the uplink.
    done = fab.transfer("n0", "n1", 100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(1.0)  # 100 B at 100 B/s


def test_tree_cross_group_bound_by_uplink():
    sim = Simulator()
    net = FlowNetwork(sim)
    fab = Fabric.tree(sim, net, groups={
        "rack0": {"n0": 100.0},
        "io": {"srv": 200.0},
    }, uplink_bandwidth=50.0, latency=0.0)
    done = fab.transfer("n0", "srv", 100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(2.0)  # uplink 50 B/s binds


def test_tree_uplink_shared_by_rack_peers():
    sim = Simulator()
    net = FlowNetwork(sim)
    fab = Fabric.tree(sim, net, groups={
        "rack0": {"n0": 100.0, "n1": 100.0},
        "io": {"srv": 1000.0},
    }, uplink_bandwidth=50.0, latency=0.0)
    d1 = fab.transfer("n0", "srv", 100.0)
    d2 = fab.transfer("n1", "srv", 100.0)
    sim.run()
    # Both share the 50 B/s rack uplink -> 25 B/s each -> 4 s.
    assert d1.value.finish_time == pytest.approx(4.0)
    assert d2.value.finish_time == pytest.approx(4.0)


def test_link_monitor_records_rates_and_bytes():
    from repro.network import LinkMonitor
    sim, net, fab = star_fabric()
    link = fab.link("a", "switch")
    mon = LinkMonitor(sim, net, [link])
    done = fab.transfer("a", "srv", 200.0)  # 100 B/s for 2 s
    sim.run(until=done)
    sim.run()
    assert mon.peak_rate(link) == pytest.approx(100.0)
    assert mon.bytes_through(link, 0.0, 2.0) == pytest.approx(200.0)
    assert mon.utilization(link, 0.0, 2.0) == pytest.approx(1.0)
    assert mon.utilization(link, 0.0, 4.0) == pytest.approx(0.5)


def test_link_monitor_watch_later():
    from repro.network import LinkMonitor
    sim, net, fab = star_fabric()
    mon = LinkMonitor(sim, net)
    link = fab.link("b", "switch")
    ts = mon.watch(link)
    done = fab.transfer("b", "srv", 100.0)  # 50 B/s for 2 s
    sim.run(until=done)
    assert mon.bytes_through(link, 0.0, 2.0) == pytest.approx(100.0)
    assert ts is mon.series[link]
