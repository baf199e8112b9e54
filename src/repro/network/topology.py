"""Cluster interconnect topologies.

A :class:`Fabric` is a graph of endpoints and switches whose edges are
:class:`~repro.simcore.fairshare.FluidLink` resources.  Both the paper's
platforms reduce to simple fabrics:

* Grid'5000 *parapluie/parapide*: "all nodes ... connected through a common
  InfiniBand switch" — a star; and
* Surveyor (BG/P): a tree of link boards feeding 4 I/O-attached PVFS servers.

Construction helpers build stars and two-level trees; arbitrary graphs can
be assembled edge by edge.  Endpoint-to-endpoint transfers pick shortest
paths (breadth-first, so unique on stars and trees) and move as fluid flows
across every link on the path, so a congested switch or uplink shows up
exactly where it should.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Tuple

from ..simcore import FluidLink, FlowNetwork, SimulationError, Simulator

__all__ = ["Fabric", "FabricGraph"]


class FabricGraph:
    """The undirected node/edge structure of a :class:`Fabric`.

    ``adj`` maps each node to its neighbours.  Nodes and neighbours keep
    insertion order, so a breadth-first search over it is deterministic.
    """

    def __init__(self) -> None:
        #: node -> {neighbour: None}.
        self.adj: Dict[Hashable, Dict[Hashable, None]] = {}
        self._nedges = 0

    def __contains__(self, node: Hashable) -> bool:
        return node in self.adj

    def add_node(self, node: Hashable) -> None:
        self.adj.setdefault(node, {})

    def add_edge(self, a: Hashable, b: Hashable) -> None:
        if b not in self.adj[a]:
            self._nedges += 1
        self.adj[a][b] = None
        self.adj[b][a] = None

    def number_of_nodes(self) -> int:
        return len(self.adj)

    def number_of_edges(self) -> int:
        return self._nedges

    def shortest_path(self, src: Hashable, dst: Hashable) -> List[Hashable]:
        """Node path from ``src`` to ``dst`` with the fewest hops.

        Breadth-first, stopping at the first node adjacent to ``dst``, so
        a star route expands only ``src`` and its switch.  Raises
        :class:`SimulationError` for an unknown or unreachable node.
        """
        adj = self.adj
        if src not in adj or dst not in adj:
            raise SimulationError(f"no path {src!r} -> {dst!r}")
        parent = {src: src}
        frontier = [src]
        while dst not in parent:
            if not frontier:
                raise SimulationError(f"no path {src!r} -> {dst!r}")
            level = []
            for node in frontier:
                nbrs = adj[node]
                if dst in nbrs:
                    parent[dst] = node
                    break
                for nb in nbrs:
                    if nb not in parent:
                        parent[nb] = node
                        level.append(nb)
            frontier = level
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path


class Fabric:
    """An interconnect: endpoints, switches, and fluid links between them.

    Each edge holds two directed links (one per direction) so full-duplex
    hardware is modelled faithfully: an application writing to storage does
    not steal bandwidth from one reading.

    Parameters
    ----------
    sim, net:
        The simulator and its flow network.
    latency:
        One-way propagation + software latency per message, seconds.  Fluid
        transfers are preceded by one latency; small control messages (the
        CALCioM coordination traffic) cost latency plus size over the
        narrowest link on the path.
    """

    def __init__(self, sim: Simulator, net: FlowNetwork, latency: float = 20e-6):
        self.sim = sim
        self.net = net
        self.latency = float(latency)
        self.graph = FabricGraph()
        self._links: Dict[Tuple[Hashable, Hashable], FluidLink] = {}
        self._path_cache: Dict[Tuple[Hashable, Hashable], List[FluidLink]] = {}

    # -- construction --------------------------------------------------------
    def add_endpoint(self, name: Hashable) -> Hashable:
        """Add a leaf endpoint (compute node group, storage server...)."""
        self.graph.add_node(name)
        return name

    def add_switch(self, name: Hashable) -> Hashable:
        """Add an internal routing node."""
        self.graph.add_node(name)
        return name

    def add_edge(self, a: Hashable, b: Hashable, bandwidth: float) -> None:
        """Connect two nodes with a full-duplex link of ``bandwidth`` B/s each way."""
        if a not in self.graph or b not in self.graph:
            raise SimulationError(f"both {a!r} and {b!r} must be added before linking")
        self.graph.add_edge(a, b)
        self._links[(a, b)] = FluidLink(bandwidth, name=f"{a}->{b}")
        self._links[(b, a)] = FluidLink(bandwidth, name=f"{b}->{a}")
        self._path_cache.clear()

    @classmethod
    def star(cls, sim: Simulator, net: FlowNetwork, endpoints: Dict[Hashable, float],
             switch_bandwidth: float = math.inf, latency: float = 20e-6) -> "Fabric":
        """Single-switch fabric: every endpoint hangs off one crossbar.

        ``endpoints`` maps endpoint name to its access-link bandwidth.  An
        ideal (non-blocking) crossbar uses ``switch_bandwidth=inf``; a finite
        value models an oversubscribed core.
        """
        fab = cls(sim, net, latency=latency)
        fab.add_switch("switch")
        for name, bw in endpoints.items():
            fab.add_endpoint(name)
            fab.add_edge(name, "switch", bw)
        fab.switch_limit = switch_bandwidth
        return fab

    @classmethod
    def tree(cls, sim: Simulator, net: FlowNetwork,
             groups: Dict[Hashable, Dict[Hashable, float]],
             uplink_bandwidth: float, latency: float = 20e-6) -> "Fabric":
        """Two-level tree: leaf switches with finite uplinks to one core.

        ``groups`` maps a leaf-switch name to its endpoints (name -> access
        bandwidth); every leaf connects to the core switch with
        ``uplink_bandwidth``.  The BG/P-flavoured topology: traffic staying
        inside a group never crosses the (oversubscribable) uplink, while
        cross-group traffic — e.g. compute racks talking to I/O-attached
        storage — contends on it.
        """
        fab = cls(sim, net, latency=latency)
        fab.add_switch("core")
        for leaf, endpoints in groups.items():
            fab.add_switch(leaf)
            fab.add_edge(leaf, "core", uplink_bandwidth)
            for name, bw in endpoints.items():
                fab.add_endpoint(name)
                fab.add_edge(name, leaf, bw)
        return fab

    # -- routing --------------------------------------------------------------
    def path_links(self, src: Hashable, dst: Hashable) -> List[FluidLink]:
        """Directed links along the shortest path from ``src`` to ``dst``."""
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        nodes = self.graph.shortest_path(src, dst)
        links = [self._links[(a, b)] for a, b in zip(nodes, nodes[1:])]
        self._path_cache[key] = links
        return links

    def link(self, a: Hashable, b: Hashable) -> FluidLink:
        """The directed link for edge ``a -> b``."""
        return self._links[(a, b)]

    # -- data movement -----------------------------------------------------------
    def transfer(self, src: Hashable, dst: Hashable, nbytes: float,
                 weight: float = 1.0, cap: Optional[float] = None,
                 extra_links: Optional[List[FluidLink]] = None,
                 label: str = "transfer"):
        """Move ``nbytes`` from ``src`` to ``dst``; returns the completion event.

        ``extra_links`` appends resources beyond the fabric (e.g. a storage
        server's cache-modulated ingest pipe) to the flow's path.  The flow
        starts after one propagation latency.

        The returned event is the flow's own completion event: it is made
        here, handed to the flow when it launches, and succeeds with the
        :class:`~repro.simcore.FluidFlow` when the last byte lands (with
        ``None`` if the flow is cancelled).  A transfer therefore dispatches
        one completion event, plus one launch timer when the latency is
        positive.
        """
        links = list(self.path_links(src, dst))
        if extra_links:
            links.extend(extra_links)
        done = self.sim.event()

        def _launch() -> None:
            self.net.start_flow(nbytes, links, weight=weight, cap=cap,
                                label=label, done=done)

        if self.latency > 0:
            # The Timer handle is dropped deliberately: a launched transfer
            # is never revoked (cancel_flow is the post-launch abort path).
            self.sim.call_at(self.sim.now + self.latency, _launch)
        else:
            _launch()
        return done

    def message_delay(self, src: Hashable, dst: Hashable, nbytes: float = 0.0) -> float:
        """Latency-dominated cost of a small control message.

        Control traffic (CALCioM's Inform/Release exchanges are tens of
        bytes) is far below the fluid regime; model it as latency plus
        serialization on the narrowest path link.
        """
        links = self.path_links(src, dst)
        bw = min((link.capacity for link in links), default=math.inf)
        ser = nbytes / bw if math.isfinite(bw) and bw > 0 else 0.0
        return self.latency + ser

    def send_message(self, src: Hashable, dst: Hashable, nbytes: float = 0.0):
        """Timeout event covering one control message's delivery."""
        return self.sim.timeout(self.message_delay(src, dst, nbytes))
