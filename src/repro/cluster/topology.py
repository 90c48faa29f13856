"""Cluster topology: nodes with task slots, racks, and a two-tier network.

The network is the standard data-centre abstraction the paper's traffic
argument rests on: every node has a full-duplex edge link to its rack
switch, and every rack switch has a full-duplex uplink into a core
switch.  Cross-rack ("bisection") bandwidth is the scarce resource; the
rack uplink capacity relative to the sum of edge links expresses
oversubscription.

Links are directional.  A transfer from node *a* to node *b* traverses:

* nothing, when ``a == b`` (intra-node data never touches the fabric);
* ``a.up → b.down`` when the nodes share a rack;
* ``a.up → rack(a).core_up → rack(b).core_down → b.down`` otherwise.

The core links are tagged ``is_core`` so the metrics layer can report
bisection traffic exactly the way Figure 2 / Table II do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


GIGABIT = 125e6  # 1 Gb/s in bytes per second

# The two-tier fabric bounds every path at up → core_up → core_down → down.
MAX_PATH_LINKS = 4


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one worker node.

    ``cpu_speed`` is a relative per-core speed multiplier (1.0 = the
    paper's E5520 reference); task compute times are divided by it.
    """

    cores: int = 8
    map_slots: int = 4
    reduce_slots: int = 4
    cpu_speed: float = 1.0
    disk_bandwidth: float = 100e6  # bytes/s, sequential
    ram_bytes: int = 48 * 2**30

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"node must have at least one core, got {self.cores}")
        if self.map_slots < 0 or self.reduce_slots < 0:
            raise ValueError("slot counts must be non-negative")
        if self.cpu_speed <= 0:
            raise ValueError(f"cpu_speed must be positive, got {self.cpu_speed}")
        if self.disk_bandwidth <= 0:
            raise ValueError("disk_bandwidth must be positive")


@dataclass
class Node:
    """One worker node placed in a rack."""

    node_id: int
    rack_id: int
    spec: NodeSpec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.node_id}, rack={self.rack_id})"


@dataclass
class Link:
    """A directional capacitated link."""

    link_id: int
    name: str
    capacity: float  # bytes per second
    is_core: bool = False
    bytes_carried: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.name} capacity must be positive")


class Route:
    """Cached routing result for one ``(src, dst)`` pair.

    The flow simulator resolves a route per transfer and allocates rates
    per route; caching the link tuple, the padded link-id row (ready to
    drop into the simulator's class-path table), the bottleneck capacity,
    and the bisection flag means each is computed once per pair instead
    of once per flow.
    """

    __slots__ = ("links", "link_ids", "padded_ids", "crosses_core", "bottleneck")

    def __init__(self, links: tuple[Link, ...], crosses_core: bool, pad: int) -> None:
        self.links = links
        self.link_ids: tuple[int, ...] = tuple(link.link_id for link in links)
        # Padded to the fixed matrix width with ``pad`` (the one-past-end
        # link id): the simulator's per-link count/saturation arrays carry
        # one extra sentinel slot, so padded entries index it harmlessly
        # and no validity mask is ever needed.
        padded = np.full(MAX_PATH_LINKS, pad, dtype=np.int64)
        padded[: len(links)] = self.link_ids
        padded.setflags(write=False)
        self.padded_ids = padded
        self.crosses_core = crosses_core
        self.bottleneck = (
            min(link.capacity for link in links) if links else math.inf
        )


class Topology:
    """Nodes, racks and the two-tier link graph connecting them."""

    def __init__(
        self,
        num_nodes: int,
        nodes_per_rack: int,
        node_spec: NodeSpec,
        edge_bandwidth: float = GIGABIT,
        rack_uplink_bandwidth: float | None = None,
        oversubscription: float = 1.0,
        node_specs: list[NodeSpec] | None = None,
    ) -> None:
        """Build a topology.

        ``rack_uplink_bandwidth`` wins if given; otherwise the uplink is
        sized as ``nodes_per_rack * edge_bandwidth / oversubscription``.
        A single-rack topology still has core links (they model the
        switch backplane) sized at the full aggregate so they are never
        the bottleneck within one rack.

        ``node_specs`` (one per node) overrides the uniform
        ``node_spec`` — heterogeneous clusters model the slow/overloaded
        nodes that make speculative execution matter.
        """
        if num_nodes <= 0:
            raise ValueError(f"need at least one node, got {num_nodes}")
        if nodes_per_rack <= 0:
            raise ValueError("nodes_per_rack must be positive")
        if oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1 (got {oversubscription}); "
                "use rack_uplink_bandwidth to express over-provisioned uplinks"
            )
        if node_specs is not None and len(node_specs) != num_nodes:
            raise ValueError(
                f"node_specs has {len(node_specs)} entries for {num_nodes} nodes"
            )
        self.num_nodes = num_nodes
        self.nodes_per_rack = nodes_per_rack
        self.node_spec = node_spec
        self.edge_bandwidth = edge_bandwidth
        self.num_racks = (num_nodes + nodes_per_rack - 1) // nodes_per_rack
        if rack_uplink_bandwidth is None:
            rack_uplink_bandwidth = nodes_per_rack * edge_bandwidth / oversubscription
        self.rack_uplink_bandwidth = rack_uplink_bandwidth

        self._routes: dict[tuple[int, int], Route] = {}
        self.nodes: list[Node] = [
            Node(
                node_id=i,
                rack_id=i // nodes_per_rack,
                spec=node_specs[i] if node_specs is not None else node_spec,
            )
            for i in range(num_nodes)
        ]
        self.links: list[Link] = []
        self._node_up: list[Link] = []
        self._node_down: list[Link] = []
        self._rack_up: list[Link] = []
        self._rack_down: list[Link] = []
        for node in self.nodes:
            self._node_up.append(self._add_link(f"node{node.node_id}.up", edge_bandwidth))
            self._node_down.append(
                self._add_link(f"node{node.node_id}.down", edge_bandwidth)
            )
        for rack in range(self.num_racks):
            self._rack_up.append(
                self._add_link(
                    f"rack{rack}.core_up", rack_uplink_bandwidth, is_core=True
                )
            )
            self._rack_down.append(
                self._add_link(
                    f"rack{rack}.core_down", rack_uplink_bandwidth, is_core=True
                )
            )

    def _add_link(self, name: str, capacity: float, is_core: bool = False) -> Link:
        link = Link(link_id=len(self.links), name=name, capacity=capacity, is_core=is_core)
        self.links.append(link)
        return link

    def path(self, src: int, dst: int) -> list[Link]:
        """Return the directional links a ``src → dst`` transfer occupies."""
        return list(self.route(src, dst).links)

    def route(self, src: int, dst: int) -> Route:
        """The cached :class:`Route` for ``src → dst``.

        Validation and link-set construction run once per pair; repeat
        lookups (every flow of a shuffle fan-out) are one dict hit.
        """
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            links: tuple[Link, ...] = ()
            crosses = False
        else:
            src_rack = self.nodes[src].rack_id
            dst_rack = self.nodes[dst].rack_id
            crosses = src_rack != dst_rack
            if crosses:
                links = (
                    self._node_up[src],
                    self._rack_up[src_rack],
                    self._rack_down[dst_rack],
                    self._node_down[dst],
                )
            else:
                links = (self._node_up[src], self._node_down[dst])
        route = Route(links, crosses, pad=len(self.links))
        self._routes[key] = route
        return route

    def crosses_core(self, src: int, dst: int) -> bool:
        """True when a ``src → dst`` transfer contributes to bisection traffic."""
        self._check_node(src)
        self._check_node(dst)
        return self.nodes[src].rack_id != self.nodes[dst].rack_id

    def closest(self, candidates: tuple[int, ...], node_id: int) -> int:
        """HDFS's replica rule: ``node_id`` itself when it holds a copy,
        else the lowest id on its rack, else the lowest id."""
        if node_id in candidates:
            return node_id
        rack = self.nodes[node_id].rack_id
        same_rack = [c for c in candidates if self.nodes[c].rack_id == rack]
        return min(same_rack or candidates)

    def rack_members(self, rack_id: int) -> list[Node]:
        """Nodes located in ``rack_id``."""
        if not 0 <= rack_id < self.num_racks:
            raise ValueError(f"rack {rack_id} out of range (0..{self.num_racks - 1})")
        return [n for n in self.nodes if n.rack_id == rack_id]

    def total_map_slots(self) -> int:
        """Cluster-wide map-slot count."""
        return sum(n.spec.map_slots for n in self.nodes)

    def total_reduce_slots(self) -> int:
        """Cluster-wide reduce-slot count."""
        return sum(n.spec.reduce_slots for n in self.nodes)

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node {node_id} out of range (0..{self.num_nodes - 1})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(nodes={self.num_nodes}, racks={self.num_racks}, "
            f"edge={self.edge_bandwidth / 1e6:.0f} MB/s, "
            f"uplink={self.rack_uplink_bandwidth / 1e6:.0f} MB/s)"
        )
