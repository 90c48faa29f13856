"""The :class:`Cluster` facade tying the simulator pieces together."""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.cluster.events import Event, Simulation
from repro.cluster.flows import Flow, FlowNetwork, FlowRequest
from repro.cluster.metrics import TrafficMeter
from repro.cluster.topology import Node, NodeSpec, Topology


class Cluster:
    """A simulated cluster: clock + topology + network + traffic ledger.

    Layers above (DFS, MapReduce, PIC) hold a reference to one
    ``Cluster`` and use it for all timing and data movement.  The object
    is cheap; experiments create a fresh one per run so the meter starts
    from zero.
    """

    def __init__(
        self,
        num_nodes: int,
        nodes_per_rack: int | None = None,
        node_spec: NodeSpec | None = None,
        edge_bandwidth: float = 125e6,
        rack_uplink_bandwidth: float | None = None,
        oversubscription: float = 1.0,
        name: str = "cluster",
        node_specs: list[NodeSpec] | None = None,
    ) -> None:
        if nodes_per_rack is None:
            nodes_per_rack = num_nodes
        if node_spec is None:
            node_spec = NodeSpec()
        self.name = name
        self.sim = Simulation()
        self.topology = Topology(
            num_nodes=num_nodes,
            nodes_per_rack=nodes_per_rack,
            node_spec=node_spec,
            edge_bandwidth=edge_bandwidth,
            rack_uplink_bandwidth=rack_uplink_bandwidth,
            oversubscription=oversubscription,
            node_specs=node_specs,
        )
        self.meter = TrafficMeter()
        self.network = FlowNetwork(self.sim, self.topology, self.meter)

    # -- convenience passthroughs --------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now

    @property
    def nodes(self) -> list[Node]:
        """The topology's nodes, in id order."""
        return self.topology.nodes

    @property
    def num_nodes(self) -> int:
        """Number of worker nodes."""
        return self.topology.num_nodes

    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: float,
        category: str,
        on_complete: Callable[[Flow], None] | None = None,
    ) -> Flow:
        """Start a flow; completion is delivered on the simulated clock."""
        return self.network.start_flow(src, dst, nbytes, category, on_complete)

    def move(
        self,
        src: int,
        dst: int,
        nbytes: float,
        category: str,
        on_complete: Callable[..., Any],
    ) -> Event | None:
        """Charge moving ``nbytes`` of stored data from ``src`` to ``dst``.

        On one node it is disk time at ``dst``'s bandwidth and counts
        toward ``category`` but not the fabric; the timer's
        :class:`Event` is returned so the caller can cancel it.  Between
        two nodes it is a :meth:`transfer` and returns None.
        """
        if src == dst:
            disk = self.topology.nodes[dst].spec.disk_bandwidth
            event = self.sim.schedule(nbytes / disk, on_complete)
            self.meter.record(category, nbytes, crosses_core=False, on_fabric=False)
            return event
        self.transfer(src, dst, nbytes, category, on_complete)
        return None

    def transfer_batch(self, requests: Iterable[FlowRequest]) -> list[Flow]:
        """Start many flows in one call (a shuffle wave, a scatter).

        Each request is ``(src, dst, nbytes, category)`` optionally
        followed by an ``on_complete`` callback; semantics are identical
        to calling :meth:`transfer` per request.
        """
        return self.network.start_flows(requests)

    def run(self, max_events: int | None = 10_000_000) -> None:
        """Drain the event queue (i.e. let all in-flight work finish)."""
        self.sim.run(max_events=max_events)

    def compute_time(self, node_id: int, seconds_at_reference_speed: float) -> float:
        """Scale a reference-CPU compute cost to ``node_id``'s core speed."""
        node = self.topology.nodes[node_id]
        return seconds_at_reference_speed / node.spec.cpu_speed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cluster({self.name!r}, {self.topology!r})"
