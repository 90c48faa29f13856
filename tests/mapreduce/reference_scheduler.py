"""Reference allocator: the rescanning matcher, kept verbatim.

This is the frozen mirror ``repro.mapreduce.scheduler.ResourceManager``
is property-tested against (``tests/mapreduce/test_scheduler_reference.py``).
For every grant it rebuilds each profile's fitting-node list over all
nodes, filters the whole queue into locality tiers and takes a ``min``
over the chosen tier — O(profiles x nodes + queue) per grant.  The
allocator in ``src`` keeps its fitting sets up to date on allocate and
release and indexes queued requests per application instead; both must
grant the same container ids on the same nodes at the same locality, in
the same order, under every sanitizer seed.  Never edit this file to
make a change to the allocator pass.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

from repro.cluster.cluster import Cluster
from repro.mapreduce.scheduler import (
    NODE_LOCAL,
    OFF_RACK,
    RACK_LOCAL,
    Container,
    ContainerRequest,
    Resource,
)


class ResourceManager:
    """Allocates containers on a simulated cluster."""

    #: Default fraction of a node's RAM usable for containers (YARN's
    #: ``yarn.nodemanager.resource.memory-mb`` convention: leave head-room
    #: for the OS and the DataNode/NodeManager daemons).
    MEMORY_FRACTION = 0.75

    def __init__(
        self, cluster: Cluster, capacities: Mapping[int, Resource] | None = None
    ) -> None:
        self.cluster = cluster
        if capacities is None:
            capacities = {
                node.node_id: Resource(
                    memory_mb=int(
                        node.spec.ram_bytes / 2**20 * self.MEMORY_FRACTION
                    ),
                    vcores=node.spec.cores,
                )
                for node in cluster.nodes
            }
        self._capacity = dict(capacities)
        self._available = dict(capacities)
        self._rack = {n.node_id: n.rack_id for n in cluster.nodes}
        self._queue: list[ContainerRequest] = []
        # Distinct request profiles seen -> first-seen position, which
        # each queued request carries.
        self._profiles: dict[Resource, int] = {}
        self._ids = itertools.count()
        self.containers_granted = 0
        # Containers held per application, for least-granted
        # interleaving of concurrent apps.
        self._outstanding: dict[int, int] = {}
        # Serialization point: one pending serve event per timestamp;
        # _serving suppresses reentrant flushes from grant callbacks.
        self._serve_pending = False
        self._serving = False

    # -- queries ----------------------------------------------------------

    def capacity(self, node_id: int) -> Resource:
        """Total container capacity of ``node_id``."""
        return self._capacity[node_id]

    def available(self, node_id: int) -> Resource:
        """Currently unallocated resources on ``node_id``."""
        return self._available[node_id]

    def outstanding(self, app_id: int) -> int:
        """Containers currently held by ``app_id``."""
        return self._outstanding.get(app_id, 0)

    # -- allocation ---------------------------------------------------------

    def request(
        self,
        resource: Resource,
        callback: Callable[[Container], None],
        preferred: Sequence[int] = (),
        app_id: int = 0,
    ) -> None:
        """Ask for one container; ``callback(container)`` on grant.

        Inside a simulation event the grant is deferred to the
        timestamp's serialization point; from root context (no event
        executing) a fitting node is granted synchronously.  A
        ``preferred`` id the cluster lacks is refused before anything
        is queued.
        """
        try:
            preferred_racks = frozenset(self._rack[n] for n in preferred)
        except KeyError as exc:
            raise ValueError(
                f"preferred node {exc.args[0]!r} is not one of the "
                f"cluster's {len(self._rack)} nodes"
            ) from None
        profile = self._profiles.get(resource)
        if profile is None:
            # Capacities are fixed, so a profile checked once fits for good.
            if not any(resource.fits_in(cap) for cap in self._capacity.values()):
                raise ValueError(
                    f"request {resource} exceeds every node's capacity"
                )
            profile = self._profiles[resource] = len(self._profiles)
        self._queue.append(
            ContainerRequest(
                resource=resource,
                preferred=tuple(preferred),
                preferred_racks=preferred_racks,
                callback=callback,
                app_id=app_id,
                profile=profile,
            )
        )
        self._flush()

    def try_allocate_on(
        self, node_id: int, resource: Resource, app_id: int = 0
    ) -> Container | None:
        """Non-queuing allocation pinned to one node (reduce placement)."""
        if not resource.fits_in(self._available[node_id]):
            return None
        return self._allocate(node_id, resource, app_id, NODE_LOCAL)

    def release(self, container: Container) -> None:
        """Return a container's resources; queued requests are served
        at the timestamp's serialization point."""
        new_avail = self._available[container.node_id] + container.resource
        if not new_avail.fits_in(self._capacity[container.node_id]):
            raise RuntimeError(
                f"container over-release on node {container.node_id}"
            )
        self._available[container.node_id] = new_avail
        self._outstanding[container.app_id] -= 1
        self._flush()

    # -- internals -----------------------------------------------------------

    def _flush(self) -> None:
        """Serve now (root context) or at the serialization point."""
        if self._serving:
            return  # the active serve pass loops until quiescent
        sim = self.cluster.sim
        if sim.in_callback:
            if not self._serve_pending:
                self._serve_pending = True
                sim.schedule_serialized(self._serve_point)
        else:
            self._serve()

    def _serve_point(self) -> None:
        self._serve_pending = False
        self._serve()

    def _serve(self) -> None:
        """Canonical greedy matching over the complete queue/capacity state.

        Repeatedly pick the best (request, node) pair and grant it.
        The loop re-examines state after every grant, so requests
        enqueued by grant callbacks at the same instant are matched in
        the same pass.
        """
        self._serving = True
        try:
            while self._queue:
                grant = self._next_grant()
                if grant is None:
                    break
                req, fitting = grant
                node_id, locality = self._pick_node(req, fitting)
                self._queue.remove(req)
                req.callback(
                    self._allocate(node_id, req.resource, req.app_id, locality)
                )
        finally:
            self._serving = False

    def _next_grant(self) -> tuple[ContainerRequest, list[int]] | None:
        """The queued request to serve next with the nodes it fits on
        now, or None when nothing fits.

        The fitting nodes are computed once per distinct profile, so a
        pass costs O(profiles × nodes + queue), not O(queue × nodes).
        """
        fitting: list[list[int]] = []
        for need in self._profiles:
            mb, vc = need.memory_mb, need.vcores
            fitting.append([
                n for n, avail in self._available.items()
                if mb <= avail.memory_mb and vc <= avail.vcores
            ])
        if not any(fitting):
            return None
        nodes = [frozenset(fit) for fit in fitting]
        live = [r for r in self._queue if nodes[r.profile]]
        pool = [r for r in live if not nodes[r.profile].isdisjoint(r.preferred)]
        if not pool:
            racks = [frozenset(map(self._rack.__getitem__, fit)) for fit in fitting]
            pool = [
                r for r in live if not racks[r.profile].isdisjoint(r.preferred_racks)
            ] or live
        if not pool:
            return None
        # min() keeps the first of equals: FIFO among equally-granted apps.
        best = min(pool, key=lambda r: self._outstanding.get(r.app_id, 0))
        return best, fitting[best.profile]

    def _pick_node(
        self, req: ContainerRequest, fitting: list[int]
    ) -> tuple[int, int]:
        """Roomiest fitting node in the best tier: local > rack > any."""
        local = [n for n in req.preferred if n in fitting]
        if local:
            return self._roomiest(local), NODE_LOCAL
        rack_local = [n for n in fitting if self._rack[n] in req.preferred_racks]
        if rack_local:
            return self._roomiest(rack_local), RACK_LOCAL
        return self._roomiest(fitting), OFF_RACK

    def _roomiest(self, nodes: list[int]) -> int:
        """Most available memory first; node id breaks ties."""
        return min(nodes, key=lambda n: (-self._available[n].memory_mb, n))

    def _allocate(
        self, node_id: int, resource: Resource, app_id: int, locality: int
    ) -> Container:
        self._available[node_id] = self._available[node_id] - resource
        self.containers_granted += 1
        self._outstanding[app_id] = self._outstanding.get(app_id, 0) + 1
        return Container(next(self._ids), node_id, resource, app_id, locality)
