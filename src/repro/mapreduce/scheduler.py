"""The cluster's one allocator, and the slot view the job engine speaks.

:class:`ResourceManager` grants *containers* against per-node capacity
vectors (memory, vcores).  Requests carry an optional preference list
(the nodes holding the task's input block) and an ``app_id``; the next
grant goes to the best locality tier that can be served — node-local,
then rack-local, then anywhere, the cascade Hadoop's JobTracker and
YARN's scheduler both use — within the tier to the application holding
the fewest containers, FIFO on ties, on the roomiest eligible node.  A
single application's schedule is therefore exactly FIFO-with-locality.

Two capacity models share that matcher.  YARN's: capacities derived
from each :class:`~repro.cluster.topology.NodeSpec`, arbitrary request
profiles.  Hadoop 0.20's: :class:`SlotScheduler` — a node with *k*
slots has capacity ``Resource(k, k)`` and every task asks for
``Resource(1, 1)``, so a slot is a unit container.

Matching runs at a **serialization point**: requests and releases made
from inside simulation events only mutate the queue and the
availability map, and one deferred :meth:`~repro.cluster.events.\
Simulation.schedule_serialized` pass per timestamp performs the
matching over the complete state.  Which of two same-instant events (a
release and a request, say) happens to run first therefore cannot
change any assignment — the invariant the ``PIC_SANITIZE`` schedule
sanitizer checks at run time.  Calls
from outside any event (driver/submission code, unit tests) are served
synchronously; root-context program order is part of the canonical
order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.cluster.cluster import Cluster


@dataclass(frozen=True)
class Resource:
    """An amount of cluster resources (YARN's memory + vcores)."""

    memory_mb: int
    vcores: int

    def __post_init__(self) -> None:
        if self.memory_mb < 0 or self.vcores < 0:
            raise ValueError(f"resources must be non-negative, got {self}")

    def fits_in(self, capacity: "Resource") -> bool:
        """True when this demand fits inside ``capacity``."""
        return (
            self.memory_mb <= capacity.memory_mb and self.vcores <= capacity.vcores
        )

    def __add__(self, other: "Resource") -> "Resource":
        return Resource(self.memory_mb + other.memory_mb, self.vcores + other.vcores)

    def __sub__(self, other: "Resource") -> "Resource":
        return Resource(self.memory_mb - other.memory_mb, self.vcores - other.vcores)


#: Grant locality tiers, best first (``Container.locality``).
NODE_LOCAL, RACK_LOCAL, OFF_RACK = range(3)


@dataclass(frozen=True)
class Container:
    """A granted allocation on one node."""

    container_id: int
    node_id: int
    resource: Resource
    app_id: int = 0
    locality: int = NODE_LOCAL


@dataclass(eq=False)
class ContainerRequest:
    """A pending container ask with its locality preferences."""

    resource: Resource
    preferred: tuple[int, ...]
    preferred_racks: frozenset[int]
    callback: Callable[[Container], None]
    app_id: int = 0
    #: Index of ``resource`` among the allocator's distinct profiles.
    profile: int = 0


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


class SlotScheduler:
    """One kind of task slot (map or reduce) as the job engine sees it:
    node ids in, node ids out, over equal-profile containers.

    ``SlotScheduler(cluster, kind)`` is Hadoop 0.20's fixed slots — its
    own allocator with unit capacities.  Given an ``allocator`` and a
    ``profile`` it is the same view over a shared YARN
    :class:`ResourceManager`.
    """

    def __init__(
        self,
        cluster: Cluster,
        kind: str,
        allocator: ResourceManager | None = None,
        profile: Resource = Resource(1, 1),
    ) -> None:
        if kind not in ("map", "reduce"):
            raise ValueError(f"slot kind must be 'map' or 'reduce', got {kind!r}")
        self.cluster = cluster
        self.kind = kind
        if allocator is None:
            slots = {n.node_id: getattr(n.spec, f"{kind}_slots") for n in cluster.nodes}
            allocator = ResourceManager(
                cluster, {n: Resource(k, k) for n, k in slots.items()}
            )
        self.allocator = allocator
        self.profile = profile
        self._held: dict[tuple[int, int], list[Container]] = {}
        # Statistics for locality reporting.
        self.assignments_local = 0
        self.assignments_rack = 0
        self.assignments_remote = 0

    def _slots_in(self, resource: Resource) -> int:
        return min(
            resource.memory_mb // max(self.profile.memory_mb, 1),
            resource.vcores // max(self.profile.vcores, 1),
        )

    @property
    def total_slots(self) -> int:
        """Cluster-wide slot count of this scheduler's kind."""
        return sum(
            self._slots_in(self.allocator.capacity(n.node_id))
            for n in self.cluster.nodes
        )

    def free_slots(self, node_id: int | None = None) -> int:
        """Free slots on ``node_id``, or cluster-wide when omitted."""
        if node_id is not None:
            return self._slots_in(self.allocator.available(node_id))
        return sum(self.free_slots(n.node_id) for n in self.cluster.nodes)

    def request(
        self,
        callback: Callable[[int], None],
        preferred: Sequence[int] = (),
        app_id: int = 0,
    ) -> None:
        """Ask for a slot; ``callback(node_id)`` fires when one is granted."""

        def on_container(container: Container) -> None:
            self._held.setdefault((container.node_id, app_id), []).append(container)
            if container.locality == NODE_LOCAL:
                self.assignments_local += 1
            elif container.locality == RACK_LOCAL:
                self.assignments_rack += 1
            else:
                self.assignments_remote += 1
            callback(container.node_id)

        self.allocator.request(self.profile, on_container, preferred, app_id)

    def release(self, node_id: int, app_id: int = 0) -> None:
        """Return one slot ``app_id`` holds on ``node_id``."""
        held = self._held.get((node_id, app_id))
        if not held:
            raise RuntimeError(
                f"slot over-release on node {node_id} ({self.kind} scheduler): "
                f"app {app_id} holds none there"
            )
        self.allocator.release(held.pop())
