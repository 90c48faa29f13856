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
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

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


def _units(memory_mb: int, vcores: int, need: Resource) -> int:
    """How many ``need``-sized containers ``(memory_mb, vcores)`` holds."""
    return min(
        memory_mb // max(need.memory_mb, 1), vcores // max(need.vcores, 1)
    )


@dataclass(frozen=True)
class Container:
    """A granted allocation on one node."""

    container_id: int
    node_id: int
    resource: Resource
    app_id: int = 0
    locality: int = NODE_LOCAL


@dataclass(eq=False, slots=True)
class ContainerRequest:
    """A pending container ask with its locality preferences."""

    resource: Resource
    preferred: tuple[int, ...]
    preferred_racks: frozenset[int]
    callback: Callable[[Container], None]
    app_id: int = 0
    #: Index of ``resource`` among the allocator's distinct profiles.
    profile: int = 0
    #: Arrival order across the allocator: FIFO among equals.
    seq: int = 0
    #: Cleared on grant; the queue indexes drop granted asks lazily.
    waiting: bool = True


class _Profile:
    """One distinct request shape and where it fits right now."""

    __slots__ = (
        "memory_mb", "vcores", "per_mb", "per_vc", "fitting", "racks", "units"
    )

    def __init__(self, need: Resource) -> None:
        self.memory_mb = need.memory_mb
        self.vcores = need.vcores
        #: ``_units``' divisors.
        self.per_mb = max(need.memory_mb, 1)
        self.per_vc = max(need.vcores, 1)
        #: Nodes with room for one ``need`` now (dicts: ordered iteration).
        self.fitting: dict[int, None] = {}
        #: The same nodes by rack; a rack with none is absent.
        self.racks: dict[int, dict[int, None]] = {}
        #: ``need``-sized containers the free capacity holds, cluster-wide.
        self.units = 0


class _AppQueue:
    """One application's waiting asks of one profile: FIFO, plus the
    same asks filed under each preferred node and its rack (twice when
    two preferred nodes share one).  Granted asks stay in these deques
    until they reach a head."""

    __slots__ = ("app_id", "profile", "fifo", "by_node", "by_rack", "waiting")

    def __init__(self, app_id: int, profile: int) -> None:
        self.app_id = app_id
        self.profile = profile
        self.fifo: deque[ContainerRequest] = deque()
        self.by_node: dict[int, deque[ContainerRequest]] = {}
        self.by_rack: dict[int, deque[ContainerRequest]] = {}
        self.waiting = 0

    def push(self, req: ContainerRequest, rack_of: Mapping[int, int]) -> None:
        self.fifo.append(req)
        by_node, by_rack = self.by_node, self.by_rack
        for node in req.preferred:
            by_node.setdefault(node, deque()).append(req)
            by_rack.setdefault(rack_of[node], deque()).append(req)
        self.waiting += 1


def _head(reqs: deque[ContainerRequest]) -> ContainerRequest | None:
    """The earliest waiting ask in ``reqs``, dropping granted ones."""
    while reqs:
        req = reqs[0]
        if req.waiting:
            return req
        reqs.popleft()
    return None


def _earliest(
    index: dict[int, deque[ContainerRequest]], where: Mapping[int, object]
) -> ContainerRequest | None:
    """The earliest waiting ask filed under a key ``where`` holds."""
    if len(index) > len(where):
        keys = [key for key in where if key in index]
    else:
        keys = [key for key in index if key in where]
    best = None
    for key in keys:
        req = _head(index[key])
        if req is None:
            del index[key]
        elif best is None or req.seq < best.seq:
            best = req
    return best


def _first_preferring(
    queue: _AppQueue, where: Mapping[int, object], racks: bool
) -> ContainerRequest | None:
    """The earliest ask of ``queue`` preferring a node (or, with
    ``racks``, a rack) that ``where`` holds.

    The FIFO is scanned from its head for as many asks as the index
    lookup would cost; past that the index answers.  Either way the
    cost is bounded by the cluster, not the queue.
    """
    index = queue.by_rack if racks else queue.by_node
    budget = min(len(where), len(index))
    keys = where.keys()
    _head(queue.fifo)
    for req in queue.fifo:
        if req.waiting and not keys.isdisjoint(
            req.preferred_racks if racks else req.preferred
        ):
            return req
        budget -= 1
        if budget <= 0:
            return _earliest(index, where)
    return None


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
        self._rack = {n.node_id: n.rack_id for n in cluster.nodes}
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
        for node_id in capacities:
            if node_id not in self._rack:
                raise ValueError(
                    f"capacities name node {node_id!r}, which is not one "
                    f"of the cluster's {len(self._rack)} nodes"
                )
        for node_id in self._rack:
            if node_id not in capacities:
                raise ValueError(f"capacities give none for node {node_id}")
        self._capacity = {n: capacities[n] for n in self._rack}
        # Free capacity as plain ints, one entry per node.
        self._free_mb = {n: cap.memory_mb for n, cap in self._capacity.items()}
        self._free_vc = {n: cap.vcores for n, cap in self._capacity.items()}
        # Distinct request profiles seen -> first-seen position, which
        # each queued request carries and which indexes _shapes.
        self._profiles: dict[Resource, int] = {}
        self._shapes: list[_Profile] = []
        # Waiting asks per (app, profile); a queue leaves when it empties.
        self._queues: dict[tuple[int, int], _AppQueue] = {}
        self._queued = 0
        self._ids = itertools.count()
        self._seqs = itertools.count()
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
        return Resource(self._free_mb[node_id], self._free_vc[node_id])

    def outstanding(self, app_id: int) -> int:
        """Containers currently held by ``app_id``."""
        return self._outstanding.get(app_id, 0)

    def free_units(self, resource: Resource) -> int:
        """How many ``resource``-sized containers the free capacity
        holds now, cluster-wide (per node, what both dimensions allow)."""
        profile = self._profiles.get(resource)
        if profile is not None:
            return self._shapes[profile].units
        return sum(
            _units(self._free_mb[n], self._free_vc[n], resource)
            for n in self._capacity
        )

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
        preferred = tuple(preferred)
        try:
            racks = frozenset(map(self._rack.__getitem__, preferred))
        except KeyError as exc:
            raise ValueError(
                f"preferred node {exc.args[0]!r} is not one of the "
                f"cluster's {len(self._rack)} nodes"
            ) from None
        profile = self._profiles.get(resource)
        if profile is None:
            profile = self._add_profile(resource)
        req = ContainerRequest(
            resource=resource,
            preferred=preferred,
            preferred_racks=racks,
            callback=callback,
            app_id=app_id,
            profile=profile,
            seq=next(self._seqs),
        )
        key = (app_id, profile)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = _AppQueue(app_id, profile)
        queue.push(req, self._rack)
        self._queued += 1
        self._flush()

    def try_allocate_on(
        self, node_id: int, resource: Resource, app_id: int = 0
    ) -> Container | None:
        """Non-queuing allocation pinned to one node (reduce placement)."""
        if (
            resource.memory_mb > self._free_mb[node_id]
            or resource.vcores > self._free_vc[node_id]
        ):
            return None
        return self._allocate(node_id, resource, app_id, NODE_LOCAL)

    def release(self, container: Container) -> None:
        """Return a container's resources; queued requests are served
        at the timestamp's serialization point."""
        node_id, resource = container.node_id, container.resource
        capacity = self._capacity[node_id]
        memory_mb = self._free_mb[node_id] + resource.memory_mb
        vcores = self._free_vc[node_id] + resource.vcores
        if memory_mb > capacity.memory_mb or vcores > capacity.vcores:
            raise RuntimeError(f"container over-release on node {node_id}")
        self._set_free(node_id, memory_mb, vcores)
        self._outstanding[container.app_id] -= 1
        self._flush()

    # -- internals -----------------------------------------------------------

    def _add_profile(self, resource: Resource) -> int:
        """Register a request shape, refusing one no node can ever hold."""
        # Capacities are fixed, so a profile checked once fits for good.
        if not any(resource.fits_in(cap) for cap in self._capacity.values()):
            raise ValueError(f"request {resource} exceeds every node's capacity")
        shape = _Profile(resource)
        for node_id in self._capacity:
            memory_mb, vcores = self._free_mb[node_id], self._free_vc[node_id]
            shape.units += _units(memory_mb, vcores, resource)
            if shape.memory_mb <= memory_mb and shape.vcores <= vcores:
                shape.fitting[node_id] = None
                shape.racks.setdefault(self._rack[node_id], {})[node_id] = None
        self._shapes.append(shape)
        profile = self._profiles[resource] = len(self._profiles)
        return profile

    def _set_free(self, node_id: int, memory_mb: int, vcores: int) -> None:
        """Set ``node_id``'s free capacity and every profile's view of it."""
        old_mb, old_vc = self._free_mb[node_id], self._free_vc[node_id]
        self._free_mb[node_id] = memory_mb
        self._free_vc[node_id] = vcores
        rack = self._rack[node_id]
        for shape in self._shapes:
            per_mb, per_vc = shape.per_mb, shape.per_vc
            shape.units += min(memory_mb // per_mb, vcores // per_vc) - min(
                old_mb // per_mb, old_vc // per_vc
            )
            fitting = shape.fitting
            if shape.memory_mb <= memory_mb and shape.vcores <= vcores:
                if node_id not in fitting:
                    fitting[node_id] = None
                    shape.racks.setdefault(rack, {})[node_id] = None
            elif node_id in fitting:
                del fitting[node_id]
                in_rack = shape.racks[rack]
                del in_rack[node_id]
                if not in_rack:
                    del shape.racks[rack]

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
            while self._queued:
                grant = self._next_grant()
                if grant is None:
                    break
                req, node_id, locality = grant
                req.waiting = False
                self._queued -= 1
                key = (req.app_id, req.profile)
                queue = self._queues[key]
                queue.waiting -= 1
                if not queue.waiting:
                    del self._queues[key]
                req.callback(
                    self._allocate(node_id, req.resource, req.app_id, locality)
                )
        finally:
            self._serving = False

    def _next_grant(self) -> tuple[ContainerRequest, int, int] | None:
        """The queued request to serve next, the node it gets and its
        locality tier, or None when nothing fits.

        Each (app, profile) queue offers its earliest ask of the best
        tier — a FIFO head it can serve at once, else an index lookup
        over the fitting nodes (racks) it prefers — so a grant costs
        O(queues × min(fitting nodes, preferred nodes)): bounded by the
        cluster, O(queues) when heads are servable, and never a scan
        of the whole queue.
        """
        shapes = self._shapes
        live = [q for q in self._queues.values() if shapes[q.profile].fitting]
        if not live:
            return None
        outstanding = self._outstanding
        for tier in (NODE_LOCAL, RACK_LOCAL, OFF_RACK):
            best = None
            best_key = (0, 0)
            for queue in live:
                shape = shapes[queue.profile]
                if tier == NODE_LOCAL:
                    req = _first_preferring(queue, shape.fitting, False)
                elif tier == RACK_LOCAL:
                    req = _first_preferring(queue, shape.racks, True)
                else:
                    req = _head(queue.fifo)
                if req is not None:
                    # Least-granted app first; FIFO among equals.
                    key = (outstanding.get(req.app_id, 0), req.seq)
                    if best is None or key < best_key:
                        best, best_key = req, key
            if best is not None:
                return best, self._pick_node(best, tier), tier
        return None

    def _pick_node(self, req: ContainerRequest, tier: int) -> int:
        """Roomiest fitting node of ``tier`` for ``req``."""
        shape = self._shapes[req.profile]
        fitting = shape.fitting
        if tier == NODE_LOCAL:
            return self._roomiest([n for n in req.preferred if n in fitting])
        if tier == RACK_LOCAL:
            rack = self._rack
            return self._roomiest([
                m for n in req.preferred for m in shape.racks.get(rack[n], ())
            ])
        return self._roomiest(fitting)

    def _roomiest(self, nodes: Iterable[int]) -> int:
        """Most available memory first; node id breaks ties."""
        free = self._free_mb
        return min(nodes, key=lambda n: (-free[n], n))

    def _allocate(
        self, node_id: int, resource: Resource, app_id: int, locality: int
    ) -> Container:
        self._set_free(
            node_id,
            self._free_mb[node_id] - resource.memory_mb,
            self._free_vc[node_id] - resource.vcores,
        )
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
        return _units(resource.memory_mb, resource.vcores, self.profile)

    @property
    def total_slots(self) -> int:
        """Cluster-wide slot count of this scheduler's kind."""
        return sum(
            self._slots_in(self.allocator.capacity(n.node_id))
            for n in self.cluster.nodes
        )

    def free_slots(self, node_id: int | None = None) -> int:
        """Free slots on ``node_id``, or cluster-wide when omitted (a
        count the allocator keeps up to date)."""
        if node_id is not None:
            return self._slots_in(self.allocator.available(node_id))
        return self.allocator.free_units(self.profile)

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
