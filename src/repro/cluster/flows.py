"""Flow-level network simulation with max-min fair bandwidth sharing.

Instead of simulating packets, each transfer is a *flow* with a byte
count and a fixed path of directional links.  At any instant every flow
has a rate determined by **progressive filling** (the textbook max-min
fairness algorithm): all flows' rates grow uniformly until a link
saturates, flows crossing saturated links freeze, and the process
repeats on the residual capacities.  The simulation advances from one
flow-completion event to the next; whenever the active set changes, the
rates are recomputed and the next completion is re-planned.

This is the fluid approximation commonly used for data-centre studies;
it captures exactly the effect the paper's argument depends on — many
concurrent shuffle flows contending for scarce rack uplinks — without
modelling TCP dynamics.

**Component scoping.**  Max-min fairness is separable across connected
components of the flow–link incidence graph: a saturated link freezes
only flows crossing it, so the progressive-filling rounds of two
link-disjoint flow sets never interact and each component's allocation
is a function of that component alone (the argument is written out in
``DESIGN.md`` §13).  The network exploits this by maintaining the
components *incrementally*:

* a union-find over link ids merges components when a new flow's path
  bridges them (``_attach``);
* each component record carries its member links, a monotonically
  issued epoch, and its **own** next-completion timer, so an arrival or
  departure in one job never cancels or reschedules another job's
  completion event;
* arrivals mark only the touched component dirty; the batched
  zero-delay recompute then advances/refills *dirty components only*,
  carrying every untouched component's rates (and timer) over;
* departures may split a component.  Splits are detected lazily from a
  standing link-pair adjacency count (each active route class
  contributes the consecutive link pairs along its path; a pair dying is
  the only way link connectivity can change), so the common no-split
  completion costs no connectivity scan at all.  Each dead pair gets an
  early-exit reachability probe, and only a genuine disconnection
  re-partitions that component's links by BFS.

Every per-flow quantity advances on its own clock (``_advanced_at`` per
row): progress is applied exactly once per elapsed interval, when the
owning component is next touched, which keeps the arithmetic identical
whether or not unrelated jobs generated events in between.

Internally the active set is **structure-of-arrays** state: ``remaining``
bytes, current ``rate``, completion epsilon, advancement clock, flow id
and route-class id live in standing NumPy arrays indexed by a dense row
number.  Rows are added at the end and removed by swapping the last row
into the hole, so flow add/remove is O(1) amortized, and every per-event
operation (progress advance, horizon planning, completion scan) is a
vectorized pass over the touched component's rows with no per-flow
Python loops.

**Route classes.**  Rates are allocated per *route class*, not per flow.
A shuffle is M×R messages over at most N(N−1) node pairs, and flows that
share a ``(src, dst)`` :class:`Route` cross the same links, so
progressive filling freezes them in the same round at the same fill
level.  The unit of allocation is therefore one route with a
multiplicity: a standing class table holds each route's link tuple and
active-flow count, and the link → class incidence, the link-pair
adjacency and the union-find only change when a class's count crosses
0↔1 — a flow joining an active class costs a counter per link.  A
filling round moves a link's count by the multiplicity of each class it
freezes; the per-link counts are the same integers and ``residual -=
delta * count`` the same operands as filling flow by flow, so the rates
— one per class, scattered to the rows in a single gather — are
bit-identical (``DESIGN.md`` §8.1).  All completions landing at the same
horizon in the same component drain in a single event.  The arithmetic
is element-for-element the same IEEE operations the per-object
implementation performs on the same component-local operands, so
simulated seconds and byte accounting are bit-identical (see
``tests/cluster/reference_flows.py`` and
``tests/cluster/test_flow_equivalence.py``).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.cluster.events import Event, Simulation
from repro.cluster.metrics import TrafficMeter
from repro.cluster.topology import MAX_PATH_LINKS, Link, Route, Topology

# Flows with fewer remaining bytes than this are considered complete; it
# absorbs float rounding from repeated progress updates.
_REMAINING_EPS = 1e-6

# The absolute epsilon alone is wrong for huge flows: one ULP of a
# multi-GB byte count exceeds 1e-6, so rounding in ``remaining - rate*dt``
# could leave a "finished" flow microscopically short and spawn a cascade
# of near-zero-length completion events.  The completion threshold is
# therefore scale-aware: proportional to the flow size, floored at the
# absolute epsilon for small flows.
_REMAINING_REL_EPS = 1e-9

# Intra-node "transfers" (src == dst) bypass the fabric but still cost a
# memory/loopback copy at this bandwidth.
LOCAL_COPY_BANDWIDTH = 2e9  # bytes/s

# One bulk-start request: (src, dst, nbytes, category[, on_complete]).
FlowRequest = Sequence

# Initial row capacity of the structure-of-arrays state.
_INITIAL_ROWS = 64

# Components with at most this many active route classes are filled by
# scalar (pure-Python) loops over the classes; bigger ones take the
# vectorized path.  Both perform the exact same IEEE operations
# link-for-link, so the threshold is a pure performance knob with no
# observable effect — it exists because a 12-class component pays more
# in NumPy call overhead than in arithmetic.  A component never has more
# classes than rows, and a 6-node cluster never more than 30.
_SMALL_ROWS = 32

# The same bound on the standing link → class incidence-entry count of a
# component's links, which is known without enumerating its classes: a
# class enters once per link of its path, so a component with at most
# ``_SMALL_ROWS`` classes never has more entries than this.
_SMALL_ENTRIES = MAX_PATH_LINKS * _SMALL_ROWS


def completion_eps(size: float) -> float:
    """Remaining-byte threshold below which a flow of ``size`` is done."""
    return max(_REMAINING_EPS, _REMAINING_REL_EPS * size)


class Flow:
    """One in-flight transfer.

    While the flow occupies fabric links, its ``remaining`` and ``rate``
    live in the owning :class:`FlowNetwork`'s arrays (``_row`` is the
    index); the properties read through.  Once finished (or for
    intra-node copies that never touch the arrays) the values are plain
    scalars captured at detach time.
    """

    __slots__ = (
        "flow_id", "src", "dst", "size", "links", "category",
        "on_complete", "started_at", "completed_at",
        "_net", "_row", "_remaining", "_rate",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        size: float,
        links: tuple[Link, ...],
        category: str,
        on_complete: Callable[["Flow"], None] | None,
        started_at: float,
        net: "FlowNetwork",
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.links = links
        self.category = category
        self.on_complete = on_complete
        self.started_at = started_at
        self.completed_at: float | None = None
        self._net = net
        self._row = -1
        self._remaining = size
        self._rate = 0.0

    @property
    def remaining(self) -> float:
        """Bytes still to transfer."""
        row = self._row
        if row >= 0:
            return float(self._net._remaining[row])
        return self._remaining

    @remaining.setter
    def remaining(self, value: float) -> None:
        if self._row >= 0:
            self._net._remaining[self._row] = value
        else:
            self._remaining = value

    @property
    def rate(self) -> float:
        """Current max-min fair rate in bytes per second."""
        row = self._row
        if row >= 0:
            return float(self._net._rate[row])
        return self._rate

    @property
    def done(self) -> bool:
        """True once the last byte has landed."""
        return self.completed_at is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Flow({self.flow_id}, {self.src}->{self.dst}, "
            f"{self.category!r}, {self.size:.0f}B)"
        )


class _Component:
    """One connected component of the active flow–link incidence graph.

    Substrate-private: identified by its union-find root link id, owning
    its member-link list, a stale-timer epoch, and the component's next
    completion event.  Only :class:`FlowNetwork` may touch these.
    """

    __slots__ = ("root", "links", "epoch", "timer", "advanced")

    def __init__(self, root: int, links: list[int], epoch: int) -> None:
        self.root = root
        self.links = links
        self.epoch = epoch
        self.timer: Event | None = None
        # Last simulated time at which every member row's progress was
        # applied, or -inf when unknown (e.g. right after a merge).
        # Lets a same-instant re-advance be skipped outright — advancing
        # a row over a zero-length interval is the identity.
        self.advanced = -math.inf


class FlowNetwork:
    """Tracks active flows on a topology and advances them on the DES clock."""

    def __init__(
        self, sim: Simulation, topology: Topology, meter: TrafficMeter | None = None
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.meter = meter if meter is not None else TrafficMeter()
        self._ids = itertools.count()
        self._recompute_event: Event | None = None
        self._capacities = np.array(
            [link.capacity for link in topology.links], dtype=float
        )
        self._num_links = len(topology.links)
        # Saturation thresholds, fixed per link (multiplying before the
        # per-round gather is bit-identical to multiplying after it).
        self._thresholds = 1e-9 * self._capacities
        # The same doubles as Python floats, for the scalar filling arm.
        self._capacity_list: list[float] = self._capacities.tolist()
        self._threshold_list: list[float] = self._thresholds.tolist()
        # Structure-of-arrays state for the active flow set: rows [0, _n)
        # are live; removal swaps the last row into the hole.
        self._remaining = np.zeros(_INITIAL_ROWS)
        self._rate = np.zeros(_INITIAL_ROWS)
        self._eps = np.zeros(_INITIAL_ROWS)
        # Per-row advancement clock: the last simulated time at which
        # this row's progress was applied.  Rows advance lazily, when
        # their component is next touched.
        self._advanced_at = np.zeros(_INITIAL_ROWS)
        self._flow_ids = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._row_class = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._row_flows: list[Flow | None] = [None] * _INITIAL_ROWS
        self._n = 0
        # Standing route-class table, maintained by _attach/_detach.  A
        # class is one Route, numbered densely on first use and never
        # retired; ``_class_count`` is its multiplicity (active flows).
        # ``_class_paths`` rows shorter than MAX_PATH_LINKS are padded
        # with the sentinel id ``num_links``: per-link arrays in the
        # vectorized filling loop carry one extra never-saturated slot,
        # so padded entries need no validity masking.  ``_class_rate`` is
        # scratch: where a refill leaves each of the component's classes'
        # rates for the row scatter that ends it.
        self._class_ids: dict[Route, int] = {}
        self._class_links: list[tuple[int, ...]] = []
        self._class_count: list[int] = []
        self._class_paths = np.full(
            (_INITIAL_ROWS, MAX_PATH_LINKS), self._num_links, dtype=np.int64
        )
        self._class_rate = np.zeros(_INITIAL_ROWS)
        # Standing link -> class incidence, touched only when a class's
        # count crosses 0<->1: for each link, a dense array of the
        # active classes crossing it (amortized-doubling capacity, the
        # first ``_link_entries[l]`` slots live, swap-remove within
        # them).  ``_class_pos[c][k]`` is the position of class ``c`` in
        # the array of the ``k``-th link of its path, so removal is
        # O(1) per link.  ``_link_sizes`` is the per-link *flow* count,
        # the sum of those classes' multiplicities.
        self._link_classes: list[np.ndarray] = [
            np.empty(4, dtype=np.int64) for _ in range(self._num_links)
        ]
        self._link_entries: list[int] = [0] * self._num_links
        self._class_pos: list[list[int]] = []
        self._link_sizes: list[int] = [0] * (self._num_links + 1)
        # -- component tracking (substrate-private) --------------------
        # Union-find parent per link id; roots key the component map.
        self._uf_parent: list[int] = list(range(self._num_links))
        self._comp: dict[int, _Component] = {}
        self._comp_epochs = itertools.count()
        # Links (any member) whose components need an advance + refill
        # at the next batched recompute.
        self._dirty_links: set[int] = set()
        # Link-pair adjacency counts: ``_adj[a][b]`` is the number of
        # active classes whose paths traverse ``a`` and ``b`` back to
        # back (a chain per path, which preserves exactly link
        # connectivity).  A pair count reaching zero is the only way a
        # component can lose connectivity; each death is recorded in
        # ``_dead_pairs`` and its endpoints get a cheap early-exit
        # reachability test before the full BFS re-partition runs.
        self._adj: list[dict[int, int]] = [{} for _ in range(self._num_links)]
        self._dead_pairs: list[tuple[int, int]] = []

    @property
    def active_flows(self) -> list[Flow]:
        """Flows currently occupying fabric links (in start order)."""
        flows = [f for f in self._row_flows[: self._n] if f is not None]
        flows.sort(key=lambda f: f.flow_id)
        return flows

    def start_flow(
        self,
        src: int,
        dst: int,
        nbytes: float,
        category: str,
        on_complete: Callable[[Flow], None] | None = None,
    ) -> Flow:
        """Begin transferring ``nbytes`` from ``src`` to ``dst``.

        ``on_complete`` fires (via the simulation) when the last byte
        lands.  Byte accounting happens immediately: the transfer is
        committed once started.
        """
        flow = self._begin(src, dst, nbytes, category, on_complete)
        # Batch rate recomputation: many flows typically start at the
        # same instant (a map task fanning out its shuffle); one
        # recompute after the batch is both faster and equivalent.
        if flow._row >= 0 and self._recompute_event is None:
            self._recompute_event = self.sim.schedule(0.0, self._do_recompute)
        return flow

    def start_flows(self, requests: Iterable[FlowRequest]) -> list[Flow]:
        """Begin a batch of transfers in one call.

        Each request is ``(src, dst, nbytes, category)`` optionally
        followed by an ``on_complete`` callback.  Event ordering, flow
        ids, and all floats are identical to calling :meth:`start_flow`
        once per request — this exists so a map wave's shuffle fan-out
        (or a PIC scatter) crosses the network API once per wave, not
        once per flow, and shares a single rate recompute.
        """
        flows: list[Flow] = []
        schedule = self.sim.schedule
        for req in requests:
            on_complete = req[4] if len(req) > 4 else None
            flow = self._begin(req[0], req[1], req[2], req[3], on_complete)
            if flow._row >= 0 and self._recompute_event is None:
                self._recompute_event = schedule(0.0, self._do_recompute)
            flows.append(flow)
        return flows

    def _begin(
        self,
        src: int,
        dst: int,
        nbytes: float,
        category: str,
        on_complete: Callable[[Flow], None] | None,
    ) -> Flow:
        if nbytes < 0:
            raise ValueError(f"cannot transfer a negative byte count: {nbytes}")
        if not math.isfinite(nbytes):
            raise ValueError(f"cannot transfer a non-finite byte count: {nbytes}")
        route = self.topology.route(src, dst)
        links = route.links
        self.meter.record(
            category, nbytes, crosses_core=route.crosses_core, on_fabric=bool(links)
        )
        for link in links:
            link.bytes_carried += nbytes

        flow = Flow(
            flow_id=next(self._ids),
            src=src,
            dst=dst,
            size=float(nbytes),
            links=links,
            category=category,
            on_complete=on_complete,
            started_at=self.sim.now,
            net=self,
        )
        if not links:
            # Intra-node: costs a local copy, never contends with the fabric.
            delay = nbytes / LOCAL_COPY_BANDWIDTH
            self.sim.schedule(delay, lambda: self._finish(flow))
            return flow
        if nbytes <= _REMAINING_EPS:
            self.sim.schedule(0.0, lambda: self._finish(flow))
            return flow

        self._attach(flow, route)
        return flow

    def _do_recompute(self) -> None:
        """Advance + refill + re-plan every dirty component.

        Runs as the batched zero-delay event after a wave of arrivals.
        With nothing marked dirty (a direct call, e.g. from tests that
        force recompute churn) it refreshes *all* components, which is
        the old global-recompute behaviour.
        """
        self._recompute_event = None
        if self._dirty_links:
            roots = {self._find(link) for link in self._dirty_links}
            self._dirty_links.clear()
        else:
            roots = set(self._comp.keys())
        planned: list[tuple[_Component, slice | np.ndarray]] = []
        for root in sorted(roots):
            comp = self._comp.get(root)
            if comp is not None:
                planned.append((comp, self._component_rows(comp)))
        if len(planned) > 1:
            # Canonical processing order — ascending min flow id — keeps
            # the timer (re)arming sequence, and therefore same-instant
            # event order, identical to the reference implementation.
            planned.sort(key=lambda item: int(self._flow_ids[item[1]].min()))
        for comp, rows in planned:
            self._advance_component(comp, rows)
            self._plan_component(comp, self._refill_component(comp, rows))

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Uncontended transfer time (for cost estimation, not simulation)."""
        route = self.topology.route(src, dst)
        if not route.links:
            return nbytes / LOCAL_COPY_BANDWIDTH
        return nbytes / route.bottleneck

    # ------------------------------------------------------------------
    # structure-of-arrays row and route-class management

    def _attach(self, flow: Flow, route: Route) -> None:
        """Claim the next dense row for ``flow``; O(1) amortized."""
        i = self._n
        if i == len(self._row_flows):
            self._grow()
        cls = self._class_ids.get(route)
        if cls is None:
            cls = self._new_class(route)
        self._remaining[i] = flow._remaining
        self._rate[i] = 0.0
        self._eps[i] = completion_eps(flow.size)
        self._advanced_at[i] = self.sim.now
        self._flow_ids[i] = flow.flow_id
        self._row_class[i] = cls
        self._row_flows[i] = flow
        flow._row = i
        self._n = i + 1
        links = self._class_links[cls]
        link_sizes = self._link_sizes
        for link in links:
            link_sizes[link] += 1
        count = self._class_count[cls]
        self._class_count[cls] = count + 1
        if count == 0:
            # The class wakes up: only now do incidence, pair counts and
            # components change (an active class's links are already
            # welded into one component).
            link_entries = self._link_entries
            pos = self._class_pos[cls]
            for k, link in enumerate(links):
                size = link_entries[link]
                members = self._link_classes[link]
                if size == members.size:
                    members = np.concatenate([members, members])
                    self._link_classes[link] = members
                members[size] = cls
                pos[k] = size
                link_entries[link] = size + 1
            self._join_components(links)
        self._dirty_links.add(links[0])

    def _detach(self, flow: Flow) -> None:
        """Release ``flow``'s row, compacting by swapping the last row in."""
        i = flow._row
        flow._remaining = float(self._remaining[i])
        flow._rate = float(self._rate[i])
        flow._row = -1
        cls = int(self._row_class[i])
        links = self._class_links[cls]
        link_sizes = self._link_sizes
        for link in links:
            link_sizes[link] -= 1
        count = self._class_count[cls] - 1
        self._class_count[cls] = count
        if count == 0:
            # The class retires: swap-remove it from each link's array.
            link_entries = self._link_entries
            pos = self._class_pos[cls]
            for k, link in enumerate(links):
                size = link_entries[link] - 1
                link_entries[link] = size
                if pos[k] != size:
                    members = self._link_classes[link]
                    filler = int(members[size])
                    members[pos[k]] = filler
                    slot = self._class_links[filler].index(link)
                    self._class_pos[filler][slot] = pos[k]
            self._drop_pairs(links)
        last = self._n - 1
        if i != last:
            for column in (
                self._remaining, self._rate, self._eps,
                self._advanced_at, self._flow_ids, self._row_class,
            ):
                column[i] = column[last]
            moved = self._row_flows[last]
            assert moved is not None
            self._row_flows[i] = moved
            moved._row = i
        self._row_flows[last] = None
        self._n = last

    def _grow(self) -> None:
        old = len(self._row_flows)
        for name in (
            "_remaining", "_rate", "_eps", "_advanced_at", "_flow_ids", "_row_class"
        ):
            column = getattr(self, name)
            setattr(self, name, np.concatenate([column, np.zeros_like(column)]))
        self._row_flows.extend([None] * old)

    def _new_class(self, route: Route) -> int:
        """Number ``route`` as the next route class (multiplicity 0)."""
        cls = len(self._class_links)
        if cls == len(self._class_rate):
            self._class_paths = np.concatenate(
                [self._class_paths, np.full_like(self._class_paths, self._num_links)]
            )
            self._class_rate = np.zeros(2 * cls)
        self._class_ids[route] = cls
        self._class_links.append(route.link_ids)
        self._class_count.append(0)
        self._class_pos.append([0] * len(route.link_ids))
        self._class_paths[cls] = route.padded_ids
        return cls

    # ------------------------------------------------------------------
    # component tracking

    def _find(self, link: int) -> int:
        """Union-find root of ``link``, with path compression."""
        parent = self._uf_parent
        root = link
        while parent[root] != root:
            root = parent[root]
        while parent[link] != root:
            parent[link], link = root, parent[link]
        return root

    def _join_components(self, links: tuple[int, ...]) -> None:
        """Register a waking class's path: pair counts and unions.

        The path's links are welded into one component (merging records
        small-into-large; absorbed timers are cancelled — the merged
        component is refilled and re-armed by the pending recompute).
        """
        adj = self._adj
        comps = self._comp
        parent = self._uf_parent
        prev = links[0]
        root = self._find(prev)
        comp = comps.get(root)
        if comp is None:
            comp = _Component(root, [root], next(self._comp_epochs))
            comps[root] = comp
        for link in links[1:]:
            adj_prev = adj[prev]
            adj_prev[link] = adj_prev.get(link, 0) + 1
            adj_link = adj[link]
            adj_link[prev] = adj_link.get(prev, 0) + 1
            prev = link
            other_root = self._find(link)
            if other_root == root:
                continue
            other = comps.get(other_root)
            if other is None:
                # A fresh (or previously emptied) link: adopt it.
                parent[other_root] = root
                comp.links.append(other_root)
                continue
            # Merge the smaller record into the larger one.
            if len(other.links) > len(comp.links):
                comp, other = other, comp
                root, other_root = other_root, root
            parent[other_root] = root
            comp.links.extend(other.links)
            if other.advanced < comp.advanced:
                comp.advanced = other.advanced
            if other.timer is not None:
                other.timer.cancel()
                other.timer = None
            del comps[other_root]

    def _drop_pairs(self, links: tuple[int, ...]) -> None:
        """Release a retiring class's link-pair counts."""
        adj = self._adj
        prev = links[0]
        for link in links[1:]:
            adj_prev = adj[prev]
            count = adj_prev[link] - 1
            if count:
                adj_prev[link] = count
                adj[link][prev] = count
            else:
                del adj_prev[link]
                del adj[link][prev]
                self._dead_pairs.append((prev, link))
            prev = link

    def _component_rows(self, comp: _Component) -> slice | np.ndarray:
        """Index of ``comp``'s active rows into the row arrays.

        A slice when ``comp`` is the only component (every active fabric
        flow belongs to some component, so it owns every row); otherwise
        the ascending rows whose path starts on a member link.
        """
        if len(self._comp) == 1:
            return slice(0, self._n)
        member = np.zeros(self._num_links, dtype=bool)
        member[comp.links] = True
        first_link = self._class_paths[:, 0][self._row_class[: self._n]]
        return member[first_link].nonzero()[0]

    def _still_connected(self, a: int, b: int) -> bool:
        """Exact reachability of ``b`` from ``a`` in the link-pair graph.

        Early-exits the moment ``b`` is seen, so in well-connected
        components (where most pair deaths change nothing) this touches
        a couple of adjacency lists instead of the whole component.
        """
        adj = self._adj
        seen = {a}
        frontier = [a]
        while frontier:
            node = frontier.pop()
            for neighbour in adj[node]:
                if neighbour == b:
                    return True
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return False

    def _split_component(self, comp: _Component) -> None:
        """Re-partition ``comp``'s records after departures broke a pair.

        BFS over the surviving link-pair adjacency discovers the
        sub-components; emptied links revert to singleton union-find
        roots.  Each sub-component gets a fresh record (new epoch, so
        any stale timer is disarmed) and is marked dirty — the batched
        recompute refills and re-plans them in canonical order.
        """
        del self._comp[comp.root]
        parent = self._uf_parent
        link_sizes = self._link_sizes
        adj = self._adj
        dirty = self._dirty_links
        visited: set[int] = set()
        for link in comp.links:
            if link in visited:
                continue
            visited.add(link)
            if link_sizes[link] == 0:
                # Dead link: no flows, hence no pairs; detach it.
                parent[link] = link
                continue
            group = [link]
            stack = [link]
            while stack:
                node = stack.pop()
                for neighbour in adj[node]:
                    if neighbour not in visited:
                        visited.add(neighbour)
                        group.append(neighbour)
                        stack.append(neighbour)
            root = min(group)
            for member in group:
                parent[member] = root
            sub = _Component(root, group, next(self._comp_epochs))
            sub.advanced = comp.advanced
            self._comp[root] = sub
            dirty.add(root)

    # ------------------------------------------------------------------
    # internals

    def _advance_component(
        self, comp: _Component, rows: slice | np.ndarray
    ) -> None:
        """Apply each of ``comp``'s rows' rate since its last advancement:
        ``max(0, remaining - rate*(now - advanced_at))``.

        A same-instant re-advance is skipped, a pure shortcut: advancing
        over a zero-length interval subtracts ``rate * 0.0`` and is
        bit-for-bit the identity, so the reference implementation may
        advance unconditionally and still agree.
        """
        now = self.sim.now
        if comp.advanced == now:
            return
        advanced_at = self._advanced_at
        rem = self._remaining[rows]  # a view for a slice, else a copy
        rem -= self._rate[rows] * (now - advanced_at[rows])
        np.maximum(rem, 0.0, out=rem)
        self._remaining[rows] = rem
        advanced_at[rows] = now
        comp.advanced = now

    def _refill_component(
        self, comp: _Component, rows: slice | np.ndarray
    ) -> np.ndarray:
        """Progressive-filling max-min fair rates, scoped to one component.

        Fills over the component's route classes — scalar loops for a
        few, vectorized for many, chosen from the standing link → class
        entry counts — scatters each class's rate to its rows, and
        returns the rows' time to completion at those rates.  A
        link's count moves by a frozen class's multiplicity, which is
        the same integer as freezing its flows one by one; the fill
        level is the same left-to-right sum of the same component-local
        round deltas the textbook formulation accumulates per flow, so
        the resulting rates are bit-identical to the reference
        implementation (``tests/cluster/reference_flows.py``).

        Every flow crossing a member link belongs to the component (that
        is what a component *is*), so the global per-link flow counts and
        class arrays double as the component-local ones.
        """
        link_entries = self._link_entries
        classes = self._row_class[rows]
        if sum([link_entries[link] for link in comp.links]) <= _SMALL_ENTRIES:
            self._refill_few(comp, classes.size)
        else:
            self._refill_many(comp, classes)
        rates = self._class_rate[classes]
        self._rate[rows] = rates
        # Every rate is a fill level, and the first round's delta is a
        # positive share of a positive capacity: no division by zero.
        return self._remaining[rows] / rates

    def _refill_few(self, comp: _Component, unfrozen: int) -> None:
        """Scalar progressive filling over a few route classes.

        Same round structure as :meth:`_refill_many` — uniform fill
        until a link saturates, freeze its classes at the cumulative
        fill level, drop the link, repeat on the residual — with plain
        Python loops, because a handful of classes costs more in NumPy
        call overhead than in arithmetic.  ``unfrozen`` counts the
        component's flows not yet frozen.
        """
        link_sizes = self._link_sizes
        link_entries = self._link_entries
        link_classes = self._link_classes
        capacities = self._capacity_list
        thresholds = self._threshold_list
        alive = [link for link in comp.links if link_sizes[link] > 0]
        residual = {link: capacities[link] for link in alive}
        counts = {link: link_sizes[link] for link in alive}
        class_rate = self._class_rate
        class_links = self._class_links
        class_count = self._class_count
        frozen: set[int] = set()
        fill = 0.0
        while alive:
            delta = math.inf
            for link in alive:
                count = counts[link]
                if count > 0:
                    ratio = residual[link] / count
                    if ratio < delta:
                        delta = ratio
            fill += delta
            saturated = []
            for link in alive:
                count = counts[link]
                if count:
                    residual[link] -= delta * count
                if residual[link] <= thresholds[link]:
                    saturated.append(link)
            if not saturated:
                break
            newly: list[int] = []
            for link in saturated:
                for cls in link_classes[link][: link_entries[link]].tolist():
                    if cls not in frozen:
                        frozen.add(cls)
                        newly.append(cls)
            if not newly:  # pragma: no cover - numeric corner
                break
            for cls in newly:
                class_rate[cls] = fill
                unfrozen -= class_count[cls]
            if unfrozen == 0:
                # Everything froze; the remaining rounds would only
                # drain counts that no class reads any more.
                return
            for cls in newly:
                multiplicity = class_count[cls]
                for link in class_links[cls]:
                    counts[link] -= multiplicity
            dropped = set(saturated)
            alive = [link for link in alive if link not in dropped]
        # Whatever never froze (it still counts on some link) runs at
        # the final fill level.
        for link, count in counts.items():
            if count:
                for cls in link_classes[link][: link_entries[link]].tolist():
                    if cls not in frozen:
                        class_rate[cls] = fill

    def _refill_many(self, comp: _Component, classes: np.ndarray) -> None:
        """Vectorized progressive filling (the compacting scheme).

        Each filling round works on a *compacted* view of the
        still-unfrozen links, per-link flow counts are maintained by
        subtraction as classes freeze rather than recounted, and a
        class's rate is written exactly once — the cumulative fill level
        at the round it froze.

        Saturation flags accumulate across rounds: once a link saturates
        every unfrozen class crossing it freezes in that same round, so
        no surviving class can ever touch a previously saturated link.
        """
        link_entries = self._link_entries
        link_classes = self._link_classes
        num_links = self._num_links
        # Global-width count array (one C call), with the active view
        # restricted to the component's occupied links.  Entries for
        # other components' links stay nonzero but are never read: the
        # freeze loop and the bincount decrement only ever touch member
        # links (every class on a member link belongs to the component).
        # ``counts[num_links]`` is the sentinel slot absorbing padded
        # link ids; written, never read.
        counts = np.array(self._link_sizes, dtype=np.int64)
        members = np.array(comp.links, dtype=np.int64)
        active = members[counts[members] > 0]
        residual = self._capacities[active]
        thresholds = self._thresholds[active]
        active_counts = counts[active]
        # Multiplicity per class, counted from the component's rows in
        # one C pass (equal to ``_class_count`` for its classes).
        multiplicity = np.bincount(classes, minlength=len(self._class_count))
        unfrozen = np.count_nonzero(multiplicity)
        class_paths = self._class_paths
        class_rate = self._class_rate
        frozen = np.zeros(multiplicity.size, dtype=bool)
        fill = 0.0
        # A link whose classes all froze through *other* links keeps a
        # zero count; its inf ratio never wins the min and it can never
        # saturate afterwards, so it may idle in the active arrays.
        with np.errstate(divide="ignore"):
            for _round in range(active.size + 1):
                if active.size == 0:  # pragma: no cover - numeric corner
                    break
                delta = float((residual / active_counts).min())
                fill += delta
                residual -= delta * active_counts
                saturated = residual <= thresholds
                if not saturated.any():
                    # Numerically nothing saturated (a tiny residual
                    # limited delta); stop to guarantee progress.
                    break
                # Freeze every still-unfrozen class crossing a saturated
                # link at the current fill level (the same left-to-right
                # delta sum the per-flow accumulation would produce).
                # Links are processed one at a time with ``frozen``
                # updated in between, so a class on two same-round
                # saturated links is collected exactly once and no
                # dedupe pass is ever needed.
                news = []
                for lk in active[saturated].tolist():
                    seg = link_classes[lk][: link_entries[lk]]
                    fresh = seg[~frozen[seg]]
                    if fresh.size:
                        frozen[fresh] = True
                        news.append(fresh)
                if not news:  # pragma: no cover - numeric corner
                    break
                newly = news[0] if len(news) == 1 else np.concatenate(news)
                class_rate[newly] = fill
                unfrozen -= newly.size
                if unfrozen == 0:
                    # Everything froze; the remaining rounds would only
                    # drain counts that no class reads any more.
                    return
                counts -= np.bincount(
                    class_paths[newly].repeat(multiplicity[newly], axis=0).ravel(),
                    minlength=num_links + 1,
                )
                keep = ~saturated
                active = active[keep]
                residual = residual[keep]
                thresholds = thresholds[keep]
                active_counts = counts[active]
        # Whatever never froze (it still counts on some link) runs at
        # the final fill level.
        for lk in active[active_counts > 0].tolist():
            seg = link_classes[lk][: link_entries[lk]]
            class_rate[seg[~frozen[seg]]] = fill

    def _plan_component(self, comp: _Component, time_left: np.ndarray) -> None:
        """Arm ``comp``'s next-completion timer, ``time_left`` being its
        rows' remaining bytes over their current rates."""
        if comp.timer is not None:
            comp.timer.cancel()
            comp.timer = None
        horizon = float(time_left.min())
        if not math.isfinite(horizon):
            raise RuntimeError(
                "active flows exist but none has a positive rate; "
                "the rate allocation is wedged"
            )
        root = comp.root
        epoch = comp.epoch
        self._arm_component_timer(
            comp, horizon, lambda: self._on_component_completion(root, epoch)
        )

    def _arm_component_timer(
        self, comp: _Component, horizon: float, on_fire: Callable[[], None]
    ) -> None:
        """Schedule ``on_fire`` as ``comp``'s completion continuation."""
        comp.timer = self.sim.schedule(horizon, on_fire)

    def _on_component_completion(self, root: int, epoch: int) -> None:
        comp = self._comp.get(root)
        if comp is None or comp.epoch != epoch:  # pragma: no cover - stale
            return
        comp.timer = None
        rows = self._component_rows(comp)
        self._advance_component(comp, rows)
        # Drain *every* flow of this component that reached its
        # completion threshold at this horizon in one event
        # (same-horizon batching): one scan, one refill, one replan for
        # the whole batch — without touching any other component.
        done = self._remaining[rows] <= self._eps[rows]
        done_rows = done.nonzero()[0]  # positions within ``rows``
        if not isinstance(rows, slice):
            done_rows = rows[done_rows]
        finished: list[Flow] = []
        for i in done_rows.tolist():
            flow = self._row_flows[i]
            assert flow is not None
            finished.append(flow)
        finished.sort(key=lambda f: f.flow_id)
        self._dead_pairs.clear()
        for flow in finished:
            self._detach(flow)
        if done.all():
            # The whole component drained; release its links.
            parent = self._uf_parent
            for link in comp.links:
                parent[link] = link
            del self._comp[root]
        else:
            if any(
                not self._still_connected(a, b) for a, b in self._dead_pairs
            ):
                # A dead pair actually disconnected the link graph;
                # re-partition the records (bookkeeping only).
                self._split_component(comp)
            else:
                self._dirty_links.add(comp.root)
            # Survivors are refilled + re-planned by the batched
            # zero-delay recompute, not inline: completion callbacks run
            # first and often start successor flows at this same
            # instant, and deferring folds their arrival into the same
            # single refill.  No simulated time passes in between, so
            # the arithmetic is unchanged.
            if self._recompute_event is None:
                self._recompute_event = self.sim.schedule(0.0, self._do_recompute)
        for flow in finished:
            self._finish(flow)

    def _finish(self, flow: Flow) -> None:
        flow.remaining = 0.0
        flow.completed_at = self.sim.now
        if flow.on_complete is not None:
            flow.on_complete(flow)
