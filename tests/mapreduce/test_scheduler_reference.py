"""The indexed allocator against the rescanning matcher it replaced.

``reference_scheduler.py`` keeps the old ``ResourceManager`` verbatim:
every grant rebuilds each profile's fitting nodes and tiers the whole
queue.  Both allocators are driven by the same generated stream — asks
of several apps and both YARN profiles (or unit slots) with preferences
spread over several racks, releases and pinned ``try_allocate_on``
calls, from the root and from inside same-instant events, and asks or
releases made by grant callbacks inside a serve pass — and must grant
the same ``(container id, node, locality)`` sequence and end with the
same free capacity, with no tie seed and under two seeds.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.topology import NodeSpec
from repro.mapreduce.scheduler import Resource, ResourceManager, SlotScheduler
from repro.yarn.runner import MAP_PROFILE, REDUCE_PROFILE

from tests.mapreduce import reference_scheduler

SEEDS = [None, 11, 23]
#: Profiles per capacity model: YARN's two, or unit slots (plus a
#: two-slot ask, so slot mode sees more than one profile too).
PROFILES = {
    "yarn": [MAP_PROFILE, REDUCE_PROFILE],
    "slots": [Resource(1, 1), Resource(2, 2)],
}


def build(module_rm, model, specs, nodes_per_rack, seed):
    cluster = Cluster(
        num_nodes=len(specs), nodes_per_rack=nodes_per_rack, node_specs=specs
    )
    if seed is not None:
        cluster.sim._tie_seed = seed
    capacities = None
    if model == "slots":
        capacities = {
            n.node_id: Resource(n.spec.map_slots, n.spec.map_slots)
            for n in cluster.nodes
        }
    return cluster, module_rm(cluster, capacities)


def drive(module_rm, model, specs, nodes_per_rack, seed, steps):
    """Run one stream; returns everything either allocator decided."""
    cluster, rm = build(module_rm, model, specs, nodes_per_rack, seed)
    profiles = PROFILES[model]
    num_nodes = len(specs)
    log = []
    held = []

    def on_grant(container, chain):
        log.append((
            "grant", cluster.now, container.container_id, container.node_id,
            container.locality, container.app_id, container.resource,
        ))
        held.append(container)
        if chain == 1:  # ask again from inside the serve pass
            apply(("request", 0, (), container.app_id + 1, 0))
        elif chain == 2 and held:  # hand the oldest container back
            rm.release(held.pop(0))

    def apply(op):
        kind = op[0]
        try:
            if kind == "request":
                _, profile, preferred, app, chain = op
                rm.request(
                    profiles[profile],
                    lambda c, chain=chain: on_grant(c, chain),
                    preferred=tuple(n % num_nodes for n in preferred),
                    app_id=app,
                )
            elif kind == "release":
                if held:
                    rm.release(held.pop(op[1] % len(held)))
            else:  # pin
                _, node, profile, app = op
                container = rm.try_allocate_on(
                    node % num_nodes, profiles[profile], app_id=app
                )
                log.append(("pin", cluster.now, container))
                if container is not None:
                    held.append(container)
        except ValueError as exc:
            log.append(("refused", str(exc)))

    for step in steps:
        if step[0] == "root":
            for op in step[1]:
                apply(op)
        elif step[0] == "event":
            cluster.sim.schedule(step[1], lambda ops=step[2]: [apply(o) for o in ops])
        else:
            cluster.run()
    cluster.run()
    log.append(("free", [rm.available(n.node_id) for n in cluster.nodes]))
    log.append(("held", [rm.outstanding(app) for app in range(5)], rm.containers_granted))
    return log


_NODE = st.integers(0, 11)
_REQUEST = st.tuples(
    st.just("request"), st.integers(0, 1),
    st.lists(_NODE, max_size=3).map(tuple), st.integers(0, 3),
    st.sampled_from([0, 0, 0, 1, 2]),
)
_RELEASE = st.tuples(st.just("release"), st.integers(0, 10**6))
_PIN = st.tuples(st.just("pin"), _NODE, st.integers(0, 1), st.integers(0, 3))
# Asks outnumber releases, so queues form and outlast many grants.
_OPS = st.lists(st.one_of(_REQUEST, _REQUEST, _RELEASE, _PIN), max_size=12)
_STEP = st.one_of(
    st.tuples(st.just("root"), _OPS),
    st.tuples(st.just("event"), st.sampled_from([0.0, 0.0, 1.0, 2.5]), _OPS),
    st.tuples(st.just("run")),
)
_SPEC = st.builds(
    NodeSpec,
    cores=st.integers(1, 4),
    map_slots=st.integers(0, 3),
    ram_bytes=st.sampled_from([3, 4, 6]).map(lambda gb: gb * 2**30),
)


class TestAgainstReferenceMatcher:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("model", ["yarn", "slots"])
    @settings(max_examples=80, deadline=None)
    @given(
        specs=st.lists(_SPEC, min_size=1, max_size=8),
        nodes_per_rack=st.integers(1, 3),
        steps=st.lists(_STEP, min_size=1, max_size=12),
    )
    def test_same_grants(self, seed, model, specs, nodes_per_rack, steps):
        stream = (model, specs, nodes_per_rack, seed, steps)
        assert drive(ResourceManager, *stream) == drive(
            reference_scheduler.ResourceManager, *stream
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stream_seed", [1, 2, 3])
    def test_long_queues_on_a_larger_cluster(self, seed, stream_seed):
        """Hundreds of queued asks over 24 nodes in six racks, so FIFO
        scans run out of budget and the per-node and per-rack indexes
        answer, while waves of releases come from inside events."""
        rng = random.Random(stream_seed)
        specs = [
            NodeSpec(cores=rng.randint(1, 4), ram_bytes=rng.choice([3, 6]) * 2**30)
            for _ in range(24)
        ]
        steps = []
        for _ in range(30):
            asks = [
                ("request", rng.randint(0, 1),
                 tuple(rng.sample(range(24), rng.randint(0, 3))),
                 rng.randint(0, 3), 0)
                for _ in range(rng.randint(5, 25))
            ]
            frees = [("release", rng.randrange(10**6)) for _ in range(rng.randint(0, 15))]
            steps.append(("event", rng.choice([0.0, 1.0]), asks + frees))
            steps.append(("event", 0.0, frees))
            if rng.random() < 0.3:
                steps.append(("run",))
        stream = ("yarn", specs, 4, seed, steps)
        ours = drive(ResourceManager, *stream)
        assert ours == drive(reference_scheduler.ResourceManager, *stream)
        assert sum(entry[0] == "grant" for entry in ours) > 200


@pytest.mark.parametrize("profile", PROFILES["slots"])
def test_free_slots_is_the_per_node_sum(profile):
    """The cluster-wide count the allocator keeps equals the sum over
    nodes, before the profile is ever asked for and after."""
    cluster = Cluster(
        num_nodes=5, nodes_per_rack=2,
        node_specs=[NodeSpec(map_slots=k) for k in (0, 1, 2, 3, 4)],
    )
    sched = SlotScheduler(cluster, "map", profile=profile)
    held = []

    def per_node():
        return sum(sched.free_slots(n.node_id) for n in cluster.nodes)

    assert sched.free_slots() == per_node() == sched.total_slots
    for _ in range(4):
        sched.request(held.append)
        assert sched.free_slots() == per_node()
    for node in held:
        sched.release(node)
        assert sched.free_slots() == per_node()
    assert sched.free_slots() == sched.total_slots
