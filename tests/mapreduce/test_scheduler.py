"""Tests for locality-aware slot scheduling and the allocator under it."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.topology import NodeSpec
from repro.mapreduce.scheduler import Resource, ResourceManager, SlotScheduler


def make_scheduler(num_nodes=4, nodes_per_rack=2, map_slots=2, kind="map"):
    cluster = Cluster(
        num_nodes=num_nodes,
        nodes_per_rack=nodes_per_rack,
        node_spec=NodeSpec(map_slots=map_slots, reduce_slots=map_slots),
    )
    return cluster, SlotScheduler(cluster, kind)


class TestBasics:
    def test_total_slots(self):
        _c, sched = make_scheduler()
        assert sched.total_slots == 8

    def test_bad_kind_rejected(self):
        cluster, _ = make_scheduler()
        with pytest.raises(ValueError):
            SlotScheduler(cluster, "gpu")

    def test_immediate_grant_when_free(self):
        _c, sched = make_scheduler()
        granted = []
        sched.request(granted.append)
        assert len(granted) == 1

    def test_queues_when_full(self):
        _c, sched = make_scheduler(num_nodes=1, nodes_per_rack=1, map_slots=1)
        granted = []
        sched.request(granted.append)
        sched.request(granted.append)
        assert granted == [0]
        sched.release(0)
        assert granted == [0, 0]

    def test_over_release_rejected(self):
        _c, sched = make_scheduler()
        with pytest.raises(RuntimeError):
            sched.release(0)

    def test_free_slots_tracking(self):
        _c, sched = make_scheduler()
        sched.request(lambda n: None)
        assert sched.free_slots() == 7

    def test_request_no_node_can_ever_serve_rejected(self):
        # Used to queue forever; the job died later in finish().
        _c, sched = make_scheduler(map_slots=0)
        with pytest.raises(ValueError, match="exceeds every node's capacity"):
            sched.request(lambda n: None)

    def test_unknown_preferred_node_rejected_before_anything_is_queued(self):
        # Used to surface as a bare KeyError from the rack lookup, after
        # the request's profile had been registered.
        _c, sched = make_scheduler(num_nodes=4)
        with pytest.raises(ValueError, match="preferred node 99 is not one of"):
            sched.request(lambda n: None, preferred=[1, 99])
        assert sched.allocator._profiles == {} and sched.allocator._queued == 0
        granted = []
        sched.request(granted.append, preferred=[3])
        assert granted == [3]

    def test_capacity_for_a_node_the_cluster_lacks_rejected(self):
        # Used to be accepted, then fail the first request with a bare
        # KeyError from the rack lookup.
        cluster = Cluster(num_nodes=4, nodes_per_rack=2)
        with pytest.raises(ValueError, match="capacities name node 99, which"):
            ResourceManager(cluster, {99: Resource(4, 4)})
        full = {n: Resource(4, 4) for n in range(4)}
        with pytest.raises(ValueError, match="capacities name node 4, which"):
            ResourceManager(cluster, {**full, 4: Resource(4, 4)})

    def test_cluster_node_missing_from_capacities_rejected(self):
        # Used to surface as KeyError: 3 from try_allocate_on(3, ...).
        cluster = Cluster(num_nodes=4, nodes_per_rack=2)
        with pytest.raises(ValueError, match="capacities give none for node 3"):
            ResourceManager(cluster, {n: Resource(4, 4) for n in range(3)})

    def test_request_validation_is_per_profile_and_against_capacity(self):
        # The fit check is cached per distinct profile: an oversized
        # profile fails every time and never becomes a profile, and a
        # fitting one keeps queueing while no node has it free.
        cluster = Cluster(num_nodes=2, nodes_per_rack=2)
        rm = ResourceManager(
            cluster, {0: Resource(1024, 2), 1: Resource(2048, 1)}
        )
        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds every node's capacity"):
                rm.request(Resource(2048, 2), lambda c: None)
        assert rm._profiles == {} and rm._queued == 0
        granted = []
        for _ in range(4):
            rm.request(Resource(1024, 1), granted.append)
        assert sorted(c.node_id for c in granted) == [0, 1]
        assert list(rm._profiles) == [Resource(1024, 1)]
        assert rm._queued == 2
        rm.release(granted[0])
        assert len(granted) == 3 and rm._queued == 1


class TestLocality:
    def test_prefers_local_node(self):
        _c, sched = make_scheduler()
        granted = []
        sched.request(granted.append, preferred=(3,))
        assert granted == [3]
        assert sched.assignments_local == 1

    def test_prefers_rack_when_node_busy(self):
        _c, sched = make_scheduler(map_slots=1)
        sched.request(lambda n: None, preferred=(2,))  # takes node 2
        granted = []
        sched.request(granted.append, preferred=(2,))  # node 2 full -> rack peer 3
        assert granted == [3]
        assert sched.assignments_rack == 1

    def test_falls_back_to_any(self):
        _c, sched = make_scheduler(num_nodes=2, nodes_per_rack=1, map_slots=1)
        sched.request(lambda n: None, preferred=(0,))
        granted = []
        sched.request(granted.append, preferred=(0,))  # other rack only
        assert granted == [1]
        assert sched.assignments_remote == 1

    def test_release_serves_local_waiter_first(self):
        _c, sched = make_scheduler(num_nodes=2, nodes_per_rack=1, map_slots=1)
        sched.request(lambda n: None, preferred=(0,))
        sched.request(lambda n: None, preferred=(1,))
        waited = []
        sched.request(lambda n: waited.append(("any", n)))
        sched.request(lambda n: waited.append(("wants0", n)), preferred=(0,))
        sched.release(0)
        # The queued request preferring node 0 gets it, not the older FIFO one.
        assert waited == [("wants0", 0)]
        sched.release(1)
        assert waited == [("wants0", 0), ("any", 1)]

    def test_spreads_load_without_preference(self):
        _c, sched = make_scheduler()
        nodes = []
        for _ in range(4):
            sched.request(nodes.append)
        assert sorted(nodes) == [0, 1, 2, 3]


class TestSaturation:
    def test_all_slots_usable(self):
        _c, sched = make_scheduler()
        granted = []
        for _ in range(8):
            sched.request(granted.append)
        assert len(granted) == 8
        assert sched.free_slots() == 0
        extra = []
        sched.request(extra.append)
        assert extra == []
        sched.release(granted[0])
        assert len(extra) == 1


class TestConcurrentApps:
    def test_least_granted_app_wins_queue(self):
        """With two saturated apps queued, freed slots alternate to the
        app holding fewer slots."""
        _c, sched = make_scheduler(num_nodes=1, nodes_per_rack=1, map_slots=2)
        grants = []
        # App 1 takes both slots, then queues two more asks; app 2
        # queues two asks behind them.
        for _ in range(4):
            sched.request(lambda n: grants.append(1), app_id=1)
        for _ in range(2):
            sched.request(lambda n: grants.append(2), app_id=2)
        assert grants == [1, 1]
        # App 1 holds 2, app 2 holds 0: the first release must serve
        # app 2 even though app 1 queued first.
        sched.release(0, app_id=1)
        assert grants == [1, 1, 2]
        # Now both hold... app1=1, app2=1: FIFO tie-break -> app 1.
        sched.release(0, app_id=1)
        assert grants == [1, 1, 2, 1]
        sched.release(0, app_id=2)
        assert grants == [1, 1, 2, 1, 2]
        sched.release(0, app_id=1)
        assert grants == [1, 1, 2, 1, 2, 1]

    def test_single_app_is_fifo(self):
        """One app's schedule is the historical FIFO order exactly."""
        _c, sched = make_scheduler(num_nodes=1, nodes_per_rack=1, map_slots=1)
        order = []
        for i in range(5):
            sched.request(lambda n, i=i: order.append(i))
        for _ in range(4):
            sched.release(0)
        assert order == [0, 1, 2, 3, 4]

    def test_locality_outranks_fairness(self):
        """The locality cascade still applies before the fairness rule:
        a node-local request of the greedier app beats an off-rack
        request of the starved one."""
        _c, sched = make_scheduler(num_nodes=2, nodes_per_rack=1, map_slots=1)
        grants = []
        sched.request(lambda n: grants.append("fill0"))
        sched.request(lambda n: grants.append("fill1"))
        sched.request(lambda n: grants.append(("greedy", n)),
                      preferred=(0,), app_id=1)
        sched.request(lambda n: grants.append(("starved", n)), app_id=2)
        sched.release(0)
        assert grants[-1] == ("greedy", 0)


# -- allocator invariants over arbitrary profiles and sequences -------------

_PROFILES = st.builds(
    Resource, st.sampled_from([512, 1024, 3072]), st.integers(1, 2)
)
_PREFERRED = st.sampled_from([(), (0,), (2,), (0, 1)])
_REQUEST = st.tuples(
    st.just("request"), _PROFILES, _PREFERRED, st.integers(0, 1),
)
_RELEASE = st.tuples(st.just("release"), st.integers(0, 10**6))
# Long lists where requests outnumber releases, so queues actually form.
_OPS = st.lists(
    st.one_of(_REQUEST, _REQUEST, _REQUEST, _RELEASE), min_size=20, max_size=60
)


@given(cores=st.integers(1, 2), ram_gb=st.sampled_from([2, 4]), ops=_OPS)
@settings(max_examples=150, deadline=None)
def test_allocator_invariants(cores, ram_gb, ops):
    """Capacity is conserved per node, ``outstanding`` counts what each
    app holds, locality beats every other rule, and identical asks of
    one app are FIFO — after every request and release."""
    cluster = Cluster(
        num_nodes=3, nodes_per_rack=2,
        node_spec=NodeSpec(cores=cores, ram_bytes=ram_gb * 2**30),
    )
    rm = ResourceManager(cluster)
    held = []
    # (app, resource, preferred) -> sequence numbers still queued.
    waiting = {}

    def ask(seq, resource, preferred, app):
        queued = waiting.setdefault((app, resource, preferred), [])
        queued.append(seq)

        def on_grant(container):
            assert container.resource == resource and container.app_id == app
            if container.node_id not in preferred:
                # Locality first: no preferred node had room for it.
                assert not any(resource.fits_in(rm.available(n)) for n in preferred)
            # Identical asks of one app are served in the order made.
            assert queued.pop(0) == seq
            held.append(container)

        rm.request(resource, on_grant, preferred=preferred, app_id=app)

    for seq, op in enumerate(ops):
        if op[0] == "request":
            _, resource, preferred, app = op
            if resource.fits_in(rm.capacity(0)):  # nodes are homogeneous
                ask(seq, resource, preferred, app)
            else:
                with pytest.raises(ValueError, match="capacity"):
                    rm.request(resource, held.append)
        elif held:
            rm.release(held.pop(op[1] % len(held)))

        for node in cluster.nodes:
            used = sum((c.resource for c in held if c.node_id == node.node_id),
                       Resource(0, 0))
            assert rm.available(node.node_id) + used == rm.capacity(node.node_id)
        for app in range(2):
            assert rm.outstanding(app) == sum(c.app_id == app for c in held)
