"""Property test: the optimized flow simulator is bit-identical to the
pre-structure-of-arrays reference implementation.

For arbitrary two-tier topologies and arbitrary waves of flows (mixed
sizes from zero bytes to tens of GB, intra-node copies included), the
optimized :class:`~repro.cluster.flows.FlowNetwork` must produce exactly
the same completion order, the same completion instants (as IEEE
doubles, not approximately), the same final rates, the same per-link
byte counters, and the same traffic-meter snapshot as
:class:`tests.cluster.reference_flows.ReferenceFlowNetwork`.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster.events import Simulation
from repro.cluster.flows import _SMALL_ENTRIES, _SMALL_ROWS, FlowNetwork
from repro.cluster.metrics import TrafficMeter
from repro.cluster.topology import NodeSpec, Topology
from tests.cluster.reference_flows import ReferenceFlowNetwork

# Byte counts spanning the interesting regimes: zero-byte control
# messages, sub-epsilon dribbles, ordinary shuffle buckets, and
# multi-GB flows where only the scale-aware epsilon terminates cleanly.
_SIZES = st.one_of(
    st.sampled_from([0.0, 5e-7, 1.0, 1024.0, 3.7e6, 1e9, 2.5e10]),
    st.floats(min_value=0.0, max_value=1e10, allow_nan=False,
              allow_infinity=False),
)


@st.composite
def _scenarios(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=10))
    nodes_per_rack = draw(st.integers(min_value=1, max_value=num_nodes))
    oversubscription = draw(st.sampled_from([1.0, 2.0, 4.0]))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    waves = []
    start = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        start += draw(st.floats(min_value=0.0, max_value=3.0,
                                allow_nan=False, allow_infinity=False))
        flows = draw(st.lists(st.tuples(node, node, _SIZES),
                              min_size=1, max_size=10))
        waves.append((start, flows))
    return num_nodes, nodes_per_rack, oversubscription, waves


def _run(scenario, optimized: bool, network=FlowNetwork):
    """Simulate one scenario; return everything observable.

    ``network`` substitutes an instrumented :class:`FlowNetwork` subclass
    on the optimized side.
    """
    num_nodes, nodes_per_rack, oversubscription, waves = scenario
    sim = Simulation()
    topology = Topology(
        num_nodes=num_nodes,
        nodes_per_rack=nodes_per_rack,
        node_spec=NodeSpec(),
        oversubscription=oversubscription,
    )
    meter = TrafficMeter()
    net = (network if optimized else ReferenceFlowNetwork)(sim, topology, meter)
    log: list[tuple[int, float, float]] = []

    def on_done(flow) -> None:
        log.append((flow.flow_id, sim.now, flow.rate))

    for start, flows in waves:
        if optimized:
            requests = [
                (src, dst, nbytes, "shuffle", on_done)
                for src, dst, nbytes in flows
            ]
            sim.schedule(start, lambda reqs=requests: net.start_flows(reqs))
        else:
            def launch(batch=flows):
                for src, dst, nbytes in batch:
                    net.start_flow(src, dst, nbytes, "shuffle", on_done)

            sim.schedule(start, launch)
    sim.run()
    carried = [link.bytes_carried for link in topology.links]
    return log, meter.snapshot(), sim.now, carried


@given(_scenarios())
@settings(max_examples=40, deadline=None)
def test_optimized_matches_reference_bit_for_bit(scenario):
    ref_log, ref_meter, ref_now, ref_carried = _run(scenario, optimized=False)
    opt_log, opt_meter, opt_now, opt_carried = _run(scenario, optimized=True)
    # Completion order, instants, and rates — exact float equality.
    assert opt_log == ref_log
    assert opt_meter == ref_meter
    assert opt_now == ref_now
    assert opt_carried == ref_carried


@st.composite
def _component_scenarios(draw):
    """Scenarios with a controlled component structure: 1–8 rack-local
    flow groups (disjoint components of the flow–link graph), plus
    optional cross-rack bridge flows that fuse some of them through the
    core links."""
    num_components = draw(st.integers(min_value=1, max_value=8))
    nodes_per_rack = draw(st.integers(min_value=2, max_value=4))
    num_nodes = num_components * nodes_per_rack
    oversubscription = draw(st.sampled_from([1.0, 4.0]))
    rack_node = st.integers(min_value=0, max_value=nodes_per_rack - 1)
    waves = []
    start = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        start += draw(st.floats(min_value=0.0, max_value=2.0,
                                allow_nan=False, allow_infinity=False))
        flows = []
        for rack in range(num_components):
            base = rack * nodes_per_rack
            for src, dst, nbytes in draw(
                st.lists(st.tuples(rack_node, rack_node, _SIZES),
                         min_size=1, max_size=4)
            ):
                flows.append((base + src, base + dst, nbytes))
        # Bridge flows: each one crosses the core and merges the two
        # racks' components into one.
        if num_components > 1:
            for src_rack, dst_rack, src, dst, nbytes in draw(
                st.lists(
                    st.tuples(
                        st.integers(0, num_components - 1),
                        st.integers(0, num_components - 1),
                        rack_node, rack_node, _SIZES,
                    ),
                    min_size=0, max_size=3,
                )
            ):
                flows.append((
                    src_rack * nodes_per_rack + src,
                    dst_rack * nodes_per_rack + dst,
                    nbytes,
                ))
        waves.append((start, flows))
    return num_nodes, nodes_per_rack, oversubscription, waves


@given(_component_scenarios())
@settings(max_examples=40, deadline=None)
def test_component_scoped_rates_match_reference(scenario):
    """Bit-identity on graphs engineered to span 1–8 disjoint and
    bridged components — the regime the incremental union-find,
    reachability-gated splitting, and dirty-set scoping actually
    exercise."""
    ref = _run(scenario, optimized=False)
    opt = _run(scenario, optimized=True)
    assert opt == ref


def test_unrelated_job_timer_survives_other_jobs_churn():
    """Arrivals and completions in job A must not cancel or reschedule
    job B's per-component completion timer: the two jobs live in
    disjoint components, so B's timer Event must stay the *same object*
    throughout A's churn."""
    sim = Simulation()
    topology = Topology(
        num_nodes=8, nodes_per_rack=4, node_spec=NodeSpec(),
        oversubscription=2.0,
    )
    net = FlowNetwork(sim, topology, TrafficMeter())
    done_a: list[int] = []
    # Job B: one long rack-local flow in rack 1.
    flow_b = net.start_flow(4, 5, 1e9, "shuffle")
    # Job A: short churning flows in rack 0.
    for _ in range(3):
        net.start_flow(0, 1, 1e6, "shuffle",
                       lambda f: done_a.append(f.flow_id))
    # A mid-run arrival in job A, long before B finishes.
    sim.schedule(1e-4, lambda: net.start_flow(
        0, 2, 1e6, "shuffle", lambda f: done_a.append(f.flow_id)))
    sim.run_until(0.0)  # initial recompute: both components planned
    link_b = topology.path(4, 5)[0].link_id
    root_b = net._find(link_b)
    timer_b = net._comp[root_b].timer
    assert timer_b is not None
    while len(done_a) < 4:
        assert sim.step()
        assert net._comp[root_b].timer is timer_b
        assert not timer_b.cancelled
    sim.run()
    assert flow_b.done
    assert flow_b.completed_at is not None and flow_b.completed_at > 0.0


def test_reference_and_optimized_agree_on_contended_fanout():
    """A deterministic heavier case: all-to-all on an oversubscribed
    two-rack cluster, sizes spanning three orders of magnitude."""
    waves = [
        (
            0.0,
            [
                (src, dst, 1e6 * (1 + (3 * src + 5 * dst) % 7))
                for src in range(8)
                for dst in range(8)
            ],
        ),
        (0.5, [(0, 7, 2.5e10), (3, 3, 1e4), (5, 2, 0.0)]),
    ]
    scenario = (8, 4, 4.0, waves)
    ref = _run(scenario, optimized=False)
    opt = _run(scenario, optimized=True)
    assert opt == ref


# -- route classes ------------------------------------------------------
#
# Rates are allocated per route class (one ``(src, dst)`` route with a
# multiplicity).  The strategies above cap a wave at 10 flows, so a class
# rarely has two members; the ones below pile many flows on few routes.


@st.composite
def _duplicated_route_scenarios(draw):
    """2–4 nodes (at most 12 routes) under 40–150 flows per staggered
    wave: components far beyond ``_SMALL_ROWS`` rows on a handful of
    classes, which gain and lose members mid-flight and cross 0↔1 as
    small flows drain between waves."""
    num_nodes = draw(st.integers(min_value=2, max_value=4))
    nodes_per_rack = draw(st.integers(min_value=1, max_value=num_nodes))
    oversubscription = draw(st.sampled_from([1.0, 2.0, 4.0]))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    waves = []
    start = 0.0
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        start += draw(st.floats(min_value=0.0, max_value=3.0,
                                allow_nan=False, allow_infinity=False))
        flows = draw(st.lists(st.tuples(node, node, _SIZES),
                              min_size=40, max_size=150))
        waves.append((start, flows))
    return num_nodes, nodes_per_rack, oversubscription, waves


class _CheckedNetwork(FlowNetwork):
    """Counts the refills each arm serves and checks, at every recompute
    and every refill, that the class table agrees with the rows."""

    def __init__(self, *args):
        super().__init__(*args)
        self.few = self.many = 0
        self.most_rows_on_few = 0

    def check_class_table(self) -> None:
        members = [0] * len(self._class_count)
        for cls in self._row_class[: self._n].tolist():
            members[cls] += 1
        assert members == self._class_count
        for link in range(self._num_links):
            classes = self._link_classes[link][: self._link_entries[link]].tolist()
            assert len(set(classes)) == len(classes)
            assert all(link in self._class_links[cls] for cls in classes)
            assert all(self._class_count[cls] > 0 for cls in classes)
            assert sum(self._class_count[cls] for cls in classes) == \
                self._link_sizes[link]
        for cls, links in enumerate(self._class_links):
            if self._class_count[cls]:
                for slot, link in enumerate(links):
                    assert self._link_classes[link][self._class_pos[cls][slot]] == cls

    def assert_drained(self) -> None:
        assert self._n == 0 and not self._comp
        assert not any(self._class_count)
        assert not any(self._link_entries)
        assert not any(self._link_sizes)
        assert not any(self._adj)

    def _do_recompute(self):
        self.check_class_table()
        super()._do_recompute()

    def _refill_few(self, comp, unfrozen):
        self.few += 1
        self.most_rows_on_few = max(self.most_rows_on_few, unfrozen)
        entries = sum(self._link_entries[link] for link in comp.links)
        assert entries <= _SMALL_ENTRIES
        super()._refill_few(comp, unfrozen)

    def _refill_many(self, comp, classes):
        self.many += 1
        assert len(set(classes.tolist())) > _SMALL_ROWS
        super()._refill_many(comp, classes)


def _run_checked(scenario) -> _CheckedNetwork:
    """Run ``scenario`` on a :class:`_CheckedNetwork`, require the
    reference's observables bit for bit, and hand the network back."""
    nets = []

    def network(*args):
        nets.append(_CheckedNetwork(*args))
        return nets[-1]

    assert _run(scenario, optimized=True, network=network) == \
        _run(scenario, optimized=False)
    (net,) = nets
    return net


@given(_duplicated_route_scenarios())
@settings(max_examples=25, deadline=None)
def test_duplicated_routes_match_reference(scenario):
    """Bit-identity when most flows share a route with many others, with
    the class table checked against the rows at every recompute and
    empty once the network drains."""
    net = _run_checked(scenario)
    # At most 12 routes: every refill is the scalar class arm, however
    # many rows the component has.
    assert net.many == 0
    net.assert_drained()


def test_many_rows_on_few_classes_take_the_scalar_arm():
    """The regime the class table is for, pinned deterministically: 120
    flows per wave over the six routes of three nodes are one component
    of well over ``_SMALL_ROWS`` rows, filled by the scalar class arm."""
    def wave(scale):
        return [
            (i % 3, (i + 1 + i % 2) % 3, scale * (1 + (5 * i) % 7))
            for i in range(120)
        ]
    net = _run_checked((3, 3, 1.0, [(0.0, wave(1e6)), (0.05, wave(3e5))]))
    assert net.many == 0 and net.few > 0
    assert net.most_rows_on_few > 3 * _SMALL_ROWS
    net.assert_drained()


@st.composite
def _alltoall_scenarios(draw):
    """12–14 nodes all-to-all (132–182 routes, 1–3 flows each) with
    sizes spread over two orders of magnitude, then a second wave on a
    few of the routes: the one component starts far above the class
    dispatch threshold and drains through it."""
    num_nodes = draw(st.integers(min_value=12, max_value=14))
    nodes_per_rack = draw(st.sampled_from([3, 4, 7, num_nodes]))
    oversubscription = draw(st.sampled_from([1.0, 4.0]))
    a, b, modulus = draw(st.tuples(
        st.integers(1, 12), st.integers(1, 12), st.sampled_from([11, 17, 23])))
    copies = draw(st.integers(min_value=1, max_value=3))
    first = [
        (src, dst, 1e6 * (1 + (a * src + b * dst + 5 * copy) % modulus) ** 2)
        for src in range(num_nodes)
        for dst in range(num_nodes)
        if src != dst
        for copy in range(copies)
    ]
    node = st.integers(min_value=0, max_value=3)
    second = draw(st.lists(st.tuples(node, node, _SIZES), min_size=1, max_size=30))
    later = draw(st.floats(min_value=0.0, max_value=2.0,
                           allow_nan=False, allow_infinity=False))
    return num_nodes, nodes_per_rack, oversubscription, [(0.0, first), (later, second)]


@given(_alltoall_scenarios())
@settings(max_examples=10, deadline=None)
def test_class_count_straddling_the_dispatch_matches_reference(scenario):
    """Both filling arms in one run, compared bit for bit: the vectorized
    arm while more than ``_SMALL_ROWS`` classes are active (some with
    multiplicity above one), the scalar arm once enough have drained."""
    net = _run_checked(scenario)
    assert net.many > 0 and net.few > 0
    net.assert_drained()


def test_class_table_holds_and_drains_across_concurrent_jobs(monkeypatch, pipeline=False):
    """Three waves of eight whole jobs co-scheduled through ``run_many``
    on one cluster — classes waking and retiring under the DFS, shuffle
    and model traffic of unrelated jobs — keep the class table equal to
    the rows at every recompute and leave nothing behind.  Barrier mode
    as collected (a defaulted argument is no fixture); the pipelined
    twin below passes ``pipeline=True``."""
    import copy

    from repro.apps.kmeans import KMeansProgram, gaussian_mixture
    from repro.cluster import cluster as cluster_module
    from repro.dfs.dfs import DistributedFileSystem
    from repro.mapreduce.records import DistributedDataset
    from repro.mapreduce.runner import JobRunner
    from repro.parallel import SerialExecutor

    monkeypatch.setattr(cluster_module, "FlowNetwork", _CheckedNetwork)
    records, _ = gaussian_mixture(1_500, 4, dim=3, separation=6.0, seed=1)
    program = KMeansProgram(k=4, dim=3, threshold=0.1)
    model0 = program.initial_model(records, seed=2)
    cluster = cluster_module.Cluster(
        num_nodes=16, nodes_per_rack=4, oversubscription=4.0
    )
    dfs = DistributedFileSystem(cluster, replication=2, seed=5)
    runner = JobRunner(cluster, dfs, executor=SerialExecutor(), pipeline=pipeline)
    datasets = [
        DistributedDataset.materialize(
            dfs, f"/classes/concurrent-{j}", records, num_splits=8
        )
        for j in range(8)
    ]
    for wave in range(3):
        results = runner.run_many([
            (
                program.job_spec(suffix=f"-{wave}-{j}"),
                dataset,
                {
                    "model": copy.deepcopy(model0),
                    "model_bytes": program.model_bytes(model0),
                    "model_locations": ((j + wave) % cluster.num_nodes,),
                },
            )
            for j, dataset in enumerate(datasets)
        ])
        assert len(results) == 8
        cluster.network.assert_drained()
    net = cluster.network
    assert net.few + net.many > 100


def test_class_table_holds_and_drains_across_pipelined_concurrent_jobs(monkeypatch):
    test_class_table_holds_and_drains_across_concurrent_jobs(monkeypatch, pipeline=True)
