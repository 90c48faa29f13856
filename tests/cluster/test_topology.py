"""Tests for nodes, racks and the two-tier link graph."""

import itertools

import pytest

from repro.cluster.topology import GIGABIT, NodeSpec, Topology


def make(num_nodes=8, nodes_per_rack=4, **kw) -> Topology:
    return Topology(
        num_nodes=num_nodes,
        nodes_per_rack=nodes_per_rack,
        node_spec=NodeSpec(),
        **kw,
    )


class TestNodeSpec:
    def test_defaults_valid(self):
        spec = NodeSpec()
        assert spec.cores == 8

    @pytest.mark.parametrize(
        "kw",
        [
            {"cores": 0},
            {"map_slots": -1},
            {"cpu_speed": 0},
            {"disk_bandwidth": -1},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            NodeSpec(**kw)


class TestConstruction:
    def test_rack_count(self):
        assert make(8, 4).num_racks == 2
        assert make(9, 4).num_racks == 3

    def test_rack_assignment_contiguous(self):
        topo = make(8, 4)
        assert [n.rack_id for n in topo.nodes] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_link_count(self):
        topo = make(8, 4)
        # 2 per node + 2 per rack
        assert len(topo.links) == 8 * 2 + 2 * 2

    def test_default_uplink_matches_aggregate(self):
        topo = make(8, 4)
        assert topo.rack_uplink_bandwidth == pytest.approx(4 * GIGABIT)

    def test_oversubscription_shrinks_uplink(self):
        topo = make(8, 4, oversubscription=4.0)
        assert topo.rack_uplink_bandwidth == pytest.approx(GIGABIT)

    def test_explicit_uplink_wins(self):
        topo = make(8, 4, rack_uplink_bandwidth=5e8, oversubscription=2.0)
        assert topo.rack_uplink_bandwidth == 5e8

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            make(0)

    def test_undersubscription_rejected(self):
        with pytest.raises(ValueError):
            make(oversubscription=0.5)

    def test_slot_totals(self):
        topo = make(6, 6)
        assert topo.total_map_slots() == 24
        assert topo.total_reduce_slots() == 24


class TestPaths:
    def test_same_node_empty_path(self):
        assert make().path(3, 3) == []

    def test_same_rack_two_hops(self):
        topo = make(8, 4)
        path = topo.path(0, 1)
        assert [l.name for l in path] == ["node0.up", "node1.down"]
        assert not any(l.is_core for l in path)

    def test_cross_rack_four_hops(self):
        topo = make(8, 4)
        path = topo.path(0, 5)
        assert [l.name for l in path] == [
            "node0.up", "rack0.core_up", "rack1.core_down", "node5.down",
        ]
        assert sum(l.is_core for l in path) == 2

    def test_crosses_core(self):
        topo = make(8, 4)
        assert not topo.crosses_core(0, 1)
        assert topo.crosses_core(0, 5)
        assert not topo.crosses_core(2, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make().path(0, 99)

    def test_rack_members(self):
        topo = make(8, 4)
        assert [n.node_id for n in topo.rack_members(1)] == [4, 5, 6, 7]

    def test_rack_members_out_of_range(self):
        with pytest.raises(ValueError):
            make(8, 4).rack_members(5)


def closest_replica_rule(topo, candidates, reader):
    """The replica rule as the namenode and the job runner each wrote it."""
    if reader in candidates:
        return reader
    reader_rack = topo.nodes[reader].rack_id
    same_rack = [r for r in candidates if topo.nodes[r].rack_id == reader_rack]
    if same_rack:
        return min(same_rack)
    return min(candidates)


class TestClosest:
    def test_every_subset_and_reader_matches_the_replica_rule(self):
        topo = make(8, 4)
        for size in range(1, 9):
            for subset in itertools.combinations(range(8), size):
                for candidates in (subset, subset[::-1]):
                    for reader in range(8):
                        assert topo.closest(candidates, reader) == (
                            closest_replica_rule(topo, candidates, reader)
                        ), (candidates, reader)

