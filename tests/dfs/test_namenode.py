"""Tests for namenode metadata and replica placement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import NodeSpec, Topology
from repro.dfs.namenode import BlockMeta, Namenode


def make_namenode(num_nodes=8, nodes_per_rack=4, replication=3, block_size=64 * 2**20, seed=0):
    topo = Topology(num_nodes=num_nodes, nodes_per_rack=nodes_per_rack, node_spec=NodeSpec())
    return Namenode(topo, replication=replication, block_size=block_size, seed=seed)


class TestCreate:
    def test_block_splitting(self):
        nn = make_namenode(block_size=100)
        meta = nn.create("/f", 250, writer_node=0)
        assert [b.nbytes for b in meta.blocks] == [100, 100, 50]
        assert meta.nbytes == 250

    def test_zero_byte_file_has_one_empty_block(self):
        nn = make_namenode()
        meta = nn.create("/f", 0, writer_node=0)
        assert [b.nbytes for b in meta.blocks] == [0]

    def test_duplicate_path_rejected(self):
        nn = make_namenode()
        nn.create("/f", 10, writer_node=0)
        with pytest.raises(FileExistsError):
            nn.create("/f", 10, writer_node=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_namenode().create("/f", -1, writer_node=0)

    def test_bad_writer_rejected(self):
        with pytest.raises(ValueError):
            make_namenode().create("/f", 1, writer_node=99)

    def test_lookup_and_exists(self):
        nn = make_namenode()
        assert not nn.exists("/f")
        nn.create("/f", 10, writer_node=1)
        assert nn.exists("/f")
        assert nn.lookup("/f").path == "/f"

    def test_lookup_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            make_namenode().lookup("/nope")


class TestPlacement:
    def test_first_replica_on_writer(self):
        nn = make_namenode()
        meta = nn.create("/f", 10, writer_node=3)
        assert meta.blocks[0].replicas[0] == 3

    def test_second_replica_off_rack(self):
        nn = make_namenode()
        meta = nn.create("/f", 10, writer_node=0)
        second = meta.blocks[0].replicas[1]
        assert nn.topology.nodes[second].rack_id != nn.topology.nodes[0].rack_id

    def test_third_replica_in_second_rack(self):
        nn = make_namenode()
        meta = nn.create("/f", 10, writer_node=0)
        r = meta.blocks[0].replicas
        assert nn.topology.nodes[r[2]].rack_id == nn.topology.nodes[r[1]].rack_id

    def test_replicas_distinct(self):
        nn = make_namenode()
        meta = nn.create("/f", 10, writer_node=0)
        replicas = meta.blocks[0].replicas
        assert len(set(replicas)) == len(replicas) == 3

    def test_replication_capped_at_cluster_size(self):
        nn = make_namenode(num_nodes=2, nodes_per_rack=2, replication=3)
        meta = nn.create("/f", 10, writer_node=0)
        assert len(meta.blocks[0].replicas) == 2

    def test_replication_override(self):
        nn = make_namenode()
        meta = nn.create("/f", 10, writer_node=0, replication=1)
        assert len(meta.blocks[0].replicas) == 1

    def test_single_rack_cluster_still_replicates(self):
        nn = make_namenode(num_nodes=6, nodes_per_rack=6)
        meta = nn.create("/f", 10, writer_node=0)
        assert len(meta.blocks[0].replicas) == 3

    def test_deterministic_for_seed(self):
        a = make_namenode(seed=5).create("/f", 10, writer_node=0)
        b = make_namenode(seed=5).create("/f", 10, writer_node=0)
        assert a.blocks[0].replicas == b.blocks[0].replicas

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 7), st.integers(1, 4))
    def test_placement_invariants_hold(self, writer, replication):
        nn = make_namenode(replication=replication)
        meta = nn.create("/f", 10, writer_node=writer)
        replicas = meta.blocks[0].replicas
        assert replicas[0] == writer
        assert len(set(replicas)) == len(replicas) == replication


class TestClosestReplica:
    """A block's replica set through the reader's rule, Topology.closest."""

    def test_local_wins(self):
        nn = make_namenode()
        block = BlockMeta(block_id=0, nbytes=1, replicas=(1, 5, 6))
        assert nn.topology.closest(block.replicas, 5) == 5

    def test_rack_local_beats_remote(self):
        nn = make_namenode()  # racks: 0-3, 4-7
        block = BlockMeta(block_id=0, nbytes=1, replicas=(1, 6))
        assert nn.topology.closest(block.replicas, 2) == 1
        assert nn.topology.closest(block.replicas, 7) == 6

    def test_remote_fallback_deterministic(self):
        nn = make_namenode(num_nodes=12, nodes_per_rack=4)
        block = BlockMeta(block_id=0, nbytes=1, replicas=(9, 8))
        assert nn.topology.closest(block.replicas, 0) == 8
