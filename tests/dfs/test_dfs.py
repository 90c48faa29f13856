"""Tests for the DFS data plane (pipelines) and reads of its files."""

from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem


def make(num_nodes=8, nodes_per_rack=4, replication=3, **kw):
    cluster = Cluster(num_nodes=num_nodes, nodes_per_rack=nodes_per_rack)
    return cluster, DistributedFileSystem(cluster, replication=replication, **kw)


class TestWrite:
    def test_pipeline_fabric_bytes(self):
        cluster, dfs = make()
        dfs.write("/f", 1000, writer_node=0, category="dfs_write")
        cluster.run()
        # 3 replicas: writer's local copy is off-fabric, 2 pipeline hops on it.
        assert cluster.meter.fabric("dfs_write") == 2000
        assert cluster.meter.total("dfs_write") == 3000

    def test_completion_callback_fires_once(self):
        cluster, dfs = make()
        done = []
        dfs.write("/f", 1000, writer_node=0, on_complete=lambda m: done.append(m))
        cluster.run()
        assert len(done) == 1
        assert done[0].path == "/f"

    def test_zero_byte_write_completes(self):
        cluster, dfs = make()
        done = []
        dfs.write("/f", 0, writer_node=0, on_complete=lambda m: done.append(m))
        cluster.run()
        assert len(done) == 1

    def test_replication_override(self):
        cluster, dfs = make()
        dfs.write("/f", 1000, writer_node=0, category="w", replication=1)
        cluster.run()
        assert cluster.meter.fabric("w") == 0
        assert cluster.meter.total("w") == 1000

    def test_write_takes_time(self):
        cluster, dfs = make()
        dfs.write("/f", 100 * 2**20, writer_node=0)
        cluster.run()
        assert cluster.now > 0


def read(cluster, dfs, path, reader_node, category="dfs_read", on_complete=None):
    """Read every block of ``path`` the way the job runner reads a split:
    the replica ``Topology.closest`` picks, charged by ``Cluster.move``."""
    blocks = dfs.namenode.lookup(path).blocks
    done = []

    def part_done(_flow=None):
        done.append(1)
        if len(done) == len(blocks) and on_complete:
            on_complete(path)

    for block in blocks:
        src = cluster.topology.closest(block.replicas, reader_node)
        cluster.move(src, reader_node, block.nbytes, category, part_done)


class TestRead:
    def test_local_read_off_fabric(self):
        cluster, dfs = make()
        dfs.write("/f", 1000, writer_node=2)
        cluster.run()
        snap = cluster.meter.snapshot()
        read(cluster, dfs, "/f", reader_node=2)
        cluster.run()
        delta = cluster.meter.diff(snap)
        assert delta["dfs_read"]["total_bytes"] == 1000
        assert delta["dfs_read"]["fabric_bytes"] == 0

    def test_remote_read_on_fabric(self):
        cluster, dfs = make(num_nodes=8, nodes_per_rack=4, replication=1)
        dfs.write("/f", 1000, writer_node=0)
        cluster.run()
        read(cluster, dfs, "/f", reader_node=5)
        cluster.run()
        assert cluster.meter.fabric("dfs_read") == 1000

    def test_read_completion_callback(self):
        cluster, dfs = make()
        dfs.write("/f", 500, writer_node=0)
        cluster.run()
        done = []
        read(cluster, dfs, "/f", reader_node=1, on_complete=done.append)
        cluster.run()
        assert done == ["/f"]

    def test_read_block_single(self):
        cluster, dfs = make(block_size=100)
        dfs.write("/f", 250, writer_node=0)
        cluster.run()
        snap = cluster.meter.snapshot()
        block = dfs.namenode.lookup("/f").blocks[2]
        src = cluster.topology.closest(block.replicas, 0)
        cluster.move(src, 0, block.nbytes, "dfs_read", lambda *_: None)
        cluster.run()
        assert cluster.meter.diff(snap)["dfs_read"]["total_bytes"] == 50


class TestBlockLocations:
    def test_locations_shape(self):
        cluster, dfs = make(block_size=100)
        dfs.write("/f", 250, writer_node=0)
        cluster.run()
        locs = [block.replicas for block in dfs.namenode.lookup("/f").blocks]
        assert len(locs) == 3
        assert all(len(replicas) == 3 for replicas in locs)
