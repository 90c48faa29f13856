"""Data plane of the simulated DFS: replication pipelines.

A write of one block charges a *pipeline*: writer → replica₂ → replica₃.
In steady state a pipeline moves each byte over every hop, so the fabric
cost of a write is ``nbytes × (replicas − 1)`` transfers plus the local
disk write on the writer.  Every copy is one :meth:`Cluster.move`.

Readers pick a replica with :meth:`Topology.closest` and charge it with
the same :meth:`Cluster.move`; the file system itself only places and
writes.  All operations complete via callbacks on the simulated clock,
so the MapReduce layer can sequence task work after its I/O without
blocking.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import TrafficCategory
from repro.dfs.namenode import DEFAULT_BLOCK_SIZE, FileMeta, Namenode
from repro.util.rng import SeedLike


class DistributedFileSystem:
    """HDFS-like block store bound to one :class:`Cluster`."""

    def __init__(
        self,
        cluster: Cluster,
        replication: int = 3,
        block_size: int = DEFAULT_BLOCK_SIZE,
        seed: SeedLike = 17,
    ) -> None:
        self.cluster = cluster
        self.namenode = Namenode(
            cluster.topology,
            replication=replication,
            block_size=block_size,
            seed=seed,
        )

    def write(
        self,
        path: str,
        nbytes: int,
        writer_node: int,
        category: str = TrafficCategory.DFS_WRITE,
        on_complete: Callable[[FileMeta], None] | None = None,
        replication: int | None = None,
    ) -> FileMeta:
        """Create ``path`` with ``nbytes`` of data produced on ``writer_node``.

        The call registers metadata immediately and starts the pipeline
        transfers; ``on_complete`` fires when the last replica of the
        last block has landed.
        """
        meta = self.namenode.create(path, nbytes, writer_node, replication=replication)
        # Per block: the writer's local copy (its first replica), then
        # one hop along the pipeline to each further replica.
        moves = [
            (src, dst, block.nbytes)
            for block in meta.blocks
            for src, dst in zip(block.replicas[:1] + block.replicas, block.replicas)
        ]
        pending = {"count": len(moves)}

        def block_part_done(_flow=None) -> None:
            pending["count"] -= 1
            if pending["count"] == 0 and on_complete:
                on_complete(meta)

        for src, dst, block_bytes in moves:
            self.cluster.move(src, dst, block_bytes, category, block_part_done)
        return meta
