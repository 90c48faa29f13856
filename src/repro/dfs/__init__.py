"""HDFS-like distributed file system on the simulated cluster.

Files are split into fixed-size blocks; each block is replicated
(default 3×) using the HDFS placement policy (first replica on the
writer, second off-rack, third on the second's rack).  Writes are
charged as replication *pipelines* on the flow network — this is exactly
the "model is stored in the cluster file system with replicas" cost the
paper identifies as the model-update bottleneck.  The package places
and writes; a reader picks its replica with ``Topology.closest`` (local
disk > same rack > cross rack) and charges it with ``Cluster.move``.
"""

from repro.dfs.namenode import Namenode, FileMeta, BlockMeta
from repro.dfs.dfs import DistributedFileSystem

__all__ = ["DistributedFileSystem", "Namenode", "FileMeta", "BlockMeta"]
