"""Namenode: file/block metadata and replica placement policy."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.topology import Topology
from repro.util.rng import SeedLike, as_generator

DEFAULT_BLOCK_SIZE = 64 * 2**20  # Hadoop 0.20's default 64 MB


def _path_entropy(path: str) -> int:
    """Stable 64-bit entropy for one file path (platform-independent)."""
    return int.from_bytes(hashlib.sha256(path.encode("utf-8")).digest()[:8], "big")


@dataclass
class BlockMeta:
    """One block of a file and the nodes holding its replicas."""

    block_id: int
    nbytes: int
    replicas: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"block size must be non-negative, got {self.nbytes}")
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError(f"duplicate replica nodes: {self.replicas}")


@dataclass
class FileMeta:
    """A file: ordered blocks plus total size."""

    path: str
    blocks: list[BlockMeta] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        """Total file size across blocks."""
        return sum(b.nbytes for b in self.blocks)


class Namenode:
    """Tracks files, splits them into blocks, and places replicas.

    Placement follows HDFS's default policy:

    1. first replica on the writer node;
    2. second replica on a node in a *different* rack (when one exists);
    3. third replica on a different node in the second replica's rack;
    4. further replicas on random nodes not yet holding the block.
    """

    def __init__(
        self,
        topology: Topology,
        replication: int = 3,
        block_size: int = DEFAULT_BLOCK_SIZE,
        seed: SeedLike = 0,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.topology = topology
        self.replication = min(replication, topology.num_nodes)
        self.block_size = block_size
        # Placement is a pure function of (seed, path): each create()
        # derives a per-file stream instead of drawing from one shared
        # cursor, so which of two same-timestamp writes registers first
        # cannot shift every later file's replica choices.
        if isinstance(seed, int):
            self._placement_entropy = seed
        else:
            self._placement_entropy = int(
                as_generator(seed).integers(0, 2**63 - 1)
            )
        self._files: dict[str, FileMeta] = {}
        self._next_block_id = 0

    # -- metadata operations -------------------------------------------

    def exists(self, path: str) -> bool:
        """True when ``path`` is a registered file."""
        return path in self._files

    def lookup(self, path: str) -> FileMeta:
        """Metadata for ``path`` (FileNotFoundError when absent)."""
        if path not in self._files:
            raise FileNotFoundError(f"no such DFS file: {path}")
        return self._files[path]

    # -- allocation -----------------------------------------------------

    def create(
        self, path: str, nbytes: int, writer_node: int, replication: int | None = None
    ) -> FileMeta:
        """Register a new file of ``nbytes`` written from ``writer_node``.

        Returns the metadata with blocks and replica placements decided;
        the data-plane cost is the DFS layer's job.  ``replication``
        overrides the filesystem default for this file.
        """
        if nbytes < 0:
            raise ValueError(f"file size must be non-negative, got {nbytes}")
        if self.exists(path):
            raise FileExistsError(f"DFS file already exists: {path}")
        if not 0 <= writer_node < self.topology.num_nodes:
            raise ValueError(f"writer node {writer_node} out of range")
        if replication is None:
            replication = self.replication
        replication = min(replication, self.topology.num_nodes)
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        meta = FileMeta(path=path)
        rng = as_generator(
            np.random.SeedSequence([self._placement_entropy, _path_entropy(path)])
        )
        remaining = nbytes
        while True:
            chunk = min(remaining, self.block_size)
            replicas = self._place_replicas(writer_node, replication, rng)
            block = BlockMeta(
                block_id=self._next_block_id, nbytes=chunk, replicas=replicas
            )
            self._next_block_id += 1
            meta.blocks.append(block)
            remaining -= chunk
            if remaining <= 0:
                break
        self._files[path] = meta
        return meta

    def _place_replicas(
        self, writer_node: int, replication: int, rng: np.random.Generator
    ) -> tuple[int, ...]:
        topo = self.topology
        placed = [writer_node]
        if replication >= 2:
            writer_rack = topo.nodes[writer_node].rack_id
            off_rack = [n.node_id for n in topo.nodes if n.rack_id != writer_rack]
            if off_rack:
                second = int(rng.choice(off_rack))
            else:
                candidates = [n.node_id for n in topo.nodes if n.node_id != writer_node]
                second = int(rng.choice(candidates)) if candidates else None
            if second is not None:
                placed.append(second)
        if replication >= 3 and len(placed) == 2:
            second_rack = topo.nodes[placed[1]].rack_id
            same_rack = [
                n.node_id
                for n in topo.nodes
                if n.rack_id == second_rack and n.node_id not in placed
            ]
            pool = same_rack or [
                n.node_id for n in topo.nodes if n.node_id not in placed
            ]
            if pool:
                placed.append(int(rng.choice(pool)))
        while len(placed) < replication:
            pool = [n.node_id for n in topo.nodes if n.node_id not in placed]
            if not pool:
                break
            placed.append(int(rng.choice(pool)))
        return tuple(placed)
