"""Simulated per-node memory cache for loop-invariant data.

Iterative frameworks of the Spark/HaLoop era keep loop-invariant
inputs resident in executor memory so only the first iteration pays
the scan.  This module models that residency on the simulated cluster:
each node gets a byte budget (the fixed fraction ``DEFAULT_CACHE_RATIO``
of its ``NodeSpec.ram_bytes``), entries are inserted when data is first
materialized on the node, later lookups hit for free, and when the
budget runs out the least-recently-used *unpinned* entry is evicted.

Two operations reserve space:

* :meth:`NodeMemoryCache.put` marks an entry resident after its bytes
  were actually moved/charged — a hit can only ever replay a read the
  simulation already paid for once, which is what keeps pipelined
  byte totals comparable to barrier-mode runs;
* :meth:`NodeMemoryCache.pin` reserves the entry and protects it from
  eviction until the returned :class:`CachePin` is released.  Pins are
  owned handles: release exactly once, on every path (a second release
  raises; ``tests/pic/test_cache_pins.py`` checks that no pin outlives
  the best-effort phase).

Counters (hits/misses/evictions) feed the per-iteration stats the
engine and driver report.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.cluster import Cluster

#: Fraction of each node's RAM available for loop-invariant caching.
#: Half mirrors the default executor-memory split of the era's engines.
DEFAULT_CACHE_RATIO = 0.5

#: A cache entry's identity: (dataset path, split index).
CacheKey = tuple[str, int]


@dataclass(frozen=True)
class CacheStats:
    """Monotonic cache counters (diffable per iteration)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
        )


class _Entry:
    """Book-keeping for one cached object on one node."""

    __slots__ = ("nbytes", "resident", "pins")

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes
        self.resident = False
        self.pins = 0


class CachePin:
    """Owned handle protecting one cache entry from eviction.

    Created only by :meth:`NodeMemoryCache.pin`.  Must be released
    exactly once; releasing twice raises, mirroring the simulator's
    slot over-release guard.  Usable as a context manager.
    """

    __slots__ = ("_cache", "_node", "_key", "_released")

    def __init__(self, cache: "NodeMemoryCache", node: int, key: CacheKey) -> None:
        self._cache = cache
        self._node = node
        self._key = key
        self._released = False

    def release(self) -> None:
        """Drop eviction protection (the entry may stay resident)."""
        if self._released:
            raise RuntimeError(f"cache pin for {self._key!r} already released")
        self._released = True
        self._cache._unpin(self._node, self._key)

    def __enter__(self) -> "CachePin":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class NodeMemoryCache:
    """Per-node LRU byte budget for loop-invariant simulated data.

    Accounting invariant (property-tested): for every node,
    ``pinned_bytes + unpinned_bytes + free_bytes == capacity`` with all
    three non-negative, and pinned entries are never evicted.
    """

    def __init__(self, capacities: list[int]) -> None:
        for cap in capacities:
            if cap < 0:
                raise ValueError(f"cache capacity must be non-negative, got {cap}")
        self.capacities = list(capacities)
        self._entries: list[OrderedDict[CacheKey, _Entry]] = [
            OrderedDict() for _ in capacities
        ]
        self._used = [0] * len(capacities)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def from_cluster(cls, cluster: "Cluster") -> "NodeMemoryCache":
        """Budget each node ``ram_bytes * DEFAULT_CACHE_RATIO``."""
        return cls(
            [int(n.spec.ram_bytes * DEFAULT_CACHE_RATIO) for n in cluster.nodes]
        )

    # -- queries -------------------------------------------------------

    def lookup(self, node: int, key: CacheKey) -> bool:
        """Hit iff ``key`` is resident on ``node``; touches LRU order."""
        entry = self._entries[node].get(key)
        if entry is not None and entry.resident:
            self._entries[node].move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def used_bytes(self, node: int) -> int:
        """Bytes reserved on ``node`` (resident or pinned-reserved)."""
        return self._used[node]

    def free_bytes(self, node: int) -> int:
        """Unreserved budget left on ``node``."""
        return self.capacities[node] - self._used[node]

    def pinned_bytes(self, node: int) -> int:
        """Bytes on ``node`` protected from eviction."""
        return sum(e.nbytes for e in self._entries[node].values() if e.pins > 0)

    def snapshot(self) -> CacheStats:
        """Current counters (subtract two snapshots for a window)."""
        return CacheStats(self.hits, self.misses, self.evictions)

    # -- reservation ---------------------------------------------------

    def put(self, node: int, key: CacheKey, nbytes: int) -> bool:
        """Mark ``key`` resident after its bytes were charged.

        Returns False (and caches nothing) when the entry cannot fit
        even after evicting every unpinned entry — the read stays
        uncached and later lookups miss.
        """
        if nbytes < 0:
            raise ValueError(f"cache entry size must be non-negative, got {nbytes}")
        entry = self._entries[node].get(key)
        if entry is not None:
            if entry.nbytes != nbytes:
                raise RuntimeError(
                    f"cache entry {key!r} size changed "
                    f"({entry.nbytes} -> {nbytes}); keys must be content-stable"
                )
            entry.resident = True
            self._entries[node].move_to_end(key)
            return True
        if not self._reserve(node, nbytes):
            return False
        entry = _Entry(nbytes)
        entry.resident = True
        self._entries[node][key] = entry
        self._used[node] += nbytes
        return True

    def pin(self, node: int, key: CacheKey, nbytes: int) -> CachePin | None:
        """Reserve ``key`` on ``node`` and protect it from eviction.

        Returns ``None`` when the reservation cannot fit; the caller
        proceeds uncached.  Pinning does *not* make the entry resident
        — the first real read still pays and then calls :meth:`put`.
        """
        if nbytes < 0:
            raise ValueError(f"cache entry size must be non-negative, got {nbytes}")
        entry = self._entries[node].get(key)
        if entry is None:
            if not self._reserve(node, nbytes):
                return None
            entry = _Entry(nbytes)
            self._entries[node][key] = entry
            self._used[node] += nbytes
        elif entry.nbytes != nbytes:
            raise RuntimeError(
                f"cache entry {key!r} size changed "
                f"({entry.nbytes} -> {nbytes}); keys must be content-stable"
            )
        entry.pins += 1
        return CachePin(self, node, key)

    # -- internals -----------------------------------------------------

    def _unpin(self, node: int, key: CacheKey) -> None:
        entry = self._entries[node][key]
        entry.pins -= 1
        if entry.pins == 0 and not entry.resident:
            # A reservation that never materialized holds no data;
            # dropping it is not an eviction.
            del self._entries[node][key]
            self._used[node] -= entry.nbytes

    def _reserve(self, node: int, nbytes: int) -> bool:
        """Evict unpinned LRU entries until ``nbytes`` fit, or refuse."""
        if nbytes > self.capacities[node]:
            return False
        evictable = sum(
            e.nbytes for e in self._entries[node].values() if e.pins == 0
        )
        if self.free_bytes(node) + evictable < nbytes:
            return False
        while self.free_bytes(node) < nbytes:
            victim = next(
                k for k, e in self._entries[node].items() if e.pins == 0
            )
            gone = self._entries[node].pop(victim)
            self._used[node] -= gone.nbytes
            self.evictions += 1
        return True
