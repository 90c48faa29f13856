"""Unit and property tests for the simulated node-memory cache.

The load-bearing property: byte accounting never drifts.  For every
node, ``pinned + unpinned_resident + reserved_nonresident + free ==
capacity`` with every term non-negative, across any interleaving of
put / pin / release / lookup — and a pinned entry survives any amount
of eviction pressure.  A node's capacity is the fixed fraction
``DEFAULT_CACHE_RATIO`` of its RAM.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cache import (
    DEFAULT_CACHE_RATIO,
    CacheStats,
    NodeMemoryCache,
)


def entry_size(index: int) -> int:
    """Deterministic per-key size (cache keys must be content-stable)."""
    return (index + 1) * 10


class TestNodeMemoryCache:
    def test_miss_then_put_then_hit(self):
        cache = NodeMemoryCache([100])
        key = ("/data", 0)
        assert not cache.lookup(0, key)
        assert cache.put(0, key, 40)
        assert cache.lookup(0, key)
        assert cache.snapshot() == CacheStats(hits=1, misses=1, evictions=0)
        assert cache.used_bytes(0) == 40
        assert cache.free_bytes(0) == 60

    def test_lru_eviction_order(self):
        cache = NodeMemoryCache([100])
        a, b, c = ("/d", 0), ("/d", 1), ("/d", 2)
        cache.put(0, a, 40)
        cache.put(0, b, 40)
        cache.lookup(0, a)  # refresh a: b becomes the LRU victim
        assert cache.put(0, c, 40)
        assert cache.evictions == 1
        assert cache.lookup(0, a)
        assert not cache.lookup(0, b)
        assert cache.lookup(0, c)

    def test_put_refuses_oversized_entry(self):
        cache = NodeMemoryCache([100])
        assert not cache.put(0, ("/d", 0), 101)
        assert cache.used_bytes(0) == 0
        assert not cache.lookup(0, ("/d", 0))

    def test_pinned_entries_survive_pressure(self):
        cache = NodeMemoryCache([100])
        pin = cache.pin(0, ("/d", 0), 60)
        assert pin is not None
        cache.put(0, ("/d", 0), 60)
        # 60 of 100 bytes are pinned; an 80-byte entry can never fit.
        assert not cache.put(0, ("/d", 1), 80)
        assert cache.lookup(0, ("/d", 0))
        assert cache.evictions == 0
        pin.release()
        assert cache.put(0, ("/d", 1), 80)  # now evictable
        assert cache.evictions == 1

    def test_pin_reserves_before_residency(self):
        cache = NodeMemoryCache([100])
        pin = cache.pin(0, ("/d", 0), 70)
        assert pin is not None
        assert cache.used_bytes(0) == 70
        assert not cache.lookup(0, ("/d", 0))  # reserved, not resident
        # Releasing a never-resident reservation frees the bytes but is
        # not an eviction: no data was dropped.
        pin.release()
        assert cache.used_bytes(0) == 0
        assert cache.evictions == 0

    def test_pin_refuses_when_pins_fill_the_node(self):
        cache = NodeMemoryCache([100])
        first = cache.pin(0, ("/d", 0), 80)
        assert first is not None
        assert cache.pin(0, ("/d", 1), 30) is None
        first.release()
        assert cache.pin(0, ("/d", 1), 30) is not None

    def test_double_release_raises(self):
        cache = NodeMemoryCache([100])
        pin = cache.pin(0, ("/d", 0), 10)
        pin.release()
        with pytest.raises(RuntimeError, match="already released"):
            pin.release()

    def test_pin_is_a_context_manager(self):
        cache = NodeMemoryCache([100])
        with cache.pin(0, ("/d", 0), 10):
            assert cache.used_bytes(0) == 10
        assert cache.used_bytes(0) == 0

    def test_size_change_is_a_bug(self):
        cache = NodeMemoryCache([100])
        cache.put(0, ("/d", 0), 10)
        with pytest.raises(RuntimeError, match="content-stable"):
            cache.put(0, ("/d", 0), 20)
        with pytest.raises(RuntimeError, match="content-stable"):
            cache.pin(0, ("/d", 0), 20)

    def test_negative_sizes_and_capacities_rejected(self):
        with pytest.raises(ValueError):
            NodeMemoryCache([-1])
        cache = NodeMemoryCache([100])
        with pytest.raises(ValueError):
            cache.put(0, ("/d", 0), -1)
        with pytest.raises(ValueError):
            cache.pin(0, ("/d", 0), -1)

    def test_stats_window_subtraction(self):
        cache = NodeMemoryCache([100])
        cache.put(0, ("/d", 0), 10)
        before = cache.snapshot()
        cache.lookup(0, ("/d", 0))
        cache.lookup(0, ("/d", 1))
        assert cache.snapshot() - before == CacheStats(hits=1, misses=1)


class TestCacheRatio:
    def test_from_cluster_budgets(self):
        from repro.cluster.cluster import Cluster

        cluster = Cluster(num_nodes=2, nodes_per_rack=2)
        cache = NodeMemoryCache.from_cluster(cluster)
        assert cache.capacities == [
            int(n.spec.ram_bytes * DEFAULT_CACHE_RATIO) for n in cluster.nodes
        ]


# -- byte-accounting property ------------------------------------------------

#: op = ("put"|"pin"|"release"|"lookup", key_index)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "pin", "release", "lookup"]),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=60,
)


def _check_accounting(cache: NodeMemoryCache, node: int) -> None:
    entries = cache._entries[node]
    pinned = sum(e.nbytes for e in entries.values() if e.pins > 0)
    unpinned = sum(e.nbytes for e in entries.values() if e.pins == 0)
    free = cache.free_bytes(node)
    assert pinned >= 0 and unpinned >= 0 and free >= 0
    assert pinned + unpinned + free == cache.capacities[node]
    assert cache.used_bytes(node) == pinned + unpinned
    assert pinned == cache.pinned_bytes(node)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, capacity=st.integers(min_value=0, max_value=120))
def test_accounting_invariant_under_any_interleaving(ops, capacity):
    cache = NodeMemoryCache([capacity])
    open_pins: dict[int, list] = {}
    for action, idx in ops:
        key = ("/data", idx)
        if action == "put":
            cache.put(0, key, entry_size(idx))
        elif action == "pin":
            pin = cache.pin(0, key, entry_size(idx))
            if pin is not None:
                open_pins.setdefault(idx, []).append(pin)
        elif action == "release":
            pins = open_pins.get(idx)
            if pins:
                pins.pop().release()
        else:
            cache.lookup(0, key)
        _check_accounting(cache, 0)
        # Every key with an open pin is still reserved on the node —
        # eviction pressure from the other ops may never claim it.
        for pinned_idx, pins in open_pins.items():
            if pins:
                assert ("/data", pinned_idx) in cache._entries[0]
    # Counter sanity: monotonic, consistent with the snapshot API.
    assert cache.snapshot() == CacheStats(
        cache.hits, cache.misses, cache.evictions
    )
    assert min(cache.hits, cache.misses, cache.evictions) >= 0


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_zero_capacity_node_caches_nothing(ops):
    cache = NodeMemoryCache([0])
    for action, idx in ops:
        key = ("/data", idx)
        if action == "put":
            assert not cache.put(0, key, entry_size(idx))
        elif action == "pin":
            assert cache.pin(0, key, entry_size(idx)) is None
        elif action == "lookup":
            assert not cache.lookup(0, key)
        _check_accounting(cache, 0)
    assert cache.hits == 0 and cache.evictions == 0
