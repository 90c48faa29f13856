"""No node-cache pin outlives the best-effort phase.

In pipelined mode the best-effort engine pins every sub-problem's
loop-invariant split in the runner's node cache for the length of the
phase, and releases the pins in the ``finally`` around its loop; a
second release raises (``tests/cluster/test_node_cache.py::
TestNodeMemoryCache::test_double_release_raises``).  These tests check
the other half at run time: however a run ends, no node is left
holding a pinned byte.  In barrier mode the runner keeps no node
cache, so the phase takes no pin at all.
"""

from __future__ import annotations

import copy

import pytest

from repro.cluster.cache import NodeMemoryCache
from repro.cluster.cluster import Cluster
from repro.mapreduce.runner import JobRunner
from repro.parallel import SerialExecutor
from repro.pic.engine import BestEffortEngine, best_effort_dfs
from repro.pic.runner import PICRunner
from tests.parallel.test_equivalence import APPS
from tests.pic.toy import MeanProgram


@pytest.fixture()
def pins(monkeypatch) -> list[NodeMemoryCache]:
    """Spy: the cache of every pin granted, one entry per pin."""
    taken: list[NodeMemoryCache] = []
    pin = NodeMemoryCache.pin

    def spy(self, node, key, nbytes):
        handle = pin(self, node, key, nbytes)
        if handle is not None:
            taken.append(self)
        return handle

    monkeypatch.setattr(NodeMemoryCache, "pin", spy)
    return taken


def pinned(caches: list[NodeMemoryCache], cluster: Cluster) -> list[int]:
    """Pinned bytes per node, summed over ``caches`` (each counted once)."""
    distinct = list({id(cache): cache for cache in caches}.values())
    return [
        sum(cache.pinned_bytes(node.node_id) for cache in distinct)
        for node in cluster.nodes
    ]


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("pipeline", [False, True], ids=["barrier", "pipelined"])
def test_a_finished_run_leaves_no_pin(app, pipeline, pins):
    program, records, model0 = APPS[app]()
    cluster = Cluster(num_nodes=4, nodes_per_rack=4)
    runner = PICRunner(
        cluster, program, num_partitions=4, seed=7, be_max_iterations=3,
        max_iterations=3, workers=1, pipeline=pipeline,
    )
    runner.run(records, initial_model=copy.deepcopy(model0))
    if pipeline:
        assert pins, "the best-effort phase pinned nothing"
        assert pinned(pins, cluster) == [0] * cluster.num_nodes
    else:
        assert pins == []


class _FailsInRoundTwo(MeanProgram):
    """Raises out of the best-effort loop on its second verdict."""

    def __init__(self) -> None:
        super().__init__(threshold=1e-12)
        self.verdicts = 0

    def be_converged(self, previous, current, be_iteration):
        self.verdicts += 1
        if self.verdicts == 2:
            raise RuntimeError("verdict failed in round 2")
        return super().be_converged(previous, current, be_iteration)


def test_a_run_that_raises_leaves_no_pin(pins):
    cluster = Cluster(num_nodes=4, nodes_per_rack=4)
    program = _FailsInRoundTwo()
    engine = BestEffortEngine(
        cluster, program, num_partitions=4, be_max_iterations=5,
        runner=JobRunner(
            cluster, best_effort_dfs(cluster), executor=SerialExecutor(),
            pipeline=True,
        ),
    )
    with pytest.raises(RuntimeError, match="round 2"):
        engine.run([(i, float(i)) for i in range(40)], {"mean": 0.0})
    assert program.verdicts == 2
    assert pins and all(cache is engine.cache for cache in pins)
    assert pinned(pins, cluster) == [0] * cluster.num_nodes
