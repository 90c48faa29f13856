"""Every slot and container comes back once concurrent jobs end.

Several jobs share one cluster through ``run_many``, with injected map
failures and speculative backups.  Once the simulation quiesces, no
map slot, reduce slot or YARN container may still be held, no
application may hold a container and no reduce acquisition may still
be waiting — on the slot runner and on the YARN runner alike, in
barrier and in pipelined mode.
"""

import pytest

from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.job import JobSpec
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner
from repro.yarn import YarnJobRunner
from tests.mapreduce.test_speculation import heterogeneous_cluster, sum_spec


def _mean_mapper(ctx, records):
    for key, value in records:
        ctx.emit(key % 3, (value, 1))


def _mean_reducer(ctx, grouped):
    for key, values in grouped:
        ctx.emit(key, sum(v for v, _n in values) / sum(n for _v, n in values))


def _mean_spec(name: str, num_reducers: int) -> JobSpec:
    return JobSpec(
        name=name, mapper=_mean_mapper, reducer=_mean_reducer, num_reducers=num_reducers
    )


def _run_jobs(runner_cls, pipeline, speculative=True):
    cluster = heterogeneous_cluster(num_nodes=4, slow_node=2)
    dfs = DistributedFileSystem(cluster)
    records = [(i, float(i)) for i in range(400)]
    datasets = [
        DistributedDataset.materialize(dfs, f"/in{j}", records, 4) for j in range(3)
    ]
    runner = runner_cls(cluster, dfs, pipeline=pipeline)
    submissions = [
        (sum_spec(), datasets[0], {"failures": {0: 2, 3: 1}, "speculative": speculative}),
        (_mean_spec("mean-a", 2), datasets[1], {"failures": {1: 1}, "speculative": speculative}),
        (_mean_spec("mean-b", 3), datasets[2], {"speculative": speculative}),
    ]
    results = runner.run_many(submissions)
    return cluster, runner, results


@pytest.mark.parametrize("runner_cls", [JobRunner, YarnJobRunner])
class TestEverythingReturned:
    pipeline = False

    def test_map_slots_all_free(self, runner_cls):
        _cluster, runner, _results = _run_jobs(runner_cls, self.pipeline)
        assert runner.map_scheduler.free_slots() == runner.map_scheduler.total_slots

    def test_reduce_capacity_restored(self, runner_cls):
        cluster, runner, _results = _run_jobs(runner_cls, self.pipeline)
        if runner_cls is YarnJobRunner:
            for node in cluster.nodes:
                assert runner.rm.available(node.node_id) == runner.rm.capacity(node.node_id)
            assert not any(runner._reduce_containers.values())
        else:
            assert runner._reduce_capacity == {
                node.node_id: node.spec.reduce_slots for node in cluster.nodes
            }

    def test_no_application_holds_a_container(self, runner_cls):
        _cluster, runner, results = _run_jobs(runner_cls, self.pipeline)
        allocator = runner.map_scheduler.allocator
        assert [allocator.outstanding(app) for app in range(len(results))] == [0, 0, 0]

    def test_no_reduce_waiter_left(self, runner_cls):
        _cluster, runner, _results = _run_jobs(runner_cls, self.pipeline)
        assert not any(runner._reduce_waiters.values())

    def test_faults_and_backups_actually_happened(self, runner_cls):
        # The checks above mean something only if retries and backups ran.
        _cluster, _runner, results = _run_jobs(runner_cls, self.pipeline)
        assert results[0].counters.get("failed_map_attempts") == 3
        assert results[1].counters.get("failed_map_attempts") == 1
        assert sum(r.counters.get("speculative_attempts") for r in results) > 0
        assert results[0].output.to_rows() == [("sum", float(sum(range(400))))]


class TestEverythingReturnedPipelined(TestEverythingReturned):
    pipeline = True
