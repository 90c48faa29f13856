"""Failure injection: Hadoop-style task retry (paper Section VII)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.job import JobSpec
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner
from repro.pic.engine import BestEffortEngine
from repro.yarn import YarnJobRunner
from tests.mapreduce.kmeans_job import assert_same_records_and_bytes, run_kmeans_job
from tests.pic.toy import MeanProgram


def make_env(runner_cls=JobRunner, num_nodes=4, num_splits=4):
    cluster = Cluster(num_nodes=num_nodes, nodes_per_rack=num_nodes)
    dfs = DistributedFileSystem(cluster)
    records = [(i, float(i)) for i in range(40)]
    dataset = DistributedDataset.materialize(dfs, "/in", records, num_splits)
    return cluster, runner_cls(cluster, dfs), dataset


def mean_spec() -> JobSpec:
    def mapper(ctx, records):
        for _k, v in records:
            ctx.emit(0, (v, 1))

    def reducer(ctx, grouped):
        for _key, values in grouped:
            total = sum(v for v, _n in values)
            count = sum(n for _v, n in values)
            ctx.emit("mean", total / count)

    return JobSpec(name="mean", mapper=mapper, reducer=reducer, num_reducers=1)


class TestTaskRetry:
    #: The substrate under test; the YARN subclass below re-runs every
    #: test here on containers.
    runner_cls = JobRunner

    def test_result_unchanged_by_failures(self):
        _c, runner, dataset = make_env(self.runner_cls)
        clean = runner.run(mean_spec(), dataset)
        _c2, runner2, dataset2 = make_env(self.runner_cls)
        flaky = runner2.run(mean_spec(), dataset2, failures={0: 1, 2: 2})
        assert clean.output.to_rows() == flaky.output.to_rows()

    def test_failures_counted(self):
        _c, runner, dataset = make_env(self.runner_cls)
        result = runner.run(mean_spec(), dataset, failures={0: 1, 2: 2})
        assert result.counters.get("failed_map_attempts") == 3

    def test_failures_cost_time(self):
        _c, runner, dataset = make_env(self.runner_cls)
        clean = runner.run(mean_spec(), dataset)
        _c2, runner2, dataset2 = make_env(self.runner_cls)
        flaky = runner2.run(mean_spec(), dataset2, failures={0: 3})
        assert flaky.duration > clean.duration

    def test_slots_recovered_after_failures(self):
        _c, runner, dataset = make_env(self.runner_cls)
        runner.run(mean_spec(), dataset, failures={0: 2, 1: 2, 2: 2, 3: 2})
        assert runner.map_scheduler.free_slots() == runner.map_scheduler.total_slots

    def test_many_failures_still_complete(self):
        _c, runner, dataset = make_env(self.runner_cls)
        result = runner.run(
            mean_spec(), dataset, failures={i: 5 for i in range(4)}
        )
        assert result.output.to_rows()[0][1] == pytest.approx(19.5)


class TestTaskRetryOnYarn(TestTaskRetry):
    """The same failure paths on the container substrate: a failed
    attempt's container goes back to the RM under its app."""

    runner_cls = YarnJobRunner


class TestCombinerJobRetry:
    """A retried map task's combined buckets are counted and shuffled
    once, in barrier and pipelined mode alike."""

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_combined_buckets_counted_once(self, pipeline, vectorized):
        def run(**run_kw):
            cluster = Cluster(num_nodes=4, nodes_per_rack=4)
            return run_kmeans_job(cluster, pipeline, vectorized, **run_kw)

        clean = run()
        flaky = run(failures={0: 1})
        assert flaky.counters.get("failed_map_attempts") == 1
        assert flaky.duration > clean.duration
        assert_same_records_and_bytes(flaky, clean)


class TestBestEffortUnderFailures:
    def test_engine_result_identical_with_flaky_first_round(self):
        """Section VII: a failed best-effort task is simply restarted by
        the framework; the computed model is unaffected."""
        records = [(i, float(i)) for i in range(40)]
        cluster = Cluster(num_nodes=4, nodes_per_rack=4)
        clean_engine = BestEffortEngine(cluster, MeanProgram(), num_partitions=4)
        clean = clean_engine.run(records, {"mean": 0.0})

        cluster2 = Cluster(num_nodes=4, nodes_per_rack=4)
        flaky_engine = BestEffortEngine(cluster2, MeanProgram(), num_partitions=4)
        original_run = flaky_engine.runner.run
        calls = {"n": 0}

        def run_with_failures(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:  # first best-effort round: kill task 1 once
                kwargs["failures"] = {1: 1}
            return original_run(*args, **kwargs)

        flaky_engine.runner.run = run_with_failures
        flaky = flaky_engine.run(records, {"mean": 0.0})
        assert flaky.model == clean.model
        assert flaky.total_time > clean.total_time
