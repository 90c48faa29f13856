"""Failure injection: Hadoop-style task retry (paper Section VII)."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.job import JobSpec
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner
from repro.pic.engine import BestEffortEngine, best_effort_dfs
from repro.yarn import YarnJobRunner
from tests.mapreduce.kmeans_job import assert_same_records_and_bytes, run_kmeans_job
from tests.pic.toy import MeanProgram


def make_env(runner_cls=JobRunner, pipeline=False, num_nodes=4, num_splits=4):
    cluster = Cluster(num_nodes=num_nodes, nodes_per_rack=num_nodes)
    dfs = DistributedFileSystem(cluster)
    records = [(i, float(i)) for i in range(40)]
    dataset = DistributedDataset.materialize(dfs, "/in", records, num_splits)
    return cluster, runner_cls(cluster, dfs, pipeline=pipeline), dataset


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
    #: The substrate and schedule under test; the subclasses below re-run
    #: every test here on containers, pipelined, and both.
    runner_cls = JobRunner
    pipeline = False

    def test_result_unchanged_by_failures(self):
        _c, runner, dataset = make_env(self.runner_cls, self.pipeline)
        clean = runner.run(mean_spec(), dataset)
        _c2, runner2, dataset2 = make_env(self.runner_cls, self.pipeline)
        flaky = runner2.run(mean_spec(), dataset2, failures={0: 1, 2: 2})
        assert clean.output.to_rows() == flaky.output.to_rows()

    def test_failures_counted(self):
        _c, runner, dataset = make_env(self.runner_cls, self.pipeline)
        result = runner.run(mean_spec(), dataset, failures={0: 1, 2: 2})
        assert result.counters.get("failed_map_attempts") == 3

    def test_failures_cost_time(self):
        _c, runner, dataset = make_env(self.runner_cls, self.pipeline)
        clean = runner.run(mean_spec(), dataset)
        _c2, runner2, dataset2 = make_env(self.runner_cls, self.pipeline)
        flaky = runner2.run(mean_spec(), dataset2, failures={0: 3})
        assert flaky.duration > clean.duration

    def test_slots_recovered_after_failures(self):
        _c, runner, dataset = make_env(self.runner_cls, self.pipeline)
        runner.run(mean_spec(), dataset, failures={0: 2, 1: 2, 2: 2, 3: 2})
        assert runner.map_scheduler.free_slots() == runner.map_scheduler.total_slots

    @pytest.mark.parametrize(
        ("failures", "names"),
        [
            ({99: 3, 1: -2}, "names split 99"),
            ({-1: 1}, "names split -1"),
            ({4: 1}, "names split 4"),
            ({1: -2}, r"failures\[1\] = -2"),
            ({1: 1.5}, r"failures\[1\] = 1.5"),
            # A bool is an int, but neither a split nor a count.
            ({True: 2}, "names split True"),
            ({False: 1}, "names split False"),
            ({1: True}, r"failures\[1\] = True"),
            # A numpy float is not a whole number, even when integral.
            ({np.float64(1.0): 1}, r"names split (np\.float64\()?1\.0"),
            ({1: np.float64(1.0)}, r"failures\[1\] = (np\.float64\()?1\.0"),
            ({np.int64(4): 1}, r"names split (np\.int64\()?4"),
        ],
    )
    def test_bad_failures_rejected_at_submit(self, failures, names):
        cluster, runner, dataset = make_env(self.runner_cls, self.pipeline)
        mapped = []

        def mapper(ctx, records):
            mapped.append(len(records))

        # The spy runs in this process on purpose: it records the calls.
        spec = JobSpec(name="spy", mapper=mapper, reducer=mean_spec().reducer)  # pic: noqa: PIC101
        with pytest.raises(ValueError, match=names):
            runner.submit(spec, dataset, failures=failures)
        assert mapped == []  # rejected before any map task ran
        assert cluster.now == 0.0

    def test_numpy_integers_name_splits_and_counts(self):
        _c, runner, dataset = make_env(self.runner_cls, self.pipeline)
        plain = runner.run(mean_spec(), dataset, failures={1: 2})
        cluster, runner2, dataset2 = make_env(self.runner_cls, self.pipeline)
        handle = runner2.submit(
            mean_spec(), dataset2, failures={np.int64(1): np.int64(2)}
        )
        assert handle._state.failures == {1: 2}
        assert all(
            type(n) is int for item in handle._state.failures.items() for n in item
        )
        cluster.run()
        numpy_keyed = handle.result()
        assert numpy_keyed.counters.get("failed_map_attempts") == 2
        assert numpy_keyed.duration == plain.duration

    @pytest.mark.parametrize("count", [3, 5])
    def test_split_models_must_match_the_splits(self, count):
        _c, runner, dataset = make_env(self.runner_cls, self.pipeline)
        with pytest.raises(ValueError, match=f"{count} split_models for 4 splits"):
            runner.submit(mean_spec(), dataset, split_models=[{}] * count)

    def test_many_failures_still_complete(self):
        _c, runner, dataset = make_env(self.runner_cls, self.pipeline)
        result = runner.run(
            mean_spec(), dataset, failures={i: 5 for i in range(4)}
        )
        assert result.output.to_rows()[0][1] == pytest.approx(19.5)


class TestTaskRetryOnYarn(TestTaskRetry):
    """The same failure paths on the container substrate: a failed
    attempt's container goes back to the RM under its app."""

    runner_cls = YarnJobRunner


class TestTaskRetryPipelined(TestTaskRetry):
    pipeline = True


class TestTaskRetryOnYarnPipelined(TestTaskRetryOnYarn):
    pipeline = True


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
    pipeline = False

    def engine(self):
        cluster = Cluster(num_nodes=4, nodes_per_rack=4)
        runner = JobRunner(cluster, best_effort_dfs(cluster), pipeline=self.pipeline)
        return BestEffortEngine(cluster, MeanProgram(), num_partitions=4, runner=runner)

    def test_engine_result_identical_with_flaky_first_round(self):
        """Section VII: a failed best-effort task is simply restarted by
        the framework; the computed model is unaffected."""
        records = [(i, float(i)) for i in range(40)]
        clean = self.engine().run(records, {"mean": 0.0})

        flaky_engine = self.engine()
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


class TestBestEffortUnderFailuresPipelined(TestBestEffortUnderFailures):
    pipeline = True
