"""Speculative execution on heterogeneous clusters."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.topology import NodeSpec
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.job import JobSpec
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner
from repro.yarn import YarnJobRunner
from tests.mapreduce.kmeans_job import assert_same_records_and_bytes, run_kmeans_job


def heterogeneous_cluster(num_nodes=4, slow_node=2, slowdown=8.0):
    """One crippled node, the rest at reference speed."""
    specs = [
        NodeSpec(cpu_speed=(1.0 / slowdown) if i == slow_node else 1.0)
        for i in range(num_nodes)
    ]
    return Cluster(
        num_nodes=num_nodes, nodes_per_rack=num_nodes,
        node_spec=NodeSpec(), node_specs=specs,
    )


def make_env(cluster, runner_cls=JobRunner, pipeline=False, num_splits=4):
    dfs = DistributedFileSystem(cluster)
    records = [(i, float(i)) for i in range(4000)]
    dataset = DistributedDataset.materialize(dfs, "/in", records, num_splits)
    return runner_cls(cluster, dfs, pipeline=pipeline), dataset


def sum_spec() -> JobSpec:
    from repro.mapreduce.costs import CostHints

    def mapper(ctx, records):
        for _k, v in records:
            ctx.emit(0, v)

    def reducer(ctx, grouped):
        for _key, values in grouped:
            ctx.emit("sum", sum(values))

    # Compute-heavy maps so the slow node is a genuine map straggler
    # (reduce tasks are placed on node 0, which stays fast).
    return JobSpec(
        name="sum", mapper=mapper, reducer=reducer, num_reducers=1,
        costs=CostHints(
            map_seconds_per_record=2e-4,
            job_overhead_seconds=0.0,
            task_overhead_seconds=0.05,
        ),
    )


class TestHeterogeneousNodes:
    def test_per_node_specs_applied(self):
        cluster = heterogeneous_cluster(slow_node=2, slowdown=4.0)
        assert cluster.nodes[2].spec.cpu_speed == pytest.approx(0.25)
        assert cluster.nodes[0].spec.cpu_speed == 1.0

    def test_spec_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="node_specs"):
            Cluster(num_nodes=3, nodes_per_rack=3,
                    node_specs=[NodeSpec(), NodeSpec()])

    def test_compute_time_scales_with_node_speed(self):
        cluster = heterogeneous_cluster(slow_node=1, slowdown=5.0)
        assert cluster.compute_time(1, 1.0) == pytest.approx(5.0)
        assert cluster.compute_time(0, 1.0) == pytest.approx(1.0)


class TestSpeculativeExecution:
    #: The substrate and schedule under test; the subclasses below re-run
    #: every test here on containers, pipelined, and both.
    runner_cls = JobRunner
    pipeline = False

    def test_same_result_with_and_without(self):
        runner_a, dataset_a = make_env(heterogeneous_cluster(), self.runner_cls, self.pipeline)
        plain = runner_a.run(sum_spec(), dataset_a)
        runner_b, dataset_b = make_env(heterogeneous_cluster(), self.runner_cls, self.pipeline)
        spec = runner_b.run(sum_spec(), dataset_b, speculative=True)
        assert plain.output.to_rows() == spec.output.to_rows()

    def test_backup_beats_straggler(self):
        """With one node 8x slower, a backup on a fast node should cut
        the job's makespan substantially."""
        runner_a, dataset_a = make_env(heterogeneous_cluster(), self.runner_cls, self.pipeline)
        plain = runner_a.run(sum_spec(), dataset_a)
        runner_b, dataset_b = make_env(heterogeneous_cluster(), self.runner_cls, self.pipeline)
        spec = runner_b.run(sum_spec(), dataset_b, speculative=True)
        assert spec.duration < plain.duration * 0.6
        assert spec.counters.get("speculative_attempts") >= 1

    def test_no_speculation_on_homogeneous_cluster_harmless(self):
        cluster = Cluster(num_nodes=4, nodes_per_rack=4)
        runner, dataset = make_env(cluster, self.runner_cls, self.pipeline)
        result = runner.run(sum_spec(), dataset, speculative=True)
        assert result.output.to_rows()[0][1] == pytest.approx(sum(range(4000)))

    def test_counters_track_losses(self):
        runner, dataset = make_env(heterogeneous_cluster(), self.runner_cls, self.pipeline)
        result = runner.run(sum_spec(), dataset, speculative=True)
        attempts = result.counters.get("speculative_attempts")
        losses = result.counters.get("speculative_losses")
        assert losses <= attempts

    def test_slots_fully_recovered(self):
        runner, dataset = make_env(heterogeneous_cluster(), self.runner_cls, self.pipeline)
        runner.run(sum_spec(), dataset, speculative=True)
        assert runner.map_scheduler.free_slots() == runner.map_scheduler.total_slots

    def test_accounting_not_double_counted(self):
        runner, dataset = make_env(heterogeneous_cluster(), self.runner_cls, self.pipeline)
        result = runner.run(sum_spec(), dataset, speculative=True)
        assert result.counters.get("map_input_records") == 4000
        assert result.counters.get("map_output_records") == 4000

    def test_speculation_with_failures(self):
        runner, dataset = make_env(heterogeneous_cluster(), self.runner_cls, self.pipeline)
        result = runner.run(
            sum_spec(), dataset, speculative=True, failures={1: 1}
        )
        assert result.output.to_rows()[0][1] == pytest.approx(sum(range(4000)))


class TestSpeculativeExecutionOnYarn(TestSpeculativeExecution):
    """The same backup/kill paths on the container substrate: a killed
    twin's container goes back to the RM under its app."""

    runner_cls = YarnJobRunner


class TestSpeculativeExecutionPipelined(TestSpeculativeExecution):
    pipeline = True


class TestSpeculativeExecutionOnYarnPipelined(TestSpeculativeExecutionOnYarn):
    pipeline = True


class TestSpeculativeCombinerJob:
    """A killed twin's combined buckets are neither counted nor
    shuffled, in barrier and pipelined mode alike."""

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_combined_buckets_counted_once(self, pipeline, vectorized):
        plain = run_kmeans_job(heterogeneous_cluster(), pipeline, vectorized)
        backed_up = run_kmeans_job(
            heterogeneous_cluster(), pipeline, vectorized, speculative=True
        )
        assert backed_up.counters.get("speculative_attempts") >= 1
        assert backed_up.counters.get("speculative_losses") >= 1
        assert backed_up.duration < plain.duration
        assert_same_records_and_bytes(backed_up, plain)
