"""Tests for the PICProgram API surface and in-memory execution."""

import pytest

from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.columnar import ColumnBatch, columnize, group_batch
from repro.mapreduce.job import JobSpec, TaskContext
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner
from repro.pic.api import PICProgram
from tests.pic.toy import MeanProgram


class BatchCombineOnly(MeanProgram):
    """A combiner written only as ``combine_batch``: no scalar twin."""

    combine = PICProgram.combine

    def combine_batch(self, grouped):
        return ColumnBatch.from_rows([
            (key, (sum(v for v, _n in values), sum(n for _v, n in values)))
            for key, values in grouped
        ])


def run_one_job(prog):
    cluster = Cluster(num_nodes=4, nodes_per_rack=4)
    dfs = DistributedFileSystem(cluster)
    records = [(i, float(i)) for i in range(40)]
    dataset = DistributedDataset.materialize(dfs, "/in", records, 4)
    return JobRunner(cluster, dfs).run(prog.job_spec(), dataset, model={"mean": 0.0})


class TestJobSpecDerivation:
    def test_spec_uses_program_pieces(self):
        prog = MeanProgram()
        spec = prog.job_spec()
        assert isinstance(spec, JobSpec)
        assert spec.num_reducers == 2
        assert spec.combiner is not None  # combine() is overridden

    def test_no_combiner_when_not_overridden(self):
        class NoCombiner(MeanProgram):
            combine = PICProgram.combine

        assert NoCombiner().job_spec().combiner is None

    def test_batch_map_detected(self):
        class Batch(MeanProgram):
            def batch_map(self, ctx, records):
                for k, v in records:
                    self.map(ctx, k, v)

        prog = Batch()
        spec = prog.job_spec()
        assert spec.mapper == prog.batch_map
        assert spec.reducer == prog.batch_reduce

    def test_a_combine_batch_alone_enables_the_combiner(self):
        prog = BatchCombineOnly()
        assert prog.job_spec().combiner == prog.combine_batch
        result = run_one_job(prog)
        counters = result.counters
        assert counters.get("combine_output_records") < counters.get("map_output_records")
        assert result.output.to_rows() == run_one_job(MeanProgram()).output.to_rows()

    def test_default_combine_batch_is_combine_per_group(self):
        prog = MeanProgram()
        grouped = group_batch(ColumnBatch.from_rows(
            [(i % 3, (float(i), 1)) for i in range(10)] + [("x", (2.5, 4))]
        ))
        assert prog.job_spec().combiner == prog.combine_batch
        assert prog.combine_batch(grouped).to_rows() == [
            (key, prog.combine(key, values)) for key, values in grouped
        ]

    def test_default_jobs_single(self):
        assert len(MeanProgram().jobs({"mean": 0.0}, 0)) == 1


class TestDefaults:
    def test_default_partition_replicates_model(self):
        prog = MeanProgram()
        records = [(i, float(i)) for i in range(20)]
        pairs = prog.partition(records, {"mean": 1.5}, 4, seed=0)
        assert len(pairs) == 4
        for _recs, model in pairs:
            assert model == {"mean": 1.5}
        all_records = sorted(r for recs, _m in pairs for r in recs)
        assert all_records == records

    def test_default_merge_averages(self):
        merged = MeanProgram().merge([{"mean": 1.0}, {"mean": 3.0}])
        assert merged["mean"] == pytest.approx(2.0)

    def test_default_be_converged_uses_converged(self):
        prog = MeanProgram(threshold=0.5)
        assert prog.be_converged({"mean": 0.0}, {"mean": 0.2}, 0)
        assert not prog.be_converged({"mean": 0.0}, {"mean": 2.0}, 0)

    def test_default_topoff_converged_uses_converged(self):
        prog = MeanProgram(threshold=0.5)
        assert prog.topoff_converged({"mean": 0.0}, {"mean": 0.1}, 0)

    def test_model_bytes_positive(self):
        assert MeanProgram().model_bytes({"mean": 1.0}) > 0

    def test_model_records_roundtrip(self):
        prog = MeanProgram()
        model = {"mean": 2.5}
        assert prog.model_from_records(prog.model_records(model)) == model

    def test_unimplemented_mapper_raises(self):
        class Empty(PICProgram):
            def build_model(self, model, output):
                return model

            def converged(self, previous, current, iteration):
                return True

        with pytest.raises(NotImplementedError):
            Empty().map(TaskContext(), 0, 0)
        with pytest.raises(NotImplementedError):
            Empty().reduce(TaskContext(), 0, [])
        with pytest.raises(NotImplementedError):
            Empty().initial_model([])


class TestInMemoryExecution:
    def test_one_iteration_matches_closed_form(self):
        prog = MeanProgram()
        records = [(i, float(i)) for i in range(11)]  # mean 5.0
        model, compute = prog.run_iteration_in_memory(columnize(records), {"mean": 0.0}, 0)
        assert model["mean"] == pytest.approx(2.5)
        assert compute > 0

    def test_solve_reaches_fixed_point(self):
        prog = MeanProgram(threshold=1e-9)
        records = [(i, float(i)) for i in range(11)]
        model, iterations, compute = prog.solve_in_memory(records, {"mean": 0.0})
        assert model["mean"] == pytest.approx(5.0, abs=1e-6)
        assert 25 <= iterations <= 40
        assert compute > 0

    def test_solve_respects_iteration_cap(self):
        prog = MeanProgram(threshold=1e-12)
        records = [(i, float(i)) for i in range(11)]
        _model, iterations, _c = prog.solve_in_memory(
            records, {"mean": 0.0}, max_iterations=3
        )
        assert iterations == 3

    def test_inmemory_cost_below_pipeline_cost(self):
        prog = MeanProgram()
        records = [(i, float(i)) for i in range(100)]
        _m, compute = prog.run_iteration_in_memory(columnize(records), {"mean": 0.0}, 0)
        pipeline = prog.costs.map_compute(len(records), 0)
        assert compute < pipeline
