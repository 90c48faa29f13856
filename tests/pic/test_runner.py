"""Tests for the two-phase PIC orchestration and the IC baseline."""

import pytest

from repro.cluster.cluster import Cluster
from repro.pic.runner import PICRunner, run_ic_baseline
from tests.pic.toy import MeanProgram

RECORDS = [(i, float(i)) for i in range(40)]  # mean 19.5


def make_cluster():
    return Cluster(num_nodes=4, nodes_per_rack=4)


def ic_run(pipeline, **kw):
    return run_ic_baseline(
        make_cluster(), MeanProgram(), RECORDS, pipeline=pipeline, **kw
    )


def pic_run(pipeline, seed=0, **kw):
    runner = PICRunner(
        make_cluster(), MeanProgram(), num_partitions=4, seed=seed, pipeline=pipeline
    )
    return runner.run(RECORDS, **kw)


class TestICBaseline:
    pipeline = False

    def test_converges_to_mean(self):
        result = ic_run(self.pipeline, initial_model={"mean": 0.0})
        assert result.model["mean"] == pytest.approx(19.5, abs=1e-4)

    def test_uses_program_initial_model_when_omitted(self):
        result = ic_run(self.pipeline)
        assert result.model["mean"] == pytest.approx(19.5, abs=1e-4)

    def test_traces_and_time(self):
        result = ic_run(self.pipeline, initial_model={"mean": 0.0})
        assert result.total_time > 0
        assert len(result.traces) == result.iterations


class TestICBaselinePipelined(TestICBaseline):
    pipeline = True


class TestPICRunner:
    pipeline = False

    def test_final_model_matches_ic_quality(self):
        ic = ic_run(self.pipeline, initial_model={"mean": 0.0})
        pic = pic_run(self.pipeline, initial_model={"mean": 0.0})
        assert pic.model["mean"] == pytest.approx(ic.model["mean"], abs=1e-3)

    def test_phases_reported(self):
        pic = pic_run(self.pipeline, initial_model={"mean": 0.0})
        assert [p.name for p in pic.phases] == ["best-effort", "top-off"]
        assert pic.be_time > 0
        assert pic.total_time == pytest.approx(pic.be_time + pic.topoff_time)

    def test_iteration_properties(self):
        pic = pic_run(self.pipeline, initial_model={"mean": 0.0})
        assert pic.be_iterations == pic.best_effort.be_iterations
        assert pic.topoff_iterations == pic.topoff.iterations
        assert pic.topoff_iterations >= 1

    def test_topoff_needs_few_iterations(self):
        ic = ic_run(self.pipeline, initial_model={"mean": 0.0})
        pic = pic_run(self.pipeline, initial_model={"mean": 0.0})
        assert pic.topoff_iterations < ic.iterations / 2

    def test_traffic_snapshot_included(self):
        pic = pic_run(self.pipeline, initial_model={"mean": 0.0})
        assert "model_update" in pic.traffic
        assert pic.shuffle_bytes >= 0
        assert pic.model_update_bytes > 0

    def test_uses_program_initial_model_when_omitted(self):
        pic = pic_run(self.pipeline)
        assert pic.model["mean"] == pytest.approx(19.5, abs=1e-3)

    def test_determinism(self):
        a = pic_run(self.pipeline, seed=7, initial_model={"mean": 0.0})
        b = pic_run(self.pipeline, seed=7, initial_model={"mean": 0.0})
        assert a.model == b.model
        assert a.total_time == pytest.approx(b.total_time)

    def test_different_seed_changes_partitioning_not_quality(self):
        a = pic_run(self.pipeline, seed=1, initial_model={"mean": 0.0})
        b = pic_run(self.pipeline, seed=2, initial_model={"mean": 0.0})
        assert a.model["mean"] == pytest.approx(b.model["mean"], abs=1e-2)


class TestPICRunnerPipelined(TestPICRunner):
    pipeline = True
