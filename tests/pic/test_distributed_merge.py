"""Tests for the distributed merge (Section III-C)."""

import numpy as np
import pytest

from repro.apps.kmeans import KMeansProgram, gaussian_mixture
from repro.apps.smoothing import ImageSmoothingProgram, synthetic_image
from repro.apps.smoothing.datagen import image_records
from repro.cluster.cluster import Cluster
from repro.mapreduce.runner import JobRunner
from repro.pic.engine import BestEffortEngine, best_effort_dfs
from repro.pic.runner import PICRunner
from tests.pic.toy import MeanProgram


def make_cluster(n=4):
    return Cluster(num_nodes=n, nodes_per_rack=n)


class DistributedMean(MeanProgram):
    def merge_element(self, key, values):
        return float(np.mean(values))


RECORDS = [(i, float(i)) for i in range(40)]


class TestEngineModes:
    def test_requires_merge_element(self):
        with pytest.raises(ValueError, match="merge_element"):
            BestEffortEngine(
                make_cluster(), MeanProgram(), num_partitions=4,
                distributed_merge=True,
            )

    def test_default_is_centralized(self):
        engine = BestEffortEngine(make_cluster(), DistributedMean(), 4)
        assert engine.distributed_merge is False

    # The run-level tests take the schedule as a defaulted argument (so
    # no fixture): barrier as collected, pipelined through their twins.
    def test_distributed_result_matches_centralized(self, pipeline=False):
        def run(dist):
            cluster = make_cluster()
            runner = JobRunner(cluster, best_effort_dfs(cluster), pipeline=pipeline)
            return BestEffortEngine(
                cluster, DistributedMean(), 4, runner=runner, distributed_merge=dist
            ).run(RECORDS, {"mean": 0.0})

        central, distributed = run(False), run(True)
        assert distributed.model["mean"] == pytest.approx(central.model["mean"])
        assert distributed.be_iterations == central.be_iterations

    def test_pipelined_distributed_result_matches_centralized(self):
        self.test_distributed_result_matches_centralized(pipeline=True)

    def test_distributed_uses_multiple_reducers(self):
        engine = BestEffortEngine(
            make_cluster(), DistributedMean(), 4, distributed_merge=True
        )
        spec = engine._be_job_spec(0)
        assert spec.num_reducers == DistributedMean.num_reducers
        central_spec = BestEffortEngine(
            make_cluster(), DistributedMean(), 4
        )._be_job_spec(0)
        assert central_spec.num_reducers == 1


class TestApplications:
    def test_kmeans_distributed_merge_equivalent(self, pipeline=False):
        records, _ = gaussian_mixture(4000, 4, dim=2, separation=8.0, seed=1)
        prog = KMeansProgram(k=4, dim=2, threshold=0.05)
        model0 = prog.initial_model(records, seed=2)

        def run(dist):
            return PICRunner(
                make_cluster(), KMeansProgram(k=4, dim=2, threshold=0.05),
                num_partitions=4, seed=3, distributed_merge=dist, pipeline=pipeline,
            ).run(records, initial_model={k: v.copy() for k, v in model0.items()})

        central, distributed = run(False), run(True)
        for key in model0:
            assert np.allclose(central.model[key], distributed.model[key])

    def test_pipelined_kmeans_distributed_merge_equivalent(self):
        self.test_kmeans_distributed_merge_equivalent(pipeline=True)

    def test_smoothing_ownership_is_exclusive(self):
        img = synthetic_image(16, 16, seed=1)
        records = image_records(img)
        prog = ImageSmoothingProgram(16, 16, overlap=2)
        model0 = prog.initial_model(records)
        pairs = prog.partition(records, model0, 4, seed=0)
        all_owned = []
        for p, (_band, sub_model) in enumerate(pairs):
            all_owned.extend(k for k, _v in prog.owned_model_records(sub_model, p))
        # Every row emitted exactly once despite overlap + halo copies.
        assert sorted(all_owned) == list(range(16))

    def test_smoothing_distributed_merge_equivalent(self, pipeline=False):
        img = synthetic_image(24, 24, seed=1)
        records = image_records(img)

        def run(dist):
            prog = ImageSmoothingProgram(24, 24)
            model0 = prog.initial_model(records)
            return PICRunner(
                make_cluster(), prog, num_partitions=4, seed=3,
                distributed_merge=dist, pipeline=pipeline,
            ).run(records, initial_model=model0)

        central, distributed = run(False), run(True)
        a = np.stack([central.model[i] for i in range(24)])
        b = np.stack([distributed.model[i] for i in range(24)])
        assert np.allclose(a, b)

    def test_pipelined_smoothing_distributed_merge_equivalent(self):
        self.test_smoothing_distributed_merge_equivalent(pipeline=True)

    def test_merge_element_duplicate_owner_detected(self):
        prog = ImageSmoothingProgram(16, 16)
        with pytest.raises(ValueError, match="owner"):
            prog.merge_element(3, [np.zeros(16), np.zeros(16)])
