"""Tests for the benchmark harness plumbing."""

from repro.harness import compare_ic_pic
from repro.harness.workloads import (
    Workload,
    kmeans_small,
    kmeans_table1_sizes,
    kmeans_table3,
    linsolve_small,
    neuralnet_medium,
    pagerank_small,
    smoothing_large,
    smoothing_medium,
)


class TestWorkloadFactories:
    def test_kmeans_small_shape(self):
        w = kmeans_small(num_points=500, k=3)
        assert isinstance(w, Workload)
        assert len(w.records) == 500
        assert set(w.initial_model) == {0, 1, 2}
        assert w.cluster_factory().num_nodes == 6

    def test_table1_sizes_geometric(self):
        sizes = kmeans_table1_sizes()
        assert len(sizes) == 4
        ratios = [b / a for a, b in zip(sizes, sizes[1:])]
        assert all(r == 4 for r in ratios)

    def test_table3_datasets_differ(self):
        a = kmeans_table3(1)
        b = kmeans_table3(2)
        assert a.name != b.name
        assert a.records[0][1].tolist() != b.records[0][1].tolist()

    def test_pagerank_workload(self):
        w = pagerank_small(num_vertices=100)
        assert len(w.records) == 100
        assert w.num_partitions == 18

    def test_linsolve_carries_golden(self):
        w = linsolve_small()
        assert "x_star" in w.extras
        assert len(w.records) == 100

    def test_neuralnet_holds_out_validation(self):
        w = neuralnet_medium(num_samples=210)
        assert len(w.records) == 200
        assert len(w.extras["Xv"]) == 10

    def test_smoothing_cluster_sizes(self):
        assert smoothing_medium(side=32).cluster_factory().num_nodes == 64
        assert smoothing_large(128, side=32).cluster_factory().num_nodes == 128

    def test_workloads_deterministic(self):
        a = kmeans_small(num_points=100, k=3, seed=5)
        b = kmeans_small(num_points=100, k=3, seed=5)
        assert a.records[7][1].tolist() == b.records[7][1].tolist()


class TestCompare:
    pipeline = False

    def test_compare_runs_both_sides(self):
        w = kmeans_small(num_points=3000, k=4, num_partitions=6)
        result = compare_ic_pic(
            w.cluster_factory, w.program, w.records, w.initial_model,
            w.num_partitions, pipeline=self.pipeline,
        )
        assert result.ic.iterations >= 1
        assert result.pic.be_iterations >= 1
        assert result.speedup > 0
        assert result.ic_time > 0 and result.pic_time > 0

    def test_initial_model_not_mutated(self):
        w = kmeans_small(num_points=3000, k=4, num_partitions=6)
        before = {k: v.copy() for k, v in w.initial_model.items()}
        compare_ic_pic(
            w.cluster_factory, w.program, w.records, w.initial_model,
            w.num_partitions, pipeline=self.pipeline,
        )
        for key, value in before.items():
            assert (w.initial_model[key] == value).all()

    def test_traffic_rows(self):
        w = kmeans_small(num_points=3000, k=4, num_partitions=6)
        result = compare_ic_pic(
            w.cluster_factory, w.program, w.records, w.initial_model,
            w.num_partitions, pipeline=self.pipeline,
        )
        ic_shuffle, pic_shuffle = result.traffic_row("shuffle")
        assert ic_shuffle > 0
        assert pic_shuffle >= 0


class TestComparePipelined(TestCompare):
    pipeline = True
