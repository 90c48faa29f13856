"""Tests for the K-means application (datagen, serial, program, quality)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kmeans import (
    KMeansProgram,
    centroid_displacement,
    gaussian_mixture,
    jagota_index,
    lloyd,
    match_centroids,
)
from repro.apps.kmeans.serial import assign_points, init_centroids, update_centroids
from repro.mapreduce.columnar import ColumnBatch, columnize, group_batch, stack_rows
from repro.mapreduce.job import TaskContext
from tests.apps.reference_kmeans import (
    reference_assign_points,
    reference_combine,
    reference_gaussian_mixture,
    reference_sum_groups,
)


class TestDatagen:
    def test_shapes(self):
        records, centers = gaussian_mixture(100, 5, dim=3, seed=0)
        assert len(records) == 100
        assert centers.shape == (5, 3)
        assert records[0][1].shape == (3,)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_records_match_the_indexed_rows(self, seed):
        # The records are zipped from the point array rather than
        # indexed row by row: same int keys, same values, and every
        # value still a row view of the one point array.
        records, centers = gaussian_mixture(500, 4, dim=3, seed=seed)
        expected, expected_centers = reference_gaussian_mixture(500, 4, dim=3, seed=seed)
        assert np.array_equal(centers, expected_centers)
        assert [k for k, _v in records] == [k for k, _v in expected]
        assert all(type(k) is int for k, _v in records)
        assert all(np.array_equal(v, w) for (_k, v), (_j, w) in zip(records, expected))
        base = records[0][1].base
        assert isinstance(base, np.ndarray) and base.shape == (500, 3)
        assert all(v.base is base for _k, v in records)

    def test_deterministic(self):
        a, _ = gaussian_mixture(50, 3, seed=7)
        b, _ = gaussian_mixture(50, 3, seed=7)
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))

    def test_separation_controls_spread(self):
        _, tight = gaussian_mixture(10, 8, separation=2.0, seed=0)
        _, loose = gaussian_mixture(10, 8, separation=20.0, seed=0)
        assert np.abs(loose).max() > np.abs(tight).max()

    @pytest.mark.parametrize(
        "kw",
        [
            {"num_points": 0, "num_clusters": 1},
            {"num_points": 1, "num_clusters": 0},
            {"num_points": 1, "num_clusters": 1, "dim": 0},
            {"num_points": 1, "num_clusters": 1, "spread": 0},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            gaussian_mixture(**kw)


class TestSerialLloyd:
    def test_recovers_separated_clusters(self):
        records, centers = gaussian_mixture(2000, 4, separation=12.0, seed=1)
        points = np.stack([v for _k, v in records])
        result = lloyd(points, 4, seed=3)
        assert centroid_displacement(result.centroids, centers) < 0.5

    def test_assignment_is_nearest(self):
        points = np.array([[0.0, 0.0], [10.0, 10.0]])
        centroids = np.array([[1.0, 1.0], [9.0, 9.0]])
        assert list(assign_points(points, centroids)) == [0, 1]

    def test_update_keeps_empty_cluster_centroid(self):
        points = np.array([[0.0, 0.0]])
        assignment = np.array([0])
        previous = np.array([[5.0, 5.0], [7.0, 7.0]])
        updated = update_centroids(points, assignment, 2, previous)
        assert np.allclose(updated[1], [7.0, 7.0])
        assert np.allclose(updated[0], [0.0, 0.0])

    def test_displacement_trace_monotone_tail(self):
        records, _ = gaussian_mixture(2000, 4, separation=12.0, seed=1)
        points = np.stack([v for _k, v in records])
        result = lloyd(points, 4, seed=3)
        assert result.displacement_trace[-1] < result.displacement_trace[0]

    def test_init_requires_enough_points(self):
        with pytest.raises(ValueError):
            init_centroids(np.zeros((3, 2)), 5)

    def test_bad_initial_shape_rejected(self):
        with pytest.raises(ValueError):
            lloyd(np.zeros((10, 2)), 3, initial=np.zeros((2, 2)))


# Coordinates that make the distance expression's rounding show: signed
# zeros, both infinities (inf - inf is NaN) and NaN.
_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


class TestAssignPoints:
    """``assign_points`` returns the indices the fresh-array expression
    it replaced returns, ties (first wins) and NaNs (first wins) included."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 300),
        st.integers(1, 40),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.integers(0, 39),
        st.sampled_from([0.0, 0.01, 0.2]),
    )
    def test_indices_equal_the_reference(self, n, k, dim, seed, grid, copies, special_rate):
        rng = np.random.default_rng(seed)
        if grid:  # few distinct distances: many exact ties
            points = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
            centroids = rng.integers(-3, 4, size=(k, dim)).astype(np.float64)
        else:
            points = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4)
            centroids = rng.normal(size=(k, dim)) * 10.0 ** rng.integers(-3, 4)
        for _ in range(copies if k > 1 else 0):  # duplicated centroids
            centroids[rng.integers(k)] = centroids[rng.integers(k)]
        for values in (points, centroids):
            mask = rng.random(values.shape) < special_rate
            values[mask] = rng.choice(_SPECIAL, int(mask.sum()))
        with np.errstate(all="ignore"):
            got = assign_points(points, centroids)
            want = reference_assign_points(points, centroids)
        assert got.dtype == want.dtype and got.shape == (n,)
        assert np.array_equal(got, want)

    def test_ties_and_nans_go_to_the_first(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 0.0]])
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        assert assign_points(points, centroids).tolist() == [0, 0, 0]
        with np.errstate(invalid="ignore"):
            nan_second = np.array([[0.0, 0.0], [np.nan, 0.0], [5.0, 5.0]])
            assert assign_points(points[:2], nan_second).tolist() == [1, 1]


class TestProgram:
    def make(self, **kw):
        defaults = dict(k=3, dim=2, threshold=0.05)
        defaults.update(kw)
        return KMeansProgram(**defaults)

    def test_initial_model_is_k_points(self):
        prog = self.make()
        records = [(i, np.array([float(i), 0.0])) for i in range(10)]
        model = prog.initial_model(records, seed=1)
        assert set(model) == {0, 1, 2}

    def test_initial_model_from_a_batch_equals_the_row_list(self):
        records, _ = gaussian_mixture(50, 3, dim=2, seed=5)
        prog = self.make()
        for seed in (0, 1, 7):
            from_rows = prog.initial_model(records, seed=seed)
            from_batch = prog.initial_model(ColumnBatch.from_rows(records), seed=seed)
            assert list(from_batch) == list(from_rows)
            assert all(
                _bits(from_batch[c]) == _bits(from_rows[c])
                and from_batch[c].dtype == np.float64
                for c in from_rows
            )

    def test_both_runners_start_from_a_batch(self):
        from repro.cluster.cluster import Cluster
        from repro.pic.runner import PICRunner, run_ic_baseline

        records, _ = gaussian_mixture(60, 2, dim=2, separation=8.0, seed=3)
        prog = self.make(k=2)

        def cluster():
            return Cluster(num_nodes=4, nodes_per_rack=4)

        ic_rows = run_ic_baseline(cluster(), prog, records, seed=2)
        ic_batch = run_ic_baseline(cluster(), prog, ColumnBatch.from_rows(records), seed=2)
        pic_rows = PICRunner(cluster(), prog, num_partitions=2, seed=2).run(records)
        pic_batch = PICRunner(cluster(), prog, num_partitions=2, seed=2).run(
            ColumnBatch.from_rows(records)
        )
        for from_rows, from_batch in ((ic_rows, ic_batch), (pic_rows, pic_batch)):
            assert _bits(prog.centroid_array(from_batch.model)) == _bits(
                prog.centroid_array(from_rows.model)
            )

    def test_batch_map_assigns_nearest(self):
        prog = self.make(k=2)
        model = {0: np.array([0.0, 0.0]), 1: np.array([10.0, 10.0])}
        ctx = TaskContext(model=model)
        records = [(0, np.array([1.0, 1.0])), (1, np.array([9.0, 9.0]))]
        prog.batch_map(ctx, columnize(records))
        assert [k for k, _v in ctx.output] == [0, 1]

    def test_map_reduce_roundtrip_is_lloyd_step(self):
        records, _ = gaussian_mixture(500, 3, dim=2, separation=8.0, seed=2)
        prog = self.make()
        model = prog.initial_model(records, seed=4)
        new_model, _cost = prog.run_iteration_in_memory(columnize(records), model, 0)
        points = np.stack([v for _k, v in records])
        centroids = prog.centroid_array(model)
        expected = update_centroids(
            points, assign_points(points, centroids), 3, centroids
        )
        assert np.allclose(prog.centroid_array(new_model), expected)

    def test_pic_with_more_partitions_than_records(self):
        # random_partition leaves some sub-problems empty; their map
        # output is an empty batch the vectorized combiner never typed.
        from repro.cluster.cluster import Cluster
        from repro.pic.runner import PICRunner

        records, _ = gaussian_mixture(6, 2, dim=2, seed=0)
        prog = self.make(k=2)
        result = PICRunner(
            Cluster(num_nodes=4, nodes_per_rack=4), prog, num_partitions=8, seed=1
        ).run(records, initial_model=prog.initial_model(records, seed=1))
        assert set(result.model) == {0, 1}
        assert np.isfinite(prog.centroid_array(result.model)).all()

    def test_combiner_sums(self):
        prog = self.make(dim=2)
        grouped = group_batch(ColumnBatch.from_rows(
            [(0, (np.array([1.0, 1.0]), 1)), (0, (np.array([2.0, 0.0]), 2))]
        ))
        [(key, (total, count))] = prog.job_spec().combiner(grouped).to_rows()
        assert key == 0
        assert np.allclose(total, [3.0, 1.0])
        assert count == 3

    def test_empty_cluster_keeps_centroid(self):
        prog = self.make()
        model = {0: np.zeros(2), 1: np.ones(2), 2: np.full(2, 5.0)}
        new_model = prog.build_model(model, [(0, np.full(2, 2.0))])
        assert np.allclose(new_model[2], [5.0, 5.0])

    def test_converged_on_threshold(self):
        prog = self.make(threshold=0.1)
        a = {0: np.zeros(2), 1: np.ones(2), 2: np.ones(2)}
        b = {0: np.full(2, 0.01), 1: np.ones(2), 2: np.ones(2)}
        assert prog.converged(a, b, 3)
        assert not prog.converged(a, {**b, 0: np.ones(2)}, 3)

    def test_converged_at_max_iterations(self):
        prog = self.make(max_iterations=5)
        a = {0: np.zeros(2), 1: np.zeros(2), 2: np.zeros(2)}
        b = {0: np.ones(2), 1: np.zeros(2), 2: np.zeros(2)}
        assert prog.converged(a, b, 4)

    @pytest.mark.parametrize("kw", [{"k": 0}, {"dim": 0}, {"threshold": 0}])
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            self.make(**kw)

    def test_model_mode_is_broadcast(self):
        assert self.make().model_mode == "broadcast"


def _grouped_partials(seed: int, dim: int, num_rows: int, num_keys: int):
    """Grouped ``(centroid, (vector, count))`` records, as a combiner or
    reducer receives them: vectors whose elements span 1e-12 … 1e12 in
    both signs; from two elements on one column is all ``-0.0``, from
    three on another all ``+0.0``."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(num_rows, dim)) * 10.0 ** rng.integers(
        -12, 13, size=(num_rows, dim)
    )
    if dim >= 2:
        vectors[:, 0] = -0.0
    if dim >= 3:
        vectors[:, 1] = 0.0
    rows = [
        (int(key), (vector, int(count)))
        for key, vector, count in zip(
            rng.integers(num_keys, size=num_rows),
            vectors,
            rng.integers(0, 5, size=num_rows),
        )
    ]
    return group_batch(ColumnBatch.from_rows(rows))


def _bits(array):
    return np.asarray(array, dtype=np.float64).tobytes()


class TestSums:
    """``combine_batch`` and ``batch_reduce`` sum every group with
    ``group_sums``: the loop they replaced where it folded left to right
    (vectors of two or more elements), and the scalar combine the
    program used to carry (``reference_combine``) for every dimension,
    bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 60),
           st.integers(1, 8))
    def test_batch_forms_equal_the_loop_they_replaced(self, seed, dim, rows, keys):
        grouped = _grouped_partials(seed, dim, rows, keys)
        prog = KMeansProgram(k=keys, dim=dim)
        totals, csums = reference_sum_groups(grouped)

        combined = prog.combine_batch(grouped)
        assert combined.keys.rows() == grouped.unique_keys().rows()
        vecs, cnts = combined.values.slots
        assert _bits(vecs.data) == _bits(totals)
        assert cnts.values.tolist() == csums.tolist()

        ctx = TaskContext()
        prog.batch_reduce(ctx, grouped)
        keep = csums > 0
        out = ctx.collect()
        assert out.keys.rows() == np.asarray(grouped.unique_keys().rows())[keep].tolist()
        assert _bits(stack_rows(out.values)) == _bits(totals[keep] / csums[keep, None])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 60),
           st.integers(1, 8))
    def test_batch_combine_equals_the_scalar_combine(self, seed, dim, rows, keys):
        grouped = _grouped_partials(seed, dim, rows, keys)
        prog = KMeansProgram(k=keys, dim=dim)
        combined = prog.combine_batch(grouped).to_rows()
        expected = [(key, reference_combine(key, values)) for key, values in grouped]
        assert [key for key, _v in combined] == [key for key, _v in expected]
        for (_k, (total, count)), (_e, (etotal, ecount)) in zip(combined, expected):
            assert _bits(total) == _bits(etotal)
            assert count == ecount and type(count) is type(ecount) is int

    def test_scalar_combine_folds_from_positive_zero(self):
        # Both folds start at +0.0, so -0.0 + -0.0 comes out +0.0.
        values = [(np.array([-0.0]), 1), (np.array([-0.0]), 2)]
        total, count = reference_combine(0, values)
        assert _bits(total) == _bits([0.0]) and count == 3
        grouped = group_batch(ColumnBatch.from_rows([(0, v) for v in values]))
        [(_key, (total, count))] = KMeansProgram(k=1, dim=1).combine_batch(
            grouped
        ).to_rows()
        assert _bits(total) == _bits([0.0]) and count == 3


class TestQuality:
    def test_jagota_tighter_for_true_centers(self):
        records, centers = gaussian_mixture(2000, 4, separation=10.0, seed=1)
        points = np.stack([v for _k, v in records])
        rng = np.random.default_rng(0)
        random_centroids = rng.uniform(-20, 20, size=centers.shape)
        assert jagota_index(points, centers) < jagota_index(points, random_centroids)

    def test_jagota_of_perfect_model(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        centroids = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert jagota_index(points, centroids) == pytest.approx(0.0)

    def test_match_centroids_undoes_permutation(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        b = a[perm]
        matched = match_centroids(a, b)
        assert np.allclose(b[matched], a)

    def test_displacement_zero_for_permuted_copy(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 2))
        b = a[::-1].copy()
        assert centroid_displacement(a, b) == pytest.approx(0.0)

    def test_displacement_positive_for_different_sets(self):
        a = np.zeros((3, 2))
        b = np.ones((3, 2))
        assert centroid_displacement(a, b) == pytest.approx(np.sqrt(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            match_centroids(np.zeros((3, 2)), np.zeros((4, 2)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 100))
    def test_displacement_is_symmetric(self, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(k, 3))
        b = rng.normal(size=(k, 3))
        assert centroid_displacement(a, b) == pytest.approx(
            centroid_displacement(b, a)
        )
