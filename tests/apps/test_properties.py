"""Property-based tests on the applications' mathematical invariants.

These hold for the serial references, the MapReduce realisations, AND
the PIC best-effort phase — they are what "the algorithms still compute
the right thing under PIC's re-structuring" means formally.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kmeans import KMeansProgram, gaussian_mixture
from repro.apps.linsolve import LinearSolverProgram, diagonally_dominant_system
from repro.apps.linsolve.datagen import system_records
from repro.apps.pagerank import PageRankProgram, local_web_graph
from repro.apps.smoothing import ImageSmoothingProgram, synthetic_image
from repro.apps.smoothing.datagen import image_records
from repro.mapreduce.columnar import columnize


class TestKMeansInvariants:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100), st.integers(2, 5))
    def test_centroids_stay_in_data_bounding_box(self, seed, k):
        records, _ = gaussian_mixture(400, k, dim=2, seed=seed)
        points = np.stack([v for _k, v in records])
        prog = KMeansProgram(k=k, dim=2, threshold=1e-3)
        model, _iters, _c = prog.solve_in_memory(
            records, prog.initial_model(records, seed=seed + 1)
        )
        centroids = prog.centroid_array(model)
        lo, hi = points.min(axis=0), points.max(axis=0)
        assert np.all(centroids >= lo - 1e-9)
        assert np.all(centroids <= hi + 1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 50))
    def test_iteration_never_increases_distortion(self, seed):
        """Each Lloyd step (map+reduce round trip) weakly decreases the
        within-cluster sum of squares — k-means' defining invariant."""
        from repro.apps.kmeans.serial import assign_points

        records, _ = gaussian_mixture(500, 4, dim=2, seed=seed)
        points = np.stack([v for _k, v in records])
        prog = KMeansProgram(k=4, dim=2, threshold=1e-6)
        model = prog.initial_model(records, seed=seed + 1)

        def distortion(m):
            centroids = prog.centroid_array(m)
            assignment = assign_points(points, centroids)
            return float(((points - centroids[assignment]) ** 2).sum())

        batch = columnize(records)
        for it in range(6):
            previous = distortion(model)
            model, _cost = prog.run_iteration_in_memory(batch, model, it)
            assert distortion(model) <= previous + 1e-6


class TestPageRankInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 50))
    def test_rank_floor(self, seed):
        """Every vertex keeps at least the (1 − c) teleport mass."""
        records = local_web_graph(300, seed=seed)
        prog = PageRankProgram()
        model = prog.initial_model(records)
        batch = columnize(records)
        for it in range(prog.iteration_limit):
            model, _cost = prog.run_iteration_in_memory(batch, model, it)
        ranks = prog.rank_vector(model, len(records))
        assert np.all(ranks >= (1 - prog.damping) - 1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 50))
    def test_merge_preserves_rank_floor(self, seed):
        """The PIC merge (cross-edge pass) can only add rank mass."""
        records = local_web_graph(200, seed=seed)
        prog = PageRankProgram(partition_mode="contiguous")
        model = prog.initial_model(records)
        pairs = prog.partition(records, model, 4, seed=seed)
        models = []
        for recs, sub_model in pairs:
            solved, _i, _c = prog.solve_in_memory(recs, sub_model, max_iterations=3)
            models.append(solved)
        before = {
            k: v for m in models for k, v in m.items()
            if isinstance(k, tuple) and k[0] == "pr"
        }
        merged = prog.merge(models)
        for key, value in before.items():
            assert merged[key] >= value - 1e-12


class TestLinearSolverInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 50), st.integers(2, 6))
    def test_block_solve_residual_shrinks(self, seed, partitions):
        """One best-effort round (block solves + merge) reduces the
        residual for diagonally dominant systems — the §VI-B guarantee."""
        A, b, _x = diagonally_dominant_system(48, dominance=1.2, seed=seed)
        records = system_records(A, b)
        prog = LinearSolverProgram(threshold=1e-10, overlap=0)
        model = prog.initial_model(records)
        pairs = prog.partition(records, model, partitions, seed=seed)
        models = []
        for recs, sub_model in pairs:
            solved, _i, _c = prog.solve_in_memory(recs, sub_model)
            models.append(solved)
        merged = prog.merge(models)
        x_before = prog.solution_vector(model, 48)
        x_after = prog.solution_vector(merged, 48)
        assert np.linalg.norm(b - A @ x_after) < np.linalg.norm(b - A @ x_before)


class TestSmoothingInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 50))
    def test_maximum_principle(self, seed):
        """The smoothed image stays within the input's value range
        ((I + λL)⁻¹ is an averaging operator)."""
        img = synthetic_image(16, 16, seed=seed)
        records = image_records(img)
        prog = ImageSmoothingProgram(16, 16, threshold=1e-6)
        model, _i, _c = prog.solve_in_memory(records, prog.initial_model(records))
        out = prog.image_array(model)
        assert out.min() >= img.min() - 1e-9
        assert out.max() <= img.max() + 1e-9

    def test_mass_approximately_conserved(self):
        """With replicated boundaries L has zero row sums, so smoothing
        preserves the total intensity of the fixed point equation's
        solution up to solver tolerance."""
        img = synthetic_image(16, 16, seed=3)
        records = image_records(img)
        prog = ImageSmoothingProgram(16, 16, threshold=1e-10)
        model, _i, _c = prog.solve_in_memory(records, prog.initial_model(records))
        out = prog.image_array(model)
        assert out.sum() == pytest.approx(img.sum(), rel=1e-6)


@pytest.mark.parametrize(
    "app", ["kmeans", "linsolve", "neuralnet", "pagerank", "smoothing"]
)
def test_empty_subproblem_leaves_the_model_unchanged(app):
    """A sub-problem that drew no records (more partitions than
    records) still runs its local iterations; with nothing to map, every
    app hands its model back untouched."""
    import copy

    from tests.parallel.test_equivalence import APPS, _deep_equal

    program, _records, model0 = APPS[app]()
    model, iterations, compute = program.solve_in_memory(
        [], copy.deepcopy(model0), max_iterations=2
    )
    assert _deep_equal(model, model0)
    assert iterations >= 1
    assert compute == 0.0
