"""The two exact reference solvers the quality measures rest on.

* K-means' centroid correspondence (``match_centroids``) is a minimum-cost
  assignment; brute force over every permutation is its oracle for k ≤ 6,
  tied costs and duplicated centroids included.
* Smoothing's golden image (``smooth_reference``) is a CG solve of
  (I + λL) u = f; its oracle is the residual it promises,
  ‖(I + λL)u − f‖ ≤ tol·‖f‖, checked with the stencil applied directly.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kmeans import centroid_displacement, match_centroids
from repro.apps.kmeans.quality import _min_cost_assignment
from repro.apps.smoothing import smooth_reference, synthetic_image
from repro.apps.smoothing.serial import _neighbor_sum


def brute_force_minimum(cost: np.ndarray) -> float:
    k = len(cost)
    rows = np.arange(k)
    return min(float(cost[rows, list(perm)].sum()) for perm in itertools.permutations(range(k)))


def assignment_cost(cost: np.ndarray, cols: np.ndarray) -> float:
    assert sorted(cols.tolist()) == list(range(len(cost))), f"not a permutation: {cols}"
    return float(cost[np.arange(len(cost)), cols].sum())


@st.composite
def cost_matrices(draw: st.DrawFn) -> np.ndarray:
    k = draw(st.integers(0, 6))
    if draw(st.booleans()):
        values = st.integers(0, 3).map(float)  # few distinct values: many ties
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(values, min_size=k * k, max_size=k * k))).reshape(k, k)


class TestAssignment:
    @settings(max_examples=300, deadline=None)
    @given(cost_matrices())
    def test_matches_brute_force(self, cost):
        got = assignment_cost(cost, _min_cost_assignment(cost))
        best = brute_force_minimum(cost)
        if np.array_equal(cost, np.round(cost)):
            assert got == best
        else:
            assert got == pytest.approx(best, rel=1e-12, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_centroids_with_duplicates_match_brute_force(self, k, dim, seed, permuted):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=(k, dim)).astype(float)  # coarse grid: duplicates
        b = a[rng.permutation(k)] if permuted else rng.integers(0, 3, size=(k, dim)) * 1.0
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        got = assignment_cost(cost, match_centroids(a, b))
        assert got == pytest.approx(brute_force_minimum(cost), rel=1e-12, abs=1e-12)
        if permuted:
            assert centroid_displacement(a, b) == 0.0

    def test_empty_sets(self):
        perm = match_centroids(np.zeros((0, 2)), np.zeros((0, 2)))
        assert perm.shape == (0,)
        assert perm.dtype == np.intp

    def test_single_centroid(self):
        assert match_centroids(np.array([[1.0, 2.0]]), np.array([[5.0, -3.0]])).tolist() == [0]

    def test_rejects_one_dimensional_sets(self):
        with pytest.raises(ValueError, match="2-D"):
            match_centroids(np.zeros(3), np.zeros(3))

    def test_rejects_three_dimensional_sets(self):
        with pytest.raises(ValueError, match="2-D"):
            match_centroids(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_rejects_nan(self):
        b = np.zeros((3, 2))
        b[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            match_centroids(np.zeros((3, 2)), b)

    def test_rejects_inf(self):
        a = np.zeros((3, 2))
        a[2, 1] = -np.inf
        with pytest.raises(ValueError, match="finite"):
            match_centroids(a, np.zeros((3, 2)))

    def test_rejects_distances_that_overflow(self):
        a = np.array([[1e308, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="overflow"):
            match_centroids(a, -a)


def residual_ratio(u: np.ndarray, f: np.ndarray, lam: float) -> float:
    """‖(I + λL)u − f‖ / ‖f‖, with L applied by the stencil itself."""
    total, count = _neighbor_sum(u)
    return float(np.linalg.norm(u + lam * (count * u - total) - f) / np.linalg.norm(f))


class TestSmoothReference:
    @pytest.mark.parametrize("shape", [(24, 24), (17, 40), (40, 9)])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_meets_its_residual_tolerance(self, shape, lam, tol):
        f = synthetic_image(*shape, seed=sum(shape))
        u = smooth_reference(f, lam=lam, tol=tol)
        assert u.shape == f.shape
        assert residual_ratio(u, f, lam) <= tol

    def test_zero_image_is_its_own_solution(self):
        assert not smooth_reference(np.zeros((6, 5))).any()

    def test_rejects_one_dimensional_image(self):
        with pytest.raises(ValueError, match="2-D"):
            smooth_reference(np.ones(16))

    def test_rejects_three_dimensional_image(self):
        with pytest.raises(ValueError, match="2-D"):
            smooth_reference(np.ones((4, 4, 3)))

    def test_rejects_nan_image(self):
        f = np.ones((5, 5))
        f[2, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            smooth_reference(f)

    def test_rejects_inf_image(self):
        f = np.ones((5, 5))
        f[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            smooth_reference(f)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_rejects_non_positive_lambda(self, lam):
        with pytest.raises(ValueError, match="lam"):
            smooth_reference(np.ones((5, 5)), lam=lam)

    @pytest.mark.parametrize("tol", [0.0, -1e-8])
    def test_rejects_non_positive_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol"):
            smooth_reference(np.ones((5, 5)), tol=tol)
