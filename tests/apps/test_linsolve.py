"""Tests for the linear-equation solver application."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.linsolve import (
    LinearSolverProgram,
    diagonally_dominant_system,
    jacobi,
    jacobi_iteration_matrix,
)
from repro.apps.linsolve.datagen import system_records
from repro.mapreduce.columnar import columnize
from repro.mapreduce.job import TaskContext


class TestDatagen:
    def test_system_is_consistent(self):
        A, b, x_star = diagonally_dominant_system(50, seed=0)
        assert np.allclose(A @ x_star, b)

    def test_diagonal_dominance(self):
        A, _b, _x = diagonally_dominant_system(50, dominance=1.25, seed=0)
        off = np.abs(A).sum(axis=1) - np.abs(np.diag(A))
        assert np.all(np.abs(np.diag(A)) >= 1.25 * off - 1e-12)

    def test_banded_structure(self):
        A, _b, _x = diagonally_dominant_system(30, bandwidth=2, seed=0)
        for i in range(30):
            for j in range(30):
                if abs(i - j) > 2:
                    assert A[i, j] == 0.0

    def test_long_range_entries_added(self):
        A, _b, _x = diagonally_dominant_system(
            60, bandwidth=2, long_range_entries=30, seed=1
        )
        off_band = sum(
            1 for i in range(60) for j in range(60)
            if abs(i - j) > 2 and A[i, j] != 0
        )
        assert off_band > 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(10, 60), st.integers(0, 50))
    def test_jacobi_always_converges_on_generated_systems(self, n, seed):
        A, b, x_star = diagonally_dominant_system(n, seed=seed)
        rho = np.max(np.abs(np.linalg.eigvals(jacobi_iteration_matrix(A))))
        assert rho < 1.0

    @pytest.mark.parametrize(
        "kw", [{"n": 1}, {"bandwidth": 0}, {"dominance": 1.0},
               {"long_range_entries": -1}]
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            diagonally_dominant_system(**{"n": 20, **kw})


class TestSerialJacobi:
    def test_solves_system(self):
        A, b, x_star = diagonally_dominant_system(40, seed=2)
        result = jacobi(A, b, threshold=1e-10, x_star=x_star)
        assert np.linalg.norm(result.x - x_star) < 1e-8

    def test_traces_recorded(self):
        A, b, x_star = diagonally_dominant_system(40, seed=2)
        result = jacobi(A, b, threshold=1e-8, x_star=x_star)
        assert len(result.change_trace) == result.iterations
        assert len(result.error_trace) == result.iterations
        assert result.error_trace[-1] < result.error_trace[0]

    def test_warm_start_converges_faster(self):
        A, b, x_star = diagonally_dominant_system(40, seed=2)
        cold = jacobi(A, b, threshold=1e-8)
        warm = jacobi(A, b, x0=x_star + 1e-4, threshold=1e-8)
        assert warm.iterations < cold.iterations

    def test_zero_diagonal_rejected(self):
        A = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            jacobi(A, np.ones(2))


class TestRecords:
    def test_row_records_roundtrip(self):
        A, b, _x = diagonally_dominant_system(10, seed=3)
        records = system_records(A, b)
        assert len(records) == 10
        i, (cols, vals, b_i) = records[4]
        assert i == 4
        assert b_i == b[4]
        dense = np.zeros(10)
        dense[cols] = vals
        assert np.allclose(dense, A[4])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            system_records(np.zeros((3, 3)), np.zeros(4))


class TestProgram:
    def make_env(self, n=40, partitions=4, **kw):
        A, b, x_star = diagonally_dominant_system(n, seed=4)
        records = system_records(A, b)
        prog = LinearSolverProgram(**kw)
        return A, b, x_star, records, prog

    def test_one_iteration_is_jacobi_sweep(self):
        A, b, _x, records, prog = self.make_env()
        model = prog.initial_model(records)
        new_model, _cost = prog.run_iteration_in_memory(columnize(records), model, 0)
        x0 = np.zeros(len(b))
        expected = (b - (A - np.diag(np.diag(A))) @ x0) / np.diag(A)
        ours = prog.solution_vector(new_model, len(b))
        assert np.allclose(ours, expected)

    def test_solve_in_memory_matches_serial(self):
        A, b, x_star, records, prog = self.make_env()
        model, _iters, _cost = prog.solve_in_memory(
            records, prog.initial_model(records)
        )
        assert np.linalg.norm(prog.solution_vector(model, 40) - x_star) < 1e-4

    def test_partition_owned_keys_disjoint_cover(self):
        _A, _b, _x, records, prog = self.make_env(partitions=4)
        prog.partition(records, prog.initial_model(records), 4, seed=0)
        seen: set[int] = set()
        for owned in prog._owned_keys:
            assert not owned & seen
            seen |= owned
        assert seen == set(range(40))

    def test_partition_overlap_extends_blocks(self):
        _A, _b, _x, records, prog = self.make_env(overlap=3)
        pairs = prog.partition(records, prog.initial_model(records), 4, seed=0)
        # The second block's records should start before its owned range.
        block_rows = sorted(i for i, _row in pairs[1][0])
        owned = sorted(prog._owned_keys[1])
        assert block_rows[0] < owned[0]

    def test_merge_keeps_only_owned(self):
        _A, _b, _x, records, prog = self.make_env(overlap=2)
        pairs = prog.partition(records, prog.initial_model(records), 4, seed=0)
        models = [dict(m) for _r, m in pairs]
        merged = prog.merge(models)
        assert set(merged) == set(range(40))

    def test_merge_count_mismatch_rejected(self):
        _A, _b, _x, records, prog = self.make_env()
        prog.partition(records, prog.initial_model(records), 4, seed=0)
        with pytest.raises(ValueError):
            prog.merge([{}])

    def test_missing_diagonal_detected(self):
        prog = LinearSolverProgram()
        records = [(0, (np.array([1]), np.array([2.0]), 1.0))]  # no diag
        ctx = TaskContext(model={0: 0.0, 1: 0.0})
        with pytest.raises(ZeroDivisionError):
            prog.batch_map(ctx, columnize(records))

    def test_model_mode_partitioned(self):
        assert LinearSolverProgram().model_mode == "partitioned"

    @pytest.mark.parametrize("kw", [{"threshold": 0}, {"overlap": -1}])
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            LinearSolverProgram(**kw)
