"""Tests for the image smoothing application."""

import numpy as np
import pytest

from repro.apps.smoothing import (
    ImageSmoothingProgram,
    jacobi_smooth,
    smooth_reference,
    synthetic_image,
)
from repro.apps.smoothing.datagen import image_records
from repro.apps.smoothing.serial import jacobi_smooth_step
from repro.mapreduce.columnar import columnize


class TestDatagen:
    def test_shape_and_range(self):
        img = synthetic_image(32, 48, seed=0)
        assert img.shape == (32, 48)
        assert img.std() > 0.01  # has structure

    def test_deterministic(self):
        assert np.array_equal(
            synthetic_image(16, 16, seed=3), synthetic_image(16, 16, seed=3)
        )

    def test_noise_zero_is_smooth_er(self):
        clean = synthetic_image(32, 32, noise=0.0, seed=1)
        noisy = synthetic_image(32, 32, noise=0.5, seed=1)
        def roughness(u):
            return np.abs(np.diff(u, axis=0)).mean()
        assert roughness(noisy) > roughness(clean)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            synthetic_image(2, 10)

    def test_records_roundtrip(self):
        img = synthetic_image(8, 8, seed=0)
        records = image_records(img)
        assert len(records) == 8
        rebuilt = np.stack([row for _i, row in sorted(records)])
        assert np.array_equal(rebuilt, img)

    def test_records_require_2d(self):
        with pytest.raises(ValueError):
            image_records(np.zeros(5))


class TestSerialSmoothing:
    def test_converges_to_golden(self):
        img = synthetic_image(24, 24, seed=1)
        result = jacobi_smooth(img, threshold=1e-10)
        golden = smooth_reference(img)
        assert np.abs(result.u - golden).max() < 1e-7

    def test_smoothing_reduces_roughness(self):
        img = synthetic_image(24, 24, noise=0.3, seed=2)
        result = jacobi_smooth(img, threshold=1e-6)
        rough_before = np.abs(np.diff(img, axis=0)).mean()
        rough_after = np.abs(np.diff(result.u, axis=0)).mean()
        assert rough_after < rough_before

    def test_constant_image_is_fixed_point(self):
        img = np.full((10, 10), 3.0)
        out = jacobi_smooth_step(img, img, lam=2.0)
        assert np.allclose(out, 3.0)

    def test_change_trace_contracts(self):
        img = synthetic_image(24, 24, seed=3)
        result = jacobi_smooth(img, threshold=1e-8)
        trace = result.change_trace
        assert trace[-1] < trace[0]

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            jacobi_smooth(np.zeros((5, 5)), lam=0.0)


class TestProgram:
    def make(self, side=16, **kw):
        img = synthetic_image(side, side, seed=4)
        records = image_records(img)
        prog = ImageSmoothingProgram(side, side, **kw)
        return img, records, prog

    def test_one_iteration_matches_serial_step(self):
        img, records, prog = self.make()
        model = prog.initial_model(records)
        new_model, _cost = prog.run_iteration_in_memory(columnize(records), model, 0)
        expected = jacobi_smooth_step(img, img, prog.lam)
        assert np.allclose(prog.image_array(new_model), expected)

    def test_solve_matches_golden(self):
        img, records, prog = self.make()
        prog.threshold = 1e-8
        model, _iters, _cost = prog.solve_in_memory(
            records, prog.initial_model(records)
        )
        golden = smooth_reference(img)
        assert np.abs(prog.image_array(model) - golden).max() < 1e-5

    def test_partition_bands_disjoint_cover(self):
        _img, records, prog = self.make()
        prog.partition(records, prog.initial_model(records), 4, seed=0)
        seen: set[int] = set()
        for owned in prog._owned_keys:
            assert not owned & seen
            seen |= owned
        assert seen == set(range(16))

    def test_sub_model_includes_halo(self):
        _img, records, prog = self.make(overlap=0)
        pairs = prog.partition(records, prog.initial_model(records), 4, seed=0)
        _band, sub_model = pairs[1]
        owned = prog._owned_keys[1]
        # One halo row on each side of the band.
        assert min(sub_model) == min(owned) - 1
        assert max(sub_model) == max(owned) + 1

    def test_merge_reassembles_image(self):
        _img, records, prog = self.make()
        pairs = prog.partition(records, prog.initial_model(records), 4, seed=0)
        merged = prog.merge([m for _r, m in pairs])
        assert set(merged) == set(range(16))

    def test_merge_count_mismatch(self):
        _img, records, prog = self.make()
        prog.partition(records, prog.initial_model(records), 4, seed=0)
        with pytest.raises(ValueError):
            prog.merge([{}, {}])

    def test_converged_semantics(self):
        _img, _records, prog = self.make()
        a = {i: np.zeros(16) for i in range(16)}
        b = {i: np.zeros(16) for i in range(16)}
        assert prog.converged(a, b, 0)
        b[3] = np.full(16, prog.threshold * 2)
        assert not prog.converged(a, b, 0)

    def test_converged_is_the_row_by_row_fold(self):
        # The stacked pass must decide what the loop it replaced decided:
        # one max(|row - prev|) per row, folded with Python's max.
        def by_rows(prog, previous, current):
            worst = 0.0
            for key, row in current.items():
                prev_row = previous.get(key)
                if prev_row is None:
                    return False
                worst = max(worst, float(np.max(np.abs(row - prev_row))))
            return worst < prog.threshold

        _img, _records, prog = self.make()
        rng = np.random.default_rng(4)
        base = {i: rng.normal(size=16) for i in range(16)}
        still = {i: row + prog.threshold * 0.4 for i, row in base.items()}
        moved = {**still, 9: base[9] + prog.threshold * 1.5}
        nan_first = {**still, 0: np.full(16, np.nan)}
        nan_and_moved = {**moved, 12: np.full(16, np.nan)}
        missing = {i: row for i, row in base.items() if i != 5}
        reordered = dict(reversed(list(base.items())))
        cases = [
            (base, still), (base, moved), (base, nan_first), (base, nan_and_moved),
            (missing, still), (missing, nan_first), (reordered, moved), ({}, {}),
            (base, {}),
        ]
        for previous, current in cases:
            assert bool(prog.converged(previous, current, 0)) == by_rows(prog, previous, current)
        # A NaN row does not raise the worst change; a missing row is "not yet".
        assert prog.converged(base, nan_first, 0)
        assert not prog.converged(missing, still, 0)

    def test_model_mode_partitioned(self):
        _img, _records, prog = self.make()
        assert prog.model_mode == "partitioned"

    @pytest.mark.parametrize(
        "kw", [{"lam": 0}, {"threshold": 0}, {"overlap": -1}]
    )
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            ImageSmoothingProgram(16, 16, **kw)

    def test_tiny_image_rejected(self):
        with pytest.raises(ValueError):
            ImageSmoothingProgram(1, 16)
