"""Tests for the neural-network training application."""

import numpy as np
import pytest

from repro.apps.neuralnet import (
    MLP,
    NeuralNetProgram,
    forward,
    init_params,
    loss_and_gradients,
    ocr_dataset,
)
from repro.apps.neuralnet.mlp import PARAM_KEYS, misclassification
from repro.mapreduce.columnar import columnize
from repro.mapreduce.job import TaskContext


class TestDatagen:
    def test_shapes(self):
        records, X, y = ocr_dataset(100, seed=0)
        assert len(records) == 100
        assert X.shape == (100, 64)
        assert y.shape == (100,)
        assert set(np.unique(y)) <= set(range(10))

    def test_deterministic(self):
        _r1, X1, y1 = ocr_dataset(50, seed=3)
        _r2, X2, y2 = ocr_dataset(50, seed=3)
        assert np.array_equal(X1, X2)
        assert np.array_equal(y1, y2)

    def test_classes_separable_without_noise(self):
        _r, X, y = ocr_dataset(500, noise=0.01, label_noise=0.0, seed=1)
        # Nearest-class-mean classification should be near perfect.
        means = np.stack([X[y == c].mean(axis=0) for c in range(10)])
        pred = np.argmin(
            ((X[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1
        )
        assert (pred == y).mean() >= 0.9

    def test_label_noise_flips_labels(self):
        _r1, _X1, clean = ocr_dataset(2000, label_noise=0.0, seed=5)
        _r2, _X2, noisy = ocr_dataset(2000, label_noise=0.3, seed=5)
        assert (clean != noisy).mean() > 0.1

    @pytest.mark.parametrize(
        "kw",
        [
            {"num_samples": 5, "num_classes": 10},
            {"num_samples": 10, "num_classes": 1},
            {"num_samples": 10, "label_noise": 1.0},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            ocr_dataset(**kw)


class TestMLP:
    def test_param_shapes(self):
        params = init_params(MLP(64, 32, 10), seed=0)
        assert params["W1"].shape == (64, 32)
        assert params["b1"].shape == (32,)
        assert params["W2"].shape == (32, 10)
        assert params["b2"].shape == (10,)

    def test_forward_probabilities(self):
        params = init_params(MLP(8, 4, 3), seed=0)
        X = np.random.default_rng(0).normal(size=(5, 8))
        _H, probs = forward(params, X)
        assert probs.shape == (5, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_gradients_match_finite_differences(self):
        shape = MLP(4, 3, 2)
        params = init_params(shape, seed=1)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 4))
        y = rng.integers(0, 2, size=6)
        _loss, grads = loss_and_gradients(params, X, y)
        eps = 1e-6
        for key in PARAM_KEYS:
            idx = 0  # check the first coordinate of each tensor
            bumped = {k: v.copy() for k, v in params.items()}
            bumped[key].ravel()[idx] += eps
            up, _ = loss_and_gradients(bumped, X, y)
            bumped[key].ravel()[idx] -= 2 * eps
            down, _ = loss_and_gradients(bumped, X, y)
            numeric = (up - down) / (2 * eps)
            assert grads[key].ravel()[idx] == pytest.approx(numeric, abs=1e-5)

    def test_empty_batch_rejected(self):
        params = init_params(MLP(4, 3, 2), seed=0)
        with pytest.raises(ValueError):
            loss_and_gradients(params, np.zeros((0, 4)), np.zeros(0, dtype=int))

    def test_misclassification_bounds(self):
        params = init_params(MLP(8, 4, 3), seed=0)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 8))
        y = rng.integers(0, 3, size=20)
        err = misclassification(params, X, y)
        assert 0.0 <= err <= 1.0

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            MLP(0, 4, 2)


def make_program(**kw):
    _r, Xv, yv = ocr_dataset(200, seed=99)
    defaults = dict(shape=MLP(64, 32, 10), validation=(Xv, yv))
    defaults.update(kw)
    return NeuralNetProgram(**defaults)


class TestProgram:
    def test_initial_model_keys(self):
        prog = make_program()
        model = prog.initial_model([], seed=0)
        assert set(model) == set(PARAM_KEYS)

    def test_sgd_epoch_reduces_loss(self):
        prog = make_program()
        records, X, y = ocr_dataset(500, seed=1)
        params = prog.initial_model(records, seed=2)
        before, _ = loss_and_gradients(params, X, y)
        trained = prog.sgd_epoch(params, X, y)
        after, _ = loss_and_gradients(trained, X, y)
        assert after < before

    def test_sgd_epoch_does_not_mutate_input(self):
        prog = make_program()
        _r, X, y = ocr_dataset(100, seed=1)
        params = prog.initial_model([], seed=2)
        snapshot = {k: v.copy() for k, v in params.items()}
        prog.sgd_epoch(params, X, y)
        for key in PARAM_KEYS:
            assert np.array_equal(params[key], snapshot[key])

    def test_batch_map_emits_weighted_weights(self):
        prog = make_program()
        records, _X, _y = ocr_dataset(50, seed=1)
        ctx = TaskContext(model=prog.initial_model(records, seed=2))
        prog.batch_map(ctx, columnize(records))
        assert {k for k, _v in ctx.output} == set(PARAM_KEYS)
        for _k, (weighted, n) in ctx.output:
            assert n == 50

    def test_reduce_weight_average(self):
        prog = make_program()
        w_a, w_b = np.ones((2, 2)), np.full((2, 2), 3.0)
        ctx = TaskContext()
        prog.reduce(ctx, "W1", [(w_a * 10, 10), (w_b * 30, 30)])
        key, averaged = ctx.output[0]
        assert np.allclose(averaged, (10 * 1 + 30 * 3) / 40)

    def test_converged_on_error_plateau(self):
        prog = make_program(min_improvement=0.01, min_epochs=2)
        model = prog.initial_model([], seed=0)
        # Same model twice: zero improvement -> converged after min_epochs.
        assert prog.converged(model, model, 2)
        assert not prog.converged(model, model, 0)

    def test_converged_at_epoch_cap(self):
        prog = make_program(max_epochs=5)
        model = prog.initial_model([], seed=0)
        assert prog.converged(model, model, 4)

    @pytest.mark.parametrize(
        "kw",
        [
            {"learning_rate": 0},
            {"min_improvement": 0},
            {"l2": -1},
            {"batch_size": 0},
        ],
    )
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            make_program(**kw)

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            NeuralNetProgram(MLP(64, 32, 10), validation=(np.zeros((0, 64)), np.zeros(0)))

    def test_training_improves_validation_error(self):
        records, X, y = ocr_dataset(2000, seed=3)
        prog = NeuralNetProgram(
            MLP(64, 32, 10), validation=(X[1500:], y[1500:])
        )
        train = records[:1500]
        model = prog.initial_model(train, seed=4)
        before = prog.validation_error(model, X[1500:], y[1500:])
        trained, iters, _cost = prog.solve_in_memory(train, model)
        after = prog.validation_error(trained, X[1500:], y[1500:])
        assert after < before
        assert after < 0.35
