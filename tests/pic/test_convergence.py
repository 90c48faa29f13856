"""Tests for the convergence criteria helpers."""

import numpy as np
import pytest

from repro.pic.convergence import (
    Verdict,
    either,
    fixed_iterations,
    kv_model_max_change,
    max_change_below,
)


class TestKvModelMaxChange:
    def test_scalar_change(self):
        assert kv_model_max_change({0: 1.0}, {0: 1.5}) == pytest.approx(0.5)

    def test_vector_change_uses_norm(self):
        prev = {0: np.array([0.0, 0.0])}
        cur = {0: np.array([3.0, 4.0])}
        assert kv_model_max_change(prev, cur) == pytest.approx(5.0)

    def test_max_over_keys(self):
        prev = {0: 0.0, 1: 0.0}
        cur = {0: 0.1, 1: 2.0}
        assert kv_model_max_change(prev, cur) == pytest.approx(2.0)

    def test_key_mismatch_is_infinite(self):
        assert kv_model_max_change({0: 1.0}, {1: 1.0}) == float("inf")

    def test_shape_mismatch_is_infinite(self):
        prev = {0: np.zeros(2)}
        cur = {0: np.zeros(3)}
        assert kv_model_max_change(prev, cur) == float("inf")

    def test_identical_models_zero(self):
        m = {0: np.ones(4), 1: 2.0}
        assert kv_model_max_change(m, m) == 0.0


class TestMaxChangeBelow:
    def test_threshold_behaviour(self):
        crit = max_change_below(0.1)
        assert crit({0: 1.0}, {0: 1.05}, 3)
        assert not crit({0: 1.0}, {0: 1.2}, 3)

    def test_custom_distance(self):
        crit = max_change_below(1.0, distance=lambda a, b: abs(a - b))
        assert crit(0.0, 0.5, 0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            max_change_below(0.0)


class TestFixedIterations:
    def test_stops_exactly_at_limit(self):
        crit = fixed_iterations(10)
        assert not crit(None, None, 8)
        assert crit(None, None, 9)

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            fixed_iterations(0)


class TestEither:
    def test_any_criterion_suffices(self):
        crit = either(fixed_iterations(100), max_change_below(0.1))
        assert crit({0: 1.0}, {0: 1.0}, 0)       # change criterion
        assert crit({0: 0.0}, {0: 99.0}, 99)     # iteration criterion
        assert not crit({0: 0.0}, {0: 99.0}, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            either()


class TestVerdicts:
    """Criteria return a Verdict whose truth value is the old ``bool``."""

    @staticmethod
    def old_below(threshold, distance=kv_model_max_change):
        return lambda prev, cur, it: distance(prev, cur) < threshold

    @staticmethod
    def old_fixed(limit):
        return lambda prev, cur, it: it + 1 >= limit

    def cases(self):
        absdiff = lambda a, b: abs(a - b)  # noqa: E731
        below, fixed = self.old_below, self.old_fixed
        return [
            (max_change_below(0.1), below(0.1),
             [({0: 1.0}, {0: 1.05}, 3), ({0: 1.0}, {0: 1.2}, 3)]),
            (max_change_below(1.0, distance=absdiff), below(1.0, absdiff),
             [(0.0, 0.5, 0)]),
            (fixed_iterations(10), fixed(10), [(None, None, 8), (None, None, 9)]),
            (either(fixed_iterations(100), max_change_below(0.1)),
             lambda *a: fixed(100)(*a) or below(0.1)(*a),
             [({0: 1.0}, {0: 1.0}, 0), ({0: 0.0}, {0: 99.0}, 99),
              ({0: 0.0}, {0: 99.0}, 0)]),
        ]

    def test_truth_value_is_the_old_return_value(self):
        for criterion, old, triples in self.cases():
            for triple in triples:
                verdict = criterion(*triple)
                assert isinstance(verdict, Verdict)
                assert bool(verdict) is old(*triple)
                assert verdict.iteration == triple[2]

    def test_threshold_verdict_carries_the_measurement(self):
        verdict = max_change_below(0.1)({0: 1.0}, {0: 1.05}, 3)
        assert (verdict.stop, verdict.reason) == (True, "threshold")
        assert verdict.measured == pytest.approx(0.05)
        assert verdict.threshold == 0.1
        still = max_change_below(0.1)({0: 1.0}, {0: 1.2}, 3)
        assert not still and still.measured == pytest.approx(0.2)

    def test_cap_verdict_measures_nothing(self):
        verdict = fixed_iterations(10)(None, None, 9)
        assert (verdict.stop, verdict.reason) == (True, "cap")
        assert verdict.measured is None and verdict.threshold is None

    def test_either_reports_who_stopped_else_the_measurement(self):
        crit = either(fixed_iterations(100), max_change_below(0.1))
        assert crit({0: 1.0}, {0: 1.0}, 0).reason == "threshold"
        assert crit({0: 0.0}, {0: 99.0}, 99).reason == "cap"
        going = crit({0: 0.0}, {0: 99.0}, 0)
        assert not going and going.measured == 99.0

    def test_cap_listed_first_spares_the_distance(self):
        def distance(previous, current):
            raise AssertionError("the cap already decided")

        crit = either(fixed_iterations(3), max_change_below(0.1, distance))
        assert crit(None, None, 2).reason == "cap"
        with pytest.raises(AssertionError):
            crit(None, None, 1)

    def test_verdict_is_immutable(self):
        verdict = fixed_iterations(1)(None, None, 0)
        with pytest.raises(AttributeError):
            verdict.stop = False
