"""Error-vs-time curves read off the per-iteration records.

Every IC iteration, best-effort round and top-off iteration leaves one
``IterationTrace`` holding its simulated end time and (a reference to)
the model it ended with, so Figure 12's curves are
``[(t.end, error(t.model)) for t in traces]`` — nothing is patched onto
the program to draw them.
"""

import copy

import pytest

from repro.cluster.cluster import Cluster
from repro.pic.runner import PICRunner, run_ic_baseline
from tests.pic.toy import MeanProgram

RECORDS = [(i, float(i)) for i in range(40)]  # mean 19.5


def error_fn(model):
    return abs(model["mean"] - 19.5)


def make_cluster():
    return Cluster(num_nodes=4, nodes_per_rack=4)


def curve(traces):
    return [(t.end, error_fn(t.model)) for t in traces]


def trace_ic(initial_model):
    result = run_ic_baseline(
        make_cluster(), MeanProgram(), RECORDS,
        initial_model=copy.deepcopy(initial_model),
    )
    return result, [(0.0, error_fn(initial_model))] + curve(result.traces)


def trace_pic(initial_model, seed=3):
    result = PICRunner(
        make_cluster(), MeanProgram(), num_partitions=4, seed=seed
    ).run(RECORDS, initial_model=copy.deepcopy(initial_model))
    be_curve = [(0.0, error_fn(initial_model))] + curve(result.best_effort.stats)
    return result, be_curve, curve(result.topoff.traces)


class TestTraceIC:
    def test_curve_has_one_point_per_iteration(self):
        result, ic_curve = trace_ic({"mean": 0.0})
        # initial point + one per iteration
        assert len(ic_curve) == result.iterations + 1

    def test_curve_times_monotone(self):
        result, ic_curve = trace_ic({"mean": 0.0})
        times = [t for t, _e in ic_curve]
        assert times == sorted(times)
        assert times[-1] == result.total_time

    def test_error_decreases(self):
        _result, ic_curve = trace_ic({"mean": 0.0})
        assert ic_curve[-1][1] < ic_curve[0][1]

    def test_initial_model_not_mutated(self):
        model = {"mean": 0.0}
        result, _curve = trace_ic(model)
        assert model == {"mean": 0.0}
        # Each record refers to its own iteration's model, not a shared one.
        means = [t.model["mean"] for t in result.traces]
        assert len(set(means)) == len(means)
        assert result.traces[-1].model is result.model


class TestTracePIC:
    def test_two_phase_curves(self):
        result, be_curve, topoff_curve = trace_pic({"mean": 0.0})
        assert len(be_curve) == result.be_iterations + 1
        assert len(topoff_curve) == result.topoff_iterations

    def test_topoff_follows_best_effort_in_time(self):
        result, be_curve, topoff_curve = trace_pic({"mean": 0.0})
        assert topoff_curve[0][0] >= be_curve[-1][0]
        # The phase records are the same bracket closed around a phase.
        be_phase, topoff_phase = result.phases
        assert be_phase.end == be_curve[-1][0]
        assert topoff_phase.end == topoff_curve[-1][0] == result.total_time
        # ... and refers to the round's model table; the result hands
        # back a plain dict of it.
        assert be_phase.model is result.best_effort.stats[-1].model
        assert be_phase.model == result.best_effort.model
        assert type(result.best_effort.model) is type(result.model) is dict
        assert topoff_phase.verdict == result.topoff.traces[-1].verdict

    def test_tracing_does_not_change_outcome(self):
        # Reading the curves off a run is not a second kind of run.
        plain = PICRunner(
            make_cluster(), MeanProgram(), num_partitions=4, seed=3
        ).run(RECORDS, initial_model={"mean": 0.0})
        traced, be_curve, _to = trace_pic({"mean": 0.0}, seed=3)
        assert traced.model["mean"] == plain.model["mean"]
        assert traced.total_time == plain.total_time
        assert be_curve[1:] == curve(plain.best_effort.stats)
