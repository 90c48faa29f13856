"""Every loop says why it stopped.

The IC baseline, the best-effort rounds and the top-off iterations each
leave a ``Verdict`` on every per-iteration record: the one that stopped
the loop is the last and the only truthy one, and names its reason —
``threshold`` (with ``measured < threshold``), ``cap`` (an iteration
limit, the program's own or the loop's), or ``criterion`` (a program
whose ``converged`` returns a plain ``bool``, like ``MeanProgram``).
"""

import copy

import pytest

from repro.cluster.cluster import Cluster
from repro.mapreduce.driver import Verdict
from repro.pic.runner import PICRunner, run_ic_baseline
from tests.parallel.test_equivalence import APPS
from tests.pic.toy import MeanProgram

THRESHOLD_APPS = ["kmeans", "linsolve", "neuralnet", "smoothing"]
#: The attribute holding each program's own iteration cap.
OWN_CAP = {
    "kmeans": "max_iterations", "linsolve": "max_iterations",
    "smoothing": "max_iterations", "neuralnet": "max_epochs",
}


def make_cluster():
    return Cluster(num_nodes=4, nodes_per_rack=4)


def run_ic(app, pipeline, max_iterations=1000, own_cap=None):
    program, records, model0 = APPS[app]()
    if own_cap is not None:
        setattr(program, OWN_CAP[app], own_cap)
    return run_ic_baseline(
        make_cluster(), program, records,
        initial_model=copy.deepcopy(model0), max_iterations=max_iterations,
        pipeline=pipeline,
    )


def assert_one_stop(traces):
    """One verdict per record, numbered in order, only the last truthy."""
    verdicts = [t.verdict for t in traces]
    assert all(isinstance(v, Verdict) for v in verdicts)
    assert [v.iteration for v in verdicts] == list(range(len(traces)))
    assert [bool(v) for v in verdicts] == [False] * (len(traces) - 1) + [True]
    return verdicts[-1]


@pytest.mark.parametrize("app", THRESHOLD_APPS)
class TestThresholdApps:
    pipeline = False

    def test_ic_run_stops_on_its_threshold(self, app):
        result = run_ic(app, self.pipeline)
        last = assert_one_stop(result.traces)
        assert last.reason == "threshold"
        assert last.measured < last.threshold
        # Every check that measured something and went on was above it.
        for trace in result.traces[:-1]:
            if trace.verdict.measured is not None:
                assert trace.verdict.measured >= trace.verdict.threshold

    def test_loop_cap_below_that_count_stops_on_cap(self, app):
        needed = run_ic(app, self.pipeline).iterations
        assert needed >= 2
        capped = run_ic(app, self.pipeline, max_iterations=needed - 1)
        assert capped.iterations == needed - 1
        assert assert_one_stop(capped.traces).reason == "cap"

    def test_program_cap_below_that_count_stops_on_cap(self, app):
        needed = run_ic(app, self.pipeline).iterations
        capped = run_ic(app, self.pipeline, own_cap=needed - 1)
        assert capped.iterations == needed - 1
        last = assert_one_stop(capped.traces)
        assert last.reason == "cap"
        # The cap is checked before the distance is computed.
        assert last.measured is None


class TestThresholdAppsPipelined(TestThresholdApps):
    pipeline = True


class TestPageRank:
    pipeline = False

    def test_fixed_iteration_criteria_report_cap_and_measure_nothing(self):
        program, records, model0 = APPS["pagerank"]()
        ic = run_ic("pagerank", self.pipeline)
        pic = PICRunner(
            make_cluster(), program, num_partitions=4, seed=7, pipeline=self.pipeline
        ).run(records, initial_model=copy.deepcopy(model0))
        for traces, limit in (
            (ic.traces, program.iteration_limit),
            (pic.best_effort.stats, program.be_iteration_limit),
            (pic.topoff.traces, program.topoff_iteration_limit),
        ):
            assert len(traces) == limit
            assert all(t.verdict.measured is None for t in traces)
            assert assert_one_stop(traces) == Verdict(True, limit - 1, "cap")


class TestPageRankPipelined(TestPageRank):
    pipeline = True


class TestPlainBoolProgram:
    pipeline = False

    RECORDS = [(i, float(i)) for i in range(40)]

    def run_ic(self, **kw):
        return run_ic_baseline(
            make_cluster(), MeanProgram(), self.RECORDS,
            initial_model={"mean": 0.0}, pipeline=self.pipeline, **kw,
        )

    def test_converged_still_returns_a_bool(self):
        assert MeanProgram().converged({"mean": 0.0}, {"mean": 0.0}, 0) is True

    def test_bool_is_reported_as_criterion(self):
        last = assert_one_stop(self.run_ic().traces)
        assert last.reason == "criterion"
        assert last.measured is None and last.threshold is None

    def test_cap_below_that_count_stops_on_cap(self):
        needed = self.run_ic().iterations
        capped = self.run_ic(max_iterations=needed - 1)
        assert capped.iterations == needed - 1
        assert assert_one_stop(capped.traces).reason == "cap"


class TestPlainBoolProgramPipelined(TestPlainBoolProgram):
    pipeline = True


# The two tests below run barrier mode; each has a pipelined twin that
# calls it with ``pipeline=True`` (a defaulted argument is no fixture).
@pytest.mark.parametrize("app", sorted(APPS))
def test_best_effort_rounds_and_topoff_iterations_carry_verdicts(app, pipeline=False):
    program, records, model0 = APPS[app]()
    pic = PICRunner(
        make_cluster(), program, num_partitions=4, seed=7,
        be_max_iterations=50, max_iterations=1000, pipeline=pipeline,
    ).run(records, initial_model=copy.deepcopy(model0))
    be_last = assert_one_stop(pic.best_effort.stats)
    topoff_last = assert_one_stop(pic.topoff.traces)
    expected = "cap" if app == "pagerank" else "threshold"
    assert be_last.reason == topoff_last.reason == expected
    # A phase's record says why the phase ended.
    assert [p.verdict for p in pic.phases] == [be_last, topoff_last]


@pytest.mark.parametrize("app", sorted(APPS))
def test_pipelined_rounds_and_iterations_carry_verdicts(app):
    test_best_effort_rounds_and_topoff_iterations_carry_verdicts(app, pipeline=True)


def test_best_effort_cap_is_reported_as_cap(pipeline=False):
    program, records, model0 = APPS["linsolve"]()
    pic = PICRunner(
        make_cluster(), program, num_partitions=4, seed=7, be_max_iterations=2,
        pipeline=pipeline,
    ).run(records, initial_model=copy.deepcopy(model0))
    last = assert_one_stop(pic.best_effort.stats)
    assert last.reason == "cap"
    # The round still measured how far the merged model moved.
    assert last.measured >= last.threshold


def test_pipelined_best_effort_cap_is_reported_as_cap():
    test_best_effort_cap_is_reported_as_cap(pipeline=True)
