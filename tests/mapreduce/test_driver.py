"""Tests for the iterative driver (Figure 1(a) template)."""

import dataclasses

import pytest

from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.costs import CostHints
from repro.mapreduce.driver import (
    Bracket,
    IterativeDriver,
    Verdict,
    _strip_overheads,
    iterate,
)
from repro.mapreduce.job import JobSpec
from repro.mapreduce.records import hash_partitioner
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner

# A toy IC computation with a known fixed point: the model is a scalar
# mean estimate; each iteration averages the records and moves the model
# halfway toward that mean.  Converges geometrically to the data mean.


# Stand-ins for every callable JobSpec field (never called), at module
# level so a spec holding them could cross a process boundary.
def _stub_mapper(ctx, records): ...
def _stub_reducer(ctx, grouped): ...
def _stub_combiner(grouped): ...
def _stub_partitioner(key, n): return hash_partitioner(key, n)
def _stub_map_cost(num_records, nbytes, ctx): return 1.0


def make_env(values=None, num_splits=4, pipeline=None):
    cluster = Cluster(num_nodes=4, nodes_per_rack=4)
    dfs = DistributedFileSystem(cluster)
    if values is None:
        values = [float(i) for i in range(40)]
    records = [(i, v) for i, v in enumerate(values)]
    dataset = DistributedDataset.materialize(dfs, "/in", records, num_splits)
    return cluster, JobRunner(cluster, dfs, pipeline=pipeline), dataset


def mean_job(model) -> JobSpec:
    def mapper(ctx, records):
        for _key, value in records:
            ctx.emit(0, (value, 1))

    def reducer(ctx, grouped):
        for _key, values in grouped:
            total = sum(v for v, _n in values)
            count = sum(n for _v, n in values)
            target = total / count
            ctx.emit("mean", (ctx.model["mean"] + target) / 2.0)

    return JobSpec(name="mean", mapper=mapper, reducer=reducer, num_reducers=1)


def build_model(model, output):
    new = dict(model)
    for k, v in output:
        new[k] = v
    return new


def close_enough(prev, cur, it):
    return abs(cur["mean"] - prev["mean"]) < 1e-6


def make_driver(runner, dataset, **kw):
    defaults = dict(
        jobs=lambda model, it: [mean_job(model)],
        build_model=build_model,
        converged=close_enough,
        model_sizer=lambda m: 16,
        max_iterations=100,
    )
    defaults.update(kw)
    return IterativeDriver(runner, dataset, **defaults)


class TestConvergence:
    def test_converges_to_data_mean(self):
        _c, runner, dataset = make_env()
        driver = make_driver(runner, dataset)
        result = driver.run({"mean": 0.0})
        assert result.model["mean"] == pytest.approx(19.5, abs=1e-4)

    def test_iteration_count_matches_geometric_rate(self):
        _c, runner, dataset = make_env()
        result = make_driver(runner, dataset).run({"mean": 0.0})
        # halving each step from ~19.5 to <1e-6 takes ~25 steps
        assert 20 <= result.iterations <= 30

    def test_max_iterations_cap(self):
        _c, runner, dataset = make_env()
        driver = make_driver(runner, dataset, max_iterations=3)
        result = driver.run({"mean": 0.0})
        assert result.iterations == 3

    def test_zero_max_iterations_rejected(self):
        _c, runner, dataset = make_env()
        with pytest.raises(ValueError):
            make_driver(runner, dataset, max_iterations=0)

    def test_empty_job_chain_rejected(self):
        _c, runner, dataset = make_env()
        driver = make_driver(runner, dataset, jobs=lambda m, i: [])
        with pytest.raises(ValueError, match="empty chain"):
            driver.run({"mean": 0.0})


class TestTraces:
    def test_per_iteration_traces(self):
        _c, runner, dataset = make_env()
        result = make_driver(runner, dataset, max_iterations=5).run({"mean": 0.0})
        assert len(result.traces) == 5
        for trace in result.traces:
            assert trace.duration > 0
            assert trace.shuffle_bytes > 0
            assert trace.model_update_bytes > 0

    def test_totals_are_sums(self):
        _c, runner, dataset = make_env()
        result = make_driver(runner, dataset, max_iterations=4).run({"mean": 0.0})
        assert result.total_shuffle_bytes == sum(
            t.shuffle_bytes for t in result.traces
        )

    def test_total_time_spans_iterations(self):
        cluster, runner, dataset = make_env()
        result = make_driver(runner, dataset, max_iterations=4).run({"mean": 0.0})
        assert result.total_time == pytest.approx(cluster.now)


class TestOptimizedBaseline:
    def test_input_read_once_when_optimized(self):
        cluster, runner, dataset = make_env()
        make_driver(runner, dataset, max_iterations=5).run({"mean": 0.0})
        assert cluster.meter.total("input") == pytest.approx(dataset.nbytes)

    def test_input_read_every_iteration_when_not(self):
        # Barrier semantics under test: pin the mode so an ambient
        # PIC_PIPELINE=1 (whose cache legitimately elides re-reads)
        # does not change the expected ledger.
        cluster, runner, dataset = make_env(pipeline=False)
        driver = make_driver(
            runner, dataset, max_iterations=5, optimized_baseline=False
        )
        driver.run({"mean": 0.0})
        assert cluster.meter.total("input") == pytest.approx(5 * dataset.nbytes)

    def test_job_overhead_stripped_when_optimized(self):
        def slow_jobs(model, it):
            job = mean_job(model)
            return [
                JobSpec(
                    name=job.name, mapper=job.mapper, reducer=job.reducer,
                    num_reducers=1, costs=CostHints(job_overhead_seconds=50.0),
                )
            ]

        _c, runner, dataset = make_env()
        fast = make_driver(runner, dataset, jobs=slow_jobs, max_iterations=2)
        result = fast.run({"mean": 0.0})
        assert result.total_time < 50.0


    def test_strip_keeps_every_other_jobspec_field(self):
        # One distinct non-default value per field, so a field the strip
        # forgot would come back as its default.
        spec = JobSpec(
            name="every-field", mapper=_stub_mapper, reducer=_stub_reducer,
            combiner=_stub_combiner, num_reducers=7,
            partitioner=_stub_partitioner,
            costs=CostHints(job_overhead_seconds=5.0, task_overhead_seconds=2.0),
            map_cost=_stub_map_cost,
        )
        stripped = _strip_overheads(spec)
        for field in dataclasses.fields(JobSpec):
            if field.name == "costs":
                assert stripped.costs == spec.costs.without_overheads()
            else:
                assert getattr(stripped, field.name) is getattr(
                    spec, field.name
                ), field.name
        set_fields = {
            f.name for f in dataclasses.fields(JobSpec)
            if getattr(spec, f.name) != f.default
        }
        assert set_fields == {f.name for f in dataclasses.fields(JobSpec)}

    def test_strip_returns_the_spec_itself_when_nothing_to_strip(self):
        spec = JobSpec(
            name="warm", mapper=print, reducer=print,
            costs=CostHints().without_overheads(),
        )
        assert _strip_overheads(spec) is spec


class TestIterate:
    """The loop operator on its own: no cluster, no jobs."""

    @staticmethod
    def halve(model, iteration):
        return model / 2, f"cost{iteration}"

    def test_plain_bool_is_wrapped_as_criterion(self):
        steps = list(iterate(self.halve, lambda p, c, i: c < 1, 10, 8.0))
        assert [m for m, _c, _v in steps] == [4.0, 2.0, 1.0, 0.5]
        assert [c for _m, c, _v in steps] == ["cost0", "cost1", "cost2", "cost3"]
        verdicts = [v for _m, _c, v in steps]
        assert [bool(v) for v in verdicts] == [False, False, False, True]
        assert verdicts[-1] == Verdict(True, 3, "criterion")
        assert verdicts[-1].measured is None

    def test_running_out_of_iterations_is_marked_cap(self):
        *_going, (model, _cost, verdict) = iterate(
            self.halve, lambda p, c, i: False, 3, 8.0
        )
        assert model == 1.0
        assert verdict == Verdict(True, 2, "cap")

    def test_cap_keeps_what_the_criterion_measured(self):
        measuring = lambda p, c, i: Verdict(False, i, "threshold", c, 0.1)  # noqa: E731
        *_going, (_model, _cost, verdict) = iterate(self.halve, measuring, 2, 8.0)
        assert verdict == Verdict(True, 1, "cap", measured=2.0, threshold=0.1)

    def test_a_verdict_passes_through_untouched(self):
        stop = Verdict(True, 0, "threshold", 0.01, 0.1)
        ((_model, _cost, verdict),) = iterate(self.halve, lambda p, c, i: stop, 5, 8.0)
        assert verdict is stop

    def test_criterion_reached_on_the_last_iteration_is_not_a_cap(self):
        *_going, (_m, _c, verdict) = iterate(
            self.halve, lambda p, c, i: c < 1.5, 3, 8.0
        )
        assert verdict == Verdict(True, 2, "criterion")

    def test_zero_cap_runs_nothing(self):
        assert list(iterate(self.halve, lambda p, c, i: True, 0, 8.0)) == []

    def test_criterion_sees_previous_and_current(self):
        seen = []
        list(iterate(self.halve, lambda p, c, i: seen.append((p, c, i)), 2, 8.0))
        assert seen == [(8.0, 4.0, 0), (4.0, 2.0, 1)]


class TestVerdictsOnTraces:
    def test_each_trace_carries_its_verdict_end_time_and_model(self):
        cluster, runner, dataset = make_env()
        result = make_driver(runner, dataset).run({"mean": 0.0})
        verdicts = [t.verdict for t in result.traces]
        assert [v.iteration for v in verdicts] == list(range(result.iterations))
        assert [bool(v) for v in verdicts] == [False] * (result.iterations - 1) + [True]
        # close_enough returns a plain bool.
        assert verdicts[-1].reason == "criterion"
        assert verdicts[-1].measured is None
        ends = [t.end for t in result.traces]
        assert ends == sorted(ends) and ends[-1] == cluster.now
        assert result.traces[-1].model is result.model
        assert result.traces[0].model == {"mean": 9.75}

    def test_driver_cap_is_reported_as_cap(self):
        _c, runner, dataset = make_env()
        result = make_driver(runner, dataset, max_iterations=3).run({"mean": 0.0})
        assert result.traces[-1].verdict == Verdict(True, 2, "cap")

    def test_bracket_around_a_whole_run_sums_its_iterations(self):
        cluster, runner, dataset = make_env()
        bracket = Bracket(cluster, runner.cache)
        result = make_driver(runner, dataset, max_iterations=4).run({"mean": 0.0})
        phase = bracket.close(name="ic")
        assert phase.name == "ic"
        assert phase.shuffle_bytes == result.total_shuffle_bytes
        assert phase.model_update_bytes == result.total_model_update_bytes
        assert phase.duration == pytest.approx(result.total_time)
        assert phase.end == cluster.now


class TestChainedJobs:
    def test_two_jobs_per_iteration(self):
        # First job computes the mean; second adds 1 to it.
        def jobs(model, it):
            def bump_mapper(ctx, records):
                for _record in records:
                    ctx.emit(0, 0)

            def bump_reducer(ctx, grouped):
                for _group in grouped:
                    ctx.emit("mean", ctx.model["mean"] + 1.0)

            return [
                mean_job(model),
                JobSpec(name="bump", mapper=bump_mapper, reducer=bump_reducer,
                        num_reducers=1),
            ]

        _c, runner, dataset = make_env()
        driver = make_driver(runner, dataset, jobs=jobs, max_iterations=1)
        result = driver.run({"mean": 0.0})
        # mean job: (0 + 19.5)/2 = 9.75, bump job: +1
        assert result.model["mean"] == pytest.approx(10.75)
        assert len(result.traces[0].job_results) == 2
