"""Tests for the MapReduce job runner (word-count-style workloads)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.topology import NodeSpec
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.columnar import ColumnBatch, GroupedBatch
from repro.mapreduce.costs import CostHints
from repro.mapreduce.job import JobSpec, TaskContext
from repro.mapreduce.records import DistributedDataset, stable_hash
from repro.mapreduce.runner import JobRunner, _JobState


def word_mapper(ctx, records):
    for _key, word in records:
        ctx.emit(word, 1)


def sum_reducer(ctx, grouped):
    for key, values in grouped:
        ctx.emit(key, sum(values))


def identity_mapper(ctx, records):
    ctx.emit_batch(records)


def sum_combiner(grouped):
    return ColumnBatch.from_rows([(key, sum(values)) for key, values in grouped])


class ReduceInputSpy:
    """``sum_reducer`` that records the type of every reducer input (a
    module-level class, so a job holding it still pickles)."""

    def __init__(self):
        self.seen = []

    def __call__(self, ctx, grouped):
        self.seen.append(type(grouped))
        sum_reducer(ctx, grouped)


def make_env(num_nodes=6, num_splits=6, num_words=10, num_records=300):
    cluster = Cluster(num_nodes=num_nodes, nodes_per_rack=num_nodes)
    dfs = DistributedFileSystem(cluster)
    records = [(i, f"word{i % num_words}") for i in range(num_records)]
    dataset = DistributedDataset.materialize(dfs, "/in", records, num_splits)
    return cluster, JobRunner(cluster, dfs), dataset


def word_spec(**kw) -> JobSpec:
    defaults = dict(
        name="wordcount", mapper=word_mapper, reducer=sum_reducer, num_reducers=4
    )
    defaults.update(kw)
    return JobSpec(**defaults)


class TestCorrectness:
    def test_word_count_exact(self):
        _c, runner, dataset = make_env()
        result = runner.run(word_spec(), dataset)
        assert sorted(result.output) == [(f"word{i}", 30) for i in range(10)]

    def test_combiner_preserves_result(self):
        _c, runner, dataset = make_env()
        plain = runner.run(word_spec(), dataset)
        _c2, runner2, dataset2 = make_env()
        combined = runner2.run(word_spec(combiner=sum_combiner), dataset2)
        assert sorted(plain.output) == sorted(combined.output)

    def test_single_reducer(self):
        _c, runner, dataset = make_env()
        result = runner.run(word_spec(num_reducers=1), dataset)
        assert len(result.output) == 10

    def test_more_reducers_than_words(self):
        _c, runner, dataset = make_env()
        result = runner.run(word_spec(num_reducers=24), dataset)
        assert sorted(result.output) == [(f"word{i}", 30) for i in range(10)]

    def test_deterministic_across_runs(self):
        _c, r1, d1 = make_env()
        _c2, r2, d2 = make_env()
        a = r1.run(word_spec(), d1)
        b = r2.run(word_spec(), d2)
        assert a.output.to_rows() == b.output.to_rows()
        assert a.duration == pytest.approx(b.duration)

    def test_batch_mapper_equivalent(self):
        # One emitted batch per split counts as the per-record emits.
        def batch(ctx, records):
            ctx.emit_batch(ColumnBatch.from_rows([(w, 1) for _k, w in records]))

        _c, runner, dataset = make_env()
        result = runner.run(
            JobSpec(name="b", mapper=batch, reducer=sum_reducer, num_reducers=4),
            dataset,
        )
        assert sorted(result.output) == [(f"word{i}", 30) for i in range(10)]


class TestOneDataPlane:
    """Records travel in ``ColumnBatch``/``GroupedBatch`` from split to
    reduce output, whatever shape the job's functions emit."""

    @pytest.mark.parametrize("combiner", [None, sum_combiner])
    def test_every_stage_holds_batches(self, combiner, monkeypatch):
        # The job's own functions emit scalars; what the runner moves
        # between them is spied on.
        reducer = ReduceInputSpy()
        seen = {"reduce_in": reducer.seen, "collected": [], "partitioned": [], "cut": []}

        def spy(cls, method, key, pick):
            original = getattr(cls, method)

            def wrapper(self, *args):
                out = original(self, *args)
                seen[key].append(type(pick(args, out)))
                return out

            monkeypatch.setattr(cls, method, wrapper)

        spy(TaskContext, "collect", "collected", lambda args, out: out)
        spy(_JobState, "_partition", "partitioned", lambda args, out: out[0])
        spy(_JobState, "_reduce_input", "cut", lambda args, out: out)
        _c, runner, dataset = make_env()
        handle = runner.submit(
            word_spec(reducer=reducer, combiner=combiner), dataset
        )
        runner.cluster.run()
        # One batch per map task travels, not one per (map, reducer);
        # every reducer's groups are a cut of one job-wide grouping,
        # and both are dropped once the last reducer has its groups.
        assert len(seen["partitioned"]) == len(dataset.splits)
        assert {type(s.records) for s in dataset.splits} == {ColumnBatch}
        assert set(seen["collected"]) == set(seen["partitioned"]) == {ColumnBatch}
        assert seen["cut"] == seen["reduce_in"] == [GroupedBatch] * 4
        assert handle._state._map_outputs == {}
        assert handle._state._shuffle is None
        assert sorted(handle.result().output) == [
            (f"word{i}", 30) for i in range(10)
        ]


class TestOneCombinerCallPerMapAttempt:
    def test_sixteen_reducers_one_map_task_one_call(self):
        # The map output is grouped by (partition, key) once and the
        # combiner sees all sixteen buckets' groups together — it used
        # to run once per non-empty bucket.
        calls = []

        def counting_combiner(grouped):
            calls.append(len(grouped))
            return sum_combiner(grouped)

        _c, runner, dataset = make_env(num_splits=1, num_words=40)
        result = runner.run(
            word_spec(num_reducers=16, combiner=counting_combiner), dataset
        )
        assert calls == [40]
        assert result.counters.get("combine_output_records") == 40
        # 40 words over 16 reducers: the one call did span buckets.
        assert len({stable_hash(f"word{i}") % 16 for i in range(40)}) > 1
        assert dict(result.output.to_rows()) == {
            f"word{i}": 300 // 40 + (i < 300 % 40) for i in range(40)
        }


class TestCustomPartitioner:
    @pytest.mark.parametrize(
        "partitioner, offender",
        [
            (lambda key, n: key % 4, 2),  # 2 and 3 are outside range(2)
            (lambda key, n: -1, 0),
            (lambda key, n: 0.0, 0),  # in range, but not an integer
            (lambda key, n: None, 0),
        ],
    )
    def test_out_of_range_partition_id_raises(self, partitioner, offender):
        # Used to drop the records silently: 10 mapped, 6 reduced.
        cluster = Cluster(num_nodes=2, nodes_per_rack=2)
        dfs = DistributedFileSystem(cluster)
        dataset = DistributedDataset.materialize(
            dfs, "/in", [(i, i) for i in range(10)], 1
        )
        spec = JobSpec(
            name="lossy",
            mapper=identity_mapper,
            reducer=sum_reducer,
            num_reducers=2,
            partitioner=partitioner,
        )
        with pytest.raises(ValueError) as err:
            JobRunner(cluster, dfs).run(spec, dataset)
        assert "'lossy'" in str(err.value)
        assert f"key {offender!r}" in str(err.value)
        assert "range(2)" in str(err.value)


class TestAccounting:
    def test_counters(self):
        _c, runner, dataset = make_env()
        result = runner.run(word_spec(), dataset)
        c = result.counters
        assert c.get("map_input_records") == 300
        assert c.get("map_output_records") == 300
        assert c.get("reduce_output_records") == 10

    def test_combiner_shrinks_shuffle(self):
        _c, runner, dataset = make_env()
        plain = runner.run(word_spec(), dataset)
        _c2, runner2, dataset2 = make_env()
        combined = runner2.run(word_spec(combiner=sum_combiner), dataset2)
        assert combined.shuffle_bytes < plain.shuffle_bytes
        assert combined.map_output_bytes_raw == plain.map_output_bytes_raw

    def test_shuffle_traffic_recorded(self):
        cluster, runner, dataset = make_env()
        result = runner.run(word_spec(), dataset)
        assert cluster.meter.total("shuffle") == pytest.approx(result.shuffle_bytes)

    def test_output_written_as_model_update(self):
        cluster, runner, dataset = make_env()
        result = runner.run(word_spec(), dataset)
        # 3 replicas per output byte (1 local + 2 pipeline hops).
        assert cluster.meter.total("model_update") == pytest.approx(
            3 * result.output_bytes
        )

    def test_input_read_charged_once(self):
        cluster, runner, dataset = make_env()
        runner.run(word_spec(), dataset)
        assert cluster.meter.total("input") == pytest.approx(dataset.nbytes)

    def test_input_cached_skips_read(self):
        cluster, runner, dataset = make_env()
        runner.run(word_spec(), dataset, input_cached=True)
        assert cluster.meter.total("input") == 0

    def test_duration_positive_and_overheads_counted(self):
        _c, runner, dataset = make_env()
        slow = word_spec(costs=CostHints(job_overhead_seconds=10.0))
        result = runner.run(slow, dataset)
        assert result.duration >= 10.0

    def test_output_locations_are_replica_set(self):
        cluster, runner, dataset = make_env()
        result = runner.run(word_spec(), dataset)
        assert 1 <= len(result.output_locations) <= 3
        for node in result.output_locations:
            assert 0 <= node < cluster.num_nodes


class TestModelDistribution:
    def test_broadcast_once_per_node(self):
        cluster, runner, dataset = make_env()
        runner.run(
            word_spec(), dataset, model={"m": 1}, model_bytes=1000,
            model_locations=(0,),
        )
        # 5 non-holding nodes fetch the full model.
        assert cluster.meter.fabric("model_read") == pytest.approx(5000)

    def test_partitioned_ships_one_model_total(self):
        cluster, runner, dataset = make_env()
        runner.run(
            word_spec(), dataset, model={"m": 1}, model_bytes=1200,
            model_locations=(0,), model_mode="partitioned",
        )
        assert cluster.meter.total("model_read") == pytest.approx(1200)

    def test_bad_model_mode_rejected(self):
        _c, runner, dataset = make_env()
        with pytest.raises(ValueError):
            runner.run(word_spec(), dataset, model_mode="telepathy")


class TestDynamicCosts:
    def test_map_cost_override_used(self):
        def expensive(num_records, nbytes, ctx):
            return 100.0

        _c, runner, dataset = make_env()
        cheap = runner.run(word_spec(), dataset)
        _c2, runner2, dataset2 = make_env()
        result = runner2.run(word_spec(map_cost=expensive), dataset2)
        assert result.duration > cheap.duration + 90

    def test_map_stats_surface(self):
        def stats_mapper(ctx, records):
            ctx.stats["local_iterations"] = 5
            ctx.emit("k", 1)

        _c, runner, dataset = make_env(num_splits=3)
        spec = JobSpec(
            name="s", mapper=stats_mapper, reducer=sum_reducer, num_reducers=1
        )
        result = runner.run(spec, dataset)
        assert set(result.map_stats) == {0, 1, 2}
        assert all(v["local_iterations"] == 5 for v in result.map_stats.values())


class TestSlotReuse:
    def test_runner_survives_many_jobs(self):
        _c, runner, dataset = make_env()
        for _ in range(5):
            result = runner.run(word_spec(), dataset)
            assert len(result.output) == 10

    def test_reduce_waves_when_reducers_exceed_slots(self):
        cluster = Cluster(
            num_nodes=2, nodes_per_rack=2,
            node_spec=NodeSpec(map_slots=2, reduce_slots=1),
        )
        dfs = DistributedFileSystem(cluster)
        records = [(i, f"w{i % 20}") for i in range(100)]
        dataset = DistributedDataset.materialize(dfs, "/in", records, 4)
        runner = JobRunner(cluster, dfs)
        result = runner.run(word_spec(num_reducers=8), dataset)
        assert sorted(result.output) == sorted((f"w{i}", 5) for i in range(20))

    def test_cluster_without_map_slots_rejected_at_submission(self):
        """No node can ever host a map task: the job fails on its first
        slot request, not in finish() with "0/N maps"."""
        cluster = Cluster(
            num_nodes=2, nodes_per_rack=2, node_spec=NodeSpec(map_slots=0)
        )
        dfs = DistributedFileSystem(cluster)
        dataset = DistributedDataset.materialize(dfs, "/in", [(0, "w")], 1)
        with pytest.raises(ValueError, match="exceeds every node's capacity"):
            JobRunner(cluster, dfs).run(word_spec(), dataset)


class TestConcurrentSubmission:
    def test_submit_many_runs_jobs_concurrently(self):
        cluster, runner, dataset = make_env()
        records = [(i, f"word{i % 5}") for i in range(150)]
        dataset_b = DistributedDataset.materialize(
            runner.dfs, "/in-b", records, 3
        )
        handles = runner.submit_many([
            (word_spec(), dataset),
            (word_spec(name="wordcount-b"), dataset_b),
        ])
        assert not any(h.done for h in handles)
        cluster.run()
        assert all(h.done for h in handles)
        a, b = (h.result() for h in handles)
        assert sorted(a.output) == [(f"word{i}", 30) for i in range(10)]
        assert sorted(b.output) == [(f"word{i}", 30) for i in range(5)]
        # Shared clock: both jobs started together and the cluster
        # quiesced at the later finish.
        assert a.started_at == b.started_at == 0.0
        assert cluster.now == max(a.finished_at, b.finished_at)

    def test_result_before_finish_raises(self):
        _c, runner, dataset = make_env()
        handle = runner.submit(word_spec(), dataset)
        with pytest.raises(RuntimeError, match="did not complete"):
            handle.result()

    def test_run_is_submit_plus_drain(self):
        """`run()` and submit+run+result give identical measurements."""
        _c1, r1, d1 = make_env()
        _c2, r2, d2 = make_env()
        via_run = r1.run(word_spec(), d1)
        handle = r2.submit(word_spec(), d2)
        r2.cluster.run()
        via_submit = handle.result()
        assert via_run.output.to_rows() == via_submit.output.to_rows()
        assert via_run.finished_at == via_submit.finished_at
        assert via_run.counters.as_dict() == via_submit.counters.as_dict()

    def test_concurrent_slower_than_solo_but_correct(self):
        """Contention stretches wall-clock (simulated) but never changes
        results: K concurrent copies produce the solo output."""
        _c, solo_runner, solo_dataset = make_env()
        solo = solo_runner.run(word_spec(), solo_dataset)
        cluster, runner, dataset = make_env()
        datasets = [dataset]
        for j in range(3):
            records = [(i, f"word{i % 10}") for i in range(300)]
            datasets.append(DistributedDataset.materialize(
                runner.dfs, f"/in-{j}", records, 6
            ))
        results = runner.run_many([
            (word_spec(name=f"wc-{j}"), ds) for j, ds in enumerate(datasets)
        ])
        for result in results:
            assert sorted(result.output) == sorted(solo.output)
        assert max(r.finished_at for r in results) >= solo.finished_at
