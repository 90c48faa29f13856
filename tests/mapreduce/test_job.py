"""Tests for job specification and task contexts."""

import pytest

from repro.mapreduce.columnar import ColumnBatch, group_batch
from repro.mapreduce.job import Counters, JobSpec, TaskContext


def noop_mapper(ctx, k, v):
    ctx.emit(k, v)


def noop_reducer(ctx, k, values):
    ctx.emit(k, values[0])


def sum_combiner(k, values):
    return sum(values)


def declining_batch_combiner(grouped):
    return None


def fixed_batch_combiner(grouped):
    # Recognisably not the scalar combiner's output: one ("z", 0) per group.
    return ColumnBatch.from_rows([("z", 0)] * len(grouped))


def short_batch_combiner(grouped):
    return ColumnBatch.from_rows([(0, 99)])


def layout_bound_batch_combiner(grouped):
    # Like k-means' combine_batch: written for the job's own columns.
    return ColumnBatch(grouped.unique_keys(), grouped.sorted_values.slots[0])


class TestTaskContext:
    def test_emit_collects(self):
        ctx = TaskContext()
        ctx.emit("a", 1)
        ctx.emit("b", 2)
        assert ctx.output == [("a", 1), ("b", 2)]

    def test_collect_is_always_one_batch_in_emission_order(self):
        # Scalar emits are columnized; a batch emitted between them
        # keeps its place; kinds that disagree cost nothing but typing.
        ctx = TaskContext()
        assert type(ctx.collect()) is ColumnBatch and len(ctx.collect()) == 0
        ctx.emit(1, 1.0)
        ctx.emit_batch(ColumnBatch.from_rows([(2, 2.0), (3, 3.0)]))
        ctx.emit("four", 4.0)
        assert ctx.output_count == 4
        collected = ctx.collect()
        assert type(collected) is ColumnBatch
        assert collected.to_rows() == [(1, 1.0), (2, 2.0), (3, 3.0), ("four", 4.0)]
        assert ctx.output == collected.to_rows()

    def test_model_and_split_index(self):
        ctx = TaskContext(model={"x": 1}, split_index=4)
        assert ctx.model == {"x": 1}
        assert ctx.split_index == 4

    def test_stats_scratch(self):
        ctx = TaskContext()
        ctx.stats["local_iterations"] = 7
        assert ctx.stats == {"local_iterations": 7}


class TestCounters:
    def test_add_and_get(self):
        c = Counters()
        c.add("x")
        c.add("x", 2)
        assert c.get("x") == 3

    def test_missing_is_zero(self):
        assert Counters().get("nope") == 0

    def test_as_dict_copy(self):
        c = Counters()
        c.add("x")
        d = c.as_dict()
        d["x"] = 99
        assert c.get("x") == 1


class TestJobSpecValidation:
    def test_requires_exactly_one_mapper(self):
        with pytest.raises(ValueError, match="mapper"):
            JobSpec(name="j", reducer=noop_reducer)
        with pytest.raises(ValueError, match="mapper"):
            JobSpec(
                name="j",
                mapper=noop_mapper,
                batch_mapper=lambda ctx, recs: None,
                reducer=noop_reducer,
            )

    def test_requires_exactly_one_reducer(self):
        with pytest.raises(ValueError, match="reducer"):
            JobSpec(name="j", mapper=noop_mapper)

    def test_zero_reducers_rejected(self):
        with pytest.raises(ValueError, match="num_reducers"):
            JobSpec(name="j", mapper=noop_mapper, reducer=noop_reducer, num_reducers=0)

    def test_zero_replication_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            JobSpec(
                name="j", mapper=noop_mapper, reducer=noop_reducer,
                output_replication=0,
            )


class TestRunHelpers:
    def test_run_mapper_record_at_a_time(self):
        spec = JobSpec(name="j", mapper=noop_mapper, reducer=noop_reducer)
        ctx = TaskContext()
        spec.run_mapper(ctx, ColumnBatch.from_rows([("a", 1), ("b", 2)]))
        assert ctx.output == [("a", 1), ("b", 2)]

    def test_run_mapper_batch(self):
        def batch(ctx, records):
            ctx.emit("n", len(records))

        spec = JobSpec(name="j", batch_mapper=batch, reducer=noop_reducer)
        ctx = TaskContext()
        spec.run_mapper(ctx, ColumnBatch.from_rows([("a", 1), ("b", 2)]))
        assert ctx.output == [("n", 2)]

    def test_run_reducer_record_at_a_time(self):
        spec = JobSpec(name="j", mapper=noop_mapper, reducer=noop_reducer)
        ctx = TaskContext()
        spec.run_reducer(ctx, group_batch(ColumnBatch.from_rows([("a", 1), ("a", 2)])))
        assert ctx.output == [("a", 1)]

    def test_run_reducer_batch(self):
        def batch(ctx, grouped):
            ctx.emit("groups", len(grouped))

        spec = JobSpec(name="j", mapper=noop_mapper, batch_reducer=batch)
        ctx = TaskContext()
        spec.run_reducer(ctx, group_batch(ColumnBatch.from_rows([("a", 1), ("b", 2)])))
        assert ctx.output == [("groups", 2)]

    def test_run_combiner_scalar_and_batch_forms_agree(self):
        grouped = group_batch(ColumnBatch.from_rows([("a", 1), ("b", 2), ("a", 3)]))
        scalar = JobSpec(
            name="j", mapper=noop_mapper, reducer=noop_reducer,
            combiner=sum_combiner,
        )
        combined = scalar.run_combiner(grouped)
        assert type(combined) is ColumnBatch
        assert combined.to_rows() == [("a", 4), ("b", 2)]
        declined = JobSpec(
            name="j", mapper=noop_mapper, reducer=noop_reducer,
            combiner=sum_combiner, batch_combiner=declining_batch_combiner,
        )
        assert declined.run_combiner(grouped).to_rows() == combined.to_rows()
        vectorized = JobSpec(
            name="j", mapper=noop_mapper, reducer=noop_reducer,
            combiner=sum_combiner, batch_combiner=fixed_batch_combiner,
        )
        assert vectorized.run_combiner(grouped).to_rows() == [("z", 0), ("z", 0)]

    def test_run_combiner_rejects_a_batch_combiner_that_drops_groups(self):
        # The runner cuts the combined batch by groups per bucket; one
        # record for three groups used to reduce 1 record, silently.
        spec = JobSpec(
            name="short", mapper=noop_mapper, reducer=noop_reducer,
            combiner=sum_combiner, batch_combiner=short_batch_combiner,
        )
        grouped = group_batch(ColumnBatch.from_rows([(0, 1), (1, 2), (2, 3)]))
        with pytest.raises(ValueError, match=r"'short'.*1 records for 3 groups"):
            spec.run_combiner(grouped)

    def test_run_combiner_of_no_groups_skips_the_batch_combiner(self):
        # An empty batch has object columns whatever the job emits, so a
        # batch combiner written for its own layout must not see it.
        spec = JobSpec(
            name="j", mapper=noop_mapper, reducer=noop_reducer,
            combiner=sum_combiner, batch_combiner=layout_bound_batch_combiner,
        )
        combined = spec.run_combiner(group_batch(ColumnBatch.from_rows([])))
        assert type(combined) is ColumnBatch
        assert combined.to_rows() == []
