"""Tests for job specification and task contexts."""

import dataclasses

import pytest

from repro.mapreduce.columnar import ColumnBatch, group_batch
from repro.mapreduce.job import Counters, JobSpec, TaskContext
from tests.mapreduce.per_group import GroupCombiner


def noop_mapper(ctx, records):
    ctx.emit_batch(records)


def noop_reducer(ctx, grouped):
    for key, values in grouped:
        ctx.emit(key, values[0])


def sum_combiner(grouped):
    return ColumnBatch.from_rows([(key, sum(values)) for key, values in grouped])


def fixed_combiner(grouped):
    # Recognisably not a sum: one ("z", 0) per group.
    return ColumnBatch.from_rows([("z", 0)] * len(grouped))


def short_combiner(grouped):
    return ColumnBatch.from_rows([(0, 99)])


def layout_bound_combiner(grouped):
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
    # One field per role: a job without one, or with a second form of
    # it, does not construct.
    def test_requires_exactly_one_mapper(self):
        with pytest.raises(TypeError, match="mapper"):
            JobSpec(name="j", reducer=noop_reducer)
        with pytest.raises(TypeError, match="batch_mapper"):
            JobSpec(
                name="j", mapper=noop_mapper, batch_mapper=noop_mapper,
                reducer=noop_reducer,
            )

    def test_requires_exactly_one_reducer(self):
        with pytest.raises(TypeError, match="reducer"):
            JobSpec(name="j", mapper=noop_mapper)
        with pytest.raises(TypeError, match="batch_reducer"):
            JobSpec(
                name="j", mapper=noop_mapper, reducer=noop_reducer,
                batch_reducer=noop_reducer,
            )

    def test_one_callable_per_role(self):
        # A batch mapper, an optional batch combiner, a batch reducer:
        # the record-at-a-time forms are PICProgram hooks, not fields.
        assert [f.name for f in dataclasses.fields(JobSpec)] == [
            "name", "mapper", "reducer", "combiner", "num_reducers",
            "partitioner", "costs", "map_cost",
        ]

    def test_zero_reducers_rejected(self):
        with pytest.raises(ValueError, match="num_reducers"):
            JobSpec(name="j", mapper=noop_mapper, reducer=noop_reducer, num_reducers=0)


class TestRunHelpers:
    def test_run_combiner_scalar_and_batch_forms_agree(self):
        # A per-group combine and a batch one give the same batch; what
        # the combiner returns is what the job gets.
        grouped = group_batch(ColumnBatch.from_rows([("a", 1), ("b", 2), ("a", 3)]))
        per_group = JobSpec(
            name="j", mapper=noop_mapper, reducer=noop_reducer,
            combiner=GroupCombiner(lambda _key, values: sum(values)),
        )
        combined = per_group.run_combiner(grouped)
        assert type(combined) is ColumnBatch
        assert combined.to_rows() == [("a", 4), ("b", 2)]
        batch = JobSpec(
            name="j", mapper=noop_mapper, reducer=noop_reducer,
            combiner=sum_combiner,
        )
        assert batch.run_combiner(grouped).to_rows() == combined.to_rows()
        fixed = JobSpec(
            name="j", mapper=noop_mapper, reducer=noop_reducer,
            combiner=fixed_combiner,
        )
        assert fixed.run_combiner(grouped).to_rows() == [("z", 0), ("z", 0)]

    def test_run_combiner_rejects_a_batch_combiner_that_drops_groups(self):
        # The runner cuts the combined batch by groups per bucket; one
        # record for three groups used to reduce 1 record, silently.
        spec = JobSpec(
            name="short", mapper=noop_mapper, reducer=noop_reducer,
            combiner=short_combiner,
        )
        grouped = group_batch(ColumnBatch.from_rows([(0, 1), (1, 2), (2, 3)]))
        with pytest.raises(ValueError, match=r"'short'.*1 records for 3 groups"):
            spec.run_combiner(grouped)

    def test_run_combiner_of_no_groups_skips_the_batch_combiner(self):
        # An empty batch has object columns whatever the job emits, so a
        # combiner written for its own layout must not see it.
        spec = JobSpec(
            name="j", mapper=noop_mapper, reducer=noop_reducer,
            combiner=layout_bound_combiner,
        )
        combined = spec.run_combiner(group_batch(ColumnBatch.from_rows([])))
        assert type(combined) is ColumnBatch
        assert combined.to_rows() == []
