"""Column writes: PIC303 statically, read-only columns at run time.

A batch callback writing a column of its input in place is callback
record mutation, which PIC303 reports.  A sub-problem holding views of
the shared input is no finding at all: the input batch is read-only, so
every view ``partition()`` can return of it is too, and a write through
one raises ``ValueError`` at the write.  The near-misses are exactly the
idioms the real apps use (k-means emits a read-only view of the input
point matrix; smoothing rebuilds fresh arrays before emitting) and must
stay silent.
"""

import textwrap
import traceback

import pytest

from repro.cluster.cluster import Cluster
from repro.lint import lint_source
from repro.mapreduce.columnar import ColumnBatch, columnize
from repro.pic.engine import BestEffortEngine
from tests.pic.toy import MeanProgram

RECORDS = [(i, float(i)) for i in range(12)]


def findings(source):
    return [
        (f.rule, f.line)
        for f in lint_source(textwrap.dedent(source))
        if f.rule.startswith("PIC3")
    ]


def rules(source):
    return [rule for rule, _line in findings(source)]


class _ViewsOfTheInput(MeanProgram):
    """Every sub-problem gets views of the shared input's columns."""

    def partition(self, records, model, num_partitions, seed=0):
        return [
            (ColumnBatch(records.keys, records.values), dict(model))
            for _ in range(num_partitions)
        ]


class _ScalesItsRecords(_ViewsOfTheInput):
    def batch_map(self, ctx, records):
        records.values.values *= 0.5  # pic: noqa: PIC303 — the write the guard stops
        super().batch_map(ctx, records)


def _run_best_effort(program):
    cluster = Cluster(num_nodes=4, nodes_per_rack=4)
    engine = BestEffortEngine(cluster, program, num_partitions=2, be_max_iterations=2)
    return engine.run(RECORDS, {"mean": 0.0})


class TestPartitionColumnEscape:
    def test_partition_returning_column_views_flagged(self):
        # Keys and values both come back as views of the ingested
        # batch, read-only like it: a sub-problem writing one raises.
        batch = columnize(RECORDS)
        [(sub, _model)] = _ViewsOfTheInput().partition(batch, {"mean": 0.0}, 1)
        with pytest.raises(ValueError, match="read-only"):
            sub.keys.values[0] = 7
        with pytest.raises(ValueError, match="read-only"):
            sub.values.values[0] = 7.0

    def test_partition_returning_one_column_flagged_once(self):
        # The sub-problems share the input's arrays; the first write
        # through any of them stops the run.
        with pytest.raises(ValueError, match="read-only"):
            _run_best_effort(_ScalesItsRecords())

    def test_finding_anchored_at_return_site(self):
        # The guard raises at the offending write, not at partition().
        with pytest.raises(ValueError) as raised:
            _run_best_effort(_ScalesItsRecords())
        last = traceback.extract_tb(raised.tb)[-1]
        assert last.name == "batch_map"
        assert last.line.startswith("records.values.values *= 0.5")

    def test_near_miss_non_column_attribute_silent(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def partition(self, records, model, n):
                return [(records.metadata, dict(model))]
        """
        assert rules(src) == []

    def test_near_miss_rebuilt_rows_silent(self):
        src = """
        from repro.mapreduce.columnar import ColumnBatch
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def partition(self, records, model, n):
                rows = list(records)
                return [
                    (ColumnBatch.from_rows(rows[i::n]), dict(model))
                    for i in range(n)
                ]
        """
        assert rules(src) == []
        # Views that are only read run as before.
        assert _run_best_effort(_ViewsOfTheInput()).be_iterations >= 1


class TestCallbackColumnMutation:
    def test_batch_map_filling_values_column_flagged(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def batch_map(self, ctx, records):
                records.values.fill(0.0)
        """
        assert findings(src) == [("PIC303", 6)]

    def test_batch_reduce_sorting_grouped_keys_flagged(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def batch_reduce(self, ctx, grouped):
                grouped.sorted_keys.sort()
        """
        assert findings(src) == [("PIC303", 6)]

    def test_combine_batch_mutating_starts_flagged(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def combine_batch(self, grouped):
                grouped.starts.fill(0)
                return None
        """
        assert findings(src) == [("PIC303", 6)]

    def test_near_miss_emitting_read_only_view_silent(self):
        # The k-means idiom: emit a batch aliasing the *unmodified*
        # input columns.  Zero-copy reads are the whole point.
        src = """
        from repro.mapreduce.columnar import ArrayColumn, ColumnBatch
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def batch_map(self, ctx, records):
                points = records.values.data
                ctx.emit_batch(ColumnBatch(records.keys, ArrayColumn(points)))
        """
        assert rules(src) == []

    def test_near_miss_writing_fresh_copy_silent(self):
        src = """
        import numpy as np

        from repro.mapreduce.columnar import ArrayColumn, ColumnBatch
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def batch_map(self, ctx, records):
                out = np.array(records.values.data)
                out.fill(1.0)
                ctx.emit_batch(ColumnBatch(records.keys, ArrayColumn(out)))
        """
        assert rules(src) == []

    def test_combine_batch_record_mutation_also_pic303(self):
        # clear() on the grouped object itself is generic record
        # mutation (PIC303) too.
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def combine_batch(self, grouped):
                grouped.clear()
                return None
        """
        assert rules(src) == ["PIC303"]
