"""PIC301/PIC303: cross-partition aliasing and callback mutation.

Every rule gets at least one seeded-bug fixture that must be flagged
and one near-miss that must stay silent — the near-misses are the
defensive-copy idioms the real apps use.  A merge() writing into the
partial models it combines is stopped at run time instead: the same
writes, run through a best-effort round.
"""

import textwrap

import pytest

from repro.cluster.cluster import Cluster
from repro.lint import lint_source
from repro.pic.engine import BestEffortEngine
from tests.pic.toy import MeanProgram


def findings(source):
    return [
        (f.rule, f.line)
        for f in lint_source(textwrap.dedent(source))
        if f.rule.startswith("PIC3")
    ]


def rules(source):
    return [rule for rule, _line in findings(source)]


class TestPartitionAliasing:
    def test_partition_returning_shared_model_flagged(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def partition(self, records, model, n):
                return [(records, model)]
        """
        # One finding per aliased object: records AND model both leak.
        assert rules(src) == ["PIC301", "PIC301"]

    def test_depth_two_aliasing_through_comprehension_flagged(self):
        # Copying the records but sharing the model between partitions
        # is still an aliasing bug: partitions would train one object.
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def partition(self, records, model, n):
                return [(list(records), model) for _ in range(n)]
        """
        assert rules(src) == ["PIC301"]

    def test_finding_anchored_at_return_site(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def partition(self, records, n):
                out = [records]
                return out
        """
        [(rule, line)] = findings(src)
        assert rule == "PIC301"
        assert line == 7  # the return statement

    def test_near_miss_fresh_copies_silent(self):
        src = """
        import copy

        from repro.pic.api import PICProgram

        class P(PICProgram):
            def partition(self, records, model, n):
                return [(list(records), copy.deepcopy(model)) for _ in range(n)]
        """
        assert rules(src) == []

    def test_near_miss_rebind_kill_silent(self):
        # Rebinding the parameter to a copy before returning is the
        # standard defensive idiom; flow-sensitivity must honour it.
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def partition(self, records, n):
                records = sorted(records)
                return [records[i::n] for i in range(n)]
        """
        assert rules(src) == []


class _MergeUpdatesAPartial(MeanProgram):
    def merge(self, models):
        merged = models[0]
        for m in models[1:]:
            merged.update(m)
        return merged


class _SortsItsValues(MeanProgram):
    def merge_element(self, key, values):
        values.sort()
        return values[0]


class _Stitcher:
    def clobber(self, models):
        models[0]["mean"] = 1.0
        return models[0]


class _ClobbersThroughAHelper(MeanProgram):
    def merge(self, models):
        helper = _Stitcher()
        return helper.clobber(models)


class _MergesIntoAFreshDict(MeanProgram):
    def merge(self, models):
        merged = dict(models[0])
        for m in models[1:]:
            merged.update(m)
        return merged


class _SortsACopy(MeanProgram):
    def merge_element(self, key, values):
        return sorted(values)[0]


def _run_best_effort(program, distributed_merge=False):
    cluster = Cluster(num_nodes=4, nodes_per_rack=4)
    engine = BestEffortEngine(
        cluster,
        program,
        num_partitions=4,
        be_max_iterations=2,
        distributed_merge=distributed_merge,
    )
    return engine.run([(i, float(i)) for i in range(40)], {"mean": 0.0})


class TestMergeMutation:
    """merge() is handed the partial models as ``KeyedModel`` objects:
    no setters, read-only arrays, so a write into one raises at the
    write.  merge_element()'s value list is the reducer's own, built per
    key: sorting it in place reaches nothing else."""

    def test_merge_updating_partial_in_place_flagged(self):
        with pytest.raises(AttributeError, match="update"):
            _run_best_effort(_MergeUpdatesAPartial())

    def test_merge_element_sorting_values_in_place_flagged(self):
        in_place = _run_best_effort(_SortsItsValues(), distributed_merge=True)
        copied = _run_best_effort(_SortsACopy(), distributed_merge=True)
        assert in_place.model == copied.model

    def test_merge_mutating_through_same_module_helper_flagged(self):
        # The helper's write is the merge's own: it raises in the helper.
        with pytest.raises(TypeError, match="does not support item assignment"):
            _run_best_effort(_ClobbersThroughAHelper())

    def test_near_miss_merge_into_fresh_dict_silent(self):
        result = _run_best_effort(_MergesIntoAFreshDict())
        assert set(result.model) == {"mean"}

    def test_near_miss_sorted_copy_silent(self):
        result = _run_best_effort(_SortsACopy(), distributed_merge=True)
        assert set(result.model) == {"mean"}


class TestCallbackRecordMutation:
    def test_batch_map_clearing_records_flagged(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def batch_map(self, ctx, records):
                records.clear()
        """
        assert rules(src) == ["PIC303"]

    def test_map_writing_through_ctx_model_flagged(self):
        # Task-side callbacks see a read-only snapshot of the model;
        # writes through it never reach the driver's copy.
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def map(self, key, value, ctx):
                ctx.model[key] = value
        """
        assert rules(src) == ["PIC303"]

    def test_reduce_mutating_values_flagged(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def reduce(self, ctx, key, values):
                values.append(0)
                ctx.emit(key, values)
        """
        assert rules(src) == ["PIC303"]

    def test_near_miss_rebound_records_silent(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def batch_map(self, ctx, records):
                records = list(records)
                records.sort()
                for key, value in records:
                    ctx.emit(key, value)
        """
        assert rules(src) == []

    def test_near_miss_ctx_stats_write_silent(self):
        # ctx.stats is the sanctioned mutable scratch channel.
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def batch_map(self, ctx, records):
                ctx.stats["seen"] = len(records)
        """
        assert rules(src) == []
