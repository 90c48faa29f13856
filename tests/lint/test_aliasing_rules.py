"""PIC301/PIC302/PIC303: cross-partition aliasing and callback mutation.

Every rule gets at least one seeded-bug fixture that must be flagged
and one near-miss that must stay silent — the near-misses are the
defensive-copy idioms the real apps use.
"""

import textwrap

from repro.lint import lint_source


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


class TestMergeMutation:
    def test_merge_updating_partial_in_place_flagged(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def merge(self, models):
                merged = models[0]
                for m in models[1:]:
                    merged.update(m)
                return merged
        """
        assert rules(src) == ["PIC302"]

    def test_merge_element_sorting_values_in_place_flagged(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def merge_element(self, key, values):
                values.sort()
                return values[0]
        """
        assert rules(src) == ["PIC302"]

    def test_merge_mutating_through_same_module_helper_flagged(self):
        # The helper is a local bound to a constructor of a class in
        # the same module: its method still resolves, so the partial
        # model it clobbers is the merge's own parameter.
        src = """
        from repro.pic.api import PICProgram

        class Stitcher:
            def clobber(self, models):
                models[0]["x"] = 1
                return models[0]

        class P(PICProgram):
            def merge(self, models):
                helper = Stitcher()
                return helper.clobber(models)
        """
        assert findings(src) == [("PIC302", 12)]

    def test_near_miss_merge_into_fresh_dict_silent(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def merge(self, models):
                merged = dict(models[0])
                for m in models[1:]:
                    merged.update(m)
                return merged
        """
        assert rules(src) == []

    def test_near_miss_sorted_copy_silent(self):
        src = """
        from repro.pic.api import PICProgram

        class P(PICProgram):
            def merge_element(self, key, values):
                return sorted(values)[0]
        """
        assert rules(src) == []


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
