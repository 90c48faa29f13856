"""PIC101/PIC102: task-spec picklability and callback purity."""

import textwrap

from repro.lint import lint_source


def rules_found(source):
    return [f.rule for f in lint_source(textwrap.dedent(source))]


class TestTaskSpecPicklability:
    def test_lambda_in_jobspec_flagged(self):
        assert rules_found(
            """
            from repro.mapreduce.job import JobSpec

            spec = JobSpec(mapper=lambda k, v: [(k, v)])
            """
        ) == ["PIC101"]

    def test_lambda_positional_in_jobspec_flagged(self):
        assert rules_found(
            """
            from repro.mapreduce.job import JobSpec

            spec = JobSpec(lambda k, v: [(k, v)])
            """
        ) == ["PIC101"]

    def test_nested_function_in_jobspec_flagged(self):
        assert rules_found(
            """
            from repro.mapreduce.job import JobSpec

            def build(state):
                def mapper(k, v):
                    return [(k, state[v])]
                return JobSpec(mapper=mapper)
            """
        ) == ["PIC101"]

    def test_conditionally_defined_nested_function_flagged(self):
        # The def's direct AST parent is an If node, not the function;
        # the rule must walk up to the enclosing scope.
        assert rules_found(
            """
            from repro.mapreduce.job import JobSpec

            def build(state, fast):
                if fast:
                    def mapper(k, v):
                        return [(k, state[v])]
                else:
                    def mapper(k, v):
                        return [(k, v)]
                return JobSpec(mapper=mapper)
            """
        ) == ["PIC101"]

    def test_lambda_to_executor_map_flagged(self):
        assert rules_found(
            """
            def run(executor, items):
                return executor.map(lambda x: x + 1, items)
            """
        ) == ["PIC101"]

    def test_lambda_to_pool_submit_flagged(self):
        assert rules_found(
            """
            def run(pool, item):
                return pool.submit(lambda: item + 1)
            """
        ) == ["PIC101"]

    def test_module_level_function_is_fine(self):
        assert rules_found(
            """
            from repro.mapreduce.job import JobSpec

            def mapper(k, v):
                return [(k, v)]

            spec = JobSpec(mapper=mapper)
            """
        ) == []

    def test_method_reference_is_fine(self):
        # Bound methods of picklable objects pickle fine.
        assert rules_found(
            """
            from repro.mapreduce.job import JobSpec

            def build(program):
                return JobSpec(mapper=program.map)
            """
        ) == []

    def test_unrelated_receiver_map_is_fine(self):
        # `.map()` on something that is not an executor/pool (e.g. a
        # pandas-style object) is out of scope.
        assert rules_found(
            """
            def run(series):
                return series.map(lambda x: x + 1)
            """
        ) == []


PROGRAM_PREAMBLE = """
from repro.pic.api import PICProgram


class MyProgram(PICProgram):
"""


def program_rules(body):
    return rules_found(PROGRAM_PREAMBLE + textwrap.indent(textwrap.dedent(body), "    "))


class TestCallbackPurity:
    def test_print_in_map_flagged(self):
        assert program_rules(
            """
            def map(self, key, value, ctx):
                print(key)
                ctx.emit(key, value)
            """
        ) == ["PIC102"]

    def test_open_in_reduce_flagged(self):
        assert program_rules(
            """
            def reduce(self, key, values, ctx):
                with open("/tmp/debug.log", "a") as fh:
                    fh.write(str(key))
                ctx.emit(key, sum(values))
            """
        ) == ["PIC102"]

    def test_os_environ_in_converged_flagged(self):
        assert program_rules(
            """
            import os

            def converged(self, model, prev):
                return os.environ.get("FORCE_STOP") or model == prev
            """
        ) == ["PIC102"]

    def test_global_statement_flagged(self):
        assert program_rules(
            """
            def map(self, key, value, ctx):
                global COUNTER
                COUNTER += 1
                ctx.emit(key, value)
            """
        ) == ["PIC102"]

    def test_self_mutation_in_task_side_callback_flagged(self):
        assert program_rules(
            """
            def map(self, key, value, ctx):
                self.seen = self.seen + 1
                ctx.emit(key, value)
            """
        ) == ["PIC102"]

    def test_print_in_combine_batch_flagged(self):
        # combine_batch is the combiner the runtime calls, in the map task.
        assert program_rules(
            """
            def combine_batch(self, grouped):
                print(len(grouped))
                return grouped.unique_keys()
            """
        ) == ["PIC102"]

    def test_self_mutation_in_combine_batch_flagged(self):
        assert program_rules(
            """
            def combine_batch(self, grouped):
                self.groups_seen = len(grouped)
                return grouped.unique_keys()
            """
        ) == ["PIC102"]

    def test_self_mutation_in_driver_side_callback_is_fine(self):
        # partition() runs in the driver; stashing owned keys on self is
        # the documented partition->merge coupling pattern.  (The return
        # copies the record list so the aliasing rule stays quiet.)
        assert program_rules(
            """
            def partition(self, records, n):
                self._owned = [r.key for r in records]
                return [list(records)]
            """
        ) == []

    def test_pure_map_is_fine(self):
        assert program_rules(
            """
            def map(self, key, value, ctx):
                ctx.emit(key, value * 2)
            """
        ) == []

    def test_transitive_subclass_checked(self):
        assert rules_found(
            """
            from repro.pic.api import PICProgram


            class Base(PICProgram):
                pass


            class Derived(Base):
                def map(self, key, value, ctx):
                    print(key)
            """
        ) == ["PIC102"]

    def test_non_program_class_ignored(self):
        assert rules_found(
            """
            class Helper:
                def map(self, key, value, ctx):
                    print(key)
            """
        ) == []

    def test_non_callback_method_ignored(self):
        assert program_rules(
            """
            def describe(self):
                print(self)
            """
        ) == []
