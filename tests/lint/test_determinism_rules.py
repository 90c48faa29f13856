"""PIC001/PIC002/PIC003: wall-clock, global RNG, set-iteration order."""

import textwrap

from repro.lint import lint_source


def rules_found(source):
    return [f.rule for f in lint_source(textwrap.dedent(source))]


class TestWallClock:
    def test_time_time_flagged(self):
        assert rules_found(
            """
            import time

            def stamp():
                return time.time()
            """
        ) == ["PIC001"]

    def test_perf_counter_flagged(self):
        assert "PIC001" in rules_found(
            """
            import time

            t0 = time.perf_counter()
            """
        )

    def test_from_import_alias_flagged(self):
        assert rules_found(
            """
            from time import perf_counter as clock

            def stamp():
                return clock()
            """
        ) == ["PIC001"]

    def test_datetime_now_flagged(self):
        assert rules_found(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        ) == ["PIC001"]

    def test_timeit_default_timer_flagged(self):
        assert rules_found(
            """
            import timeit

            def stamp():
                return timeit.default_timer()
            """
        ) == ["PIC001"]

    def test_event_clock_is_fine(self):
        assert rules_found(
            """
            def stamp(sim):
                return sim.now
            """
        ) == []

    def test_unrelated_time_attribute_is_fine(self):
        # A local variable named `time` is not the stdlib module.
        assert rules_found(
            """
            def stamp(record):
                return record.time()
            """
        ) == []


class TestUnseededRandom:
    def test_stdlib_random_flagged(self):
        assert rules_found(
            """
            import random

            def pick(items):
                return random.choice(items)
            """
        ) == ["PIC002"]

    def test_random_seed_flagged(self):
        assert "PIC002" in rules_found(
            """
            import random

            random.seed(0)
            """
        )

    def test_numpy_global_rand_flagged(self):
        assert rules_found(
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """
        ) == ["PIC002"]

    def test_numpy_default_rng_is_fine(self):
        assert rules_found(
            """
            import numpy as np

            def rng(seed):
                return np.random.default_rng(seed)
            """
        ) == []

    def test_seeded_random_class_is_fine(self):
        assert rules_found(
            """
            import random

            def rng(seed):
                return random.Random(seed)
            """
        ) == []

    def test_generator_method_is_fine(self):
        assert rules_found(
            """
            def draw(rng):
                return rng.integers(0, 10)
            """
        ) == []


class TestSetIterationOrder:
    def test_for_over_set_call_flagged(self):
        assert rules_found(
            """
            def go(items):
                for x in set(items):
                    handle(x)
            """
        ) == ["PIC003"]

    def test_for_over_set_literal_flagged(self):
        assert rules_found(
            """
            def go():
                for x in {1, 2, 3}:
                    handle(x)
            """
        ) == ["PIC003"]

    def test_for_over_set_typed_name_flagged(self):
        assert rules_found(
            """
            def go(items):
                pending = set(items)
                for x in pending:
                    handle(x)
            """
        ) == ["PIC003"]

    def test_comprehension_over_frozenset_flagged(self):
        assert rules_found(
            """
            def go(items):
                return [x + 1 for x in frozenset(items)]
            """
        ) == ["PIC003"]

    def test_list_of_set_flagged(self):
        assert rules_found(
            """
            def go(items):
                return list(set(items))
            """
        ) == ["PIC003"]

    def test_sorted_set_is_fine(self):
        assert rules_found(
            """
            def go(items):
                for x in sorted(set(items)):
                    handle(x)
            """
        ) == []

    def test_order_insensitive_sinks_are_fine(self):
        assert rules_found(
            """
            def go(items):
                seen = set(items)
                return sum(seen), len(seen), max(seen)
            """
        ) == []

    def test_membership_test_is_fine(self):
        assert rules_found(
            """
            def go(x, items):
                seen = set(items)
                return x in seen
            """
        ) == []

    def test_rebound_name_is_not_flagged(self):
        # `pending` is rebound to a sorted list; conservative analysis
        # must drop it.
        assert rules_found(
            """
            def go(items):
                pending = set(items)
                pending = sorted(pending)
                for x in pending:
                    handle(x)
            """
        ) == []

    def test_dict_iteration_is_fine(self):
        # Dicts are insertion-ordered; only sets are nondeterministic.
        assert rules_found(
            """
            def go(d):
                for v in d.values():
                    handle(v)
            """
        ) == []
