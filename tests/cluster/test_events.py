"""Tests for the discrete-event simulation core."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.events import Simulation, sanitize_seed_from_env


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulation().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulation()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulation()
        order = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulation()
        sim.schedule(5.5, lambda: None)
        sim.run()
        assert sim.now == 5.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulation().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulation()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulation()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 2.0]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulation()
        ran = []
        event = sim.schedule(1.0, lambda: ran.append(1))
        event.cancel()
        sim.run()
        assert ran == []

    def test_cancelled_event_not_counted(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_peek_skips_cancelled(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        assert sim.peek_time() == 2.0


class TestHeapHygiene:
    """Compaction must be invisible: same execution order, same
    counters, cancelled events dropped, seq ties stable."""

    def test_compaction_drops_cancelled_from_heap(self):
        sim = Simulation()
        events = [sim.schedule(float(i), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # Compaction fired at least once mid-stream; the invariant is
        # that dead events never outnumber live ones past the floor.
        assert len(sim._queue) - sim._dead == 50
        assert sim._dead < 150
        assert sim._dead < 64 or sim._dead * 2 <= len(sim._queue)
        assert sim.events_cancelled == 150

    def test_small_queues_do_not_compact(self):
        sim = Simulation()
        events = [sim.schedule(float(i), lambda: None) for i in range(20)]
        for event in events[:15]:
            event.cancel()
        # Below the dead-count floor: lazy deletion only.
        assert len(sim._queue) == 20
        assert sim._dead == 15

    def test_compaction_preserves_execution_order(self):
        sim = Simulation()
        order = []
        kept = []
        for i in range(200):
            event = sim.schedule(float(i % 10), lambda i=i: order.append(i))
            if i % 3 == 0:
                kept.append(i)
            else:
                event.cancel()
        sim.run()
        # Survivors run sorted by (time, insertion seq): time is i % 10,
        # and insertion order breaks ties.
        assert order == sorted(kept, key=lambda i: (i % 10, i))

    def test_compaction_keeps_seq_ties_stable(self):
        sim = Simulation()
        order = []
        events = []
        for i in range(200):
            events.append(sim.schedule(1.0, lambda i=i: order.append(i)))
        for i, event in enumerate(events):
            if i % 2:
                event.cancel()
        sim.run()
        assert order == [i for i in range(200) if i % 2 == 0]

    def test_cancel_is_idempotent_in_counters(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.events_cancelled == 1
        assert sim._dead == 1

    def test_cancel_after_execution_is_noop(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.events_cancelled == 0
        assert sim.events_processed == 1

    def test_run_until_drains_cancelled_without_executing(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1)).cancel()
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run_until(3.0)
        assert seen == [2]
        assert sim.events_processed == 1
        assert sim.events_cancelled == 1
        assert sim._dead == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.booleans(),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_random_cancellation_pattern_matches_model(self, plan):
        """Whatever compactions happen mid-stream, the executed sequence
        equals the live events sorted by (time, seq)."""
        sim = Simulation()
        order = []
        live = []
        for i, (delay, keep) in enumerate(plan):
            event = sim.schedule(delay, lambda i=i: order.append(i))
            if keep:
                live.append((event.time, event.seq, i))
            else:
                event.cancel()
        sim.run()
        assert order == [i for _, _, i in sorted(live)]
        assert sim.events_processed == len(live)
        assert sim.events_cancelled == len(plan) - len(live)


class TestCancellationChurn:
    """Cancellation-heavy multi-job patterns: compaction may rebind the
    heap mid-run, and must stay invisible to everything above it."""

    def test_compaction_mid_run_until_does_not_lose_events(self):
        # Directed regression: a callback cancels enough events to
        # trigger _compact() (which rebuilds self._queue) and then
        # schedules new work inside the run_until window.  A stale
        # local binding of the heap would silently drop that work.
        sim = Simulation()
        seen = []
        victims = [sim.schedule(5.0, lambda: seen.append("victim"))
                   for _ in range(100)]

        def churn():
            for event in victims:
                event.cancel()
            sim.schedule(1.0, lambda: seen.append("after"))

        sim.schedule(1.0, churn)
        sim.schedule(9.0, lambda: seen.append("tail"))
        sim.run_until(10.0)
        assert seen == ["after", "tail"]
        assert sim.events_processed == 3
        assert sim.events_cancelled == 100
        assert sim._dead == 0

    def test_replan_churn_keeps_counters_consistent(self):
        # The flow-network pattern across many jobs: every arrival
        # cancels the standing completion timer and schedules a fresh
        # one, so cancellations far outnumber executions and compaction
        # fires repeatedly mid-run.
        sim = Simulation()
        jobs = 8
        arrivals = 40
        completed = []
        timers = {j: None for j in range(jobs)}
        scheduled = 0

        def make_arrival(j, i):
            def arrive():
                nonlocal scheduled
                if timers[j] is not None:
                    timers[j].cancel()
                timers[j] = sim.schedule(
                    1000.0 - i, lambda: completed.append(j)
                )
                scheduled += 1
            return arrive

        for j in range(jobs):
            for i in range(arrivals):
                sim.schedule(1.0 + i, make_arrival(j, i))
                scheduled += 1
        sim.run()
        # Exactly one completion per job survives the churn.
        assert sorted(completed) == list(range(jobs))
        assert sim.events_processed + sim.events_cancelled == scheduled
        assert sim.events_cancelled == jobs * (arrivals - 1)
        assert sim._dead == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_in_callback_cancellation_matches_model(self, plan):
        """Events cancelled *from inside callbacks* — possibly compacting
        while the loop is mid-pop — never change what else runs."""
        sim = Simulation()
        order = []
        events = []

        def make(i, kill):
            def fire():
                order.append(i)
                for k in range(kill):
                    victim = i * 4 + k + 1
                    if victim < len(events):
                        events[victim].cancel()
            return fire

        for i, (delay, kill) in enumerate(plan):
            events.append(sim.schedule(delay, make(i, kill)))
        sim.run()
        # Replay against a pure-python model of (time, seq) order with
        # the same cancellation side effects.
        model_order = []
        cancelled = set()
        pending = sorted(
            range(len(plan)), key=lambda i: (plan[i][0], i)
        )
        for i in pending:
            if i in cancelled:
                continue
            model_order.append(i)
            for k in range(plan[i][1]):
                victim = i * 4 + k + 1
                if victim < len(plan):
                    cancelled.add(victim)
        assert order == model_order


class TestSanitizedTies:
    """PIC_SANITIZE permutes only causally unrelated same-timestamp
    ties; program order and submission order survive."""

    SEEDS = range(1, 21)

    def test_seed_comes_from_env_at_construction(self, monkeypatch):
        monkeypatch.setenv("PIC_SANITIZE", "42")
        assert sanitize_seed_from_env() == 42
        assert Simulation().tie_seed == 42
        monkeypatch.setenv("PIC_SANITIZE", "  ")
        assert sanitize_seed_from_env() is None
        assert Simulation().tie_seed is None
        monkeypatch.setenv("PIC_SANITIZE", "7")
        assert Simulation(tie_seed=3).tie_seed == 3

    def test_root_submission_order_is_preserved(self):
        # All root-context events share one parent, so their program
        # order is part of the sanitizer's equivalence class.
        for seed in self.SEEDS:
            sim = Simulation(tie_seed=seed)
            order = []
            for name in "abcdef":
                sim.schedule(1.0, lambda n=name: order.append(n))
            sim.run()
            assert order == list("abcdef"), f"seed {seed}"

    def test_same_parent_events_keep_program_order(self):
        for seed in self.SEEDS:
            sim = Simulation(tie_seed=seed)
            order = []

            def parent():
                for name in "xyz":
                    sim.schedule(1.0, lambda n=name: order.append(n))

            sim.schedule(1.0, parent)
            sim.run()
            assert order == ["x", "y", "z"], f"seed {seed}"

    def test_cross_parent_ties_permute_with_the_seed(self):
        # Followers of two different parents land at one timestamp;
        # across seeds both interleavings must occur, and within each
        # parent the pair stays in program order.
        orders = set()
        for seed in self.SEEDS:
            sim = Simulation(tie_seed=seed)
            order = []

            def make_parent(tag):
                def parent():
                    sim.schedule(1.0, lambda: order.append(tag + "1"))
                    sim.schedule(1.0, lambda: order.append(tag + "2"))
                return parent

            sim.schedule(1.0, make_parent("a"))
            sim.schedule(1.0, make_parent("b"))
            sim.run()
            assert order.index("a1") < order.index("a2"), f"seed {seed}"
            assert order.index("b1") < order.index("b2"), f"seed {seed}"
            orders.add(tuple(order))
        assert len(orders) > 1
        assert ("a1", "a2", "b1", "b2") in orders
        assert any(o[0] == "b1" for o in sorted(orders))

    def test_unseeded_ties_fall_back_to_insertion_order(self):
        sim = Simulation()
        order = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: order.append("a")))
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: order.append("b")))
        sim.run()
        assert order == ["a", "b"]

    def test_serialized_point_runs_after_normal_events_under_any_seed(self):
        # Late events sort after every normal event at the instant even
        # when the normal event was scheduled *afterwards*.
        for seed in (None, *self.SEEDS):
            sim = Simulation(tie_seed=seed)
            order = []

            def parent():
                sim.schedule_serialized(lambda: order.append("late"))
                sim.schedule(0.0, lambda: order.append("normal"))

            sim.schedule(1.0, parent)
            sim.run()
            assert order == ["normal", "late"], f"seed {seed}"

    def test_in_callback_reflects_dispatch_context(self):
        sim = Simulation()
        states = []
        assert sim.in_callback is False
        sim.schedule(1.0, lambda: states.append(sim.in_callback))
        sim.run()
        assert states == [True]
        assert sim.in_callback is False

    @given(
        st.integers(min_value=1, max_value=2**32),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_seeding_is_a_pure_permutation(self, seed, plan):
        """Every seed executes exactly the same events at the same
        simulated times — only same-timestamp interleaving may differ."""

        def run(tie_seed):
            sim = Simulation(tie_seed=tie_seed)
            trace = []

            def make(i, extra):
                def fire():
                    trace.append((sim.now, i))
                    sim.schedule(extra, lambda: trace.append((sim.now, ~i)))
                return fire

            for i, (delay, extra) in enumerate(plan):
                sim.schedule(delay, make(i, extra))
            sim.run()
            return sim, trace

        base_sim, base = run(None)
        seeded_sim, seeded = run(seed)
        assert sorted(base) == sorted(seeded)
        assert seeded_sim.events_processed == base_sim.events_processed
        assert [t for t, _ in seeded] == [t for t, _ in base]


class TestRunControl:
    def test_step_returns_false_when_empty(self):
        assert Simulation().step() is False

    def test_run_until_stops_at_time(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run_until(3.0)
        assert seen == [1]
        assert sim.now == 3.0

    def test_run_until_backwards_rejected(self):
        sim = Simulation()
        sim.run_until(2.0)
        with pytest.raises(ValueError):
            sim.run_until(1.0)

    def test_run_until_includes_boundary(self):
        sim = Simulation()
        seen = []
        sim.schedule(3.0, lambda: seen.append(1))
        sim.run_until(3.0)
        assert seen == [1]

    def test_max_events_guard(self):
        sim = Simulation()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(RuntimeError, match="did not quiesce"):
            sim.run(max_events=100)

    def test_max_events_allows_quiescing_on_the_last_event(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.run(max_events=1)
        assert seen == [1] and sim.events_processed == 1

    def test_max_events_ignores_cancelled_leftovers(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.run(max_events=1)
        assert sim.events_processed == 1

    def test_max_events_still_raises_on_a_live_leftover(self):
        sim = Simulation()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        with pytest.raises(RuntimeError, match="within 1 events"):
            sim.run(max_events=1)
        assert seen == [1] and sim.events_processed == 1

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_clock_is_monotone(self, delays):
        sim = Simulation()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert sim.now == max(delays)
