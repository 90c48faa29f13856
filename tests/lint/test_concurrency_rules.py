"""PIC701–PIC704: concurrency interference (whole-program).

Each seeded-bug fixture is a miniature of a real interference shape
from the concurrent-runner work (PR 8); each near-miss is the
corrected form and must stay silent.  PIC701/PIC702 fixture shapes are
also exercised dynamically by the ``PIC_SANITIZE`` harness in
``tests/integration/test_sanitizer.py``.
"""

import textwrap

from repro.lint import lint_source
from repro.lint.engine import lint_sources


def rules_found(source: str) -> list[str]:
    return sorted(
        f.rule
        for f in lint_source(textwrap.dedent(source))
        if f.rule.startswith("PIC7")
    )


def rules_in_tree(sources: dict[str, str]) -> list[str]:
    findings, errors = lint_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}
    )
    assert not errors, errors
    return sorted(f.rule for f in findings if f.rule.startswith("PIC7"))


class TestCrossJobWrite:
    def test_handler_writes_sibling_job_state(self):
        # Seeded bug: a map-completion handler pokes another job's
        # arrival counter — whichever handler fires first at the tie
        # wins, so results depend on schedule order.
        assert rules_found(
            """
            class _JobState:
                def __init__(self, app_id: int) -> None:
                    self.app_id = app_id
                    self.bucket_arrivals = 0

            class Runner:
                def submit(self, sim, state: _JobState, sibling: _JobState):
                    sim.schedule(1.0, lambda: self._on_map_done(sibling))

                def _on_map_done(self, sibling: _JobState) -> None:
                    sibling.bucket_arrivals = sibling.bucket_arrivals + 1
            """
        ) == ["PIC701"]

    def test_sibling_read_from_an_attribute_is_typed(self):
        # The receiver is a local copied out of an annotated attribute,
        # not a constructor call: its class still comes from the
        # attribute's declaration.
        assert rules_found(
            """
            class _JobState:
                def __init__(self, app_id: int) -> None:
                    self.app_id = app_id
                    self.bucket_arrivals = 0

            class Runner:
                def __init__(self, sibling: _JobState) -> None:
                    self.sibling = sibling

                def submit(self, sim) -> None:
                    sim.schedule(1.0, self._on_map_done)

                def _on_map_done(self) -> None:
                    sibling = self.sibling
                    sibling.bucket_arrivals = sibling.bucket_arrivals + 1
            """
        ) == ["PIC701"]

    def test_job_scope_detected_by_class_name_tail(self):
        # No app_id attr: the _JobState name shape alone marks the
        # class job-scoped.
        assert "PIC701" in rules_found(
            """
            class JobHandle:
                def __init__(self) -> None:
                    self.done = 0

            class Driver:
                def go(self, sim, handle: JobHandle) -> None:
                    sim.schedule(2.0, lambda: self._finish(handle))

                def _finish(self, handle: JobHandle) -> None:
                    handle.done = handle.done + 1
            """
        )

    def test_own_instance_write_is_silent(self):
        # Near miss: the job's own handler updating its own state is
        # the sanctioned pattern.
        assert rules_found(
            """
            class _JobState:
                def __init__(self, sim, app_id: int) -> None:
                    self.app_id = app_id
                    self.bucket_arrivals = 0
                    sim.schedule(1.0, self._on_map_done)

                def _on_map_done(self) -> None:
                    self.bucket_arrivals = self.bucket_arrivals + 1
            """
        ) == []

    def test_fresh_construction_is_silent(self):
        # Near miss: configuring a job state you just constructed is
        # submission, not interference.
        assert rules_found(
            """
            class _JobState:
                def __init__(self, app_id: int) -> None:
                    self.app_id = app_id
                    self.bucket_arrivals = 0

            class Runner:
                def resubmit(self, sim, app_id: int) -> None:
                    sim.schedule(1.0, lambda: self._spawn(app_id))

                def _spawn(self, app_id: int) -> None:
                    state = _JobState(app_id)
                    state.bucket_arrivals = 0
            """
        ) == []

    def test_unreachable_from_handlers_is_silent(self):
        # Near miss: same write, but nothing schedules it — submit-time
        # configuration runs in program order.
        assert rules_found(
            """
            class _JobState:
                def __init__(self, app_id: int) -> None:
                    self.app_id = app_id
                    self.bucket_arrivals = 0

            class Runner:
                def reset(self, sibling: _JobState) -> None:
                    sibling.bucket_arrivals = 0
            """
        ) == []


class TestTieOrderConflict:
    BUGGY = {
        "engine.py": """
            class SharedStats:
                def __init__(self) -> None:
                    self.last_finished = 0.0
                    self.total = 0.0
            """,
        "app.py": """
            from engine import SharedStats

            class Tracker:
                def __init__(self, stats: SharedStats) -> None:
                    self.stats = stats
                    self.ticks = 0.0

                def start(self, sim) -> None:
                    sim.schedule(1.0, lambda: self.on_map_done())
                    sim.schedule(1.0, lambda: self.on_reduce_done())

                def on_map_done(self) -> None:
                    self.stats.last_finished = self.ticks

                def on_reduce_done(self) -> None:
                    self.stats.last_finished = self.ticks
            """,
    }

    def test_two_handlers_store_same_location(self):
        # Seeded bug (the PR 8 timer shape): two handlers schedulable
        # at one timestamp both last-write-win the same field.
        assert rules_in_tree(self.BUGGY) == ["PIC702", "PIC702"]

    def test_write_read_overlap_flagged(self):
        sources = dict(self.BUGGY)
        sources["app.py"] = """
            from engine import SharedStats

            class Tracker:
                def __init__(self, stats: SharedStats) -> None:
                    self.stats = stats
                    self.ticks = 0.0

                def start(self, sim) -> None:
                    sim.schedule(1.0, lambda: self.on_map_done())
                    sim.schedule(1.0, lambda: self.report())

                def on_map_done(self) -> None:
                    self.stats.last_finished = self.ticks

                def report(self) -> float:
                    return self.stats.last_finished
            """
        assert rules_in_tree(sources) == ["PIC702"]

    def test_commutative_aug_is_silent(self):
        # Near miss: += commutes across tie orders.
        sources = dict(self.BUGGY)
        sources["app.py"] = """
            from engine import SharedStats

            class Tracker:
                def __init__(self, stats: SharedStats) -> None:
                    self.stats = stats

                def start(self, sim) -> None:
                    sim.schedule(1.0, lambda: self.on_map_done())
                    sim.schedule(1.0, lambda: self.on_reduce_done())

                def on_map_done(self) -> None:
                    self.stats.total += 1.0

                def on_reduce_done(self) -> None:
                    self.stats.total += 1.0
            """
        assert rules_in_tree(sources) == []

    def test_keyed_writes_are_silent(self):
        # Near miss: per-handler keys partition the location.
        sources = dict(self.BUGGY)
        sources["engine.py"] = """
            class SharedStats:
                def __init__(self) -> None:
                    self.by_phase: dict = {}
            """
        sources["app.py"] = """
            from engine import SharedStats

            class Tracker:
                def __init__(self, stats: SharedStats) -> None:
                    self.stats = stats
                    self.ticks = 0.0

                def start(self, sim) -> None:
                    sim.schedule(1.0, lambda: self.on_map_done())
                    sim.schedule(1.0, lambda: self.on_reduce_done())

                def on_map_done(self) -> None:
                    self.stats.by_phase["map"] = self.ticks

                def on_reduce_done(self) -> None:
                    self.stats.by_phase["reduce"] = self.ticks
            """
        assert rules_in_tree(sources) == []

    def test_single_handler_is_silent(self):
        # Near miss: one handler path cannot race itself across ties.
        sources = dict(self.BUGGY)
        sources["app.py"] = """
            from engine import SharedStats

            class Tracker:
                def __init__(self, stats: SharedStats) -> None:
                    self.stats = stats
                    self.ticks = 0.0

                def start(self, sim) -> None:
                    sim.schedule(1.0, lambda: self.on_map_done())

                def on_map_done(self) -> None:
                    self.stats.last_finished = self.ticks
            """
        assert rules_in_tree(sources) == []

    def test_owning_module_writes_are_silent(self):
        # Near miss: the module defining the class serializes its own
        # instances (FlowNetwork advancing Flow rows).
        assert rules_found(
            """
            class Flow:
                def __init__(self) -> None:
                    self.remaining = 10.0

            class FlowNetwork:
                def __init__(self, flow: Flow) -> None:
                    self.flow = flow

                def start(self, sim) -> None:
                    sim.schedule(1.0, lambda: self.advance())
                    sim.schedule(1.0, lambda: self.finish())

                def advance(self) -> None:
                    self.flow.remaining = self.flow.remaining - 1.0

                def finish(self) -> None:
                    self.flow.remaining = 0.0
            """
        ) == []


class TestAggregateBypass:
    BUGGY = {
        "sched.py": """
            class SlotScheduler:
                def __init__(self) -> None:
                    self._queue: list = []
                    self._held: dict = {}

                def request(self, callback) -> None:
                    self._queue.append(callback)
            """,
        "app.py": """
            from sched import SlotScheduler

            class App:
                def __init__(self, sched: SlotScheduler) -> None:
                    self.sched = sched

                def start(self, sim) -> None:
                    sim.schedule(1.0, lambda: self.on_done(3))

                def on_done(self, node: int) -> None:
                    self.sched._held[node] = []
            """,
    }

    def test_callback_pokes_scheduler_free_map(self):
        # Seeded bug: an app callback hands a slot back by editing the
        # scheduler's held-container map, skipping the canonical
        # matching pass.
        assert rules_in_tree(self.BUGGY) == ["PIC703"]

    def test_callback_appends_to_waiter_queue(self):
        sources = dict(self.BUGGY)
        sources["app.py"] = """
            from sched import SlotScheduler

            class App:
                def __init__(self, sched: SlotScheduler) -> None:
                    self.sched = sched

                def start(self, sim) -> None:
                    sim.schedule(1.0, lambda: self.on_done())

                def on_done(self) -> None:
                    self.sched._queue.append(self.on_done)
            """
        assert "PIC703" in rules_in_tree(sources)

    def test_owner_api_call_is_silent(self):
        # Near miss: going through request() is the sanctioned path.
        sources = dict(self.BUGGY)
        sources["app.py"] = """
            from sched import SlotScheduler

            class App:
                def __init__(self, sched: SlotScheduler) -> None:
                    self.sched = sched

                def start(self, sim) -> None:
                    sim.schedule(1.0, lambda: self.on_done())

                def on_done(self) -> None:
                    self.sched.request(self.on_done)
            """
        assert rules_in_tree(sources) == []

    def test_owner_mutating_own_aggregate_is_silent(self):
        # Near miss: the scheduler serving its own queue is the
        # serialization point itself.
        assert rules_found(
            """
            class SlotScheduler:
                def __init__(self, sim) -> None:
                    self._queue: list = []
                    self._held: dict = {}
                    sim.schedule(1.0, self._serve)

                def _serve(self) -> None:
                    while self._queue:
                        self._queue.pop()
            """
        ) == []

    def test_root_context_mutation_is_silent(self):
        # Near miss: same write, not handler-reachable — setup code
        # runs before the event loop starts.
        sources = dict(self.BUGGY)
        sources["app.py"] = """
            from sched import SlotScheduler

            class App:
                def __init__(self, sched: SlotScheduler) -> None:
                    self.sched = sched

                def prime(self, node: int) -> None:
                    self.sched._held[node] = []
            """
        assert rules_in_tree(sources) == []


class TestUnorderedSchedule:
    def test_set_into_schedule_batch(self):
        # Seeded bug: a set's hash order becomes the batch dispatch
        # order.
        assert rules_found(
            """
            class Driver:
                def kick(self, sim, handlers) -> None:
                    pending = set(handlers)
                    sim.schedule_batch(1.0, list(pending))
            """
        ) == ["PIC704"]

    def test_id_keyed_dict_into_run_many(self):
        assert rules_found(
            """
            class Driver:
                def kick(self, runner, jobs) -> None:
                    table = {id(j): j for j in jobs}
                    runner.run_many(list(table.values()))
            """
        ) == ["PIC704"]

    def test_taint_through_helper_return(self):
        # Interprocedural: the unordered container is built in a
        # helper and surfaces at the sink through its return value.
        assert rules_found(
            """
            def distinct(handlers):
                return set(handlers)

            class Driver:
                def kick(self, sim, handlers) -> None:
                    sim.schedule_batch(1.0, list(distinct(handlers)))
            """
        ) == ["PIC704"]

    def test_taint_through_callee_parameter(self):
        # Interprocedural: the sink is inside the callee; the caller
        # supplies the unordered argument.
        assert rules_found(
            """
            def fan_out(sim, callbacks):
                sim.schedule_batch(1.0, callbacks)

            class Driver:
                def kick(self, sim, handlers) -> None:
                    fan_out(sim, set(handlers))
            """
        ) == ["PIC704"]

    def test_unordered_extend_of_waiter_queue(self):
        assert rules_found(
            """
            class Runner:
                def __init__(self) -> None:
                    self._waiters: list = []

                def park(self, grants) -> None:
                    self._waiters.extend(set(grants))
            """
        ) == ["PIC704"]

    def test_sorted_sanitizes(self):
        # Near miss: sorted() pins a canonical order.
        assert rules_found(
            """
            class Driver:
                def kick(self, sim, handlers) -> None:
                    pending = set(handlers)
                    sim.schedule_batch(1.0, sorted(pending))
            """
        ) == []

    def test_sorted_sanitizes_through_helper(self):
        assert rules_found(
            """
            def distinct(handlers):
                return sorted(set(handlers))

            class Driver:
                def kick(self, sim, handlers) -> None:
                    sim.schedule_batch(1.0, distinct(handlers))
            """
        ) == []

    def test_ordinary_list_is_silent(self):
        assert rules_found(
            """
            class Driver:
                def kick(self, sim, handlers) -> None:
                    sim.schedule_batch(1.0, list(handlers))
            """
        ) == []
