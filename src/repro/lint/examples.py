"""Minimal bad/good example pairs for every shipped rule.

This is the fixture corpus behind ``pic-lint --explain RULE``: each
entry pairs the smallest program that *fires* the rule with the
smallest repair that stays *silent*.  The examples are real inputs,
not documentation strings — ``tests/lint/test_examples.py`` lints
every pair and fails if a bad example stops firing or a good example
starts to.
"""

from __future__ import annotations

import textwrap


class Example:
    """One rule's minimal bad/good pair."""

    __slots__ = ("rule_id", "bad", "good")

    def __init__(self, rule_id: str, bad: str, good: str) -> None:
        self.rule_id = rule_id
        self.bad = textwrap.dedent(bad).strip("\n") + "\n"
        self.good = textwrap.dedent(good).strip("\n") + "\n"


_EXAMPLES = [
    Example(
        "PIC001",
        """
        def stamp(record):
            import time
            record["at"] = time.time()
            return record
        """,
        """
        def stamp(record, sim):
            record["at"] = sim.now
            return record
        """,
    ),
    Example(
        "PIC002",
        """
        import random

        def sample(records):
            return random.choice(records)
        """,
        """
        import random

        def sample(records, seed):
            rng = random.Random(seed)
            return rng.choice(records)
        """,
    ),
    Example(
        "PIC003",
        """
        def keys_of(records):
            seen = set(r["key"] for r in records)
            return [k for k in seen]
        """,
        """
        def keys_of(records):
            seen = set(r["key"] for r in records)
            return sorted(seen)
        """,
    ),
    Example(
        "PIC101",
        """
        def run(pool, payloads):
            return pool.map(lambda p: p + 1, payloads)
        """,
        """
        def bump(p):
            return p + 1

        def run(pool, payloads):
            return pool.map(bump, payloads)
        """,
    ),
    Example(
        "PIC102",
        """
        class P(PICProgram):
            def map(self, ctx, key, value):
                print(key)
                ctx.emit(key, value)
        """,
        """
        class P(PICProgram):
            def map(self, ctx, key, value):
                ctx.emit(key, value)
        """,
    ),
    Example(
        "PIC201",
        """
        import sys

        def wire_size(record):
            return sys.getsizeof(record)
        """,
        """
        from repro.util.sizing import sizeof_record

        def wire_size(record):
            return sizeof_record(record)
        """,
    ),
    Example(
        "PIC202",
        """
        def ship(cluster, records):
            cluster.transfer("a", "b", len(records), "shuffle")
        """,
        """
        from repro.util.sizing import sizeof_records

        def ship(cluster, records):
            cluster.transfer("a", "b", sizeof_records(records), "shuffle")
        """,
    ),
    Example(
        "PIC301",
        """
        class P(PICProgram):
            def partition(self, records, model, k):
                return [(records, dict(model)) for _ in range(k)]
        """,
        """
        class P(PICProgram):
            def partition(self, records, model, k):
                return [(list(records), dict(model)) for _ in range(k)]
        """,
    ),
    Example(
        "PIC302",
        """
        class P(PICProgram):
            def merge(self, models):
                base = models[0]
                for other in models[1:]:
                    base.update(other)
                return base
        """,
        """
        class P(PICProgram):
            def merge(self, models):
                base = dict(models[0])
                for other in models[1:]:
                    base.update(other)
                return base
        """,
    ),
    Example(
        "PIC303",
        """
        class P(PICProgram):
            def map(self, ctx, key, value):
                value["seen"] = True
                ctx.emit(key, value)
        """,
        """
        class P(PICProgram):
            def map(self, ctx, key, value):
                marked = dict(value)
                marked["seen"] = True
                ctx.emit(key, marked)
        """,
    ),
    Example(
        "PIC304",
        """
        class P(PICProgram):
            def batch_map(self, ctx, records):
                records.values.fill(0)
                ctx.emit_batch(records)
        """,
        """
        class P(PICProgram):
            def batch_map(self, ctx, records):
                scaled = records.values.copy()
                scaled.fill(0)
                ctx.emit_batch(scaled)
        """,
    ),
    Example(
        "PIC401",
        """
        class Runner:
            def start(self, cluster):
                cluster.transfer("a", "b", 4096, "pull", self.done)
                self.done()

            def done(self):
                pass
        """,
        """
        class Runner:
            def start(self, cluster):
                cluster.transfer("a", "b", 4096, "pull", self.done)

            def done(self):
                pass
        """,
    ),
    Example(
        "PIC402",
        """
        class Runner:
            def start(self, sim):
                sim.schedule(1.0, self.on_tick)

            def on_tick(self, sim):
                sim._pending = []
        """,
        """
        class Runner:
            def start(self, sim):
                sim.schedule(1.0, self.on_tick)

            def on_tick(self, sim):
                sim.schedule(1.0, self.on_tick)
        """,
    ),
    Example(
        "PIC501",
        """
        from multiprocessing.shared_memory import SharedMemory

        def export(payload):
            shm = SharedMemory(create=True, size=len(payload))
            shm.buf[: len(payload)] = payload
            return shm.name
        """,
        """
        from multiprocessing.shared_memory import SharedMemory

        def export(payload):
            shm = SharedMemory(create=True, size=len(payload))
            try:
                shm.buf[: len(payload)] = payload
                return bytes(shm.buf[: len(payload)])
            finally:
                shm.close()
                shm.unlink()
        """,
    ),
    Example(
        "PIC502",
        """
        def read_all(path):
            fh = open(path)
            try:
                data = fh.read()
                fh.close()
            finally:
                fh.close()
            return data
        """,
        """
        def read_all(path):
            fh = open(path)
            try:
                data = fh.read()
            finally:
                fh.close()
            return data
        """,
    ),
    Example(
        "PIC503",
        """
        def read_all(path):
            fh = open(path)
            fh.close()
            return fh.read()
        """,
        """
        def read_all(path):
            with open(path) as fh:
                return fh.read()
        """,
    ),
    Example(
        "PIC601",
        """
        import time

        def lag(sim):
            started = time.perf_counter()  # noqa: PIC001
            return sim.now - started
        """,
        """
        import time

        def lag(sim, started_sim_time):
            return sim.now - started_sim_time
        """,
    ),
    Example(
        "PIC602",
        """
        import time

        def reschedule(sim, cb):
            t0 = time.perf_counter()  # noqa: PIC001
            t1 = time.perf_counter()  # noqa: PIC001
            sim.schedule(t1 - t0, cb)
        """,
        """
        def reschedule(sim, cluster, cb):
            eta = cluster.transfer_time("a", "b", 4096)
            sim.schedule(eta, cb)
        """,
    ),
    Example(
        "PIC701",
        """
        class _JobState:
            def __init__(self, app_id: int) -> None:
                self.app_id = app_id
                self.bucket_arrivals = 0

        class Runner:
            def submit(self, sim, sibling: _JobState) -> None:
                sim.schedule(1.0, lambda: self._on_map_done(sibling))

            def _on_map_done(self, sibling: _JobState) -> None:
                sibling.bucket_arrivals = sibling.bucket_arrivals + 1
        """,
        """
        class _JobState:
            def __init__(self, sim, app_id: int) -> None:
                self.app_id = app_id
                self.bucket_arrivals = 0
                sim.schedule(1.0, self._on_map_done)

            def _on_map_done(self) -> None:
                self.bucket_arrivals = self.bucket_arrivals + 1
        """,
    ),
    Example(
        "PIC702",
        """
        from repro.metrics import ShuffleStats

        class Tracker:
            def __init__(self, stats: ShuffleStats) -> None:
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
        """
        from repro.metrics import ShuffleStats

        class Tracker:
            def __init__(self, stats: ShuffleStats) -> None:
                self.stats = stats
                self.ticks = 0.0

            def start(self, sim) -> None:
                sim.schedule(1.0, lambda: self.on_map_done())
                sim.schedule(1.0, lambda: self.on_reduce_done())

            def on_map_done(self) -> None:
                self.stats.by_phase["map"] = self.ticks

            def on_reduce_done(self) -> None:
                self.stats.by_phase["reduce"] = self.ticks
        """,
    ),
    Example(
        "PIC703",
        """
        from repro.mapreduce.scheduler import SlotScheduler

        class App:
            def __init__(self, sched: SlotScheduler) -> None:
                self.sched = sched

            def start(self, sim) -> None:
                sim.schedule(1.0, lambda: self.on_done(3))

            def on_done(self, node: int) -> None:
                self.sched._held[node, 0] = []
        """,
        """
        from repro.mapreduce.scheduler import SlotScheduler

        class App:
            def __init__(self, sched: SlotScheduler) -> None:
                self.sched = sched

            def start(self, sim) -> None:
                sim.schedule(1.0, lambda: self.on_done(3))

            def on_done(self, node: int) -> None:
                self.sched.release(node)
        """,
    ),
    Example(
        "PIC704",
        """
        class Driver:
            def kick(self, sim, handlers) -> None:
                pending = set(handlers)
                sim.schedule_batch(1.0, list(pending))
        """,
        """
        class Driver:
            def kick(self, sim, handlers) -> None:
                pending = set(handlers)
                sim.schedule_batch(1.0, sorted(pending))
        """,
    ),
]

EXAMPLES: dict[str, Example] = {ex.rule_id: ex for ex in _EXAMPLES}


def explain(rule_id: str) -> str | None:
    """Render the ``--explain`` text for ``rule_id`` (None if unknown)."""
    from repro.lint.rules import family_of, rules_by_id

    rule = rules_by_id().get(rule_id)
    if rule is None:
        return None
    doc = (rule.__doc__ or rule.summary).strip().splitlines()[0]
    lines = [
        f"{rule.rule_id}: {rule.summary}",
        f"family: {family_of(rule.rule_id)}",
        "",
        doc,
    ]
    example = EXAMPLES.get(rule_id)
    if example is not None:
        lines += [
            "",
            "bad (fires):",
            textwrap.indent(example.bad.rstrip("\n"), "    "),
            "",
            "good (silent):",
            textwrap.indent(example.good.rstrip("\n"), "    "),
        ]
    return "\n".join(lines)
