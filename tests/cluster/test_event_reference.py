"""The tuple-keyed event heap against the object heap it replaced.

``reference_events.py`` keeps the old queue verbatim: ``Event`` objects
ordered by a Python ``__lt__`` and a ``run`` that calls ``step`` once per
event.  Both simulations are driven by the same generated stream —
``schedule``, ``schedule_at`` and ``schedule_serialized`` from the
root and from inside callbacks, strided cancels that compact the heap
mid-run, ``run_until`` and the ``max_events`` guard — and must
execute the same events in the same ``(time, seq)`` order with the
same counters, with no tie seed and under two seeds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import events

from tests.cluster import reference_events

# Few distinct delays, so most events tie on time and the late flag,
# the sanitizer's tie key and the sequence number decide the order.
DELAY_VALUES = [0.0, 0.5, 1.0, 2.5]
DELAYS = st.sampled_from(DELAY_VALUES)
KINDS = ["schedule", "at", "serialized", "cancel", "cancel"]
OPS = st.tuples(st.sampled_from(KINDS), DELAYS, st.integers(0, 400))
# Stop creating events past this many, so callback chains end.
CAP = 300


def drive(module, seed, burst, roots, reactions, until, max_events):
    """Run one stream; returns the execution trace, the counters (the
    dead-entry count included: heap hygiene must agree too) and how the
    run ended."""
    sim = module.Simulation(tie_seed=seed)
    created = []
    trace = []

    def fire(label):
        trace.append((sim.now, created[label].seq))
        for op in reactions[label % len(reactions)]:
            apply(op)

    def callback(label):
        return lambda: fire(label)

    def apply(op):
        kind, delay, n = op
        if kind == "cancel":
            # Every first, second or third event from a start near the
            # front: a bulk cancel of pending events (a burst's) is what
            # pushes the heap over its compaction floor.
            for event in created[n % 8 :: 1 + n // 8 % 3]:
                event.cancel()
            return
        if len(created) >= CAP:
            return
        label = len(created)
        if kind == "schedule":
            event = sim.schedule(delay, callback(label))
        elif kind == "at":
            event = sim.schedule_at(sim.now + delay, callback(label))
        else:
            event = sim.schedule_serialized(callback(label))
        created.append(event)

    for i in range(burst):
        apply(("schedule", DELAY_VALUES[i % len(DELAY_VALUES)], 0))
    for op in roots:
        apply(op)
    sim.run_until(until)
    try:
        sim.run(max_events=max_events)
        ended = "drained"
    except RuntimeError as exc:
        ended = str(exc)
    counters = (sim.events_processed, sim.events_cancelled, sim._dead)
    return trace, counters, sim.now, ended


class TestAgainstReferenceHeap:
    @pytest.mark.parametrize("seed", [None, 11, 23])
    @settings(max_examples=60, deadline=None)
    @given(
        burst=st.integers(0, 150),
        roots=st.lists(OPS, min_size=1, max_size=60),
        reactions=st.lists(st.lists(OPS, max_size=4), min_size=1, max_size=6),
        until=st.sampled_from([0.0, 0.5, 3.0]),
        max_events=st.one_of(st.none(), st.integers(1, 400)),
    )
    def test_same_order_and_counters(
        self, seed, burst, roots, reactions, until, max_events
    ):
        stream = (seed, burst, roots, reactions, until, max_events)
        assert drive(events, *stream) == drive(reference_events, *stream)

    @pytest.mark.parametrize("seed", [None, 11, 23])
    def test_in_callback_compaction_keeps_order(self, seed):
        """A callback cancels enough pending events to compact the heap
        (rebinding it) and schedules more; the run loop must see them."""
        roots = [("schedule", 2.5, 0)] * 100 + [("schedule", 0.5, 0)]
        # Label 100 (the 0.5 s event) cancels labels 0..99 then schedules.
        reactions = [[]] * 100 + [[("cancel", 0.0, 0), ("at", 0.0, 0)]]
        stream = (seed, 0, roots, reactions, 0.0, None)
        ours = drive(events, *stream)
        assert ours == drive(reference_events, *stream)
        _, counters, _, ended = ours
        assert (counters, ended) == ((2, 100, 0), "drained")
