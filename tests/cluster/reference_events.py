"""Reference event heap: the object-ordered queue, kept verbatim.

This is the frozen mirror ``repro.cluster.events`` is property-tested
against (``tests/cluster/test_event_reference.py``).  Here the heap holds
:class:`Event` objects ordered by a hand-written ``Event.__lt__`` —
``(time, late, tie, seq)`` compared field by field in Python — and
``Simulation.run`` calls :meth:`Simulation.step` once per event.  The
optimized core orders plain key tuples and dispatches in one loop; both
must execute the same events in the same ``(time, seq)`` order with the
same counters, under every sanitizer seed.  Never edit this file to make
a change to the optimized core pass.
"""

from __future__ import annotations

import heapq
import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

# Compaction fires when the heap holds at least this many cancelled
# events AND they make up more than half the heap.  The floor keeps
# tiny queues from churning; the fraction bounds wasted memory and the
# pop-side skip work to a constant factor of the live event count.
_COMPACT_MIN_DEAD = 64

_MASK64 = (1 << 64) - 1
#: Root "parent" for events scheduled outside any callback (driver /
#: submission code).  All root events share one tie key, so submission
#: program order is part of the sanitizer's preserved order.
_ROOT_PARENT = -1


def _mix(seed: int, parent: int) -> int:
    """splitmix64-style hash of ``(seed, parent)`` — the sanitizer tie key.

    Pure integer arithmetic so the permutation is identical on every
    platform and Python build.
    """
    x = (
        seed * 0x9E3779B97F4A7C15 + (parent + 1) * 0xBF58476D1CE4E5B9
    ) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def sanitize_seed_from_env() -> int | None:
    """The ambient ``PIC_SANITIZE`` seed, or None when unset/empty."""
    raw = os.environ.get("PIC_SANITIZE", "").strip()
    if not raw:
        return None
    return int(raw)


@dataclass(slots=True)
class Event:
    """A scheduled callback.  Ordered by (time, tie, sequence number).

    ``tie`` is 0 for every event when the sanitizer is off, so ordering
    degenerates to the historical ``(time, seq)`` insertion order.

    Slotted: the flow simulator allocates (and lazily cancels) one of
    these per replan, so size and attribute-access cost matter.
    """

    time: float
    seq: int
    callback: Callable[[], Any]
    tie: int = 0
    # Serialization-point flag: late events sort after every normal
    # event at the same timestamp, under any sanitizer seed.  Shared
    # resource matching (slot schedulers, the RM) runs there so its
    # decisions are made once per instant over complete state.
    late: bool = False
    cancelled: bool = False
    # Backref to the owning simulation while the event is pending, so
    # cancel() can maintain the dead-event bookkeeping.  Cleared when
    # the event is popped; a cancel after execution is then a no-op.
    owner: Simulation | None = field(default=None, repr=False)

    def __lt__(self, other: "Event") -> bool:
        # Hand-written instead of dataclass ``order=True``: the heap
        # compares events constantly and the generated version builds
        # two tuples per comparison.
        if self.time != other.time:
            return self.time < other.time
        if self.late != other.late:
            return not self.late
        if self.tie != other.tie:
            return self.tie < other.tie
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event so the simulation skips it when popped.

        Idempotent; cancelling an already-executed event is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()
            self.owner = None


class Simulation:
    """A deterministic event loop with a simulated clock.

    The clock only moves forward, and only via :meth:`run` /
    :meth:`run_until`.  Layers above never sleep; they schedule
    continuation callbacks.
    """

    def __init__(self, tie_seed: int | None = None) -> None:
        self._now = 0.0
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._processed = 0
        self._cancelled = 0
        self._dead = 0  # cancelled events still sitting in the heap
        # Schedule sanitizer: explicit seed wins, else PIC_SANITIZE.
        self._tie_seed = (
            tie_seed if tie_seed is not None else sanitize_seed_from_env()
        )
        # Sequence number of the event whose callback is currently
        # executing; new events inherit it as their causal parent.
        self._parent = _ROOT_PARENT

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def tie_seed(self) -> int | None:
        """Active sanitizer seed (None: historical insertion order)."""
        return self._tie_seed

    @property
    def in_callback(self) -> bool:
        """True while an event callback is executing on this simulation.

        Resource managers use this to decide between serving requests
        synchronously (driver/submission code, unit tests) and
        deferring to a :meth:`schedule_serialized` point.
        """
        return self._parent != _ROOT_PARENT

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def events_cancelled(self) -> int:
        """Number of events cancelled before they could execute."""
        return self._cancelled

    def schedule(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        tie = 0 if self._tie_seed is None else _mix(self._tie_seed, self._parent)
        event = Event(
            time=time, seq=next(self._seq), callback=callback, tie=tie, owner=self
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_serialized(self, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at the *current* instant, after every
        normal event already at (or later scheduled for) this timestamp.

        This is a **serialization point**: layers that arbitrate shared
        resources (slot schedulers, the ResourceManager, reduce-slot
        waiter queues) defer their matching here, so the decision runs
        exactly once per timestamp over the complete request/release
        state — and its outcome cannot depend on the tie order the
        sanitizer permutes.  Late events still carry a seeded tie among
        themselves; distinct serialization points at one instant must
        own disjoint resources.
        """
        tie = 0 if self._tie_seed is None else _mix(self._tie_seed, self._parent)
        event = Event(
            time=self._now,
            seq=next(self._seq),
            callback=callback,
            tie=tie,
            late=True,
            owner=self,
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_batch(
        self, delay: float, callbacks: Iterable[Callable[[], Any]]
    ) -> Event:
        """Schedule several callbacks at one instant as a single heap entry.

        The callbacks run back-to-back, in the order given, under one
        event — a cheap path for same-timestamp bursts (e.g. a wave of
        flow starts) that would otherwise each pay a heap push/pop.
        """
        batch = list(callbacks)

        def _run_batch() -> None:
            for cb in batch:
                cb()

        return self.schedule(delay, _run_batch)

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap and restore the invariant."""
        self._queue = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._dead = 0

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
            self._dead -= 1
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Execute the next live event.  Returns False when none remain."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                self._dead -= 1
                continue
            self._now = event.time
            self._processed += 1
            event.owner = None
            prev_parent = self._parent
            self._parent = event.seq
            try:
                event.callback()
            finally:
                self._parent = prev_parent
            return True
        return False

    def run(self, max_events: int | None = None) -> None:
        """Run until the queue drains; raise when a live event is still
        queued after ``max_events`` executed."""
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                if len(self._queue) > self._dead:
                    raise RuntimeError(
                        f"simulation did not quiesce within {max_events} events; "
                        "likely an event livelock in a layer above"
                    )

    def run_until(self, time: float) -> None:
        """Run all events scheduled at or before ``time``, then set the clock."""
        if time < self._now:
            raise ValueError(f"cannot run backwards to t={time} from t={self._now}")
        while (t := self.peek_time()) is not None and t <= time:
            self.step()
        self._now = time
