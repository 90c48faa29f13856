"""Discrete-event simulation core.

A :class:`Simulation` owns a virtual clock and a priority queue of
:class:`Event` objects.  Events are callbacks scheduled at an absolute
simulated time; ties are broken by insertion order so runs are fully
deterministic.  Events can be cancelled (lazy deletion), which the
flow-level network model relies on to re-plan the next flow completion
whenever the set of active flows changes.

**The ordering key lives in the heap entry.**  The heap holds tuples
``(time, late, tie, seq, event)``: time first, then normal events before
late ones (serialization points, below), then the sanitizer's ``tie``,
then the insertion sequence number.  ``seq`` is unique, so the event
itself is never compared and every heap comparison is one C tuple
compare — no Python method runs per comparison.  :meth:`Simulation.run`
pops and dispatches in a single loop rather than through a call to
:meth:`Simulation.step` per event.

Long multi-job runs cancel far more events than they execute (every
flow arrival used to invalidate the standing completion timer), so the
queue performs *heap hygiene*: the simulation tracks how many cancelled
events are still sitting in the heap and compacts — filters the dead
entries out and re-heapifies the survivors — once they outnumber the
live ones.  Ordering is unaffected because every entry carries a unique
``(time, late, tie, seq)`` key.

**Schedule sanitizer** (``PIC_SANITIZE=<seed>``): correct layers above
must not depend on *which* of two causally unrelated events at the same
timestamp runs first.  With a sanitize seed set, the queue applies a
seeded permutation to exactly that slack: every event carries a ``tie``
key derived from ``(seed, parent)`` where *parent* is the event whose
callback scheduled it (or the root context, outside any callback).
Events with the same parent keep their program order; events from
different parents at the same timestamp are interleaved pseudo-randomly
but deterministically per seed.  Simulated seconds, bytes and models
must be bit-identical for every seed — a divergence is an
order-dependence bug (see DESIGN.md §14 for the legal tie orders).
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable

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
    """A scheduled callback.

    The queue orders events by the ``(time, late, tie, seq)`` key of
    their heap entry, not by comparing events.  ``tie`` is 0 for every
    event when the sanitizer is off, so ordering degenerates to the
    historical ``(time, seq)`` insertion order.

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
        # Heap entries ``(time, late, tie, seq, event)``; see the module
        # docstring.
        self._queue: list[tuple[float, bool, int, int, Event]] = []
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
        seq = next(self._seq)
        event = Event(time, seq, callback, tie, False, False, self)
        heappush(self._queue, (time, False, tie, seq, event))
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
        time = self._now
        seq = next(self._seq)
        event = Event(time, seq, callback, tie, True, False, self)
        heappush(self._queue, (time, True, tie, seq, event))
        return event

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap and restore the invariant."""
        self._queue = [entry for entry in self._queue if not entry[4].cancelled]
        heapify(self._queue)
        self._dead = 0

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue and queue[0][4].cancelled:
            heappop(queue)
            self._dead -= 1
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Execute the next live event.  Returns False when none remain."""
        queue = self._queue
        while queue:
            time, _, _, seq, event = heappop(queue)
            if event.cancelled:
                self._dead -= 1
                continue
            self._now = time
            self._processed += 1
            event.owner = None
            prev_parent = self._parent
            self._parent = seq
            try:
                event.callback()
            finally:
                self._parent = prev_parent
            return True
        return False

    def run(self, max_events: int | None = None) -> None:
        """Run until the queue drains; raise if a live event is still
        queued after ``max_events`` executed (a livelock guard).

        The same pop, bookkeeping and dispatch as :meth:`step`, in one
        loop: the causal parent is restored once when the loop exits
        (normally or by an exception), since nothing reads it between
        two events.
        """
        executed = 0
        prev_parent = self._parent
        try:
            # Re-read the heap after every callback: a cancel() inside
            # one can compact it, which rebinds ``self._queue``.
            while queue := self._queue:
                time, _, _, seq, event = heappop(queue)
                if event.cancelled:
                    self._dead -= 1
                    continue
                self._now = time
                self._processed += 1
                event.owner = None
                self._parent = seq
                event.callback()
                executed += 1
                if max_events is not None and executed >= max_events:
                    if len(self._queue) > self._dead:  # a live event is left
                        raise RuntimeError(
                            f"simulation did not quiesce within {max_events} "
                            "events; likely an event livelock in a layer above"
                        )
        finally:
            self._parent = prev_parent

    def run_until(self, time: float) -> None:
        """Run all events scheduled at or before ``time``, then set the clock."""
        if time < self._now:
            raise ValueError(f"cannot run backwards to t={time} from t={self._now}")
        while (t := self.peek_time()) is not None and t <= time:
            self.step()
        self._now = time
