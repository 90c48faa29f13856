"""A wall clock corrected for the speed the machine is running at.

The reference box flips between a fast and a slow state (1.0x / 1.5x,
seconds to minutes apart, whatever the benchmark does), so identical
runs differ by 13-28% in plain wall-clock — more than any bound the
ledger could usefully set.  The slow state hits interpreter-style code
(dictionary lookups, allocation, branches) by 1.3-1.5x and a tight C
loop such as md5 by 5%, so it is not the core's frequency; it comes from
outside the VM.  :class:`SpeedClock` times a fixed chunk of
interpreter-bound work every 5 ms (``ITIMER_REAL``), takes its cost as
the machine's speed for the interval that just ended, and credits the
interval with ``wall seconds x speed``.  The result reads in seconds *at
reference speed*: the speed at which the chunk takes
:data:`REFERENCE_CHUNK_S`.  README.md has the before/after spreads.

The same tick can attribute each interval's credit to a layer (see
``tracing.Sampler``); long C calls that delay the handler are charged in
full to the frame that made them, because the credit is the time since
the previous tick, not one tick.
"""

from __future__ import annotations

import signal
import sys
import time
from types import FrameType
from typing import Any, Callable

TICK_S = 0.005
#: What the chunk costs at reference speed: about what it costs in the
#: reference box's usual (slow) state, so corrected seconds stay close
#: to the wall-clock seconds a user of that box sees.
REFERENCE_CHUNK_S = 25e-6
# Integer adds only: a chunk that allocates containers would trigger the
# garbage collector from inside the handler and time that instead.
_CHUNK = range(600)


class SpeedClock:
    """``now()`` is wall time in seconds at reference speed."""

    def __init__(self) -> None:
        #: Called with (frame, credit) on every tick while set.
        self.on_credit: Callable[[FrameType | None, float], None] | None = None
        self._corrected = 0.0
        self._speed = 1.0
        self._last = 0.0
        self._previous_handler: Any = None

    def start(self, origin: float | None = None) -> None:
        """Start ticking.  ``origin`` (a ``perf_counter`` reading) backdates
        the clock's zero, e.g. to the first line of the entry script."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter() if origin is None else origin  # pic: noqa: PIC001
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._tick(signal.SIGALRM, sys._getframe())
        signal.signal(signal.SIGALRM, self._previous_handler)

    def flush(self) -> None:
        """Tick now, so that what follows is credited separately from
        what came before."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._tick(signal.SIGALRM, sys._getframe())
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def now(self) -> float:
        while True:
            last, corrected, speed = self._last, self._corrected, self._speed
            wall = time.perf_counter()  # pic: noqa: PIC001
            if last == self._last:  # no tick landed in between
                return corrected + (wall - last) * speed

    def _tick(self, signum: int, frame: FrameType | None) -> None:
        started = time.perf_counter()  # pic: noqa: PIC001
        acc = 0
        for i in _CHUNK:
            acc += i
        speed = REFERENCE_CHUNK_S / (time.perf_counter() - started)  # pic: noqa: PIC001
        credit = (started - self._last) * speed
        self._corrected += credit
        self._speed = speed
        self._last = started
        if self.on_credit is not None:
            self.on_credit(frame, credit)
