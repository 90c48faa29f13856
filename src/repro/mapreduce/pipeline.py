"""Pipelined execution and the split-readiness latch.

A runner built with ``pipeline=True`` (default **off**) swaps
Hadoop-style barrier execution for a pipelined schedule:

* the engine's model scatter no longer drains the event queue before
  the job starts — each map task waits only on *its own* split's
  prerequisite flows (tracked by :class:`SplitGate`);
* reducers merge shuffle buckets as they land instead of paying the
  full merge after the last arrival;
* loop-invariant splits live in the simulated node-memory cache
  (:mod:`repro.cluster.cache`) so iterations after the first skip the
  re-read, and iterations after the first run on warm containers
  (no job/task launch overhead — the Spark/HaLoop executor model).

The mode is an argument of the run that uses it, never ambient state.
Unlike the worker count — a wall-clock knob that keeps the simulation
bit-identical — pipelining deliberately *changes* simulated timing: the
invariants are same final model, same data-plane byte totals,
completion time no worse than barrier mode.  Pipelined runs therefore
carry their own frozen reference.
"""

from __future__ import annotations

from typing import Any, Callable


class SplitGate:
    """Per-split prerequisite latch replacing a global barrier.

    The producer side registers one dependency per in-flight flow a
    split waits on (:meth:`add_dependency` returns the completion
    callback to hand to the flow) and the consumer side parks work via
    :meth:`on_ready`.  Callbacks registered to this latch are *flow
    continuations*: they fire from the simulated network's completion
    events and must never be invoked synchronously by other code
    (pic-lint PIC401 knows ``on_ready``).

    A split with no registered dependencies is ready immediately, so
    ``on_ready`` degenerates to a direct dispatch and barrier-mode
    code paths need no special casing.
    """

    def __init__(self, num_splits: int) -> None:
        if num_splits < 0:
            raise ValueError(f"num_splits must be non-negative, got {num_splits}")
        self._pending = [0] * num_splits
        self._waiters: list[list[Callable[[], None]]] = [
            [] for _ in range(num_splits)
        ]

    def add_dependency(self, *split_indices: int) -> Callable[..., None]:
        """Register one prerequisite; returns its completion callback.

        One flow may carry data for several splits (an aggregated
        scatter), so the dependency can cover many indices at once.
        The returned callable accepts (and ignores) one positional
        argument so it can serve directly as a flow ``on_complete``.
        It is idempotent — cancelled-and-retried flows may double-fire.
        """
        for split_index in split_indices:
            self._pending[split_index] += 1
        fired = [False]

        def done(_arg: Any = None) -> None:
            if fired[0]:
                return
            fired[0] = True
            for split_index in split_indices:
                self._pending[split_index] -= 1
                if self._pending[split_index] == 0:
                    waiters = self._waiters[split_index]
                    self._waiters[split_index] = []
                    for waiter in waiters:
                        waiter()

        return done

    def on_ready(self, split_index: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` once every dependency of the split completed.

        Fires immediately when the split is already ready (its
        dependencies are in the simulated past).
        """
        if self._pending[split_index] == 0:
            callback()
        else:
            self._waiters[split_index].append(callback)

    def pending(self, split_index: int) -> int:
        """Outstanding dependency count for one split (for tests)."""
        return self._pending[split_index]
