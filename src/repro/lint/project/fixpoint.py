"""The fixpoint driver shared by the two interprocedural passes.

A pass evaluates one function at a time from that function's IR plus
what it reads of the evolving state: callee summaries (:meth:`read`)
and, for the alias pass, constructor-bound callback sets (:meth:`note`).
An evaluation is a pure function of those inputs, so the driver keeps
the round-robin sweep — same order, same round cap — but skips a
function none of whose recorded reads has changed since it last ran:
every round's state equals re-evaluating everything (DESIGN.md §9;
``tests/lint/reference_fixpoint.py`` keeps that loop as the oracle).

For the same reason the findings of a function's latest evaluation are
the findings of the converged state as long as its reads are current,
and :meth:`solve` hands them out without walking the function again.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence


class Fixpoint:
    """Summaries of one pass and the sweep that converges them."""

    def __init__(self) -> None:
        #: fid -> latest summary; rules read this.
        self.summaries: dict[str, Any] = {}
        #: fid -> findings of its latest evaluation (a ``Walker``
        #: registers its list here when it starts).
        self.found: dict[str, list] = {}
        #: evaluations run (the plain sweep runs rounds x functions).
        self.evaluations = 0
        #: cell (a fid, or whatever else a pass notes) -> times changed.
        self._stamp: dict[Hashable, int] = {}
        #: cell -> stamp seen, for the evaluation in progress.
        self._reads: dict[Hashable, int] = {}

    def note(self, cell: Hashable) -> None:
        """The running evaluation depends on ``cell``."""
        self._reads[cell] = self._stamp.get(cell, 0)

    def touch(self, cell: Hashable) -> None:
        """``cell`` changed: whatever noted it must run again."""
        self._stamp[cell] = self._stamp.get(cell, 0) + 1

    def read(self, fid: str) -> Any:
        """``fid``'s current summary (None before its first evaluation)."""
        self.note(fid)
        return self.summaries.get(fid)

    def _current(self, seen: dict[Hashable, int] | None) -> bool:
        """Has nothing changed of what an evaluation recorded as ``seen``?"""
        return seen is not None and all(
            self._stamp.get(cell, 0) == at for cell, at in seen.items()
        )

    def run(
        self,
        order: Sequence[str],
        evaluate: Callable[[str], Any],
        max_rounds: int,
        end_round: Callable[[], None] = lambda: None,
    ) -> dict[str, dict[Hashable, int]]:
        """Sweep ``order`` until a round changes no summary ``key()``.
        Returns, per function, what the evaluation its summary came from
        recorded as read."""
        keys: dict[str, Any] = {}
        inputs: dict[str, dict[Hashable, int]] = {}
        for _round in range(max_rounds):
            changed = False
            for fid in order:
                if self._current(inputs.get(fid)):
                    continue
                self._reads = inputs[fid] = {}
                summary = self.summaries[fid] = evaluate(fid)
                self.evaluations += 1
                key = summary.key()
                if key != keys.get(fid):
                    keys[fid] = key
                    self.touch(fid)
                    changed = True
            end_round()
            if not changed:
                break
        self._reads = {}  # rules read too: nobody looks
        return inputs

    def solve(
        self, order: Sequence[str], evaluate: Callable[[str], Any], max_rounds: int
    ) -> list:
        """:meth:`run`, then what the evaluations found in the state it
        left, in ``order``.  Only a run that stopped at its round cap
        leaves functions whose reads are stale; each is evaluated once
        more for its findings alone — no summary, stamp or count moves.
        So is every function of a run that reports no reads at all (the
        reference sweep)."""
        inputs = self.run(order, evaluate, max_rounds) or {}
        out: list = []
        for fid in order:
            if not self._current(inputs.get(fid)):
                evaluate(fid)
            out.extend(self.found[fid])
        return out
