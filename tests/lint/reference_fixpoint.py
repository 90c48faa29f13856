"""The plain round-robin sweep the passes ran before they shared
:class:`repro.lint.project.fixpoint.Fixpoint`.

This is the ``_converge`` loop ``ProjectAnalysis`` and ``UnitAnalysis``
each carried a copy of: every function is re-evaluated in every round,
in sweep order, until a round changes no summary key or the round cap
is reached.  It defines what the dependency-driven driver must produce
— the same summaries for every function, in both passes, at every
round cap — and how many evaluations that costs without dependency
tracking.

``sweep`` has the signature of ``Fixpoint.run`` so a test can put it in
its place (``mock.patch.object(Fixpoint, "run", sweep)``); reads still
go through ``Fixpoint.read``/``note``, whose bookkeeping it ignores.
It returns no evaluation's reads either, so ``Fixpoint.solve`` takes
no function's last evaluation on trust and evaluates each once more
for its findings — the reporting walk every pass used to end
with, which makes this the oracle for findings as well.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.lint.project.fixpoint import Fixpoint


def sweep(
    self: Fixpoint,
    order: Iterable[str],
    evaluate: Callable[[str], Any],
    max_rounds: int,
    end_round: Callable[[], None] = lambda: None,
) -> None:
    """Evaluate every function of ``order`` every round."""
    order = list(order)
    keys: dict[str, Any] = {fid: None for fid in order}
    for _round in range(max_rounds):
        changed = False
        for fid in order:
            summary = evaluate(fid)
            self.summaries[fid] = summary
            self.evaluations += 1
            key = summary.key()
            if key != keys[fid]:
                keys[fid] = key
                changed = True
        end_round()
        if not changed:
            break
