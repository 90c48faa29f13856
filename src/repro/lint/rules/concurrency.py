"""PIC7xx: concurrency interference (whole-program).

With many jobs multiplexed through one event queue (PR 8), every
shared structure is a potential schedule-order dependence.  These
rules read the converged effect sets and order-taint facts from
:mod:`repro.lint.project.interference`; the ``PIC_SANITIZE`` schedule
sanitizer is the dynamic counterpart that shakes the same bugs out at
runtime.

* **PIC701** — handler-reachable code writes another job's state.
* **PIC702** — two co-schedulable handlers overlap on a shared
  location with no canonical tiebreak (the PR 8 timer-bug shape).
* **PIC703** — a scheduler/runner aggregate mutated from an app
  callback instead of through the owner's serialization-point API.
* **PIC704** — a nondeterministically-ordered iterable (set,
  id()-keyed dict) flows into a scheduling/submission order
  (whole-program extension of the per-file PIC003).
"""

from __future__ import annotations

from repro.lint.rules import FamilyRule

#: One row per rule: id, ``--list-rules`` summary, ``--explain`` doc line,
#: and the ``ProjectAnalysis`` method that runs the family's pass.
RULES = (
    FamilyRule(
        "PIC701",
        "event handler writes another job's state",
        "PIC701: handler mutates job-scoped state of a foreign job.",
        "interference",
    ),
    FamilyRule(
        "PIC702",
        "co-schedulable handlers overlap on shared state with no tiebreak",
        "PIC702: same-timestamp handlers conflict on a shared location.",
        "interference",
    ),
    FamilyRule(
        "PIC703",
        "scheduler aggregate mutated from a callback, not its owner API",
        "PIC703: shared aggregate mutated outside its serialization point.",
        "interference",
    ),
    FamilyRule(
        "PIC704",
        "set/id()-ordered iterable flows into a scheduling order",
        "PIC704: unordered iterable becomes a scheduling/submission order.",
        "interference",
    ),
)
