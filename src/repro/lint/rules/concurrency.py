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

from typing import Iterator

from repro.lint.model import Finding
from repro.lint.project.analysis import ProjectAnalysis
from repro.lint.rules import ProjectRule, family_findings


class CrossJobWriteRule(ProjectRule):
    """PIC701: handler mutates job-scoped state of a foreign job."""

    rule_id = "PIC701"
    summary = "event handler writes another job's state"

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        yield from family_findings(project, project.interference().findings, self.rule_id)


class TieOrderConflictRule(ProjectRule):
    """PIC702: same-timestamp handlers conflict on a shared location."""

    rule_id = "PIC702"
    summary = "co-schedulable handlers overlap on shared state with no tiebreak"

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        yield from family_findings(project, project.interference().findings, self.rule_id)


class AggregateBypassRule(ProjectRule):
    """PIC703: shared aggregate mutated outside its serialization point."""

    rule_id = "PIC703"
    summary = "scheduler aggregate mutated from a callback, not its owner API"

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        yield from family_findings(project, project.interference().findings, self.rule_id)


class UnorderedScheduleRule(ProjectRule):
    """PIC704: unordered iterable becomes a scheduling/submission order."""

    rule_id = "PIC704"
    summary = "set/id()-ordered iterable flows into a scheduling order"

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        yield from family_findings(project, project.interference().findings, self.rule_id)
