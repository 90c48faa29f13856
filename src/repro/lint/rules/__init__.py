"""Rule base classes and the registry of shipped rules.

Each rule family maps to one simulator invariant (see DESIGN.md §7/§9):

* ``PIC0xx`` — determinism of replay;
* ``PIC1xx`` — purity/picklability of user callbacks;
* ``PIC2xx`` — bytes-conserving flow accounting;
* ``PIC3xx`` — cross-partition aliasing (whole-program);
* ``PIC4xx`` — simulation integrity (whole-program);
* ``PIC5xx`` — resource lifecycle typestate (whole-program);
* ``PIC6xx`` — quantity-unit taint (whole-program);
* ``PIC7xx`` — concurrency interference (whole-program).

Per-file rules subclass :class:`Rule` and see one :class:`LintModule`
at a time.  Whole-program rules subclass :class:`ProjectRule` and see
the converged :class:`~repro.lint.project.analysis.ProjectAnalysis`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator

from repro.lint.model import Finding

if TYPE_CHECKING:
    from repro.lint.module import LintModule
    from repro.lint.project.analysis import ProjectAnalysis


class Rule(abc.ABC):
    """One machine-checked invariant with a stable ID."""

    #: Stable identifier, e.g. ``PIC001``.
    rule_id: str = ""
    #: One-line description shown by ``--list-rules`` and in README.
    summary: str = ""

    @abc.abstractmethod
    def check(self, module: "LintModule") -> Iterator[Finding]:
        """Yield findings for ``module``."""

    def finding(self, module: "LintModule", node: object, message: str) -> Finding:
        """Anchor a finding for this rule at ``node``."""
        return module.finding(self.rule_id, node, message)  # type: ignore[arg-type]


class ProjectRule(Rule):
    """A rule that needs the whole-program analysis, not one module."""

    def check(self, module: "LintModule") -> Iterator[Finding]:
        return iter(())

    @abc.abstractmethod
    def check_project(self, project: "ProjectAnalysis") -> Iterator[Finding]:
        """Yield findings over the converged project summaries."""


def project_finding(
    project: "ProjectAnalysis", rule_id: str, fid: str, line: int, col: int, message: str
) -> Finding:
    """Anchor a whole-program finding in ``fid``'s file (IR columns
    count from 0, findings from 1)."""
    return Finding(project.graph.fid_path[fid], line, col + 1, rule_id, message)


class FamilyRule(ProjectRule):
    """``rule_id``'s share of the ``(rule, fid, line, col, message)``
    findings one family analysis (typestate, units, interference) holds."""

    def __init__(self, rule_id: str, summary: str, doc: str, family: str) -> None:
        self.rule_id = rule_id
        self.summary = summary
        #: First line of ``--explain``, as a rule class's docstring is.
        self.__doc__ = doc
        #: The :class:`ProjectAnalysis` method that runs the family's pass.
        self.family = family

    def check_project(self, project: "ProjectAnalysis") -> Iterator[Finding]:
        for rule, fid, line, col, message in getattr(project, self.family)().findings:
            if rule == self.rule_id:
                yield project_finding(project, rule, fid, line, col, message)


def all_rules() -> list[Rule]:
    """Every shipped rule, in ID order (the per-file and alias-reading
    rules as fresh instances, the family rules as their table rows)."""
    from repro.lint.rules import concurrency, lifecycle, units
    from repro.lint.rules.aliasing import (
        CallbackRecordMutationRule,
        ColumnViewRule,
        MergeMutationRule,
        PartitionAliasingRule,
    )
    from repro.lint.rules.determinism import (
        SetIterationOrderRule,
        UnseededRandomRule,
        WallClockRule,
    )
    from repro.lint.rules.purity import CallbackPurityRule, TaskSpecPicklabilityRule
    from repro.lint.rules.simulation import (
        ReentrantHandlerMutationRule,
        TrafficBypassRule,
    )
    from repro.lint.rules.sizing import GetsizeofRule, RawLenByteCountRule

    rules: list[Rule] = [
        WallClockRule(),
        UnseededRandomRule(),
        SetIterationOrderRule(),
        TaskSpecPicklabilityRule(),
        CallbackPurityRule(),
        GetsizeofRule(),
        RawLenByteCountRule(),
        PartitionAliasingRule(),
        MergeMutationRule(),
        CallbackRecordMutationRule(),
        ColumnViewRule(),
        TrafficBypassRule(),
        ReentrantHandlerMutationRule(),
        *lifecycle.RULES,
        *units.RULES,
        *concurrency.RULES,
    ]
    return sorted(rules, key=lambda r: r.rule_id)


#: Rule-ID prefix -> invariant family name (used by ``--explain``).
FAMILIES = {
    "PIC0": "determinism of replay",
    "PIC1": "purity/picklability of user callbacks",
    "PIC2": "bytes-conserving flow accounting",
    "PIC3": "cross-partition aliasing",
    "PIC4": "simulation integrity",
    "PIC5": "resource lifecycle typestate",
    "PIC6": "quantity-unit taint",
    "PIC7": "concurrency interference",
}


def family_of(rule_id: str) -> str:
    """Human name of the invariant family ``rule_id`` belongs to."""
    return FAMILIES.get(rule_id[:4], "unknown")


def rules_by_id() -> dict[str, Rule]:
    """Map rule IDs to rule instances."""
    return {rule.rule_id: rule for rule in all_rules()}
