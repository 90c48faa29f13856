"""PIC6xx: quantity-unit taint (whole-program).

Simulated seconds, wall-clock seconds, simulated wire bytes and record
counts are all plain ``float``/``int`` to Python — mixing them is the
classic way to quietly wreck a result table ("speedup" computed from
one simulated and one measured number).  These rules read the
converged taint facts from :mod:`repro.lint.project.units`:

* **PIC601** — cross-unit arithmetic/comparison: ``+``/``-``/ordering
  between quantities whose units conflict.  Multiplying and dividing
  are fine (that is how rates are built), and byte totals may be
  assembled from ``len(...)`` pieces, so those pairs stay silent.
* **PIC602** — wrong unit reaching a simulated sink: a wall-clock (or
  otherwise mis-united) value flowing into ``sim.schedule(delay)``,
  ``cluster.transfer(..., nbytes, ...)``, ``meter.record(...)`` or a
  project function that forwards its parameter there.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.model import Finding
from repro.lint.project.analysis import ProjectAnalysis
from repro.lint.rules import ProjectRule, family_findings


class UnitMixRule(ProjectRule):
    """PIC601: arithmetic/comparison across conflicting units."""

    rule_id = "PIC601"
    summary = "adds/subtracts/compares quantities with conflicting units"

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        yield from family_findings(project, project.unit_taint().findings, self.rule_id)


class SimSinkTaintRule(ProjectRule):
    """PIC602: mis-united value reaches a simulated-time/bytes sink."""

    rule_id = "PIC602"
    summary = "wall-clock or mis-united quantity flows into a simulated metric"

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        yield from family_findings(project, project.unit_taint().findings, self.rule_id)
