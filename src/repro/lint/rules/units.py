"""PIC6xx and PIC202: quantity-unit taint (whole-program).

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
* **PIC202** — a record count as a byte count: ``len(...)`` or
  ``sys.getsizeof(...)`` — and nothing else — reaching a
  simulated-bytes argument (the byte sinks above, any ``nbytes=`` or
  ``size_bytes=`` keyword, ``Flow(size=...)``), directly, through a
  binding or through a helper's return.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.model import Finding
from repro.lint.rules import ProjectRule, project_finding

if TYPE_CHECKING:
    from repro.lint.project.analysis import ProjectAnalysis


class UnitTaintRule(ProjectRule):
    """``rule_id``'s share of the ``(rule, fid, line, col, message)``
    findings the unit-taint pass holds."""

    def __init__(self, rule_id: str, summary: str, doc: str) -> None:
        self.rule_id = rule_id
        self.summary = summary
        #: First line of ``--explain``, as a rule class's docstring is.
        self.__doc__ = doc

    def check_project(self, project: "ProjectAnalysis") -> Iterator[Finding]:
        for rule, fid, line, col, message in project.unit_taint().findings:
            if rule == self.rule_id:
                yield project_finding(project, rule, fid, line, col, message)


#: One row per rule: id, ``--list-rules`` summary and ``--explain`` doc line.
RULES = (
    UnitTaintRule(
        "PIC202",
        "len()/getsizeof passed as a flow byte count; use sizeof_records/.nbytes",
        "PIC202: ``len()`` where a serialized byte count is required.",
    ),
    UnitTaintRule(
        "PIC601",
        "adds/subtracts/compares quantities with conflicting units",
        "PIC601: arithmetic/comparison across conflicting units.",
    ),
    UnitTaintRule(
        "PIC602",
        "wall-clock or mis-united quantity flows into a simulated metric",
        "PIC602: mis-united value reaches a simulated-time/bytes sink.",
    ),
)
