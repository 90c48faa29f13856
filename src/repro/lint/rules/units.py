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

from repro.lint.rules import FamilyRule

#: One row per rule: id, ``--list-rules`` summary, ``--explain`` doc line,
#: and the ``ProjectAnalysis`` method that runs the family's pass.
RULES = (
    FamilyRule(
        "PIC601",
        "adds/subtracts/compares quantities with conflicting units",
        "PIC601: arithmetic/comparison across conflicting units.",
        "unit_taint",
    ),
    FamilyRule(
        "PIC602",
        "wall-clock or mis-united quantity flows into a simulated metric",
        "PIC602: mis-united value reaches a simulated-time/bytes sink.",
        "unit_taint",
    ),
)
