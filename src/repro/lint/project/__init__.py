"""Whole-program analysis layer (DESIGN.md §9).

The per-file pass (:mod:`repro.lint.project.ir`) lowers every module to
a compact, JSON-serializable IR: one record per function with a linear
list of binding/mutation/call/return operations, plus the module's
class table and import aliases.  The IR — not the AST — is what the
incremental cache stores, so warm re-lints never re-parse unchanged
files.

:mod:`repro.lint.project.graph` indexes the IRs into a project: module
names, fully-qualified class/function tables, base-class resolution
(including one-hop re-export chasing through package ``__init__``
files) and subclass closures.

:mod:`repro.lint.project.analysis` runs an intraprocedural alias /
escape / mutation abstract interpretation per function and propagates
the resulting summaries over the call graph to a fixpoint; the alias
rules (PIC3xx/PIC4xx) read only the converged summaries.
:mod:`repro.lint.project.units` runs the quantity-unit taint pass
(PIC202, PIC6xx) over the same call graph.  Both walk each function
with one :class:`~repro.lint.project.walker.Walker`.
"""

from repro.lint.project.analysis import ProjectAnalysis
from repro.lint.project.graph import ProjectGraph
from repro.lint.project.ir import IR_SCHEMA_VERSION, build_module_ir

__all__ = [
    "IR_SCHEMA_VERSION",
    "ProjectAnalysis",
    "ProjectGraph",
    "build_module_ir",
]
