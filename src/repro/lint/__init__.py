"""piclint: simulator-invariant static analysis for this reproduction.

Every headline number the benchmarks report is a *simulated* metric, so
the codebase's correctness contract is a set of invariants the test
suite can only spot-check:

* **Determinism** — identical runs (any worker count, any host) must
  produce bit-identical simulated traffic and time.  Wall-clock reads
  and unseeded global RNG state break replay; iterating sets feeds
  nondeterministic order into flow scheduling and metric accumulation.
* **Purity/picklability** — user ``map``/``reduce``/``partition``/
  ``merge`` callbacks run inside the framework loop, sometimes in a
  worker process.  Closures silently fall back to in-process execution
  in :mod:`repro.parallel.executor`; instance mutation inside task-side
  callbacks is lost when the task runs out-of-process.
* **Byte accounting** — flow payloads must be sized with
  :mod:`repro.util.sizing` (or a cached ``.nbytes``), never ``len()``
  or ``sys.getsizeof``, or Table II/Figure 2 bytes silently drift.

Run it with ``python -m repro.lint [paths]`` (or ``pic-lint`` after an
editable install).  Findings carry rule IDs (``PIC001``...); suppress a
line with ``# pic: noqa`` or ``# pic: noqa: PIC001``.
"""

from repro.lint.engine import lint_file, lint_source
from repro.lint.model import Finding, LintParseError
from repro.lint.rules import all_rules, rules_by_id

__all__ = [
    "Finding",
    "LintParseError",
    "all_rules",
    "lint_file",
    "lint_source",
    "rules_by_id",
]
