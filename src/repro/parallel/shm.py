"""Import shim for the perf ledger: the shared-memory hand-off is gone.

The pool's one transport is pickle (``executor.map_or_none``; DESIGN.md
§10 has the pricing).  ``benchmarks/perf/ledger/probes.py`` still
imports these two names and may not be edited outside a re-freeze, so
they stay as no-ops — kept for the ledger's import, deleted by the
re-freeze PR (ROADMAP item 1), imported by nothing else.
"""

from typing import Any, Sequence


def swap_out_batches(payloads: Sequence[Any]) -> tuple[list[Any], list[Any]]:
    """The payloads unchanged, and nothing to release."""
    return list(payloads), []


def release_batches(exported: Sequence[Any]) -> None:
    """Nothing was exported, so nothing is released."""
