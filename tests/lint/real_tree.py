"""The repository's own Python files, as the self-hosting tests lint them."""

from pathlib import Path

from repro.lint.engine import iter_python_files

REPO = Path(__file__).resolve().parents[2]
#: Git-ignored scratch of the perf ledger: an interrupted ``lint_corpus``
#: run leaves a corpus copy with six seeded defects behind.
LEDGER_OUT = REPO / "benchmarks" / "perf" / "ledger" / "out"


def real_tree_files(*subtrees: str) -> list[Path]:
    """Every ``.py`` file under ``subtrees`` outside the ledger's scratch."""
    return [
        path
        for path in iter_python_files([REPO / subtree for subtree in subtrees])
        if LEDGER_OUT not in path.parents
    ]
