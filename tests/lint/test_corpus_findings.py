"""The whole-program passes on the perf ledger's frozen corpus.

``benchmarks/perf/ledger/corpus`` holds a frozen copy of ``src/repro``
(74 files, six seeded defects); the ledger's own reference pins only
``(path, line)`` on the ten files its default scale lints.  Here every
finding of every file is pinned in full — rule, column and message —
against ``corpus_findings.json``, generated by the linter as it was
before the passes shared one walker, less the seeded merge write
(``smoothing/program.py:215``), which no static rule reports any more:
the read-only model guard stops it at run time; and less the seeded
double ``close`` (``parallel/shm.py:173``, a module the live tree no
longer has), whose rule went with the resource-lifecycle pass.  Pinned too is what the
analysis costs: the fixpoint's evaluation count, and that nothing walks
a function beyond those evaluations.
"""

import json
import tarfile
from pathlib import Path
from unittest import mock

import pytest

from repro.lint.engine import iter_python_files, run_lint
from repro.lint.project.walker import Walker

HERE = Path(__file__).resolve().parent
TARBALL = HERE.parents[1] / "benchmarks/perf/ledger/corpus/src-repro-8464be0.tar.gz"
GOLDEN = json.loads((HERE / "corpus_findings.json").read_text())


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    """(root, LintRun, walker runs) of one cache-less lint of the corpus."""
    root = tmp_path_factory.mktemp("corpus")
    with tarfile.open(TARBALL) as tar:
        tar.extractall(root, filter="data")
    files = iter_python_files([root / "repro"])
    assert len(files) == 74
    with mock.patch.object(
        Walker, "__init__", autospec=True, side_effect=Walker.__init__
    ) as walks:
        run = run_lint(files)
    return root, run, walks.call_count


def test_findings_equal_the_golden_list(corpus_run):
    root, run, _walks = corpus_run
    assert run.errors == []
    found = [
        [f.rule, Path(f.path).relative_to(root).as_posix(), f.line, f.col, f.message]
        for f in run.findings
    ]
    assert found == GOLDEN
    assert [(rule, path, line, col) for rule, path, line, col, _msg in GOLDEN] == [
        ("PIC303", "repro/apps/kmeans/program.py", 151, 9),
        ("PIC301", "repro/apps/linsolve/program.py", 174, 9),
        ("PIC601", "repro/mapreduce/driver.py", 176, 30),
        ("PIC402", "repro/mapreduce/runner.py", 539, 9),
    ]


def test_fixpoint_cost_is_unchanged(corpus_run):
    _root, run, _walks = corpus_run
    # alias 936 + units 818.  Units went 815 -> 818 when a forwarding
    # helper's parameter became a sink whatever its caller passes: more
    # summaries change, so the fixpoint evaluates three more times.
    assert run.stats["functions_evaluated"] == 1754


def test_every_walk_is_a_fixpoint_evaluation(corpus_run):
    # Findings come from each function's last evaluation: no pass
    # walks the tree once more to collect them.
    _root, run, walks = corpus_run
    assert walks == run.stats["functions_evaluated"]
