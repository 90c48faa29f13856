"""Cold start: a process loads only what it runs.

Each case runs in a fresh interpreter, because ``sys.modules`` of the
test process already holds whatever earlier tests imported.  Nothing
here is timed; the cases pin *which* modules a start-up loads:

* the runtime needs numpy alone: importing the packages or running a
  CLI command loads no scipy, and with scipy made unimportable the two
  exact reference solvers (``match_centroids``, ``smooth_reference``)
  and the ``kmeans``/``smoothing`` commands still give their answers;
* ``repro.cli`` imports each command's application inside that command,
  so importing the CLI loads no ``repro.apps`` module;
* the linter's analysis loads on the first lint: importing ``repro.lint``
  or its engine loads the engine and the finding records alone;
* ``repro.harness.workloads`` imports each application in the factory
  that builds it;
* the process pool's machinery (``concurrent.futures.process``) loads
  with the first pool, not with the packages that may start one;
* so the ledger's workload module, which imports all three, loads none
  of what they defer until a workload uses it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: Prints the loaded module names that match the prefixes in ``argv``.
_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if any(m == p or m.startswith(p + '.') for p in sys.argv[1:]))))\n"
)


def run_fresh(code: str, *prefixes: str) -> tuple[str, list[str]]:
    """Run ``code`` in a fresh interpreter: what it printed, and the
    modules it left loaded under ``prefixes`` (the package itself or any
    submodule).  The environment holds ``PYTHONPATH`` alone, so no
    ``PIC_*`` switch leaks in; a caller that writes no bytecode starts a
    child that writes none either (``-B``), or the child would leave
    ``__pycache__`` in the tree."""
    flags = ["-B"] if sys.flags.dont_write_bytecode else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code + "\n" + _REPORT, *prefixes],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src")}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, report = proc.stdout.splitlines()
    return "\n".join(printed), json.loads(report)


def loaded_after(code: str, *prefixes: str) -> list[str]:
    return run_fresh(code, *prefixes)[1]


def test_a_fresh_interpreter_writes_bytecode_as_its_caller_does():
    printed, _loaded = run_fresh("import sys\nprint(sys.flags.dont_write_bytecode)")
    assert printed == str(sys.flags.dont_write_bytecode)


def test_importing_the_packages_loads_no_scipy():
    code = "import repro.cli, repro.harness, repro.apps.kmeans, repro.pic, repro.mapreduce"
    assert loaded_after(code, "scipy") == []


def test_cli_runs_that_match_no_centroids_load_no_scipy():
    code = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['smoothing', '--side', '24']) == 0\n"
        "    assert main(['kmeans', '--points', '2000', '--clusters', '4']) == 0\n"
    )
    assert loaded_after(code, "scipy") == []


#: Installs a meta-path finder that refuses every ``scipy`` import.
_BLOCK_SCIPY = (
    "import sys\n"
    "class _NoScipy:\n"
    "    @staticmethod\n"
    "    def find_spec(name, path=None, target=None):\n"
    "        if name == 'scipy' or name.startswith('scipy.'):\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, _NoScipy)\n"
)

#: Runs the ``smoothing`` and ``kmeans`` commands; they print their tables.
_CLI_RUNS = (
    "from repro.cli import main\n"
    "assert main(['smoothing', '--side', '24']) == 0\n"
    "assert main(['kmeans', '--points', '2000', '--clusters', '4']) == 0\n"
)


def test_the_runtime_needs_no_scipy():
    code = _BLOCK_SCIPY + (
        "try:\n"
        "    import scipy\n"
        "except ModuleNotFoundError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('the finder let scipy through')\n"
        "import numpy as np\n"
        "from repro.apps.kmeans import centroid_displacement, match_centroids\n"
        "from repro.apps.smoothing import smooth_reference\n"
        "from repro.apps.smoothing.serial import _neighbor_sum\n"
        "a = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])\n"
        "perm = np.array([2, 0, 3, 1])\n"
        "assert match_centroids(a, a[perm]).tolist() == np.argsort(perm).tolist()\n"
        "assert centroid_displacement(a, a[perm]) == 0.0\n"
        "assert centroid_displacement(a, a[perm] + [3.0, 4.0]) == 5.0\n"
        "f = np.random.default_rng(0).normal(size=(12, 9))\n"
        "u = smooth_reference(f, lam=2.0, tol=1e-10)\n"
        "total, count = _neighbor_sum(u)\n"
        "residual = u + 2.0 * (count * u - total) - f\n"
        "assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(f)\n"
    ) + _CLI_RUNS
    blocked, modules = run_fresh(code, "scipy")
    assert modules == []
    # The commands print what they print where scipy can be imported.
    plain, _modules = run_fresh(_CLI_RUNS, "scipy")
    assert blocked == plain
    assert blocked.count("PIC top-off") == 2


def test_importing_the_cli_loads_no_application():
    assert loaded_after("import repro.cli", "repro.apps") == []


#: Modules the engine imports on the first lint, not on import.
LINT_ANALYSIS = (
    "repro.lint.cache", "repro.lint.module", "repro.lint.noqa",
    "repro.lint.project", "repro.lint.rules",
)
#: Applications the ledger's workload module does not import itself:
#: each loads when a workload that runs it builds its inputs.
OTHER_APPS = ("repro.apps.linsolve", "repro.apps.neuralnet", "repro.apps.pagerank")
POOL = "concurrent.futures.process"


def test_the_linter_loads_its_analysis_on_the_first_lint():
    for module in ("repro.lint", "repro.lint.engine"):
        loaded = loaded_after(f"import {module}", "repro.lint")
        assert loaded == ["repro.lint", "repro.lint.engine", "repro.lint.model"]
    code = (
        "from repro.lint import all_rules, lint_source, rules_by_id\n"
        "print(len(all_rules()), sorted(rules_by_id()) == [r.rule_id for r in all_rules()])\n"
        "print([f.rule for f in lint_source('import time\\nt = time.time()\\n')])\n"
    )
    printed, loaded = run_fresh(code, *LINT_ANALYSIS)
    assert printed == "13 True\n['PIC001']"
    assert "repro.lint.project.analysis" in loaded


def test_a_workload_factory_loads_its_own_application_only():
    assert loaded_after("import repro.harness.workloads", "repro.apps") == []
    code = (
        "from repro.harness.workloads import smoothing_medium\n"
        "print(len(smoothing_medium(side=16, num_partitions=4).records))\n"
    )
    printed, loaded = run_fresh(code, "repro.apps")
    assert printed == "16"
    assert loaded and all(
        m in ("repro.apps", "repro.apps.smoothing") or m.startswith("repro.apps.smoothing.")
        for m in loaded
    )


def test_importing_the_runtime_loads_no_process_pool():
    assert loaded_after("import repro.mapreduce, repro.pic, repro.cli", POOL) == []
    code = (
        "from repro.parallel import get_executor\n"
        "print(get_executor(2).map(abs, [-1, -2, -3]))\n"
    )
    printed, loaded = run_fresh(code, POOL)
    assert printed == "[1, 2, 3]"
    assert loaded == [POOL]


def test_the_ledger_loads_what_its_workloads_defer_only_when_used():
    code = (
        "import json, sys, tempfile\n"
        "from pathlib import Path\n"
        "import benchmarks.perf.ledger.workloads\n"
        f"deferred = {LINT_ANALYSIS + OTHER_APPS + (POOL,)!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if any(m == p or m.startswith(p + '.') for p in deferred))))\n"
        "from repro.lint.engine import run_lint\n"
        "from repro.parallel import get_executor\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    source = Path(tmp) / 'clock.py'\n"
        "    source.write_text('import time\\nt = time.time()\\n')\n"
        "    cache = Path(tmp) / 'cache.json'\n"
        "    for _ in range(2):\n"
        "        run = run_lint([source], cache_path=cache)\n"
        "        print([(f.line, f.rule) for f in run.findings], run.stats['files_parsed'])\n"
        "print(get_executor(2).map(abs, [-1, -2, -3]))\n"
    )
    printed, _loaded = run_fresh(code)
    deferred, cold, warm, mapped = printed.splitlines()
    assert json.loads(deferred) == []
    assert cold == "[(2, 'PIC001')] 1"
    assert warm == "[(2, 'PIC001')] 0"
    assert mapped == "[1, 2, 3]"
