"""Cold start: a process loads only what it runs.

Each case runs in a fresh interpreter, because ``sys.modules`` of the
test process already holds whatever earlier tests imported.  Nothing
here is timed; the cases pin *which* modules a start-up loads:

* the runtime needs numpy alone: importing the packages or running a
  CLI command loads no scipy, and with scipy made unimportable the two
  exact reference solvers (``match_centroids``, ``smooth_reference``)
  and the ``kmeans``/``smoothing`` commands still give their answers;
* ``repro.cli`` imports each command's application inside that command,
  so importing the CLI loads no ``repro.apps`` module.
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
    submodule)."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + _REPORT, *prefixes],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src")}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, report = proc.stdout.splitlines()
    return "\n".join(printed), json.loads(report)


def loaded_after(code: str, *prefixes: str) -> list[str]:
    return run_fresh(code, *prefixes)[1]


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
