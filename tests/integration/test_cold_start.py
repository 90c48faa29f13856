"""Cold start: a process loads only what it runs.

Each case runs in a fresh interpreter, because ``sys.modules`` of the
test process already holds whatever earlier tests imported.  Nothing
here is timed; the cases pin *which* modules a start-up loads:

* scipy is imported only where it is called — ``match_centroids``
  (``scipy.optimize``) and ``smooth_reference`` (``scipy.sparse``) — so
  importing the packages, or running a CLI command that needs neither,
  never loads it;
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


def loaded_after(code: str, *prefixes: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the modules it left loaded
    under ``prefixes`` (the package itself or any submodule)."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + _REPORT, *prefixes],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src")}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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


def test_match_centroids_loads_scipy_on_first_call():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.apps.kmeans import match_centroids\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "a = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])\n"
        "perm = np.array([2, 0, 3, 1])\n"
        "assert match_centroids(a, a[perm]).tolist() == np.argsort(perm).tolist()\n"
    )
    assert "scipy.optimize" in loaded_after(code, "scipy")


def test_importing_the_cli_loads_no_application():
    assert loaded_after("import repro.cli", "repro.apps") == []
