"""CLI behaviour: exit codes, output formats, selection, self-hosting."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint.cli import JSON_SCHEMA_VERSION, main
from tests.lint.real_tree import real_tree_files

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = "def double(x):\n    return x * 2\n"
VIOLATIONS = {
    "PIC001": "import time\n\nt0 = time.time()\n",
    "PIC002": "import random\n\nx = random.random()\n",
    "PIC003": "def go(items):\n    for x in set(items):\n        pass\n",
    "PIC101": (
        "from repro.mapreduce.job import JobSpec\n\n"
        "spec = JobSpec(mapper=lambda k, v: [(k, v)])\n"
    ),
    "PIC102": (
        "from repro.pic.api import PICProgram\n\n"
        "class P(PICProgram):\n"
        "    def map(self, key, value, ctx):\n"
        "        print(key)\n"
    ),
    "PIC201": "import sys\n\nn = sys.getsizeof([])\n",
    "PIC202": "def ship(sim, r):\n    sim.transfer('a', 'b', nbytes=len(r))\n",
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text(CLEAN)
        code, out, _ = run_cli([str(tmp_path)], capsys)
        assert code == 0
        assert "0 findings in 1 files" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATIONS["PIC001"])
        code, out, _ = run_cli([str(tmp_path)], capsys)
        assert code == 1
        assert "PIC001" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli([str(tmp_path / "nope")], capsys)
        assert code == 2
        assert "no such file" in err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        code, _, err = run_cli([str(tmp_path)], capsys)
        assert code == 2
        assert "broken.py" in err

    def test_each_rule_family_detected_with_correct_id(self, tmp_path, capsys):
        for rule_id, source in VIOLATIONS.items():
            target = tmp_path / f"{rule_id.lower()}.py"
            target.write_text(source)
            code, out, _ = run_cli([str(target)], capsys)
            assert code == 1, f"{rule_id} fixture did not trip the linter"
            assert rule_id in out, f"expected {rule_id} in output, got: {out}"


class TestTextFormat:
    def test_findings_render_path_line_col_rule(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(VIOLATIONS["PIC001"])
        _, out, _ = run_cli([str(target)], capsys)
        assert f"{target}:3:" in out
        assert " PIC001 " in out


class TestJsonFormat:
    def test_schema(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATIONS["PIC001"])
        (tmp_path / "clean.py").write_text(CLEAN)
        code, out, _ = run_cli([str(tmp_path), "--format", "json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_checked"] == 2
        assert payload["total"] == 1
        assert payload["counts"] == {"PIC001": 1}
        assert payload["errors"] == []
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["rule"] == "PIC001"
        assert finding["line"] == 3

    def test_clean_tree_json(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text(CLEAN)
        code, out, _ = run_cli([str(tmp_path), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 0
        assert payload["findings"] == []


class TestSelection:
    def test_select_limits_rules(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(VIOLATIONS["PIC001"] + VIOLATIONS["PIC002"])
        code, out, _ = run_cli([str(target), "--select", "PIC002"], capsys)
        assert code == 1
        assert "PIC002" in out and "PIC001" not in out

    def test_ignore_drops_rules(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(VIOLATIONS["PIC001"])
        code, _, _ = run_cli([str(target), "--ignore", "PIC001"], capsys)
        assert code == 0

    def test_unknown_rule_id_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text(CLEAN)
        try:
            main([str(tmp_path), "--select", "PIC999"])
        except SystemExit as exc:
            assert exc.code == 2
        else:  # pragma: no cover - argparse always raises
            raise AssertionError("expected SystemExit")

    def test_list_rules(self, capsys):
        code, out, _ = run_cli(["--list-rules"], capsys)
        assert code == 0
        for rule_id in VIOLATIONS:
            assert rule_id in out
        listed = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert listed == [
            "PIC001", "PIC002", "PIC003", "PIC101", "PIC102", "PIC201", "PIC202",
            "PIC301", "PIC303", "PIC401", "PIC402", "PIC601", "PIC602",
        ]


class TestExplain:
    def test_explain_one_rule(self, capsys):
        code, out, _ = run_cli(["--explain", "PIC601"], capsys)
        assert code == 0
        assert "PIC601" in out
        assert "family: quantity-unit taint" in out
        assert "bad (fires):" in out

    def test_bare_explain_lists_every_rule_sorted(self, capsys):
        from repro.lint.rules import all_rules

        code, out, _ = run_cli(["--explain"], capsys)
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        ids = [line.split()[0] for line in lines]
        assert ids == [r.rule_id for r in all_rules()]
        assert ids == sorted(ids)
        for rule in all_rules():
            assert rule.summary in out

    def test_explain_unknown_rule_exits_two(self, capsys):
        code, _, err = run_cli(["--explain", "PIC999"], capsys)
        assert code == 2
        assert "unknown rule" in err


class TestModuleEntryPoint:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )

    def test_python_dash_m_runs(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(VIOLATIONS["PIC202"])
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert "PIC202" in proc.stdout

    def test_self_hosting_tree_is_clean(self):
        # The acceptance gate: the linter passes over its own codebase,
        # the benchmarks and the examples — whole-program rules included
        # — with the committed (empty) baseline.  The files are named one
        # by one: a directory walk would also lint the ledger's
        # git-ignored scratch, where an interrupted ``lint_corpus`` run
        # leaves a corpus copy with seeded defects.
        proc = self._run(
            *(str(path.relative_to(REPO_ROOT))
              for path in real_tree_files("src", "benchmarks", "examples")),
            "--no-cache", "--baseline", ".piclint-baseline.json",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip().endswith("files")

    def test_self_hosting_warm_cache_parses_nothing(self, tmp_path):
        cache = tmp_path / "cache.json"
        cold = self._run("src", "--cache-file", str(cache), "--stats")
        assert cold.returncode == 0, cold.stdout + cold.stderr
        assert "project=analysed" in cold.stderr
        assert "evaluated=0 " not in cold.stderr
        warm = self._run("src", "--cache-file", str(cache), "--stats")
        assert warm.returncode == 0, warm.stdout + warm.stderr
        assert "parsed=0" in warm.stderr
        assert "evaluated=0 project=replayed" in warm.stderr
