"""Baseline burn-down workflow and SARIF serialization."""

import json

from repro.lint.baseline import (
    finding_fingerprint,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.lint.cli import main
from repro.lint.model import Finding
from repro.lint.rules import all_rules
from repro.lint.sarif import SARIF_VERSION, to_sarif


def _finding(path="src/app.py", line=3, rule="PIC301", message="leaks records"):
    return Finding(path=path, line=line, col=1, rule=rule, message=message)


class TestFingerprints:
    def test_fingerprint_ignores_line_number(self):
        # Edits above a finding shift its line; the baseline must not
        # resurrect it for that.
        assert finding_fingerprint(_finding(line=3)) == finding_fingerprint(
            _finding(line=30)
        )

    def test_fingerprint_distinguishes_rule_and_path(self):
        base = finding_fingerprint(_finding())
        assert finding_fingerprint(_finding(rule="PIC302")) != base
        assert finding_fingerprint(_finding(path="src/other.py")) != base

    def test_fingerprint_uses_posix_relative_form(self):
        # Fingerprints must be stable across checkouts: the same file
        # reached via an explicit ./ prefix hashes identically.
        assert finding_fingerprint(
            _finding(path="./src/app.py")
        ) == finding_fingerprint(_finding(path="src/app.py"))


class TestBaselineRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [_finding(), _finding(), _finding(rule="PIC302")])
        baseline = load_baseline(path)
        assert baseline[finding_fingerprint(_finding())] == 2
        assert baseline[finding_fingerprint(_finding(rule="PIC302"))] == 1

    def test_split_honours_per_fingerprint_counts(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [_finding()])
        new, old = split_by_baseline(
            [_finding(), _finding(line=9)], load_baseline(path)
        )
        # Only one occurrence was accepted; the duplicate is new.
        assert len(old) == 1
        assert len(new) == 1

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "fingerprints": {}}', encoding="utf-8")
        try:
            load_baseline(path)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


class TestBaselineCli:
    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        bad = tmp_path / "app.py"
        bad.write_text(
            "from repro.pic.api import PICProgram\n\n\n"
            "class P(PICProgram):\n"
            "    def map(self, ctx, key, value):\n"
            "        value[\"seen\"] = True\n"
            "        ctx.emit(key, value)\n",
            encoding="utf-8",
        )
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--no-cache"]) == 1
        assert main([str(bad), "--no-cache", "--write-baseline", str(baseline)]) == 0
        assert main([str(bad), "--no-cache", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "(1 baselined)" in out

    def test_new_finding_still_fails_the_gate(self, tmp_path, capsys):
        bad = tmp_path / "app.py"
        bad.write_text(
            "from repro.pic.api import PICProgram\n\n\n"
            "class P(PICProgram):\n"
            "    def map(self, ctx, key, value):\n"
            "        value[\"seen\"] = True\n"
            "        ctx.emit(key, value)\n",
            encoding="utf-8",
        )
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--no-cache", "--write-baseline", str(baseline)]) == 0
        bad.write_text(
            bad.read_text()
            + "\n    def batch_map(self, ctx, records):\n"
            + "        records.clear()\n",
            encoding="utf-8",
        )
        assert main([str(bad), "--no-cache", "--baseline", str(baseline)]) == 1


class TestSarif:
    def test_sarif_shape(self):
        log = to_sarif([_finding()], [])
        assert log["version"] == SARIF_VERSION
        (run,) = log["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"PIC001", "PIC301", "PIC303", "PIC401", "PIC402"} <= rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "PIC301"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/app.py"
        assert loc["region"]["startLine"] == 3
        assert result["partialFingerprints"]["picLint/v1"] == finding_fingerprint(
            _finding()
        )

    def test_severity_mapping_is_family_consistent(self):
        # Every rule ships one level, warning, with its medium
        # code-scanning score: no family is an error.
        log = to_sarif([_finding(rule="PIC001"), _finding(rule="PIC601")], [])
        (run,) = log["runs"]
        assert [r["level"] for r in run["results"]] == ["warning", "warning"]
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == [r.rule_id for r in all_rules()]
        for rule in rules:
            assert rule["defaultConfiguration"]["level"] == "warning", rule["id"]
            assert rule["properties"] == {
                "problem.severity": "warning",
                "security-severity": "5.0",
            }

    def test_errors_become_tool_notifications(self):
        log = to_sarif([], ["src/bad.py: syntax error: invalid syntax (line 1)"])
        (run,) = log["runs"]
        (invocation,) = run["invocations"]
        assert invocation["executionSuccessful"] is False
        assert invocation["toolExecutionNotifications"][0]["level"] == "error"

    def test_cli_sarif_output_file(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("VALUE = 1\n", encoding="utf-8")
        out = tmp_path / "report.sarif"
        assert main([str(clean), "--no-cache", "--format", "sarif",
                     "--output", str(out)]) == 0
        log = json.loads(out.read_text(encoding="utf-8"))
        assert log["version"] == SARIF_VERSION
        assert log["runs"][0]["results"] == []
