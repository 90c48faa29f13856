"""SARIF 2.1.0 serialization for code-scanning upload."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.lint.baseline import finding_fingerprint
from repro.lint.model import Finding
from repro.lint.rules import all_rules

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

#: SARIF ``level`` of every rule: a finding is a warning to act on, and
#: its GitHub code-scanning ``security-severity`` (4.0–6.9 renders
#: "medium").
_LEVEL = "warning"
_SEVERITY_SCORE = "5.0"


def _uri(path: str) -> str:
    return Path(path).as_posix()


def to_sarif(findings: Sequence[Finding], errors: Sequence[str]) -> dict:
    """The full SARIF log object for one run."""
    rules = []
    for rule in all_rules():
        rules.append(
            {
                "id": rule.rule_id,
                "shortDescription": {"text": rule.summary},
                "defaultConfiguration": {"level": _LEVEL},
                "properties": {
                    "problem.severity": _LEVEL,
                    "security-severity": _SEVERITY_SCORE,
                },
            }
        )
    results = [
        {
            "ruleId": f.rule,
            "level": _LEVEL,
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _uri(f.path)},
                        "region": {"startLine": f.line, "startColumn": f.col},
                    }
                }
            ],
            "partialFingerprints": {"picLint/v1": finding_fingerprint(f)},
        }
        for f in findings
    ]
    notifications = [
        {"level": "error", "message": {"text": err}} for err in errors
    ]
    run: dict = {
        "tool": {
            "driver": {
                "name": "pic-lint",
                "informationUri": "https://example.invalid/pic-lint",
                "rules": rules,
            }
        },
        "results": results,
    }
    if notifications:
        run["invocations"] = [
            {
                "executionSuccessful": False,
                "toolExecutionNotifications": notifications,
            }
        ]
    return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [run]}
