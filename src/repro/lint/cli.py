"""Command-line interface: ``python -m repro.lint`` / ``pic-lint``.

Exit codes: 0 clean (or all findings baselined), 1 new findings,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from repro.lint.baseline import load_baseline, split_by_baseline, write_baseline
from repro.lint.cache import DEFAULT_CACHE_NAME
from repro.lint.engine import run_lint
from repro.lint.rules import Rule, all_rules, rules_by_id
from repro.lint.sarif import to_sarif

JSON_SCHEMA_VERSION = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pic-lint",
        description=(
            "Static analysis for simulator invariants: determinism, "
            "callback purity/picklability, byte accounting, cross-partition "
            "aliasing and simulated-traffic integrity."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["."],
        help="files or directories to lint (default: current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--cache-file",
        metavar="FILE",
        default=None,
        help=f"incremental cache location (default: ./{DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print files-parsed/cache-hit/fixpoint-evaluation/timing "
        "statistics to stderr",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        nargs="?",
        const="",
        default=None,
        help="print a rule's doc, invariant family and a minimal "
        "bad/good example pair, then exit; with no RULE, list every "
        "rule sorted by ID with its one-line doc",
    )
    return parser


def _parse_rule_ids(raw: str, parser: argparse.ArgumentParser) -> set[str]:
    known = rules_by_id()
    ids = {part.strip().upper() for part in raw.split(",") if part.strip()}
    unknown = ids - known.keys()
    if unknown:
        parser.error(
            f"unknown rule ID(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    return ids


def _active_rules(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> list[Rule]:
    rules = all_rules()
    if args.select:
        selected = _parse_rule_ids(args.select, parser)
        rules = [r for r in rules if r.rule_id in selected]
    if args.ignore:
        ignored = _parse_rule_ids(args.ignore, parser)
        rules = [r for r in rules if r.rule_id not in ignored]
    return rules


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        Path(output).write_text(text + "\n", encoding="utf-8")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.summary}")
        return 0

    if args.explain is not None:
        from repro.lint.examples import explain
        from repro.lint.rules import family_of

        if not args.explain.strip():
            for rule in all_rules():
                print(
                    f"{rule.rule_id}  [{family_of(rule.rule_id)}]  "
                    f"{rule.summary}"
                )
            return 0
        text = explain(args.explain.strip().upper())
        if text is None:
            known = ", ".join(sorted(rules_by_id()))
            print(
                f"pic-lint: unknown rule {args.explain!r} (known: {known})",
                file=sys.stderr,
            )
            return 2
        print(text)
        return 0

    cache_path: str | None
    if args.no_cache:
        cache_path = None
    else:
        cache_path = args.cache_file or DEFAULT_CACHE_NAME

    try:
        run = run_lint(
            args.paths, rules=_active_rules(args, parser), cache_path=cache_path
        )
    except FileNotFoundError as exc:
        print(f"pic-lint: {exc}", file=sys.stderr)
        return 2
    findings, errors = run.findings, run.errors

    if args.write_baseline:
        write_baseline(Path(args.write_baseline), findings)
        print(
            f"pic-lint: wrote baseline with {len(findings)} finding(s) "
            f"to {args.write_baseline}"
        )
        return 0 if not errors else 2

    baselined_count = 0
    if args.baseline:
        try:
            baseline = load_baseline(Path(args.baseline))
        except (OSError, ValueError) as exc:
            print(f"pic-lint: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        findings, baselined = split_by_baseline(findings, baseline)
        baselined_count = len(baselined)

    if args.format == "sarif":
        _emit(json.dumps(to_sarif(findings, errors), indent=2), args.output)
    elif args.format == "json":
        counts = Counter(f.rule for f in findings)
        payload = {
            "version": JSON_SCHEMA_VERSION,
            "files_checked": run.files_checked,
            "findings": [f.to_json() for f in findings],
            "counts": dict(sorted(counts.items())),
            "total": len(findings),
            "baselined": baselined_count,
            "errors": errors,
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = [f.render() for f in findings]
        noun = "finding" if len(findings) == 1 else "findings"
        tail = f"{len(findings)} {noun} in {run.files_checked} files"
        if baselined_count:
            tail += f" ({baselined_count} baselined)"
        _emit("\n".join(lines + [tail]), args.output)

    if args.stats:
        print(
            "pic-lint: stats: "
            f"files={run.files_checked} "
            f"parsed={run.stats.get('files_parsed', 0)} "
            f"cache_hits={run.stats.get('cache_hits', 0)} "
            f"evaluated={run.stats.get('functions_evaluated', 0)} "
            f"project={'replayed' if run.stats.get('project_replayed') else 'analysed'} "
            f"elapsed={run.stats.get('elapsed_s', 0.0):.3f}s",
            file=sys.stderr,
        )

    for err in errors:
        print(f"pic-lint: error: {err}", file=sys.stderr)
    if errors:
        return 2
    return 1 if findings else 0
