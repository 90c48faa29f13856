"""File collection, incremental caching and rule execution.

The engine reads each file's bytes exactly once.  Per-file work (AST
parse, per-file rules, noqa tokenization, IR lowering) is skipped for
files whose content hash matches the on-disk cache.  Whole-program
analysis runs from the IRs — never the ASTs — and is skipped too when
the cache holds the findings of a run over exactly these files with
exactly these contents: a warm re-lint of an unchanged tree replays
them, and only ``# pic: noqa`` filtering and sorting are redone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.lint.cache import (
    LintCache,
    cache_salt,
    content_hash,
    findings_from_entry,
    suppressions_from_entry,
    tree_key,
)
from repro.lint.model import Finding, LintParseError
from repro.lint.module import LintModule
from repro.lint.noqa import filter_findings
from repro.lint.project.analysis import ProjectAnalysis
from repro.lint.project.graph import (
    module_name_for_path,
    module_name_for_virtual_path,
)
from repro.lint.project.ir import build_module_ir
from repro.lint.rules import ProjectRule, Rule, all_rules

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", ".eggs", "build", "dist"})


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if not any(part in _SKIP_DIRS for part in p.parts)
            )
        elif path.suffix == ".py" or path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


@dataclass
class LintRun:
    """Everything one engine invocation produced."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    files_checked: int = 0
    stats: dict[str, float] = field(default_factory=dict)


def _split_rules(rules: Sequence[Rule] | None) -> tuple[list[Rule], list[ProjectRule]]:
    active = list(rules) if rules is not None else all_rules()
    file_rules = [r for r in active if not isinstance(r, ProjectRule)]
    project_rules = [r for r in active if isinstance(r, ProjectRule)]
    return file_rules, project_rules


def _check_module(module: LintModule, file_rules: Sequence[Rule]) -> list[Finding]:
    findings: list[Finding] = []
    for rule in file_rules:
        findings.extend(rule.check(module))
    return findings


def _project_findings(
    irs: Sequence[dict], project_rules: Sequence[ProjectRule]
) -> tuple[list[Finding], int]:
    """Whole-program findings (pre-noqa) and the fixpoint evaluations
    they cost."""
    if not project_rules or not irs:
        return [], 0
    analysis = ProjectAnalysis(irs)
    findings: list[Finding] = []
    for rule in project_rules:
        findings.extend(rule.check_project(analysis))
    return findings, analysis.functions_evaluated()


def run_lint(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    cache_path: str | Path | None = None,
) -> LintRun:
    """Lint files/directories with optional incremental caching."""
    started = time.perf_counter()  # pic: noqa: PIC001 — host-side lint timing
    file_rules, project_rules = _split_rules(rules)
    run = LintRun()
    files = iter_python_files(paths)
    run.files_checked = len(files)

    cache: LintCache | None = None
    if cache_path is not None:
        # Every active rule id salts the cache: a ``rules=`` subset must
        # never replay the per-file or project findings of a full run.
        salt = cache_salt(
            [r.rule_id for r in file_rules] + [r.rule_id for r in project_rules]
        )
        cache = LintCache(Path(cache_path), salt)

    irs: list[dict] = []
    digests: list[tuple[str, str]] = []
    suppressions_by_path: dict[str, Mapping[int, frozenset[str] | None]] = {}
    raw_findings: list[Finding] = []
    parsed = 0
    cache_hits = 0

    for file in files:
        key = str(file)
        try:
            data = file.read_bytes()
        except OSError as exc:
            run.errors.append(f"{key}: cannot read: {exc}")
            continue
        digest = content_hash(data)
        digests.append((key, digest))

        entry = cache.lookup(key, digest) if cache is not None else None
        if entry is not None:
            cache_hits += 1
            if "error" in entry:
                run.errors.append(entry["error"])
                continue
            raw_findings.extend(findings_from_entry(entry))
            suppressions_by_path[key] = suppressions_from_entry(entry)
            irs.append(entry["ir"])
            continue

        try:
            module = LintModule.from_bytes(key, data)
            suppressions = module.suppressions
        except LintParseError as exc:
            run.errors.append(str(exc))
            if cache is not None:
                cache.store_error(key, digest, str(exc))
            continue
        parsed += 1
        module_name, is_package = module_name_for_path(file)
        ir = build_module_ir(module, module_name, is_package)
        file_findings = _check_module(module, file_rules)
        raw_findings.extend(file_findings)
        suppressions_by_path[key] = suppressions
        irs.append(ir)
        if cache is not None:
            cache.store_ok(key, digest, file_findings, suppressions, ir)

    tree = tree_key(digests)
    project = cache.project_findings(tree) if cache is not None else None
    replayed = project is not None
    evaluated = 0
    if project is None:
        project, evaluated = _project_findings(irs, project_rules)
        if cache is not None:
            cache.store_project(tree, project)
    raw_findings.extend(project)

    kept: list[Finding] = []
    for finding in raw_findings:
        suppressed = suppressions_by_path.get(finding.path, {})
        kept.extend(filter_findings([finding], suppressed))
    run.findings = sorted(kept)

    if cache is not None:
        cache.prune({str(f) for f in files})
        cache.save()

    run.stats = {
        "files_parsed": parsed,
        "cache_hits": cache_hits,
        "functions_evaluated": evaluated,
        "project_replayed": replayed,
        "elapsed_s": time.perf_counter() - started,  # pic: noqa: PIC001
    }
    return run


def lint_sources(
    sources: Mapping[str, str], rules: Sequence[Rule] | None = None
) -> tuple[list[Finding], list[str]]:
    """Lint an in-memory tree ``{path: source}`` (tests, fixtures).

    Paths are virtual: every directory component is treated as a
    package for module naming, so multi-file call-graph fixtures do not
    need ``__init__.py`` stubs.
    """
    file_rules, project_rules = _split_rules(rules)
    findings: list[Finding] = []
    errors: list[str] = []
    irs: list[dict] = []
    suppressions_by_path: dict[str, Mapping[int, frozenset[str] | None]] = {}
    for path in sorted(sources):
        try:
            module = LintModule(path, sources[path])
            suppressions = module.suppressions
        except LintParseError as exc:
            errors.append(str(exc))
            continue
        module_name, is_package = module_name_for_virtual_path(path)
        irs.append(build_module_ir(module, module_name, is_package))
        suppressions_by_path[path] = suppressions
        findings.extend(_check_module(module, file_rules))
    findings.extend(_project_findings(irs, project_rules)[0])
    kept: list[Finding] = []
    for finding in findings:
        kept.extend(
            filter_findings([finding], suppressions_by_path.get(finding.path, {}))
        )
    return sorted(kept), errors


def lint_source(
    source: str, path: str = "<memory>", rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint one source string; noqa suppressions are honoured."""
    findings, errors = lint_sources({path: source}, rules=rules)
    if errors:
        raise LintParseError(path, errors[0].split(": ", 1)[-1])
    return findings


def lint_file(path: str | Path, rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Lint one file on disk."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise LintParseError(str(p), f"cannot read: {exc}")
    module = LintModule.from_bytes(str(p), data)
    file_rules, project_rules = _split_rules(rules)
    module_name, is_package = module_name_for_path(p)
    ir = build_module_ir(module, module_name, is_package)
    findings = _check_module(module, file_rules)
    findings.extend(_project_findings([ir], project_rules)[0])
    return sorted(filter_findings(findings, module.suppressions))


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[Rule] | None = None
) -> tuple[list[Finding], list[str], int]:
    """Lint files/directories.

    Returns ``(findings, errors, files_checked)`` where ``errors`` are
    human-readable messages for files that could not be read or parsed.
    Thin compatibility wrapper over :func:`run_lint`.
    """
    run = run_lint(paths, rules=rules)
    return run.findings, run.errors, run.files_checked
