"""File collection, incremental caching and rule execution.

The engine reads each file's bytes exactly once.  Per-file work (AST
parse, per-file rules, noqa tokenization, IR lowering) is skipped for
files whose content hash matches the on-disk cache.  Whole-program
analysis runs from the IRs — never the ASTs — and is skipped too when
the cache holds the findings of a run over exactly these files with
exactly these contents: a warm re-lint of an unchanged tree replays
them, and only ``# pic: noqa`` filtering and sorting are redone.

Importing this module loads nothing of the linter but its finding
records: the cache, the parser, the noqa map, the IR, the project
analysis and the rules are imported by the first lint that needs them,
so a process that imports the engine and never lints compiles none of
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.lint.model import Finding, LintParseError

if TYPE_CHECKING:
    from repro.lint.rules import Rule

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", ".eggs", "build", "dist"})


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered.

    A file that several arguments cover (a directory and a file inside
    it, the same path spelled twice) is listed once, under its first
    spelling and at its first position.
    """
    files: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = [
                p
                for p in sorted(path.rglob("*.py"))
                if not any(part in _SKIP_DIRS for part in p.parts)
            ]
        elif path.suffix == ".py" or path.is_file():
            found = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for p in found:
            resolved = p.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(p)
    return files


@dataclass
class LintRun:
    """Everything one engine invocation produced."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    files_checked: int = 0
    stats: dict[str, float] = field(default_factory=dict)


Suppressions = dict[int, frozenset[str] | None]


class _Lint:
    """One lint of a set of files: :meth:`add` takes what :meth:`check`
    (or the cache) has for each file, :meth:`finish` closes the set."""

    def __init__(self, rules: Sequence[Rule] | None) -> None:
        from repro.lint.rules import ProjectRule, all_rules

        active = list(rules) if rules is not None else all_rules()
        self.file_rules = [r for r in active if not isinstance(r, ProjectRule)]
        self.project_rules = [r for r in active if isinstance(r, ProjectRule)]
        self.irs: list[dict] = []
        #: Per-file findings so far, before ``# pic: noqa`` filtering.
        self.findings: list[Finding] = []
        self.suppressions: dict[str, Suppressions] = {}

    def add(
        self, path: str, ir: dict, findings: Sequence[Finding], suppressions: Suppressions
    ) -> None:
        self.irs.append(ir)
        self.findings.extend(findings)
        self.suppressions[path] = suppressions

    def check(
        self, path: str, source: bytes | str, named: tuple[str | None, bool]
    ) -> tuple[dict, list[Finding], Suppressions]:
        """The per-file step — parse, noqa map, IR, per-file rules — as
        :meth:`add` takes it; raises :class:`LintParseError`."""
        from repro.lint.module import LintModule
        from repro.lint.project.ir import build_module_ir

        if isinstance(source, bytes):
            module = LintModule.from_bytes(path, source)
        else:
            module = LintModule(path, source)
        suppressions = module.suppressions
        ir = build_module_ir(module, *named)
        findings = [f for rule in self.file_rules for f in rule.check(module)]
        return ir, findings, suppressions

    def project(self) -> tuple[list[Finding], int]:
        """Whole-program findings (pre-noqa) and the fixpoint evaluations
        they cost."""
        if not self.project_rules or not self.irs:
            return [], 0
        from repro.lint.project.analysis import ProjectAnalysis

        analysis = ProjectAnalysis(self.irs)
        findings: list[Finding] = []
        for rule in self.project_rules:
            findings.extend(rule.check_project(analysis))
        return findings, analysis.functions_evaluated()

    def finish(self, project: Sequence[Finding]) -> list[Finding]:
        """Per-file plus ``project`` findings, noqa-filtered and sorted."""
        from repro.lint.noqa import filter_findings

        kept: list[Finding] = []
        for finding in [*self.findings, *project]:
            kept.extend(
                filter_findings([finding], self.suppressions.get(finding.path, {}))
            )
        return sorted(kept)


def run_lint(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    cache_path: str | Path | None = None,
) -> LintRun:
    """Lint files/directories with optional incremental caching."""
    from repro.lint.cache import (
        LintCache,
        cache_salt,
        content_hash,
        findings_from_entry,
        suppressions_from_entry,
        tree_key,
    )
    from repro.lint.project.graph import module_name_for_path

    started = time.perf_counter()  # pic: noqa: PIC001 — host-side lint timing
    lint = _Lint(rules)
    run = LintRun()
    files = iter_python_files(paths)
    run.files_checked = len(files)

    cache: LintCache | None = None
    if cache_path is not None:
        # Every active rule id salts the cache: a ``rules=`` subset must
        # never replay the per-file or project findings of a full run.
        salt = cache_salt([r.rule_id for r in lint.file_rules + lint.project_rules])
        cache = LintCache(Path(cache_path), salt)

    digests: list[tuple[str, str]] = []
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
            lint.add(
                key, entry["ir"], findings_from_entry(entry), suppressions_from_entry(entry)
            )
            continue

        try:
            ir, file_findings, suppressions = lint.check(
                key, data, module_name_for_path(file)
            )
        except LintParseError as exc:
            run.errors.append(str(exc))
            if cache is not None:
                cache.store_error(key, digest, str(exc))
            continue
        parsed += 1
        lint.add(key, ir, file_findings, suppressions)
        if cache is not None:
            cache.store_ok(key, digest, file_findings, suppressions, ir)

    tree = tree_key(digests)
    project = cache.project_findings(tree) if cache is not None else None
    replayed = project is not None
    evaluated = 0
    if project is None:
        project, evaluated = lint.project()
        if cache is not None:
            cache.store_project(tree, project)
    run.findings = lint.finish(project)

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
    from repro.lint.project.graph import module_name_for_virtual_path

    lint = _Lint(rules)
    errors: list[str] = []
    for path in sorted(sources):
        try:
            lint.add(
                path, *lint.check(path, sources[path], module_name_for_virtual_path(path))
            )
        except LintParseError as exc:
            errors.append(str(exc))
    return lint.finish(lint.project()[0]), errors


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
    from repro.lint.project.graph import module_name_for_path

    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise LintParseError(str(p), f"cannot read: {exc}")
    lint = _Lint(rules)
    lint.add(str(p), *lint.check(str(p), data, module_name_for_path(p)))
    return lint.finish(lint.project()[0])
