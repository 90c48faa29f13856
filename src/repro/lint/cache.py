"""On-disk incremental cache for warm re-lints (DESIGN.md §9).

One JSON file, two sections.  ``entries`` maps each linted path to the
sha256 of its bytes plus everything the engine would otherwise
recompute by parsing it: the per-file findings (pre-noqa), the noqa
suppression map and the module's dataflow IR.  ``project`` holds the
pre-noqa whole-program findings of the last run under its *tree key*,
one hash over the sorted ``(path, sha256)`` pairs of every file it
read; a run with the same key replays them, any edited, added or
removed file gives a new key and the analysis re-runs from cached IRs.

The file is salted with the active rule IDs, the IR/cache schema
versions and a digest of the linter's own source: CI restores caches
across commits, so editing a rule's or a pass's *body* must invalidate
it just as adding a rule does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.lint.model import Finding
from repro.lint.project.ir import IR_SCHEMA_VERSION

#: v2: the ``project`` section (replayable whole-program findings).
CACHE_SCHEMA_VERSION = 2
DEFAULT_CACHE_NAME = ".piclint-cache.json"
#: The package whose source salts the cache.
LINT_ROOT = Path(__file__).parent


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_key(digests: Iterable[tuple[str, str]]) -> str:
    """One hash for a whole run: its sorted ``(path, sha256)`` pairs."""
    return content_hash(json.dumps(sorted(digests)).encode("utf-8"))


def linter_digest() -> str:
    """sha256 over the name and bytes of every ``.py`` under ``repro/lint``."""
    digest = hashlib.sha256()
    for path in sorted(LINT_ROOT.rglob("*.py")):
        digest.update(path.relative_to(LINT_ROOT).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_salt(rule_ids: Sequence[str]) -> str:
    basis = json.dumps(
        {
            "cache": CACHE_SCHEMA_VERSION,
            "ir": IR_SCHEMA_VERSION,
            "linter": linter_digest(),
            "rules": sorted(rule_ids),
        },
        sort_keys=True,
    )
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]


class LintCache:
    """Content-hash keyed store of per-file results and of the last
    run's whole-program findings."""

    def __init__(self, path: Path, salt: str) -> None:
        self.path = path
        self.salt = salt
        self.entries: dict[str, dict[str, Any]] = {}
        self.project: dict[str, Any] = {}
        self.dirty = False
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict) or raw.get("salt") != self.salt:
            return
        entries, project = raw.get("entries"), raw.get("project")
        if isinstance(entries, dict):
            self.entries = entries
        if isinstance(project, dict):
            self.project = project

    def lookup(self, path: str, digest: str) -> dict[str, Any] | None:
        entry = self.entries.get(path)
        if entry is not None and entry.get("sha256") == digest:
            return entry
        return None

    def store_ok(
        self,
        path: str,
        digest: str,
        findings: Sequence[Finding],
        suppressions: dict[int, frozenset[str] | None],
        ir: dict[str, Any],
    ) -> None:
        self.entries[path] = {
            "sha256": digest,
            "findings": [f.to_json() for f in findings],
            "suppressions": {
                str(line): (None if ids is None else sorted(ids))
                for line, ids in suppressions.items()
            },
            "ir": ir,
        }
        self.dirty = True

    def store_error(self, path: str, digest: str, error: str) -> None:
        self.entries[path] = {"sha256": digest, "error": error}
        self.dirty = True

    def project_findings(self, key: str) -> list[Finding] | None:
        """The stored whole-program findings, if they are for tree ``key``."""
        if self.project.get("tree") != key:
            return None
        return findings_from_entry(self.project)

    def store_project(self, key: str, findings: Sequence[Finding]) -> None:
        self.project = {"tree": key, "findings": [f.to_json() for f in findings]}
        self.dirty = True

    def prune(self, live_paths: set[str]) -> None:
        stale = [p for p in self.entries if p not in live_paths]
        for p in stale:
            del self.entries[p]
            self.dirty = True

    def save(self) -> None:
        if not self.dirty:
            return
        payload = {
            "version": CACHE_SCHEMA_VERSION,
            "salt": self.salt,
            "entries": self.entries,
            "project": self.project,
        }
        try:
            self.path.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            return
        self.dirty = False


def findings_from_entry(entry: dict[str, Any]) -> list[Finding]:
    return [Finding(**f) for f in entry.get("findings", [])]


def suppressions_from_entry(entry: dict[str, Any]) -> dict[int, frozenset[str] | None]:
    return {
        int(line): (None if ids is None else frozenset(ids))
        for line, ids in entry.get("suppressions", {}).items()
    }
