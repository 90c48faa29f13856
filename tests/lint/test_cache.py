"""Incremental cache: warm re-lints skip parsing and finish faster."""

import json
import shutil

import pytest

import repro.lint.cache as cache_mod
import repro.lint.engine as engine_mod
from repro.lint.cache import cache_salt
from repro.lint.engine import run_lint
from repro.lint.project.analysis import ProjectAnalysis

N_FILES = 50

MODULE_TEMPLATE = '''\
"""Generated fixture module {i}."""


def transform_{i}(records):
    out = []
    for key, value in records:
        out.append((key, value * {i}))
    return out


def fold_{i}(pairs):
    acc = {{}}
    for key, value in pairs:
        acc[key] = acc.get(key, 0) + value
    return acc


class Stage{i}:
    def __init__(self, width):
        self.width = width
        self.buckets = [[] for _ in range(width)]

    def route(self, key, value):
        self.buckets[hash(key) % self.width].append((key, value))

    def drain(self):
        for bucket in self.buckets:
            yield from sorted(bucket)
            bucket[:] = []
'''


LEAKY = (
    "def read_all(path):\n"
    "    fh = open(path)\n"
    "    try:\n"
    "        return fh.read()\n"
    "    except ValueError:\n"
    "        return None\n"
)
#: PIC501 is reported where the handle is returned past, not acquired.
LEAK_LINE = 4


def edit_unrelated_file(tree):
    """Change one generated module: the run's tree key moves, so the
    project analysis really runs — from every other file's cached IR."""
    target = tree / "mod_007.py"
    target.write_text(target.read_text() + "\nEXTRA = 1\n", encoding="utf-8")


@pytest.fixture()
def tree(tmp_path):
    pkg = tmp_path / "gen"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for i in range(N_FILES):
        (pkg / f"mod_{i:03d}.py").write_text(
            MODULE_TEMPLATE.format(i=i), encoding="utf-8"
        )
    return pkg


class TestWarmRuns:
    def test_warm_run_parses_and_evaluates_nothing(self, tree, tmp_path):
        # The work not done, not the clock: a timing assertion here fails
        # now and then on a loaded box.  The speed-up itself is measured
        # by the lint_corpus ledger workload.
        cache = tmp_path / "cache.json"
        cold = run_lint([tree], cache_path=cache)
        assert cold.stats["files_parsed"] == N_FILES + 1
        assert cold.stats["cache_hits"] == 0
        assert not cold.stats["project_replayed"]
        assert cold.stats["functions_evaluated"] > 0

        warm = run_lint([tree], cache_path=cache)
        assert warm.stats["files_parsed"] == 0
        assert warm.stats["cache_hits"] == N_FILES + 1
        assert warm.stats["project_replayed"]
        assert warm.stats["functions_evaluated"] == 0

    def test_warm_run_reports_identical_findings(self, tree, tmp_path):
        cache = tmp_path / "cache.json"
        cold = run_lint([tree], cache_path=cache)
        warm = run_lint([tree], cache_path=cache)
        assert warm.findings == cold.findings
        assert warm.errors == cold.errors

    def test_editing_one_file_reparses_only_that_file(self, tree, tmp_path):
        cache = tmp_path / "cache.json"
        run_lint([tree], cache_path=cache)
        edit_unrelated_file(tree)
        rerun = run_lint([tree], cache_path=cache)
        assert rerun.stats["files_parsed"] == 1
        assert rerun.stats["cache_hits"] == N_FILES


class TestInvalidation:
    def test_parse_errors_are_negative_cached(self, tree, tmp_path):
        cache = tmp_path / "cache.json"
        bad = tree / "mod_bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        first = run_lint([tree], cache_path=cache)
        assert len(first.errors) == 1
        second = run_lint([tree], cache_path=cache)
        assert second.errors == first.errors
        assert second.stats["files_parsed"] == 0

    def test_deleted_files_are_pruned(self, tree, tmp_path):
        cache = tmp_path / "cache.json"
        run_lint([tree], cache_path=cache)
        (tree / "mod_000.py").unlink()
        run_lint([tree], cache_path=cache)
        entries = json.loads(cache.read_text(encoding="utf-8"))["entries"]
        assert not any(p.endswith("mod_000.py") for p in entries)

    def test_rule_set_change_invalidates_the_cache(self, tree, tmp_path):
        # The salt covers the active per-file rule IDs: running with a
        # different selection must not serve entries from a full run.
        cache = tmp_path / "cache.json"
        run_lint([tree], cache_path=cache)
        from repro.lint.rules import all_rules

        subset = [r for r in all_rules() if r.rule_id != "PIC001"]
        rerun = run_lint([tree], rules=subset, cache_path=cache)
        assert rerun.stats["cache_hits"] == 0
        assert rerun.stats["files_parsed"] == N_FILES + 1

    def test_salt_depends_on_rule_ids(self):
        assert cache_salt(["PIC001"]) != cache_salt(["PIC001", "PIC301"])
        assert cache_salt(["PIC301", "PIC001"]) == cache_salt(["PIC001", "PIC301"])

    def test_salt_depends_on_ir_schema_version(self, monkeypatch):
        # An IR schema bump (like v1 -> v2 for exception edges) must
        # invalidate caches written under the old shape.
        current = cache_salt(["PIC001"])
        monkeypatch.setattr(cache_mod, "IR_SCHEMA_VERSION", 1_000_000)
        assert cache_salt(["PIC001"]) != current

    def test_salt_depends_on_pass_versions(self, monkeypatch, tmp_path):
        # The "version" of a pass or rule is its source: one changed
        # byte in any of them must invalidate caches written by the old
        # code (CI restores the cache file across commits).
        copy = tmp_path / "lint"
        shutil.copytree(cache_mod.LINT_ROOT, copy)
        monkeypatch.setattr(cache_mod, "LINT_ROOT", copy)
        current = cache_salt(["PIC001"])
        assert current == cache_salt(["PIC001"])
        sources = sorted(copy.rglob("*.py"))
        assert {"analysis.py", "typestate.py", "units.py", "interference.py",
                "determinism.py", "engine.py"} <= {p.name for p in sources}
        for source in sources:
            original = source.read_bytes()
            source.write_bytes(original + b"#")
            assert cache_salt(["PIC001"]) != current, source.name
            source.write_bytes(original)
        assert cache_salt(["PIC001"]) == current
        (copy / "rules" / "brand_new.py").write_bytes(b"")
        assert cache_salt(["PIC001"]) != current

    def test_project_rule_set_change_invalidates_the_cache(self, tree, tmp_path):
        # Dropping a whole-program rule changes the salt: the cached
        # project findings were computed with it.
        cache = tmp_path / "cache.json"
        run_lint([tree], cache_path=cache)
        from repro.lint.rules import all_rules

        subset = [r for r in all_rules() if r.rule_id != "PIC501"]
        rerun = run_lint([tree], rules=subset, cache_path=cache)
        assert rerun.stats["cache_hits"] == 0

    def test_project_findings_reproduce_from_cached_ir(self, tree, tmp_path):
        # The v2 IR (structured try/with/if blocks) must round-trip
        # through the JSON cache: with another file edited the analysis
        # re-runs, the leaky file is not re-parsed, and its IR from the
        # cache still produces the whole-program typestate finding.
        cache = tmp_path / "cache.json"
        leaky = tree / "mod_leak.py"
        leaky.write_text(LEAKY, encoding="utf-8")
        cold = run_lint([tree], cache_path=cache)
        cold_rules = sorted(f.rule for f in cold.findings if f.path == str(leaky))
        assert "PIC501" in cold_rules

        edit_unrelated_file(tree)
        warm = run_lint([tree], cache_path=cache)
        assert warm.stats["files_parsed"] == 1
        assert not warm.stats["project_replayed"]
        warm_rules = sorted(f.rule for f in warm.findings if f.path == str(leaky))
        assert warm_rules == cold_rules

    def test_interference_findings_reproduce_from_cached_ir(self, tree, tmp_path):
        # PIC7xx runs from converged IR: the racy file is not re-parsed
        # yet the re-run analysis still reports the cross-job write.
        cache = tmp_path / "cache.json"
        racy = tree / "mod_racy.py"
        racy.write_text(
            "class _JobState:\n"
            "    def __init__(self, app_id: int) -> None:\n"
            "        self.app_id = app_id\n"
            "        self.arrivals = 0\n"
            "\n"
            "\n"
            "class Runner:\n"
            "    def submit(self, sim, sibling: _JobState) -> None:\n"
            "        sim.schedule(1.0, lambda: self._poke(sibling))\n"
            "\n"
            "    def _poke(self, sibling: _JobState) -> None:\n"
            "        sibling.arrivals = sibling.arrivals + 1\n",
            encoding="utf-8",
        )
        cold = run_lint([tree], cache_path=cache)
        cold_rules = sorted(f.rule for f in cold.findings if f.path == str(racy))
        assert "PIC701" in cold_rules

        edit_unrelated_file(tree)
        warm = run_lint([tree], cache_path=cache)
        assert warm.stats["files_parsed"] == 1
        assert not warm.stats["project_replayed"]
        warm_rules = sorted(f.rule for f in warm.findings if f.path == str(racy))
        assert warm_rules == cold_rules

    def test_corrupt_cache_file_is_ignored(self, tree, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{not json", encoding="utf-8")
        run = run_lint([tree], cache_path=cache)
        assert run.stats["files_parsed"] == N_FILES + 1
        # ... and the run rewrites it into a usable cache.
        warm = run_lint([tree], cache_path=cache)
        assert warm.stats["files_parsed"] == 0


class TestProjectReplay:
    """An unchanged tree replays its whole-program findings; any other
    tree is analysed."""

    @pytest.fixture()
    def analyses(self, monkeypatch):
        """Spy: one entry per ``ProjectAnalysis`` the engine constructs."""
        built = []

        class Spy(ProjectAnalysis):
            def __init__(self, modules):
                built.append(self)
                super().__init__(modules)

        monkeypatch.setattr(engine_mod, "ProjectAnalysis", Spy)
        return built

    @pytest.fixture()
    def leaky(self, tree):
        path = tree / "mod_leak.py"
        path.write_text(LEAKY, encoding="utf-8")
        return path

    @staticmethod
    def leaks(run):
        return [(f.path, f.line) for f in run.findings if f.rule == "PIC501"]

    def test_unchanged_tree_replays_without_analysing(
        self, tree, leaky, tmp_path, analyses
    ):
        cache = tmp_path / "cache.json"
        cold = run_lint([tree], cache_path=cache)
        assert len(analyses) == 1
        assert not cold.stats["project_replayed"]
        assert cold.stats["functions_evaluated"] >= 4 * (3 * N_FILES + 1)
        assert self.leaks(cold) == [(str(leaky), LEAK_LINE)]

        warm = run_lint([tree], cache_path=cache)
        assert len(analyses) == 1
        assert warm.stats["project_replayed"]
        assert warm.stats["functions_evaluated"] == 0
        assert warm.findings == cold.findings

        # The key is the set of (path, content) pairs, not their order.
        files = sorted(tree.glob("*.py"), reverse=True)
        assert run_lint(files, cache_path=cache).findings == cold.findings
        assert len(analyses) == 1

    def test_without_a_cache_every_run_analyses(self, tree, analyses):
        run_lint([tree])
        run = run_lint([tree])
        assert len(analyses) == 2
        assert not run.stats["project_replayed"]

    def test_editing_a_file_analyses_and_findings_follow(
        self, tree, tmp_path, analyses
    ):
        cache = tmp_path / "cache.json"
        assert self.leaks(run_lint([tree], cache_path=cache)) == []
        target = tree / "mod_007.py"
        target.write_text(LEAKY + target.read_text(), encoding="utf-8")
        rerun = run_lint([tree], cache_path=cache)
        assert len(analyses) == 2
        assert rerun.stats["files_parsed"] == 1
        assert self.leaks(rerun) == [(str(target), LEAK_LINE)]
        # ... and that tree, unchanged, now replays the new findings.
        assert run_lint([tree], cache_path=cache).findings == rerun.findings
        assert len(analyses) == 2

    def test_adding_and_deleting_a_file_analyse_and_findings_follow(
        self, tree, tmp_path, analyses
    ):
        cache = tmp_path / "cache.json"
        run_lint([tree], cache_path=cache)
        added = tree / "mod_leak.py"
        added.write_text(LEAKY, encoding="utf-8")
        with_leak = run_lint([tree], cache_path=cache)
        assert len(analyses) == 2
        assert self.leaks(with_leak) == [(str(added), LEAK_LINE)]
        added.unlink()
        without = run_lint([tree], cache_path=cache)
        assert len(analyses) == 3
        assert without.stats["files_parsed"] == 0
        assert self.leaks(without) == []

    def test_noqa_added_on_a_project_finding_suppresses_it(
        self, tree, leaky, tmp_path
    ):
        cache = tmp_path / "cache.json"
        assert self.leaks(run_lint([tree], cache_path=cache))
        leaky.write_text(
            LEAKY.replace("fh.read()\n", "fh.read()  # pic: noqa: PIC501\n"),
            encoding="utf-8",
        )
        assert self.leaks(run_lint([tree], cache_path=cache)) == []
        assert self.leaks(run_lint([tree], cache_path=cache)) == []

    def test_rule_subset_never_replays_a_full_runs_findings(
        self, tree, leaky, tmp_path, analyses
    ):
        from repro.lint.rules import all_rules

        cache = tmp_path / "cache.json"
        full = run_lint([tree], cache_path=cache)
        assert self.leaks(full)
        subset = [r for r in all_rules() if r.rule_id != "PIC501"]
        partial = run_lint([tree], rules=subset, cache_path=cache)
        assert len(analyses) == 2
        assert not partial.stats["project_replayed"]
        assert self.leaks(partial) == []
        # The subset's cache in turn never serves the full rule set.
        again = run_lint([tree], cache_path=cache)
        assert len(analyses) == 3
        assert again.findings == full.findings
