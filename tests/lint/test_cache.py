"""Incremental cache: warm re-lints skip parsing and finish faster."""

import json
import shutil

import pytest

import repro.lint.cache as cache_mod
import repro.lint.project.analysis as analysis_mod
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


MIXED = (
    "import time\n"
    "\n"
    "\n"
    "def lag(sim):\n"
    "    started = time.perf_counter()  # pic: noqa: PIC001\n"
    "    try:\n"
    "        return sim.now - started\n"
    "    except ValueError:\n"
    "        return None\n"
)
#: PIC601 is reported at the subtraction, not where the host clock is read.
MIXED_LINE = 7


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
        # An IR schema bump (like v2 -> v3 for the flattened blocks) must
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
        assert {"analysis.py", "walker.py", "units.py", "determinism.py",
                "engine.py"} <= {p.name for p in sources}
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

        subset = [r for r in all_rules() if r.rule_id != "PIC601"]
        rerun = run_lint([tree], rules=subset, cache_path=cache)
        assert rerun.stats["cache_hits"] == 0

    def test_project_findings_reproduce_from_cached_ir(self, tree, tmp_path):
        # The IR (a try block inlined into the op list) must round-trip
        # through the JSON cache: with another file edited the analysis
        # re-runs, the mixing file is not re-parsed, and its IR from the
        # cache still produces the whole-program unit-taint finding.
        cache = tmp_path / "cache.json"
        mixed = tree / "mod_mixed.py"
        mixed.write_text(MIXED, encoding="utf-8")
        cold = run_lint([tree], cache_path=cache)
        cold_rules = sorted(f.rule for f in cold.findings if f.path == str(mixed))
        assert "PIC601" in cold_rules

        edit_unrelated_file(tree)
        warm = run_lint([tree], cache_path=cache)
        assert warm.stats["files_parsed"] == 1
        assert not warm.stats["project_replayed"]
        warm_rules = sorted(f.rule for f in warm.findings if f.path == str(mixed))
        assert warm_rules == cold_rules

    def test_handler_findings_reproduce_from_cached_ir(self, tree, tmp_path):
        # Handler reachability runs from converged IR: the file whose
        # scheduled lambda reaches a private simulator write is not
        # re-parsed, yet the re-run analysis still reports the write.
        cache = tmp_path / "cache.json"
        poking = tree / "mod_poke.py"
        poking.write_text(
            "class Runner:\n"
            "    def submit(self, sim) -> None:\n"
            "        sim.schedule(1.0, lambda: self._poke(sim))\n"
            "\n"
            "    def _poke(self, sim) -> None:\n"
            "        sim._pending = []\n",
            encoding="utf-8",
        )
        cold = run_lint([tree], cache_path=cache)
        cold_rules = sorted(f.rule for f in cold.findings if f.path == str(poking))
        assert "PIC402" in cold_rules

        edit_unrelated_file(tree)
        warm = run_lint([tree], cache_path=cache)
        assert warm.stats["files_parsed"] == 1
        assert not warm.stats["project_replayed"]
        warm_rules = sorted(f.rule for f in warm.findings if f.path == str(poking))
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
        """Spy: one entry per ``ProjectAnalysis`` the engine constructs.

        The engine imports the class from its module at each analysis,
        so the spy replaces it there."""
        built = []

        class Spy(ProjectAnalysis):
            def __init__(self, modules):
                built.append(self)
                super().__init__(modules)

        monkeypatch.setattr(analysis_mod, "ProjectAnalysis", Spy)
        return built

    @pytest.fixture()
    def mixed(self, tree):
        path = tree / "mod_mixed.py"
        path.write_text(MIXED, encoding="utf-8")
        return path

    @staticmethod
    def mixes(run):
        return [(f.path, f.line) for f in run.findings if f.rule == "PIC601"]

    def test_unchanged_tree_replays_without_analysing(
        self, tree, mixed, tmp_path, analyses
    ):
        cache = tmp_path / "cache.json"
        cold = run_lint([tree], cache_path=cache)
        assert len(analyses) == 1
        assert not cold.stats["project_replayed"]
        assert cold.stats["functions_evaluated"] >= 2 * (3 * N_FILES + 1)
        assert self.mixes(cold) == [(str(mixed), MIXED_LINE)]

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
        assert self.mixes(run_lint([tree], cache_path=cache)) == []
        target = tree / "mod_007.py"
        target.write_text(MIXED + target.read_text(), encoding="utf-8")
        rerun = run_lint([tree], cache_path=cache)
        assert len(analyses) == 2
        assert rerun.stats["files_parsed"] == 1
        assert self.mixes(rerun) == [(str(target), MIXED_LINE)]
        # ... and that tree, unchanged, now replays the new findings.
        assert run_lint([tree], cache_path=cache).findings == rerun.findings
        assert len(analyses) == 2

    def test_adding_and_deleting_a_file_analyse_and_findings_follow(
        self, tree, tmp_path, analyses
    ):
        cache = tmp_path / "cache.json"
        run_lint([tree], cache_path=cache)
        added = tree / "mod_mixed.py"
        added.write_text(MIXED, encoding="utf-8")
        with_mix = run_lint([tree], cache_path=cache)
        assert len(analyses) == 2
        assert self.mixes(with_mix) == [(str(added), MIXED_LINE)]
        added.unlink()
        without = run_lint([tree], cache_path=cache)
        assert len(analyses) == 3
        assert without.stats["files_parsed"] == 0
        assert self.mixes(without) == []

    def test_noqa_added_on_a_project_finding_suppresses_it(
        self, tree, mixed, tmp_path
    ):
        cache = tmp_path / "cache.json"
        assert self.mixes(run_lint([tree], cache_path=cache))
        mixed.write_text(
            MIXED.replace("- started\n", "- started  # pic: noqa: PIC601\n"),
            encoding="utf-8",
        )
        assert self.mixes(run_lint([tree], cache_path=cache)) == []
        assert self.mixes(run_lint([tree], cache_path=cache)) == []

    def test_rule_subset_never_replays_a_full_runs_findings(
        self, tree, mixed, tmp_path, analyses
    ):
        from repro.lint.rules import all_rules

        cache = tmp_path / "cache.json"
        full = run_lint([tree], cache_path=cache)
        assert self.mixes(full)
        subset = [r for r in all_rules() if r.rule_id != "PIC601"]
        partial = run_lint([tree], rules=subset, cache_path=cache)
        assert len(analyses) == 2
        assert not partial.stats["project_replayed"]
        assert self.mixes(partial) == []
        # The subset's cache in turn never serves the full rule set.
        again = run_lint([tree], cache_path=cache)
        assert len(analyses) == 3
        assert again.findings == full.findings
