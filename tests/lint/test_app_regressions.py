"""Regression guards for the real applications.

The shipped apps and the mapreduce runner are clean under the
whole-program rules (the committed baseline is empty).  These tests pin
that, and then prove the rules would catch the most likely regressions
by re-linting each real source file with a one-line seeded bug — or, for
a write the read-only guard stops, by running the same write.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.apps.smoothing.program import ImageSmoothingProgram
from repro.harness.workloads import smoothing_medium
from repro.lint import lint_source
from repro.lint.baseline import finding_fingerprint, load_baseline
from repro.lint.engine import run_lint
from repro.pic.engine import BestEffortEngine
from tests.lint.real_tree import REPO, real_tree_files


class _SmoothingMergingIntoAPartial(ImageSmoothingProgram):
    """Smoothing's merge with its one write redirected into ``models[0]``."""

    def merge(self, models):
        for owned, model in zip(self._owned_keys, models):
            for key in owned:
                models[0][key] = model[key]
        return models[0]


def seeded(source: str, old: str, new: str) -> str:
    assert old in source, f"mutation anchor vanished: {old!r}"
    return source.replace(old, new, 1)


def mutated(path: Path, old: str, new: str) -> str:
    return seeded(path.read_text(encoding="utf-8"), old, new)


def project_rules(source: str) -> list[str]:
    # Lint under a real module name (as on-disk runs do): the default
    # "<memory>" path yields an anonymous module, which weakens
    # intra-module annotation resolution for the interprocedural rules.
    return sorted(
        {f.rule for f in lint_source(source, path="app.py") if f.rule[3] in "346"}
    )


# The runner's input-split read: one call into its read helper.
_INPUT_READ = (
    "self._read(\n"
    "                    attempt, pending, self.dataset.locations(split_index),\n"
    "                    split.nbytes, TrafficCategory.INPUT, part_done,\n"
    "                )"
)


class TestRealTreeIsClean:
    @pytest.mark.parametrize("subtree", ["src", "benchmarks", "examples"])
    def test_no_whole_program_findings(self, subtree):
        run = run_lint(real_tree_files(subtree))
        offenders = [f for f in run.findings if f.rule[3] in "346"]
        assert offenders == []
        assert run.errors == []

    def test_fixture_findings_equal_the_tests_baseline(self, monkeypatch):
        # CI gates ``tests examples`` on *new* findings only, so a
        # linter change that stops reporting a deliberate fixture would
        # pass it in silence.  Pin the counts both ways, linting from
        # the repository root as CI spells the paths (fingerprints hash
        # the path).  The baseline only shrinks.
        monkeypatch.chdir(REPO)
        run = run_lint(["tests", "examples"])
        assert run.errors == []
        found = Counter(finding_fingerprint(f) for f in run.findings)
        assert dict(found) == load_baseline(REPO / ".piclint-tests-baseline.json")


class TestSeededRegressions:
    def test_linsolve_partition_sharing_the_model_is_caught(self):
        # Drop the per-block sub-model and hand every block the shared
        # driver model: the exact bug partition() exists to avoid.
        source = mutated(
            REPO / "src/repro/apps/linsolve/program.py",
            "out.append((list(block), sub_model))",
            "out.append((list(block), model))",
        )
        assert "PIC301" in project_rules(source)

    def test_smoothing_merge_writing_into_a_partial_is_caught(self):
        # Accumulate into models[0] instead of a fresh dict (the anchor
        # check keeps the subclass's merge in step with the real one):
        # caught at run time, since the partial models have no setters.
        mutated(
            REPO / "src/repro/apps/smoothing/program.py",
            "                merged[key] = model[key]",
            "                models[0][key] = model[key]",
        )
        w = smoothing_medium(side=16, num_partitions=4)
        program = _SmoothingMergingIntoAPartial(16, 16)
        cluster = w.cluster_factory()
        engine = BestEffortEngine(cluster, program, w.num_partitions, be_max_iterations=1)
        with pytest.raises(TypeError, match="does not support item assignment"):
            engine.run(w.records, w.initial_model)

    def test_kmeans_batch_map_writing_ctx_model_is_caught(self):
        # Task-side centroid update would silently diverge from the
        # driver's model copy.
        source = mutated(
            REPO / "src/repro/apps/kmeans/program.py",
            "        assignment = assign_points(points, centroids)",
            "        ctx.model[0] = centroids[0]\n"
            "        assignment = assign_points(points, centroids)",
        )
        assert "PIC303" in project_rules(source)

    def test_runner_skipping_the_simulated_read_is_caught(self):
        # Deliver the input-read completion synchronously instead of
        # through the simulated read: zero simulated cost, wrong clock.
        source = mutated(REPO / "src/repro/mapreduce/runner.py", _INPUT_READ, "part_done(None)")
        assert "PIC401" in project_rules(source)

    def test_wall_clock_read_size_is_caught(self):
        # A host timestamp passed as the input read's byte count: the
        # read helper hands it on to Cluster.move's simulated bytes.
        source = mutated(
            REPO / "src/repro/mapreduce/runner.py",
            _INPUT_READ,
            "import time\n"
            "                self._read(\n"
            "                    attempt, pending, self.dataset.locations(split_index),\n"
            "                    time.perf_counter(),  # pic: noqa: PIC001\n"
            "                    TrafficCategory.INPUT, part_done,\n"
            "                )",
        )
        assert "PIC602" in project_rules(source)

    def test_runner_handler_draining_sim_queue_is_caught(self):
        # An event handler reaching into the simulator's private queue
        # mid-dispatch corrupts the event loop.
        source = mutated(
            REPO / "src/repro/mapreduce/runner.py",
            '    def _map_compute_phase(self, attempt: dict) -> None:\n'
            '        split_index = attempt["split"]',
            '    def _map_compute_phase(self, attempt: dict) -> None:\n'
            '        self.cluster.sim._queue.clear()\n'
            '        split_index = attempt["split"]',
        )
        assert "PIC402" in project_rules(source)

    def test_wall_clock_iteration_timing_is_caught(self):
        # Timing a run with the host clock but reporting it against
        # the simulated clock mixes the two time bases.
        source = mutated(
            REPO / "src/repro/mapreduce/driver.py",
            "        started = cluster.now",
            "        import time\n"
            "        started = time.perf_counter()  # pic: noqa: PIC001",
        )
        assert "PIC601" in project_rules(source)

    def test_wall_clock_overhead_scheduled_is_caught(self):
        # A host timestamp fed into sim.schedule silently warps the
        # simulated job-launch overhead.
        source = mutated(
            REPO / "src/repro/mapreduce/runner.py",
            "        overhead = self.spec.costs.job_overhead_seconds\n"
            "        self.cluster.sim.schedule(overhead, self._start_maps)",
            "        import time\n"
            "        overhead = time.perf_counter()  # pic: noqa: PIC001\n"
            "        self.cluster.sim.schedule(overhead, self._start_maps)",
        )
        assert "PIC602" in project_rules(source)
