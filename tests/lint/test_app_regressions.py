"""Regression guards for the real applications.

The shipped apps and the mapreduce runner are clean under the
whole-program rules (the committed baseline is empty).  These tests pin
that, and then prove the rules would catch the most likely regressions
by re-linting each real source file with a one-line seeded bug.
"""

import tarfile
from pathlib import Path

import pytest

from repro.lint import lint_source
from repro.lint.engine import run_lint
from tests.lint.real_tree import REPO, real_tree_files

CORPUS = REPO / "benchmarks/perf/ledger/corpus/src-repro-8464be0.tar.gz"


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
        {f.rule for f in lint_source(source, path="app.py") if f.rule[3] in "34567"}
    )


# The runner's input-split read: one call into its read helper.
_INPUT_READ = (
    "self._read(\n"
    "                    attempt, pending, self.dataset.locations(split_index),\n"
    "                    split.nbytes, TrafficCategory.INPUT, part_done,\n"
    "                )"
)

# The worker-side rebuild of the frozen shared-memory hand-off.
_GUARDED_COPY = (
    "    shm = _attach(name)\n"
    "    try:\n"
    "        buffers = [\n"
    "            bytearray(shm.buf[offset : offset + size])\n"
    "            for offset, size in segments\n"
    "        ]\n"
    "    finally:\n"
    "        shm.close()"
)
_RELEASE_ONCE = "        _release_block(shm)\n        raise"
_RELEASE_TWICE = "        _release_block(shm)\n" + _RELEASE_ONCE


@pytest.fixture(scope="module")
def frozen_shm() -> str:
    """``repro/parallel/shm.py`` as the ledger's corpus froze it.

    The live tree no longer holds a ``SharedMemory`` block anywhere (the
    pool's one transport is pickle), so the lifecycle rules keep their
    real-code regression on the last copy that did.  The corpus seeds a
    doubled release into it; that is undone here, and each test below
    seeds one defect into the clean text.
    """
    with tarfile.open(CORPUS) as tar:
        member = tar.extractfile("repro/parallel/shm.py")
        assert member is not None
        source = member.read().decode("utf-8")
    source = seeded(source, _RELEASE_TWICE, _RELEASE_ONCE)
    assert not {"PIC501", "PIC502", "PIC503"} & set(project_rules(source))
    return source


class TestRealTreeIsClean:
    @pytest.mark.parametrize("subtree", ["src", "benchmarks", "examples"])
    def test_no_whole_program_findings(self, subtree):
        run = run_lint(real_tree_files(subtree))
        offenders = [f for f in run.findings if f.rule[3] in "34567"]
        assert offenders == []
        assert run.errors == []


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
        # Accumulate into models[0] instead of a fresh dict.
        source = mutated(
            REPO / "src/repro/apps/smoothing/program.py",
            "                merged[key] = model[key]",
            "                models[0][key] = model[key]",
        )
        assert "PIC302" in project_rules(source)

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

    def test_shm_rebuild_without_close_guard_is_caught(self, frozen_shm):
        # Dropping the try/finally around the worker-side copy leaks
        # the mapping whenever a segment copy raises.
        source = seeded(
            frozen_shm,
            _GUARDED_COPY,
            "    shm = _attach(name)\n"
            "    buffers = [\n"
            "        bytearray(shm.buf[offset : offset + size])\n"
            "        for offset, size in segments\n"
            "    ]\n"
            "    shm.close()",
        )
        assert "PIC501" in project_rules(source)

    def test_double_cleanup_on_error_path_is_caught(self, frozen_shm):
        # Releasing the block twice in export_batch's error path: the
        # second close/unlink pair is certainly redundant.
        source = seeded(frozen_shm, _RELEASE_ONCE, _RELEASE_TWICE)
        assert "PIC502" in project_rules(source)

    def test_reading_the_mapping_after_close_is_caught(self, frozen_shm):
        # Closing before the copy reads freed shared memory.
        source = seeded(
            frozen_shm,
            _GUARDED_COPY,
            "    shm = _attach(name)\n"
            "    shm.close()\n"
            "    buffers = [\n"
            "        bytearray(shm.buf[offset : offset + size])\n"
            "        for offset, size in segments\n"
            "    ]",
        )
        assert "PIC503" in project_rules(source)

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

    def test_runner_handler_writing_a_sibling_job_is_caught(self):
        # A completion handler mirroring its progress into a *peer*
        # job's state: whichever job's handler runs last at the shared
        # timestamp wins, so the peer's view depends on tie order.
        source = mutated(
            REPO / "src/repro/mapreduce/runner.py",
            "    def _kill_attempt(self, attempt: dict) -> None:",
            '    def _mirror_peer(self, peer: "_JobState") -> None:\n'
            "        peer._maps_done = self._maps_done\n"
            "\n"
            "    def _kill_attempt(self, attempt: dict) -> None:",
        )
        source = source.replace(
            "        self._maps_done += 1",
            "        self._maps_done += 1\n"
            "        self._mirror_peer(self)",
            1,
        )
        assert "PIC701" in project_rules(source)

    def test_runner_unkeyed_cluster_scratch_field_is_caught(self):
        # Two independently scheduled handler paths (the serialized
        # reduce resolve and the reduce-finish chain) last-write-win a
        # shared scalar on the cluster: classic tie-order interference.
        source = mutated(
            REPO / "src/repro/mapreduce/runner.py",
            "    def _resolve_reduce_point(self) -> None:\n"
            "        self._reduce_resolve_pending = False",
            "    def _resolve_reduce_point(self) -> None:\n"
            "        self.cluster.last_actor = self._reduce_resolve_pending\n"
            "        self._reduce_resolve_pending = False",
        )
        source = source.replace(
            "        self._reduce_capacity[node_id] += 1",
            "        self.cluster.last_actor = node_id\n"
            "        self._reduce_capacity[node_id] += 1",
            1,
        )
        assert "PIC702" in project_rules(source)

    def test_runner_poking_scheduler_free_list_is_caught(self):
        # Handing a map slot back by emptying the scheduler's table of
        # held containers skips the allocator's release and its
        # serialization point — the slot is never free again and queued
        # requests on that node never get served.
        source = mutated(
            REPO / "src/repro/mapreduce/runner.py",
            "                self.runner.map_scheduler.release(node_id, "
            "app_id=self.job_index)",
            "                self.runner.map_scheduler._held[node_id, "
            "self.job_index] = []",
        )
        assert "PIC703" in project_rules(source)

    def test_runner_shuffling_transfers_from_a_set_is_caught(self):
        # Collecting the map wave's shuffle requests in a set hands
        # transfer_batch an interpreter-hash-ordered iterable.
        source = mutated(
            REPO / "src/repro/mapreduce/runner.py",
            "        requests = []",
            "        requests = set()",
        )
        source = source.replace("requests.append((", "requests.add((", 1)
        assert "PIC704" in project_rules(source)
