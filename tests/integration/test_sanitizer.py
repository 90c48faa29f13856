"""Schedule-sanitizer equivalence: ``PIC_SANITIZE`` must not change results.

The sanitizer (``PIC_SANITIZE=<seed>``) permutes the dispatch order of
same-timestamp events scheduled from *different* handlers while
preserving program order within a handler, submission order at the
root, and batch-internal order.  A correct layer above the simulator
serializes or keys every cross-handler interaction, so its simulated
seconds, traffic bytes and models are bit-identical under every seed.

Two halves:

* Equivalence — the five reference apps and a 16-job concurrent
  ``run_many``, each in both pipeline modes, produce identical
  summaries across the unsanitized run and three seeds.
* Sensitivity — toy simulations with the two interference shapes (a
  handler writing a sibling job's state; two co-schedulable handlers
  last-write-winning an unkeyed field) *do* diverge across seeds, while
  their keyed/serialized fixes stay stable.  This is what makes the
  sanitizer a guard rather than a smoke test: it is the one check of
  this bug class, and it fails on the shapes it exists to catch.

The seed is read once, when a ``Simulation`` is constructed, so the
env var is toggled around each cluster build — no subprocesses needed.
"""

from __future__ import annotations

import copy
import os
from contextlib import contextmanager

import pytest

from repro.cluster.events import Simulation

SEEDS = (None, 1, 2, 3)


@contextmanager
def sanitize(seed):
    """Set ``PIC_SANITIZE`` for the duration of one run."""
    old = os.environ.pop("PIC_SANITIZE", None)
    if seed is not None:
        os.environ["PIC_SANITIZE"] = str(seed)
    try:
        yield
    finally:
        os.environ.pop("PIC_SANITIZE", None)
        if old is not None:
            os.environ["PIC_SANITIZE"] = old


def _diff(base: dict, other: dict) -> list[str]:
    return [k for k in base if other.get(k) != base[k]]


class TestFiveAppEquivalence:
    @pytest.mark.parametrize(
        "app", ["kmeans", "pagerank", "linsolve", "neuralnet", "smoothing"]
    )
    @pytest.mark.parametrize("pipeline", [False, True], ids=["barrier", "pipelined"])
    def test_app_is_bit_identical_across_seeds(self, app, pipeline):
        from tests.integration.pipeline_refs import run_app, summarize

        summaries = {}
        for seed in SEEDS:
            with sanitize(seed):
                result, meter = run_app(app, pipeline)
            summaries[seed] = summarize(result, meter)
        base = summaries[None]
        for seed in SEEDS[1:]:
            assert _diff(base, summaries[seed]) == [], (
                f"{app} diverged under PIC_SANITIZE={seed}"
            )


class TestConcurrentRunManyEquivalence:
    NUM_JOBS = 16

    def _run(self, pipeline: bool = False) -> dict:
        from repro.apps.kmeans import KMeansProgram, gaussian_mixture
        from repro.cluster.cluster import Cluster
        from repro.dfs.dfs import DistributedFileSystem
        from repro.mapreduce.records import DistributedDataset
        from repro.mapreduce.runner import JobRunner
        from repro.parallel import SerialExecutor

        records, _ = gaussian_mixture(3_000, 4, dim=3, separation=6.0, seed=1)
        program = KMeansProgram(k=4, dim=3, threshold=0.1)
        model0 = program.initial_model(records, seed=2)
        cluster = Cluster(num_nodes=32, nodes_per_rack=8, oversubscription=4.0)
        dfs = DistributedFileSystem(cluster, replication=2, seed=5)
        runner = JobRunner(cluster, dfs, executor=SerialExecutor(), pipeline=pipeline)
        results = runner.run_many([
            (
                program.job_spec(suffix=f"-0-{j}"),
                DistributedDataset.materialize(
                    dfs, f"/perf/concurrent-{j}", records, num_splits=4
                ),
                {
                    "model": copy.deepcopy(model0),
                    "model_bytes": program.model_bytes(model0),
                    "model_locations": (j % cluster.num_nodes,),
                },
            )
            for j in range(self.NUM_JOBS)
        ])
        return {
            "clock": cluster.now,
            "jobs": [
                {
                    "finished_at": r.finished_at,
                    "counters": dict(sorted(r.counters.as_dict().items())),
                    "output_locations": list(r.output_locations),
                }
                for r in results
            ],
        }

    def test_sixteen_concurrent_jobs_are_bit_identical_across_seeds(
        self, pipeline=False
    ):
        summaries = {}
        for seed in SEEDS:
            with sanitize(seed):
                summaries[seed] = self._run(pipeline)
        base = summaries[None]
        for seed in SEEDS[1:]:
            assert summaries[seed] == base, (
                f"run_many diverged under PIC_SANITIZE={seed}"
            )

    def test_sixteen_concurrent_pipelined_jobs_are_bit_identical_across_seeds(self):
        self.test_sixteen_concurrent_jobs_are_bit_identical_across_seeds(pipeline=True)


# -- sensitivity: the sanitizer catches the interference shapes ----------

# Enough seeds that a permutation-sensitive bug flips at least once.
PROBE_SEEDS = range(1, 11)


def _two_handler_race(seed, fix: str):
    """Two handlers fired from different parents at the same instant.

    ``fix=None`` is the tie-order race: both last-write-win one
    unkeyed field.  ``fix='keyed'`` writes per-handler keys;
    ``fix='serialized'`` funnels both through one serialization point
    that applies a canonical (min) arbitration.
    """
    sim = Simulation(tie_seed=seed)
    shared: dict = {"last": None, "pending": [], "resolve_armed": False}

    def make_handler(tag: str):
        def fire() -> None:
            if fix is None:
                shared["last"] = tag
            elif fix == "keyed":
                shared[tag] = tag
            else:
                shared["pending"].append(tag)
                if not shared["resolve_armed"]:
                    shared["resolve_armed"] = True
                    sim.schedule_serialized(resolve)
        return fire

    def resolve() -> None:
        shared["resolve_armed"] = False
        shared["last"] = min(shared["pending"])
        shared["pending"].clear()

    # Each root event is a distinct parent; the two t=2.0 followers
    # carry independent tie keys and may dispatch either way.
    sim.schedule(1.0, lambda: sim.schedule(1.0, make_handler("a")))
    sim.schedule(1.0, lambda: sim.schedule(1.0, make_handler("b")))
    sim.run()
    shared.pop("pending")
    shared.pop("resolve_armed")
    return shared


def _cross_job_write(seed, keyed: bool):
    """The cross-job write: each job's completion handler stamps
    its own state *and* its sibling's, so a job's surviving stamp is
    whichever handler ran last at the shared instant.  The keyed fix
    gives each writer its own slot, making the writes commutative."""
    sim = Simulation(tie_seed=seed)
    jobs: list[dict] = [{"stamp": None, "stamps": {}} for _ in range(2)]

    def make_finish(j: int):
        def finish() -> None:
            sibling = jobs[1 - j]
            if keyed:
                jobs[j]["stamps"]["self"] = j
                sibling["stamps"]["peer"] = j
            else:
                jobs[j]["stamp"] = "self"
                sibling["stamp"] = f"peer{j}"
        return finish

    for j in range(2):
        sim.schedule(1.0, lambda j=j: sim.schedule(1.0, make_finish(j)))
    sim.run()
    return [(job["stamp"], tuple(sorted(job["stamps"].items()))) for job in jobs]


class TestSanitizerCatchesInterference:
    def test_unkeyed_shared_store_is_seed_dependent(self):
        # The tie-order race: some seed must order the pair each way.
        outcomes = {_two_handler_race(s, fix=None)["last"] for s in PROBE_SEEDS}
        assert outcomes == {"a", "b"}

    def test_unsanitized_run_hides_the_race(self):
        # Without a seed the tie falls back to submission order every
        # time — exactly why the bug class survives normal test runs.
        outcomes = {_two_handler_race(None, fix=None)["last"] for _ in range(5)}
        assert len(outcomes) == 1

    def test_keyed_writes_are_seed_independent(self):
        results = {
            tuple(sorted(_two_handler_race(s, fix="keyed").items()))
            for s in PROBE_SEEDS
        }
        assert len(results) == 1

    def test_serialized_arbitration_is_seed_independent(self):
        results = {
            _two_handler_race(s, fix="serialized")["last"] for s in PROBE_SEEDS
        }
        assert results == {"a"}

    def test_cross_job_write_is_seed_dependent(self):
        # The cross-job write: which sibling's field survives varies.
        outcomes = {
            tuple(r[0] for r in _cross_job_write(s, keyed=False))
            for s in PROBE_SEEDS
        }
        assert len(outcomes) > 1

    def test_cross_job_keyed_write_is_seed_independent(self):
        outcomes = {
            tuple(repr(r) for r in _cross_job_write(s, keyed=True))
            for s in PROBE_SEEDS
        }
        assert len(outcomes) == 1


if __name__ == "__main__":
    # CI spot-check hook: print a digest of the 16-job concurrent run
    # under the *ambient* PIC_SANITIZE, so a shell step can assert the
    # digest is identical across seeds without a pytest session.
    import hashlib
    import json

    summary = TestConcurrentRunManyEquivalence()._run()
    blob = json.dumps(summary, sort_keys=True, default=repr)
    print(hashlib.sha256(blob.encode()).hexdigest()[:16])
