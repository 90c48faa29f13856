"""Whole-stack determinism: identical runs produce identical numbers.

EXPERIMENTS.md promises bit-for-bit reproducibility; these tests pin it
for a representative slice of each application.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.apps.kmeans import KMeansProgram, gaussian_mixture
from repro.apps.pagerank import PageRankProgram, local_web_graph
from repro.cluster.presets import small_cluster
from repro.harness import compare_ic_pic
from repro.pic.runner import PICRunner

REPO = Path(__file__).resolve().parents[2]


def kmeans_setup():
    records, _ = gaussian_mixture(4000, 4, dim=2, separation=8.0, seed=1)
    prog = KMeansProgram(k=4, dim=2, threshold=0.05)
    return records, prog, prog.initial_model(records, seed=2)


class TestDeterminism:
    # Each run-level test takes the schedule as a defaulted argument (so
    # no fixture): barrier as collected, pipelined through its twin below.
    def test_kmeans_full_comparison_reproducible(self, pipeline=False):
        records, prog, model0 = kmeans_setup()

        def run():
            return compare_ic_pic(
                small_cluster, prog, records, model0, num_partitions=6,
                pipeline=pipeline,
            )

        a, b = run(), run()
        assert a.ic_time == b.ic_time
        assert a.pic_time == b.pic_time
        assert a.speedup == b.speedup
        for key in a.ic.model:
            assert np.array_equal(a.ic.model[key], b.ic.model[key])
        assert a.ic_traffic == b.ic_traffic
        assert a.pic.traffic == b.pic.traffic

    def test_pagerank_trace_reproducible(self, pipeline=False):
        records = local_web_graph(1500, seed=5)
        prog = PageRankProgram()
        model0 = prog.initial_model(records)

        def run():
            return PICRunner(
                small_cluster(), prog, num_partitions=6, seed=3, pipeline=pipeline
            ).run(records, initial_model=dict(model0))

        a, b = run(), run()
        assert a.total_time == b.total_time
        assert a.best_effort.local_iterations_by_round == (
            b.best_effort.local_iterations_by_round
        )
        ra = prog.rank_vector(a.model, 1500)
        rb = prog.rank_vector(b.model, 1500)
        assert np.array_equal(ra, rb)

    def test_event_counts_reproducible(self, pipeline=False):
        """Even the simulator's internal event count is stable — no
        hidden iteration-order or hash-seed dependence."""
        records, prog, model0 = kmeans_setup()

        def run():
            cluster = small_cluster()
            PICRunner(
                cluster, prog, num_partitions=6, seed=3, pipeline=pipeline
            ).run(records, initial_model={k: v.copy() for k, v in model0.items()})
            return cluster.sim.events_processed

        assert run() == run()

    def test_pipelined_kmeans_full_comparison_reproducible(self):
        self.test_kmeans_full_comparison_reproducible(pipeline=True)

    def test_pipelined_pagerank_trace_reproducible(self):
        self.test_pagerank_trace_reproducible(pipeline=True)

    def test_pipelined_event_counts_reproducible(self):
        self.test_event_counts_reproducible(pipeline=True)

    def test_hash_order_never_becomes_schedule_order(self):
        """The 16-job concurrent run digests the same under two string
        hash seeds: no set or dict iteration order reaches the
        schedule (the run-time side of PIC003's per-file check)."""

        def digest(hash_seed: str) -> str:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-m", "tests.integration.test_sanitizer"],
                capture_output=True, text=True, cwd=REPO, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        first = digest("1")
        assert len(first) == 16
        assert digest("2") == first
