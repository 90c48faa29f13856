"""One k-means iteration as a MapReduce job with a combiner, for the
failure-path tests: the real ``KMeansProgram`` job (vectorized mapper,
``combine_batch`` — or the per-group reference loop, whose output is an
object column — four reducers), compute-heavy enough that a crippled
node makes a map straggler."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.apps.kmeans.program import KMeansProgram
from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.costs import CostHints
from repro.mapreduce.job import JobResult
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner
from tests.apps.reference_kmeans import reference_combine
from tests.mapreduce.per_group import GroupCombiner

K = 6
COUNTERS = ("map_input_records", "map_output_records", "combine_output_records")


def run_kmeans_job(
    cluster: Cluster, pipeline: bool, vectorized: bool = True, **run_kw
) -> JobResult:
    """Run the job on a fresh DFS over ``cluster``, combining with the
    program's ``combine_batch`` (``vectorized``) or the reference loop;
    ``run_kw`` goes to ``JobRunner.run`` (``failures=``, ``speculative=``)."""
    points = np.random.default_rng(5).normal(size=(400, 2))
    dfs = DistributedFileSystem(cluster)
    dataset = DistributedDataset.materialize(
        dfs, "/points", [(i, point) for i, point in enumerate(points)], 4
    )
    spec = replace(
        KMeansProgram(k=K, dim=2, num_reducers=4).job_spec(),
        costs=CostHints(
            map_seconds_per_record=2e-3,
            job_overhead_seconds=0.0,
            task_overhead_seconds=0.05,
        ),
    )
    if not vectorized:
        spec = replace(spec, combiner=GroupCombiner(reference_combine))
    model = {c: points[c] for c in range(K)}
    runner = JobRunner(cluster, dfs, pipeline=pipeline)
    return runner.run(spec, dataset, model=model, model_bytes=K * 16, **run_kw)


def assert_same_records_and_bytes(result: JobResult, clean: JobResult) -> None:
    """Output (bit for bit), record counters and shuffle volume of a
    faulty run equal the fault-free one's: every map task's buckets are
    counted and shipped once, whatever happened to its other attempts."""
    assert [key for key, _c in result.output] == [key for key, _c in clean.output]
    for (_key, centroid), (_key2, expected) in zip(result.output, clean.output):
        assert np.array_equal(centroid, expected)
    for name in COUNTERS:
        assert result.counters.get(name) == clean.counters.get(name)
    assert result.counters.get("map_output_records") == 400
    # One record per (map task, centroid that got points): combined.
    assert 0 < result.counters.get("combine_output_records") <= 4 * K
    assert result.shuffle_bytes == clean.shuffle_bytes
