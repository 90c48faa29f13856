"""Wall-clock microbenchmark suite with a regression gate.

Times the host-side hot paths of the reproduction:

* ``sizing_homogeneous`` / ``sizing_mixed`` — the shuffle-accounting
  record sizer (batched fast path vs generic recursion);
* ``partition_solve_merge`` — one best-effort round's real computation
  (partition the data, solve every sub-problem in memory, merge);
* ``shuffle_accounting_job`` — a full MapReduce job on the simulated
  cluster, dominated by map output bucketing/sizing/shuffle bookkeeping;
* ``end_to_end_pic`` — a complete two-phase PIC run;
* ``flow_fanout_64`` / ``flow_fanout_256`` — an all-to-all shuffle wave
  on the flow simulator (64/256 nodes, heterogeneous sizes), timing the
  structure-of-arrays rate recomputation and same-horizon completion
  batching at scale (the 256-node wave is slow-tier: full mode only);
* ``multijob_flows_16`` / ``multijob_flows_64`` — K independent jobs
  (churny intra-rack shuffles over standing bulk transfers) on one
  flow simulator, timing component-scoped rebalancing: per-event cost
  must not scale with the K-1 unaffected jobs (64 is slow-tier);
* ``concurrent_pic_16`` — sixteen whole MapReduce jobs submitted
  concurrently through ``submit_many`` against one shared cluster,
  exercising the fair slot interleaving and the per-component
  completion timers end-to-end;
* ``kmeans_500k_columnar`` — one full MapReduce job over 500k 3-d
  points: the data plane (vectorized assignment, batched
  hashing/bucketing/sizing, vectorized combine) at scale;
* ``kmeans_500k_pipelined`` — the same 500k job again, through the
  pipelined scheduler (per-split gates, eager reduce merges, the node
  cache): pins the host-side cost of that bookkeeping vs the barrier;
* ``iterative_cache_hot`` — a three-iteration pipelined driver sharing
  one node-memory cache across repeats, timing the loop-aware warm
  path (cache lookups, skipped input flows, stripped overheads);
* ``shuffle_columnar_vs_row`` — the shuffle hot path in isolation:
  hash-partition + bucket + size one big record batch (the name dates
  from when a row-at-a-time twin ran beside it; kept because the
  baseline and the perf ledger's probes are keyed on it);
* ``solve_parallel_w{N}`` — the same solves through the process pool
  (reported for trajectory; multi-core hosts should see < serial);
* ``solve_parallel_w2_small`` — 64 millisecond-sized solves through
  two workers: the pool's dispatch cost per wave, under the gate.

Usage::

    python -m benchmarks.perf.wallclock --mode smoke --output BENCH_wallclock.json
    python -m benchmarks.perf.wallclock --mode smoke --check BENCH_wallclock.json

Regression checking is *calibration-normalized*: every run also times a
fixed pure-Python loop and compares ``bench / calibration`` ratios, so
a faster or slower host does not masquerade as a code change.  A bench
regresses when its normalized time exceeds the baseline's by more than
``--tolerance`` (default 0.25, i.e. 25%) twice running: a bench flagged
once is re-timed once, after a fresh calibration, and fails only if the
second reading is over the bound too (one best-of-5 reading on a shared
host strays past 25% now and then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from functools import partial
from typing import Any, Callable

import numpy as np

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCH_wallclock.json",
)

SIZES = {
    "smoke": dict(sizing_records=20_000, points=4_000, k=5, partitions=6,
                  job_records=8_000, e2e_points=4_000, fanout_classes=11,
                  bulk_points=500_000, shuffle_records=200_000,
                  multijob_chain=24, multijob_bulk=48, concurrent_records=3_000,
                  repeats=5),
    "full": dict(sizing_records=200_000, points=40_000, k=10, partitions=24,
                 job_records=40_000, e2e_points=20_000, fanout_classes=23,
                 bulk_points=500_000, shuffle_records=1_000_000,
                 multijob_chain=48, multijob_bulk=48, concurrent_records=12_000,
                 repeats=5),
}


def _time_best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-N wall-clock seconds for one bench (min is the standard
    noise-robust statistic for microbenchmarks)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()  # pic: noqa: PIC001 (host time IS the measurand)
        fn()
        best = min(best, time.perf_counter() - start)  # pic: noqa: PIC001
    return best


def _calibration() -> None:
    """Fixed pure-Python workload used to normalize across hosts."""
    acc = 0
    for i in range(2_000_000):
        acc += i % 7
    assert acc > 0


# -- benches -----------------------------------------------------------------


def bench_sizing_homogeneous(cfg) -> Callable[[], None]:
    records = [(i, np.full(3, 0.5)) for i in range(cfg["sizing_records"])]

    def run() -> None:
        from repro.util.sizing import sizeof_records

        sizeof_records(records)

    return run


def bench_sizing_mixed(cfg) -> Callable[[], None]:
    n = cfg["sizing_records"] // 4
    records = []
    for i in range(n):
        records.append((i, (i, float(i))))
        records.append((f"k{i}", {"a": 1, "b": [1.0, 2.0]}))

    def run() -> None:
        from repro.util.sizing import sizeof_records

        sizeof_records(records)

    return run


def _kmeans_fixture(points: int, k: int):
    from repro.apps.kmeans import KMeansProgram, gaussian_mixture

    records, _ = gaussian_mixture(points, k, dim=3, separation=6.0, seed=1)
    program = KMeansProgram(k=k, dim=3, threshold=0.1)
    model0 = program.initial_model(records, seed=2)
    return program, records, model0


def bench_partition_solve_merge(cfg) -> Callable[[], None]:
    program, records, model0 = _kmeans_fixture(cfg["points"], cfg["k"])
    num_partitions = cfg["partitions"]

    def run() -> None:
        pairs = program.partition(records, model0, num_partitions, seed=3)
        solved = [
            program.solve_in_memory(recs, model)[0] for recs, model in pairs
        ]
        program.merge(solved)

    return run


def _make_solve_parallel(workers: int):
    def bench(cfg) -> Callable[[], None]:
        from repro.parallel import get_executor, solve_subproblem

        program, records, model0 = _kmeans_fixture(cfg["points"], cfg["k"])
        pairs = program.partition(records, model0, cfg["partitions"], seed=3)
        executor = get_executor(workers)
        payloads = [(program, recs, model, None) for recs, model in pairs]

        def run() -> None:
            executor.map(solve_subproblem, payloads)

        return run

    return bench


def bench_solve_parallel_w2_small(cfg) -> Callable[[], None]:
    """64 millisecond-sized solves over ``ColumnBatch`` records sharing
    one program, through two workers: the dispatch-bound regime (every
    best-effort round after the first), where ``solve_parallel_w4``'s
    few fat solves hide what a pool map costs per task."""
    from repro.mapreduce.columnar import ColumnBatch
    from repro.parallel import get_executor, solve_subproblem

    program, records, model0 = _kmeans_fixture(cfg["points"], cfg["k"])
    payloads = [
        (program, ColumnBatch.from_rows(recs), model, None)
        for recs, model in program.partition(records, model0, 64, seed=3)
    ]
    executor = get_executor(2)

    def run() -> None:
        executor.map(solve_subproblem, payloads)

    return run


def bench_shuffle_accounting_job(cfg) -> Callable[[], None]:
    from repro.apps.kmeans import gaussian_mixture
    from repro.cluster.cluster import Cluster
    from repro.dfs.dfs import DistributedFileSystem
    from repro.mapreduce.records import DistributedDataset

    records, _ = gaussian_mixture(cfg["job_records"], 4, dim=3,
                                  separation=6.0, seed=1)
    # Materialized once, outside the timed region, like the bulk k-means
    # bench: drivers load input a single time and run jobs over it.
    cluster = Cluster(num_nodes=4, nodes_per_rack=4)
    dfs = DistributedFileSystem(cluster, replication=2, seed=5)
    dataset = DistributedDataset.materialize(
        dfs, "/perf/input", records, num_splits=8
    )
    waves = iter(range(1_000_000))

    def run() -> None:
        from repro.mapreduce.job import JobSpec
        from repro.mapreduce.runner import JobRunner
        from repro.parallel import SerialExecutor

        spec = JobSpec(
            # unique name per repeat: job output paths must not collide
            name=f"perf-shuffle-{next(waves)}",
            mapper=_perf_mapper,
            reducer=_perf_reducer,
            num_reducers=4,
        )
        runner = JobRunner(cluster, dfs, executor=SerialExecutor())
        runner.run(spec, dataset)

    return run


def _perf_mapper(ctx, records) -> None:
    for key, value in records:
        ctx.emit(key % 16, value)


def _perf_reducer(ctx, grouped) -> None:
    for key, values in grouped:
        ctx.emit(key, np.sum(np.stack(values), axis=0))


def bench_end_to_end_pic(cfg) -> Callable[[], None]:
    program, records, model0 = _kmeans_fixture(cfg["e2e_points"], cfg["k"])

    def run() -> None:
        import copy

        from repro.cluster.cluster import Cluster
        from repro.pic.runner import PICRunner

        cluster = Cluster(num_nodes=6, nodes_per_rack=6)
        PICRunner(
            cluster, program, num_partitions=cfg["partitions"], seed=3,
            be_max_iterations=10, max_iterations=50, workers=1,
        ).run(records, initial_model=copy.deepcopy(model0))

    return run


def _make_flow_fanout(num_nodes: int):
    """All-to-all shuffle wave on the flow simulator.

    Every node sends one flow to every other node; byte counts cycle
    through ``fanout_classes`` distinct sizes (a prime count keeps the
    completion horizons heterogeneous — avoid 7 and 13, which divide
    the hash multipliers and collapse the class pattern).  This is the
    workload the structure-of-arrays rewrite targets: tens of thousands
    of concurrent flows contending for oversubscribed rack uplinks.
    """

    def bench(cfg) -> Callable[[], None]:
        classes = cfg["fanout_classes"]

        def run() -> None:
            from repro.cluster.cluster import Cluster

            cluster = Cluster(
                num_nodes=num_nodes, nodes_per_rack=16, oversubscription=4.0
            )
            requests = [
                (
                    src,
                    dst,
                    2e7 * (1 + ((7 * src + 13 * dst) % classes) / classes),
                    "shuffle",
                )
                for src in range(num_nodes)
                for dst in range(num_nodes)
                if src != dst
            ]
            cluster.transfer_batch(requests)
            cluster.run()

        return run

    return bench


def _make_multijob_flows(num_jobs: int):
    """K independent jobs, each a churny shuffle plus a bulk transfer.

    Each "job" owns one 8-node rack.  Nodes 0–3 run the *churn* phase:
    12 intra-rack flows kept alive for ``multijob_chain`` ping-pong hops
    each — every completion starts the reverse transfer, so the event
    stream interleaves thousands of arrivals/departures across jobs.
    Nodes 4–7 carry ``multijob_bulk`` long bulk flows (sized to outlast
    the churn) on disjoint links, the standing load a busy shared
    cluster always has.  This is the workload component-scoped
    rebalancing targets: an event in one job's churn component must not
    pay for — or perturb the timers of — the other K-1 jobs or any of
    the bulk components, while a global recompute pays for every active
    flow on every event.  Sizes are skewed per (job, endpoint, hop) so
    completion horizons never align.
    """

    def bench(cfg) -> Callable[[], None]:
        chain = cfg["multijob_chain"]
        bulk = cfg["multijob_bulk"]

        def run() -> None:
            from repro.cluster.cluster import Cluster

            cluster = Cluster(
                num_nodes=num_jobs * 8, nodes_per_rack=8, oversubscription=4.0
            )

            def launch(job: int, src: int, dst: int, hops_left: int) -> None:
                size = (
                    1e7
                    * (1 + ((3 * src + 5 * dst + hops_left) % 7) / 7)
                    * (1 + job / (2 * num_jobs))
                )

                def done(_flow) -> None:
                    if hops_left > 0:
                        launch(job, dst, src, hops_left - 1)

                cluster.transfer(src, dst, size, "shuffle", done)

            for job in range(num_jobs):
                base = job * 8
                for a in range(4):
                    for b in range(4):
                        if a != b:
                            launch(job, base + a, base + b, chain)
                # Uniform size within a job: the whole bulk component
                # drains in one batched completion event (skewed per
                # job so jobs never drain at the same instant).
                bulk_size = 4e9 * (1 + job / (2 * num_jobs))
                for i in range(bulk):
                    pair = i % 12
                    src = base + 4 + pair // 3
                    dst = base + 4 + (pair // 3 + 1 + pair % 3) % 4
                    cluster.transfer(src, dst, bulk_size, "bulk")
            cluster.run()

        return run

    return bench


def _make_concurrent_jobs(num_jobs: int):
    """K whole MapReduce jobs submitted concurrently to one cluster.

    Each job is a single k-means iteration over its own dataset,
    launched through ``JobRunner.submit_many``: all K jobs contend for
    the same map slots, the same simulation clock, and — the point —
    the same ``FlowNetwork``.  Every job's shuffle lives in its own
    flow–link component most of the time, so component-scoped
    rebalancing keeps per-event cost independent of K while the
    least-granted slot interleaving keeps the jobs genuinely
    concurrent rather than serialized.
    """

    def bench(cfg) -> Callable[[], None]:
        from repro.cluster.cluster import Cluster
        from repro.dfs.dfs import DistributedFileSystem
        from repro.mapreduce.records import DistributedDataset
        from repro.mapreduce.runner import JobRunner
        from repro.parallel import SerialExecutor

        program, records, model0 = _kmeans_fixture(
            cfg["concurrent_records"], cfg["k"]
        )
        cluster = Cluster(num_nodes=32, nodes_per_rack=8, oversubscription=4.0)
        dfs = DistributedFileSystem(cluster, replication=2, seed=5)
        datasets = [
            DistributedDataset.materialize(
                dfs, f"/perf/concurrent-{j}", records, num_splits=4
            )
            for j in range(num_jobs)
        ]
        model_bytes = program.model_bytes(model0)
        waves = iter(range(1_000_000))

        def run() -> None:
            runner = JobRunner(cluster, dfs, executor=SerialExecutor())
            wave = next(waves)
            runner.run_many([
                (
                    # unique name per repeat: output paths must not collide
                    program.job_spec(suffix=f"-{wave}-{j}"),
                    datasets[j],
                    {
                        "model": model0,
                        "model_bytes": model_bytes,
                        "model_locations": (j % cluster.num_nodes,),
                    },
                )
                for j in range(num_jobs)
            ])

        return run

    return bench


def _make_kmeans_bulk(pipeline: bool):
    """One full MapReduce job over ``bulk_points`` k-means records.

    The bench times the host-side data plane — vectorized assignment,
    batched hashing/bucketing/sizing, vectorized combine.  The
    ``pipeline`` variant runs the same job through the pipelined
    scheduler (per-split gates, eager reduce merges, the node-memory
    cache), pinning the host-side cost of that bookkeeping against the
    barrier bench.
    """

    def bench(cfg) -> Callable[[], None]:
        from repro.cluster.cluster import Cluster
        from repro.dfs.dfs import DistributedFileSystem
        from repro.mapreduce.records import DistributedDataset
        from repro.mapreduce.runner import JobRunner
        from repro.parallel import SerialExecutor

        program, records, model0 = _kmeans_fixture(cfg["bulk_points"], cfg["k"])
        # The dataset is materialized once, outside the timed region:
        # iterative drivers load input a single time and then run a job
        # per iteration over it, which is the path being measured.
        cluster = Cluster(num_nodes=4, nodes_per_rack=4)
        dfs = DistributedFileSystem(cluster, replication=2, seed=5)
        dataset = DistributedDataset.materialize(
            dfs, "/perf/kmeans-bulk", records, num_splits=8
        )
        waves = iter(range(1_000_000))

        def run() -> None:
            runner = JobRunner(
                cluster, dfs, executor=SerialExecutor(), pipeline=pipeline
            )
            runner.run(
                # unique name per repeat: job output paths must not collide
                spec=program.job_spec(suffix=f"-{next(waves)}"),
                dataset=dataset,
                model=model0,
                model_bytes=program.model_bytes(model0),
            )

        return run

    return bench


def bench_iterative_cache_hot(cfg) -> Callable[[], None]:
    """A multi-iteration pipelined driver whose input stays resident.

    One ``JobRunner`` (and therefore one node-memory cache) is shared
    across repeats, so after the warm-up pass *every* iteration runs
    out of node memory: the bench times the loop-aware warm path —
    cache lookups, skipped input flows, stripped launch overheads —
    rather than the first cold scan.
    """
    import copy

    from repro.cluster.cluster import Cluster
    from repro.dfs.dfs import DistributedFileSystem
    from repro.mapreduce.driver import IterativeDriver
    from repro.mapreduce.records import DistributedDataset
    from repro.mapreduce.runner import JobRunner
    from repro.parallel import SerialExecutor

    from repro.apps.kmeans import KMeansProgram, gaussian_mixture

    records, _ = gaussian_mixture(cfg["points"], cfg["k"], dim=3,
                                  separation=6.0, seed=1)
    # A threshold the centroids never reach keeps every repeat at
    # exactly max_iterations, so the timed work is constant.
    program = KMeansProgram(k=cfg["k"], dim=3, threshold=1e-12)
    model0 = program.initial_model(records, seed=2)
    cluster = Cluster(num_nodes=4, nodes_per_rack=4)
    dfs = DistributedFileSystem(cluster, replication=2, seed=5)
    dataset = DistributedDataset.materialize(
        dfs, "/perf/kmeans-hot", records, num_splits=8
    )
    runner = JobRunner(
        cluster, dfs, executor=SerialExecutor(), pipeline=True
    )

    def run() -> None:
        driver = IterativeDriver(
            runner=runner,
            dataset=dataset,
            jobs=program.jobs,
            build_model=program.build_model,
            converged=program.converged,
            model_sizer=program.model_bytes,
            max_iterations=3,
            optimized_baseline=False,
            model_mode=program.model_mode,
        )
        driver.run(copy.deepcopy(model0))

    return run


def bench_shuffle(cfg) -> Callable[[], None]:
    """The map side of the shuffle in isolation: partition ids, counts
    and the wire size of every bucket, as a map task sizes its output.

    Records mirror k-means map output (int key, (vector, count) value).
    """
    from repro.mapreduce.columnar import ColumnBatch

    n = cfg["shuffle_records"]
    rng = np.random.default_rng(9)
    vectors = rng.standard_normal((n, 3))
    batch = ColumnBatch.from_rows([(i % 1024, (vectors[i], 1)) for i in range(n)])
    num_buckets = 8

    def run() -> None:
        pids = batch.partition_ids(num_buckets).astype(np.uint8)
        counts = np.bincount(pids, minlength=num_buckets)
        total = sum(batch.bucket_nbytes(pids, counts))
        assert total > 0

    return run


BENCHES: dict[str, Callable[[dict], Callable[[], None]]] = {
    "sizing_homogeneous": bench_sizing_homogeneous,
    "sizing_mixed": bench_sizing_mixed,
    "partition_solve_merge": bench_partition_solve_merge,
    "shuffle_accounting_job": bench_shuffle_accounting_job,
    "end_to_end_pic": bench_end_to_end_pic,
    "flow_fanout_64": _make_flow_fanout(64),
    "flow_fanout_256": _make_flow_fanout(256),
    "multijob_flows_16": _make_multijob_flows(16),
    "multijob_flows_64": _make_multijob_flows(64),
    "concurrent_pic_16": _make_concurrent_jobs(16),
    "kmeans_500k_columnar": _make_kmeans_bulk(pipeline=False),
    "kmeans_500k_pipelined": _make_kmeans_bulk(pipeline=True),
    "iterative_cache_hot": bench_iterative_cache_hot,
    "shuffle_columnar_vs_row": bench_shuffle,
}

# Pool benches are trajectory-only: their wall-clock depends on host
# core count, so the regression gate skips them (see check_against).
TRAJECTORY_ONLY = {"solve_parallel_w4"}
BENCHES["solve_parallel_w4"] = _make_solve_parallel(4)
# Gated, unlike the bench above: two workers fit every host that runs
# the gate, and the pool's per-wave dispatch cost is what it measures.
BENCHES["solve_parallel_w2_small"] = bench_solve_parallel_w2_small

# Slow tier: heavyweight benches that only run in ``--mode full``.
# Smoke mode — the CI regression gate — skips them, so they never
# appear in a smoke baseline and the gate ignores them.
SLOW_TIER = {"flow_fanout_256", "multijob_flows_64"}


def run_suite(mode: str) -> dict[str, Any]:
    """Run every bench in ``mode`` and return the result document."""
    cfg = SIZES[mode]
    repeats = cfg["repeats"]
    calibration = _time_best_of(_calibration, repeats)
    benches: dict[str, float] = {}
    for name, factory in BENCHES.items():
        if mode == "smoke" and name in SLOW_TIER:
            print(f"  {name:30s}   skipped (slow tier)", file=sys.stderr)
            continue
        fn = factory(cfg)
        fn()  # warm-up: imports, allocator, caches
        benches[name] = _time_best_of(fn, repeats)
        print(f"  {name:30s} {benches[name] * 1e3:10.2f} ms", file=sys.stderr)
    return {
        "meta": {
            "mode": mode,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "calibration_seconds": calibration,
        },
        "benches": benches,
    }


def retime(mode: str, name: str) -> tuple[float, float]:
    """A second reading of bench ``name``: ``(bench seconds, calibration
    seconds)``, each timed afresh as :func:`run_suite` times them."""
    cfg = SIZES[mode]
    calibration = _time_best_of(_calibration, cfg["repeats"])
    fn = BENCHES[name](cfg)
    fn()  # warm-up, as in run_suite
    print(f"  {name:30s} re-timed (flagged once)", file=sys.stderr)
    return _time_best_of(fn, cfg["repeats"]), calibration


def check_against(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float,
    retime: Callable[[str], tuple[float, float]] | None = None,
) -> list[str]:
    """Return regression messages (empty when the gate passes).  A bench
    over the bound is read again through ``retime`` (when given) and
    fails only if that reading is over the bound as well."""
    failures: list[str] = []
    if current["meta"]["mode"] != baseline["meta"].get("mode"):
        return [
            f"mode mismatch: current {current['meta']['mode']!r} vs "
            f"baseline {baseline['meta'].get('mode')!r}; regenerate the baseline"
        ]
    cal_now = current["meta"]["calibration_seconds"]
    cal_base = baseline["meta"]["calibration_seconds"]
    for name, base_seconds in baseline["benches"].items():
        if name in TRAJECTORY_ONLY or name not in current["benches"]:
            continue
        base_norm = base_seconds / cal_base
        bound = base_norm * (1.0 + tolerance)
        readings = [current["benches"][name] / cal_now]
        if readings[0] > bound and retime is not None:
            seconds, calibration = retime(name)
            readings.append(seconds / calibration)
        if min(readings) > bound:
            shown = " and ".join(f"{r:.2f}x" for r in readings)
            failures.append(
                f"{name}: {shown} calibration vs baseline "
                f"{base_norm:.2f}x (> {tolerance:.0%} regression)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="PIC reproduction wall-clock microbenchmarks"
    )
    parser.add_argument("--mode", choices=sorted(SIZES), default="smoke")
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write current timings as JSON (the BENCH_wallclock.json format)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare against a baseline JSON; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional slowdown per bench (default 0.25)",
    )
    args = parser.parse_args(argv)

    print(f"running perf suite (mode={args.mode})...", file=sys.stderr)
    current = run_suite(args.mode)

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)

    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check_against(
            current, baseline, args.tolerance, partial(retime, args.mode)
        )
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            f"perf gate passed ({len(baseline['benches'])} benches, "
            f"tolerance {args.tolerance:.0%})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
