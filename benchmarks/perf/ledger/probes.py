"""Layer probes: direct timed calls into one layer's public functions on
the workload's own inputs, median of five.

A probe says what a layer costs when called alone, which the sampler's
self time (a share of a whole run) cannot.  Two probes are the
wall-clock suite's bench factories, imported rather than copied.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable

from benchmarks.perf import wallclock
from benchmarks.perf.ledger.clock import SpeedClock
from benchmarks.perf.ledger.workloads import LintInputs, MultiJobInputs, MultiJobWorkload
from repro.dfs.dfs import DistributedFileSystem
from repro.lint.engine import run_lint
from repro.lint.rules import all_rules
from repro.mapreduce.columnar import ColumnBatch
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.scheduler import SlotScheduler
from repro.parallel import SerialExecutor, get_executor, solve_subproblem
from repro.parallel.shm import release_batches, swap_out_batches
from repro.util.sizing import sizeof_records
from repro.yarn.rm import ResourceManager
from repro.yarn.runner import MAP_PROFILE

PROBE_REPEATS = 5


def median_seconds(fn: Callable[[], Any], clock: SpeedClock) -> float:
    """Median of :data:`PROBE_REPEATS` timed calls of ``fn``."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = clock.now()
        fn()
        samples.append(clock.now() - start)
    return statistics.median(samples)


def run_probes(workload: Any, inputs: Any, clock: SpeedClock) -> dict[str, float]:
    """Seconds (at reference speed) per call, for each probe
    ``workload`` names."""
    if isinstance(inputs, LintInputs):
        available = _lint_probes(inputs)
    elif isinstance(inputs, MultiJobInputs):
        available = _multijob_probes(inputs)
    else:
        available = _app_probes(inputs)
    return {name: median_seconds(available[name], clock) for name in workload.probe_names}


# -- apps through the PIC API --------------------------------------------------


def _app_probes(w: Any) -> dict[str, Callable[[], Any]]:
    program, records, model = w.program, w.records, w.initial_model
    # Sub-problems reach the solver as column batches (the engine hands
    # it dataset splits), so that is what the solve probes are given.
    batch = ColumnBatch.from_rows(records)
    payloads = [
        (program, ColumnBatch.from_rows(recs), sub_model, None)
        for recs, sub_model in program.partition(records, model, w.num_partitions, seed=3)
    ]
    solved = [solve_subproblem(payload)[0] for payload in payloads]
    cluster = w.cluster_factory()
    map_slots = cluster.topology.total_map_slots()
    paths = iter(range(1_000_000))

    def materialize() -> DistributedDataset:
        dfs = DistributedFileSystem(cluster, replication=min(3, cluster.num_nodes), seed=11)
        return DistributedDataset.materialize(
            dfs, f"/probe/{next(paths)}", records, num_splits=max(1, map_slots)
        )

    def shm_export() -> None:
        _, exported = swap_out_batches(payloads)
        release_batches(exported)

    dataset = materialize()
    return {
        "util.sizing.records_s": lambda: sizeof_records(records),
        "mapreduce.columnar.from_rows_s": lambda: ColumnBatch.from_rows(records),
        "mapreduce.columnar.partition_s": wallclock.BENCHES["shuffle_columnar_vs_row"](
            {"shuffle_records": len(records)}
        ),
        "mapreduce.records.materialize_s": materialize,
        "pic.partitioners.partition_s": lambda: program.partition(
            records, model, w.num_partitions, seed=3
        ),
        "apps.solve_round_s": lambda: SerialExecutor().map(solve_subproblem, payloads),
        "apps.serial_iteration_s": lambda: program.run_iteration_in_memory(batch, model, 0),
        "pic.mergers.merge_s": lambda: program.merge(solved),
        "cluster.flows.shuffle_wave_s": wallclock.BENCHES["flow_fanout_64"](
            {"fanout_classes": 11}
        ),
        "mapreduce.scheduler.grant_cycle_s": lambda: _slot_grant_cycle(cluster, [dataset]),
        "parallel.map_w2_s": lambda: get_executor(2).map(solve_subproblem, payloads),
        "parallel.shm_export_s": shm_export,
    }


# -- schedulers ---------------------------------------------------------------


def _slot_grant_cycle(cluster: Any, datasets: list[Any]) -> None:
    """Request a map slot per split, preferring its replicas, then
    release them one by one so queued requests are matched too."""
    scheduler = SlotScheduler(cluster, "map")
    held: list[tuple[int, int]] = []
    wanted = 0
    for app_id, dataset in enumerate(datasets):
        for index in range(len(dataset.splits)):
            scheduler.request(
                lambda node, app_id=app_id: held.append((node, app_id)),
                preferred=dataset.locations(index), app_id=app_id,
            )
            wanted += 1
    cluster.run()
    for _ in range(wanted):
        node, app_id = held.pop()
        scheduler.release(node, app_id=app_id)
        cluster.run()


def _yarn_grant_cycle(cluster: Any, datasets: list[Any]) -> None:
    """The same cycle through the YARN ResourceManager's containers."""
    rm = ResourceManager(cluster)
    held: list[Any] = []
    wanted = 0
    for app_id, dataset in enumerate(datasets):
        for index in range(len(dataset.splits)):
            rm.request(
                MAP_PROFILE, held.append,
                preferred=dataset.locations(index), app_id=app_id,
            )
            wanted += 1
    cluster.run()
    for _ in range(wanted):
        rm.release(held.pop())
        cluster.run()


def _multijob_probes(inputs: MultiJobInputs) -> dict[str, Callable[[], Any]]:
    cluster = MultiJobWorkload.new_cluster()
    paths = iter(range(1_000_000))

    def materialize() -> list[DistributedDataset]:
        dfs = DistributedFileSystem(cluster, replication=2, seed=5)
        batch = next(paths)
        return [
            DistributedDataset.materialize(
                dfs, f"/probe/{batch}/job-{j}", records, num_splits=MultiJobWorkload.SPLITS
            )
            for j, records in enumerate(inputs.datasets)
        ]

    datasets = materialize()
    return {
        "mapreduce.records.materialize_s": materialize,
        "cluster.flows.shuffle_wave_s": wallclock.BENCHES["flow_fanout_64"](
            {"fanout_classes": 11}
        ),
        "mapreduce.scheduler.grant_cycle_s": lambda: _slot_grant_cycle(cluster, datasets),
        "yarn.grant_cycle_s": lambda: _yarn_grant_cycle(cluster, datasets),
    }


# -- pic-lint -----------------------------------------------------------------


def _lint_probes(inputs: LintInputs) -> dict[str, Callable[[], Any]]:
    def family(digit: str) -> Callable[[], Any]:
        rules = [r for r in all_rules() if r.rule_id[3] == digit]
        return lambda: run_lint(inputs.files, rules=rules)

    file_rules = [r for r in all_rules() if r.rule_id[3] in "012"]
    return {
        "lint.file.pass_s": lambda: run_lint(inputs.files, rules=file_rules),
        "lint.project.pic4_s": family("4"),
        "lint.project.pic5_s": family("5"),
        "lint.project.pic6_s": family("6"),
        "lint.project.pic7_s": family("7"),
    }
