"""Two-phase PIC orchestration and the conventional-IC baseline runner."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.columnar import Records, columnize
from repro.mapreduce.driver import (
    Bracket,
    Convergence,
    DriverResult,
    IterationTrace,
    IterativeDriver,
)
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner
from repro.parallel import get_executor
from repro.pic.api import PICProgram
from repro.pic.engine import BestEffortEngine, BestEffortResult, best_effort_dfs
from repro.pic.model import as_model
from repro.util.rng import SeedLike


@dataclass
class PICResult:
    """Everything a PIC run produced; ``model`` is a plain ``dict``."""

    model: Any
    best_effort: BestEffortResult
    topoff: DriverResult
    phases: list[IterationTrace]
    total_time: float
    traffic: dict[str, dict[str, float]]

    @property
    def be_time(self) -> float:
        """Simulated best-effort phase duration."""
        return self.phases[0].duration

    @property
    def topoff_time(self) -> float:
        """Simulated top-off phase duration."""
        return self.phases[1].duration

    @property
    def be_iterations(self) -> int:
        """Number of best-effort rounds executed."""
        return self.best_effort.be_iterations

    @property
    def topoff_iterations(self) -> int:
        """Number of conventional top-off iterations executed."""
        return self.topoff.iterations

    @property
    def shuffle_bytes(self) -> float:
        """Shuffle bytes across both phases."""
        return sum(p.shuffle_bytes for p in self.phases)

    @property
    def model_update_bytes(self) -> float:
        """Model-update bytes across both phases."""
        return sum(p.model_update_bytes for p in self.phases)


class PICRunner:
    """Runs a :class:`PICProgram` end to end on a cluster (Figure 3).

    A fresh cluster per run keeps the traffic ledger and the clock
    attributable to this run alone.
    """

    def __init__(
        self,
        cluster: Cluster,
        program: PICProgram,
        num_partitions: int,
        seed: SeedLike = 0,
        be_max_iterations: int = 20,
        max_iterations: int = 100,
        optimized_baseline: bool = True,
        distributed_merge: bool = False,
        speculative: bool = False,
        workers: int | None = None,
        pipeline: bool = False,
    ) -> None:
        self.cluster = cluster
        self.program = program
        self.num_partitions = num_partitions
        self.seed = seed
        self.be_max_iterations = be_max_iterations
        self.max_iterations = max_iterations
        self.optimized_baseline = optimized_baseline
        self.distributed_merge = distributed_merge
        self.speculative = speculative
        # Host-side execution parallelism (``PIC_WORKERS`` when None);
        # affects wall-clock only, never the simulated run.
        self.executor = get_executor(workers)
        # Pipelined mode (off by default) changes simulated timing — see
        # repro.mapreduce.pipeline.
        self.pipeline = pipeline

    def run(self, records: Records, initial_model: Any = None) -> PICResult:
        """Best-effort phase, then top-off phase, from ``records`` —
        columnized here, once: the top-off splits are views of that
        batch and the best-effort partitions are cut from it."""
        program = self.program
        cluster = self.cluster
        if initial_model is None:
            initial_model = program.initial_model(records, seed=self.seed)
        records = columnize(records)
        dfs, dataset = _ingest(cluster, program, records)

        # One cache spans both phases: splits the best-effort phase left
        # resident stay warm for top-off reads of the same data.
        runner = JobRunner(
            cluster, dfs, executor=self.executor, pipeline=self.pipeline
        )
        cache = runner.cache

        # Phase 1: best-effort.
        bracket = Bracket(cluster, cache)
        engine = BestEffortEngine(
            cluster,
            program,
            num_partitions=self.num_partitions,
            seed=self.seed,
            be_max_iterations=self.be_max_iterations,
            optimized_baseline=self.optimized_baseline,
            runner=JobRunner(
                cluster, best_effort_dfs(cluster), executor=self.executor,
                pipeline=self.pipeline, cache=cache,
            ),
            distributed_merge=self.distributed_merge,
            speculative=self.speculative,
        )
        be = engine.run(records, initial_model)
        be_phase = bracket.close(
            name="best-effort", model=be.stats[-1].model, verdict=be.stats[-1].verdict
        )

        # Phase 2: top-off — the unmodified IC computation.
        bracket = Bracket(cluster, cache)
        topoff = _run_ic(
            runner, dataset, program, program.topoff_converged,
            be.stats[-1].model, be.model_locations,
            max_iterations=self.max_iterations,
            optimized_baseline=self.optimized_baseline,
            speculative=self.speculative,
        )
        topoff_phase = bracket.close(
            name="top-off", model=topoff.traces[-1].model,
            verdict=topoff.traces[-1].verdict,
        )

        return PICResult(
            model=topoff.model,
            best_effort=be,
            topoff=topoff,
            phases=[be_phase, topoff_phase],
            total_time=cluster.now,
            traffic=cluster.meter.snapshot(),
        )


def _ingest(
    cluster: Cluster, program: PICProgram, records: Records
) -> tuple[DistributedFileSystem, DistributedDataset]:
    """The run's ingest boundary: ``records`` becomes one batch (here,
    unless the caller holds one already) cut into one split per map slot."""
    dfs = DistributedFileSystem(
        cluster, replication=min(3, cluster.num_nodes), seed=11
    )
    dataset = DistributedDataset.materialize(
        dfs, f"/{program.name}/input", records,
        num_splits=max(1, cluster.topology.total_map_slots()),
    )
    return dfs, dataset


def _run_ic(
    runner: JobRunner,
    dataset: DistributedDataset,
    program: PICProgram,
    converged: Convergence,
    model: Mapping[Any, Any],
    model_locations: tuple[int, ...] = (0,),
    **options: Any,
) -> DriverResult:
    """The program's conventional IC loop until ``converged`` — its own
    criterion for the baseline, ``topoff_converged`` for PIC's second phase."""
    driver = IterativeDriver(
        runner, dataset, program.jobs, program.build_model, converged,
        program.model_bytes, model_mode=program.model_mode, **options,
    )
    return driver.run(as_model(model), model_locations)


def run_ic_baseline(
    cluster: Cluster,
    program: PICProgram,
    records: Records,
    initial_model: Any = None,
    max_iterations: int = 100,
    optimized_baseline: bool = True,
    seed: SeedLike = 0,
    speculative: bool = False,
    workers: int | None = None,
    pipeline: bool = False,
) -> DriverResult:
    """Run the conventional IC implementation (Figure 1(a)) on ``cluster``.

    This is the paper's baseline, already strengthened per Section V-A
    when ``optimized_baseline`` is True: no repeated job-launch costs and
    invariant input cached after the first iteration.
    """
    if initial_model is None:
        initial_model = program.initial_model(records, seed=seed)
    dfs, dataset = _ingest(cluster, program, records)
    runner = JobRunner(
        cluster, dfs, executor=get_executor(workers), pipeline=pipeline
    )
    return _run_ic(
        runner, dataset, program, program.converged, initial_model,
        max_iterations=max_iterations, optimized_baseline=optimized_baseline,
        speculative=speculative,
    )
