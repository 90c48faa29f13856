"""The best-effort phase engine (Sections III-A/III-B, Figure 5).

Each best-effort iteration is realised exactly the way the paper's
Hadoop library works — as **one MapReduce job**:

* one *map task per sub-problem*: the task receives its partition's
  (co-located) input data and its sub-model, and runs the **original IC
  computation to local convergence entirely in memory** ("local
  iterations").  No intermediate data leaves the task — this is why
  PIC's measured intermediate-data volume collapses from gigabytes to
  kilobytes (Table II);
* the map output is just each sub-problem's partial model, expressed as
  key/value records (Section III-C);
* the *reduce* applies the programmer's ``merge`` function and writes
  the merged model to the DFS (the only model-update traffic).

The map tasks' simulated compute time is charged dynamically from the
local iterations each task actually performed (the real computation runs
inside the mapper), so partitions that converge quickly cost less.

Input co-location is charged once: before the first best-effort
iteration the partition data is scattered to the node that will own each
sub-problem (``repartition`` traffic); afterwards the input is invariant
and cached — the identical courtesy the strengthened IC baseline enjoys.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.cluster.cache import CachePin
from repro.cluster.cluster import Cluster
from repro.cluster.metrics import TrafficCategory
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.columnar import ColumnBatch, GroupedBatch, Records, columnize
from repro.mapreduce.driver import (
    Bracket,
    IterationTrace,
    input_cached,
    iterate,
    strips_overheads,
)
from repro.mapreduce.job import JobSpec, TaskContext
from repro.mapreduce.pipeline import SplitGate
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner
from repro.pic.api import PICProgram
from repro.pic.model import KeyedModel, as_model
from repro.util.rng import SeedLike


@dataclass
class SubProblem:
    """One partition of the problem as the first best-effort round
    co-locates it on its home node: ``records`` is a ``take`` of the run's
    input batch (a copy: sub-problems alias neither each other nor the
    input) or the rows a program's ``partition`` wrote, columnized."""

    index: int
    records: ColumnBatch
    model: KeyedModel
    home_node: int

    @cached_property
    def nbytes(self) -> int:
        """Serialized size of this partition's input records."""
        return self.records.nbytes_wire()


@dataclass
class BestEffortResult:
    """Merged model (a plain ``dict``) and the full best-effort trace."""

    model: Any
    be_iterations: int
    stats: list[IterationTrace]
    total_time: float
    model_locations: tuple[int, ...]

    @property
    def local_iterations_by_round(self) -> list[list[int]]:
        """Per-round, per-partition local iteration counts."""
        return [s.local_iterations for s in self.stats]

    @property
    def max_local_iterations_by_round(self) -> list[int]:
        """Table I's \"(max) local iterations\" row."""
        return [s.max_local_iterations for s in self.stats]


def best_effort_dfs(cluster: Cluster) -> DistributedFileSystem:
    """The DFS a best-effort phase co-locates its partitions on and
    writes its merged models to, unless its runner brings one."""
    return DistributedFileSystem(cluster, replication=min(3, cluster.num_nodes), seed=23)


def solved_compute_seconds(num_records: int, nbytes: int, ctx: TaskContext) -> float:
    """A best-effort map task's compute charge: what its local
    iterations cost, as its solve reported in ``ctx.stats``."""
    return ctx.stats.get("compute_seconds", 0.0)


@dataclass(frozen=True)
class BestEffortRound:
    """The tasks of one best-effort round's job.

    Map task ``i`` sees sub-problem ``i``'s model as ``ctx.model`` and
    solves the sub-problem to local convergence in memory; the reduce
    merges the partial models — centrally (``map_central`` /
    ``reduce_central``) or element by element (``map_owned`` /
    ``reduce_elements``).  Module-level and frozen, so a round's job can
    cross a process boundary like any other.
    """

    program: PICProgram

    def _solve(self, ctx: TaskContext, records: ColumnBatch) -> Any:
        model, iterations, compute = self.program.solve_in_memory(records, ctx.model)
        ctx.stats.update(local_iterations=iterations, compute_seconds=compute)
        return model

    def map_central(self, ctx: TaskContext, records: ColumnBatch) -> None:
        """Emit the whole partial model under one key, tagged with its
        split so the reducer merges the partials in split order."""
        solved = self._solve(ctx, records)
        ctx.emit(0, (ctx.split_index, self.program.model_records(solved)))

    def reduce_central(self, ctx: TaskContext, grouped: GroupedBatch) -> None:
        """Rebuild every partial model and apply the programmer's merge()."""
        program = self.program
        partials: list[tuple[int, list[tuple[Any, Any]]]] = []
        for _key, values in grouped:
            partials.extend(values)
        partials.sort(key=lambda pv: pv[0])
        models = [program.model_from_records(recs) for _i, recs in partials]
        for key, value in program.model_records(program.merge(models)):
            ctx.emit(key, value)

    def map_owned(self, ctx: TaskContext, records: ColumnBatch) -> None:
        """Emit the partial model's *owned* entries, one per element."""
        solved = self._solve(ctx, records)
        for key, value in self.program.owned_model_records(solved, ctx.split_index):
            ctx.emit(key, value)

    def reduce_elements(self, ctx: TaskContext, grouped: GroupedBatch) -> None:
        """Apply merge_element to each model element's partial values."""
        for key, values in grouped:
            ctx.emit(key, self.program.merge_element(key, values))


class BestEffortEngine:
    """Runs the best-effort phase of a :class:`PICProgram` on a cluster.

    ``runner`` (default: a fresh :class:`JobRunner` on
    :func:`best_effort_dfs`) runs every round's job and settles the
    DFS, host executor, pipelined mode and node cache the phase uses.
    """

    def __init__(
        self,
        cluster: Cluster,
        program: PICProgram,
        num_partitions: int,
        seed: SeedLike = 0,
        be_max_iterations: int = 20,
        optimized_baseline: bool = True,
        runner: JobRunner | None = None,
        distributed_merge: bool = False,
        speculative: bool = False,
    ) -> None:
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        if be_max_iterations < 1:
            raise ValueError("be_max_iterations must be >= 1")
        if distributed_merge and not program.supports_distributed_merge:
            raise ValueError(
                f"{type(program).__name__} does not define merge_element(); "
                "a distributed merge needs an element-wise merge"
            )
        self.distributed_merge = distributed_merge
        self.speculative = speculative
        self.cluster = cluster
        self.program = program
        self.num_partitions = num_partitions
        self.seed = seed
        self.be_max_iterations = be_max_iterations
        self.optimized_baseline = optimized_baseline
        # In pipelined mode the model scatter and first-round co-location
        # overlap the job's map wave through a SplitGate, and the
        # loop-invariant splits are pinned in the runner's node cache —
        # the one its map tasks look them up in.
        self.runner = runner or JobRunner(cluster, best_effort_dfs(cluster))
        self.pipeline = self.runner.pipeline
        self.cache = self.runner.cache
        self._dataset_seq = 0

    def home_node(self, subproblem_index: int) -> int:
        """Sub-problems are dealt round-robin over the nodes."""
        return subproblem_index % self.cluster.num_nodes

    # ------------------------------------------------------------------

    def run(
        self, records: Records, initial_model: Mapping[Any, Any]
    ) -> BestEffortResult:
        """Execute best-effort iterations until ``be_converged``."""
        records = columnize(records)
        initial_model = as_model(initial_model)
        cluster = self.cluster
        optimized, pipeline = self.optimized_baseline, self.pipeline
        model_locations: tuple[int, ...] = (0,)
        started = cluster.now
        dataset: DistributedDataset | None = None
        pins: list[CachePin] = []

        def step(model: Any, be_iter: int) -> tuple[Any, dict[str, Any]]:
            nonlocal dataset, model_locations
            pairs = self._partition(records, model)
            sub_models = [as_model(sub_model) for _records, sub_model in pairs]

            # Each map task waits on the latch of *its* co-location
            # and sub-model flows.  Hadoop's barrier is the
            # degenerate policy: drain the flows before submitting,
            # so every latch is already open when the job starts.
            gate = SplitGate(self.num_partitions)

            if dataset is None:
                # Only this round's partitions are solved (later rounds
                # re-solve the dataset's splits), so only they are
                # columnized.
                subs = [
                    SubProblem(i, columnize(recs), sub_models[i], self.home_node(i))
                    for i, (recs, _sub_model) in enumerate(pairs)
                ]
                dataset = self._colocate(subs, gate)
                if self.cache is not None:
                    pins.extend(self._pin_splits(dataset, subs))
                if not pipeline:
                    cluster.run()

            # PIC partitions the model: each best-effort map task receives
            # only its sub-model, so distribution is a scatter of the
            # partial models, not a full-model broadcast per node.
            self._scatter_sub_models(sub_models, model_locations, gate)
            if not pipeline:
                cluster.run()

            result = self.runner.run(
                self._be_job_spec(be_iter),
                dataset,
                model_locations=model_locations,
                input_cached=input_cached(optimized, pipeline, be_iter),
                speculative=self.speculative,
                model_gate=gate,
                split_models=sub_models,
            )
            model_locations = result.output_locations
            return self.program.model_from_records(result.output), {
                "job_results": [result],
                "local_iterations": [
                    result.map_stats[i]["local_iterations"]
                    for i in range(self.num_partitions)
                ],
            }

        try:
            stats = [
                trace for _model, trace, _verdict in iterate(
                    step, self.program.be_converged, self.be_max_iterations,
                    initial_model, lambda: Bracket(cluster, self.cache),
                )
            ]
        finally:
            # The loop-invariant splits stay evictable once the phase
            # ends; the entries themselves may remain resident for the
            # top-off phase's reads.
            for pin in pins:
                pin.release()

        return BestEffortResult(
            model=dict(stats[-1].model.items()),
            be_iterations=len(stats),
            stats=stats,
            total_time=cluster.now - started,
            model_locations=model_locations,
        )

    # -- phase steps -----------------------------------------------------

    def _partition(
        self, records: ColumnBatch, model: Any
    ) -> list[tuple[Records, Mapping[Any, Any]]]:
        pairs = self.program.partition(
            records, model, self.num_partitions, seed=self.seed
        )
        if len(pairs) != self.num_partitions:
            raise ValueError(
                f"partition() returned {len(pairs)} sub-problems, "
                f"expected {self.num_partitions}"
            )
        return pairs

    def _scatter_sub_models(
        self,
        sub_models: list[KeyedModel],
        model_locations: tuple[int, ...],
        gate: SplitGate,
    ) -> None:
        """Ship each sub-problem's model share from the merged model's
        closest replica to the sub-problem's home node.

        Remote shares go out as one bulk batch — one rate recompute for
        the whole scatter instead of one per sub-problem.  Each remote
        share registers a ``gate`` dependency for its sub-problem's
        split, so the map task waits exactly for its own share."""
        requests: list[Any] = []
        for index, sub_model in enumerate(sub_models):
            nbytes = self.program.model_bytes(sub_model)
            if nbytes <= 0:
                continue
            home = self.home_node(index)
            src = home if home in model_locations else min(model_locations)
            if src == home:
                # Local share: no fabric traffic, but it was read.
                self.cluster.meter.record(
                    TrafficCategory.MODEL_READ, nbytes,
                    crosses_core=False, on_fabric=False,
                )
            else:
                requests.append((
                    src, home, nbytes, TrafficCategory.MODEL_READ,
                    gate.add_dependency(index),
                ))
        self.cluster.transfer_batch(requests)

    def _colocate(
        self, subs: list[SubProblem], gate: SplitGate
    ) -> DistributedDataset:
        """Pin each partition's data to its home node, charging the
        one-time scatter from the (uniformly spread) original input.

        The scatter is aggregated into at most one flow per (src, dst)
        node pair: partitions homed on the same node pull from each
        source together, as one bulk read, instead of issuing
        ``num_partitions × num_nodes`` per-partition flows.  Byte totals
        are identical either way.  Each aggregated flow registers one
        ``gate`` dependency covering every sub-problem homed at its
        destination.
        """
        cluster = self.cluster
        n = cluster.num_nodes
        pair_bytes: dict[tuple[int, int], float] = {}
        homed_at: dict[int, list[int]] = {}
        for sub in subs:
            homed_at.setdefault(sub.home_node, []).append(sub.index)
            nbytes = sub.nbytes
            if nbytes == 0:
                continue
            per_node = nbytes / n
            for src in range(n):
                if src == sub.home_node:
                    continue
                pair = (src, sub.home_node)
                pair_bytes[pair] = pair_bytes.get(pair, 0.0) + per_node
        cluster.transfer_batch([
            (src, dst, nbytes, TrafficCategory.REPARTITION,
             gate.add_dependency(*homed_at.get(dst, [])))
            for (src, dst), nbytes in pair_bytes.items()
        ])
        self._dataset_seq += 1
        return DistributedDataset.from_partitions(
            self.runner.dfs,
            f"/pic/{self.program.name}/partitions-{self._dataset_seq}",
            [sub.records for sub in subs],
            placements=[sub.home_node for sub in subs],
        )

    def _pin_splits(
        self, dataset: DistributedDataset, subs: list[SubProblem]
    ) -> list[CachePin]:
        """Protect the co-located loop-invariant splits from eviction.

        Pinning only reserves the budget — the first map-task read
        still pays for materialization and marks the entry resident,
        so byte totals match a barrier run that reads everything once.
        Partitions the budget rejects simply stay uncached.
        """
        assert self.cache is not None
        pins: list[CachePin] = []
        for sub in subs:
            pin = self.cache.pin(
                sub.home_node, (dataset.path, sub.index), sub.nbytes
            )
            if pin is not None:
                pins.append(pin)
        return pins

    def _be_job_spec(self, be_iter: int) -> JobSpec:
        """The round's job: map task ``i`` solves sub-problem ``i``, the
        reduce merges (see :class:`BestEffortRound`)."""
        program = self.program
        tasks = BestEffortRound(program)
        costs = program.costs
        if strips_overheads(self.optimized_baseline, self.pipeline, be_iter):
            costs = costs.without_overheads()
        name = f"{program.name}-be{be_iter}"
        if self.distributed_merge:
            # Section III-C: the merge runs as a normal MapReduce job —
            # tasks emit their *owned* model entries per element and
            # reducers apply merge_element with full parallelism.
            return JobSpec(
                name=name, mapper=tasks.map_owned, reducer=tasks.reduce_elements,
                num_reducers=program.num_reducers, costs=costs,
                map_cost=solved_compute_seconds,
            )
        # Centralized merge: one reducer reconstructs every partial
        # model and applies the programmer's merge().
        return JobSpec(
            name=name, mapper=tasks.map_central, reducer=tasks.reduce_central,
            num_reducers=1, costs=costs, map_cost=solved_compute_seconds,
        )
