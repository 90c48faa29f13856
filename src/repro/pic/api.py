"""The PIC programming interface (paper Figure 4).

Everything except ``partition``, ``merge`` and ``be_converged`` is
required anyway to express an iterative-convergence algorithm on
MapReduce; those three extras have library defaults (random data
partitioning, model averaging, and reusing ``converged``), so porting an
existing IC program to PIC is the small effort the paper advertises.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping
from typing import Any, Iterable

from repro.mapreduce.columnar import ColumnBatch, GroupedBatch, Records, columnize
from repro.mapreduce.costs import CostHints
from repro.mapreduce.driver import Verdict, iterate
from repro.mapreduce.job import JobSpec, TaskContext
from repro.parallel.tasks import compute_job
from repro.pic.mergers import average_merge
from repro.pic.model import (
    KeyedModel,
    as_model,
    model_nbytes,
    model_to_records,
    records_to_model,
)
from repro.pic.partitioners import random_partition, replicate_model


class PICProgram(abc.ABC):
    """One iterative-convergence application, in both IC and PIC form.

    Subclasses implement the conventional MapReduce IC pieces
    (``map``/``batch_map``, ``reduce``/``batch_reduce``, ``converged``)
    and may override the three best-effort functions (``partition``,
    ``merge``, ``be_converged``) plus tuning knobs (``costs``,
    ``num_reducers``).

    The model is key/value pairs.  Wherever the program hands one over
    — ``initial_model``, ``partition``, ``merge`` — a plain ``dict`` is
    fine; wherever it is handed one — ``ctx.model``, ``converged``,
    ``partition``, ``merge`` — it gets a read-only ``Mapping``
    (:class:`~repro.pic.model.KeyedModel`, which also offers its two
    columns to vectorized code).
    """

    #: Job-chain name used in DFS paths and reports.
    name: str = "pic-program"
    #: Compute-cost calibration for this application's map/reduce work.
    costs: CostHints = CostHints()
    #: Reduce-task parallelism of the conventional implementation.
    num_reducers: int = 8
    #: How the model reaches map tasks: "broadcast" (whole model per
    #: node, distributed-cache pattern) or "partitioned" (each task only
    #: fetches its input's share, chained-job pattern).
    model_mode: str = "broadcast"
    #: Whether ``batch_map`` is record-wise: exactly one record out per
    #: record in, in input order, each depending only on its own record
    #: and ``ctx.model``, with no ``ctx.split_index`` read and no
    #: ``ctx.stats`` written.  A record-wise job's map wave then runs its
    #: mapper once per executor worker, not once per split
    #: (:attr:`JobSpec.record_wise`); it has no combiner.
    record_wise_map: bool = False

    # ------------------------------------------------------------------
    # Conventional IC interface (required for any MapReduce realisation)

    def map(self, ctx: TaskContext, key: Any, value: Any) -> None:
        """Record-at-a-time mapper; ``ctx.model`` is the current model."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement map() or batch_map()"
        )

    def batch_map(self, ctx: TaskContext, records: ColumnBatch) -> None:
        """Whole-split mapper (override for vectorized inner loops)."""
        for key, value in records:
            self.map(ctx, key, value)

    def reduce(self, ctx: TaskContext, key: Any, values: list[Any]) -> None:
        """Record-at-a-time reducer."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement reduce() or batch_reduce()"
        )

    def batch_reduce(self, ctx: TaskContext, grouped: GroupedBatch) -> None:
        """All key groups of one partition (override to vectorize)."""
        for key, values in grouped:
            self.reduce(ctx, key, values)

    def combine(self, key: Any, values: list[Any]) -> Any:
        """Optional record-at-a-time combiner; override it (or
        :meth:`combine_batch`) to enable one.

        Must be associative and compatible with the reducer (it sees
        combined values).
        """
        raise NotImplementedError("no combiner defined")

    def combine_batch(self, grouped: GroupedBatch) -> ColumnBatch:
        """Combiner over a whole map output (override to vectorize).

        Receives a :class:`~repro.mapreduce.columnar.GroupedBatch` — the
        groups of every reduce partition, so one key may head several —
        and returns a combined :class:`~repro.mapreduce.columnar.ColumnBatch`:
        exactly one row per group, in group order.  Never called with
        zero groups (an empty batch does not carry the job's column
        kinds).  Default: :meth:`combine` per group.
        """
        return ColumnBatch.from_rows(
            [(key, self.combine(key, values)) for key, values in grouped]
        )

    def build_model(self, model: Mapping[Any, Any], output: Records) -> KeyedModel:
        """Fold one job's reduce output — a :class:`ColumnBatch` (a row
        list is columnized) — into the next model, itself a ``Mapping``.
        Default: upsert, the output's records replace or extend the
        model's (:meth:`KeyedModel.updated`); a model whose key set
        stays put keeps one key column for the whole loop."""
        return as_model(model).updated(columnize(output))

    @abc.abstractmethod
    def converged(self, previous: Any, current: Any, iteration: int) -> bool | Verdict:
        """The application's convergence criterion (Figure 1(a)): a plain
        ``bool``, or a :mod:`repro.pic.convergence` verdict that also says
        what was measured."""

    def initial_model(self, records: Records, seed: Any = 0) -> Any:
        """Produce a starting model from the input data (handed over as
        the caller passed it to the runner)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not provide initial_model(); "
            "pass a model explicitly"
        )

    def model_bytes(self, model: Mapping[Any, Any]) -> int:
        """Serialized model size; drives model-update traffic accounting."""
        return model_nbytes(model)

    def model_records(self, model: Mapping[Any, Any]) -> list[tuple[Any, Any]]:
        """Flatten the model to key/value records (Section III-C)."""
        return model_to_records(model)

    def model_from_records(self, records: Iterable[tuple[Any, Any]]) -> KeyedModel:
        """Rebuild a model from its key/value records."""
        return records_to_model(records)

    # ------------------------------------------------------------------
    # In-memory execution (used by the best-effort phase's map tasks)

    def run_iteration_in_memory(
        self, records: ColumnBatch, model: Any, iteration: int
    ) -> tuple[Any, float]:
        """Run one IC iteration serially in memory.

        This is how a PIC best-effort map task executes the *original*
        computation on its sub-problem: each job runs through
        :func:`~repro.parallel.tasks.compute_job` over one split and one
        reducer, in-process and unsized — nothing simulates it.  Returns
        ``(next_model, compute_seconds)`` where the compute cost is what
        the equivalent map+sort+reduce work would have charged.
        """
        current = as_model(model)
        compute = 0.0
        for spec in self.jobs(current, iteration):
            job = compute_job(spec, current, [records], 1, None)
            # In memory there is no record pipeline: no deserialization,
            # sort, spill, or shuffle — just the computation itself.
            compute += spec.costs.inmemory_compute(len(records))
            current = self.build_model(current, job.outputs[0])
        return current, compute

    def solve_in_memory(
        self,
        records: Records,
        model: Any,
        max_iterations: int | None = None,
    ) -> tuple[Any, int, float]:
        """Run local IC iterations to convergence, serially in memory.

        Returns ``(model, iterations, compute_seconds)``.  The same
        convergence criterion as the conventional implementation is used
        for every sub-problem (Section IV-A).  The engine hands over a
        sub-problem's batch; a row list is columnized here, once for all
        the iterations.
        """
        if max_iterations is None:
            max_iterations = self.local_max_iterations()
        batch = columnize(records)
        total_compute = 0.0
        iterations = 0
        for model, compute, _verdict in iterate(
            lambda current, it: self.run_iteration_in_memory(batch, current, it),
            self.converged, max_iterations, model,
        ):
            total_compute += compute
            iterations += 1
        return model, iterations, total_compute

    # ------------------------------------------------------------------
    # Job-chain plumbing (default: one MapReduce job per iteration)

    def jobs(self, model: Any, iteration: int) -> list[JobSpec]:
        """The MapReduce job chain for one IC iteration.

        Most algorithms need a single job; PageRank overrides this to
        chain its aggregation and propagation phases.
        """
        return [self.job_spec(suffix="")]

    def job_spec(self, suffix: str = "") -> JobSpec:
        """Build a :class:`JobSpec` from this program's batch map/reduce,
        with :meth:`combine_batch` as the combiner when ``combine`` or
        ``combine_batch`` is overridden."""
        has_combiner = (
            type(self).combine is not PICProgram.combine
            or type(self).combine_batch is not PICProgram.combine_batch
        )
        return JobSpec(
            name=f"{self.name}{suffix}",
            mapper=self.batch_map,
            reducer=self.batch_reduce,
            combiner=self.combine_batch if has_combiner else None,
            num_reducers=self.num_reducers,
            costs=self.costs,
            record_wise=self.record_wise_map,
        )

    # ------------------------------------------------------------------
    # Best-effort extras (the only three PIC-specific functions)

    def partition(
        self,
        records: ColumnBatch,
        model: Any,
        num_partitions: int,
        seed: Any = 0,
    ) -> list[tuple[Records, Any]]:
        """Split the problem into ``num_partitions`` (data, model) pairs.

        ``records`` is the run's input batch — read-only: the input
        splits are views of it.  A partition's data may come back as a
        batch (``take``/``slice`` it) or as a row list (a program that
        rewrites its records iterates the batch); the engine columnizes it.

        Default (suits K-means-like algorithms): randomly partition the
        input data and give every sub-problem a copy of the model.
        """
        parts = random_partition(records, num_partitions, seed)
        return list(zip(parts, replicate_model(model, num_partitions)))

    def merge(self, models: list[Any]) -> Any:
        """Combine sub-problem models into one (default: average)."""
        return average_merge(models)

    def merge_element(self, key: Any, values: list[Any]) -> Any:
        """Element-wise merge of one model entry's values across the
        sub-problems that emitted it.

        Overriding this enables the *distributed merge* of Section
        III-C: "representing the model as key/value pairs also allows
        the merge function itself to execute in a distributed fashion as
        a MapReduce job" — the best-effort reduce then runs with full
        reducer parallelism instead of a single merge reducer.  Only
        merges that are per-element (averaging corresponding centroids,
        stitching disjoint entries) qualify; merges with global coupling
        (PageRank's cross-edge pass) keep the centralized ``merge``.
        """
        raise NotImplementedError("no element-wise merge defined")

    @property
    def supports_distributed_merge(self) -> bool:
        """True when ``merge_element`` is overridden."""
        return type(self).merge_element is not PICProgram.merge_element

    def owned_model_records(
        self, model: Any, partition_index: int
    ) -> list[tuple[Any, Any]]:
        """The model entries sub-problem ``partition_index`` *owns*.

        Under the distributed merge each best-effort map task emits only
        these (halo/overlap copies stay local); the default is the whole
        sub-model, which suits replicated-model algorithms like K-means.
        """
        return self.model_records(model)

    def be_converged(
        self, previous: Any, current: Any, be_iteration: int
    ) -> bool | Verdict:
        """Best-effort termination (default: the IC criterion)."""
        return self.converged(previous, current, be_iteration)

    def topoff_converged(
        self, previous: Any, current: Any, iteration: int
    ) -> bool | Verdict:
        """Top-off termination (default: the IC criterion).

        Fixed-iteration algorithms like Nutch PageRank override this
        with a small pre-set limit: the best-effort phase has already
        done the bulk of the refinement.
        """
        return self.converged(previous, current, iteration)

    def local_max_iterations(self) -> int:
        """Cap on local iterations per sub-problem per best-effort round."""
        return 100
