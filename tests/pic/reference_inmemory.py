"""One local IC iteration as :class:`~repro.pic.api.PICProgram` ran it
before a local iteration became a job over one split and one reducer.

This is ``PICProgram.run_iteration_in_memory``'s body as it was while
the best-effort map task ran the mapper, the grouping, the combiner and
the reducer by hand.  It defines what the job path must still produce:
the same model after every iteration, byte for byte, the same number of
iterations to local convergence, and the same compute charge.
"""

from __future__ import annotations

from typing import Any

from repro.mapreduce.columnar import (
    ColumnBatch,
    columnize,
    group_batch,
    singleton_groups,
)
from repro.mapreduce.driver import iterate
from repro.mapreduce.job import TaskContext
from repro.pic.api import PICProgram
from repro.pic.model import as_model


def reference_iteration_in_memory(
    program: PICProgram, records: ColumnBatch, model: Any, iteration: int
) -> tuple[Any, float]:
    """``(next_model, compute_seconds)`` of one in-memory IC iteration."""
    current = as_model(model)
    compute = 0.0
    for spec in program.jobs(current, iteration):
        ctx = TaskContext(model=current)
        spec.mapper(ctx, records)
        # In memory there is no record pipeline: no deserialization,
        # sort, spill, or shuffle — just the computation itself.
        compute += spec.costs.inmemory_compute(len(records))
        grouped = group_batch(ctx.collect())
        if spec.combiner is not None:
            # A reducer sees combined values as one-element groups.
            grouped = singleton_groups(spec.run_combiner(grouped))
        rctx = TaskContext(model=current)
        spec.reducer(rctx, grouped)
        current = program.build_model(current, rctx.collect())
    return current, compute


def reference_solve_in_memory(
    program: PICProgram, records: Any, model: Any, max_iterations: int | None = None
) -> tuple[Any, int, float]:
    """``PICProgram.solve_in_memory`` over the reference iteration."""
    if max_iterations is None:
        max_iterations = program.local_max_iterations()
    batch = columnize(records)
    total_compute = 0.0
    iterations = 0
    for model, compute, _verdict in iterate(
        lambda current, it: reference_iteration_in_memory(program, batch, current, it),
        program.converged, max_iterations, model,
    ):
        total_compute += compute
        iterations += 1
    return model, iterations, total_compute
