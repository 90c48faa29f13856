"""Module-level task functions shipped to worker processes.

Both functions are pure: they read their payload, compute, and return a
picklable result.  Keeping them at module level (not closures or bound
methods of runner state) is what makes them importable from a freshly
spawned/forked worker.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.mapreduce.columnar import ColumnBatch
from repro.mapreduce.job import TaskContext


def solve_subproblem(
    payload: tuple[Any, ColumnBatch | Sequence[tuple[Any, Any]], Any, int | None],
) -> tuple[Any, int, float]:
    """Run one sub-problem's local IC iterations to convergence.

    Payload: ``(program, records, sub_model, max_iterations)``.
    Returns ``(solved_model, iterations, compute_seconds)`` — exactly
    :meth:`PICProgram.solve_in_memory`'s contract.
    """
    program, records, model, max_iterations = payload
    return program.solve_in_memory(records, model, max_iterations=max_iterations)


def run_map_task(
    payload: tuple[Any, Any, int, ColumnBatch],
) -> tuple[ColumnBatch, dict[str, float]]:
    """Run one map task's real computation against a fresh context.

    Payload: ``(spec, model, split_index, records)``.  Returns the
    emitted output and the task's stats dict; the job runner replays
    both into the simulated task at its scheduled compute time.
    """
    spec, model, split_index, records = payload
    ctx = TaskContext(model=model, split_index=split_index)
    spec.mapper(ctx, records)
    return ctx.collect(), dict(ctx.stats)
