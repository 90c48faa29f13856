"""The linear-equation solver as a PIC program.

Conventional IC realisation — one Jacobi sweep per MapReduce iteration:

* **map** — row i emits ``(i, (b_i − Σ_{j≠i} a_ij x_j) / a_ii)`` using
  the current solution vector (the model);
* **reduce** — identity (one value per unknown);
* **converged** — ``max |Δx| <`` threshold.

PIC realisation — contiguous row blocks (the banded coupling makes them
nearly uncoupled, Section VI-B); each sub-problem's model carries its
block's unknowns *plus frozen copies of the out-of-block unknowns its
rows reference* (the additive-Schwarz reading of the best-effort phase,
[12]).  Local iterations are Jacobi sweeps on the block; the merge
stitches the blocks' unknowns back together.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Sequence

import numpy as np

from repro.mapreduce.columnar import (
    ColumnBatch,
    GroupedBatch,
    emit_first_values,
    float_column,
    int_column,
)
from repro.mapreduce.costs import CostHints
from repro.mapreduce.job import TaskContext
from repro.pic.api import PICProgram
from repro.pic.convergence import Verdict, either, fixed_iterations, max_change_below
from repro.util.rng import SeedLike


class LinearSolverProgram(PICProgram):
    """Jacobi solver for the PIC framework.

    Model: ``{row_index: x_i}``.  Input records:
    ``(row, (col_indices, values, b_i))`` with the diagonal included.
    """

    def __init__(
        self,
        threshold: float = 1e-6,
        max_iterations: int = 500,
        local_threshold: float | None = None,
        num_reducers: int = 4,
        avg_row_nnz: float = 7.0,
        overlap: int = 4,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if overlap < 0:
            raise ValueError(f"overlap must be >= 0, got {overlap}")
        self.overlap = overlap
        self.threshold = threshold
        self.local_threshold = (
            local_threshold if local_threshold is not None else threshold
        )
        self.max_iterations = max_iterations
        self.num_reducers = num_reducers
        self.name = "linsolve"
        self.model_mode = "partitioned"
        self.costs = CostHints(
            map_seconds_per_record=1e-6 + 2e-7 * avg_row_nnz,
            reduce_seconds_per_record=1e-6,
        )
        self._owned_keys: list[set[int]] = []

    # -- conventional IC pieces -----------------------------------------

    def initial_model(
        self, records: Sequence[tuple[Any, Any]], seed: SeedLike = 0
    ) -> dict[int, float]:
        """The customary all-zero starting vector."""
        return {int(i) : 0.0 for i, _row in records}

    def batch_map(self, ctx: TaskContext, records: ColumnBatch) -> None:
        """One Jacobi sweep over this split's rows.

        The sparse per-row accumulation stays a Python loop (row
        supports are ragged), but the updates are emitted as typed
        int/float columns so the shuffle's hashing, grouping, and
        sizing all run vectorized downstream.
        """
        model: Mapping[int, float] = ctx.model
        keys: list[Any] = []
        updates: list[float] = []
        for i, (cols, vals, b_i) in records:
            acc = 0.0
            diag = 0.0
            for col, val in zip(cols.tolist(), vals.tolist()):
                if col == i:
                    diag = val
                else:
                    acc += val * model[col]
            if diag == 0.0:
                raise ZeroDivisionError(f"row {i} has no diagonal entry")
            keys.append(i)
            updates.append((b_i - acc) / diag)
        ctx.emit_batch(
            ColumnBatch(
                int_column(np.asarray(keys, dtype=np.int64)),
                float_column(np.asarray(updates, dtype=np.float64)),
            )
        )

    def batch_reduce(self, ctx: TaskContext, grouped: GroupedBatch) -> None:
        """Identity reduce: one updated unknown per row key."""
        emit_first_values(ctx, grouped)

    def converged(self, previous: Any, current: Any, iteration: int) -> Verdict:
        """max |delta x| below the threshold (or the iteration cap)."""
        return either(
            fixed_iterations(self.max_iterations),
            max_change_below(self.threshold, _max_abs_change),
        )(previous, current, iteration)

    # -- PIC extras --------------------------------------------------------

    def partition(
        self,
        records: ColumnBatch,
        model: Any,
        num_partitions: int,
        seed: SeedLike = 0,
    ) -> list[tuple[list[tuple[Any, Any]], Any]]:
        """Contiguous row blocks with additive-Schwarz overlap.

        Each sub-problem *solves* the rows of its extended block (core ±
        ``overlap`` rows) but only its core rows survive the merge; the
        overlap classically accelerates the per-round contraction of the
        Schwarz iteration the best-effort phase amounts to.
        """
        ordered = sorted(records, key=lambda rec: rec[0])
        n = len(ordered)
        bounds = [round(p * n / num_partitions) for p in range(num_partitions + 1)]
        self._owned_keys = []
        out: list[tuple[list[tuple[Any, Any]], Any]] = []
        for p in range(num_partitions):
            lo = max(0, bounds[p] - self.overlap)
            hi = min(n, bounds[p + 1] + self.overlap)
            block = ordered[lo:hi]
            owned = {int(i) for i, _row in ordered[bounds[p] : bounds[p + 1]]}
            self._owned_keys.append(owned)
            sub_model: dict[int, float] = {}
            for i, (cols, _vals, _b) in block:
                sub_model[int(i)] = model.get(int(i), 0.0)
                for col in cols.tolist():
                    # Halo: unknowns outside the extended block stay frozen.
                    sub_model[int(col)] = model.get(int(col), 0.0)
            out.append((list(block), sub_model))
        return out

    def merge(self, models: list[Any]) -> Any:
        """Stitch each block's *owned* unknowns together (halos dropped)."""
        if len(models) != len(self._owned_keys):
            raise ValueError(
                f"merge got {len(models)} models but partition() made "
                f"{len(self._owned_keys)}"
            )
        merged: dict[int, float] = {}
        for owned, model in zip(self._owned_keys, models):
            for key in owned:
                merged[key] = model[key]
        return merged

    def owned_model_records(self, model, partition_index):
        """Only the block's own unknowns (halo/overlap copies stay local)."""
        owned = self._owned_keys[partition_index]
        return [(k, v) for k, v in model.items() if k in owned]

    def merge_element(self, key, values):
        """Each unknown has exactly one owner under the distributed merge."""
        if len(values) != 1:
            raise ValueError(
                f"unknown {key} emitted by {len(values)} blocks; ownership overlaps"
            )
        return values[0]

    def local_max_iterations(self) -> int:
        """Local loops share the conventional iteration cap."""
        return self.max_iterations

    # -- metrics -------------------------------------------------------------

    def solution_vector(self, model: Mapping[int, float], n: int) -> np.ndarray:
        """Model as a dense solution vector (for error metrics)."""
        x = np.zeros(n)
        for key, value in model.items():
            x[key] = value
        return x


def _max_abs_change(
    previous: Mapping[int, float], current: Mapping[int, float]
) -> float:
    """Largest ``|delta x|``; an unknown new to ``current`` moved from 0."""
    worst = 0.0
    for key, value in current.items():
        worst = max(worst, abs(value - previous.get(key, 0.0)))
    return worst
