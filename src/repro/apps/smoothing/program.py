"""Image smoothing as a PIC program.

The model *is the image* — one row per model element — so this is the
paper's clearest large-model case: every IC iteration rewrites the whole
image into the replicated DFS and redistributes it to the mappers.

Conventional IC realisation — one Jacobi stencil sweep per MapReduce
iteration:

* **map** — each split holds a band of rows of the *input* image ``f``;
  using the current image (the model) it recomputes its rows from the
  5-point stencil and emits ``(row_index, new_row)``;
* **reduce** — identity;
* **converged** — max pixel change < threshold.

PIC realisation — contiguous row bands with a frozen halo (plus optional
Schwarz overlap, as in the linear solver: the smoothing operator *is* a
weakly-diagonally-dominant linear system).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Sequence

import numpy as np

from repro.mapreduce.columnar import (
    ArrayColumn,
    ColumnBatch,
    GroupedBatch,
    emit_first_values,
    int_column,
    stack_rows,
)
from repro.mapreduce.costs import CostHints
from repro.mapreduce.job import TaskContext
from repro.pic.api import PICProgram
from repro.pic.convergence import Verdict, either, fixed_iterations, max_change_below
from repro.pic.model import as_model
from repro.util.rng import SeedLike


class ImageSmoothingProgram(PICProgram):
    """Jacobi image smoothing for the PIC framework.

    Model: ``{row_index: current_row}``.  Input records:
    ``(row_index, f_row)`` — the *original* image rows (data term).
    """

    def __init__(
        self,
        height: int,
        width: int,
        lam: float = 2.0,
        threshold: float = 1e-3,
        max_iterations: int = 500,
        num_reducers: int = 8,
        overlap: int = 2,
    ) -> None:
        if height < 2 or width < 2:
            raise ValueError(f"image must be at least 2x2, got {height}x{width}")
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if overlap < 0:
            raise ValueError(f"overlap must be >= 0, got {overlap}")
        self.height = height
        self.width = width
        self.lam = lam
        self.threshold = threshold
        self.max_iterations = max_iterations
        self.num_reducers = num_reducers
        self.overlap = overlap
        self.name = "smoothing"
        self.model_mode = "partitioned"
        # A row is one "record": ~5 flops per pixel.
        self.costs = CostHints(
            map_seconds_per_record=2e-6 + 2e-8 * width,
            reduce_seconds_per_record=1e-6 + 1e-9 * width,
        )
        self._owned_keys: list[set[int]] = []

    # -- conventional IC pieces -----------------------------------------

    def initial_model(
        self, records: Sequence[tuple[Any, Any]], seed: SeedLike = 0
    ) -> dict[int, np.ndarray]:
        """Start from the noisy input image itself."""
        return {int(i): np.asarray(row, dtype=float).copy() for i, row in records}

    def batch_map(self, ctx: TaskContext, records: ColumnBatch) -> None:
        """One 5-point stencil sweep over this split's rows.

        The sweep runs as whole-band matrix operations: every per-row
        addition of the old scalar loop becomes the same addition on a
        (rows, width) matrix (masked rows for missing up/down
        neighbours), so the emitted pixels are bit-identical.
        """
        if not len(records):
            return
        model = as_model(ctx.model)
        lam = self.lam
        ids = [int(key) for key in records.keys.rows()]
        if isinstance(records.values, ArrayColumn):
            f = records.values.data
        else:
            f = np.stack(
                [np.asarray(row, dtype=float) for row in records.values.rows()]
            )
        n = len(ids)
        u = stack_rows(model.lookup(records.keys))
        count = np.full((n, self.width), 2.0)  # E/W neighbours (minus edges)
        count[:, 0] -= 1.0
        count[:, -1] -= 1.0
        total = np.zeros((n, self.width))
        total[:, 1:] += u[:, :-1]
        total[:, :-1] += u[:, 1:]
        ups = [model.get(i - 1) for i in ids]
        has_up = np.array([row is not None for row in ups], dtype=bool)
        if has_up.any():
            total[has_up] += np.stack([row for row in ups if row is not None])
            count[has_up] += 1.0
        downs = [model.get(i + 1) for i in ids]
        has_down = np.array([row is not None for row in downs], dtype=bool)
        if has_down.any():
            total[has_down] += np.stack([row for row in downs if row is not None])
            count[has_down] += 1.0
        new_rows = (f + lam * total) / (1.0 + lam * count)
        ctx.emit_batch(
            ColumnBatch(
                int_column(np.asarray(ids, dtype=np.int64)),
                ArrayColumn(new_rows),
            )
        )

    def batch_reduce(self, ctx: TaskContext, grouped: GroupedBatch) -> None:
        """Identity reduce: one updated row per key."""
        emit_first_values(ctx, grouped)

    def converged(self, previous: Any, current: Any, iteration: int) -> Verdict:
        """max pixel change below the threshold (or the iteration cap)."""
        return either(
            fixed_iterations(self.max_iterations),
            max_change_below(self.threshold, _max_pixel_change),
        )(previous, current, iteration)

    # -- PIC extras --------------------------------------------------------

    def partition(
        self,
        records: ColumnBatch,
        model: Any,
        num_partitions: int,
        seed: SeedLike = 0,
    ) -> list[tuple[list[tuple[Any, Any]], Any]]:
        """Contiguous row bands with Schwarz overlap and a frozen halo.

        A record outside the image's partition boundary rows never moves
        between sub-problems — the stencil dependencies are local, the
        Figure 13 structure in its purest form.
        """
        ordered = sorted(records, key=lambda rec: rec[0])
        n = len(ordered)
        bounds = [round(p * n / num_partitions) for p in range(num_partitions + 1)]
        self._owned_keys = []
        out: list[tuple[list[tuple[Any, Any]], Any]] = []
        for p in range(num_partitions):
            lo = max(0, bounds[p] - self.overlap)
            hi = min(n, bounds[p + 1] + self.overlap)
            band = ordered[lo:hi]
            owned = {int(i) for i, _row in ordered[bounds[p] : bounds[p + 1]]}
            self._owned_keys.append(owned)
            sub_model: dict[int, np.ndarray] = {}
            halo_lo = max(0, lo - 1)
            halo_hi = min(n, hi + 1)
            for i, _f_row in ordered[halo_lo:halo_hi]:
                sub_model[int(i)] = np.asarray(
                    model[int(i)], dtype=float
                ).copy()
            out.append((list(band), sub_model))
        return out

    def merge(self, models: list[Any]) -> Any:
        """Keep each band's owned rows; overlap and halo rows are dropped."""
        if len(models) != len(self._owned_keys):
            raise ValueError(
                f"merge got {len(models)} models but partition() made "
                f"{len(self._owned_keys)}"
            )
        merged: dict[int, np.ndarray] = {}
        for owned, model in zip(self._owned_keys, models):
            for key in owned:
                merged[key] = model[key]
        return merged

    def owned_model_records(self, model, partition_index):
        """Only the band's own rows (halo/overlap copies stay local)."""
        owned = self._owned_keys[partition_index]
        return [(k, v) for k, v in model.items() if k in owned]

    def merge_element(self, key, values):
        """Each row has exactly one owner under the distributed merge."""
        if len(values) != 1:
            raise ValueError(
                f"row {key} emitted by {len(values)} bands; ownership overlaps"
            )
        return values[0]

    def local_max_iterations(self) -> int:
        """Local loops share the conventional iteration cap."""
        return self.max_iterations

    # -- metrics -------------------------------------------------------------

    def image_array(self, model: Mapping[int, np.ndarray]) -> np.ndarray:
        """Model as a (height, width) array."""
        return stack_rows(as_model(model).lookup(int_column(np.arange(self.height))))


def _max_pixel_change(
    previous: Mapping[int, Any], current: Mapping[int, Any]
) -> float:
    """Largest pixel change; infinite while a row of ``current`` has no
    predecessor yet."""
    previous, current = as_model(previous), as_model(current)
    try:
        before = previous.lookup(current.key_column)
    except KeyError:
        return float("inf")
    if not len(current):
        return 0.0
    # One stacked pass gives every row's largest change; the fold
    # over them is Python's max, which a NaN row does not raise.
    changes = np.abs(stack_rows(current.value_column) - stack_rows(before))
    return max([0.0, *changes.max(axis=1).tolist()])
