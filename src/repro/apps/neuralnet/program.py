"""Neural-network training as a PIC program.

Conventional IC realisation — parallel stochastic backpropagation with
per-epoch weight averaging, the standard Hadoop-era formulation of
neural-network training:

* **map** — each split runs one epoch of mini-batch SGD (vectorized
  forward+backward per batch, samples in deterministic order) starting
  from the current model, and emits one ``(param_name, (weights·n, n))``
  record per parameter tensor;
* **combine/reduce** — the per-split weights are count-weighted-averaged
  into the next model;
* **converged** — the validation error stopped improving (the paper
  itself evaluates NN training by "applying the model to a validation
  data set", Section VI-A), or the epoch cap was reached.

PIC realisation: random data partitioning with a model copy per
sub-problem; local iterations are local SGD epochs to local convergence;
the merge averages the sub-problems' weights (exactly the default
``average_merge``).  The top-off phase polishes with global epochs.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Sequence

import numpy as np

from repro.apps.neuralnet.mlp import (
    MLP,
    PARAM_KEYS,
    init_params,
    loss_and_gradients,
    misclassification,
)
from repro.mapreduce.columnar import (
    ArrayColumn,
    ColumnBatch,
    ScalarColumn,
    TupleColumn,
)
from repro.mapreduce.costs import CostHints
from repro.mapreduce.job import TaskContext
from repro.pic.api import PICProgram
from repro.pic.convergence import Verdict, fixed_iterations, max_change_below
from repro.util.rng import SeedLike


class NeuralNetProgram(PICProgram):
    """MLP training for the PIC framework.

    The model is the parameter dict of :mod:`repro.apps.neuralnet.mlp`.
    Input records: ``(sample_id, (feature_vector, label))``.
    """

    def __init__(
        self,
        shape: MLP,
        validation: tuple[np.ndarray, np.ndarray],
        learning_rate: float = 0.1,
        min_improvement: float = 0.002,
        max_epochs: int = 60,
        num_reducers: int = 4,
        l2: float = 1e-3,
        batch_size: int = 32,
        min_epochs: int = 2,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if min_improvement <= 0:
            raise ValueError(
                f"min_improvement must be positive, got {min_improvement}"
            )
        if l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {l2}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        Xv, yv = validation
        if len(Xv) != len(yv) or len(Xv) == 0:
            raise ValueError("validation set must be non-empty and aligned")
        self.validation = (np.asarray(Xv, dtype=float), np.asarray(yv, dtype=int))
        self.batch_size = batch_size
        self.shape = shape
        self.learning_rate = learning_rate
        self.min_improvement = min_improvement
        self.min_epochs = min_epochs
        self.l2 = l2
        self.max_epochs = max_epochs
        self.num_reducers = num_reducers
        self.name = "neuralnet"
        # Forward+backward ≈ 4 × input_dim × hidden multiply-adds/record.
        flops = 4.0 * (shape.input_dim * shape.hidden_dim
                       + shape.hidden_dim * shape.num_classes)
        self.costs = CostHints(
            map_seconds_per_record=2e-6 + 2e-9 * flops,
            reduce_seconds_per_record=1e-6,
        )

    # -- conventional IC pieces -----------------------------------------

    def initial_model(
        self, records: Sequence[tuple[Any, Any]], seed: SeedLike = 0
    ) -> dict[str, np.ndarray]:
        """Xavier-initialised weights (data-independent)."""
        return init_params(self.shape, seed=seed)

    def sgd_epoch(
        self, params: Mapping[str, np.ndarray], X: np.ndarray, y: np.ndarray
    ) -> dict[str, np.ndarray]:
        """One deterministic pass of mini-batch SGD over (X, y)."""
        params = {k: v.copy() for k, v in params.items()}
        lr = self.learning_rate
        for start in range(0, len(X), self.batch_size):
            bx = X[start : start + self.batch_size]
            by = y[start : start + self.batch_size]
            _loss, grads = loss_and_gradients(params, bx, by)
            for key in PARAM_KEYS:
                # L2 weight decay bounds the weights, giving the
                # epoch-level weight-change criterion a floor to cross.
                params[key] -= lr * (grads[key] + self.l2 * params[key])
        return params

    def batch_map(self, ctx: TaskContext, records: ColumnBatch) -> None:
        """One SGD epoch over this split, emitting weighted weights."""
        if not len(records):
            return
        values = records.values
        if (
            isinstance(values, TupleColumn)
            and len(values.slots) == 2
            and isinstance(values.slots[0], ArrayColumn)
            and isinstance(values.slots[1], ScalarColumn)
        ):
            X = values.slots[0].data
            y = values.slots[1].values
        else:
            X = np.stack([x for x, _y in values.rows()])
            y = np.asarray([label for _x, label in values.rows()])
        trained = self.sgd_epoch(ctx.model, X, y)
        n = len(records)
        # Emit a weighted *sum* so partial weights combine exactly.
        for key in PARAM_KEYS:
            ctx.emit(key, (trained[key] * n, n))

    def combine(self, key: Any, values: list[Any]) -> Any:
        """Sum weighted weights locally before the shuffle."""
        total = None
        count = 0
        for weights, n in values:
            total = weights.copy() if total is None else total + weights
            count += n
        return (total, count)

    def reduce(self, ctx: TaskContext, key: Any, values: list[Any]) -> None:
        """Count-weighted average of the per-split weights."""
        total = None
        count = 0
        for weights, n in values:
            total = weights.copy() if total is None else total + weights
            count += n
        ctx.emit(key, total / max(count, 1))

    def converged(self, previous: Any, current: Any, iteration: int) -> Verdict:
        """Stop when validation error stops improving meaningfully."""
        capped = fixed_iterations(self.max_epochs)(previous, current, iteration)
        if capped or iteration + 1 < self.min_epochs:
            return capped
        improved = max_change_below(self.min_improvement, self._improvement)
        return improved(previous, current, iteration)

    def _improvement(self, previous: Any, current: Any) -> float:
        """Drop in validation error from ``previous`` to ``current``."""
        Xv, yv = self.validation
        return misclassification(previous, Xv, yv) - misclassification(
            current, Xv, yv
        )

    # -- PIC extras --------------------------------------------------------
    # partition: library default (random data + model copies).
    # merge: library default (average corresponding weight tensors).
    # be_converged: library default (the IC criterion on merged weights).

    def merge_element(self, key: Any, values: list[Any]) -> Any:
        """Average corresponding weight tensors (distributed merge)."""
        return np.mean(np.stack([np.asarray(v, dtype=float) for v in values]), axis=0)

    def local_max_iterations(self) -> int:
        """Local training shares the global epoch cap."""
        return self.max_epochs

    # -- metrics -------------------------------------------------------------

    def validation_error(
        self, model: Mapping[str, np.ndarray], X: np.ndarray, y: np.ndarray
    ) -> float:
        """Misclassified fraction on held-out data (Figure 12(a))."""
        return misclassification(model, X, y)
