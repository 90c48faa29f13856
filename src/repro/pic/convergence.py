"""Reusable convergence criteria for IC and best-effort loops.  Each
returns a :class:`~repro.mapreduce.driver.Verdict`: truthy when the loop
should stop, and carrying what was measured against which threshold."""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable

import numpy as np

from repro.mapreduce.driver import Verdict
from repro.pic.model import as_model

Criterion = Callable[[Any, Any, int], Verdict]


def kv_model_max_change(
    previous: Mapping[Any, Any], current: Mapping[Any, Any]
) -> float:
    """Max Euclidean displacement of any model element between iterations.

    Elements present on only one side count as infinite change (the
    model's support moved).
    """
    previous, current = as_model(previous), as_model(current)
    if len(previous) != len(current):
        return float("inf")
    try:
        before = previous.lookup(current.key_column)
    except KeyError:
        return float("inf")
    worst = 0.0
    for old_value, new_value in zip(before.rows(), current.value_column.rows()):
        old = np.asarray(old_value, dtype=float)
        new = np.asarray(new_value, dtype=float)
        if old.shape != new.shape:
            return float("inf")
        worst = max(worst, float(np.linalg.norm(new - old)))
    return worst


def max_change_below(
    threshold: float,
    distance: Callable[[Any, Any], float] = kv_model_max_change,
) -> Criterion:
    """Converged when ``distance(previous, current) < threshold``.

    This is the paper's K-means criterion: "if the change in the value
    of all the K centroids is within a pre-specified threshold".
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")

    def criterion(previous: Any, current: Any, iteration: int) -> Verdict:
        measured = distance(previous, current)
        return Verdict(
            bool(measured < threshold), iteration, "threshold", measured, threshold
        )

    return criterion


def fixed_iterations(limit: int) -> Criterion:
    """Converged after exactly ``limit`` iterations (Nutch PageRank)."""
    if limit < 1:
        raise ValueError(f"iteration limit must be >= 1, got {limit}")

    def criterion(previous: Any, current: Any, iteration: int) -> Verdict:
        return Verdict(iteration + 1 >= limit, iteration, "cap")

    return criterion


def either(*criteria: Criterion) -> Criterion:
    """Converged when any of the criteria holds (threshold OR iteration
    cap): the first that stops answers, so a cap listed first spares the
    distance computation; when none stops, the last one's verdict does."""
    if not criteria:
        raise ValueError("either() needs at least one criterion")

    def criterion(previous: Any, current: Any, iteration: int) -> Verdict:
        for check in criteria:
            verdict = check(previous, current, iteration)
            if verdict:
                break
        return verdict

    return criterion
