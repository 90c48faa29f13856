"""Default ``merge`` strategies (Section III-B).

For models representable as key/value pairs the paper's defaults are:
averaging corresponding entries (model copies, e.g. K-means centroids),
summing them, or concatenating disjoint parts (model was split, e.g.
PageRank sub-graphs).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Sequence

import numpy as np


def _check_models(models: Sequence[Mapping[Any, Any]]) -> None:
    if not models:
        raise ValueError("merge needs at least one model")
    for i, m in enumerate(models):
        if not isinstance(m, Mapping):
            raise TypeError(
                f"default mergers operate on KV models (mappings); model {i} "
                f"is {type(m).__name__}"
            )


def average_merge(models: Sequence[Mapping[Any, Any]]) -> dict[Any, Any]:
    """Average corresponding entries across model copies.

    Keys missing from some copies are averaged over the copies that have
    them (a sub-problem may not have updated every element).
    """
    _check_models(models)
    sums: dict[Any, Any] = {}
    counts: dict[Any, int] = {}
    for model in models:
        for key, value in model.items():
            if key in sums:
                sums[key] = sums[key] + np.asarray(value, dtype=float)
                counts[key] += 1
            else:
                sums[key] = np.asarray(value, dtype=float).copy()
                counts[key] = 1
    merged: dict[Any, Any] = {}
    for key, total in sums.items():
        value = total / counts[key]
        merged[key] = float(value) if value.ndim == 0 else value
    return merged


def sum_merge(models: Sequence[Mapping[Any, Any]]) -> dict[Any, Any]:
    """Sum corresponding entries across model copies."""
    _check_models(models)
    out: dict[Any, Any] = {}
    for model in models:
        for key, value in model.items():
            if key in out:
                out[key] = out[key] + np.asarray(value, dtype=float)
            else:
                out[key] = np.asarray(value, dtype=float).copy()
    return {
        k: (float(v) if np.ndim(v) == 0 else v) for k, v in out.items()
    }


def concat_merge(models: Sequence[Mapping[Any, Any]]) -> dict[Any, Any]:
    """Disjoint union of model parts; overlapping keys are an error."""
    _check_models(models)
    merged: dict[Any, Any] = {}
    for i, model in enumerate(models):
        for key, value in model.items():
            if key in merged:
                raise ValueError(
                    f"concat_merge: key {key!r} appears in more than one "
                    f"sub-model (second occurrence in model {i}); use "
                    "average_merge or sum_merge for replicated models"
                )
            merged[key] = value
    return merged
