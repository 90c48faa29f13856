"""The convergence distance as an element-by-element loop.

``reference_kv_model_max_change`` is ``kv_model_max_change`` as it was
before two float64 array columns of one shape took one subtraction and
a per-row ``ndarray.dot``: each element's values made arrays, their
difference's ``np.linalg.norm``, and the largest kept by Python's
``max`` from 0.0 — so a NaN norm never wins.  The array path must equal
it bit for bit.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.pic.model import as_model


def reference_kv_model_max_change(
    previous: Mapping[Any, Any], current: Mapping[Any, Any]
) -> float:
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
