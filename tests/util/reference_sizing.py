"""The ``isinstance`` ladder ``sizeof_value`` was before it became a
``{type: rule}`` table: the sizing rules of :mod:`repro.util.sizing`,
tested in the order that is part of their contract (``bool`` before
``int``, ``np.generic`` before ``str``/``bytes``).  The table must
return the same size, or raise the same ``TypeError``, for every value.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.util.sizing import ARRAY_HEADER, SEQ_HEADER, STR_HEADER


def reference_sizeof_value(value: Any) -> int:
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, np.generic):
        return int(value.dtype.itemsize)
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + ARRAY_HEADER
    if isinstance(value, bytes):
        return len(value) + STR_HEADER
    if isinstance(value, str):
        return len(value.encode("utf-8")) + STR_HEADER
    if isinstance(value, (tuple, list, set, frozenset)):
        return SEQ_HEADER + sum(reference_sizeof_value(v) for v in value)
    if isinstance(value, dict):
        return SEQ_HEADER + sum(
            reference_sizeof_value(k) + reference_sizeof_value(v)
            for k, v in value.items()
        )
    raise TypeError(
        f"cannot size value of type {type(value).__name__}; "
        "emit ints, floats, strings, numpy arrays, or nested tuples/lists/dicts"
    )
