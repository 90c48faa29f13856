"""Element-at-a-time reference for ``build_column``'s kind selection.

This is the implementation ``build_column`` had before its checks became
whole-list C-level passes: the first value's type picks the candidate
kind, a Python ``all(...)`` over every value confirms it, arrays are
joined with ``np.stack``.  It defines which column kind a value list
gets and what the column holds.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mapreduce.columnar import (
    ArrayColumn,
    Column,
    ObjectColumn,
    ScalarColumn,
    StringColumn,
    TupleColumn,
)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _is_clean_ascii(s: str) -> bool:
    return s.isascii() and not s.endswith("\x00")


def reference_build_column(values: list[Any]) -> Column:
    """The most specific column that represents ``values`` losslessly."""
    if not values:
        return ObjectColumn([])
    first = values[0]
    t = type(first)
    if t is bool:
        if all(type(v) is bool for v in values):
            return ScalarColumn("bool", np.array(values, dtype=bool))
    elif t is int:
        if all(type(v) is int and _INT64_MIN <= v <= _INT64_MAX for v in values):
            return ScalarColumn("int", np.array(values, dtype=np.int64))
    elif t is float:
        if all(type(v) is float for v in values):
            return ScalarColumn("float", np.array(values, dtype=np.float64))
    elif t is str:
        if all(type(v) is str and _is_clean_ascii(v) for v in values):
            return StringColumn(np.array(values))
    elif t is np.ndarray:
        dtype, shape = first.dtype, first.shape
        if shape and all(
            type(v) is np.ndarray and v.dtype == dtype and v.shape == shape
            for v in values
        ):
            return ArrayColumn(np.stack(values))
    elif t is tuple:
        arity = len(first)
        if all(type(v) is tuple and len(v) == arity for v in values):
            if arity == 0:
                return TupleColumn((), length=len(values))
            slots = tuple(
                reference_build_column([v[s] for v in values]) for s in range(arity)
            )
            return TupleColumn(slots, length=len(values))
    return ObjectColumn(list(values))
