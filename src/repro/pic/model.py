"""The model as a keyed column table.

The paper requires only that "the model be expressed in the form of
key/value pairs" so elements are uniquely identifiable across
sub-problems (Section III-C).  The loop carries a model as a
:class:`KeyedModel`: a key column in :func:`model_to_records` order
beside a value column, the same structure-of-arrays form the records
travel in.  To user code it is a read-only ``Mapping``; to the loop it
is two columns — a reduce output folds into it with one scatter
(:meth:`KeyedModel.updated`) and its wire size is a closed form over
the value column plus a key size computed once for as long as the key
set stays the same.  Plain dicts are welcome wherever a model enters
the library; :func:`as_model` is the one place they become tables.
"""

from __future__ import annotations

import copy
from collections.abc import ItemsView, KeysView, Mapping, ValuesView
from typing import Any, Iterable, Iterator

import numpy as np

from repro.mapreduce.columnar import (
    ArrayColumn,
    Column,
    ColumnBatch,
    ObjectColumn,
    ScalarColumn,
    build_column,
)


class _Keys:
    """A key column and what depends on it alone — its wire size and the
    key → row index — computed on first use and shared by every table
    over this column: a loop whose key set is fixed sizes and indexes
    its keys once, not once per iteration."""

    __slots__ = ("column", "_nbytes", "_index")

    def __init__(self, column: Column) -> None:
        self.column = column
        self._nbytes: int | None = None
        self._index: dict[Any, int] | None = None

    def nbytes_wire(self) -> int:
        if self._nbytes is None:
            self._nbytes = self.column.nbytes_wire()
        return self._nbytes

    def index(self) -> dict[Any, int]:
        if self._index is None:
            rows = self.column.rows()
            self._index = dict(zip(rows, range(len(rows))))
        return self._index


class KeyedModel(Mapping[Any, Any]):
    """A key/value model: ``key_column`` (distinct hashable keys, in
    :func:`model_to_records` order — :func:`as_model` sorts, the
    constructor trusts its caller) and ``value_column``, row for row.

    Reads like a ``dict`` (``model[k]``, ``.get``, ``.items()``,
    iteration in key order, ``==`` against any mapping) through a dict
    view built on first use; never written to — :meth:`updated` derives
    the next model and drops this one's view, so a superseded model
    kept in a trace holds its two columns and nothing else.  Pickling
    and ``deepcopy`` carry the columns only.
    """

    __slots__ = ("_keys", "value_column", "_view")

    def __init__(self, keys: Column | _Keys, values: Column) -> None:
        self._keys = keys if isinstance(keys, _Keys) else _Keys(keys)
        if len(self._keys.column) != len(values):
            raise ValueError(
                f"key column has {len(self._keys.column)} rows, "
                f"value column {len(values)}"
            )
        self.value_column = values
        self._view: dict[Any, Any] | None = None

    @property
    def key_column(self) -> Column:
        """The keys, in :func:`model_to_records` order."""
        return self._keys.column

    def batch(self) -> ColumnBatch:
        """The model's records, in key order, as one batch (no copy)."""
        return ColumnBatch(self._keys.column, self.value_column)

    # -- the loop's side ---------------------------------------------------

    def nbytes_wire(self) -> int:
        """Serialized size; equals ``sizeof_records(model_to_records(self))``."""
        return self._keys.nbytes_wire() + self.value_column.nbytes_wire()

    def _positions(self, keys: Column) -> np.ndarray:
        """The row of each of ``keys``; ``KeyError`` for one not held."""
        rows = keys.rows()
        return np.fromiter(
            map(self._keys.index().__getitem__, rows), dtype=np.int64, count=len(rows)
        )

    def lookup(self, keys: Column) -> Column:
        """The values under ``keys``, in their order, as one column: the
        batch form of ``[model[k] for k in keys.rows()]`` (``KeyError``
        names the first key the model does not hold).  Asked for its own
        key column — what the models of one loop share — it answers with
        its value column, no copy."""
        if keys is self._keys.column:
            return self.value_column
        return self.value_column.take(self._positions(keys))

    def updated(self, batch: ColumnBatch) -> "KeyedModel":
        """This model with ``batch``'s records upserted (a later record
        of one key wins, as in a dict).  When every key is already
        present the result shares this model's key column object — and
        so its size and index — and its value column is a copy with the
        new values scattered in; a new key, or values of another kind
        than the column holds, rebuilds through rows."""
        if not len(batch):
            return self
        try:
            positions = self._positions(batch.keys)
        except KeyError:
            merged = dict(self._dict())
            merged.update(batch.to_rows())
            derived = as_model(merged)
        else:
            derived = KeyedModel(
                self._keys, _scatter(self.value_column, positions, batch.values)
            )
        self._view = None
        return derived

    # -- the Mapping side --------------------------------------------------

    def _dict(self) -> dict[Any, Any]:
        view = self._view
        if view is None:
            view = self._view = dict(
                zip(self._keys.column.rows(), self.value_column.rows())
            )
        return view

    def __getitem__(self, key: Any) -> Any:
        return self._dict()[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self.value_column)

    def __contains__(self, key: object) -> bool:
        return key in self._dict()

    def get(self, key: Any, default: Any = None) -> Any:
        return self._dict().get(key, default)

    def keys(self) -> KeysView[Any]:
        return self._dict().keys()

    def values(self) -> ValuesView[Any]:
        return self._dict().values()

    def items(self) -> ItemsView[Any, Any]:
        return self._dict().items()

    def __repr__(self) -> str:
        return f"KeyedModel({self._dict()!r})"

    def __reduce__(self) -> tuple[Any, tuple[Column, Column]]:
        return (KeyedModel, (self._keys.column, self.value_column))

    def __deepcopy__(self, memo: dict[int, Any]) -> "KeyedModel":
        # Keys are hashable, hence immutable: only the values are copied.
        return KeyedModel(self._keys, copy.deepcopy(self.value_column, memo))


def _scatter(column: Column, positions: np.ndarray, values: Column) -> Column:
    """``column`` with ``values`` written at ``positions``.  An array
    column takes values of the kind it stores into a copy of its array;
    any other pairing — and a repeated position, where only a row-by-row
    write makes the last one win — goes through rows, which an object
    column keeps as they are and a typed one re-infers its kind from."""
    if isinstance(column, ScalarColumn):
        if (
            isinstance(values, ScalarColumn)
            and values.kind == column.kind
            and _distinct(positions)
        ):
            scalars = column.values.copy()
            scalars[positions] = values.values
            return ScalarColumn(column.kind, scalars)
    elif isinstance(column, ArrayColumn):
        if (
            isinstance(values, ArrayColumn)
            and values.data.dtype == column.data.dtype
            and values.data.shape[1:] == column.data.shape[1:]
            and _distinct(positions)
        ):
            data = column.data.copy()
            data[positions] = values.data
            return ArrayColumn(data)
    rows = column.rows()
    for position, value in zip(positions.tolist(), values.rows()):
        rows[position] = value
    return ObjectColumn(rows) if isinstance(column, ObjectColumn) else build_column(rows)


def _distinct(positions: np.ndarray) -> bool:
    return int(np.bincount(positions).max()) == 1


def as_model(model: Mapping[Any, Any]) -> KeyedModel:
    """``model`` as a table: a :class:`KeyedModel` passes through, any
    other ``Mapping`` (a dict from ``initial_model``, ``partition`` or
    ``merge``) is columnized in :func:`model_to_records` order — sorted
    keys, or sorted by ``repr`` when the keys do not compare.  Every
    key and value round-trips exactly (``build_column`` is lossless)."""
    if isinstance(model, KeyedModel):
        return model
    if not isinstance(model, Mapping):
        raise TypeError(
            "a model is a mapping of hashable keys to values; got "
            f"{type(model).__name__}"
        )
    try:
        keys = sorted(model)
    except TypeError:
        keys = sorted(model, key=repr)
    return KeyedModel(build_column(keys), build_column([model[k] for k in keys]))


def model_to_records(model: Mapping[Any, Any]) -> list[tuple[Any, Any]]:
    """Flatten a KV model to records, deterministically ordered."""
    return as_model(model).batch().to_rows()


def records_to_model(records: Iterable[tuple[Any, Any]]) -> KeyedModel:
    """Rebuild a KV model; duplicate keys are an error (lost updates)."""
    model: dict[Any, Any] = {}
    for key, value in records:
        if key in model:
            raise ValueError(f"duplicate model key {key!r} while rebuilding model")
        model[key] = value
    return as_model(model)


def model_nbytes(model: Mapping[Any, Any]) -> int:
    """Serialized size of the model (the per-iteration update volume)."""
    return as_model(model).nbytes_wire()
