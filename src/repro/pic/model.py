"""Key/value model representation.

The paper requires only that "the model be expressed in the form of
key/value pairs" so elements are uniquely identifiable across
sub-problems (Section III-C).  We represent a model as a plain ``dict``
mapping hashable keys to values (floats, NumPy arrays, or nested
tuples); these helpers convert to/from record lists and measure
serialized size for traffic accounting.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.util.sizing import sizeof_records

KVModel = dict


def model_to_records(model: dict[Any, Any]) -> list[tuple[Any, Any]]:
    """Flatten a KV model to records, deterministically ordered."""
    try:
        keys = sorted(model)
    except TypeError:
        keys = sorted(model, key=repr)
    return [(k, model[k]) for k in keys]


def records_to_model(records: Iterable[tuple[Any, Any]]) -> dict[Any, Any]:
    """Rebuild a KV model; duplicate keys are an error (lost updates)."""
    model: dict[Any, Any] = {}
    for key, value in records:
        if key in model:
            raise ValueError(f"duplicate model key {key!r} while rebuilding model")
        model[key] = value
    return model


def model_nbytes(model: dict[Any, Any]) -> int:
    """Serialized size of the model (the per-iteration update volume): a sum, so unordered."""
    return sizeof_records(model.items())
