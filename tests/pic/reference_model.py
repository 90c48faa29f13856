"""The dict model, as the loop carried it before the model became a
keyed column table.

These are ``repro.pic.model``'s helpers and the apps' ``build_model`` as
they were while a model was a plain ``dict`` that every job flattened,
sorted, sized entry by entry and rebuilt.  They define what the table
(:class:`repro.pic.model.KeyedModel`) must produce: the same records in
the same order, the same serialized size, the same model after a reduce
output is folded in.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.util.sizing import sizeof_value


def reference_model_to_records(model: dict[Any, Any]) -> list[tuple[Any, Any]]:
    """Flatten a KV model to records, deterministically ordered."""
    try:
        keys = sorted(model)
    except TypeError:
        keys = sorted(model, key=repr)
    return [(k, model[k]) for k in keys]


def reference_model_nbytes(model: dict[Any, Any]) -> int:
    """Serialized size, one recursive ``sizeof_value`` per key and value."""
    return sum(sizeof_value(k) + sizeof_value(v) for k, v in model.items())


def reference_build_model(
    model: dict[Any, Any], output: Iterable[tuple[Any, Any]]
) -> dict[Any, Any]:
    """Fold a reduce output into a copy of the model, record by record."""
    new_model = dict(model)
    for key, value in output:
        new_model[key] = value
    return new_model
