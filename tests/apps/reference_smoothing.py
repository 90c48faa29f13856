"""The smoothing stencil as it read the model by key.

``reference_batch_map`` is ``ImageSmoothingProgram.batch_map`` as it was
before its reads became positions in the value array: its own rows
through ``model.lookup``, each up/down neighbour through a per-row
``model.get(i ± 1)`` stacked into a masked addition, and ``count``
patched pass by pass.  It defines what the stencil must emit: the same
keys, and pixels equal to the last bit (a −0.0 included).
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce.columnar import ArrayColumn, ColumnBatch, int_column, stack_rows
from repro.mapreduce.job import TaskContext
from repro.pic.model import as_model


def reference_batch_map(
    lam: float, width: int, ctx: TaskContext, records: ColumnBatch
) -> None:
    if not len(records):
        return
    model = as_model(ctx.model)
    ids = [int(key) for key in records.keys.rows()]
    if isinstance(records.values, ArrayColumn):
        f = records.values.data
    else:
        f = np.stack([np.asarray(row, dtype=float) for row in records.values.rows()])
    n = len(ids)
    u = stack_rows(model.lookup(records.keys))
    count = np.full((n, width), 2.0)  # E/W neighbours (minus edges)
    count[:, 0] -= 1.0
    count[:, -1] -= 1.0
    total = np.zeros((n, width))
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
