"""K-means' per-group sums as a Python loop over the groups.

This is ``repro.apps.kmeans.program._sum_groups`` as it was before the
sums became one ``group_sums`` call: ``np.add.reduce`` over each group's
contiguous slice of the sorted value matrix.  For vectors of two or more
elements that reduction adds the rows one after the other, so it defines
what the kernel must return for them; a one-element vector is reduced
pairwise, which is why the vectorized forms answer to the scalar
``combine`` there instead.
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce.columnar import GroupedBatch


def reference_sum_groups(grouped: GroupedBatch) -> tuple[np.ndarray, np.ndarray]:
    vecs, cnts = grouped.sorted_values.slots
    data = vecs.data
    counts = cnts.values
    num_groups = len(grouped)
    totals = np.empty((num_groups, data.shape[1]), dtype=np.float64)
    csums = np.empty(num_groups, dtype=np.int64)
    starts = grouped.starts.tolist()
    ends = grouped.ends.tolist()
    for g in range(num_groups):
        s, e = starts[g], ends[g]
        totals[g] = np.add.reduce(data[s:e], axis=0)
        csums[g] = counts[s:e].sum()
    return totals, csums
