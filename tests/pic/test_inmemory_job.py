"""A local IC iteration is a job over one split and one reducer.

``PICProgram.run_iteration_in_memory`` runs each job of an iteration
through :func:`repro.parallel.tasks.compute_job`, the computation every
cluster job runs.  ``tests/pic/reference_inmemory.py`` is the iteration
as it was while a best-effort map task ran the mapper, the grouping, the
combiner and the reducer by hand; every app's local solves must come out
of both byte for byte.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import workloads as paper_workloads
from repro.mapreduce.columnar import ColumnBatch, group_batch, singleton_groups
from repro.mapreduce.job import JobSpec
from repro.parallel.executor import SerialExecutor
from repro.parallel.tasks import compute_job
from repro.pic.model import model_to_records
from tests.pic.reference_inmemory import reference_solve_in_memory
from tests.pic.toy import MeanProgram


#: The perf ledger's input sizes, one workload per app.
WORKLOADS = {
    "kmeans": lambda: paper_workloads.kmeans_small(num_points=100_000, seed=3),
    "pagerank": lambda: paper_workloads.pagerank_small(num_vertices=600, seed=1),
    "linsolve": paper_workloads.linsolve_small,
    "neuralnet": lambda: paper_workloads.neuralnet_medium(num_samples=4_200, seed=7),
    "smoothing": lambda: paper_workloads.smoothing_medium(side=64, num_partitions=32),
}


def _same(a, b) -> bool:
    """Byte equality of two model values: arrays by dtype, shape and
    bytes, floats by their bits (``-0.0`` is not ``0.0``, NaN is NaN),
    sequences element by element."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("app", sorted(WORKLOADS))
def test_local_solves_equal_the_reference_byte_for_byte(app):
    w = WORKLOADS[app]()
    program = w.program
    subproblems = program.partition(
        ColumnBatch.from_rows(w.records), w.initial_model, w.num_partitions, seed=3
    )
    for records, sub_model in subproblems:
        model, iterations, compute = program.solve_in_memory(records, sub_model)
        ref_model, ref_iterations, ref_compute = reference_solve_in_memory(
            program, records, sub_model
        )
        assert iterations == ref_iterations
        assert compute == ref_compute
        rows, ref_rows = model_to_records(model), model_to_records(ref_model)
        assert len(rows) == len(ref_rows)
        for (key, value), (ref_key, ref_value) in zip(rows, ref_rows):
            assert _same(key, ref_key)
            assert _same(value, ref_value), key


# -- the reducer's view of one combined split -----------------------------

_INTS = st.integers(-3, 3)
_FLOATS = st.sampled_from([0.0, -0.0, 1.5, math.nan, math.inf])
_STRS = st.sampled_from(["", "a", "b", "ab"])
_PAIRS = st.tuples(st.integers(0, 2), st.sampled_from(["x", "y"]))

#: One key type per split (a typed key column), or every type mixed (an
#: object column).
_SPLIT_KEYS = st.one_of(
    *(st.lists(keys, max_size=12) for keys in (_INTS, _FLOATS, _STRS, _PAIRS)),
    st.lists(st.one_of(_INTS, _FLOATS, _STRS, _PAIRS, st.booleans()), max_size=12),
)


def _emit_split(ctx, records):
    ctx.emit_batch(records)


def _combine_to_tuples(grouped):
    # One record per group, its values' order kept in the value.
    return ColumnBatch.from_rows([(key, tuple(values)) for key, values in grouped])


def _seen(grouped):
    """What a reducer is handed: column kinds, group bounds, and every
    group's key (by type and repr: NaN, -0.0) and values."""
    return (
        type(grouped.sorted_keys), type(grouped.sorted_values),
        grouped.starts.tolist(),
        [(type(key), repr(key), repr(values)) for key, values in grouped],
    )


class _ReducerView:
    """A reducer that keeps :func:`_seen` of every input it is handed."""

    def __init__(self):
        self.seen = []

    def __call__(self, ctx, grouped):
        self.seen.append(_seen(grouped))


class TestOneSplitWithACombiner:
    @settings(max_examples=150, deadline=None)
    @given(_SPLIT_KEYS)
    def test_reducer_sees_the_combined_groups_as_singletons(self, keys):
        records = ColumnBatch.from_rows([(key, i) for i, key in enumerate(keys)])
        view = _ReducerView()
        spec = JobSpec(
            name="view", mapper=_emit_split, reducer=view,
            combiner=_combine_to_tuples, num_reducers=1,
        )
        compute_job(spec, None, [records], 1, SerialExecutor())
        reference = singleton_groups(spec.run_combiner(group_batch(records)))
        assert view.seen == [_seen(reference)]


class TestOneKeyRule:
    def test_a_local_iteration_refuses_a_key_a_job_refuses(self):
        class NoneKey(MeanProgram):
            def map(self, ctx, key, value):
                ctx.emit(None, (value, 1))

        with pytest.raises(TypeError, match="NoneType"):
            NoneKey().solve_in_memory([(i, float(i)) for i in range(8)], {"mean": 0.0})
