"""The neural net's local solve does only the work its result needs.

* ``combine_batch`` / ``batch_reduce`` fold every group of a call at
  once; they must equal the record-at-a-time combiner and reducer
  (``tests/apps/reference_neuralnet.py``) byte for byte: rows, column
  kinds and wire size (the IC jobs' shuffle bytes are in the ledger
  digest).
* Each model's validation error is computed once: the model a check
  scores last is the next check's ``previous``.  The verdicts must equal
  those of the two-pass criterion, and the remembered score must not
  travel with a pickled program.
"""

import copy
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.neuralnet import MLP, NeuralNetProgram, ocr_dataset
from repro.apps.neuralnet import program as nn_program
from repro.apps.neuralnet.mlp import PARAM_KEYS, misclassification
from repro.harness import workloads as paper_workloads
from repro.mapreduce.columnar import (
    ArrayColumn,
    Column,
    ColumnBatch,
    GroupedBatch,
    TupleColumn,
    columnize,
    group_batch,
)
from repro.mapreduce.driver import iterate
from repro.mapreduce.job import TaskContext
from repro.pic.runner import PICRunner
from repro.util.rng import as_generator
from tests.apps.reference_neuralnet import (
    reference_batch_reduce,
    reference_combine_batch,
)


def make_program(**kw):
    _r, Xv, yv = ocr_dataset(200, seed=99)
    return NeuralNetProgram(MLP(64, 32, 10), validation=(Xv, yv), **kw)


# -- batch combine and reduce against the record-at-a-time defaults --------

_SHAPES = st.sampled_from([(2,), (3,), (2, 3), (3, 2)])
_ELEMENTS = st.floats(-1e3, 1e3, allow_nan=False, width=64) | st.sampled_from(
    [0.0, -0.0, 1e-300, np.nan]
)


@st.composite
def _groupings(draw):
    """A grouping of 1-3 ``(weights, count)`` values under each of a few
    parameter keys, in shuffled record order: per-key tensor shapes, or
    one shape shared by every tensor in the call."""
    keys = draw(st.lists(st.sampled_from(PARAM_KEYS), min_size=1, max_size=4, unique=True))
    shared = draw(st.one_of(st.none(), _SHAPES))
    rows = []
    for key in keys:
        shape = shared if shared is not None else draw(_SHAPES)
        for _ in range(draw(st.integers(1, 3))):
            weights = draw(arrays(np.float64, shape, elements=_ELEMENTS))
            rows.append((key, (weights, draw(st.integers(0, 500)))))
    order = draw(st.permutations(range(len(rows))))
    return group_batch(ColumnBatch.from_rows([rows[i] for i in order]))


def _kinds(column: Column):
    """A column's kind tree: its type, and its slots' kinds."""
    if isinstance(column, TupleColumn):
        return (TupleColumn, tuple(_kinds(slot) for slot in column.slots))
    return type(column)


def _bits(value):
    """A row value as comparable bytes: arrays by dtype, shape and
    bytes, floats by their bits, tuples element by element."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return (type(value), value)


def _same_batch(batch: ColumnBatch, reference: ColumnBatch) -> None:
    assert _kinds(batch.keys) == _kinds(reference.keys)
    assert _kinds(batch.values) == _kinds(reference.values)
    assert [(_bits(k), _bits(v)) for k, v in batch.to_rows()] == [
        (_bits(k), _bits(v)) for k, v in reference.to_rows()
    ]
    assert batch.nbytes_wire() == reference.nbytes_wire()


class TestBatchCombineAndReduce:
    @settings(max_examples=150, deadline=None)
    @given(_groupings())
    def test_combine_batch_equals_combine_per_group(self, grouped: GroupedBatch):
        program = make_program()
        _same_batch(program.combine_batch(grouped), reference_combine_batch(grouped))

    @settings(max_examples=150, deadline=None)
    @given(_groupings())
    def test_batch_reduce_equals_reduce_per_group(self, grouped: GroupedBatch):
        program = make_program()
        batch, default = TaskContext(), TaskContext()
        program.batch_reduce(batch, grouped)
        reference_batch_reduce(default, grouped)
        _same_batch(batch.collect(), default.collect())

    def test_one_shared_shape_builds_an_array_column(self):
        # Every tensor of the call has one shape: ``from_rows`` stacks
        # them into an array column, and so must the batch reduce.
        program = make_program()
        grouped = group_batch(ColumnBatch.from_rows([
            ("b1", (np.full(3, 2.0), 2)), ("b2", (np.ones(3), 1)), ("b1", (np.ones(3), 1)),
        ]))
        batch, default = TaskContext(), TaskContext()
        program.batch_reduce(batch, grouped)
        reference_batch_reduce(default, grouped)
        out = batch.collect()
        _same_batch(out, default.collect())
        assert isinstance(out.values, ArrayColumn)
        assert out.values.data.tolist() == [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]

    def test_combined_tensors_are_copies(self):
        program = make_program()
        grouped = group_batch(columnize([("W1", (np.ones((2, 2)), 1))]))
        combined = program.combine_batch(grouped)
        (weights, count), = combined.values.rows()
        assert count == 1
        assert weights is not grouped.sorted_values.rows()[0][0]


# -- one validation pass per model ----------------------------------------


class _TwoPasses(NeuralNetProgram):
    """The criterion as it was: both models scored on every check."""

    def _improvement(self, previous, current):
        Xv, yv = self.validation
        return misclassification(previous, Xv, yv) - misclassification(current, Xv, yv)


def _solve_verdicts(program, records, model):
    """Every verdict of a local solve, in order."""
    batch = columnize(records)
    return [
        verdict
        for _model, _compute, verdict in iterate(
            lambda current, it: program.run_iteration_in_memory(batch, current, it),
            program.converged, program.local_max_iterations(), model,
        )
    ]


@pytest.fixture
def scored(monkeypatch):
    """Every model ``misclassification`` is asked to score, in order."""
    seen = []
    real = nn_program.misclassification

    def spy(params, X, y):
        seen.append(params)
        return real(params, X, y)

    monkeypatch.setattr(nn_program, "misclassification", spy)
    return seen


class TestOneValidationPassPerModel:
    def _subproblem(self):
        # A sub-problem's size (the ledger's are ~63 records), here one
        # whose error keeps dropping for five checks.
        records, _X, _y = ocr_dataset(60, seed=1)
        program = make_program()
        return program, records, program.initial_model(records, seed=6)

    def test_each_model_checked_is_scored_once(self, scored):
        program, records, model = self._subproblem()
        verdicts = _solve_verdicts(program, records, model)
        checks = sum(v.reason == "threshold" for v in verdicts)
        assert checks == 5
        # The first check scores two models; every later one, one more.
        assert len(scored) == checks + 1
        assert len({id(m) for m in scored}) == len(scored)

    def test_verdicts_equal_the_two_pass_criterion(self):
        program, records, model = self._subproblem()
        reference = _TwoPasses(MLP(64, 32, 10), validation=program.validation)
        memoized = _solve_verdicts(program, records, model)
        assert memoized == _solve_verdicts(reference, records, model)
        assert [v.measured for v in memoized if v.reason == "threshold"]

    def test_a_plain_dict_is_scored_every_time(self, scored):
        # A dict may change under one identity, so it is not remembered.
        program = make_program()
        model = program.initial_model([], seed=0)
        program.converged(model, model, 2)
        program.converged(model, model, 3)
        assert len(scored) == 4

    def test_pickle_is_the_same_bytes_after_a_solve(self):
        program, records, model = self._subproblem()
        before = pickle.dumps(program)
        program.solve_in_memory(records, model)
        assert pickle.dumps(program) == before
        assert pickle.loads(before).converged(model, model, 2) == program.converged(
            model, model, 2
        )

    def test_a_serial_run_scores_each_model_once(self, monkeypatch):
        # The perf ledger's neural-net workload (seed 1), serially, with
        # its caps of 8 best-effort rounds and 2 top-off iterations: two
        # passes per check made 3,540 passes over 2,274 local iterations.
        passes = []
        real = nn_program.misclassification

        def counting(params, X, y):
            passes.append(1)
            return real(params, X, y)

        monkeypatch.setattr(nn_program, "misclassification", counting)
        base = paper_workloads.neuralnet_medium(num_samples=4_200, seed=7)
        picks = as_generator(1).integers(0, len(base.records), size=len(base.records))
        records = [(i, base.records[int(p)][1]) for i, p in enumerate(picks)]
        runner = PICRunner(
            base.cluster_factory(), base.program, num_partitions=base.num_partitions,
            seed=3, be_max_iterations=8, max_iterations=2, workers=1, pipeline=False,
        )
        pic = runner.run(records, initial_model=copy.deepcopy(base.initial_model))
        assert sum(sum(s.local_iterations) for s in pic.best_effort.stats) == 2_274
        assert (pic.be_iterations, pic.topoff_iterations) == (8, 2)
        assert len(passes) == 2_290
