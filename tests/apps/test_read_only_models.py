"""Every app's model is read-only wherever a callback gets it.

A model's values are views of its columns (K-means and smoothing: an
array column; PageRank and the linear solver: a scalar column) or the
ndarrays an object column holds (the neural net's four weight tensors).
A callback writing into one — a mapper through ``ctx.model``, a
``merge()`` through one of its partial models — would change what every
other task sharing the model sees, in this process though not in a pool
worker.  ``read_only`` makes the write raise ``ValueError`` instead, for
the initial model, each solved sub-model and the merged model, at the
perf ledger's input sizes.
"""

import numpy as np
import pytest

from repro.apps.kmeans.program import KMeansProgram
from repro.apps.linsolve.program import LinearSolverProgram
from repro.apps.neuralnet.program import NeuralNetProgram
from repro.apps.pagerank.program import PageRankProgram
from repro.apps.smoothing.program import ImageSmoothingProgram
from repro.mapreduce.columnar import ColumnBatch
from repro.mapreduce.job import JobSpec
from repro.mapreduce.runner import JobRunner
from repro.parallel.executor import ProcessPoolTaskExecutor, SerialExecutor
from repro.parallel.tasks import compute_job
from repro.pic.engine import BestEffortEngine, best_effort_dfs
from repro.pic.model import as_model
from tests.pic.test_inmemory_job import WORKLOADS

APPS = sorted(WORKLOADS)
EXECUTORS = [
    pytest.param(SerialExecutor(), id="serial"),
    pytest.param(ProcessPoolTaskExecutor(2), id="pool"),
]


def _write_into(model):
    """Write into the array that holds ``model``'s first value."""
    value = model[next(iter(model))]
    if isinstance(value, np.ndarray):
        value[...] = 0
    else:
        model.value_column.values[:1] = 0


def _map_writes_model(ctx, records):
    _write_into(ctx.model)


def _reduce_nothing(ctx, grouped):
    pass


class _MergeWritesAPartial:
    def merge(self, models):
        _write_into(models[0])
        return super().merge(models)


class _KMeans(_MergeWritesAPartial, KMeansProgram):
    pass


class _LinearSolver(_MergeWritesAPartial, LinearSolverProgram):
    pass


class _NeuralNet(_MergeWritesAPartial, NeuralNetProgram):
    pass


class _PageRank(_MergeWritesAPartial, PageRankProgram):
    pass


class _Smoothing(_MergeWritesAPartial, ImageSmoothingProgram):
    pass


_MERGE_WRITER = {
    KMeansProgram: _KMeans,
    LinearSolverProgram: _LinearSolver,
    NeuralNetProgram: _NeuralNet,
    PageRankProgram: _PageRank,
    ImageSmoothingProgram: _Smoothing,
}


def _raises_on_write(model):
    with pytest.raises(ValueError, match="read-only"):
        _write_into(model)


@pytest.mark.parametrize("app", APPS)
def test_initial_solved_and_merged_models_are_read_only(app):
    w = WORKLOADS[app]()
    program = w.program
    initial = as_model(w.initial_model)
    _raises_on_write(initial)
    subproblems = program.partition(
        ColumnBatch.from_rows(w.records), initial, w.num_partitions, seed=3
    )
    solved = [
        program.solve_in_memory(records, as_model(sub_model))[0]
        for records, sub_model in subproblems
    ]
    for model in solved:
        _raises_on_write(model)
    _raises_on_write(as_model(program.merge(solved)))


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("app", APPS)
def test_mapper_writing_ctx_model_raises(app, executor):
    w = WORKLOADS[app]()
    splits = ColumnBatch.from_rows(w.records).even_slices(2)
    spec = JobSpec(
        name="writes-model", mapper=_map_writes_model, reducer=_reduce_nothing, num_reducers=1
    )
    with pytest.raises(ValueError, match="read-only"):
        compute_job(spec, as_model(w.initial_model), splits, 1, executor)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("app", APPS)
def test_merge_writing_a_partial_model_raises(app, executor):
    # The round's sub-problems are solved through ``executor``; the
    # reducer rebuilds their partial models and hands them to merge().
    w = WORKLOADS[app]()
    program = object.__new__(_MERGE_WRITER[type(w.program)])
    program.__dict__.update(vars(w.program))
    cluster = w.cluster_factory()
    engine = BestEffortEngine(
        cluster,
        program,
        w.num_partitions,
        be_max_iterations=1,
        runner=JobRunner(cluster, best_effort_dfs(cluster), executor=executor),
    )
    with pytest.raises(ValueError, match="read-only"):
        engine.run(w.records, w.initial_model)
