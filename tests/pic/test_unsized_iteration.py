"""A local iteration computes the next model and nothing else.

No simulation charges a best-effort local iteration for its map output,
so ``compute_job`` runs its lone map task in this process and sizes
nothing: no bucket bytes, no raw-output bytes (for the neural net a
walk over four tensors per record).  The byte-for-byte oracle of what it
does compute is ``tests/pic/test_inmemory_job.py``.
"""

import pytest

from repro.harness import workloads as paper_workloads
from repro.mapreduce import columnar
from repro.mapreduce.columnar import ColumnBatch, columnize
from repro.parallel.executor import SerialExecutor, TaskExecutor
from repro.parallel.tasks import compute_job
from repro.pic.model import as_model

#: One small workload per app.
WORKLOADS = {
    "kmeans": lambda: paper_workloads.kmeans_small(num_points=4_000, seed=3),
    "pagerank": lambda: paper_workloads.pagerank_small(num_vertices=200, seed=1),
    "linsolve": paper_workloads.linsolve_small,
    "neuralnet": lambda: paper_workloads.neuralnet_medium(num_samples=2_100, seed=7),
    "smoothing": lambda: paper_workloads.smoothing_medium(side=32, num_partitions=8),
}


@pytest.fixture
def sizings(monkeypatch):
    """The name of every sizing method called, batch or column."""
    calls = []
    targets = [ColumnBatch, *columnar.Column.__subclasses__()]
    for cls in targets:
        for name in ("bucket_nbytes", "nbytes_wire", "row_nbytes"):
            real = cls.__dict__.get(name)
            if real is None:
                continue

            def spy(self, *args, _real=real, _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _real(self, *args)

            monkeypatch.setattr(cls, name, spy)
    return calls


def _subproblem(app):
    w = WORKLOADS[app]()
    records, sub_model = w.program.partition(
        ColumnBatch.from_rows(w.records), w.initial_model, w.num_partitions, seed=3
    )[0]
    return w.program, columnize(records), as_model(sub_model)


@pytest.mark.parametrize("app", sorted(WORKLOADS))
def test_a_local_iteration_sizes_nothing(app, sizings):
    program, records, model = _subproblem(app)
    program.run_iteration_in_memory(records, model, 0)
    assert sizings == []


@pytest.mark.parametrize("app", ["neuralnet", "pagerank"])
def test_a_simulated_job_is_sized(app, sizings):
    # The spies see sizing wherever a simulation reads a charge.
    program, records, model = _subproblem(app)
    spec = program.jobs(model, 0)[0]
    job = compute_job(spec, model, [records], 1, SerialExecutor())
    assert "ColumnBatch.bucket_nbytes" in sizings
    assert len(job.charges) == 1


def test_a_local_iteration_bypasses_the_executor(monkeypatch):
    def refuse(self, fn, payloads):
        raise AssertionError("a local iteration went through an executor")

    monkeypatch.setattr(TaskExecutor, "map", refuse)
    program, records, model = _subproblem("neuralnet")
    program.run_iteration_in_memory(records, model, 0)
    spec = program.jobs(model, 0)[0]
    job = compute_job(spec, model, [records], 1, None)
    assert job.charges == [] and len(job.outputs) == 1
