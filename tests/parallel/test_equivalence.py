"""Parallel-vs-serial bit-identity for all five applications.

The contract of ``repro.parallel``: any ``PIC_WORKERS`` value changes
host wall-clock only.  Running each app's full PIC pipeline (partition,
co-locate, best-effort solves, merge, top-off) under ``PIC_WORKERS=1``
and ``PIC_WORKERS=4`` (one task per pool work item) or ``PIC_WORKERS=3``
(chunks of two tasks sharing one unpickled program/spec/model) must
produce the same merged model, the same per-round ``BEIterationStats``,
and the same traffic-meter snapshot — bit for bit, not approximately.
The contract holds on either schedule: the pipelined runs repeat both
worker counts.
"""

from collections.abc import Mapping

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.pic.runner import PICRunner


def _deep_equal(a, b) -> bool:
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        # A model is a dict at the edges and a table inside the loop.
        return set(a) == set(b) and all(_deep_equal(a[k], b[k]) for k in a)
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True)
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_deep_equal(x, y) for x, y in zip(a, b))
    return a == b


def _kmeans():
    from repro.apps.kmeans import KMeansProgram, gaussian_mixture

    records, _ = gaussian_mixture(600, 3, dim=3, separation=6.0, seed=2)
    program = KMeansProgram(k=3, dim=3, threshold=0.1)
    return program, records, program.initial_model(records, seed=3)


def _pagerank():
    from repro.apps.pagerank import PageRankProgram, local_web_graph

    records = local_web_graph(300, avg_out_degree=4.0, seed=2)
    program = PageRankProgram()
    return program, records, program.initial_model(records)


def _linsolve():
    from repro.apps.linsolve import LinearSolverProgram, diagonally_dominant_system
    from repro.apps.linsolve.datagen import system_records

    A, b, _ = diagonally_dominant_system(40, bandwidth=2, dominance=1.1, seed=2)
    records = system_records(A, b)
    program = LinearSolverProgram(threshold=1e-4)
    return program, records, program.initial_model(records)


def _neuralnet():
    from repro.apps.neuralnet import MLP, NeuralNetProgram, ocr_dataset

    records, X, y = ocr_dataset(210, seed=2)
    train, Xv, yv = records[:200], X[200:], y[200:]
    program = NeuralNetProgram(MLP(64, 8, 10), validation=(Xv, yv))
    return program, train, program.initial_model(train, seed=4)


def _smoothing():
    from repro.apps.smoothing import ImageSmoothingProgram, synthetic_image
    from repro.apps.smoothing.datagen import image_records

    img = synthetic_image(24, 24, seed=2)
    records = image_records(img)
    program = ImageSmoothingProgram(24, 24)
    return program, records, program.initial_model(records)


APPS = {
    "kmeans": _kmeans,
    "pagerank": _pagerank,
    "linsolve": _linsolve,
    "neuralnet": _neuralnet,
    "smoothing": _smoothing,
}


def _run_app(
    factory, monkeypatch, workers_env: str, num_partitions: int = 4, pipeline=False
):
    import copy

    monkeypatch.setenv("PIC_WORKERS", workers_env)
    program, records, model0 = factory()
    cluster = Cluster(num_nodes=4, nodes_per_rack=4)
    runner = PICRunner(
        cluster,
        program,
        num_partitions=num_partitions,
        seed=7,
        be_max_iterations=3,
        max_iterations=3,
        pipeline=pipeline,
    )
    result = runner.run(records, initial_model=copy.deepcopy(model0))
    return result, cluster.meter.snapshot()


@pytest.mark.parametrize("app", sorted(APPS))
def test_parallel_matches_serial_bit_for_bit(app, monkeypatch):
    _assert_same_run(
        _run_app(APPS[app], monkeypatch, "1"), _run_app(APPS[app], monkeypatch, "4")
    )


@pytest.mark.parametrize("app", sorted(APPS))
def test_chunk_mates_match_serial_bit_for_bit(app, monkeypatch):
    """Three workers x 16 solves and 16 top-off map tasks: every pool
    work item is a chunk of two payloads, which share one unpickled
    ``program``/``spec``/``model`` inside the worker as serial tasks do."""
    _assert_same_run(
        _run_app(APPS[app], monkeypatch, "1", num_partitions=16),
        _run_app(APPS[app], monkeypatch, "3", num_partitions=16),
    )


@pytest.mark.parametrize(
    ("workers", "num_partitions"), [("4", 4), ("3", 16)],
    ids=["four-workers", "three-workers-chunked"],
)
@pytest.mark.parametrize("app", sorted(APPS))
def test_pipelined_parallel_matches_serial_bit_for_bit(
    app, workers, num_partitions, monkeypatch
):
    """The pipelined schedule's pool runs: precomputed map outputs and
    concurrent submission meet its split gates and node cache."""
    _assert_same_run(
        _run_app(APPS[app], monkeypatch, "1", num_partitions, pipeline=True),
        _run_app(APPS[app], monkeypatch, workers, num_partitions, pipeline=True),
    )


def _assert_same_run(serial_run, parallel_run):
    serial, serial_meter = serial_run
    parallel, parallel_meter = parallel_run

    assert _deep_equal(serial.model, parallel.model)
    assert serial.total_time == parallel.total_time

    assert serial.best_effort.be_iterations == parallel.best_effort.be_iterations
    for s_stat, p_stat in zip(serial.best_effort.stats, parallel.best_effort.stats):
        assert s_stat == p_stat  # dataclass equality: every field, exactly
        # ... but a round's JobResult holds a batch, which has no value
        # ``==``, so the trace leaves it out: compare it field by field.
        (s_job,), (p_job,) = s_stat.job_results, p_stat.job_results
        _assert_same_job(s_job, p_job)

    assert serial_meter == parallel_meter

    assert serial.topoff.iterations == parallel.topoff.iterations
    for s_trace, p_trace in zip(serial.topoff.traces, parallel.topoff.traces):
        assert s_trace.duration == p_trace.duration
        assert s_trace.shuffle_bytes == p_trace.shuffle_bytes
        assert s_trace.model_update_bytes == p_trace.model_update_bytes


def _assert_same_job(serial, parallel):
    assert serial.job_name == parallel.job_name
    assert serial.started_at == parallel.started_at
    assert serial.finished_at == parallel.finished_at
    assert serial.counters.as_dict() == parallel.counters.as_dict()
    assert serial.map_output_bytes_raw == parallel.map_output_bytes_raw
    assert serial.shuffle_bytes == parallel.shuffle_bytes
    assert serial.output_bytes == parallel.output_bytes
    assert serial.output_locations == parallel.output_locations
    assert serial.map_stats == parallel.map_stats
    assert _deep_equal(serial.output.to_rows(), parallel.output.to_rows())
