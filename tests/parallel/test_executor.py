"""Unit tests for the host-side task executors."""

import os
import pickle

import numpy as np
import pytest

from repro.mapreduce.columnar import (
    ArrayColumn,
    ColumnBatch,
    ObjectColumn,
    ScalarColumn,
    StringColumn,
    TupleColumn,
)
from repro.parallel import (
    ProcessPoolTaskExecutor,
    SerialExecutor,
    TaskExecutor,
    get_executor,
    resolve_workers,
)
from repro.parallel import executor as executor_mod


def _square(x):
    return x * x


def _first_element(payload):
    return payload[0]


def _lambda_at_five(x):
    return (lambda: x) if x == 5 else x


def _raise_at_five(x):
    if x == 5:
        raise ValueError("task five failed")
    return x


def _die(x):
    os._exit(1)


def _rows_of(payload):
    """What a task sees of its batch: column kind, then every row with
    its type (ndarrays as dtype + nested list, so ``==`` compares them)."""
    index, batch = payload
    rows = [
        (k, (v.dtype.str, v.tolist()) if isinstance(v, np.ndarray) else (type(v), v))
        for k, v in batch.to_rows()
    ]
    return index, type(batch.values), rows


def _raise_on_batch_two(payload):
    index, batch = payload
    if index == 2:
        raise ValueError("batch task two failed")
    return len(batch)


# One value maker per column kind ``build_column`` can choose.
_VALUE_OF = {
    ScalarColumn: float,
    StringColumn: "v{}".format,
    ArrayColumn: lambda i: np.full(4, i, dtype=np.float64),
    TupleColumn: lambda i: (i, float(i)),
    ObjectColumn: lambda i: {"i": i},
}
_VIEW_OF = {
    "whole": lambda batch: batch,
    "slice": lambda batch: batch.slice(1, len(batch) - 1),
    "take": lambda batch: batch.take(np.arange(len(batch) - 1, -1, -2)),
}


# Parent-side: ``__reduce__`` runs in the process that pickles.
_SHARED_PICKLES = []


class _Shared:
    def __reduce__(self):
        _SHARED_PICKLES.append(1)
        return (_Shared, ())


class TestResolveWorkers:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("PIC_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_env_var_used_when_unspecified(self, monkeypatch):
        monkeypatch.setenv("PIC_WORKERS", "4")
        assert resolve_workers() == 4

    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("PIC_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_blank_env_means_serial(self, monkeypatch):
        monkeypatch.setenv("PIC_WORKERS", "  ")
        assert resolve_workers() == 1

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv("PIC_WORKERS", "many")
        with pytest.raises(ValueError, match="PIC_WORKERS"):
            resolve_workers()

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(0)


class TestGetExecutor:
    def test_one_worker_is_serial(self):
        assert isinstance(get_executor(1), SerialExecutor)

    def test_many_workers_is_pool(self):
        ex = get_executor(3)
        assert isinstance(ex, ProcessPoolTaskExecutor)
        assert ex.workers == 3
        assert ex.is_parallel

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("PIC_WORKERS", raising=False)
        assert isinstance(get_executor(), SerialExecutor)


class TestSerialExecutor:
    def test_map_preserves_order(self):
        assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_map_or_none_declines(self):
        assert SerialExecutor().map_or_none(_square, [1, 2]) is None

    def test_not_parallel(self):
        ex = SerialExecutor()
        assert not ex.is_parallel
        assert ex.workers == 1


class TestProcessPoolExecutor:
    def test_map_matches_serial(self):
        payloads = list(range(20))
        parallel = ProcessPoolTaskExecutor(2).map(_square, payloads)
        assert parallel == SerialExecutor().map(_square, payloads)

    def test_map_or_none_returns_ordered_results(self):
        results = ProcessPoolTaskExecutor(2).map_or_none(
            _first_element, [(i, "x") for i in range(10)]
        )
        assert results == list(range(10))

    def test_unpicklable_fn_falls_back_to_serial(self):
        captured = []

        def closure(x):  # closes over captured -> unpicklable
            captured.append(x)
            return -x

        ex = ProcessPoolTaskExecutor(2)
        assert ex.map_or_none(closure, [1, 2, 3]) is None
        assert ex.map(closure, [1, 2, 3]) == [-1, -2, -3]
        assert captured == [1, 2, 3]  # ran in this process

    def test_unpicklable_payload_falls_back(self):
        payloads = [lambda: 1, lambda: 2]
        ex = ProcessPoolTaskExecutor(2)
        assert ex.map_or_none(_first_element, [(p,) for p in payloads]) is None

    def test_single_payload_stays_in_process(self):
        # One task gains nothing from a pool round-trip.
        assert ProcessPoolTaskExecutor(2).map_or_none(_square, [5]) is None

    def test_base_class_contract(self):
        assert isinstance(ProcessPoolTaskExecutor(2), TaskExecutor)


class TestChunkedDispatch:
    """One pool work item — one pickle, one round trip — per chunk."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 33, 64])
    def test_equals_serial_in_payload_order(self, n, workers):
        # Covers n < 4*workers (one task per item) and uneven last chunks.
        payloads = [(i, "x") for i in range(n)]
        expected = SerialExecutor().map(_first_element, payloads)
        ex = ProcessPoolTaskExecutor(workers)
        assert ex.map_or_none(_first_element, payloads) == expected
        assert ex.map(_first_element, payloads) == expected

    @pytest.mark.parametrize("workers", [2, 3])
    def test_shared_state_pickled_once_per_chunk(self, workers, monkeypatch):
        # A count, not a timing: 64 payloads sharing one object cost at
        # most 4*workers pickles of it and 4*workers pool submissions.
        ex = ProcessPoolTaskExecutor(workers)
        ex.map(_first_element, [(0,), (1,)])  # warm the probe cache
        pool = executor_mod._shared_pool(workers)
        submitted = []
        real_submit = pool.submit

        def counting_submit(*args, **kwargs):
            submitted.append(args)
            return real_submit(*args, **kwargs)

        monkeypatch.setattr(pool, "submit", counting_submit)
        shared = _Shared()
        del _SHARED_PICKLES[:]
        payloads = [(i, shared) for i in range(64)]
        assert ex.map_or_none(_first_element, payloads) == list(range(64))
        assert 1 <= len(submitted) <= 4 * workers
        assert len(_SHARED_PICKLES) == len(submitted)

    def test_unpicklable_payload_mid_chunk_falls_back(self):
        payloads = [(i,) for i in range(16)]
        payloads[5] = (lambda: 5,)  # second item of the third chunk
        ex = ProcessPoolTaskExecutor(2)
        assert ex.map_or_none(len, payloads) is None
        assert ex.map(len, payloads) == [1] * 16

    def test_unpicklable_result_mid_chunk_falls_back(self):
        ex = ProcessPoolTaskExecutor(2)
        assert ex.map_or_none(_lambda_at_five, list(range(16))) is None
        results = ex.map(_lambda_at_five, list(range(16)))
        assert results[5]() == 5
        assert results[:5] + results[6:] == [0, 1, 2, 3, 4] + list(range(6, 16))

    def test_task_exception_still_propagates(self):
        with pytest.raises(ValueError, match="task five failed"):
            ProcessPoolTaskExecutor(2).map_or_none(_raise_at_five, list(range(16)))

    def test_broken_pool_is_discarded(self):
        ex = ProcessPoolTaskExecutor(2)
        assert ex.map_or_none(_die, list(range(16))) is None
        assert 2 not in executor_mod._POOLS
        assert ex.map_or_none(_square, [1, 2, 3]) == [1, 4, 9]  # fresh pool


class TestBatchPayloads:
    """Record batches cross to the workers inside the chunk's pickle."""

    @pytest.mark.parametrize("rows", [4, 20_000], ids=["tiny", "big"])  # big: > 64 KiB
    @pytest.mark.parametrize("view", list(_VIEW_OF))
    @pytest.mark.parametrize(
        "kind", list(_VALUE_OF), ids=lambda kind: kind.__name__[: -len("Column")].lower()
    )
    def test_batches_arrive_row_for_row(self, kind, view, rows):
        payloads = []
        for index in range(4):
            batch = ColumnBatch.from_rows(
                [(i, _VALUE_OF[kind](i)) for i in range(rows + index)]
            )
            assert type(batch.values) is kind
            payloads.append((index, _VIEW_OF[view](batch)))
        assert (len(pickle.dumps(payloads[0])) >= 64 * 1024) == (rows > 4)
        results = get_executor(2).map_or_none(_rows_of, payloads)
        assert results == SerialExecutor().map(_rows_of, payloads)

    def test_task_exception_mid_map_propagates(self):
        batch = ColumnBatch.from_rows([(i, float(i)) for i in range(20_000)])
        payloads = [(i, batch.slice(i, len(batch))) for i in range(8)]
        with pytest.raises(ValueError, match="batch task two failed"):
            get_executor(2).map(_raise_on_batch_two, payloads)


class TestProbeCache:
    """The picklability probe runs once per function, not once per wave."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        saved = dict(executor_mod._PROBE_CACHE)
        executor_mod._PROBE_CACHE.clear()
        yield
        executor_mod._PROBE_CACHE.clear()
        executor_mod._PROBE_CACHE.update(saved)

    @pytest.fixture
    def dumps_calls(self, monkeypatch):
        calls = []
        real_dumps = pickle.dumps

        def counting_dumps(obj, *args, **kwargs):
            calls.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        return calls

    def test_picklable_verdict_probed_once(self, dumps_calls):
        probe = ProcessPoolTaskExecutor._picklable
        assert probe(_square, (1, "x"))
        assert len(dumps_calls) == 2  # fn + payload probe
        assert probe(_square, (2, "y"))
        assert len(dumps_calls) == 2  # cache hit: no new pickling

    def test_unpicklable_fn_cached_false(self, dumps_calls):
        def closure(x):
            return x

        probe = ProcessPoolTaskExecutor._picklable
        assert not probe(closure, (1,))
        assert len(dumps_calls) == 1  # fn failed; payload never probed
        assert not probe(closure, (2,))
        assert len(dumps_calls) == 1  # negative verdict cached too

    def test_distinct_closures_probed_independently(self, dumps_calls):
        def make(n):
            def closure(x):
                return x + n

            return closure

        probe = ProcessPoolTaskExecutor._picklable
        assert not probe(make(1), (1,))
        assert not probe(make(2), (1,))
        assert len(dumps_calls) == 2  # two identities, two probes

    def test_payload_failure_is_not_cached_against_fn(self, dumps_calls):
        probe = ProcessPoolTaskExecutor._picklable
        assert not probe(_square, (lambda: 1,))  # payload unpicklable
        # The function must not be condemned: a picklable payload from
        # the next job still goes to the pool.
        assert probe(_square, (1,))
        assert ProcessPoolTaskExecutor(2).map(_square, [2, 3]) == [4, 9]

    def test_cached_fallback_still_runs_in_process(self):
        captured = []

        def closure(x):
            captured.append(x)
            return -x

        ex = ProcessPoolTaskExecutor(2)
        assert ex.map(closure, [1, 2]) == [-1, -2]
        assert ex.map(closure, [3, 4]) == [-3, -4]  # cached False path
        assert captured == [1, 2, 3, 4]
