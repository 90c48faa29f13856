"""Unit tests for the shared-memory batch hand-off.

The handle contract: pickling an :class:`ShmBatch` is cheap, and
*unpickling* it yields the original ``ColumnBatch`` back — so task
functions never see the transport.  The submitting side owns the block
and can unlink it as soon as the map completes; rebuilt batches must
survive that because workers copy the segments out.
"""

import os
import pickle

import numpy as np
import pytest

from repro.mapreduce.columnar import ArrayColumn, ColumnBatch, int_column
from repro.parallel.shm import (
    MIN_SHM_BYTES,
    ShmBatch,
    export_batch,
    release_batches,
    swap_out_batches,
)


def _big_batch(rows: int = 200, width: int = 80) -> ColumnBatch:
    keys = int_column(np.arange(rows, dtype=np.int64))
    values = ArrayColumn(
        np.arange(rows * width, dtype=np.float64).reshape(rows, width)
    )
    batch = ColumnBatch(keys, values)
    assert batch.values.data.nbytes >= MIN_SHM_BYTES
    return batch


def _batch_checksum(payload):
    index, batch = payload
    return index, float(batch.values.data.sum())


def _same_batch(a: ColumnBatch, b: ColumnBatch) -> bool:
    if len(a) != len(b):
        return False
    for (ka, va), (kb, vb) in zip(a.to_rows(), b.to_rows()):
        if ka != kb or not np.array_equal(va, vb):
            return False
    return True


class TestExportBatch:
    def test_round_trip_through_pickle(self):
        batch = _big_batch()
        handle = export_batch(batch)
        assert isinstance(handle, ShmBatch)
        try:
            wire = pickle.dumps(handle)
            # The handle is a skeleton, not the data: orders of magnitude
            # smaller than the ~128 KiB of array payload.
            assert len(wire) < 4096
            rebuilt = pickle.loads(wire)
            assert isinstance(rebuilt, ColumnBatch)
            assert _same_batch(rebuilt, batch)
        finally:
            handle.release()

    def test_rebuilt_batch_outlives_the_block(self):
        batch = _big_batch()
        handle = export_batch(batch)
        assert handle is not None
        rebuilt = pickle.loads(pickle.dumps(handle))
        handle.release()  # unlink the block...
        assert _same_batch(rebuilt, batch)  # ...the copy is unaffected
        rebuilt.values.data[0, 0] = -1.0  # and writable
        assert batch.values.data[0, 0] == 0.0

    def test_small_batches_decline(self):
        batch = ColumnBatch.from_rows([(1, 2.0), (3, 4.0)])
        assert export_batch(batch) is None

    def test_release_is_idempotent(self):
        handle = export_batch(_big_batch())
        assert handle is not None
        handle.release()
        handle.release()  # second unlink swallowed


class TestSwapOutBatches:
    def test_batches_inside_tuples_are_swapped(self):
        batch = _big_batch()
        payloads = [("spec", batch, 0), ("spec", batch, 1), "other"]
        swapped, exported = swap_out_batches(payloads)
        try:
            assert len(exported) == 1  # same object exported once
            assert swapped[0][1] is exported[0]
            assert swapped[1][1] is exported[0]
            assert swapped[0][0] == "spec" and swapped[0][2] == 0
            assert swapped[2] == "other"
        finally:
            release_batches(exported)

    def test_small_batches_ride_the_pipe(self):
        batch = ColumnBatch.from_rows([(1, 2.0)])
        swapped, exported = swap_out_batches([("spec", batch)])
        assert exported == []
        assert swapped[0][1] is batch

    def test_refused_block_rides_the_pipe(self, monkeypatch):
        # The fallback that exists: the system refuses a block, the
        # batches are pickled through the pipe, the map equals serial.
        from repro.parallel import ProcessPoolTaskExecutor, SerialExecutor
        from repro.parallel import shm as shm_mod

        real = shm_mod.shared_memory.SharedMemory

        def refuse_create(*args, create=False, **kwargs):
            # Attaching still works: workers forked from here inherit
            # this patch and outlive the test in the shared pool.
            if create:
                raise OSError("injected: no shared memory")
            return real(*args, **kwargs)

        monkeypatch.setattr(shm_mod.shared_memory, "SharedMemory", refuse_create)
        batch = _big_batch()
        payloads = [(i, batch) for i in range(4)]
        swapped, exported = swap_out_batches(payloads)
        assert exported == []
        assert all(p[1] is batch for p in swapped)
        assert ProcessPoolTaskExecutor(2).map_or_none(
            _batch_checksum, payloads
        ) == SerialExecutor().map(_batch_checksum, payloads)

    def test_only_batches_that_can_reach_the_threshold_are_pickled(
        self, monkeypatch
    ):
        pickled = []
        real_dumps = pickle.dumps

        def counting_dumps(obj, *args, **kwargs):
            pickled.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        small = ColumnBatch.from_rows([(i, float(i)) for i in range(12)])
        big = _big_batch()
        # Ragged arrays live in an ObjectColumn: no backing array counts
        # them, yet protocol 5 hands their buffers out-of-band.
        ragged = ColumnBatch.from_rows(
            [(i, np.zeros(4096 + i)) for i in range(3)]
        )
        assert ragged.holds_objects() and ragged.backing_arrays()[0].nbytes < 100
        swapped, exported = swap_out_batches([(small, big, ragged)])
        try:
            assert pickled == [big, ragged]  # the small one never sized
            assert swapped[0][0] is small
            assert [swapped[0][1], swapped[0][2]] == exported
            assert _same_batch(pickle.loads(real_dumps(exported[0])), big)
            assert exported[1].nbytes >= MIN_SHM_BYTES
            assert _same_batch(pickle.loads(real_dumps(exported[1])), ragged)
        finally:
            release_batches(exported)

    def test_row_payloads_untouched(self):
        payloads = [("spec", [(1, 2.0)], 0), (3, 4)]
        swapped, exported = swap_out_batches(payloads)
        assert exported == []
        assert swapped == payloads


# -- exception paths ---------------------------------------------------------

SHM_DIR = "/dev/shm"

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this platform"
)


def _shm_path(name: str) -> str:
    # SharedMemory names may carry a leading slash; the file does not.
    return os.path.join(SHM_DIR, name.lstrip("/"))


def _crash(payload):
    raise RuntimeError("injected worker crash")


def _first_of_pair(payload):
    return payload[0]


class TestExceptionPaths:
    """No shm block survives a failed map, wherever the failure lands.

    Each test records the block names the run creates (by wrapping
    ``swap_out_batches`` or the block constructor) and then scans
    ``/dev/shm`` to prove every one of them was unlinked.
    """

    @pytest.fixture()
    def recorded_names(self, monkeypatch):
        from repro.parallel import shm as shm_mod

        names: list[str] = []
        real = shm_mod.swap_out_batches

        def recording(payloads, cache=None):
            swapped, exported = real(payloads, cache=cache)
            names.extend(handle._shm.name for handle in exported)
            return swapped, exported

        monkeypatch.setattr(shm_mod, "swap_out_batches", recording)
        return names

    @needs_dev_shm
    def test_worker_crash_mid_map_leaves_no_block(self, recorded_names):
        from repro.parallel.executor import ProcessPoolTaskExecutor

        payloads = [("a", _big_batch()), ("b", _big_batch())]
        with pytest.raises(RuntimeError, match="injected worker crash"):
            ProcessPoolTaskExecutor(2).map_or_none(_crash, payloads)
        assert len(recorded_names) == 2
        for name in recorded_names:
            assert not os.path.exists(_shm_path(name))

    @needs_dev_shm
    def test_submitter_failure_before_submit_leaves_no_block(
        self, recorded_names, monkeypatch
    ):
        # The window between export and pool submit: the batches are
        # already in shared memory when acquiring the pool blows up.
        from repro.parallel import executor as executor_mod

        def no_pool(workers):
            raise RuntimeError("injected submit failure")

        monkeypatch.setattr(executor_mod, "_shared_pool", no_pool)
        payloads = [("a", _big_batch()), ("b", _big_batch())]
        with pytest.raises(RuntimeError, match="injected submit failure"):
            executor_mod.ProcessPoolTaskExecutor(2).map_or_none(
                _first_of_pair, payloads
            )
        assert len(recorded_names) == 2
        for name in recorded_names:
            assert not os.path.exists(_shm_path(name))

    @needs_dev_shm
    def test_export_copy_failure_releases_the_block(self, monkeypatch):
        # A copy failure between block creation and handle construction
        # must unlink the block before the exception escapes.
        from repro.parallel import shm as shm_mod

        real_cls = shm_mod.shared_memory.SharedMemory
        created: list[str] = []

        class FailingCopy:
            def __init__(self, *args, **kwargs):
                self._real = real_cls(*args, **kwargs)
                created.append(self._real.name)

            @property
            def name(self):
                return self._real.name

            @property
            def buf(self):
                raise MemoryError("injected copy failure")

            def close(self):
                self._real.close()

            def unlink(self):
                self._real.unlink()

        monkeypatch.setattr(shm_mod.shared_memory, "SharedMemory", FailingCopy)
        with pytest.raises(MemoryError, match="injected copy failure"):
            export_batch(_big_batch())
        assert len(created) == 1
        assert not os.path.exists(_shm_path(created[0]))


class TestBatchExportCache:
    def _cache(self, **kwargs):
        from repro.parallel.shm import BatchExportCache

        return BatchExportCache(**kwargs)

    def test_lease_reuses_the_handle_across_maps(self):
        batch = _big_batch()
        cache = self._cache()
        try:
            first = cache.lease(batch)
            assert isinstance(first, ShmBatch)
            cache.begin()
            second = cache.lease(batch)
            assert second is first
            assert (cache.hits, cache.misses) == (1, 1)
            assert cache.nbytes == first.nbytes > 0
        finally:
            cache.release()

    def test_swap_out_leaves_cached_handles_off_the_release_list(self):
        batch = _big_batch()
        cache = self._cache()
        try:
            swapped, exported = swap_out_batches(
                [("a", batch), ("b", batch)], cache=cache
            )
            assert exported == []
            handle = swapped[0][1]
            assert isinstance(handle, ShmBatch)
            assert swapped[1][1] is handle
            # release_batches on the (empty) list must not kill the block
            release_batches(exported)
            assert os.path.exists(_shm_path(handle._shm.name))
        finally:
            cache.release()

    def test_small_batches_decline(self):
        cache = self._cache()
        try:
            keys = int_column(np.arange(4, dtype=np.int64))
            small = ColumnBatch(keys, int_column(np.arange(4, dtype=np.int64)))
            assert cache.lease(small) is None
            assert len(cache) == 0 and cache.nbytes == 0
        finally:
            cache.release()

    def test_collected_batch_releases_its_block(self):
        import gc

        batch = _big_batch()
        cache = self._cache()
        try:
            handle = cache.lease(batch)
            name = handle._shm.name
            cache.begin()  # unpin the previous map's strong reference
            del batch
            gc.collect()
            assert len(cache) == 0 and cache.nbytes == 0
            assert not os.path.exists(_shm_path(name))
        finally:
            cache.release()

    def test_active_pin_outlives_caller_drop_until_next_begin(self):
        """A batch dropped by the caller mid-map must keep its block:
        the in-flight pool map still reads it."""
        import gc

        cache = self._cache()
        try:
            handle = cache.lease(_big_batch())  # caller ref dies at once
            name = handle._shm.name
            gc.collect()
            assert os.path.exists(_shm_path(name))  # epoch pin holds it
            cache.begin()
            gc.collect()
            assert not os.path.exists(_shm_path(name))
        finally:
            cache.release()

    def test_budget_trims_lru_first_at_begin(self):
        a, b = _big_batch(), _big_batch()
        one = a.values.data.nbytes  # per-entry payload scale
        cache = self._cache(max_bytes=int(one * 1.5))
        try:
            ha = cache.lease(a)
            cache.begin()
            cache.lease(a)  # refresh a
            hb = cache.lease(b)
            name_a, name_b = ha._shm.name, hb._shm.name
            assert cache.nbytes > cache.max_bytes  # over budget mid-map: ok
            cache.begin()  # trim point: b was touched last, a goes
            assert not os.path.exists(_shm_path(name_a))
            assert os.path.exists(_shm_path(name_b))
        finally:
            cache.release()

    def test_release_is_terminal(self):
        batch = _big_batch()
        cache = self._cache()
        handle = cache.lease(batch)
        name = handle._shm.name
        cache.release()
        assert not os.path.exists(_shm_path(name))
        assert cache.lease(batch) is None  # no unowned blocks post-release
        cache.release()  # idempotent

    def test_executor_singleton_follows_pipeline_env(self, monkeypatch):
        from repro.parallel import executor

        monkeypatch.setenv("PIC_PIPELINE", "0")
        executor.release_export_cache()
        assert executor._export_cache() is None
        monkeypatch.setenv("PIC_PIPELINE", "1")
        cache = executor._export_cache()
        assert cache is not None and executor._export_cache() is cache
        executor.release_export_cache()
        assert executor._export_cache() is not cache  # fresh after release
        executor.release_export_cache()
