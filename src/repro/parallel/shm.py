"""Zero-copy hand-off of columnar batches to pool workers.

Shipping a big :class:`~repro.mapreduce.columnar.ColumnBatch` to a
worker through the pool's pipe costs two full copies (pickle write,
pickle read) plus the pickling itself.  This module instead exports the
batch's backing numpy arrays into one POSIX shared-memory block and
replaces the batch in the payload with a tiny picklable handle; the
worker reconstructs the batch straight out of the mapping.

Mechanics: the batch is pickled once with protocol 5, which hands the
raw array buffers out-of-band instead of embedding them — what remains
is a small skeleton describing column structure.  The buffers go into
the shared block; the handle carries the skeleton, the block name, and
the (offset, size) of each buffer.  On the worker the handle unpickles
*directly* into a ``ColumnBatch``: it attaches to the block, copies each
segment into worker-local memory (a single writable ``bytearray`` per
array — no pickling, no pipe), and feeds them back to ``pickle.loads``
as protocol-5 buffers.

Lifecycle: the submitting side owns the block and unlinks it after the
pool map completes (success or not); workers attach, copy, and close
inside the unpickle, so they never hold a mapping afterwards and the
copy makes the rebuilt batch's lifetime independent of the block's.
Export silently falls back to plain pickling when shared memory is
unavailable (``OSError``) or the batch is too small to be worth a block.
"""

from __future__ import annotations

import pickle
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

# Below this many payload bytes the two pipe copies are cheaper than a
# shared-memory block's create/attach/unlink syscalls.
MIN_SHM_BYTES = 64 * 1024

# Byte budget for blocks the export cache keeps alive between pool
# maps (pipelined mode).  Loop-invariant datasets re-submitted every
# iteration stay well under this; the LRU trim handles the rest.
DEFAULT_EXPORT_CACHE_BYTES = 1 << 30


def _release_block(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink ``shm``, each step independently, best-effort.

    ``unlink`` must run even when ``close`` raises — a skipped unlink
    leaks the block past process exit — so the two releases get
    separate guards instead of one shared try block.
    """
    try:
        shm.close()
    except OSError:  # pragma: no cover - mapping already gone
        pass
    try:
        shm.unlink()
    except OSError:  # pragma: no cover - name already gone
        pass


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without taking ownership.

    Python 3.13+ exposes ``track=False`` for exactly this.  On earlier
    versions attaching re-registers the name with the resource tracker;
    that is harmless — pool workers share the parent's tracker process,
    whose cache is a *set*, so the extra registrations are idempotent
    and the submitter's single ``unlink`` balances them.  Unregistering
    here instead would double up with the unlink and make the tracker
    print ``KeyError`` noise.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _load_shm_batch(
    name: str, skeleton: bytes, segments: list[tuple[int, int]]
) -> Any:
    """Worker-side rebuild: attach, copy the buffers out, close, load."""
    shm = _attach(name)
    try:
        buffers = [
            bytearray(shm.buf[offset : offset + size])
            for offset, size in segments
        ]
    finally:
        shm.close()
    return pickle.loads(skeleton, buffers=buffers)


class ShmBatch:
    """Parent-side handle to a batch exported into shared memory.

    Pickling the handle is cheap (skeleton + block name); *unpickling*
    it yields the reconstructed ``ColumnBatch`` itself, so payloads that
    went through :func:`swap_out_batches` arrive at the task function
    exactly as if the batch had been pickled whole.
    """

    __slots__ = ("skeleton", "segments", "_shm")

    def __init__(
        self,
        skeleton: bytes,
        segments: list[tuple[int, int]],
        shm: shared_memory.SharedMemory,
    ) -> None:
        self.skeleton = skeleton
        self.segments = segments
        self._shm = shm

    def __reduce__(self) -> tuple[Any, tuple[Any, ...]]:
        return (_load_shm_batch, (self._shm.name, self.skeleton, self.segments))

    @property
    def nbytes(self) -> int:
        """Bytes held in the backing shared block."""
        return sum(size for _offset, size in self.segments)

    def release(self) -> None:
        """Close and unlink the backing block (submitter-side cleanup)."""
        _release_block(self._shm)


def export_batch(batch: Any) -> ShmBatch | None:
    """Export one batch to a shared block, or ``None`` when not worth it.

    ``None`` means "pickle it normally": the batch is small, carries
    non-buffer columns only, or the system refused a block.
    """
    # No object storage: the arrays bound the out-of-band total, so skip the sizing pickle.
    arrays = batch.backing_arrays()
    if not batch.holds_objects() and sum(a.nbytes for a in arrays) < MIN_SHM_BYTES:
        return None
    buffers: list[pickle.PickleBuffer] = []
    try:
        skeleton = pickle.dumps(batch, protocol=5, buffer_callback=buffers.append)
    except Exception:
        return None
    try:
        views = [buf.raw() for buf in buffers]
    except BufferError:
        return None
    total = sum(view.nbytes for view in views)
    if total < MIN_SHM_BYTES:
        return None
    try:
        shm = shared_memory.SharedMemory(create=True, size=total)
    except OSError:
        return None
    segments: list[tuple[int, int]] = []
    offset = 0
    try:
        for view in views:
            flat = view.cast("B")
            shm.buf[offset : offset + flat.nbytes] = flat
            segments.append((offset, flat.nbytes))
            offset += flat.nbytes
    except BaseException:
        # The handle below owns the block; until it exists, a failed
        # copy must not leave the block behind in /dev/shm.
        _release_block(shm)
        raise
    return ShmBatch(skeleton, segments, shm)


class BatchExportCache:
    """Keeps shared-memory exports alive across pool maps.

    Per-iteration MapReduce jobs re-submit the same loop-invariant
    ``ColumnBatch`` objects every iteration; without a cache each map
    call re-pickles and re-copies them into a fresh shared block only
    to unlink it minutes of CPU later.  Pipelined mode routes
    :func:`swap_out_batches` through this cache instead: the first
    sighting of a batch exports it, later sightings reuse the live
    handle, and the blocks are unlinked only on eviction, batch
    garbage-collection, or :meth:`release`.

    Entries are keyed by ``id(batch)`` but guarded by a weak reference
    to the batch — an ``id`` recycled by the allocator can never alias
    a stale handle onto a different batch.  When a cached batch is
    collected its block is released immediately via the weakref
    callback.  The byte budget is enforced lazily at :meth:`begin`
    (start of a pool map), never mid-map, so a handle leased for the
    in-flight map cannot be unlinked under the workers; ``begin`` also
    pins the current map's batches with strong references for the same
    reason.
    """

    def __init__(self, max_bytes: int = DEFAULT_EXPORT_CACHE_BYTES) -> None:
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        # The guard is "callable returning the batch or None" — a real
        # weakref, or _dead_ref for batches that cannot take one.
        self._entries: OrderedDict[
            int, tuple[Callable[[], Any], ShmBatch]
        ] = OrderedDict()
        self._bytes = 0
        # Batches leased since the last begin(); the strong refs stop a
        # caller-dropped batch from being collected (and its block
        # unlinked) while the pool map that uses it is still running.
        self._active: list[Any] = []
        self._released = False

    @property
    def nbytes(self) -> int:
        """Bytes currently held across all cached blocks."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def begin(self) -> None:
        """Start a new pool map: unpin the previous map's batches and
        trim the cache back under budget (LRU first).

        Dead entries (batch collected, or never weakref-able) are
        swept here too — this is the first point where the prior map
        is guaranteed finished with their blocks.
        """
        self._active.clear()
        dead = [key for key, (ref, _h) in self._entries.items() if ref() is None]
        for key in dead:
            self._drop(key)
        while self._bytes > self.max_bytes and self._entries:
            key = next(iter(self._entries))
            self._drop(key)

    def lease(self, batch: Any) -> ShmBatch | None:
        """Live handle for ``batch``, exporting it on first sighting.

        ``None`` means the batch does not qualify for shared memory
        (too small, non-buffer columns) — pickle it normally.  The
        returned handle stays owned by the cache: callers must not
        release it.
        """
        if self._released:
            # Terminal state: nobody would release a fresh block, so
            # fall back to plain pickling rather than leak one.
            return None
        key = id(batch)
        entry = self._entries.get(key)
        if entry is not None:
            ref, handle = entry
            if ref() is batch:
                self._entries.move_to_end(key)
                self._active.append(batch)
                self.hits += 1
                return handle
            # The id was recycled for a different object; the old
            # batch's weakref callback is about to (or failed to) drop
            # this entry — do it now.
            self._drop(key)
        self.misses += 1
        handle = export_batch(batch)
        if handle is None:
            return None

        def _collected(_ref: weakref.ref[Any], *, _key: int = key) -> None:
            self._drop(_key)

        try:
            ref = weakref.ref(batch, _collected)
        except TypeError:
            # Not weakref-able: no way to observe the batch's death, so
            # the handle serves this map only — the always-dead ref
            # makes begin()'s sweep release it before the next map.
            self._entries[key] = (_dead_ref, handle)
        else:
            self._entries[key] = (ref, handle)
            self._active.append(batch)
        self._bytes += handle.nbytes
        return handle

    def _drop(self, key: int) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        _ref, handle = entry
        self._bytes -= handle.nbytes
        handle.release()

    def release(self) -> None:
        """Unlink every cached block and stop caching.

        Safe to call more than once; later :meth:`lease` calls decline
        to export at all, so ``release`` is a terminal operation (used
        at interpreter exit).
        """
        self._released = True
        self._active.clear()
        for key in list(self._entries):
            self._drop(key)


def _dead_ref() -> None:
    """Stand-in weakref for non-weakref-able batches: always dead, so
    begin()'s sweep releases the entry once its map has finished."""
    return None


def swap_out_batches(
    payloads: Sequence[Any],
    cache: BatchExportCache | None = None,
) -> tuple[list[Any], list[ShmBatch]]:
    """Replace columnar batches inside payload tuples with shm handles.

    Returns the rewritten payloads plus the handles to release once the
    pool map has consumed them.  Payloads are scanned one tuple level
    deep — exactly where the task functions carry their record batches.
    When nothing qualifies the originals come back untouched.

    With ``cache`` set, handles are leased from it instead of exported
    fresh: they stay alive across calls and are **not** added to the
    returned release list — the cache owns their lifetime.
    """
    from repro.mapreduce.columnar import ColumnBatch

    if cache is not None:
        cache.begin()
    exported: list[ShmBatch] = []
    seen: dict[int, ShmBatch | None] = {}
    swapped: list[Any] = []
    for payload in payloads:
        if isinstance(payload, tuple) and any(
            isinstance(item, ColumnBatch) for item in payload
        ):
            items: list[Any] = []
            for item in payload:
                if isinstance(item, ColumnBatch):
                    # Identical batches (e.g. a shared dataset) export once.
                    handle = seen.get(id(item))
                    if id(item) not in seen:
                        if cache is not None:
                            handle = cache.lease(item)
                        else:
                            handle = export_batch(item)
                            if handle is not None:
                                exported.append(handle)
                        seen[id(item)] = handle
                    if handle is not None:
                        items.append(handle)
                        continue
                items.append(item)
            swapped.append(tuple(items))
        else:
            swapped.append(payload)
    return swapped, exported


def release_batches(exported: Sequence[ShmBatch]) -> None:
    """Unlink every exported block (call in a ``finally``)."""
    for handle in exported:
        handle.release()
