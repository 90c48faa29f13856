"""Task executors: serial and process-pool backends.

A :class:`TaskExecutor` maps a module-level function over a list of
payloads and returns the results in order.  The two backends are
interchangeable because every function we ship is *pure* and
*deterministic*: same payload, same result, no shared state.  That is
exactly the property PIC's best-effort sub-problems have by
construction (zero cross-partition traffic), so farming them out to a
pool cannot change any simulated byte or second — only host wall-clock.

Backend selection:

* ``get_executor()`` reads the ``PIC_WORKERS`` environment variable
  (CLI ``--workers`` overrides it); ``1``/unset means serial.
* Unpicklable work (closure-based job specs, exotic models) falls back
  to in-process execution automatically — parallelism is an
  optimization, never a requirement.

Pools are shared per worker count across executor instances (engines
and job runners are created per experiment; respawning interpreters for
each would dwarf the savings) and torn down at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, Sequence

WORKERS_ENV_VAR = "PIC_WORKERS"

# Pickling a payload can fail with more than PicklingError: closures
# raise AttributeError ("Can't pickle local object"), locks and
# generators raise TypeError.  Any of them means "run it in-process".
_FALLBACK_ERRORS = (pickle.PicklingError, AttributeError, TypeError)

# Picklability verdicts per function identity (see ``_picklable``).
_PROBE_CACHE: dict[tuple[int, str, str], bool] = {}

# Contiguous chunks per worker in one pool map (``multiprocessing.Pool.map``'s
# rule): a wave costs O(workers) round trips, yet uneven tasks still balance.
_CHUNKS_PER_WORKER = 4


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit value, else ``PIC_WORKERS``, else 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from exc
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


class TaskExecutor:
    """Maps a pure function over payloads; backends differ only in *where*."""

    workers: int = 1

    @property
    def is_parallel(self) -> bool:
        """True when this executor can use more than one process."""
        return self.workers > 1

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> list[Any]:
        """Apply ``fn`` to each payload, returning results in order."""
        return [fn(p) for p in payloads]

    def map_or_none(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> list[Any] | None:
        """Like :meth:`map`, but ``None`` when parallelism is unavailable.

        Callers with a cheaper lazy path (e.g. the job runner, which
        otherwise computes each map task at its simulated start time)
        use this to skip eager computation unless it actually buys
        concurrency.
        """
        return None


class SerialExecutor(TaskExecutor):
    """In-process execution; the default and the semantic reference."""


class ProcessPoolTaskExecutor(TaskExecutor):
    """Fans payloads out to a shared ``ProcessPoolExecutor``.

    The pool gets one work item per contiguous chunk of payloads: a
    chunk is one pickle, so what its payloads share (program, job spec,
    a record batch) crosses once, and a worker's tasks share those
    objects exactly as in-process tasks do — ``fn`` must not mutate them.

    Results come back in payload order.  If the function, a payload, or
    a result cannot cross the process boundary — or the pool dies — the
    whole batch is (re)computed in-process; ``fn`` being pure makes the
    retry safe.
    """

    def __init__(self, workers: int) -> None:
        self.workers = resolve_workers(workers)

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> list[Any]:
        results = self.map_or_none(fn, payloads)
        return super().map(fn, payloads) if results is None else results

    def map_or_none(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> list[Any] | None:
        payloads = list(payloads)
        if len(payloads) < 2 or not self._picklable(fn, payloads[0]):
            return None
        try:
            pool = _shared_pool(self.workers)
            chunksize = -(-len(payloads) // (self.workers * _CHUNKS_PER_WORKER))
            return list(pool.map(fn, payloads, chunksize=chunksize))
        except _FALLBACK_ERRORS:
            return None
        except BrokenExecutor:
            _discard_pool(self.workers)
            return None

    @staticmethod
    def _picklable(fn: Callable[[Any], Any], probe: Any) -> bool:
        """Can ``(fn, probe)`` cross a process boundary?

        The verdict for ``fn`` is cached per function identity: the same
        job/program callables are probed once per process, not once per
        map wave.  The payload probe only runs on a cache miss — a
        later payload that cannot pickle surfaces at ``pool.map`` and
        falls back in-process there, so skipping it is safe.  A failure
        caused by the payload alone is deliberately *not* cached: the
        function may well work with the next job's payloads.
        """
        key = (id(fn), getattr(fn, "__module__", ""), getattr(fn, "__qualname__", ""))
        cached = _PROBE_CACHE.get(key)
        if cached is not None:
            return cached
        try:
            pickle.dumps(fn)
        except _FALLBACK_ERRORS:
            _PROBE_CACHE[key] = False
            return False
        try:
            pickle.dumps(probe)
        except _FALLBACK_ERRORS:
            return False
        _PROBE_CACHE[key] = True
        return True


def get_executor(workers: int | None = None) -> TaskExecutor:
    """Executor for ``workers`` processes (default: ``PIC_WORKERS`` or serial)."""
    count = resolve_workers(workers)
    if count == 1:
        return SerialExecutor()
    return ProcessPoolTaskExecutor(count)


# -- shared pools ------------------------------------------------------------

_POOLS: dict[int, ProcessPoolExecutor] = {}


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _POOLS[workers] = pool
    return pool


def _discard_pool(workers: int) -> None:
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools() -> None:
    """Tear down every shared pool (atexit hook; also handy in tests)."""
    for workers in list(_POOLS):
        pool = _POOLS.pop(workers)
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_shared_pools)
