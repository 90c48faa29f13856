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
* Unpicklable work (job specs closing over local state, exotic models),
  a single payload, and a pool that dies all fall back to in-process
  execution automatically — parallelism is an optimization, never a
  requirement, so callers just call :meth:`TaskExecutor.map`.  An
  exception a task raises itself is not a fallback: it is re-raised at
  once, chained to the worker's traceback.

Pools are shared per worker count across executor instances (engines
and job runners are created per experiment; respawning interpreters for
each would dwarf the savings) and torn down at interpreter exit.  The
process-pool machinery itself is imported with the first pool, so a
process that never starts one never loads it.
"""

from __future__ import annotations

import atexit
import operator
import os
import pickle
from concurrent.futures import BrokenExecutor
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

WORKERS_ENV_VAR = "PIC_WORKERS"

# Pickling the function, a payload or a result can fail with more than
# PicklingError: closures raise AttributeError ("Can't pickle local
# object"), locks and generators raise TypeError.  The pool's map raises
# whichever it met, and any of them means "run it in-process".  A task's
# own exception crosses as a _TaskFailed, so it is never one of these.
_FALLBACK_ERRORS = (pickle.PicklingError, AttributeError, TypeError)

# Contiguous chunks per worker in one pool map (``multiprocessing.Pool.map``'s
# rule): a wave costs O(workers) round trips, yet uneven tasks still balance.
_CHUNKS_PER_WORKER = 4


class _TaskFailed(Exception):
    """A task's own exception (``args[0]``), raised in a pool worker and
    carried back as this type, apart from the pool's pickling errors."""


def _run_task(fn: Callable[[Any], Any], payload: Any) -> Any:
    """``fn(payload)`` in a pool worker, its exception wrapped."""
    try:
        return fn(payload)
    except Exception as exc:
        raise _TaskFailed(exc) from exc


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit value, else ``PIC_WORKERS``, else 1.
    A bool or a non-integer is refused, not taken as a count."""
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
    elif isinstance(workers, bool) or not hasattr(workers, "__index__"):
        raise ValueError(f"worker count must be an integer, got {workers!r}")
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


class TaskExecutor:
    """Maps a pure function over payloads; backends differ only in *where*."""

    workers: int = 1

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> list[Any]:
        """Apply ``fn`` to each payload, returning results in order."""
        return [fn(p) for p in payloads]


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
    retry safe.  An exception ``fn`` raises in a worker is re-raised
    here as it is, its ``__cause__`` the worker's traceback, and nothing
    is recomputed.
    """

    def __init__(self, workers: int) -> None:
        self.workers = resolve_workers(workers)

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> list[Any]:
        payloads = list(payloads)
        if len(payloads) >= 2:
            try:
                pool = _shared_pool(self.workers)
                chunksize = -(-len(payloads) // (self.workers * _CHUNKS_PER_WORKER))
                return list(pool.map(partial(_run_task, fn), payloads, chunksize=chunksize))
            except _TaskFailed as failed:
                raise failed.args[0] from failed.__cause__
            except _FALLBACK_ERRORS:
                pass
            except BrokenExecutor:
                _discard_pool(self.workers)
        return super().map(fn, payloads)


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
        from concurrent.futures import ProcessPoolExecutor

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
