"""Host-side parallel execution of independent task computations.

The simulator charges *simulated* time for map tasks, but the real
Python computation inside each task — the mapper, then the partition
and combine steps over its output (a best-effort round's local solves
are its mappers) — is host work.  The job runner computes a job's map
tasks up front at submit, through an executor's ``map``; this package
runs those independent computations across a process pool while keeping
every simulated metric bit-identical to serial execution: the pool only
changes *where* the host computes a task's output, never *what* the
output is or what the simulation charges for it.
"""

from repro.parallel.executor import (
    ProcessPoolTaskExecutor,
    SerialExecutor,
    TaskExecutor,
    WORKERS_ENV_VAR,
    get_executor,
    resolve_workers,
    shutdown_shared_pools,
)
from repro.parallel.tasks import map_task, run_map_task, solve_subproblem

__all__ = [
    "ProcessPoolTaskExecutor",
    "SerialExecutor",
    "TaskExecutor",
    "WORKERS_ENV_VAR",
    "get_executor",
    "map_task",
    "resolve_workers",
    "run_map_task",
    "shutdown_shared_pools",
    "solve_subproblem",
]
