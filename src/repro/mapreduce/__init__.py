"""MapReduce engine on the simulated cluster.

Mappers, combiners and reducers are **real Python functions executed on
real records** — model quality, iteration counts and byte volumes are
genuine.  A job's three functions take whole batches (a split's
``ColumnBatch``, a partition's ``GroupedBatch``); record-at-a-time
hooks belong to :class:`repro.pic.PICProgram`, whose batch methods loop
over them.  Only *time* is simulated: compute from per-record cost hints
scaled by node CPU speed, and data movement from the flow-level network
model (input reads, all-to-all shuffle, replicated output writes).

The package mirrors Hadoop 0.20-era structure:

* :mod:`repro.mapreduce.records` — key/value records, splits, and
  DFS-backed distributed datasets;
* :mod:`repro.mapreduce.columnar` — the ``ColumnBatch`` every record
  travels in between a split and a reducer's output;
* :mod:`repro.mapreduce.costs` — calibrated per-record/per-byte compute
  cost hints;
* :mod:`repro.mapreduce.job` — job specification (batch mapper /
  combiner / reducer, partitioner), contexts, counters, and results;
* :mod:`repro.mapreduce.scheduler` — the locality-aware container
  allocator and the slot view of it the runner schedules maps through;
* :mod:`repro.mapreduce.runner` — the engine that executes one job on
  the DES cluster;
* :mod:`repro.mapreduce.driver` — the do-until-converged template of the
  paper's Figure 1(a), including the strengthened "optimized baseline"
  mode of Section V-A (no repeated job-init cost, cached input).
"""

from repro.mapreduce.records import (
    Split,
    DistributedDataset,
    group_by_key,
    hash_partitioner,
)
from repro.mapreduce.columnar import (
    ColumnBatch,
    GroupedBatch,
    build_column,
    columnize,
    group_batch,
)
from repro.mapreduce.costs import CostHints
from repro.mapreduce.job import JobSpec, JobResult, Counters
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.driver import IterativeDriver, IterationTrace, DriverResult

__all__ = [
    "Split",
    "DistributedDataset",
    "group_by_key",
    "hash_partitioner",
    "ColumnBatch",
    "GroupedBatch",
    "build_column",
    "columnize",
    "group_batch",
    "CostHints",
    "JobSpec",
    "JobResult",
    "Counters",
    "JobRunner",
    "IterativeDriver",
    "IterationTrace",
    "DriverResult",
]
