"""Job specification, task contexts, counters, and results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.mapreduce.columnar import ColumnBatch, GroupedBatch, concat_batches
from repro.mapreduce.costs import CostHints
from repro.mapreduce.records import hash_partitioner

# Signatures (all emission goes through the context):
#   mapper(ctx, records)               — a whole split, a ColumnBatch
#   combiner(grouped) -> ColumnBatch   — associative local reduction over a
#                                        whole GroupedBatch: one record per
#                                        group, in group order
#   reducer(ctx, grouped)              — all groups of one partition, a
#                                        GroupedBatch
Mapper = Callable[["TaskContext", ColumnBatch], None]
Combiner = Callable[[GroupedBatch], ColumnBatch]
Reducer = Callable[["TaskContext", GroupedBatch], None]


class TaskContext:
    """What a running mapper/reducer sees: the model, and ``emit``.

    ``split_index`` identifies the input split a map task is processing
    (``None`` in reducers).  ``stats`` is a scratch dict tasks may fill
    with numeric facts (e.g. PIC's in-mapper local iteration counts);
    the runner surfaces them in :class:`JobResult`.

    Output accumulates in emission order: scalar ``emit`` calls gather
    into a pending row run that is columnized once (when a batch follows
    it or the output is collected), ``emit_batch`` appends a whole
    :class:`~repro.mapreduce.columnar.ColumnBatch`.
    """

    def __init__(self, model: Any = None, split_index: int | None = None) -> None:
        self.model = model
        self.split_index = split_index
        self.stats: dict[str, float] = {}
        self._batches: list[ColumnBatch] = []
        self._pending: list[tuple[Any, Any]] = []

    def emit(self, key: Any, value: Any) -> None:
        """Emit one key/value record."""
        self._pending.append((key, value))

    def emit_batch(self, batch: ColumnBatch) -> None:
        """Emit a whole columnar batch (vectorized mappers/reducers)."""
        self._flush()
        self._batches.append(batch)

    def _flush(self) -> None:
        if self._pending:
            self._batches.append(ColumnBatch.from_rows(self._pending))
            self._pending = []

    @property
    def output_count(self) -> int:
        """Number of records emitted so far (no materialization)."""
        return len(self._pending) + sum(len(b) for b in self._batches)

    def collect(self) -> ColumnBatch:
        """Everything emitted so far, in emission order, as one batch."""
        self._flush()
        return concat_batches(self._batches)

    @property
    def output(self) -> list[tuple[Any, Any]]:
        """Records emitted so far, in emission order, as rows."""
        rows = [row for batch in self._batches for row in batch.to_rows()]
        return rows + self._pending


class Counters:
    """Hadoop-style named counters."""

    def __init__(self) -> None:
        self._counts: dict[str, float] = {}

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counts[name] = self._counts.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        """Current value of counter ``name`` (0 when unset)."""
        return self._counts.get(name, 0.0)

    def as_dict(self) -> dict[str, float]:
        """A plain-dict copy of all counters."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counters({self._counts})"


@dataclass
class JobSpec:
    """One MapReduce job: a batch mapper, an optional batch combiner and
    a batch reducer.  The combiner, as in Hadoop, must be associative
    and idempotent with respect to the reducer's semantics.  (The
    record-at-a-time ``map``/``combine``/``reduce`` of the paper's
    Figure 4 are :class:`~repro.pic.api.PICProgram` hooks, looped over
    by its batch methods.)
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    combiner: Combiner | None = None
    num_reducers: int = 1
    partitioner: Callable[[Any, int], int] = hash_partitioner
    costs: CostHints = field(default_factory=CostHints)
    # Optional override for a map task's compute time:
    # map_cost(num_records, split_nbytes, stats) -> seconds at reference
    # CPU, ``stats`` being the ``ctx.stats`` the task's mapper left when
    # compute_job ran it.  PIC's best-effort jobs use this to charge the
    # in-mapper local iterations the task actually performed.
    map_cost: Callable[[int, int, dict[str, float]], float] | None = None
    # A record-wise mapper emits exactly one record per input record, in
    # input order, each depending only on its own record and ctx.model,
    # and reads no ctx.split_index and writes no ctx.stats.  A run of
    # splits that agree on their column kinds is then mapped in one call
    # (compute_job), each split's charge cut from the one output; so that
    # reducers see the kinds they would split by split, the output's
    # kinds must follow from the input's alone, as they do for a mapper
    # that emits typed columns.  Such a job has no combiner.
    record_wise: bool = False

    def __post_init__(self) -> None:
        if self.num_reducers <= 0:
            raise ValueError(
                f"job {self.name!r}: num_reducers must be positive, got {self.num_reducers}"
            )
        if self.record_wise and self.combiner is not None:
            raise ValueError(
                f"job {self.name!r}: a record-wise job has no combiner"
            )

    def run_combiner(self, grouped: GroupedBatch) -> ColumnBatch:
        """Combine groups into exactly one record per group, in group
        order.  ``grouped`` may span several reduce partitions (a whole
        map output grouped by (partition, key)): the caller cuts the
        result by group counts, so a combiner that drops or adds records
        is an error, not a smaller job.  No groups combine to no
        records, whatever the column kinds, so a combiner only ever sees
        its own layout."""
        if not len(grouped):
            return ColumnBatch(grouped.sorted_keys, grouped.sorted_values)
        assert self.combiner is not None
        combined = self.combiner(grouped)
        if len(combined) != len(grouped):
            raise ValueError(
                f"job {self.name!r}: combiner returned {len(combined)} "
                f"records for {len(grouped)} groups; expected exactly one "
                "per group"
            )
        return combined


class MapCharge(NamedTuple):
    """What the simulation charges for one map task's output."""

    #: Records per reduce partition, and each partition's wire size:
    #: what each shuffle flow carries.
    counts: list[int]
    bucket_bytes: list[int]
    #: The mapper's output before the combiner: records and wire size.
    raw_records: int
    raw_bytes: int
    #: The task's ``ctx.stats``.
    stats: dict[str, float]


class ComputedJob(NamedTuple):
    """A job's host computation: each reducer's output, in partition
    order, and each split's map charge, in split order."""

    outputs: list[ColumnBatch]
    charges: list[MapCharge]


@dataclass
class JobResult:
    """Everything a job run produced, with measured volumes."""

    job_name: str
    #: The reducers' records, partition after partition, as one batch:
    #: ``len`` counts them, iteration yields ``(key, value)`` rows,
    #: ``to_rows()`` is the row list (what ``dict()`` wants).
    output: ColumnBatch
    counters: Counters
    started_at: float
    finished_at: float
    map_output_bytes_raw: int = 0      # before combiner
    shuffle_bytes: int = 0             # after combiner, map→reduce
    output_bytes: int = 0              # reducer output, written to DFS
    output_locations: tuple[int, ...] = (0,)  # nodes holding output replicas
    map_stats: dict[int, dict[str, float]] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Simulated job makespan."""
        return self.finished_at - self.started_at
