"""Job specification, task contexts, counters, and results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.metrics import TrafficCategory
from repro.mapreduce.columnar import ColumnBatch, GroupedBatch, concat_batches
from repro.mapreduce.costs import CostHints
from repro.mapreduce.records import hash_partitioner

# Signatures (all emission goes through the context):
#   mapper(ctx, key, value)                 — record-at-a-time
#   batch_mapper(ctx, records)              — whole split, a ColumnBatch
#                                             (vectorizable)
#   combiner(key, values) -> value          — associative local reduction
#   batch_combiner(grouped) -> ColumnBatch  — combiner over a whole
#                                             GroupedBatch: one record per
#                                             group, in group order (or None
#                                             to defer to the scalar combiner)
#   reducer(ctx, key, values)               — record-at-a-time
#   batch_reducer(ctx, grouped)             — all groups of one partition,
#                                             a GroupedBatch
Mapper = Callable[["TaskContext", Any, Any], None]
BatchMapper = Callable[["TaskContext", ColumnBatch], None]
Combiner = Callable[[Any, list[Any]], Any]
BatchCombiner = Callable[[GroupedBatch], ColumnBatch | None]
Reducer = Callable[["TaskContext", Any, list[Any]], None]
BatchReducer = Callable[["TaskContext", GroupedBatch], None]


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
    """One MapReduce job.

    Exactly one of ``mapper`` / ``batch_mapper`` must be given, and
    exactly one of ``reducer`` / ``batch_reducer``.  ``combiner`` is
    optional and, as in Hadoop, must be associative and idempotent with
    respect to the reducer's semantics.
    """

    name: str
    mapper: Mapper | None = None
    batch_mapper: BatchMapper | None = None
    reducer: Reducer | None = None
    batch_reducer: BatchReducer | None = None
    combiner: Combiner | None = None
    # Optional vectorized form of ``combiner``: takes a GroupedBatch and
    # returns a combined ColumnBatch, or None to defer to ``combiner``
    # per group.  Must agree with ``combiner`` bit-for-bit.
    batch_combiner: BatchCombiner | None = None
    num_reducers: int = 1
    partitioner: Callable[[Any, int], int] = hash_partitioner
    costs: CostHints = field(default_factory=CostHints)
    output_category: str = TrafficCategory.MODEL_UPDATE
    output_replication: int = 3
    # Optional override for a map task's compute time:
    # map_cost(num_records, split_nbytes, ctx) -> seconds at reference CPU.
    # PIC's best-effort jobs use this to charge the in-mapper local
    # iterations the task actually performed (reported via ctx.stats).
    map_cost: Callable[[int, int, TaskContext], float] | None = None

    def __post_init__(self) -> None:
        if (self.mapper is None) == (self.batch_mapper is None):
            raise ValueError(
                f"job {self.name!r}: specify exactly one of mapper/batch_mapper"
            )
        if (self.reducer is None) == (self.batch_reducer is None):
            raise ValueError(
                f"job {self.name!r}: specify exactly one of reducer/batch_reducer"
            )
        if self.batch_combiner is not None and self.combiner is None:
            raise ValueError(
                f"job {self.name!r}: batch_combiner requires a scalar "
                "combiner (it runs whenever batch_combiner returns None)"
            )
        if self.num_reducers <= 0:
            raise ValueError(
                f"job {self.name!r}: num_reducers must be positive, got {self.num_reducers}"
            )
        if self.output_replication < 1:
            raise ValueError(
                f"job {self.name!r}: output_replication must be >= 1"
            )

    def run_mapper(self, ctx: TaskContext, records: ColumnBatch) -> None:
        """Invoke whichever mapper form the job defines."""
        if self.batch_mapper is not None:
            self.batch_mapper(ctx, records)
        else:
            assert self.mapper is not None
            for key, value in records:
                self.mapper(ctx, key, value)

    def run_combiner(self, grouped: GroupedBatch) -> ColumnBatch:
        """Combine groups into exactly one record per group, in group
        order: the batch combiner when the job provides one (and it
        accepts the layout), else the scalar combiner per group —
        identical results either way.  ``grouped`` may span several
        reduce partitions (a whole map output grouped by (partition,
        key)): the caller cuts the result by group counts, so a batch
        combiner that drops or adds records is an error, not a smaller
        job.  No groups combine to no records, whatever the column
        kinds, so a batch combiner only ever sees its own layout."""
        if not len(grouped):
            return ColumnBatch(grouped.sorted_keys, grouped.sorted_values)
        if self.batch_combiner is not None:
            combined = self.batch_combiner(grouped)
            if combined is not None:
                if len(combined) != len(grouped):
                    raise ValueError(
                        f"job {self.name!r}: batch_combiner returned "
                        f"{len(combined)} records for {len(grouped)} groups; "
                        "expected exactly one per group"
                    )
                return combined
        assert self.combiner is not None
        return ColumnBatch.from_rows(
            [(key, self.combiner(key, values)) for key, values in grouped]
        )

    def run_reducer(self, ctx: TaskContext, grouped: GroupedBatch) -> None:
        """Invoke whichever reducer form the job defines."""
        if self.batch_reducer is not None:
            self.batch_reducer(ctx, grouped)
        else:
            assert self.reducer is not None
            for key, values in grouped:
                self.reducer(ctx, key, values)


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
