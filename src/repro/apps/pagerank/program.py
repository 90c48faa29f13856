"""PageRank as a PIC program (paper Figures 7 and 8).

The model contains *both* vertex ranks and edge scores (Section IV-B:
"we consider the set of edge scores as part of the model"), making this
the paper's large-model case: model-update and model-distribution
traffic scale with the edge count.

Conventional IC realisation — two chained MapReduce jobs per iteration,
mirroring the Nutch implementation:

* **aggregation** — each vertex's incoming edge scores are summed into
  ``PR_i = (1 − c) + c·Σ edge_ji``;
* **propagation** — each edge's score becomes ``PR_j / outdeg(j)``.

PIC realisation — vertices are split into disjoint groups; "vertices and
the edges that are fully contained in a group form a sub-graph".  Local
iterations run unmodified PageRank on each sub-graph.  The merge
concatenates the partial models, then (the only cross-partition
coupling) scores every cross-partition edge from its source's new rank
and folds those scores into the destination ranks.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from typing import Any, Sequence

import numpy as np

from repro.mapreduce.columnar import (
    ColumnBatch,
    GroupedBatch,
    StringColumn,
    TupleColumn,
    emit_first_values,
    float_column,
    group_sums,
    int_column,
    stack_rows,
)
from repro.mapreduce.costs import CostHints
from repro.mapreduce.job import TaskContext
from repro.pic.api import PICProgram
from repro.pic.convergence import Verdict, fixed_iterations
from repro.pic.mergers import concat_merge
from repro.pic.model import as_model
from repro.util.rng import SeedLike, as_generator

PR = "pr"
EDGE = "e"


class PageRankProgram(PICProgram):
    """Nutch-style PageRank for the PIC framework.

    Model keys: ``("pr", v)`` → rank, ``("e", j, i)`` → score of edge
    j→i.  Input records: ``(vertex, tuple_of_out_links)``.
    """

    def __init__(
        self,
        damping: float = 0.85,
        iteration_limit: int = 10,
        local_iteration_limit: int = 6,
        be_iteration_limit: int = 2,
        topoff_iteration_limit: int = 2,
        partition_mode: str = "contiguous",
        num_reducers: int = 8,
        avg_out_degree: float = 8.0,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        if iteration_limit < 1 or local_iteration_limit < 1 or be_iteration_limit < 1:
            raise ValueError("iteration limits must be >= 1")
        if partition_mode not in ("random", "contiguous", "mincut"):
            raise ValueError(
                "partition_mode must be 'random', 'contiguous' or 'mincut', "
                f"got {partition_mode!r}"
            )
        self.damping = damping
        self.iteration_limit = iteration_limit
        self._local_iteration_limit = local_iteration_limit
        self.be_iteration_limit = be_iteration_limit
        self.topoff_iteration_limit = topoff_iteration_limit
        self.partition_mode = partition_mode
        self.num_reducers = num_reducers
        self.name = "pagerank"
        self.model_mode = "partitioned"
        # Each input record expands into ~avg_out_degree edge emissions.
        self.costs = CostHints(
            map_seconds_per_record=1e-6 + 6e-7 * avg_out_degree,
            reduce_seconds_per_record=1e-6,
        )
        # Cross-partition bookkeeping captured by partition(), used by merge().
        self._cross_edges: list[tuple[int, int]] = []
        self._full_outdeg: dict[int, int] = {}

    # -- model construction ----------------------------------------------

    def initial_model(
        self, records: Sequence[tuple[Any, Any]], seed: SeedLike = 0
    ) -> dict[Any, float]:
        """Unit ranks plus the initial propagation of edge scores."""
        model: dict[Any, float] = {}
        for v, outs in records:
            model[(PR, v)] = 1.0
        for v, outs in records:
            score = model[(PR, v)] / max(len(outs), 1)
            for t in outs:
                model[(EDGE, v, t)] = score
        return model

    # -- conventional IC: two chained jobs per iteration -------------------

    def jobs(self, model: Any, iteration: int) -> list:
        """Each iteration chains the aggregation and propagation jobs."""
        return [
            self.job_spec(suffix="-aggregate"),
            self.job_spec(suffix="-propagate"),
        ]

    def batch_map(self, ctx: TaskContext, records: ColumnBatch) -> None:
        """Not a job's mapper: jobs() dispatches one mapper per phase."""
        raise RuntimeError("PageRankProgram uses per-phase mappers via jobs()")

    def job_spec(self, suffix: str = ""):
        """Build the aggregation or propagation JobSpec by suffix."""
        from repro.mapreduce.job import JobSpec

        if suffix == "-aggregate":
            return JobSpec(
                name=f"{self.name}{suffix}",
                mapper=self._map_aggregate,
                reducer=self._reduce_aggregate,
                combiner=self._combine_sums,
                num_reducers=self.num_reducers,
                costs=self.costs,
            )
        if suffix == "-propagate":
            return JobSpec(
                name=f"{self.name}{suffix}",
                mapper=self._map_propagate,
                reducer=self._reduce_identity,
                num_reducers=self.num_reducers,
                costs=self.costs,
            )
        raise ValueError(f"unknown PageRank job suffix {suffix!r}")

    def _map_aggregate(self, ctx: TaskContext, records: ColumnBatch) -> None:
        # One typed batch per split, in the order the scalar loop emits:
        # (v, 0.0) — keeping sink-only vertices alive — then one
        # (t, score of edge v→t) per out-link, vertex after vertex.
        vertices, degrees, targets = _adjacency(records)
        if not len(vertices):
            return
        sources = np.repeat(vertices, degrees)
        scores = as_model(ctx.model).lookup(_edge_keys(sources, targets))
        # Record r's own slot is r plus the out-links before it; its
        # out-links fill the slots up to the next record's.
        own = np.arange(len(vertices)) + np.cumsum(degrees) - degrees
        keys = np.empty(len(vertices) + len(targets), dtype=np.int64)
        values = np.zeros(len(keys))
        is_link = np.ones(len(keys), dtype=bool)
        is_link[own] = False
        keys[own] = vertices
        keys[is_link] = targets
        values[is_link] = stack_rows(scores)
        ctx.emit_batch(ColumnBatch(int_column(keys), float_column(values)))

    def _combine_sums(self, grouped: GroupedBatch) -> ColumnBatch:
        # 0.0 + x1 + x2 + ... per group, left to right (group_sums).
        sums = group_sums(grouped, stack_rows(grouped.sorted_values))
        return ColumnBatch(grouped.unique_keys(), float_column(sums))

    def _reduce_aggregate(self, ctx: TaskContext, grouped: GroupedBatch) -> None:
        # ((PR, v), (1 - c) + c * sum of v's incoming scores) per vertex,
        # in the column kinds ``from_rows`` gives those records.
        if not len(grouped):
            return  # a partition no vertex hashed to
        sums = group_sums(grouped, stack_rows(grouped.sorted_values))
        ranks = (1.0 - self.damping) + self.damping * sums
        vertices = stack_rows(grouped.unique_keys())
        ctx.emit_batch(ColumnBatch(_rank_keys(vertices), float_column(ranks)))

    def _map_propagate(self, ctx: TaskContext, records: ColumnBatch) -> None:
        # ((EDGE, v, t), rank(v) / outdeg(v)) per out-link, as one batch:
        # a float64 over an int64 is the division of a float by an int.
        vertices, degrees, targets = _adjacency(records)
        if not len(targets):
            return
        linked = degrees > 0
        ranks = as_model(ctx.model).lookup(_rank_keys(vertices[linked]))
        out_degrees = degrees[linked]
        scores = np.repeat(stack_rows(ranks) / out_degrees, out_degrees)
        ctx.emit_batch(
            ColumnBatch(
                _edge_keys(np.repeat(vertices, degrees), targets),
                float_column(scores),
            )
        )

    def _reduce_identity(self, ctx: TaskContext, grouped: GroupedBatch) -> None:
        emit_first_values(ctx, grouped)

    def converged(self, previous: Any, current: Any, iteration: int) -> Verdict:
        """Nutch terminates after a fixed number of iterations."""
        return fixed_iterations(self.iteration_limit)(previous, current, iteration)

    # -- PIC extras (Figure 8) ---------------------------------------------

    def partition(
        self,
        records: ColumnBatch,
        model: Any,
        num_partitions: int,
        seed: SeedLike = 0,
    ) -> list[tuple[list[tuple[Any, Any]], Any]]:
        """Split vertices into disjoint groups; sub-graph = internal edges.

        Also records the cross-partition edges and original out-degrees
        that the merge function needs.
        """
        # The sub-graphs rewrite every adjacency list, so this partition
        # walks the batch as rows (once: each iteration materializes them).
        rows = list(records)
        vertices = [v for v, _outs in rows]
        if self.partition_mode == "random":
            rng = as_generator(seed)
            order = rng.permutation(len(vertices))
            assignment = {
                vertices[int(idx)]: pos % num_partitions
                for pos, idx in enumerate(order)
            }
        elif self.partition_mode == "mincut":
            from repro.pic.graphcut import mincut_partition

            edges = [(v, t) for v, outs in rows for t in outs]
            assignment = mincut_partition(
                max(vertices) + 1, edges, num_partitions, seed=seed
            )
        else:
            n = len(vertices)
            assignment = {
                v: min(pos * num_partitions // max(n, 1), num_partitions - 1)
                for pos, v in enumerate(sorted(vertices))
            }
        self._assignment = assignment
        self._full_outdeg = {v: len(outs) for v, outs in rows}
        self._cross_edges = []

        sub_records: list[list[tuple[Any, Any]]] = [[] for _ in range(num_partitions)]
        sub_models: list[dict] = [{} for _ in range(num_partitions)]
        for v, outs in rows:
            p = assignment[v]
            internal = tuple(t for t in outs if assignment[t] == p)
            for t in outs:
                if assignment[t] != p:
                    self._cross_edges.append((v, t))
            sub_records[p].append((v, internal))
            sub_models[p][(PR, v)] = model.get((PR, v), 1.0)
            deg = max(len(internal), 1)
            for t in internal:
                sub_models[p][(EDGE, v, t)] = model.get(
                    (EDGE, v, t), model.get((PR, v), 1.0) / deg
                )
        return list(zip(sub_records, sub_models))

    def merge(self, models: list[Any]) -> Any:
        """Concatenate partial models, then factor in cross edges.

        "The merge function first computes the scores for all outgoing
        edges from a partition ... Then [it] also updates the PageRanks
        of the destination vertices of all outgoing edges."
        """
        merged = concat_merge(models)
        cross_by_dst: dict[int, float] = {}
        for j, i in self._cross_edges:
            if (PR, j) not in merged or (PR, i) not in merged:
                raise ValueError(
                    f"merge is missing ranks for cross edge {j}->{i}; "
                    "models do not cover the partition() that recorded it"
                )
            outdeg = max(self._full_outdeg.get(j, 1), 1)
            score = merged[(PR, j)] / outdeg
            merged[(EDGE, j, i)] = score
            cross_by_dst[i] = cross_by_dst.get(i, 0.0) + score
        for i, total in cross_by_dst.items():
            merged[(PR, i)] = merged[(PR, i)] + self.damping * total
        return merged

    def be_converged(self, previous: Any, current: Any, be_iteration: int) -> Verdict:
        """Best-effort iterations stop at a pre-set limit (Section IV-B)."""
        limit = fixed_iterations(self.be_iteration_limit)
        return limit(previous, current, be_iteration)

    def topoff_converged(self, previous: Any, current: Any, iteration: int) -> Verdict:
        """Top-off also uses a (small) pre-set limit: the best-effort
        phase has already propagated rank through the sub-graphs."""
        limit = fixed_iterations(self.topoff_iteration_limit)
        return limit(previous, current, iteration)

    def local_max_iterations(self) -> int:
        """Pre-set local iteration limit (Section IV-B)."""
        return self._local_iteration_limit

    # -- metrics -----------------------------------------------------------

    def rank_vector(self, model: Mapping[Any, float], num_vertices: int) -> np.ndarray:
        """Extract ranks as a dense vector for comparison metrics (a
        vertex the model has no rank for reads 0)."""
        return np.array(
            [model.get((PR, v), 0.0) for v in range(num_vertices)], dtype=float
        )


def _adjacency(records: ColumnBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A split's ``(vertex, out_links)`` records as flat int64 arrays:
    the vertices, their out-degrees, and every out-link's target, vertex
    after vertex in record order."""
    out_links = records.values.rows()
    degrees = np.fromiter(map(len, out_links), dtype=np.int64, count=len(out_links))
    targets = np.fromiter(
        chain.from_iterable(out_links), dtype=np.int64, count=int(degrees.sum())
    )
    return np.asarray(stack_rows(records.keys), dtype=np.int64), degrees, targets


def _edge_keys(sources: np.ndarray, targets: np.ndarray) -> TupleColumn:
    """The model keys ``(EDGE, j, i)`` of edges ``j → i``: the column
    ``from_rows`` builds of those tuples."""
    return TupleColumn(
        (
            StringColumn(np.full(len(sources), EDGE)),
            int_column(sources),
            int_column(targets),
        ),
        len(sources),
    )


def _rank_keys(vertices: np.ndarray) -> TupleColumn:
    """The model keys ``(PR, v)`` of ``vertices``."""
    return TupleColumn(
        (StringColumn(np.full(len(vertices), PR)), int_column(vertices)),
        len(vertices),
    )
