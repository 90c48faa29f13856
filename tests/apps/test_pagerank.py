"""Tests for the PageRank application."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.apps.pagerank import PageRankProgram, local_web_graph, nutch_pagerank
from repro.apps.pagerank.program import EDGE, PR
from repro.mapreduce.columnar import (
    Column,
    ColumnBatch,
    ScalarColumn,
    StringColumn,
    TupleColumn,
    columnize,
    group_batch,
)
from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.job import TaskContext
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner
from repro.pic.model import as_model
from tests.apps.reference_pagerank import (
    reference_combine_sum,
    reference_map_aggregate,
    reference_map_propagate,
    reference_reduce_aggregate,
)
from tests.mapreduce.per_group import GroupCombiner, GroupReducer


def cross_edge_fraction(records, assignment):
    """Fraction of edges whose endpoints fall in different partitions."""
    edges = [(v, t) for v, outs in records for t in outs]
    cross = sum(assignment[v] != assignment[t] for v, t in edges)
    return cross / len(edges) if edges else 0.0


class TestDatagen:
    def test_every_vertex_has_out_links(self):
        records = local_web_graph(200, seed=1)
        assert len(records) == 200
        assert all(len(outs) >= 1 for _v, outs in records)

    def test_no_self_loops_or_duplicates(self):
        records = local_web_graph(300, seed=2)
        for v, outs in records:
            assert v not in outs
            assert len(set(outs)) == len(outs)

    def test_locality(self):
        records = local_web_graph(
            2000, locality_scale=10.0, long_range_fraction=0.0, seed=3
        )
        distances = [abs(t - v) for v, outs in records for t in outs]
        assert np.median(distances) < 30

    def test_long_range_fraction_increases_cross_edges(self):
        n, p = 2000, 10
        assign = {v: v * p // n for v in range(n)}
        local = local_web_graph(n, long_range_fraction=0.0, seed=4)
        mixed = local_web_graph(n, long_range_fraction=0.5, seed=4)
        assert cross_edge_fraction(mixed, assign) > cross_edge_fraction(local, assign)

    def test_deterministic(self):
        assert local_web_graph(100, seed=5) == local_web_graph(100, seed=5)

    @pytest.mark.parametrize(
        "kw",
        [
            {"num_vertices": 1},
            {"num_vertices": 10, "avg_out_degree": 0},
            {"num_vertices": 10, "long_range_fraction": 1.5},
            {"num_vertices": 10, "locality_scale": 0},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            local_web_graph(**kw)


class TestSerialReference:
    def test_ranks_positive_with_floor(self):
        records = local_web_graph(500, seed=1)
        pr = nutch_pagerank(records)
        assert np.all(pr >= 1.0 - 0.85 - 1e-9)

    def test_popular_vertex_ranks_higher(self):
        # Star: everyone links to 0; 0 links to 1.  The 0<->1 cycle needs
        # more than Nutch's default 10 iterations to damp out.
        records = [(0, (1,))] + [(v, (0,)) for v in range(1, 20)]
        pr = nutch_pagerank(records, iterations=50)
        assert pr[0] == max(pr)
        assert pr[1] > pr[2]

    def test_more_iterations_converge(self):
        records = local_web_graph(500, seed=1)
        a = nutch_pagerank(records, iterations=30)
        b = nutch_pagerank(records, iterations=31)
        assert np.abs(a - b).max() < 1e-3

    def test_invalid_params(self):
        records = [(0, (1,)), (1, (0,))]
        with pytest.raises(ValueError):
            nutch_pagerank(records, iterations=0)
        with pytest.raises(ValueError):
            nutch_pagerank(records, damping=1.0)


class TestProgramIC:
    def test_ic_matches_serial_reference(self):
        records = local_web_graph(300, seed=2)
        prog = PageRankProgram()
        model = prog.initial_model(records)
        batch = columnize(records)
        for it in range(prog.iteration_limit):
            model, _cost = prog.run_iteration_in_memory(batch, model, it)
        ours = prog.rank_vector(model, len(records))
        reference = nutch_pagerank(records)
        assert np.allclose(ours, reference, atol=1e-9)

    def test_initial_model_has_pr_and_edges(self):
        records = [(0, (1,)), (1, (0,))]
        model = PageRankProgram().initial_model(records)
        assert model[(PR, 0)] == 1.0
        assert (EDGE, 0, 1) in model

    def test_jobs_chain_two_phases(self):
        prog = PageRankProgram()
        specs = prog.jobs({}, 0)
        assert [s.name for s in specs] == ["pagerank-aggregate", "pagerank-propagate"]

    def test_aggregate_mapper_emits_incoming_scores(self):
        prog = PageRankProgram()
        records = [(0, (1,))]
        model = {(PR, 0): 1.0, (EDGE, 0, 1): 0.5}
        ctx = TaskContext(model=model)
        prog._map_aggregate(ctx, columnize(records))
        assert (1, 0.5) in ctx.output
        assert (0, 0.0) in ctx.output

    def test_propagate_splits_rank_over_outdegree(self):
        prog = PageRankProgram()
        records = [(0, (1, 2))]
        ctx = TaskContext(model={(PR, 0): 1.0})
        prog._map_propagate(ctx, columnize(records))
        assert ((EDGE, 0, 1), 0.5) in ctx.output
        assert ((EDGE, 0, 2), 0.5) in ctx.output

    def test_converged_is_fixed_iterations(self):
        prog = PageRankProgram(iteration_limit=10)
        assert not prog.converged({}, {}, 8)
        assert prog.converged({}, {}, 9)

    def test_model_mode_partitioned(self):
        assert PageRankProgram().model_mode == "partitioned"

    @pytest.mark.parametrize(
        "kw",
        [{"damping": 0.0}, {"damping": 1.0}, {"iteration_limit": 0},
         {"partition_mode": "magic"}],
    )
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            PageRankProgram(**kw)


class TestProgramPIC:
    def test_partition_vertex_disjoint(self):
        records = local_web_graph(200, seed=3)
        prog = PageRankProgram(partition_mode="contiguous")
        pairs = prog.partition(records, prog.initial_model(records), 4, seed=0)
        seen: set[int] = set()
        for recs, _model in pairs:
            vertices = {v for v, _o in recs}
            assert not vertices & seen
            seen |= vertices
        assert len(seen) == 200

    def test_partition_filters_cross_edges(self):
        records = local_web_graph(200, seed=3)
        prog = PageRankProgram(partition_mode="contiguous")
        pairs = prog.partition(records, prog.initial_model(records), 4, seed=0)
        for recs, _model in pairs:
            vertices = {v for v, _o in recs}
            for _v, outs in recs:
                assert all(t in vertices for t in outs)

    def test_cross_edges_recorded(self):
        records = local_web_graph(200, long_range_fraction=0.3, seed=3)
        prog = PageRankProgram(partition_mode="contiguous")
        prog.partition(records, prog.initial_model(records), 4, seed=0)
        total_edges = sum(len(o) for _v, o in records)
        internal = total_edges - len(prog._cross_edges)
        assert len(prog._cross_edges) > 0
        assert internal > 0

    def test_random_mode_differs_from_contiguous(self):
        records = local_web_graph(200, seed=3)
        rand = PageRankProgram(partition_mode="random")
        cont = PageRankProgram(partition_mode="contiguous")
        model = rand.initial_model(records)
        rand.partition(records, model, 4, seed=0)
        cont.partition(records, model, 4, seed=0)
        assert len(rand._cross_edges) > len(cont._cross_edges)

    def test_merge_scores_cross_edges_and_bumps_destinations(self):
        # Two partitions: {0}, {1}; edge 0 -> 1 crosses.
        records = [(0, (1,)), (1, (0,))]
        prog = PageRankProgram(partition_mode="contiguous")
        pairs = prog.partition(records, prog.initial_model(records), 2, seed=0)
        models = [m for _r, m in pairs]
        base_pr1 = models[1][(PR, 1)]
        merged = prog.merge(models)
        assert (EDGE, 0, 1) in merged
        assert merged[(PR, 1)] > base_pr1

    def test_merge_count_mismatch_rejected(self):
        records = [(0, (1,)), (1, (0,))]
        prog = PageRankProgram()
        prog.partition(records, prog.initial_model(records), 2, seed=0)
        with pytest.raises(ValueError):
            prog.merge([{}])

    def test_be_and_topoff_limits(self):
        prog = PageRankProgram(be_iteration_limit=2, topoff_iteration_limit=3)
        assert prog.be_converged({}, {}, 1)
        assert not prog.be_converged({}, {}, 0)
        assert prog.topoff_converged({}, {}, 2)
        assert not prog.topoff_converged({}, {}, 1)

    def test_rank_vector_extraction(self):
        prog = PageRankProgram()
        model = {(PR, 0): 1.5, (PR, 2): 0.5, (EDGE, 0, 2): 0.1}
        vec = prog.rank_vector(model, 3)
        assert np.allclose(vec, [1.5, 0.0, 0.5])


def _kinds(column: Column):
    """A column's kind, down to scalar kinds, string widths and slots."""
    if isinstance(column, TupleColumn):
        return ("tuple", tuple(_kinds(slot) for slot in column.slots))
    if isinstance(column, ScalarColumn):
        return (column.kind, column.values.dtype)
    if isinstance(column, StringColumn):
        return ("str", column.values.dtype)
    return type(column).__name__


def _assert_same_batch(got: ColumnBatch, expected: ColumnBatch) -> None:
    assert got.to_rows() == expected.to_rows()
    assert _kinds(got.keys) == _kinds(expected.keys)
    assert _kinds(got.values) == _kinds(expected.values)
    assert got.nbytes_wire() == expected.nbytes_wire()


# Sinks (no out-links), self-loops, a duplicate out-link, ids out of order.
_GRAPHS = {
    "web": local_web_graph(60, avg_out_degree=4.0, seed=6),
    "sinks_and_self_loops": [
        (4, ()), (0, (0, 2)), (2, (2,)), (1, (0, 4, 0)), (3, ()), (7, (1,)),
    ],
    "only_sinks": [(0, ()), (1, ())],
    "uniform_degree": [(0, (1, 2)), (1, (2, 0)), (2, (0, 1))],
}


class TestBatchEmittersAgainstScalarLoops:
    """``_map_aggregate``/``_map_propagate`` emit, split by split, the
    records the scalar loops emitted: same rows, same order, same column
    kinds (so the shuffle hashes, groups and sizes them identically)."""

    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    @pytest.mark.parametrize("as_table", [True, False])
    def test_split_by_split(self, name, as_table):
        records = _GRAPHS[name]
        prog = PageRankProgram()
        model = prog.initial_model(records)
        # Uneven ranks, so a swapped vertex would show in the scores.
        model = {k: v * (1.0 + 0.37 * k[1]) for k, v in model.items()}
        batch = columnize(records)
        splits = batch.even_slices(3) + [batch.slice(0, 0)]  # and an empty split
        for split in splits:
            for mapper, reference in (
                (prog._map_aggregate, reference_map_aggregate),
                (prog._map_propagate, reference_map_propagate),
            ):
                ctx = TaskContext(model=as_model(model) if as_table else model)
                mapper(ctx, split)
                expected = TaskContext()
                reference(expected, model, split)
                _assert_same_batch(ctx.collect(), expected.collect())

    def test_scores_are_bit_identical(self):
        # rank / outdeg, for ranks and degrees whose quotient rounds.
        records = [(v, tuple(range(v % 7 + 1))) for v in range(40)]
        prog = PageRankProgram()
        model = {k: v / 3.0 for k, v in prog.initial_model(records).items()}
        ctx, expected = TaskContext(model=model), TaskContext()
        prog._map_propagate(ctx, columnize(records))
        reference_map_propagate(expected, model, columnize(records))
        got = [v.hex() for _k, v in ctx.output]
        assert got == [v.hex() for _k, v in expected.output]

    def test_missing_edge_score_is_a_key_error(self):
        prog = PageRankProgram()
        ctx = TaskContext(model={(PR, 0): 1.0})
        with pytest.raises(KeyError):
            prog._map_aggregate(ctx, columnize([(0, (1,))]))

    def test_rank_vector_reads_ranks_only(self):
        prog = PageRankProgram()
        model = {(PR, 0): 0.5, (PR, 2): 1.5, (EDGE, 0, 2): 9.0}
        for m in (model, as_model(model)):
            assert prog.rank_vector(m, 3).tolist() == [0.5, 0.0, 1.5]


def _run_job(spec, records, model, pipeline):
    cluster = Cluster(num_nodes=4, nodes_per_rack=2)
    dfs = DistributedFileSystem(cluster)
    dataset = DistributedDataset.materialize(dfs, "/graph", records, 3)
    runner = JobRunner(cluster, dfs, pipeline=pipeline)
    return runner.run(spec, dataset, model=model, model_bytes=1024)


class TestAggregateJobAgainstScalarReducer:
    """The aggregate job — ``_combine_sums`` and the batch
    ``_reduce_aggregate`` — gives what the scalar combiner and reducer
    gave, through whole jobs: same records (ranks bit for bit), same
    column kinds, same bytes, counters and simulated finish time."""

    @pytest.mark.parametrize("pipeline", [False, True], ids=["barrier", "pipelined"])
    @pytest.mark.parametrize("combiner", [True, False], ids=["combiner", "no-combiner"])
    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    def test_whole_job(self, name, combiner, pipeline):
        records = _GRAPHS[name]
        prog = PageRankProgram(num_reducers=3)
        model = prog.initial_model(records)
        # Scores a third of a unit apart in the last bits, so a sum
        # taken in another order would round differently.
        model = {k: v / 3.0 * (1.0 + 1e-3 * (k[1] % 7)) for k, v in model.items()}
        spec = prog.job_spec(suffix="-aggregate")
        assert spec.reducer == prog._reduce_aggregate
        assert spec.combiner == prog._combine_sums
        scalar = replace(
            spec,
            reducer=GroupReducer(partial(reference_reduce_aggregate, prog.damping)),
            combiner=GroupCombiner(reference_combine_sum),
        )
        if not combiner:
            spec = replace(spec, combiner=None)
            scalar = replace(scalar, combiner=None)
        got = _run_job(spec, records, model, pipeline)
        expected = _run_job(scalar, records, model, pipeline)
        _assert_same_batch(got.output, expected.output)
        assert [v.hex() for _k, v in got.output] == [v.hex() for _k, v in expected.output]
        assert got.counters.as_dict() == expected.counters.as_dict()
        assert got.shuffle_bytes == expected.shuffle_bytes
        assert got.output_bytes == expected.output_bytes
        assert got.finished_at == expected.finished_at

    def test_batch_combiner_equals_the_scalar_combiner(self):
        records = _GRAPHS["web"]
        prog = PageRankProgram()
        model = {k: v / 3.0 for k, v in prog.initial_model(records).items()}
        ctx = TaskContext(model=model)
        prog._map_aggregate(ctx, columnize(records))
        grouped = group_batch(ctx.collect())
        combined = prog._combine_sums(grouped)
        expected = ColumnBatch.from_rows(
            [(key, reference_combine_sum(key, values)) for key, values in grouped]
        )
        _assert_same_batch(combined, expected)
        assert [v.hex() for _k, v in combined] == [v.hex() for _k, v in expected]
