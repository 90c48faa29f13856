"""Tests for the best-effort phase engine."""

import pytest

from repro.cluster.cluster import Cluster
from repro.pic.engine import BestEffortEngine
from tests.pic.toy import MeanProgram


def make_cluster(num_nodes=4):
    return Cluster(num_nodes=num_nodes, nodes_per_rack=num_nodes)


def make_engine(num_partitions=4, be_max_iterations=20, threshold=1e-6, **kw):
    cluster = make_cluster()
    prog = MeanProgram(threshold=threshold)
    engine = BestEffortEngine(
        cluster, prog, num_partitions=num_partitions,
        be_max_iterations=be_max_iterations, **kw
    )
    return cluster, prog, engine


RECORDS = [(i, float(i)) for i in range(40)]  # mean 19.5


class TestConstruction:
    def test_invalid_partitions_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            BestEffortEngine(cluster, MeanProgram(), num_partitions=0)

    def test_invalid_be_cap_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            BestEffortEngine(cluster, MeanProgram(), 2, be_max_iterations=0)

    def test_home_nodes_round_robin(self):
        _c, _p, engine = make_engine(num_partitions=6)
        assert [engine.home_node(i) for i in range(6)] == [0, 1, 2, 3, 0, 1]


class TestExecution:
    def test_converges_to_data_mean(self):
        _c, _p, engine = make_engine()
        result = engine.run(RECORDS, {"mean": 0.0})
        # Partition means differ from the global mean, but averaging the
        # local fixed points gives the global mean for equal-size parts.
        assert result.model["mean"] == pytest.approx(19.5, abs=0.05)

    def test_be_iteration_stats_recorded(self):
        _c, _p, engine = make_engine()
        result = engine.run(RECORDS, {"mean": 0.0})
        assert result.be_iterations == len(result.stats)
        for s in result.stats:
            assert len(s.local_iterations) == 4
            assert s.duration > 0
            assert s.max_local_iterations == max(s.local_iterations)

    def test_first_round_does_bulk_of_work(self):
        _c, _p, engine = make_engine()
        result = engine.run(RECORDS, {"mean": 0.0})
        rounds = result.max_local_iterations_by_round
        assert rounds[0] > rounds[-1]

    def test_respects_be_cap(self):
        _c, _p, engine = make_engine(be_max_iterations=2, threshold=1e-12)
        result = engine.run(RECORDS, {"mean": 0.0})
        assert result.be_iterations == 2

    def test_single_partition_degenerates_to_serial_solve(self):
        """Section III-B: one partition + identity merge = conventional IC.

        The engine needs one extra round to *observe* convergence (the
        BE criterion compares successive merged models), but the answer
        is exactly the serial solve's.
        """
        _c, prog, engine = make_engine(num_partitions=1)
        result = engine.run(RECORDS, {"mean": 0.0})
        serial, _iters, _c2 = prog.solve_in_memory(RECORDS, {"mean": 0.0})
        assert result.model["mean"] == pytest.approx(serial["mean"])
        assert result.be_iterations <= 2

    def test_model_locations_populated(self):
        cluster, _p, engine = make_engine()
        result = engine.run(RECORDS, {"mean": 0.0})
        assert result.model_locations
        for node in result.model_locations:
            assert 0 <= node < cluster.num_nodes

    def test_more_partitions_than_nodes(self):
        _c, _p, engine = make_engine(num_partitions=10)
        result = engine.run(RECORDS, {"mean": 0.0})
        assert result.model["mean"] == pytest.approx(19.5, abs=0.1)

    def test_partition_count_mismatch_detected(self):
        class Bad(MeanProgram):
            def partition(self, records, model, num_partitions, seed=0):
                return [(list(records), dict(model))]  # always one

        cluster = make_cluster()
        engine = BestEffortEngine(cluster, Bad(), num_partitions=3)
        with pytest.raises(ValueError, match="sub-problems"):
            engine.run(RECORDS, {"mean": 0.0})


class TestTraffic:
    def test_shuffle_is_submodels_only(self):
        cluster, prog, engine = make_engine()
        result = engine.run(RECORDS, {"mean": 0.0})
        # Each best-effort round shuffles 4 sub-models (~1 entry each,
        # plus record framing); the per-point data never hits the fabric.
        per_round_upper = 4 * (prog.model_bytes({"mean": 0.0}) + 64)
        assert cluster.meter.total("shuffle") <= per_round_upper * result.be_iterations

    def test_repartition_charged_once(self):
        from repro.util.sizing import sizeof_records

        cluster, prog, engine = make_engine(be_max_iterations=5, threshold=1e-12)
        engine.run(RECORDS, {"mean": 0.0})
        repartition = cluster.meter.total("repartition")
        assert repartition > 0
        # Co-location is a one-time cost: at most one pass over the data,
        # regardless of how many best-effort rounds ran.
        assert repartition <= sizeof_records(RECORDS)
        # The scatter is aggregated into node-pair flows, but the byte
        # total must equal the per-partition accounting exactly: each
        # partition ships (n-1)/n of its bytes to its home node.
        n = cluster.num_nodes
        pairs = prog.partition(RECORDS, {"mean": 0.0}, 4, seed=engine.seed)
        expected = sum(sizeof_records(recs) * (n - 1) / n for recs, _m in pairs)
        assert repartition == pytest.approx(expected, rel=1e-12)

    def test_colocation_scatter_aggregated_per_node_pair(self):
        # 10 partitions on 4 nodes used to issue 10*(4-1)=30 scatter
        # flows; aggregation bounds them by the n*(n-1) node pairs.
        cluster, _p, engine = make_engine(num_partitions=10)
        engine.run(RECORDS, {"mean": 0.0})
        n = cluster.num_nodes
        assert 0 < cluster.meter.transfers("repartition") <= n * (n - 1)

    def test_model_updates_per_round(self):
        cluster, _p, engine = make_engine()
        result = engine.run(RECORDS, {"mean": 0.0})
        assert cluster.meter.total("model_update") > 0
        assert cluster.meter.transfers("model_update") >= result.be_iterations

    def test_clock_advances(self):
        cluster, _p, engine = make_engine()
        engine.run(RECORDS, {"mean": 0.0})
        assert cluster.now > 0


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        _c1, _p1, e1 = make_engine()
        _c2, _p2, e2 = make_engine()
        r1 = e1.run(RECORDS, {"mean": 0.0})
        r2 = e2.run(RECORDS, {"mean": 0.0})
        assert r1.model == r2.model
        assert r1.total_time == pytest.approx(r2.total_time)
        assert r1.local_iterations_by_round == r2.local_iterations_by_round

    def test_pool_sees_the_solves_but_never_the_replay_job(self):
        """A best-effort job's mappers are closures replaying the solves
        the engine already sent through its executor, so the engine's own
        job runner must not offer them to the pool (it would export every
        split to shared memory only to fail on the closure)."""
        from repro.parallel import (
            ProcessPoolTaskExecutor,
            SerialExecutor,
            run_map_task,
            solve_subproblem,
        )

        class SpyPool(ProcessPoolTaskExecutor):
            def __init__(self):
                super().__init__(2)
                self.calls = []

            def map_or_none(self, fn, payloads):
                self.calls.append(fn)
                return super().map_or_none(fn, payloads)

        spy = SpyPool()
        c_serial, _p, serial = make_engine(executor=SerialExecutor())
        c_pool, _p, pooled = make_engine(executor=spy)
        r_serial = serial.run(RECORDS, {"mean": 0.0})
        r_pool = pooled.run(RECORDS, {"mean": 0.0})
        assert run_map_task not in spy.calls
        assert spy.calls == [solve_subproblem] * r_pool.be_iterations
        assert r_pool.model == r_serial.model
        assert r_pool.stats == r_serial.stats
        assert r_pool.total_time == r_serial.total_time
        assert c_pool.meter.snapshot() == c_serial.meter.snapshot()
