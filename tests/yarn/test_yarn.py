"""Tests for the YARN-style resource manager and PIC-on-YARN port."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.topology import NodeSpec
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.columnar import ColumnBatch
from repro.mapreduce.job import JobSpec
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner
from repro.parallel import SerialExecutor
from repro.parallel.tasks import compute_job
from repro.pic.runner import PICRunner
from repro.yarn import (
    Resource,
    ResourceManager,
    YarnJobRunner,
)
from tests.pic.toy import MeanProgram


def make_cluster(num_nodes=4, ram_gb=8, cores=4):
    return Cluster(
        num_nodes=num_nodes, nodes_per_rack=num_nodes,
        node_spec=NodeSpec(cores=cores, ram_bytes=ram_gb * 2**30),
    )


class TestResource:
    def test_arithmetic(self):
        a = Resource(1024, 2)
        b = Resource(512, 1)
        assert a + b == Resource(1536, 3)
        assert a - b == Resource(512, 1)

    def test_fits_in(self):
        assert Resource(512, 1).fits_in(Resource(1024, 2))
        assert not Resource(2048, 1).fits_in(Resource(1024, 2))
        assert not Resource(512, 3).fits_in(Resource(1024, 2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Resource(-1, 0)


class TestResourceManager:
    def test_capacity_reserves_headroom(self):
        rm = ResourceManager(make_cluster(ram_gb=8))
        cap = rm.capacity(0)
        assert cap.memory_mb == int(8 * 1024 * 0.75)
        assert cap.vcores == 4

    def test_grant_and_release_conserve_capacity(self):
        rm = ResourceManager(make_cluster())
        granted = []
        rm.request(Resource(1024, 1), granted.append)
        assert len(granted) == 1
        container = granted[0]
        before = rm.available(container.node_id)
        rm.release(container)
        after = rm.available(container.node_id)
        assert after.memory_mb == before.memory_mb + 1024
        assert after == rm.capacity(container.node_id)

    def test_locality_preference(self):
        rm = ResourceManager(make_cluster())
        granted = []
        rm.request(Resource(1024, 1), granted.append, preferred=(2,))
        assert granted[0].node_id == 2

    def test_queues_when_full(self):
        rm = ResourceManager(make_cluster(num_nodes=1, ram_gb=2, cores=1))
        granted = []
        rm.request(Resource(1024, 1), granted.append)
        rm.request(Resource(1024, 1), granted.append)
        assert len(granted) == 1  # second waits: only 1 vcore
        rm.release(granted[0])
        assert len(granted) == 2

    def test_memory_constrains_independently_of_cores(self):
        # 2 GB usable = 1536 MB -> one 1024 MB container despite 4 cores.
        rm = ResourceManager(make_cluster(num_nodes=1, ram_gb=2, cores=4))
        granted = []
        rm.request(Resource(1024, 1), granted.append)
        rm.request(Resource(1024, 1), granted.append)
        assert len(granted) == 1

    def test_impossible_request_rejected(self):
        rm = ResourceManager(make_cluster(ram_gb=2))
        with pytest.raises(ValueError, match="capacity"):
            rm.request(Resource(10**6, 1), lambda c: None)

    def test_over_release_rejected(self):
        rm = ResourceManager(make_cluster())
        granted = []
        rm.request(Resource(1024, 1), granted.append)
        rm.release(granted[0])
        with pytest.raises(RuntimeError):
            rm.release(granted[0])

    def test_try_allocate_on_pins_node(self):
        rm = ResourceManager(make_cluster())
        container = rm.try_allocate_on(3, Resource(1024, 1))
        assert container is not None and container.node_id == 3
        assert rm.try_allocate_on(3, Resource(10**6, 1)) is None


def word_env(runner_cls, cluster=None):
    cluster = cluster or make_cluster(num_nodes=6, ram_gb=16, cores=8)
    dfs = DistributedFileSystem(cluster)
    records = [(i, f"w{i % 10}") for i in range(600)]
    dataset = DistributedDataset.materialize(dfs, "/in", records, 12)
    return cluster, runner_cls(cluster, dfs), dataset


def word_mapper(ctx, records):
    for _k, word in records:
        ctx.emit(word, 1)


def sum_reducer(ctx, grouped):
    for key, values in grouped:
        ctx.emit(key, sum(values))


def word_spec():
    return JobSpec(name="wc", mapper=word_mapper, reducer=sum_reducer, num_reducers=4)


class TestYarnJobRunner:
    def test_same_results_as_slot_runner(self):
        _c1, slot_runner, ds1 = word_env(JobRunner)
        _c2, yarn_runner, ds2 = word_env(YarnJobRunner)
        a = slot_runner.run(word_spec(), ds1)
        b = yarn_runner.run(word_spec(), ds2)
        assert sorted(a.output) == sorted(b.output)

    def test_containers_granted_and_returned(self):
        cluster, runner, dataset = word_env(YarnJobRunner)
        runner.run(word_spec(), dataset)
        assert runner.rm.containers_granted >= 12 + 4
        for node in cluster.nodes:
            assert runner.rm.available(node.node_id) == runner.rm.capacity(
                node.node_id
            )

    def test_memory_constrained_node_throttles_maps(self):
        # 4 GB RAM -> 3072 MB usable -> at most three 1024 MB map
        # containers at a time despite 8 vcores; the job still finishes.
        cluster = make_cluster(num_nodes=1, ram_gb=4, cores=8)
        _c, runner, dataset = word_env(YarnJobRunner, cluster=cluster)
        assert runner.map_scheduler.total_slots == 3
        result = runner.run(word_spec(), dataset)
        assert sorted(result.output) == sorted((f"w{i}", 60) for i in range(10))

    def test_oversized_profile_rejected(self):
        cluster = make_cluster(num_nodes=1, ram_gb=2, cores=8)
        dfs = DistributedFileSystem(cluster)
        with pytest.raises(ValueError, match="deadlock"):
            YarnJobRunner(cluster, dfs)  # default reduce profile: 2 GB

    def test_unknown_preferred_node_rejected(self):
        cluster = make_cluster(num_nodes=4)
        runner = YarnJobRunner(cluster, DistributedFileSystem(cluster))
        with pytest.raises(ValueError, match="preferred node 99 is not one of"):
            runner.map_scheduler.request(lambda n: None, preferred=[99])
        assert runner.rm._profiles == {} and runner.rm._queued == 0

    def test_adapter_slot_accounting(self):
        cluster, runner, _ds = word_env(YarnJobRunner)
        total = runner.map_scheduler.total_slots
        # 12 GB usable memory/node / 1 GB maps, capped by 8 vcores.
        assert total == 6 * 8

    def test_repeated_jobs(self):
        _c, runner, dataset = word_env(YarnJobRunner)
        for _ in range(3):
            result = runner.run(word_spec(), dataset)
            assert len(result.output) == 10


class TestPICOnYarn:
    def test_pic_runs_unchanged_on_containers(self):
        """Section VII: PIC ports to YARN with no PIC-level changes."""
        records = [(i, float(i)) for i in range(40)]
        cluster = make_cluster()
        dfs = DistributedFileSystem(cluster)
        from repro.pic.engine import BestEffortEngine

        engine = BestEffortEngine(
            cluster, MeanProgram(), num_partitions=4,
            runner=YarnJobRunner(cluster, dfs),
        )
        result = engine.run(records, {"mean": 0.0})
        assert result.model["mean"] == pytest.approx(19.5, abs=1e-3)

    def test_pic_yarn_matches_pic_slots(self):
        records = [(i, float(i)) for i in range(40)]
        slots = PICRunner(make_cluster(), MeanProgram(), num_partitions=4).run(
            records, initial_model={"mean": 0.0}
        )
        cluster = make_cluster()
        dfs = DistributedFileSystem(cluster)
        from repro.pic.engine import BestEffortEngine

        engine = BestEffortEngine(
            cluster, MeanProgram(), num_partitions=4,
            runner=YarnJobRunner(cluster, dfs),
        )
        yarn_be = engine.run(records, {"mean": 0.0})
        assert yarn_be.model["mean"] == pytest.approx(
            slots.best_effort.model["mean"], abs=1e-6
        )


class TestConcurrentApplications:
    def test_least_granted_app_served_first(self):
        """Queued requests from the app holding fewer containers win
        over an earlier-queued request of a greedier app."""
        rm = ResourceManager(make_cluster(num_nodes=1, ram_gb=4, cores=2))
        grants = []
        held = []
        # App 1 fills both vcores and queues two more requests.
        for _ in range(2):
            rm.request(Resource(1024, 1), held.append, app_id=1)
        for _ in range(2):
            rm.request(Resource(1024, 1),
                       lambda c: grants.append(c.app_id), app_id=1)
        # App 2 queues one request behind them.
        rm.request(Resource(1024, 1),
                   lambda c: grants.append(c.app_id), app_id=2)
        assert rm.outstanding(1) == 2 and rm.outstanding(2) == 0
        rm.release(held.pop())
        # App 2 (holding 0) beats app 1's older queued requests.
        assert grants == [2]

    def test_single_app_queue_is_fifo(self):
        rm = ResourceManager(make_cluster(num_nodes=1, ram_gb=4, cores=1))
        order = []
        held = []
        rm.request(Resource(1024, 1), held.append)
        for i in range(3):
            rm.request(Resource(1024, 1), lambda c, i=i: order.append(i))
        rm.release(held.pop())
        assert order == [0]

    def test_outstanding_tracks_reduce_pins(self):
        rm = ResourceManager(make_cluster())
        container = rm.try_allocate_on(0, Resource(1024, 1), app_id=7)
        assert container is not None
        assert rm.outstanding(7) == 1
        rm.release(container)
        assert rm.outstanding(7) == 0


class TestConcurrentJobs:
    def test_run_many_matches_solo_outputs(self):
        """Two word-count jobs sharing the cluster both finish and
        produce exactly the records a solo run produces."""
        cluster, runner, dataset = word_env(YarnJobRunner)
        solo_cluster, solo_runner, solo_dataset = word_env(YarnJobRunner)
        solo = solo_runner.run(word_spec(), solo_dataset)

        dfs = runner.dfs
        records = [(i, f"word{i % 4}") for i in range(120)]
        dataset_b = DistributedDataset.materialize(dfs, "/in-b", records, 4)
        results = runner.run_many([
            (word_spec(), dataset),
            (word_spec(), dataset_b),
        ])
        assert sorted(results[0].output) == sorted(solo.output)
        assert sorted(results[1].output) == [
            (f"word{i}", 30) for i in range(4)
        ]
        # Both jobs ran concurrently on one simulation clock.
        assert results[0].started_at == results[1].started_at
        assert max(r.finished_at for r in results) == cluster.now

    def test_concurrent_jobs_share_slots_fairly(self):
        """Neither job monopolizes the map containers: both jobs get
        grants before either finishes its map wave."""
        cluster, runner, dataset = word_env(YarnJobRunner)
        records = [(i, f"word{i % 4}") for i in range(120)]
        dataset_b = DistributedDataset.materialize(
            runner.dfs, "/in-b", records, 4
        )
        handles = runner.submit_many([
            (word_spec(), dataset),
            (word_spec(), dataset_b),
        ])
        cluster.run()
        assert all(handle.done for handle in handles)
        # Jobs are numbered in submission order; that number is their app_id.
        assert all(runner.rm.outstanding(app) == 0 for app in range(len(handles)))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "YARN mode has two serialization points drawing on one pool of "
        "vcores at the same instant: the runner's reduce resolve point "
        "(try_allocate_on) and the RM's serve point (queued map "
        "requests), which events.schedule_serialized forbids.  The fix "
        "— pinned requests matched inside the RM's serve pass — changes "
        "events_processed in the frozen multijob_mixed reference, so it "
        "waits for a benchmark re-freeze PR (DESIGN.md §15)."
    ),
)
def test_concurrent_jobs_are_tie_order_independent(monkeypatch):
    """Eight jobs contending for 12 vcores finish at the same
    simulated instants under every same-timestamp tie order."""
    from repro.apps.kmeans import KMeansProgram, gaussian_mixture

    records, _ = gaussian_mixture(600, 4, dim=3, separation=6.0, seed=1)
    program = KMeansProgram(k=4, dim=3, threshold=0.1)
    model = program.initial_model(records, seed=2)

    def finish_times(seed):
        if seed is None:
            monkeypatch.delenv("PIC_SANITIZE", raising=False)
        else:
            monkeypatch.setenv("PIC_SANITIZE", str(seed))
        cluster = make_cluster(num_nodes=4, cores=3)
        dfs = DistributedFileSystem(cluster)
        results = YarnJobRunner(cluster, dfs).run_many([
            (
                program.job_spec(suffix=f"-{j}"),
                DistributedDataset.materialize(dfs, f"/in-{j}", records, 12),
                {"model": model, "model_bytes": program.model_bytes(model)},
            )
            for j in range(8)
        ])
        return tuple(r.finished_at for r in results)

    base = finish_times(None)
    for seed in (1, 2, 3, 7, 11, 23, 99):
        assert finish_times(seed) == base, f"diverged under PIC_SANITIZE={seed}"



def bucket_mapper(ctx, records):
    for key, _value in records:
        ctx.emit(key, 1)


def bucket_combiner(grouped):
    return ColumnBatch.from_rows([(key, sum(values)) for key, values in grouped])


def bucket_partitioner(key, num_reducers):
    return key % num_reducers


def test_concurrent_full_bucket_jobs_are_tie_order_independent(monkeypatch):
    """The contention of the case above — eight jobs of eight reducers
    on 4 nodes x 3 vcores — with jobs whose every map task fills every
    reduce bucket: with no empty shuffle segment, no tie order moves a
    finish time.  (The same jobs with their keys still dealt over 8 of
    16 reducers, half of every map task's buckets empty, diverge under
    five of these seven seeds.)"""
    records = ColumnBatch.from_rows([(i, float(i)) for i in range(600)])
    spec = JobSpec(
        name="buckets", mapper=bucket_mapper, reducer=sum_reducer,
        combiner=bucket_combiner, partitioner=bucket_partitioner, num_reducers=8,
    )

    def finish_times(seed):
        if seed is None:
            monkeypatch.delenv("PIC_SANITIZE", raising=False)
        else:
            monkeypatch.setenv("PIC_SANITIZE", str(seed))
        cluster = make_cluster(num_nodes=4, cores=3)
        dfs = DistributedFileSystem(cluster)
        datasets = [
            DistributedDataset.materialize(dfs, f"/in-{j}", records, 12)
            for j in range(8)
        ]
        # The premise: every map task's every bucket holds a record.
        charges = compute_job(
            spec, None, [split.records for split in datasets[0].splits],
            spec.num_reducers, SerialExecutor(),
        ).charges
        assert all(0 not in charge.counts for charge in charges)
        results = YarnJobRunner(cluster, dfs).run_many([
            (spec, dataset, {"model": {"m": 1}, "model_bytes": 1024})
            for dataset in datasets
        ])
        return tuple(r.finished_at for r in results)

    base = finish_times(None)
    for seed in (1, 2, 3, 7, 11, 23, 99):
        assert finish_times(seed) == base, f"diverged under PIC_SANITIZE={seed}"
