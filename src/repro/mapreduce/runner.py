"""The MapReduce job runner: executes one job on the DES cluster.

A job computes once, then simulates.  At submit the runner does the
job's host work in full: every map task goes through the executor to
:func:`repro.parallel.tasks.run_map_task` (run the *real* mapper, then
partition the output, applying the combiner once over its
(reduce-partition, key) groups), after which the job's one grouping of
every map output by (partition, key) feeds the *real* reducers, in
partition order.  Retries and backup tasks change only *when* a task's
work lands, never what it computes, so the simulation only prices it —
from the per-split record counts, byte sizes and ``stats`` the tasks
recorded.

Task lifecycle (all on the simulated clock):

* **map task** — wait for a map slot (locality-aware); fetch the model
  once per node per job (``model_read`` traffic); read the input split
  (``input`` traffic, free when the driver has cached invariant input à
  la Twister/HaLoop) — every read takes the replica
  :meth:`Topology.closest` picks and is charged by :meth:`Cluster.move`,
  disk time when local, a flow when remote; charge mapper compute;
  charge the local spill of its (combined) output; release the slot;
  start the shuffle flows.
* **shuffle** — one flow per (map task, reduce partition) from the map
  node to the partition's reduce node, overlapped with remaining maps,
  exactly the all-to-all pattern that stresses the bisection.
* **reduce task** — wait until every map's bucket for this partition has
  arrived and a reduce slot on its node frees; charge merge-sort +
  reduce compute; write the reducer's output to the DFS, three replicas
  (``model_update`` traffic).

Byte volumes are measured from the actual records; Hadoop-style counters
record them for the benchmark harness.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Any, Callable, Sequence

import numpy as np

from repro.cluster.cache import NodeMemoryCache
from repro.cluster.cluster import Cluster
from repro.cluster.metrics import TrafficCategory
from repro.dfs.dfs import DistributedFileSystem, FileMeta
from repro.mapreduce.columnar import (
    ColumnBatch,
    bucket_kinds,
    concat_batches,
    group_buckets,
)
from repro.mapreduce.job import Counters, JobResult, JobSpec, TaskContext
from repro.mapreduce.pipeline import SplitGate, pipeline_enabled
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.scheduler import SlotScheduler
# Leaf-module import: repro.parallel's package __init__ pulls in
# repro.parallel.tasks, which needs this package — importing the
# executor module directly keeps the cycle open at one end.
from repro.parallel.executor import TaskExecutor, get_executor

#: Replicas of every reduce output file, Hadoop's default (the namenode
#: caps it at the cluster's node count).
OUTPUT_REPLICATION = 3


class JobRunner:
    """Runs MapReduce jobs on one cluster; slots persist across jobs.

    ``executor`` controls where the *host* computes map-task outputs:
    every (independent) map task of a job goes through its ``map`` at
    submit, across a process pool when it has one — same records, same
    counters, same simulated clock, less wall-clock.  Unpicklable job
    specs (closures over local state) run in-process at submit.
    """

    def __init__(
        self,
        cluster: Cluster,
        dfs: DistributedFileSystem,
        executor: TaskExecutor | None = None,
        pipeline: bool | None = None,
        cache: NodeMemoryCache | None = None,
    ) -> None:
        self.cluster = cluster
        self.dfs = dfs
        self.executor = executor or get_executor()
        # Pipelined mode (``PIC_PIPELINE`` when None): reducers merge
        # arriving buckets incrementally and input splits are served
        # from the simulated node-memory cache across iterations.
        self.pipeline = pipeline_enabled() if pipeline is None else pipeline
        if cache is None and self.pipeline:
            cache = NodeMemoryCache.from_cluster(cluster)
        self.cache = cache if self.pipeline else None
        self.map_scheduler = SlotScheduler(cluster, "map")
        self._reduce_capacity = {
            n.node_id: n.spec.reduce_slots for n in cluster.nodes
        }
        # Reduce tasks are pinned to a node; pending acquisitions park
        # here keyed by (app_id, partition) so a release by *any* job
        # wakes waiters in canonical order — not arrival order, which
        # would leak same-timestamp tie order into the schedule.
        self._reduce_waiters: dict[
            int, list[tuple[tuple[int, int], Callable[[], None]]]
        ] = {}
        # Serialization point for reduce-slot matching (cf.
        # ResourceManager._flush): one pending resolve per timestamp.
        # The only flush/serve trio outside the allocator; folding it
        # in moves events_processed in every frozen reference, so it
        # waits for a re-freeze (DESIGN.md §15).
        self._reduce_resolve_pending = False
        self._reduce_resolving = False
        self._job_seq = itertools.count()
        # Set while submit_many runs: submit parks each computed job
        # here, and the batch launches once every job's host work ran.
        self._held: list[_JobState] | None = None

    def run(
        self,
        spec: JobSpec,
        dataset: DistributedDataset,
        model: Any = None,
        model_bytes: int = 0,
        model_locations: tuple[int, ...] = (0,),
        input_cached: bool = False,
        model_mode: str = "broadcast",
        failures: dict[int, int] | None = None,
        speculative: bool = False,
        model_gate: SplitGate | None = None,
        split_models: Sequence[Any] | None = None,
    ) -> JobResult:
        """Execute ``spec`` over ``dataset`` and return measured results.

        Equivalent to one :meth:`submit` followed by running the
        simulation to quiescence; use :meth:`submit_many` /
        :meth:`run_many` to drive several jobs through the shared
        cluster concurrently.

        ``model``/``model_bytes``/``model_locations`` describe the
        current model: the object handed to tasks (a mapping reaches
        them as a :class:`~repro.pic.model.KeyedModel`), its serialized
        size, and the nodes holding replicas of it.  ``input_cached`` marks
        invariant input already resident from a previous iteration
        (the paper's strengthened baseline).

        ``model_mode`` selects the distribution pattern: ``"broadcast"``
        ships the whole model to every node that runs a map task
        (distributed-cache pattern — K-means centroids, NN weights);
        ``"partitioned"`` ships each task only its input share of the
        model (chained-job pattern — PageRank scores, the smoothing
        image, the solver's unknown vector), so the per-iteration
        distribution volume is ~one model, not one per node.

        ``failures`` injects task failures Hadoop-style:
        ``{split_index: n}`` makes the map task for that split die
        mid-compute ``n`` times before succeeding; each attempt's
        partial work is lost and the task is rescheduled (Section VII:
        PIC inherits this fault tolerance unmodified).

        ``speculative`` enables Hadoop's backup tasks: once every map
        is either finished or running and slots are idle, stragglers get
        a duplicate attempt elsewhere; the first attempt to finish wins.

        ``model_gate`` (pipelined mode) makes each map task wait on its
        split's outstanding prerequisite flows — e.g. the engine's
        sub-model scatter — instead of the caller draining the event
        queue before submitting the job.

        ``split_models`` gives each map task a model of its own: task
        ``i`` sees ``split_models[i]`` as ``ctx.model`` instead of
        ``model`` (PIC's best-effort rounds, one sub-model per
        sub-problem).  Its distribution is the caller's to charge.
        """
        handle = self.submit(
            spec, dataset, model, model_bytes, model_locations, input_cached,
            model_mode, failures, speculative, model_gate, split_models,
        )
        self.cluster.run()
        return handle.result()

    # -- concurrent submission ------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        dataset: DistributedDataset,
        model: Any = None,
        model_bytes: int = 0,
        model_locations: tuple[int, ...] = (0,),
        input_cached: bool = False,
        model_mode: str = "broadcast",
        failures: dict[int, int] | None = None,
        speculative: bool = False,
        model_gate: SplitGate | None = None,
        split_models: Sequence[Any] | None = None,
    ) -> "JobHandle":
        """Launch a job without draining the event queue.

        The job's host work — every map task, the shuffle's grouping and
        every reducer — runs here, so a mapper, partitioner, combiner or
        reducer that fails raises from this call with nothing put on the
        simulated clock.  The job starts competing for slots and fabric
        bandwidth as soon as the simulation runs; call
        :meth:`JobHandle.result` after the cluster quiesces.  Concurrent
        submissions interleave fairly: each carries its job index as the
        scheduler ``app_id``, so slot grants go to the least-granted job
        first.
        """
        state = _JobState(self, spec, dataset, model, model_bytes,
                          model_locations, input_cached, model_mode, failures,
                          speculative, model_gate, split_models)
        if self._held is None:
            state.launch(next(self._job_seq))
        else:
            self._held.append(state)
        return JobHandle(state)

    def submit_many(
        self, submissions: "list[tuple[JobSpec, DistributedDataset] | tuple[JobSpec, DistributedDataset, dict[str, Any]]]"
    ) -> "list[JobHandle]":
        """Submit several jobs at once against the shared cluster.

        Each submission is ``(spec, dataset)`` or
        ``(spec, dataset, kwargs)`` with :meth:`submit` keyword
        arguments.  All jobs share the simulation clock, the flow
        network, and the slot/container schedulers.  Every submission's
        host work runs before any of them launches, so a job that fails
        leaves none of the batch on the clock.
        """
        held: list[_JobState] = []
        handles = []
        self._held = held
        try:
            for submission in submissions:
                if len(submission) == 2:
                    spec, dataset = submission  # type: ignore[misc]
                    kwargs: dict[str, Any] = {}
                else:
                    spec, dataset, kwargs = submission  # type: ignore[misc]
                handles.append(self.submit(spec, dataset, **kwargs))
        finally:
            self._held = None
        for state in held:
            state.launch(next(self._job_seq))
        return handles

    def run_many(
        self, submissions: "list[tuple[JobSpec, DistributedDataset] | tuple[JobSpec, DistributedDataset, dict[str, Any]]]"
    ) -> list[JobResult]:
        """Submit several jobs, run the cluster to quiescence, and
        return their results in submission order."""
        handles = self.submit_many(submissions)
        self.cluster.run()
        return [handle.result() for handle in handles]

    # -- reduce slot management (pinned to a node, serialized) ----------

    def acquire_reduce(
        self,
        node_id: int,
        key: tuple[int, int],
        grant: Callable[[], None],
    ) -> None:
        """Queue a reduce-slot acquisition pinned to ``node_id``.

        ``grant()`` fires at the timestamp's serialization point once a
        slot is free; among same-node waiters the lowest
        ``key=(app_id, partition)`` wins, so the grant order is a pure
        function of cluster state, never of same-instant arrival order.
        """
        self._reduce_waiters.setdefault(node_id, []).append((key, grant))
        self._flush_reduce()

    def release_reduce(self, node_id: int, app_id: int = 0) -> None:
        """Return a reduce slot on ``node_id``."""
        limit = self.cluster.nodes[node_id].spec.reduce_slots
        if self._reduce_capacity[node_id] >= limit:
            raise RuntimeError(f"reduce slot over-release on node {node_id}")
        self._reduce_capacity[node_id] += 1
        self._flush_reduce()

    def _claim_reduce_slot(self, node_id: int, app_id: int) -> bool:
        """Claim one reduce slot on ``node_id`` now, if one is free."""
        if self._reduce_capacity[node_id] <= 0:
            return False
        self._reduce_capacity[node_id] -= 1
        return True

    def _flush_reduce(self) -> None:
        """Resolve now (root context) or at the serialization point."""
        if self._reduce_resolving:
            return  # the active resolve pass loops until quiescent
        sim = self.cluster.sim
        if sim.in_callback:
            if not self._reduce_resolve_pending:
                self._reduce_resolve_pending = True
                sim.schedule_serialized(self._resolve_reduce_point)
        else:
            self._resolve_reduce()

    def _resolve_reduce_point(self) -> None:
        self._reduce_resolve_pending = False
        self._resolve_reduce()

    def _resolve_reduce(self) -> None:
        """Match free reduce slots to waiters in canonical order."""
        self._reduce_resolving = True
        try:
            progressed = True
            while progressed:
                progressed = False
                for node_id in sorted(self._reduce_waiters):
                    waiters = self._reduce_waiters[node_id]
                    while waiters:
                        i = min(
                            range(len(waiters)),
                            key=lambda j: waiters[j][0],
                        )
                        key, grant = waiters[i]
                        if not self._claim_reduce_slot(node_id, key[0]):
                            break
                        waiters.pop(i)
                        grant()
                        progressed = True
        finally:
            self._reduce_resolving = False


class JobHandle:
    """A submitted-but-not-necessarily-finished job."""

    def __init__(self, state: "_JobState") -> None:
        self._state = state

    @property
    def done(self) -> bool:
        """True once every reduce task has committed its output."""
        return self._state._done

    def result(self) -> JobResult:
        """The job's measured result; raises if it has not finished."""
        return self._state.finish()


class _JobState:
    """One job: its host work, done at construction, and the mutable
    state of its simulation."""

    def __init__(
        self,
        runner: JobRunner,
        spec: JobSpec,
        dataset: DistributedDataset,
        model: Any,
        model_bytes: int,
        model_locations: tuple[int, ...],
        input_cached: bool,
        model_mode: str,
        failures: dict[int, int] | None,
        speculative: bool,
        model_gate: SplitGate | None,
        split_models: Sequence[Any] | None,
    ) -> None:
        if model_mode not in ("broadcast", "partitioned"):
            raise ValueError(
                f"model_mode must be 'broadcast' or 'partitioned', got {model_mode!r}"
            )
        if isinstance(model, Mapping):
            # Tasks read a key/value model as a table, columnized once per
            # job.  Imported here: repro.pic's package __init__ imports
            # the engine, which needs this module.
            from repro.pic.model import as_model

            model = as_model(model)
        self.runner = runner
        self.cluster = runner.cluster
        self.pipeline = runner.pipeline
        self.model_gate = model_gate
        self.spec = spec
        self.dataset = dataset
        self.model = model
        self.split_models = split_models
        self.model_bytes = model_bytes
        self.model_locations = tuple(model_locations) or (0,)
        self.input_cached = input_cached
        self.job_index = -1  # assigned at launch
        self.model_mode = model_mode
        self.failures = dict(failures or {})
        self.speculative = speculative
        self._map_attempts: dict[int, int] = {}
        self._running_maps: dict[int, list[dict]] = {}
        self._completed_maps: set[int] = set()
        self._backups_launched: set[int] = set()

        self.counters = Counters()
        self.started_at = self.cluster.now
        self.finished_at: float | None = None
        self.num_maps = len(dataset.splits)
        self.num_reducers = spec.num_reducers
        # Static round-robin reduce placement (Hadoop assigns reduce
        # tasks across tasktrackers; waves happen when tasks > slots).
        self.reduce_node = [
            p % self.cluster.num_nodes for p in range(self.num_reducers)
        ]
        self._model_on_node: set[int] = set(self.model_locations)
        self._bucket_arrivals = {p: 0 for p in range(self.num_reducers)}
        self._bucket_records = {p: 0 for p in range(self.num_reducers)}
        # Pipelined mode: simulated time at which each partition's
        # fetcher-side incremental merge of already-arrived buckets
        # finishes (a per-reduce-node work-conserving chain).
        self._merge_ready = {p: 0.0 for p in range(self.num_reducers)}
        self._maps_done = 0
        self._reduces_done = 0
        self._reduce_started = [False] * self.num_reducers
        self._reduce_waiting: list[int] = []
        # Keyed by partition, not appended in completion order: which
        # reduce finishes first is same-timestamp tie order, and the
        # next iteration's model placement must not depend on it.
        self._output_files: dict[int, tuple[int, ...]] = {}
        self.map_output_bytes_raw = 0
        self.shuffle_bytes = 0
        self.output_bytes = 0
        self._done = False
        self._compute()

    # -- host work -------------------------------------------------------

    def _compute(self) -> None:
        """Run the job's real computation, all of it, now: every map task
        through the executor (one job's map tasks are independent, so a
        pool runs them concurrently), keeping each split's charge for the
        simulation; then one grouping of every map output by (partition,
        key), each reducer taking its partition's run of groups, in
        partition order.  Only the reduce outputs are kept.

        Canonical merge order: the outputs are concatenated by map
        index, so neither arrival timing nor the executor leaks into
        float summation order; inside a partition that is grouping its
        buckets concatenated by map index on their own.  Where the map
        outputs disagree on column kinds, each partition gets the kinds
        its own buckets concatenate to.
        """
        # Imported here: repro.parallel's package __init__ imports its
        # task functions, which need this package.
        from repro.parallel.tasks import map_task

        outputs, pids, self._charges = zip(*self.runner.executor.map(map_task, [
            (self.spec, self._task_model(split.index), split.index, split.records)
            for split in self.dataset.splits
        ]))
        self._job_map_stats = {
            i: charge.stats for i, charge in enumerate(self._charges) if charge.stats
        }
        kinds = bucket_kinds(outputs, pids, self.num_reducers)
        # Each map output is dropped once merged: the job holds one copy
        # of its shuffle at a time, and none once the reducers ran.
        merged = concat_batches(outputs)
        del outputs
        grouped, groups = group_buckets(
            merged, np.concatenate(pids), self.num_reducers
        )
        del merged, pids
        bounds = np.concatenate(([0], np.cumsum(groups))).tolist()
        self._reduce_outputs: list[ColumnBatch] = []
        for p in range(self.num_reducers):
            part = grouped.groups(bounds[p], bounds[p + 1])
            if kinds is not None:
                part = part.as_kinds(kinds[p])
            ctx = TaskContext(model=self.model)
            self.spec.reducer(ctx, part)
            self._reduce_outputs.append(ctx.collect())

    # -- launch ----------------------------------------------------------

    def launch(self, job_index: int) -> None:
        """Kick off the job, as job ``job_index``, after its startup
        overhead."""
        self.job_index = job_index
        overhead = self.spec.costs.job_overhead_seconds
        self.cluster.sim.schedule(overhead, self._start_maps)

    def _task_model(self, split_index: int) -> Any:
        """The model map task ``split_index`` sees."""
        models = self.split_models
        return self.model if models is None else models[split_index]

    def _start_maps(self) -> None:
        for split in self.dataset.splits:
            preferred = self.dataset.locations(split.index)
            self.runner.map_scheduler.request(
                callback=self._make_map_start(split.index),
                preferred=preferred,
                app_id=self.job_index,
            )

    def _make_map_start(self, split_index: int) -> Callable[[int], None]:
        def on_slot(node_id: int) -> None:
            if split_index in self._completed_maps:
                # A speculative twin already won; give the slot back.
                self.runner.map_scheduler.release(node_id, app_id=self.job_index)
                return
            attempt = {"split": split_index, "node": node_id,
                       "dead": False, "events": []}
            self._running_maps.setdefault(split_index, []).append(attempt)
            self._map_io_phase(attempt)

        return on_slot

    def _schedule_attempt(
        self, attempt: dict, delay: float, callback: Callable[[], Any]
    ) -> None:
        """Schedule a timer belonging to ``attempt`` (cancellable on kill)."""
        event = self.cluster.sim.schedule(delay, callback)
        attempt["events"].append(event)

    def _kill_attempt(self, attempt: dict) -> None:
        """Hadoop kills the losing/duplicate attempt: its pending timers
        are cancelled and its slot freed immediately.  In-flight network
        reads complete on the fabric but their continuations no-op."""
        if attempt["dead"]:
            return
        attempt["dead"] = True
        for event in attempt["events"]:
            event.cancel()
        self._running_maps[attempt["split"]].remove(attempt)
        self.counters.add("speculative_losses")
        self.runner.map_scheduler.release(attempt["node"], app_id=self.job_index)

    # -- map task ----------------------------------------------------------

    def _map_io_phase(self, attempt: dict) -> None:
        split_index = attempt["split"]
        node_id = attempt["node"]
        split = self.dataset.splits[split_index]
        pending = {"count": 1}  # 1 for the task-overhead timer

        def part_done(_arg: Any = None) -> None:
            if attempt["dead"]:
                return
            pending["count"] -= 1
            if pending["count"] == 0:
                self._map_compute_phase(attempt)

        self._schedule_attempt(
            attempt, self.spec.costs.task_overhead_seconds, part_done
        )
        # Pipelined mode: the split's prerequisite flows (the engine's
        # sub-model scatter / first-iteration co-location) may still be
        # in the air; park the task on the gate instead of having had a
        # global barrier before job submission.
        if self.model_gate is not None:
            pending["count"] += 1
            self.model_gate.on_ready(split_index, part_done)
        # Model distribution.
        if self.model_bytes > 0:
            if self.model_mode == "broadcast":
                # Whole model once per node per job (distributed cache).
                if node_id not in self._model_on_node:
                    self._model_on_node.add(node_id)
                    self._read(
                        attempt, pending, self.model_locations, self.model_bytes,
                        TrafficCategory.MODEL_READ, part_done,
                    )
            else:
                # Partitioned: each task fetches only its input share.
                total_records = max(self.dataset.num_records, 1)
                share = self.model_bytes * len(split.records) / total_records
                if share > 0:
                    self._read(
                        attempt, pending, self.model_locations, share,
                        TrafficCategory.MODEL_READ, part_done,
                    )
        # Input split read from the closest replica.  With the node
        # cache (pipelined mode) a split resident from an earlier read
        # is served from memory — free, like ``input_cached``, but
        # earned per node under the in-memory-ratio budget.
        if not self.input_cached and split.nbytes > 0:
            cache = self.runner.cache
            key = (self.dataset.path, split_index)
            if cache is None or not cache.lookup(node_id, key):
                self._read(
                    attempt, pending, self.dataset.locations(split_index),
                    split.nbytes, TrafficCategory.INPUT, part_done,
                )
                if cache is not None:
                    cache.put(node_id, key, split.nbytes)

    def _read(
        self,
        attempt: dict,
        pending: dict[str, int],
        replicas: tuple[int, ...],
        nbytes: float,
        category: str,
        part_done: Callable[..., None],
    ) -> None:
        """Read ``nbytes`` to the attempt's node from the closest of
        ``replicas``.  A local read's disk timer belongs to the attempt,
        so killing the attempt cancels it; a remote read completes on
        the fabric and its continuation no-ops."""
        node_id = attempt["node"]
        src = self.cluster.topology.closest(replicas, node_id)
        pending["count"] += 1
        event = self.cluster.move(src, node_id, nbytes, category, part_done)
        if event is not None:
            attempt["events"].append(event)

    def _map_compute_phase(self, attempt: dict) -> None:
        split_index = attempt["split"]
        node_id = attempt["node"]
        # Injected fault: the attempt dies halfway through its compute;
        # its work is discarded, the slot is freed and the task is
        # rescheduled from scratch (Hadoop's retry semantics).
        tries = self._map_attempts.get(split_index, 0)
        self._map_attempts[split_index] = tries + 1
        if tries < self.failures.get(split_index, 0):
            split = self.dataset.splits[split_index]
            wasted = 0.5 * self.spec.costs.map_compute(
                len(split.records), split.nbytes
            )
            delay = self.cluster.compute_time(node_id, wasted)
            self._schedule_attempt(
                attempt, delay, lambda: self._map_attempt_failed(attempt)
            )
            return
        # Charge what the task did at submit; dynamic costs depend on
        # its ``stats`` (e.g. a best-effort solve's local iterations).
        split = self.dataset.splits[split_index]
        charge = self._charges[split_index]
        if self.spec.map_cost is not None:
            ctx = TaskContext(model=self._task_model(split_index), split_index=split_index)
            ctx.stats.update(charge.stats)
            compute = self.spec.map_cost(len(split.records), split.nbytes, ctx)
        else:
            compute = self.spec.costs.map_compute(len(split.records), split.nbytes)
            # Map-side sort/serialize of the raw output (pre-combine),
            # as Hadoop's collect/spill path charges per record.
            compute += self.spec.costs.sort_seconds_per_record * charge.raw_records
        delay = self.cluster.compute_time(node_id, compute)
        self._schedule_attempt(attempt, delay, lambda: self._map_spill(attempt))

    def _map_spill(self, attempt: dict) -> None:
        """Spill the (combined) map output to local disk before serving it."""
        charge = self._charges[attempt["split"]]
        disk = self.cluster.nodes[attempt["node"]].spec.disk_bandwidth
        self._schedule_attempt(
            attempt,
            sum(charge.bucket_bytes) / disk,
            lambda: self._map_finish(attempt),
        )

    def _map_attempt_failed(self, attempt: dict) -> None:
        split_index = attempt["split"]
        self.counters.add("failed_map_attempts")
        attempt["dead"] = True
        self._running_maps[split_index].remove(attempt)
        self.runner.map_scheduler.release(attempt["node"], app_id=self.job_index)
        self.runner.map_scheduler.request(
            callback=self._make_map_start(split_index),
            preferred=self.dataset.locations(split_index),
            app_id=self.job_index,
        )

    def _map_finish(self, attempt: dict) -> None:
        split_index = attempt["split"]
        node_id = attempt["node"]
        self._running_maps[split_index].remove(attempt)
        self._completed_maps.add(split_index)
        self._maps_done += 1
        # Kill any speculative twins still running this split.
        for twin in list(self._running_maps.get(split_index, [])):
            self._kill_attempt(twin)
        split = self.dataset.splits[split_index]
        charge = self._charges[split_index]
        self.counters.add("map_input_records", len(split.records))
        self.counters.add("map_output_records", charge.raw_records)
        self.map_output_bytes_raw += charge.raw_bytes
        self.counters.add("map_output_bytes", charge.raw_bytes)
        self.counters.add("combine_output_records", sum(charge.counts))
        self.runner.map_scheduler.release(node_id, app_id=self.job_index)
        self._maybe_speculate()
        # One bulk call for the whole fan-out: the map wave's shuffle
        # triggers a single rate recompute instead of one per partition.
        requests = []
        for p in range(self.num_reducers):
            self.shuffle_bytes += charge.bucket_bytes[p]
            requests.append((
                node_id, self.reduce_node[p], charge.bucket_bytes[p],
                TrafficCategory.SHUFFLE,
                self._make_bucket_arrival(p, charge.counts[p]),
            ))
        self.cluster.transfer_batch(requests)

    def _maybe_speculate(self) -> None:
        """Launch backup attempts for stragglers once slots are idle.

        Hadoop's condition, simplified: every map is finished or
        running, free slots exist, and the straggler has no backup yet.
        The backup prefers the fastest nodes not already running the
        task; the first attempt to finish wins and the loser is killed.
        """
        if not self.speculative:
            return
        if self.runner.map_scheduler.free_slots() <= 0:
            return
        for split_index in range(self.num_maps):
            attempts = self._running_maps.get(split_index, [])
            if (
                split_index not in self._completed_maps
                and attempts
                and split_index not in self._backups_launched
            ):
                self._backups_launched.add(split_index)
                self.counters.add("speculative_attempts")
                avoid = {a["node"] for a in attempts}
                candidates = sorted(
                    (n for n in self.cluster.nodes if n.node_id not in avoid),
                    key=lambda n: (-n.spec.cpu_speed, n.node_id),
                )
                self.runner.map_scheduler.request(
                    callback=self._make_map_start(split_index),
                    preferred=tuple(n.node_id for n in candidates[:3]),
                    app_id=self.job_index,
                )

    def _make_bucket_arrival(
        self, partition: int, records: int
    ) -> Callable[..., None]:
        def on_arrival(_flow: Any = None) -> None:
            self._bucket_arrivals[partition] += 1
            self._bucket_records[partition] += records
            if self.pipeline:
                # Merge the bucket as it lands (fetcher-side merge
                # thread): the chain is work-conserving per partition,
                # so the final task only pays whatever merge tail is
                # still outstanding when its slot frees.
                node = self.reduce_node[partition]
                merge = self.spec.costs.reduce_merge_compute(records)
                ready = max(self._merge_ready[partition], self.cluster.now)
                self._merge_ready[partition] = (
                    ready + self.cluster.compute_time(node, merge)
                )
            self._maybe_start_reduce(partition)

        return on_arrival

    # -- reduce task --------------------------------------------------------

    def _maybe_start_reduce(self, partition: int) -> None:
        if self._reduce_started[partition] or partition in self._reduce_waiting:
            return
        if self._bucket_arrivals[partition] < self.num_maps:
            return
        self._reduce_waiting.append(partition)
        self.runner.acquire_reduce(
            self.reduce_node[partition],
            key=(self.job_index, partition),
            grant=lambda: self._start_reduce(partition),
        )

    def _start_reduce(self, partition: int) -> None:
        """A reduce slot was granted at the serialization point."""
        self._reduce_waiting.remove(partition)
        node = self.reduce_node[partition]
        self._reduce_started[partition] = True
        num_records = self._bucket_records[partition]
        if self.pipeline:
            # The merge already ran incrementally as buckets arrived;
            # pay only its unfinished tail plus the reduce function.
            compute = self.spec.costs.reduce_apply_compute(num_records)
            compute += self.spec.costs.task_overhead_seconds
            delay = max(0.0, self._merge_ready[partition] - self.cluster.now)
            delay += self.cluster.compute_time(node, compute)
        else:
            compute = self.spec.costs.reduce_compute(num_records)
            compute += self.spec.costs.task_overhead_seconds
            delay = self.cluster.compute_time(node, compute)
        self.cluster.sim.schedule(
            delay, lambda: self._reduce_execute(partition, node)
        )

    def _reduce_execute(self, partition: int, node_id: int) -> None:
        output = self._reduce_outputs[partition]
        self.counters.add("reduce_input_records", self._bucket_records[partition])
        self.counters.add("reduce_output_records", len(output))
        nbytes = output.nbytes_wire()
        self.output_bytes += nbytes
        path = f"/job-{self.job_index}/{self.spec.name}/out-{partition:05d}"
        self.runner.dfs.write(
            path,
            nbytes,
            writer_node=node_id,
            category=TrafficCategory.MODEL_UPDATE,
            on_complete=lambda meta: self._reduce_finish(partition, node_id, meta),
            replication=OUTPUT_REPLICATION,
        )

    def _reduce_finish(self, partition: int, node_id: int, meta: FileMeta) -> None:
        replicas: set[int] = set()
        for block in meta.blocks:
            replicas.update(block.replicas)
        self._output_files[partition] = tuple(sorted(replicas))
        self.runner.release_reduce(node_id, app_id=self.job_index)
        self._reduces_done += 1
        if self._reduces_done == self.num_reducers:
            self._done = True
            self.finished_at = self.cluster.now

    # -- results ------------------------------------------------------------

    def finish(self) -> JobResult:
        """Assemble the JobResult after the simulation quiesces."""
        if not self._done:
            raise RuntimeError(
                f"job {self.spec.name!r} did not complete: "
                f"{self._maps_done}/{self.num_maps} maps, "
                f"{self._reduces_done}/{self.num_reducers} reduces done"
            )
        output = concat_batches(self._reduce_outputs)
        self.counters.add("shuffle_bytes", self.shuffle_bytes)
        self.counters.add("output_bytes", self.output_bytes)
        assert self.finished_at is not None
        return JobResult(
            job_name=self.spec.name,
            output=output,
            counters=self.counters,
            started_at=self.started_at,
            finished_at=self.finished_at,
            map_output_bytes_raw=self.map_output_bytes_raw,
            shuffle_bytes=self.shuffle_bytes,
            output_bytes=self.output_bytes,
            # Where the next iteration reads the model from: the output
            # is striped over per-reducer files, but any reader needs all
            # of it, so the lowest partition's replica set (~replication
            # nodes) is the honest "closest copy" approximation — not the
            # union of every reducer's replicas, which would make model
            # reads free on small clusters.  Lowest *partition*, not
            # first *finished*: completion order between same-timestamp
            # reduces is tie order the result must not depend on.
            output_locations=(
                self._output_files[min(self._output_files)]
                if self._output_files
                else (0,)
            ),
            map_stats=self._job_map_stats,
        )
