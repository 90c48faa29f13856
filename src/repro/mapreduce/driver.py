"""The convergence loop (paper Figure 1(a)) and the conventional IC driver.

.. code-block:: text

    model = initial model
    do:
        model = MapReduce(job, input data, model)
    until converged(model, previous model)

The paper runs this loop at three nestings — IC iterations (PIC's top-off
phase is the same thing), best-effort rounds, and the local iterations
inside a best-effort map task.  :func:`iterate` is that loop, once; a
:class:`Verdict` says why it stopped; a :class:`Bracket` measures what an
iteration (or a whole phase) cost on the simulated cluster as one
:class:`IterationTrace`.

The ``optimized_baseline`` flag strengthens the baseline exactly as the
paper does in Section V-A: input splits are treated as cached after the
first iteration (Twister/Spark/HaLoop-style invariant-data caching) and
the per-job/task launch overheads are zeroed — so PIC's speedup is
measured against a baseline that already has those fixes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

from repro.cluster.cache import CacheStats, NodeMemoryCache
from repro.cluster.cluster import Cluster
from repro.mapreduce.columnar import ColumnBatch
from repro.mapreduce.job import JobResult, JobSpec
from repro.mapreduce.records import DistributedDataset
from repro.mapreduce.runner import JobRunner

# An iteration turns (model, job output batch) into the next model.
ModelBuilder = Callable[[Any, ColumnBatch], Any]


@dataclass(frozen=True, slots=True)
class Verdict:
    """What a convergence check decided; truthy when the loop should stop.

    ``reason`` names the check that spoke: ``"threshold"`` (``measured``
    against ``threshold``), ``"cap"`` (an iteration limit) or
    ``"criterion"`` (a user criterion that returned a plain ``bool``).
    """

    stop: bool
    iteration: int
    reason: str
    measured: float | None = None
    threshold: float | None = None

    def __bool__(self) -> bool:
        return self.stop


@dataclass
class IterationTrace:
    """What one :class:`Bracket` measured: an IC or top-off iteration, a
    best-effort round, or a whole phase (``name`` then says which)."""

    duration: float
    #: Simulated time when the bracket closed.
    end: float
    shuffle_bytes: int
    model_update_bytes: int
    # Node-memory cache activity (pipelined mode; zero otherwise).
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    name: str = ""
    #: The model the bracket ended with — a reference, not a copy; models
    #: hold arrays, so it stays out of ``==``.
    model: Any = field(default=None, compare=False, repr=False)
    #: What the loop's criterion said after this iteration.
    verdict: Verdict | None = None
    job_results: list[JobResult] = field(default_factory=list)
    #: Per-partition local iteration counts of a best-effort round.
    local_iterations: list[int] = field(default_factory=list)

    @property
    def max_local_iterations(self) -> int:
        """The straggler sub-problem's local iteration count."""
        return max(self.local_iterations, default=0)


class Bracket:
    """Opens at construction; :meth:`close` returns what the cluster's
    clock, traffic meter and node cache recorded in between."""

    def __init__(self, cluster: Cluster, cache: NodeMemoryCache | None) -> None:
        self.cluster = cluster
        self.cache = cache
        self.start = cluster.now
        self.meter_before = cluster.meter.snapshot()
        self.cache_before = cache.snapshot() if cache is not None else CacheStats()

    def close(self, **enclosed: Any) -> IterationTrace:
        """The trace of this bracket; ``enclosed`` fills its other fields."""
        now = self.cluster.now
        delta = self.cluster.meter.diff(self.meter_before)
        moved = self.cache_before  # all zeros without a cache
        if self.cache is not None:
            moved = self.cache.snapshot() - self.cache_before
        return IterationTrace(
            duration=now - self.start,
            end=now,
            shuffle_bytes=int(delta.get("shuffle", {}).get("total_bytes", 0)),
            model_update_bytes=int(delta.get("model_update", {}).get("total_bytes", 0)),
            cache_hits=moved.hits,
            cache_misses=moved.misses,
            cache_evictions=moved.evictions,
            **enclosed,
        )


# converged(previous_model, new_model, iteration) -> stop?
Convergence = Callable[[Any, Any, int], bool | Verdict]


def iterate(
    step: Callable[[Any, int], tuple[Any, Any]],
    converged: Convergence,
    cap: int,
    model: Any,
    bracket: Callable[[], Bracket] | None = None,
) -> Iterator[tuple[Any, Any, Verdict]]:
    """``do model, cost = step(model, i) until converged``, ``cap`` times
    at most, yielding ``(model, cost, verdict)`` per iteration.

    A criterion's plain ``bool`` becomes a verdict with reason
    ``"criterion"``; running out of iterations stops with reason ``"cap"``.
    With a ``bracket`` opened around each iteration, ``step``'s cost is the
    trace fields only it knows (``job_results`` or ``local_iterations``)
    and the yielded cost is the bracket's :class:`IterationTrace`.
    """
    for iteration in range(cap):
        previous = model
        opened = bracket() if bracket is not None else None
        model, cost = step(previous, iteration)
        verdict = converged(previous, model, iteration)
        if not isinstance(verdict, Verdict):
            verdict = Verdict(bool(verdict), iteration, "criterion")
        if not verdict and iteration + 1 == cap:
            verdict = replace(verdict, stop=True, reason="cap")
        if opened is not None:
            cost = opened.close(model=model, verdict=verdict, **cost)
        yield model, cost, verdict
        if verdict:
            return


def strips_overheads(optimized: bool, pipeline: bool, iteration: int) -> bool:
    """Whether an iteration's jobs skip launch overheads: always under the
    §V-A credit; otherwise once the pipelined engine's executors are warm —
    it keeps containers alive after the first iteration (Spark/HaLoop
    style), so repeated job/task launch costs disappear anyway."""
    return optimized or (pipeline and iteration > 0)


def input_cached(optimized: bool, pipeline: bool, iteration: int) -> bool:
    """Whether an iteration reads its invariant input for free (§V-A).
    Pipelined mode earns input residency through the node cache instead
    of the blanket credit."""
    return optimized and iteration > 0 and not pipeline


@dataclass
class DriverResult:
    """Final model — a key/value model as a plain ``dict`` — plus the
    full per-iteration trace."""

    model: Any
    iterations: int
    traces: list[IterationTrace]
    total_time: float

    @property
    def total_shuffle_bytes(self) -> int:
        """Shuffle bytes summed over all iterations."""
        return sum(t.shuffle_bytes for t in self.traces)

    @property
    def total_model_update_bytes(self) -> int:
        """Model-update bytes summed over all iterations."""
        return sum(t.model_update_bytes for t in self.traces)


@dataclass
class IterativeDriver:
    """Runs the do-until-converged loop of Figure 1(a) as MapReduce jobs.

    ``jobs(model, iteration)`` returns the MapReduce job chain for
    one iteration (usually a single job; PageRank returns two).
    ``build_model(model, output)`` folds each job's output batch
    into the next model.  ``model_sizer`` gives the
    serialized model size charged for distribution and DFS writes.
    """

    runner: JobRunner
    dataset: DistributedDataset
    jobs: Callable[[Any, int], list[JobSpec]]
    build_model: ModelBuilder
    converged: Convergence
    model_sizer: Callable[[Any], int]
    max_iterations: int = 100
    optimized_baseline: bool = True
    model_mode: str = "broadcast"
    speculative: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")

    def run(
        self, initial_model: Any, model_locations: tuple[int, ...] = (0,)
    ) -> DriverResult:
        """Iterate until convergence (or ``max_iterations``)."""
        cluster = self.runner.cluster
        started = cluster.now
        optimized = self.optimized_baseline
        pipeline = self.runner.pipeline

        def step(model: Any, iteration: int) -> tuple[Any, dict[str, Any]]:
            nonlocal model_locations
            specs = self.jobs(model, iteration)
            if not specs:
                raise ValueError("jobs() returned an empty chain")
            job_results: list[JobResult] = []
            for spec in specs:
                if strips_overheads(optimized, pipeline, iteration):
                    spec = _strip_overheads(spec)
                result = self.runner.run(
                    spec,
                    self.dataset,
                    model=model,
                    model_bytes=self.model_sizer(model),
                    model_locations=model_locations,
                    input_cached=input_cached(optimized, pipeline, iteration),
                    model_mode=self.model_mode,
                    speculative=self.speculative,
                )
                job_results.append(result)
                model_locations = result.output_locations
                # Chained jobs see the model refined so far this iteration.
                model = self.build_model(model, result.output)
            return model, {"job_results": job_results}

        traces = [
            trace for _model, trace, _verdict in iterate(
                step, self.converged, self.max_iterations, initial_model,
                lambda: Bracket(cluster, self.runner.cache),
            )
        ]
        model = traces[-1].model
        if isinstance(model, Mapping) and not isinstance(model, dict):
            model = dict(model.items())
        return DriverResult(
            model=model,
            iterations=len(traces),
            traces=traces,
            total_time=cluster.now - started,
        )


def _strip_overheads(spec: JobSpec) -> JobSpec:
    """Zero job/task launch overheads (strengthened baseline, §V-A)."""
    costs = spec.costs.without_overheads()
    return spec if costs == spec.costs else replace(spec, costs=costs)
