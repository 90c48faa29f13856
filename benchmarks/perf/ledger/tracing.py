"""Spans around the benchmark's own calls, and a sampler that attributes
host time to the layers of ``src/repro``.

Both live in the benchmark process and look at the program from
outside: nothing under ``src/`` is instrumented.  Both are off for the
end-to-end run and on for the traced run, whose extra cost is reported
as ``trace.overhead_x``.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from types import FrameType
from typing import Any, Iterator

from benchmarks.perf.ledger.clock import SpeedClock

# Module-name prefix -> layer, most specific first.  A layer's metric is
# ``<layer>.self_s``.
_LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.cluster.events", "cluster.events"),
    ("repro.cluster.flows", "cluster.flows"),
    ("repro.cluster.cache", "cluster.cache"),
    ("repro.cluster", "cluster.other"),
    ("repro.dfs", "dfs"),
    ("repro.mapreduce.runner", "mapreduce.runner"),
    ("repro.mapreduce.scheduler", "mapreduce.scheduler"),
    ("repro.mapreduce.columnar", "mapreduce.columnar"),
    ("repro.mapreduce.records", "mapreduce.records"),
    ("repro.mapreduce", "mapreduce.driver"),  # driver, job, costs, pipeline
    ("repro.yarn", "yarn"),
    ("repro.pic.partitioners", "pic.partitioners"),
    ("repro.pic.graphcut", "pic.partitioners"),
    ("repro.pic.mergers", "pic.mergers"),
    ("repro.pic", "pic.engine"),  # engine, runner, api, convergence, model
    ("repro.parallel", "parallel"),
    ("repro.apps", "apps"),
    ("repro.util.sizing", "util.sizing"),
    ("repro.lint.project.ir", "lint.file"),  # the per-file IR build
    ("repro.lint.project", "lint.project"),
    ("repro.lint.rules", "lint.file"),
    ("repro.lint", "lint.file"),  # engine, module, cache, noqa
    ("repro.harness", "harness"),
)
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in _LAYER_PREFIXES)) + (
    "other",
)


def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module belongs to (``other`` if none)."""
    for prefix, layer in _LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Tracer:
    """Records spans: name, start, end, the span that caused it, and the
    workload they all belong to.  Kept in memory; the runner writes them
    out when the benchmark ends."""

    def __init__(self, workload: str, clock: SpeedClock, enabled: bool = False) -> None:
        self.workload = workload
        self.clock = clock
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append({
            "id": index,
            "name": name,
            "workload": self.workload,
            "parent": self._open[-1] if self._open else None,
            "start": self.clock.now(),
            "end": None,
        })
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = self.clock.now()


class Sampler:
    """Charges each tick of the clock to a layer.

    The layer is that of the innermost frame belonging to a ``repro``
    module; time in the benchmark's own frames, or in library code not
    called from ``repro``, goes to ``other``.  The charges add up to the
    clock's time between ``start`` and ``stop``.
    """

    def __init__(self, clock: SpeedClock) -> None:
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.samples = 0
        self._layer_cache: dict[str, str] = {}

    def start(self) -> None:
        self.clock.flush()
        self.clock.on_credit = self._charge

    def stop(self) -> None:
        self.clock.flush()
        self.clock.on_credit = None

    def _charge(self, frame: FrameType | None, credit: float) -> None:
        layer = "other"
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                layer = self._layer_cache.get(module) or self._layer_cache.setdefault(
                    module, layer_of_module(module)
                )
                break
            frame = frame.f_back
        self.self_s[layer] += credit
        self.samples += 1
