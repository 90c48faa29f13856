"""Error-vs-time instrumentation for the Figure 12 benches.

Wraps a program's convergence checks so that every iteration of the IC
baseline — and every best-effort round / top-off iteration of PIC —
records ``(simulated_time, error(model))`` without perturbing behaviour.

``records`` may be a row list or a ``ColumnBatch``; a caller tracing
both runs columnizes once and hands the same batch to ``trace_ic`` and
``trace_pic``, so the comparison ingests its input once.
"""

from __future__ import annotations

import copy
from typing import Any, Callable

from repro.cluster.cluster import Cluster
from repro.mapreduce.columnar import Records
from repro.pic.api import PICProgram
from repro.pic.runner import PICRunner, run_ic_baseline

ErrorFn = Callable[[Any], float]
Curve = list[tuple[float, float]]


class _Tracer:
    """Temporarily wraps one convergence method on a program instance."""

    def __init__(self, program: PICProgram, method: str, cluster: Cluster,
                 error_fn: ErrorFn, curve: Curve) -> None:
        self.program = program
        self.method = method
        self.original = getattr(program, method)
        self.cluster = cluster
        self.error_fn = error_fn
        self.curve = curve

    def __enter__(self):
        original = self.original
        cluster = self.cluster
        error_fn = self.error_fn
        curve = self.curve

        def traced(previous, current, iteration):
            curve.append((cluster.now, error_fn(current)))
            return original(previous, current, iteration)

        setattr(self.program, self.method, traced)
        return self

    def __exit__(self, *exc):
        setattr(self.program, self.method, self.original)
        return False


def trace_ic(
    cluster: Cluster,
    program: PICProgram,
    records: Records,
    initial_model: Any,
    error_fn: ErrorFn,
    max_iterations: int = 500,
):
    """Run the IC baseline, returning (driver_result, error curve)."""
    curve: Curve = [(0.0, error_fn(initial_model))]
    with _Tracer(program, "converged", cluster, error_fn, curve):
        result = run_ic_baseline(
            cluster, program, records,
            initial_model=copy.deepcopy(initial_model),
            max_iterations=max_iterations,
        )
    return result, curve


def trace_pic(
    cluster: Cluster,
    program: PICProgram,
    records: Records,
    initial_model: Any,
    error_fn: ErrorFn,
    num_partitions: int,
    seed: Any = 3,
    be_max_iterations: int = 60,
    max_iterations: int = 500,
):
    """Run PIC, returning (pic_result, best-effort curve, top-off curve)."""
    be_curve: Curve = [(0.0, error_fn(initial_model))]
    topoff_curve: Curve = []
    runner = PICRunner(
        cluster, program, num_partitions=num_partitions, seed=seed,
        be_max_iterations=be_max_iterations, max_iterations=max_iterations,
    )
    with _Tracer(program, "be_converged", cluster, error_fn, be_curve), \
         _Tracer(program, "topoff_converged", cluster, error_fn, topoff_curve):
        result = runner.run(records, initial_model=copy.deepcopy(initial_model))
    return result, be_curve, topoff_curve
