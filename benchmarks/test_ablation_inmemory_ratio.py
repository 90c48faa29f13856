"""Ablation — sensitivity to the in-memory/pipeline cost ratio.

The one modeled (not measured) constant in this reproduction is the cost
of an in-memory local iteration relative to a full MapReduce record-
pipeline pass (DESIGN.md §5).  The default 0.1 is what the paper's own
iteration counts imply; this bench sweeps it so readers can see how the
headline speedup depends on it.  The speedup crosses 1x between the
swept ratios 0.5 (PIC still wins) and 1.0 (a local iteration as dear as
a pipeline pass, where IC wins): on this K-means point the win rests on
the in-memory discount, not on the traffic PIC saves.
"""

import dataclasses

from benchmarks.conftest import cached, run_once
from repro.harness import compare_ic_pic
from repro.harness.workloads import kmeans_small
from repro.util.formatting import render_table

RATIOS = (0.05, 0.1, 0.25, 0.5, 1.0)


def ratio_point(ratio: float):
    def compute():
        w = kmeans_small(num_points=100_000)
        base = w.program.costs
        w.program.costs = dataclasses.replace(
            base,
            inmemory_seconds_per_record=base.map_seconds_per_record * ratio,
        )
        return compare_ic_pic(
            w.cluster_factory, w.program, w.records, w.initial_model,
            w.num_partitions,
        )

    return cached(f"ablation-ratio-{ratio}", compute)


def test_ratio_sweep(benchmark):
    run_once(benchmark, lambda: [ratio_point(r) for r in RATIOS])


def test_ratio_report(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    speedups = {}
    for ratio in RATIOS:
        result = ratio_point(ratio)
        speedups[ratio] = result.speedup
        rows.append([f"{ratio:.2f}", f"{result.speedup:.2f}x"])
    table = render_table(
        ["in-memory / pipeline cost ratio", "PIC speedup"],
        rows,
        title=(
            "Ablation — speedup sensitivity to the in-memory cost ratio "
            "(default 0.1; K-means, 100k points, 6 nodes)"
        ),
    )
    report("Ablation inmemory ratio", table)
    # Monotone: cheaper local iterations => larger speedup.
    swept = [speedups[ratio] for ratio in RATIOS]
    assert swept == sorted(swept, reverse=True)
    # PIC still wins at half the pipeline's per-record cost ...
    assert speedups[0.5] > 1.0
    # ... and loses with no discount: the crossover lies between the two.
    assert speedups[1.0] < 1.0
