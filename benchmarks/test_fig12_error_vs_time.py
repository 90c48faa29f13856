"""Figure 12 — Accuracy of results vs time for (a) neural-network
training, (b) K-means clustering, and (c) the linear-equation solver.

Paper results:

* (a) PIC reaches a validation error "virtually identical" to the
  baseline's final error in less than a quarter of the time;
* (b) the centroids converge much faster in PIC's best-effort phase;
* (c) PIC produces comparable quality in one-third the time.
"""

import copy

import numpy as np

from benchmarks.conftest import cached, run_once
from repro.apps.kmeans import centroid_displacement, lloyd
from repro.harness.workloads import (
    kmeans_small,
    linsolve_small,
    neuralnet_medium,
)
from repro.mapreduce.columnar import columnize
from repro.pic.runner import PICRunner, run_ic_baseline
from repro.util.formatting import render_table


def _traced(w, cluster_factory, error_fn, ic_max_iterations=500,
            be_max_iterations=60):
    """IC and PIC from one batch and the same initial model; the three
    error-vs-time curves are read off the runs' per-iteration records
    (each holds its simulated end time and the model it ended with)."""
    def curve(traces):
        return [(t.end, error_fn(t.model)) for t in traces]

    records = columnize(w.records)  # one ingest for both runs
    start = [(0.0, error_fn(w.initial_model))]
    ic = run_ic_baseline(
        cluster_factory(), w.program, records,
        initial_model=copy.deepcopy(w.initial_model),
        max_iterations=ic_max_iterations,
    )
    pic = PICRunner(
        cluster_factory(), w.program, num_partitions=w.num_partitions, seed=3,
        be_max_iterations=be_max_iterations, max_iterations=500,
    ).run(records, initial_model=copy.deepcopy(w.initial_model))
    return (
        ic, start + curve(ic.traces),
        pic, start + curve(pic.best_effort.stats), curve(pic.topoff.traces),
    )


def _series_table(title, ic_curve, pic_curves, value_name):
    rows = []
    for t, err in ic_curve:
        rows.append(["IC", f"{t:.4f}", f"{err:.5f}"])
    for label, curve in pic_curves:
        for t, err in curve:
            rows.append([label, f"{t:.4f}", f"{err:.5f}"])
    return render_table(["run", "sim time (s)", value_name], rows, title=title)


def _time_to_reach(curve, target):
    for t, err in curve:
        if err <= target:
            return t
    return float("inf")


# -- (a) neural network ------------------------------------------------------

def fig12a():
    def compute():
        # The error-vs-time study runs at the small-cluster scale (the
        # paper does not tie Figure 12 to a cluster size); 21k samples
        # over 24 splits keeps per-split SGD meaningful.
        from repro.cluster.presets import small_cluster

        w = neuralnet_medium(num_samples=21_000, num_partitions=18)
        Xv, yv = w.extras["Xv"], w.extras["yv"]
        error_fn = lambda model: w.program.validation_error(model, Xv, yv)
        return _traced(w, small_cluster, error_fn)

    return cached("fig12a", compute)


def test_fig12a_neuralnet(benchmark, report):
    ic, ic_curve, pic, be_curve, topoff_curve = run_once(benchmark, fig12a)
    table = _series_table(
        "Figure 12(a) — NN validation error vs time",
        ic_curve,
        [("PIC/best-effort", be_curve), ("PIC/top-off", topoff_curve)],
        "validation error",
    )
    report("Figure 12a nn error vs time", table)

    ic_final = ic_curve[-1][1]
    pic_all = be_curve + topoff_curve
    # PIC reaches (near) the IC final error well before IC finishes.
    t_pic = _time_to_reach(pic_all, ic_final + 0.01)
    t_ic = ic_curve[-1][0]
    assert t_pic < t_ic / 2


# -- (b) K-means -------------------------------------------------------------

def fig12b():
    def compute():
        w = kmeans_small(num_points=100_000)
        points = np.stack([v for _k, v in w.records])
        reference = lloyd(
            points, w.program.k, threshold=w.program.threshold,
            initial=w.program.centroid_array(w.initial_model),
        ).centroids

        def error_fn(model):
            return centroid_displacement(
                w.program.centroid_array(model), reference
            )

        return _traced(w, w.cluster_factory, error_fn)

    return cached("fig12b", compute)


def test_fig12b_kmeans(benchmark, report):
    ic, ic_curve, pic, be_curve, topoff_curve = run_once(benchmark, fig12b)
    table = _series_table(
        "Figure 12(b) — K-means centroid displacement from the sequential "
        "reference vs time",
        ic_curve,
        [("PIC/best-effort", be_curve), ("PIC/top-off", topoff_curve)],
        "centroid displacement",
    )
    report("Figure 12b kmeans error vs time", table)

    # The best-effort phase converges (much) faster than IC.
    ic_final = ic_curve[-1][1]
    t_pic = _time_to_reach(be_curve + topoff_curve, max(ic_final, 0.05) * 2)
    assert t_pic < ic_curve[-1][0]


# -- (c) linear solver --------------------------------------------------------

def fig12c():
    def compute():
        w = linsolve_small()
        x_star = w.extras["x_star"]
        n = len(x_star)

        def error_fn(model):
            return float(
                np.linalg.norm(w.program.solution_vector(model, n) - x_star)
            )

        return _traced(
            w, w.cluster_factory, error_fn,
            ic_max_iterations=1000, be_max_iterations=100,
        )

    return cached("fig12c", compute)


def test_fig12c_linsolve(benchmark, report):
    ic, ic_curve, pic, be_curve, topoff_curve = run_once(benchmark, fig12c)
    table = _series_table(
        "Figure 12(c) — linear solver distance to the golden solution vs time",
        ic_curve,
        [("PIC/best-effort", be_curve), ("PIC/top-off", topoff_curve)],
        "|x - x*|",
    )
    report("Figure 12c linsolve error vs time", table)

    # Paper: comparable quality in about one-third the time.
    ic_final_time = ic_curve[-1][0]
    ic_final_err = ic_curve[-1][1]
    t_pic = _time_to_reach(be_curve + topoff_curve, ic_final_err * 10)
    assert t_pic < ic_final_time / 2
