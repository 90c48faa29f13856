"""Figure 2 — Run time and shuffle traffic for K-means clustering.

Paper result (100M points into 100 clusters, 64-node cluster): the
best-effort phase executes in ~1/5 the conventional time, the top-off
phase needs ~1/6 the conventional iterations, ~3x overall; the
intermediate-data and model-update volumes collapse by orders of
magnitude.

Scaling note (see EXPERIMENTS.md): the paper's runtime shape requires
its points-per-cluster-per-partition ratio (~3,000), which at 320 map
slots would need ~10^7-10^8 points — beyond a pure-Python bench.  The
two panels are therefore reproduced at the configurations that preserve
their governing ratios:

* the **runtime breakdown** panel runs at the paper's per-partition
  ratio on the 6-node research cluster (breakdown shape is
  cluster-size-independent; the 64-node cluster's timing behaviour is
  covered by Figures 10/11);
* the **traffic** panel runs on the 64-node cluster at scaled size —
  byte volumes are measured, and the orders-of-magnitude collapse does
  not depend on the ratio above.

As in Table II, IC's "intermediate data" is ``map_output_bytes_raw``:
the mappers' output *before* K-means' combiner, which never reaches the
fabric, while PIC's is the bytes its best-effort rounds shuffle.  The
"on-fabric shuffle" row reads both sides the same way: IC's
``JobResult.shuffle_bytes`` (after the combiner) against PIC's.
"""

from benchmarks.conftest import cached, run_once
from repro.harness import compare_ic_pic
from repro.harness.workloads import kmeans_fig2, kmeans_small
from repro.util.formatting import human_bytes, human_time, render_table


def breakdown_comparison():
    """Paper-ratio run (runtime panel): 200k pts, 10 clusters, 24 slots."""
    def compute():
        w = kmeans_small()
        return compare_ic_pic(
            w.cluster_factory, w.program, w.records, w.initial_model,
            w.num_partitions,
        )

    return cached("fig9-kmeans", compute)  # shared with Figure 9


def comparison():
    """Scaled 64-node run (traffic panel + Figure 10's K-means bar)."""
    def compute():
        w = kmeans_fig2()
        return compare_ic_pic(
            w.cluster_factory, w.program, w.records, w.initial_model,
            w.num_partitions,
        )

    return cached("fig2-kmeans-medium", compute)


def test_fig02_runtime_breakdown(benchmark, report):
    result = run_once(benchmark, breakdown_comparison)
    ic, pic = result.ic, result.pic
    table = render_table(
        ["run", "phase", "time", "iterations"],
        [
            ["IC", "whole run", human_time(ic.total_time), ic.iterations],
            ["PIC", "best-effort", human_time(pic.be_time), pic.be_iterations],
            ["PIC", "top-off", human_time(pic.topoff_time), pic.topoff_iterations],
            ["PIC", "total", human_time(pic.total_time),
             f"speedup {result.speedup:.2f}x"],
        ],
        title=(
            "Figure 2 (left) — K-means run time breakdown at the paper's "
            "per-partition ratio (paper: BE ~1/5 IC, top-off ~1/6 IC's "
            "iterations, ~3x overall)"
        ),
    )
    report("Figure 2 runtime breakdown", table)

    # The paper's three observations about the left panel:
    assert pic.be_time < ic.total_time / 2          # BE phase much shorter
    assert pic.topoff_iterations <= ic.iterations / 3  # few top-off iterations
    assert result.speedup > 2.0                     # ~3x overall


def test_fig02_traffic(benchmark, report):
    result = run_once(benchmark, comparison)
    ic, pic = result.ic, result.pic

    ic_intermediate = sum(
        jr.map_output_bytes_raw for t in ic.traces for jr in t.job_results
    )
    ic_shuffle = sum(jr.shuffle_bytes for t in ic.traces for jr in t.job_results)
    ic_models = result.ic_traffic.get("model_update", {}).get("total_bytes", 0)
    pic_be_shuffle = pic.phases[0].shuffle_bytes
    pic_models = pic.model_update_bytes
    table = render_table(
        ["volume", "IC total", "PIC (best-effort phase)"],
        [
            ["intermediate data (IC pre-combiner)", human_bytes(ic_intermediate),
             human_bytes(pic_be_shuffle)],
            ["on-fabric shuffle", human_bytes(ic_shuffle), human_bytes(pic_be_shuffle)],
            ["model updates", human_bytes(ic_models), human_bytes(pic_models)],
        ],
        title=(
            "Figure 2 (right) — interconnect volumes, 64-node cluster "
            "(640k points; measured from real records)"
        ),
    )
    table += (
        f"\n(iterations: IC {ic.iterations}; PIC {pic.be_iterations} "
        f"best-effort rounds, locals "
        f"{pic.best_effort.max_local_iterations_by_round}, "
        f"{pic.topoff_iterations} top-off)"
    )
    report("Figure 2 traffic", table)

    # The paper's core argument: intermediate data collapses by orders
    # of magnitude; model updates stay the same order.
    assert pic_be_shuffle < ic_intermediate / 100
    assert pic.topoff_iterations <= max(1, ic.iterations / 3)
