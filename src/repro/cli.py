"""Command-line interface: run any of the paper's five applications
through conventional IC and PIC on a simulated cluster.

Examples::

    python -m repro.cli kmeans --points 100000 --clusters 10
    python -m repro.cli pagerank --vertices 20000 --partitions 18
    python -m repro.cli linsolve --variables 100 --dominance 1.05
    python -m repro.cli neuralnet --samples 21000 --cluster medium
    python -m repro.cli smoothing --side 256 --cluster small
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.presets import large_cluster, medium_cluster, small_cluster
from repro.harness.compare import ComparisonResult, compare_ic_pic
from repro.util.formatting import human_bytes, human_time, render_table

CLUSTERS: dict[str, Callable[[], Cluster]] = {
    "small": small_cluster,
    "medium": medium_cluster,
    "large": large_cluster,
}


def _add_common(parser: argparse.ArgumentParser, default_partitions: int) -> None:
    parser.add_argument(
        "--cluster", choices=sorted(CLUSTERS), default="small",
        help="simulated cluster preset (paper testbeds; default: small)",
    )
    parser.add_argument(
        "--partitions", type=int, default=default_partitions,
        help=f"PIC sub-problem count (default: {default_partitions})",
    )
    parser.add_argument("--seed", type=int, default=1, help="RNG seed")
    parser.add_argument(
        "--speculative", action="store_true",
        help="enable Hadoop-style speculative execution",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="host processes for independent task computations "
             "(default: $PIC_WORKERS or 1; wall-clock only — simulated "
             "results are identical for any worker count)",
    )
    parser.add_argument(
        "--pipeline", choices=("on", "off"), default="off",
        help="pipelined shuffle + loop-aware node-memory caching "
             "(default: off; changes simulated timing "
             "— same model, completion time <= barrier mode)",
    )


def _report(result: ComparisonResult, quality_rows: list[list[str]] | None = None) -> str:
    pic = result.pic
    rows = [
        ["IC (conventional)", str(result.ic.iterations),
         human_time(result.ic_time), ""],
        ["PIC best-effort", str(pic.be_iterations),
         human_time(pic.be_time),
         " ".join(str(x) for x in pic.best_effort.max_local_iterations_by_round)],
        ["PIC top-off", str(pic.topoff_iterations),
         human_time(pic.topoff_time), ""],
    ]
    out = render_table(
        ["run", "iterations", "simulated time", "(max) locals per round"], rows
    )
    out += f"\n\nspeedup: {result.speedup:.2f}x"
    ic_shuffle, pic_shuffle = result.traffic_row("shuffle")
    out += (f"\nshuffle volume: IC {human_bytes(ic_shuffle)}"
            f" vs PIC {human_bytes(pic_shuffle)}")
    if quality_rows:
        out += "\n" + render_table(["quality metric", "IC", "PIC"], quality_rows)
    return out


def _run(args, program, records, initial_model) -> ComparisonResult:
    """IC vs PIC for one subcommand's program, under its common flags."""
    return compare_ic_pic(
        CLUSTERS[args.cluster], program, records, initial_model,
        args.partitions, max_iterations=1000, be_max_iterations=100,
        workers=args.workers, speculative=args.speculative,
        pipeline=args.pipeline == "on",
    )


# -- subcommands ------------------------------------------------------------

def cmd_kmeans(args) -> str:
    """Run K-means clustering IC-vs-PIC and render the comparison."""
    from repro.apps.kmeans import KMeansProgram, gaussian_mixture, jagota_index

    records, _ = gaussian_mixture(
        args.points, args.clusters, dim=args.dim,
        separation=args.separation, seed=args.seed,
    )
    program = KMeansProgram(k=args.clusters, dim=args.dim, threshold=args.threshold)
    initial_model = program.initial_model(records, seed=args.seed + 1)
    result = _run(args, program, records, initial_model)
    points = np.stack([v for _k, v in records])
    quality = [[
        "Jagota index",
        f"{jagota_index(points, program.centroid_array(result.ic.model)):.3f}",
        f"{jagota_index(points, program.centroid_array(result.pic.model)):.3f}",
    ]]
    return _report(result, quality)


def cmd_pagerank(args) -> str:
    """Run PageRank IC-vs-PIC and render the comparison."""
    from repro.apps.pagerank import PageRankProgram, local_web_graph, nutch_pagerank

    records = local_web_graph(
        args.vertices, avg_out_degree=args.degree, seed=args.seed
    )
    program = PageRankProgram(partition_mode=args.partition_mode)
    result = _run(args, program, records, program.initial_model(records))
    reference = nutch_pagerank(records)
    ranks = program.rank_vector(result.pic.model, args.vertices)
    rel_l1 = float(np.abs(ranks - reference).sum() / reference.sum())
    return _report(result, [["rank error (rel L1)", "0 (exact)", f"{rel_l1:.4f}"]])


def cmd_linsolve(args) -> str:
    """Run the linear solver IC-vs-PIC and render the comparison."""
    from repro.apps.linsolve import LinearSolverProgram, diagonally_dominant_system
    from repro.apps.linsolve.datagen import system_records

    A, b, x_star = diagonally_dominant_system(
        args.variables, bandwidth=args.bandwidth,
        dominance=args.dominance, seed=args.seed,
    )
    records = system_records(A, b)
    program = LinearSolverProgram(threshold=args.threshold)
    result = _run(args, program, records, program.initial_model(records))
    err_ic = np.linalg.norm(
        program.solution_vector(result.ic.model, args.variables) - x_star
    )
    err_pic = np.linalg.norm(
        program.solution_vector(result.pic.model, args.variables) - x_star
    )
    return _report(result, [["|x - x*|", f"{err_ic:.2e}", f"{err_pic:.2e}"]])


def cmd_neuralnet(args) -> str:
    """Run NN training IC-vs-PIC and render the comparison."""
    from repro.apps.neuralnet import MLP, NeuralNetProgram, ocr_dataset

    records, X, y = ocr_dataset(args.samples, seed=args.seed)
    split = int(args.samples * 20 / 21)
    train, Xv, yv = records[:split], X[split:], y[split:]
    program = NeuralNetProgram(
        MLP(64, args.hidden, 10), validation=(Xv, yv)
    )
    initial_model = program.initial_model(train, seed=args.seed + 2)
    result = _run(args, program, train, initial_model)
    quality = [[
        "validation error",
        f"{program.validation_error(result.ic.model, Xv, yv):.4f}",
        f"{program.validation_error(result.pic.model, Xv, yv):.4f}",
    ]]
    return _report(result, quality)


def cmd_smoothing(args) -> str:
    """Run image smoothing IC-vs-PIC and render the comparison."""
    from repro.apps.smoothing import ImageSmoothingProgram, synthetic_image
    from repro.apps.smoothing.datagen import image_records

    img = synthetic_image(args.side, args.side, seed=args.seed)
    records = image_records(img)
    program = ImageSmoothingProgram(args.side, args.side)
    result = _run(args, program, records, program.initial_model(records))
    return _report(result)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with one subcommand per app."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="PIC (CLUSTER 2012) reproduction: run IC vs PIC "
                    "for any of the paper's five applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kmeans", help="K-means clustering (Section IV-A)")
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--clusters", type=int, default=10)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--threshold", type=float, default=0.1)
    _add_common(p, default_partitions=24)
    p.set_defaults(func=cmd_kmeans)

    p = sub.add_parser("pagerank", help="PageRank (Section IV-B)")
    p.add_argument("--vertices", type=int, default=20_000)
    p.add_argument("--degree", type=float, default=8.0)
    p.add_argument("--partition-mode", dest="partition_mode",
                   choices=("contiguous", "mincut", "random"),
                   default="contiguous")
    _add_common(p, default_partitions=18)
    p.set_defaults(func=cmd_pagerank)

    p = sub.add_parser("linsolve", help="linear equation solver")
    p.add_argument("--variables", type=int, default=100)
    p.add_argument("--bandwidth", type=int, default=2)
    p.add_argument("--dominance", type=float, default=1.05)
    p.add_argument("--threshold", type=float, default=1e-6)
    _add_common(p, default_partitions=6)
    p.set_defaults(func=cmd_linsolve)

    p = sub.add_parser("neuralnet", help="neural-network training")
    p.add_argument("--samples", type=int, default=21_000)
    p.add_argument("--hidden", type=int, default=32)
    _add_common(p, default_partitions=18)
    p.set_defaults(func=cmd_neuralnet)

    p = sub.add_parser("smoothing", help="image smoothing")
    p.add_argument("--side", type=int, default=256)
    _add_common(p, default_partitions=12)
    p.set_defaults(func=cmd_smoothing)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    print(args.func(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
