"""Canonical workloads for the paper's experiments.

Each factory returns a :class:`Workload` naming the cluster, the
program, the data, a shared initial model, and the partition count —
everything a bench needs to reproduce one paper datapoint.  Sizes are
scaled from the paper's (Section 2 of DESIGN.md documents the mapping);
the structural knobs (cluster separation, graph locality, diagonal
dominance, noise) carry the properties the paper's claims rest on.

Each factory imports its application itself, so importing this module
loads no application and building one workload loads only its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.presets import large_cluster, medium_cluster, small_cluster
from repro.pic.api import PICProgram


@dataclass
class Workload:
    """One reproducible experiment datapoint."""

    name: str
    cluster_factory: Callable[[], Cluster]
    program: PICProgram
    records: Sequence[tuple[Any, Any]]
    initial_model: Any
    num_partitions: int
    extras: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# K-means (Figures 2, 9, 12(b); Tables I, III)

def kmeans_small(
    num_points: int = 200_000,
    k: int = 10,
    separation: float = 6.0,
    threshold: float = 0.1,
    num_partitions: int = 24,
    seed: int = 1,
) -> Workload:
    """K-means on the 6-node cluster (Figure 9's first group)."""
    from repro.apps.kmeans import KMeansProgram, gaussian_mixture

    records, centers = gaussian_mixture(
        num_points, k, dim=3, separation=separation, seed=seed
    )
    program = KMeansProgram(k=k, dim=3, threshold=threshold)
    model0 = program.initial_model(records, seed=seed + 1)
    return Workload(
        name=f"kmeans-{num_points}",
        cluster_factory=small_cluster,
        program=program,
        records=records,
        initial_model=model0,
        num_partitions=num_partitions,
        extras={"true_centers": centers},
    )


def kmeans_fig2(seed: int = 1) -> Workload:
    """Figure 2's 64-node K-means, scaled for the traffic panel.

    The paper clusters 100M points into 100 clusters; we cluster 640k
    into 10 with one sub-problem per node.  One sub-problem per node
    (rather than per slot) keeps points-per-cluster-per-partition in the
    regime where local iterations collapse after the first round — the
    property the paper's scale gave it for free (see EXPERIMENTS.md for
    the runtime-panel scaling discussion)."""
    from repro.apps.kmeans import KMeansProgram, gaussian_mixture

    records, centers = gaussian_mixture(640_000, 10, dim=3, separation=6.0, seed=seed)
    program = KMeansProgram(k=10, dim=3, threshold=0.1)
    model0 = program.initial_model(records, seed=seed + 1)
    return Workload(
        name="kmeans-fig2",
        cluster_factory=medium_cluster,
        program=program,
        records=records,
        initial_model=model0,
        num_partitions=64,
        extras={"true_centers": centers},
    )


def kmeans_table1_sizes() -> list[int]:
    """Geometric size ladder standing in for 0.5M/5M/50M/500M."""
    return [5_000, 20_000, 80_000, 320_000]


def kmeans_table1(num_points: int, seed: int = 1) -> Workload:
    """One Table I row (iteration counts vs dataset size)."""
    from repro.apps.kmeans import KMeansProgram, gaussian_mixture

    records, _ = gaussian_mixture(num_points, 10, dim=3, separation=6.0, seed=seed)
    program = KMeansProgram(k=10, dim=3, threshold=0.1)
    model0 = program.initial_model(records, seed=seed + 1)
    return Workload(
        name=f"kmeans-table1-{num_points}",
        cluster_factory=small_cluster,
        program=program,
        records=records,
        initial_model=model0,
        num_partitions=24,
    )


def kmeans_table3(dataset: int, seed: int = 1) -> Workload:
    """Table III's two datasets: well-separated vs overlapping mixtures."""
    from repro.apps.kmeans import KMeansProgram, gaussian_mixture

    separation = {1: 6.0, 2: 3.5}[dataset]
    records, _ = gaussian_mixture(
        100_000, 15, dim=3, separation=separation, seed=seed + dataset
    )
    program = KMeansProgram(k=15, dim=3, threshold=0.1)
    model0 = program.initial_model(records, seed=seed + 10 + dataset)
    return Workload(
        name=f"kmeans-table3-ds{dataset}",
        cluster_factory=small_cluster,
        program=program,
        records=records,
        initial_model=model0,
        num_partitions=24,
    )


# ---------------------------------------------------------------------------
# PageRank (Figure 9)

def pagerank_small(
    num_vertices: int = 20_000, num_partitions: int = 18, seed: int = 5
) -> Workload:
    """PageRank on the 6-node cluster; the paper splits its web graph
    into 18 partitions of ~100k vertices — we keep the 18."""
    from repro.apps.pagerank import PageRankProgram, local_web_graph

    records = local_web_graph(num_vertices, avg_out_degree=8.0, seed=seed)
    program = PageRankProgram()
    model0 = program.initial_model(records)
    return Workload(
        name=f"pagerank-{num_vertices}",
        cluster_factory=small_cluster,
        program=program,
        records=records,
        initial_model=model0,
        num_partitions=num_partitions,
    )


# ---------------------------------------------------------------------------
# Linear solver (Figures 9, 12(c))

def linsolve_small(
    n: int = 100,
    dominance: float = 1.05,
    bandwidth: int = 2,
    num_partitions: int = 6,
    seed: int = 11,
) -> Workload:
    """The paper's own problem size: 100 variables, weakly diagonally
    dominant."""
    from repro.apps.linsolve import LinearSolverProgram, diagonally_dominant_system
    from repro.apps.linsolve.datagen import system_records

    A, b, x_star = diagonally_dominant_system(
        n, bandwidth=bandwidth, dominance=dominance, seed=seed
    )
    records = system_records(A, b)
    program = LinearSolverProgram(threshold=1e-6)
    model0 = program.initial_model(records)
    return Workload(
        name=f"linsolve-{n}",
        cluster_factory=small_cluster,
        program=program,
        records=records,
        initial_model=model0,
        num_partitions=num_partitions,
        extras={"A": A, "b": b, "x_star": x_star},
    )


# ---------------------------------------------------------------------------
# Neural-network training (Figures 10, 12(a))

def neuralnet_medium(
    num_samples: int = 63_000, num_partitions: int = 64, seed: int = 7
) -> Workload:
    """NN training on the 64-node cluster; the paper used ~210k OCR
    vectors — we keep the 10:1 train/validation structure at 1/10 scale."""
    from repro.apps.neuralnet import MLP, NeuralNetProgram, ocr_dataset

    records, X, y = ocr_dataset(num_samples, seed=seed)
    split = int(num_samples * 20 / 21)
    train = records[:split]
    Xv, yv = X[split:], y[split:]
    program = NeuralNetProgram(MLP(64, 32, 10), validation=(Xv, yv))
    model0 = program.initial_model(train, seed=seed + 2)
    return Workload(
        name=f"neuralnet-{num_samples}",
        cluster_factory=medium_cluster,
        program=program,
        records=train,
        initial_model=model0,
        num_partitions=num_partitions,
        extras={"Xv": Xv, "yv": yv},
    )


# ---------------------------------------------------------------------------
# Image smoothing (Figures 10, 11)

def smoothing_medium(
    side: int = 512, num_partitions: int = 64, seed: int = 13
) -> Workload:
    """Image smoothing on the 64-node cluster (paper: 40-Mpixel image)."""
    from repro.apps.smoothing import ImageSmoothingProgram, synthetic_image
    from repro.apps.smoothing.datagen import image_records

    img = synthetic_image(side, side, seed=seed)
    records = image_records(img)
    program = ImageSmoothingProgram(side, side)
    model0 = program.initial_model(records)
    return Workload(
        name=f"smoothing-{side}",
        cluster_factory=medium_cluster,
        program=program,
        records=records,
        initial_model=model0,
        num_partitions=num_partitions,
        extras={"image": img},
    )


def smoothing_large(num_nodes: int, side: int = 1024, seed: int = 13) -> Workload:
    """Figure 11's strong-scaling points: fixed image, growing cluster."""
    from repro.apps.smoothing import ImageSmoothingProgram, synthetic_image
    from repro.apps.smoothing.datagen import image_records

    img = synthetic_image(side, side, seed=seed)
    records = image_records(img)
    program = ImageSmoothingProgram(side, side)
    model0 = program.initial_model(records)
    return Workload(
        name=f"smoothing-large-{num_nodes}",
        cluster_factory=lambda: large_cluster(num_nodes),
        program=program,
        records=records,
        initial_model=model0,
        num_partitions=num_nodes,
        extras={"image": img},
    )
