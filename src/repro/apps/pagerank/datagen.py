"""Synthetic web graphs with the locality PIC exploits.

Substitutes for the paper's wikipedia.org crawl (1.8M documents).  The
paper's Section VI-B argument is that "the web graph is typically
local": most hyperlinks connect nearby pages (same site/topic), so a
reasonable partitioning leaves few cross-partition edges.  The generator
controls exactly that: out-degrees are Zipf-ish and targets are drawn
from a geometric distribution over vertex-id distance, with a tunable
fraction of uniform long-range links.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import SeedLike, as_generator


def local_web_graph(
    num_vertices: int,
    avg_out_degree: float = 8.0,
    locality_scale: float = 50.0,
    long_range_fraction: float = 0.05,
    seed: SeedLike = 0,
) -> list[tuple[int, tuple[int, ...]]]:
    """Generate ``(vertex, out_links)`` records.

    ``locality_scale`` is the mean |target − source| distance of local
    links; ``long_range_fraction`` of links go to uniform random
    targets.  Higher locality / lower long-range fraction ⇒ more nearly
    uncoupled under contiguous partitioning.
    """
    if num_vertices < 2:
        raise ValueError(f"need at least 2 vertices, got {num_vertices}")
    if avg_out_degree <= 0:
        raise ValueError("avg_out_degree must be positive")
    if not 0.0 <= long_range_fraction <= 1.0:
        raise ValueError("long_range_fraction must be in [0, 1]")
    if locality_scale <= 0:
        raise ValueError("locality_scale must be positive")
    rng = as_generator(seed)
    # Zipf-ish out-degrees: 1 + Poisson around the target mean gives a
    # heavy-enough tail without pathological hubs.
    degrees = 1 + rng.poisson(max(avg_out_degree - 1.0, 0.1), size=num_vertices)
    records: list[tuple[int, tuple[int, ...]]] = []
    for v in range(num_vertices):
        deg = int(degrees[v])
        is_long = rng.random(deg) < long_range_fraction
        offsets = rng.geometric(1.0 / locality_scale, size=deg)
        signs = rng.choice((-1, 1), size=deg)
        local_targets = v + signs * offsets
        uniform_targets = rng.integers(0, num_vertices, size=deg)
        targets = np.where(is_long, uniform_targets, local_targets)
        targets = np.clip(targets, 0, num_vertices - 1)
        # Drop self-loops and duplicates, keep deterministic order.
        seen: set[int] = set()
        out: list[int] = []
        for t in targets:
            t = int(t)
            if t != v and t not in seen:
                seen.add(t)
                out.append(t)
        if not out:
            out = [(v + 1) % num_vertices]
        records.append((v, tuple(out)))
    return records

