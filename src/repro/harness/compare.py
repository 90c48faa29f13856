"""Run the same workload through conventional IC and PIC, on fresh
identical clusters, and package the paper-style comparison."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.cluster import Cluster
from repro.mapreduce.columnar import Records, columnize
from repro.mapreduce.driver import DriverResult
from repro.pic.api import PICProgram
from repro.pic.runner import PICResult, PICRunner, run_ic_baseline


@dataclass
class ComparisonResult:
    """IC and PIC outcomes for one workload on one cluster size."""

    ic: DriverResult
    ic_traffic: dict[str, dict[str, float]]
    pic: PICResult

    @property
    def speedup(self) -> float:
        """Simulated IC makespan over simulated PIC makespan."""
        return self.ic.total_time / self.pic.total_time

    @property
    def ic_time(self) -> float:
        """Simulated IC makespan."""
        return self.ic.total_time

    @property
    def pic_time(self) -> float:
        """Simulated PIC makespan (both phases)."""
        return self.pic.total_time

    def traffic_row(self, category: str) -> tuple[float, float]:
        """(IC bytes, PIC bytes) for one traffic category."""
        ic = self.ic_traffic.get(category, {}).get("total_bytes", 0.0)
        pic = self.pic.traffic.get(category, {}).get("total_bytes", 0.0)
        return ic, pic


def compare_ic_pic(
    cluster_factory: Callable[[], Cluster],
    program: PICProgram,
    records: Records,
    initial_model: Any,
    num_partitions: int,
    seed: Any = 3,
    max_iterations: int = 200,
    be_max_iterations: int = 30,
    workers: int | None = None,
    speculative: bool = False,
    pipeline: bool = False,
) -> ComparisonResult:
    """Run IC then PIC from the *same* initial model on fresh clusters.

    ``workers`` sets host-side execution parallelism (``PIC_WORKERS``
    when None); it changes wall-clock only — simulated results are
    bit-identical for any worker count.  ``speculative`` and
    ``pipeline`` (barrier mode when False) go to both runs.
    ``records`` is columnized once; both runs read the same batch.
    """
    batch = columnize(records)
    ic_cluster = cluster_factory()
    ic = run_ic_baseline(
        ic_cluster,
        program,
        batch,
        initial_model=copy.deepcopy(initial_model),
        max_iterations=max_iterations,
        speculative=speculative,
        workers=workers,
        pipeline=pipeline,
    )
    pic_cluster = cluster_factory()
    runner = PICRunner(
        pic_cluster,
        program,
        num_partitions=num_partitions,
        seed=seed,
        be_max_iterations=be_max_iterations,
        max_iterations=max_iterations,
        speculative=speculative,
        workers=workers,
        pipeline=pipeline,
    )
    pic = runner.run(batch, initial_model=copy.deepcopy(initial_model))
    return ComparisonResult(
        ic=ic, ic_traffic=ic_cluster.meter.snapshot(), pic=pic
    )
