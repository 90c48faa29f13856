"""The two bench factories the perf ledger's layer probes call.

Each factory takes a config dict and returns a no-argument callable that
does one unit of work; the probes in ``benchmarks/perf/ledger/probes.py``
time it on a traced ledger run:

* ``shuffle_columnar_vs_row`` (``{"shuffle_records": n}``) — the shuffle
  hot path in isolation: hash-partition + bucket + size one big record
  batch (the name dates from when a row-at-a-time twin ran beside it;
  kept because the ledger's probes are keyed on it);
* ``flow_fanout_64`` (``{"fanout_classes": c}``) — an all-to-all shuffle
  wave on the flow simulator over 64 nodes with heterogeneous sizes.

Host-time regressions are judged by the ledger
(``python3 benchmarks/perf/ledger/run.py``), not here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _make_flow_fanout(num_nodes: int):
    """All-to-all shuffle wave on the flow simulator.

    Every node sends one flow to every other node; byte counts cycle
    through ``fanout_classes`` distinct sizes (a prime count keeps the
    completion horizons heterogeneous — avoid 7 and 13, which divide
    the hash multipliers and collapse the class pattern).  This is the
    workload the structure-of-arrays rewrite targets: tens of thousands
    of concurrent flows contending for oversubscribed rack uplinks.
    """

    def bench(cfg) -> Callable[[], None]:
        classes = cfg["fanout_classes"]

        def run() -> None:
            from repro.cluster.cluster import Cluster

            cluster = Cluster(
                num_nodes=num_nodes, nodes_per_rack=16, oversubscription=4.0
            )
            requests = [
                (
                    src,
                    dst,
                    2e7 * (1 + ((7 * src + 13 * dst) % classes) / classes),
                    "shuffle",
                )
                for src in range(num_nodes)
                for dst in range(num_nodes)
                if src != dst
            ]
            cluster.transfer_batch(requests)
            cluster.run()

        return run

    return bench


def bench_shuffle(cfg) -> Callable[[], None]:
    """The map side of the shuffle in isolation: partition ids, counts
    and the wire size of every bucket, as a map task sizes its output.

    Records mirror k-means map output (int key, (vector, count) value).
    """
    from repro.mapreduce.columnar import ColumnBatch

    n = cfg["shuffle_records"]
    rng = np.random.default_rng(9)
    vectors = rng.standard_normal((n, 3))
    batch = ColumnBatch.from_rows([(i % 1024, (vectors[i], 1)) for i in range(n)])
    num_buckets = 8

    def run() -> None:
        pids = batch.partition_ids(num_buckets).astype(np.uint8)
        counts = np.bincount(pids, minlength=num_buckets)
        total = sum(batch.bucket_nbytes(pids, counts))
        assert total > 0

    return run


BENCHES: dict[str, Callable[[dict], Callable[[], None]]] = {
    "flow_fanout_64": _make_flow_fanout(64),
    "shuffle_columnar_vs_row": bench_shuffle,
}
