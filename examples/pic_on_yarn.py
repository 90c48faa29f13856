"""PIC on a YARN-style cluster (paper Section VII's future work, done).

The paper: "its design architecture (resource manager, node managers and
containers) is a good fit for PIC, and PIC can be easily ported to it."
Here the port is literal: swap the slot-based job runner for the
container-based one and run the exact same PIC program — zero PIC-level
changes.  Containers also make resource heterogeneity visible: a
low-memory node runs fewer concurrent tasks, which fixed slots cannot
express.

    python examples/pic_on_yarn.py
"""

from repro.apps.kmeans import KMeansProgram, gaussian_mixture
from repro.cluster.cluster import Cluster
from repro.cluster.topology import NodeSpec
from repro.dfs.dfs import DistributedFileSystem
from repro.pic.engine import BestEffortEngine
from repro.util.formatting import human_time, render_table
from repro.yarn import MAP_PROFILE, YarnJobRunner


def heterogeneous_memory_cluster() -> Cluster:
    """Six nodes, two of them memory-starved (YARN sees the difference)."""
    specs = [
        NodeSpec(cores=8, ram_bytes=(6 if i < 2 else 48) * 2**30)
        for i in range(6)
    ]
    return Cluster(num_nodes=6, nodes_per_rack=6, node_specs=specs,
                   name="yarn-6")


def main() -> None:
    records, _ = gaussian_mixture(50_000, num_clusters=10, separation=6.0, seed=1)
    program = KMeansProgram(k=10, threshold=0.1)
    model0 = program.initial_model(records, seed=2)

    cluster = heterogeneous_memory_cluster()
    dfs = DistributedFileSystem(cluster)
    runner = YarnJobRunner(cluster, dfs)

    rows = []
    for node in cluster.nodes:
        cap = runner.rm.capacity(node.node_id)
        concurrent = min(cap.memory_mb // MAP_PROFILE.memory_mb, cap.vcores)
        rows.append([node.node_id, f"{cap.memory_mb} MB", cap.vcores, concurrent])
    print(render_table(
        ["node", "container memory", "vcores", "concurrent map containers"],
        rows, title="ResourceManager view of the cluster"))

    engine = BestEffortEngine(
        cluster, program, num_partitions=24, seed=3, runner=runner
    )
    result = engine.run(records, model0)
    print(f"\nPIC best-effort phase on YARN containers: "
          f"{result.be_iterations} rounds "
          f"(locals {result.max_local_iterations_by_round}), "
          f"{human_time(result.total_time)} simulated")
    print(f"containers granted: {runner.rm.containers_granted}")
    print("the PICProgram, engine and driver are byte-for-byte the same "
          "code that runs on the slot-based cluster.")


if __name__ == "__main__":
    main()
