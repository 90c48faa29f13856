"""A container-based job runner: the PIC-on-YARN port of Section VII.

:class:`YarnJobRunner` subclasses the slot-based
:class:`~repro.mapreduce.runner.JobRunner` and swaps its scheduling
substrate: its :class:`~repro.mapreduce.scheduler.SlotScheduler` view
hands out map containers of a :class:`~repro.yarn.rm.ResourceManager`
instead of unit slots, and reduce tasks pin containers on their
assigned node.  The MapReduce engine, the iterative driver and the
whole PIC layer run on it unchanged — the porting effort the paper
predicted to be small is, above this line, zero.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.dfs.dfs import DistributedFileSystem
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.scheduler import SlotScheduler
from repro.yarn.rm import Container, Resource, ResourceManager

#: Hadoop 2's default container profiles.
MAP_PROFILE = Resource(memory_mb=1024, vcores=1)
REDUCE_PROFILE = Resource(memory_mb=2048, vcores=1)


class YarnJobRunner(JobRunner):
    """JobRunner whose tasks run in RM-granted containers."""

    def __init__(
        self,
        cluster: Cluster,
        dfs: DistributedFileSystem,
        rm: ResourceManager | None = None,
        map_profile: Resource = MAP_PROFILE,
        reduce_profile: Resource = REDUCE_PROFILE,
    ) -> None:
        super().__init__(cluster, dfs)
        self.rm = rm if rm is not None else ResourceManager(cluster)
        for profile, kind in ((map_profile, "map"), (reduce_profile, "reduce")):
            for node in cluster.nodes:
                if not profile.fits_in(self.rm.capacity(node.node_id)):
                    raise ValueError(
                        f"{kind} container profile {profile} does not fit "
                        f"node {node.node_id}'s capacity "
                        f"{self.rm.capacity(node.node_id)}; tasks pinned "
                        "there would deadlock"
                    )
        self.map_profile = map_profile
        self.reduce_profile = reduce_profile
        # Swap the scheduling substrate; everything above is unchanged.
        self.map_scheduler = SlotScheduler(cluster, "map", self.rm, map_profile)
        self._reduce_containers: dict[tuple[int, int], list[Container]] = {}

    def _claim_reduce_slot(self, node_id: int, app_id: int) -> bool:
        """Pin a reduce container on ``node_id`` if it fits now."""
        container = self.rm.try_allocate_on(
            node_id, self.reduce_profile, app_id=app_id
        )
        if container is None:
            return False
        self._reduce_containers.setdefault((node_id, app_id), []).append(container)
        return True

    def release_reduce(self, node_id: int, app_id: int = 0) -> None:
        """Return one reduce container ``app_id`` holds on ``node_id``."""
        held = self._reduce_containers.get((node_id, app_id))
        if not held:
            raise RuntimeError(
                f"no reduce container of app {app_id} held on node {node_id}"
            )
        self.rm.release(held.pop())
        self._flush_reduce()
