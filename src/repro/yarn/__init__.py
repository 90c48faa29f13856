"""YARN-style resource management (the paper's Section VII future work).

The paper: "We have considered the new version of Hadoop (Yarn, 0.23)
and believe that its design architecture (resource manager, node
managers and containers) is a good fit for PIC, and PIC can be easily
ported to it.  We leave this as future work."

This package does that port for the simulated stack, and it is as
small as the paper expected.  The stack has **one allocator**
(:mod:`repro.mapreduce.scheduler`): containers granted against per-node
capacity vectors, locality tier first, least-granted application within
the tier, FIFO on ties.  Fixed slots and YARN containers are its two
capacity models — a slot is a ``Resource(1, 1)`` container on a node of
capacity ``Resource(k, k)`` — so the port is a different capacity
table, not a second scheduler:

* :mod:`repro.yarn.rm` — :class:`ResourceManager`, the allocator with
  capacities derived from each node's RAM and cores, and the
  :class:`Resource` / :class:`Container` vocabulary;
* :mod:`repro.yarn.runner` — :class:`YarnJobRunner`, a drop-in
  :class:`~repro.mapreduce.runner.JobRunner` replacement whose tasks run
  in containers.  Because PIC sits entirely above the job runner, it
  ports with **zero changes** — exactly the paper's expectation.
"""

from repro.yarn.rm import Container, ContainerRequest, Resource, ResourceManager
from repro.yarn.runner import YarnJobRunner, MAP_PROFILE, REDUCE_PROFILE

__all__ = [
    "Resource",
    "Container",
    "ContainerRequest",
    "ResourceManager",
    "YarnJobRunner",
    "MAP_PROFILE",
    "REDUCE_PROFILE",
]
