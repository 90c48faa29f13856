"""The YARN ResourceManager: the cluster allocator with NodeSpec capacities.

Hadoop 0.20's fixed map/reduce slots and YARN's containers are one
allocator under two capacity models (see
:mod:`repro.mapreduce.scheduler`, where it lives so the slot runner can
use it without importing this package).  ``ResourceManager(cluster)``
is the YARN model: each node advertises ``MEMORY_FRACTION`` of its RAM
and all of its cores, tasks ask for containers of a given profile, and
one RM arbitrates every application on the cluster.
"""

from repro.mapreduce.scheduler import (
    Container,
    ContainerRequest,
    Resource,
    ResourceManager,
)

__all__ = ["Container", "ContainerRequest", "Resource", "ResourceManager"]
