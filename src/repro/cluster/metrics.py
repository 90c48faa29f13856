"""Traffic and time accounting.

The paper's headline evidence (Figure 2 right, Table II) is byte counts
by *category*: MapReduce intermediate (shuffle) data versus model
updates, with bisection traffic called out separately.  The
:class:`TrafficMeter` is the single ledger every transfer in the
simulator reports to, keyed by a free-form category string; the standard
categories used throughout the library are listed in
:class:`TrafficCategory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TrafficCategory:
    """Canonical category names used by the MapReduce/DFS/PIC layers."""

    INPUT = "input"               # reading input splits (DFS → mapper)
    SHUFFLE = "shuffle"           # map output → reducers (intermediate data)
    MODEL_UPDATE = "model_update" # writing the refined model to the DFS
    MODEL_READ = "model_read"     # distributing the current model to tasks
    DFS_WRITE = "dfs_write"       # other DFS writes (incl. replication)
    DFS_READ = "dfs_read"         # other DFS reads
    MERGE = "merge"               # PIC merge-phase traffic
    REPARTITION = "repartition"   # PIC best-effort data co-location (one-time)
    CONTROL = "control"           # job bookkeeping (tiny)

    ALL = (
        INPUT, SHUFFLE, MODEL_UPDATE, MODEL_READ,
        DFS_WRITE, DFS_READ, MERGE, REPARTITION, CONTROL,
    )


@dataclass(slots=True)
class _CategoryTotals:
    """Accumulated byte/transfer counts for one category."""

    total_bytes: float = 0.0
    fabric_bytes: float = 0.0
    core_bytes: float = 0.0
    transfers: int = 0


@dataclass
class TrafficMeter:
    """Accumulates byte counts per category and per network tier."""

    _totals: dict[str, _CategoryTotals] = field(default_factory=dict)

    def record(
        self, category: str, nbytes: float, *, crosses_core: bool, on_fabric: bool = True
    ) -> None:
        """Record one transfer.

        ``on_fabric`` is False for intra-node copies: they count toward
        the category total (the data existed) but not toward network
        traffic — mirroring how Hadoop counters distinguish local from
        rack/remote bytes.
        """
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        # get-then-insert instead of setdefault: record() runs once per
        # flow, and setdefault would allocate a throwaway _CategoryTotals
        # on every hit.
        totals = self._totals.get(category)
        if totals is None:
            totals = self._totals[category] = _CategoryTotals()
        totals.total_bytes += nbytes
        totals.transfers += 1
        if on_fabric:
            totals.fabric_bytes += nbytes
            if crosses_core:
                totals.core_bytes += nbytes

    def total(self, category: str) -> float:
        """All bytes recorded under ``category`` (including intra-node)."""
        return self._totals.get(category, _CategoryTotals()).total_bytes

    def fabric(self, category: str) -> float:
        """Bytes under ``category`` that traversed at least one link."""
        return self._totals.get(category, _CategoryTotals()).fabric_bytes

    def bisection(self, category: str) -> float:
        """Bytes under ``category`` that crossed the core (rack-to-rack)."""
        return self._totals.get(category, _CategoryTotals()).core_bytes

    def transfers(self, category: str) -> int:
        """Number of transfers recorded under ``category``."""
        return self._totals.get(category, _CategoryTotals()).transfers

    def grand_total(self) -> float:
        """All bytes recorded across every category."""
        return sum(t.total_bytes for t in self._totals.values())

    def categories(self) -> list[str]:
        """Recorded category names, sorted."""
        return sorted(self._totals)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """A plain-dict copy for reports and assertions."""
        return {
            cat: {
                "total_bytes": t.total_bytes,
                "fabric_bytes": t.fabric_bytes,
                "core_bytes": t.core_bytes,
                "transfers": float(t.transfers),
            }
            for cat, t in self._totals.items()
        }

    def diff(self, earlier: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
        """Per-category deltas since an earlier :meth:`snapshot`."""
        current = self.snapshot()
        out: dict[str, dict[str, float]] = {}
        for cat, fields in current.items():
            base = earlier.get(cat, {})
            out[cat] = {k: v - base.get(k, 0.0) for k, v in fields.items()}
        return out
