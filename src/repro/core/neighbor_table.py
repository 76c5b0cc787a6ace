"""The neighbor table (Fig. 3): per-neighbor position knowledge.

Each node reports its position to its associated AP; APs redistribute the
positions of nearby participants, so every node ends up knowing the
(possibly imperfect) coordinates of its neighbors within two hops.  The
table stores what *this* node currently believes, including when each
entry was last refreshed, which :meth:`NeighborTable.is_fresh` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.util.geometry import Point


@dataclass
class NeighborEntry:
    """One row of the neighbor table."""

    node_id: int
    position: Point
    is_ap: bool = False
    associated_ap: Optional[int] = None
    updated_at: int = 0


class NeighborTable:
    """Position knowledge of one node about its 2-hop neighborhood."""

    def __init__(self, owner_id: int) -> None:
        self.owner_id = owner_id
        self._entries: Dict[int, NeighborEntry] = {}

    def update(
        self,
        node_id: int,
        position: Point,
        is_ap: bool = False,
        associated_ap: Optional[int] = None,
        now: int = 0,
    ) -> NeighborEntry:
        """Insert or refresh a neighbor's entry; returns the stored row.

        Updating the owner's own row is allowed — a node keeps its own
        (localization-estimated) position in the same structure, since all
        distance computations must use the *reported* coordinates, not
        ground truth.
        """
        entry = NeighborEntry(
            node_id=node_id,
            position=position,
            is_ap=is_ap,
            associated_ap=associated_ap,
            updated_at=now,
        )
        self._entries[node_id] = entry
        return entry

    def get(self, node_id: int) -> Optional[NeighborEntry]:
        """Return the entry for ``node_id`` or None if unknown."""
        return self._entries.get(node_id)

    def position_of(self, node_id: int) -> Optional[Point]:
        """Reported position of a node, or None if unknown."""
        entry = self._entries.get(node_id)
        return entry.position if entry is not None else None

    def distance(self, a: int, b: int) -> Optional[float]:
        """Distance between two known nodes, or None if either is unknown."""
        pa, pb = self.position_of(a), self.position_of(b)
        if pa is None or pb is None:
            return None
        return pa.distance_to(pb)

    def is_fresh(self, node_id: int, now: int, ttl_ns: Optional[int]) -> bool:
        """True when the entry exists and is within ``ttl_ns``.

        A ``None`` TTL means freshness is not tracked: any present entry
        counts as fresh (the pre-staleness behavior).
        """
        entry = self._entries.get(node_id)
        if entry is None:
            return False
        if ttl_ns is None:
            return True
        return now - entry.updated_at <= ttl_ns

    def remove(self, node_id: int) -> bool:
        """Drop an entry (e.g. node left the network).  Returns True if present."""
        return self._entries.pop(node_id, None) is not None

    def neighbors(self, exclude_self: bool = True) -> List[NeighborEntry]:
        """All entries, optionally omitting the owner's own row."""
        rows = self._entries.values()
        if exclude_self:
            return [e for e in rows if e.node_id != self.owner_id]
        return list(rows)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[NeighborEntry]:
        return iter(self._entries.values())

    def render(self) -> str:
        """Human-readable table, mirroring Fig. 3's illustration."""
        lines = [f"Neighbor table of node {self.owner_id}", "Neighbor      X        Y"]
        for e in sorted(self._entries.values(), key=lambda r: r.node_id):
            tag = " (AP)" if e.is_ap else ""
            lines.append(f"{e.node_id:>8d}{tag:5s} {e.position.x:8.1f} {e.position.y:8.1f}")
        return "\n".join(lines)
