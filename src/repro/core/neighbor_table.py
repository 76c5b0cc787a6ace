"""The neighbor table (Fig. 3): the reported positions of one band.

Each node reports its position to its associated AP; APs redistribute the
positions of nearby participants, so every node ends up knowing the same
(possibly imperfect) coordinates of its neighbors within two hops.  One
table per band holds them for all of the band's agents, and records when
each row was last refreshed, which :meth:`NeighborTable.is_fresh` checks.
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
    """One band's reported positions; the only writer of its rows."""

    def __init__(self) -> None:
        self._entries: Dict[int, NeighborEntry] = {}
        self._readers: list = []

    def join(self, agent) -> None:
        """Tell ``agent`` of every later write, so it can drop what it derived."""
        self._readers.append(agent)

    def update(
        self,
        node_id: int,
        position: Point,
        is_ap: bool = False,
        associated_ap: Optional[int] = None,
        now: int = 0,
    ) -> bool:
        """Insert or refresh a node's row; True if it added or moved one.

        Every reader observes a write that adds the row or changes its
        position, AP flag or association, told whether a known position
        changed.  Any other write is a keep-alive: only the row's
        freshness changes, and nothing a reader derives (verdicts,
        announcement decisions) depends on freshness, so no reader is
        told.  A node's own row lives here too: all distance computations
        must use the *reported* coordinates, not ground truth.
        """
        previous = self._entries.get(node_id)
        self._entries[node_id] = NeighborEntry(
            node_id=node_id,
            position=position,
            is_ap=is_ap,
            associated_ap=associated_ap,
            updated_at=now,
        )
        moved = previous is not None and previous.position != position
        if (
            previous is not None
            and not moved
            and previous.is_ap == is_ap
            and previous.associated_ap == associated_ap
        ):
            return False  # a keep-alive
        for reader in self._readers:
            reader.observe_neighbor(node_id, moved)
        return previous is None or moved

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
        """Drop a node's row (it left) and tell every reader; True if present."""
        if self._entries.pop(node_id, None) is None:
            return False
        for reader in self._readers:
            reader.forget_neighbor(node_id)
        return True

    def neighbors(self) -> List[NeighborEntry]:
        """Every row, the reader's own included."""
        return list(self._entries.values())

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[NeighborEntry]:
        return iter(self._entries.values())

    def render(self, viewer: int) -> str:
        """Human-readable table as ``viewer`` sees it, mirroring Fig. 3."""
        lines = [f"Neighbor table of node {viewer}", "Neighbor      X        Y"]
        for e in sorted(self._entries.values(), key=lambda r: r.node_id):
            tag = " (AP)" if e.is_ap else ""
            lines.append(f"{e.node_id:>8d}{tag:5s} {e.position.x:8.1f} {e.position.y:8.1f}")
        return "\n".join(lines)
