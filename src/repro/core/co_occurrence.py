"""The co-occurrence map (Section IV-C2).

Each entry records one ongoing link ``(src, dst)`` together with the set
of receivers this node may transmit to concurrently with that link.  For
a client the set holds at most its associated AP; for an AP it can hold
several clients ("an entry of co-occurrence map contains one link and all
the potential receivers to which it can transmit concurrently").

The map starts empty and is built gradually as the network operates —
no off-line site survey — which is why lookups distinguish *unknown*
(``None``: compute via eq. 3 and insert) from *known-disallowed*
(``False``: stay silent without recomputing).

A verdict stays until a position report invalidates it (the peer or the
owner moved, see :meth:`CoOccurrenceMap.invalidate_node` and
:meth:`CoOccurrenceMap.clear`); the map itself never ages an entry out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

#: A directed link on the air: (source, destination).
Link = Tuple[int, int]


class CoOccurrenceMap:
    """Per-node cache of validated concurrent-transmission opportunities."""

    def __init__(self, owner_id: int) -> None:
        self.owner_id = owner_id
        # link -> the receivers whose verdict is allowed / denied.
        self._allowed: Dict[Link, Set[int]] = {}
        self._denied: Dict[Link, Set[int]] = {}

    def confidence(self, link: Link, my_dst: int) -> Optional[float]:
        """1.0 for a stored verdict, None if absent (verdicts never decay)."""
        for table in (self._allowed, self._denied):
            if my_dst in table.get(link, ()):
                return 1.0
        return None

    def query(self, link: Link, my_dst: int) -> Optional[bool]:
        """Can I transmit to ``my_dst`` while ``link`` is on the air?

        Returns True/False when previously validated, None when unknown.
        """
        for table, verdict in ((self._allowed, True), (self._denied, False)):
            receivers = table.get(link)
            if receivers is not None and my_dst in receivers:
                return verdict
        return None

    def record(self, link: Link, my_dst: int, allowed: bool) -> None:
        """Store the outcome of one concurrency validation."""
        bucket = self._allowed if allowed else self._denied
        other = self._denied if allowed else self._allowed
        # A revalidation may flip the verdict; never keep both.
        stale_side = other.get(link)
        if stale_side is not None:
            stale_side.discard(my_dst)
            if not stale_side:
                del other[link]
        bucket.setdefault(link, set()).add(my_dst)

    def concurrent_receivers(self, link: Link) -> List[int]:
        """All receivers validated as concurrency-safe with ``link``."""
        return sorted(self._allowed.get(link, ()))

    def invalidate_node(self, node_id: int) -> int:
        """Drop every entry that involves ``node_id`` (it moved or left)."""
        removed = 0
        for table in (self._allowed, self._denied):
            doomed = [link for link in table if node_id in link]
            for link in doomed:
                removed += len(table[link])
                del table[link]
            emptied = []
            for link, receivers in table.items():
                if node_id in receivers:
                    receivers.remove(node_id)
                    removed += 1
                    if not receivers:
                        emptied.append(link)
            for link in emptied:
                del table[link]
        return removed

    def clear(self) -> None:
        """Forget everything (the owner itself moved)."""
        self._allowed.clear()
        self._denied.clear()

    def corrupt(self, rng, flip_prob: float = 1.0) -> int:
        """Flip stored verdicts with ``flip_prob``; returns the flip count.

        Models a corrupted control-plane update: an *allowed* entry
        becomes *denied* and vice versa.  The iteration order is sorted,
        so the same ``rng`` state always corrupts the same entries.
        """
        moves = []
        for allowed, table in ((True, self._allowed), (False, self._denied)):
            for link in sorted(table):
                for my_dst in sorted(table[link]):
                    if flip_prob >= 1.0 or rng.random() < flip_prob:
                        moves.append((allowed, link, my_dst))
        for allowed, link, my_dst in moves:
            source = self._allowed if allowed else self._denied
            target = self._denied if allowed else self._allowed
            bucket = source[link]
            bucket.remove(my_dst)
            if not bucket:
                del source[link]
            target.setdefault(link, set()).add(my_dst)
        return len(moves)

    @property
    def entry_count(self) -> int:
        """Total number of (link, receiver) verdicts stored."""
        return sum(len(v) for v in self._allowed.values()) + sum(
            len(v) for v in self._denied.values()
        )

    def render(self) -> str:
        """Human-readable dump mirroring Fig. 5's co-occurrence map."""
        lines = [f"Co-occurrence map of node {self.owner_id}", "Source  Destination  My receivers"]
        for (src, dst), receivers in sorted(self._allowed.items()):
            lines.append(f"{src:>6d}  {dst:>11d}  {sorted(receivers)}")
        if not self._allowed:
            lines.append("(empty)")
        return "\n".join(lines)
