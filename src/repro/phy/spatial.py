"""Uniform hash-grid spatial index: O(density) candidate generation.

The channel's candidate generator bounds the receiver sweep of each
receiver-table build by *local density* instead of population.  The
below-floor cull skips draws and events for receivers whose mean power
sits ``cull_margin_db`` below both thresholds, but a sweep over every
attached radio would still *visit* each one to run that test — O(N)
dict lookups and float compares per build, the asymptotic wall for
city-scale floors.  Radios hash into square grid cells keyed by
``(floor(x / cell), floor(y / cell))``, and a sender queries only the
cells overlapping the disk of its *reach radius* — the distance at which
the propagation mean provably falls ``cull_margin_db`` below the weakest
threshold on the channel (see
:meth:`repro.phy.propagation.LogNormalShadowing.reach_radius_m`).  With
culling off the radius is infinite and a query returns every member.

Soundness over tightness
------------------------

The grid is a *pre-filter*, never a decision procedure: every candidate
it returns still runs the exact scalar cull test, so the only
correctness requirement is that the query returns a **superset** of the
survivors.  That holds by construction — the reach radius is a sound
outer bound on the survivor disk, and the query visits the full cell
bounding box of that disk (corner cells included).  Per-node counters,
``rx_power_mw`` maps, and per-flow goodput are therefore those of a
sweep over every attached radio (culled links consume no RNG draws —
per-link substreams — so *not visiting* a culled link is
indistinguishable from visiting and skipping it).  The contract is
pinned by a brute-force oracle in ``tests/test_spatial.py``.

Maintenance is incremental through the channel's existing hooks:
``attach`` inserts, ``detach`` removes, ``on_radio_moved`` rehashes one
radio — all O(1).

Cell sizing is a pure performance knob (correctness never depends on
it): the channel sizes cells at the reach radius of the strongest
transmitter, clamped to the topology extent — a query then touches ~9
cells regardless of N, and a one-cell grid (floor smaller than the
reach radius) degrades gracefully to a sweep over every radio.
"""

from __future__ import annotations

from math import floor, inf
from typing import Dict, List, Set, Tuple

_CellKey = Tuple[int, int]

#: Relative pad on a query box: far above float64 rounding of the box
#: edges, far below any cell size that matters.
QUERY_SLACK = 1e-12


class SpatialIndex:
    """Uniform hash grid over point members keyed by integer id.

    Cells are created on first insert and dropped when emptied, so
    memory is O(members + non-empty cells) regardless of the coordinate
    range (city floors hash as cheaply as office floors).
    """

    __slots__ = ("cell_size_m", "_cell_of", "_cells")

    def __init__(self, cell_size_m: float) -> None:
        if not cell_size_m > 0.0:
            raise ValueError(f"cell size must be positive, got {cell_size_m}")
        self.cell_size_m = float(cell_size_m)
        self._cell_of: Dict[int, _CellKey] = {}
        self._cells: Dict[_CellKey, Set[int]] = {}

    def __len__(self) -> int:
        return len(self._cell_of)

    @property
    def cell_count(self) -> int:
        """Number of non-empty cells."""
        return len(self._cells)

    def __contains__(self, member_id: int) -> bool:
        return member_id in self._cell_of

    def _key(self, x: float, y: float) -> _CellKey:
        c = self.cell_size_m
        return (floor(x / c), floor(y / c))

    def add(self, member_id: int, x: float, y: float) -> None:
        """Insert a member; re-adding an existing id is an error."""
        if member_id in self._cell_of:
            raise ValueError(f"member {member_id} already indexed")
        key = self._key(x, y)
        self._cell_of[member_id] = key
        self._cells.setdefault(key, set()).add(member_id)

    def remove(self, member_id: int) -> None:
        """Drop a member; removing an unknown id is an error."""
        key = self._cell_of.pop(member_id, None)
        if key is None:
            raise ValueError(f"member {member_id} is not indexed")
        bucket = self._cells[key]
        bucket.discard(member_id)
        if not bucket:
            del self._cells[key]

    def move(self, member_id: int, x: float, y: float) -> None:
        """Rehash a member to its new position (no-op within its cell)."""
        old = self._cell_of.get(member_id)
        if old is None:
            raise ValueError(f"member {member_id} is not indexed")
        new = self._key(x, y)
        if new == old:
            return
        bucket = self._cells[old]
        bucket.discard(member_id)
        if not bucket:
            del self._cells[old]
        self._cell_of[member_id] = new
        self._cells.setdefault(new, set()).add(member_id)

    def query_disk(self, x: float, y: float, radius_m: float) -> List[int]:
        """Ids of all members in cells overlapping the disk (a superset).

        Visits the cell bounding box of the disk — members up to one
        cell diagonal outside the radius may be returned, and callers
        must re-test each candidate (the channel runs the exact cull
        check).  When the box spans more cells than exist, iterates the
        non-empty cells instead, so degenerate huge-radius queries cost
        O(non-empty cells), never O(box area); an infinite radius returns
        every member.  The box is padded by a relative
        :data:`QUERY_SLACK` so a member on the disk's rim is never lost to
        rounding in ``x - radius_m``.
        """
        if radius_m == inf:
            return list(self._cell_of)
        c = self.cell_size_m
        pad = QUERY_SLACK * (radius_m + abs(x) + abs(y))
        reach = radius_m + pad
        i0 = floor((x - reach) / c)
        i1 = floor((x + reach) / c)
        j0 = floor((y - reach) / c)
        j1 = floor((y + reach) / c)
        cells = self._cells
        out: List[int] = []
        if (i1 - i0 + 1) * (j1 - j0 + 1) <= len(cells):
            get = cells.get
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    bucket = get((i, j))
                    if bucket:
                        out.extend(bucket)
        else:
            for (i, j), bucket in cells.items():
                if i0 <= i <= i1 and j0 <= j <= j1:
                    out.extend(bucket)
        return out

    def members(self) -> Dict[int, _CellKey]:
        """Snapshot of every member's cell key (brute-force test oracle)."""
        return dict(self._cell_of)
