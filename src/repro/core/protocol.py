"""The CO-MAP agent: one node's complete control plane.

Composes the Fig. 5 pipeline (neighbor table → eq. 3 PRR test →
co-occurrence map), the hidden-terminal estimator and the adaptation
table behind a small API that the CO-MAP MAC queries at runtime (the
neighbor table is the band's; the agent keeps only what it derives):

* :meth:`CoMapAgent.concurrency_allowed` — "can I transmit to X while
  link (S, R) is on the air?", answered from the co-occurrence map when
  cached, from eq. (3) otherwise (and then cached, unless a position
  was missing);
* :meth:`CoMapAgent.choose_receiver` — for APs: pick a queued receiver
  that passes validation ("it may choose another receiver further away
  from the current transmitter and verify again");
* :meth:`CoMapAgent.link_counts` / :meth:`CoMapAgent.advised_settings` —
  the (h, c) estimate and the resulting optimal (CW, payload).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

from repro.analytical.optimizer import OptimalSetting
from repro.core.adaptation import AdaptationTable
from repro.core.co_occurrence import CoOccurrenceMap
from repro.core.concurrency import (
    MISSING_POSITION, ConcurrencyValidator, ValidationResult,
)
from repro.core.config import CoMapConfig
from repro.core.ht_estimation import HtEstimator
from repro.core.neighbor_table import NeighborTable
from repro.phy.prr import PrrModel
from repro.phy.propagation import LogNormalShadowing
from repro.util.geometry import Point

#: Section V's update rule: a node re-reports its position once it has
#: moved more than this far (m) from where it last reported — half of
#: the highest tolerable position inaccuracy.
POSITION_UPDATE_THRESHOLD_M = 5.0


class CoMapAgent:
    """Location-driven interference reasoning for one node."""

    def __init__(
        self,
        node_id: int,
        propagation: LogNormalShadowing,
        config: CoMapConfig,
        tx_power_dbm: float,
        t_cs_dbm: float,
        neighbor_table: NeighborTable,
        adaptation: Optional[AdaptationTable] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.model = PrrModel(propagation=propagation, t_sir_db=config.t_sir_db)
        self.neighbor_table = neighbor_table
        neighbor_table.join(self)
        self.co_map = CoOccurrenceMap(node_id)
        self.validator = ConcurrencyValidator(self.model)
        self.estimator = HtEstimator(
            model=self.model, tx_power_dbm=tx_power_dbm, t_cs_dbm=t_cs_dbm
        )
        self.adaptation = adaptation
        #: What this node's location service last produced for it (its
        #: *report*), or None before the first one.  Peers may have been
        #: told something else under a fault; only :meth:`mark_reported`
        #: writes this.
        self.reported_position: Optional[Point] = None
        #: Where the node was when it made that report: the movement rule
        #: measures from here, not from the (error-perturbed) report.
        self._reported_from: Optional[Point] = None
        self._announce_worthwhile: Dict[int, bool] = {}
        self.stale_denials = 0

    # ------------------------------------------------------------------
    # Location exchange
    # ------------------------------------------------------------------
    def observe_neighbor(self, node_id: int, moved: bool) -> None:
        """The band table added ``node_id``'s row or changed its position,
        AP flag or association (a keep-alive is not observed).

        A position change invalidates every co-occurrence verdict
        involving that node (all of them for this node's own) — the
        "rapid update" property that makes CO-MAP suitable for mobile
        WLANs.  A first report has nothing to invalidate: no verdict is
        stored while a position is missing (see :meth:`concurrency_allowed`).
        """
        self._announce_worthwhile.clear()
        if not moved:
            return
        if node_id == self.node_id:
            self.co_map.clear()
        else:
            self.co_map.invalidate_node(node_id)

    def should_report_move(self, current: Point) -> bool:
        """Mobility management (Section V): report only significant moves.

        A node re-reports its position only when it has moved more than
        :data:`POSITION_UPDATE_THRESHOLD_M` since its last report — a
        move of the node itself, measured between true positions, so
        localization error in the reports never triggers one.
        """
        if self._reported_from is None:
            return True
        moved = self._reported_from.distance_to(current)
        return moved > POSITION_UPDATE_THRESHOLD_M

    def mark_reported(self, report: Point, position: Point) -> None:
        """Record ``report`` as this node's report, made at ``position``."""
        self.reported_position = report
        self._reported_from = position

    def forget_neighbor(self, node_id: int) -> None:
        """The band table dropped ``node_id``'s row (the node left): drop
        what was derived from it, as for a move."""
        self.observe_neighbor(node_id, moved=True)

    def location_stale(self, now: int) -> bool:
        """Is this node's *own* location knowledge stale or absent?

        Governed by :attr:`CoMapConfig.location_ttl_ns`; with the TTL
        unset (the default) location input never goes stale, preserving
        pre-staleness behavior bit-for-bit.
        """
        ttl = self.config.location_ttl_ns
        if ttl is None:
            return False
        return not self.neighbor_table.is_fresh(self.node_id, now, ttl)

    def neighbor_stale(self, node_id: int, now: int) -> bool:
        """Is the stored position of ``node_id`` stale or absent?"""
        ttl = self.config.location_ttl_ns
        if ttl is None:
            return False
        return not self.neighbor_table.is_fresh(node_id, now, ttl)

    # ------------------------------------------------------------------
    # Exposed-terminal path
    # ------------------------------------------------------------------
    def concurrency_allowed(
        self,
        ongoing_src: int,
        ongoing_dst: int,
        my_dst: int,
        now: Optional[int] = None,
    ) -> bool:
        """Full lookup path: co-occurrence map, then eq. (3), then cache.

        Passing ``now`` activates the staleness check: if the position of
        any endpoint of the validation is stale (per
        :attr:`CoMapConfig.location_ttl_ns`) the answer is a conservative
        *deny* — not cached, counted in :attr:`stale_denials` — because
        eq. (3) computed from stale coordinates could green-light a
        transmission that now collides.  A deny for a *missing* position
        is not cached either: the peer's first report after it re-joins
        must be validated afresh, and a first report invalidates nothing.
        """
        if now is not None and self.config.location_ttl_ns is not None:
            for endpoint in (ongoing_src, ongoing_dst, self.node_id, my_dst):
                if self.neighbor_stale(endpoint, now):
                    self.stale_denials += 1
                    return False
        link = (ongoing_src, ongoing_dst)
        cached = self.co_map.query(link, my_dst)
        if cached is not None:
            return cached
        result = self.validate(ongoing_src, ongoing_dst, my_dst)
        if result is MISSING_POSITION:
            return False
        self.co_map.record(link, my_dst, result.allowed)
        return result.allowed

    def validate(
        self, ongoing_src: int, ongoing_dst: int, my_dst: int
    ) -> ValidationResult:
        """One eq. (3) validation over the band's neighbor table (uncached)."""
        return self.validator.validate(
            self.neighbor_table, ongoing_src, ongoing_dst, self.node_id, my_dst
        )

    def predicted_concurrent_sir_db(self, ongoing_src: int, my_dst: int) -> Optional[float]:
        """Expected SIR at my receiver while ``ongoing_src`` transmits.

        From eq. (1) with equal transmit powers the mean SIR is
        ``10 alpha log10(r2 / d2)`` (``d2`` = me→my receiver, ``r2`` =
        ongoing transmitter→my receiver).  Used to pick a safe data rate
        for an exposed concurrent transmission — "a higher data rate could
        be adapted if [the node] is located further away".
        Returns None when positions are missing.
        """
        d2 = self.neighbor_table.distance(self.node_id, my_dst)
        r2 = self.neighbor_table.distance(ongoing_src, my_dst)
        if d2 is None or r2 is None or d2 <= 0 or r2 <= 0:
            return None
        alpha = self.model.propagation.alpha
        return 10.0 * alpha * math.log10(r2 / d2)

    def announce_worthwhile(self, my_dst: int) -> bool:
        """Should transmissions to ``my_dst`` carry an announcement header?

        A header only helps if some neighbor could legally transmit
        concurrently with our link — i.e. there exists a neighbor ``n``
        (with its own receiver) for which the two-sided eq. (3) test
        passes against the ongoing link (me → my_dst).  When positions
        rule that out for every neighbor, the header is pure overhead and
        is suppressed.  Results are cached and invalidated on any
        position update.
        """
        cached = self._announce_worthwhile.get(my_dst)
        if cached is not None:
            return cached
        worthwhile = False
        table = self.neighbor_table
        for entry in table.neighbors():
            n = entry.node_id
            if n in (self.node_id, my_dst):
                continue
            receivers = self._plausible_receivers(entry)
            for n_dst in receivers:
                result = self.validator.validate(
                    table, ongoing_src=self.node_id, ongoing_dst=my_dst,
                    me=n, my_dst=n_dst,
                )
                if result.allowed:
                    worthwhile = True
                    break
            if worthwhile:
                break
        self._announce_worthwhile[my_dst] = worthwhile
        return worthwhile

    def _plausible_receivers(self, entry) -> list:
        """Receivers a neighbor would realistically transmit to."""
        if not entry.is_ap:
            return [entry.associated_ap] if entry.associated_ap is not None else []
        clients = [
            e.node_id
            for e in self.neighbor_table.neighbors()
            if e.associated_ap == entry.node_id and e.node_id != self.node_id
        ]
        if clients:
            return clients
        # A clientless AP is a mesh station: its peers are the plausible
        # receivers (the paper's conclusion applies CO-MAP to mesh
        # networks where "the locations of mesh stations are prior
        # knowledge").
        return [
            e.node_id
            for e in self.neighbor_table.neighbors()
            if e.is_ap and e.node_id != entry.node_id
        ]

    def choose_receiver(
        self, candidates: Iterable[int], ongoing_src: int, ongoing_dst: int
    ) -> Optional[int]:
        """First candidate receiver that passes concurrency validation."""
        for dst in candidates:
            if self.concurrency_allowed(ongoing_src, ongoing_dst, dst):
                return dst
        return None

    def concurrency_allowed_multi(self, ongoing_links, my_dst: int) -> bool:
        """Joint validation against several simultaneous ongoing links.

        The paper defers multi-interferer aggregation to future work;
        this extension checks each ongoing receiver individually and my
        own receiver against the power-summed interference (not cached —
        link combinations are too numerous for the co-occurrence map).
        """
        result = self.validator.validate_multi(
            self.neighbor_table, ongoing_links, self.node_id, my_dst
        )
        return result.allowed

    # ------------------------------------------------------------------
    # Hidden-terminal path
    # ------------------------------------------------------------------
    def link_counts(self, receiver: int) -> Tuple[int, int]:
        """``(N_ht, c)`` for the link from this node to ``receiver``."""
        counts = self.estimator.counts(self.neighbor_table, self.node_id, receiver)
        return counts["hidden"], counts["contenders"]

    def hidden_terminals(self, receiver: int):
        """Node ids classified as HTs of the link to ``receiver``."""
        return self.estimator.hidden_terminals(
            self.neighbor_table, self.node_id, receiver
        )

    def advised_settings(self, receiver: int) -> Optional[OptimalSetting]:
        """Optimal (CW, payload) for the current (h, c) estimate.

        Returns None when no adaptation table was configured.
        """
        if self.adaptation is None:
            return None
        hidden, contenders = self.link_counts(receiver)
        return self.adaptation.best_settings(hidden, contenders)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line dump of the Fig. 5 pipeline state."""
        table = self.neighbor_table.render(self.node_id)
        return "\n\n".join([table, self.co_map.render()])
