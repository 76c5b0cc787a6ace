"""Concurrency validation (Section IV-C1, Fig. 4).

On detecting an ongoing transmission, a node with a frame pending checks
both directions of mutual impact using eq. (3):

1. *my impact on them* — link distance ``d1`` = ongoing sender→receiver,
   interferer distance ``r1`` = me→ongoing receiver;
2. *their impact on me* — link distance ``d2`` = me→my receiver,
   interferer distance ``r2`` = ongoing sender→my receiver.

The transmission may proceed concurrently only if **both** PRRs clear
:data:`T_PRR`.  All distances come from *reported* positions in the neighbor
table, which is how localization error enters the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.neighbor_table import NeighborTable
from repro.phy.prr import PrrModel


#: Table I's concurrency-validation threshold: both directions of the
#: mutual-impact test must keep the PRR at or above 95 %.
T_PRR = 0.95


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of one concurrency validation."""

    allowed: bool
    prr_theirs: float
    prr_mine: float
    reason: str


#: Result used when positions are missing — never transmit blind.  A
#: cache must not store it: the position may arrive later (a peer that
#: re-joins after churn), and a first report invalidates nothing.
MISSING_POSITION = ValidationResult(
    False, 0.0, 0.0, "missing position information"
)


class ConcurrencyValidator:
    """Applies the two-sided eq. (3) test over a neighbor table."""

    def __init__(self, model: PrrModel) -> None:
        self.model = model

    def validate(
        self,
        table: NeighborTable,
        ongoing_src: int,
        ongoing_dst: int,
        me: int,
        my_dst: int,
    ) -> ValidationResult:
        """Run the mutual-impact test for one candidate concurrent link."""
        if me == ongoing_src or me == ongoing_dst:
            return ValidationResult(False, 0.0, 0.0, "I am part of the ongoing link")
        if my_dst in (ongoing_src, ongoing_dst):
            return ValidationResult(
                False, 0.0, 0.0, "my receiver is part of the ongoing link"
            )
        d1 = table.distance(ongoing_src, ongoing_dst)
        r1 = table.distance(me, ongoing_dst)
        d2 = table.distance(me, my_dst)
        r2 = table.distance(ongoing_src, my_dst)
        if None in (d1, r1, d2, r2):
            return MISSING_POSITION
        prr_theirs = self.model.prr(d1, r1)
        if prr_theirs < T_PRR:
            return ValidationResult(
                False, prr_theirs, 0.0, "my transmission would corrupt the ongoing link"
            )
        prr_mine = self.model.prr(d2, r2)
        if prr_mine < T_PRR:
            return ValidationResult(
                False,
                prr_theirs,
                prr_mine,
                "my receiver is too close to the ongoing transmitter",
            )
        return ValidationResult(True, prr_theirs, prr_mine, "concurrent transmission safe")

    def validate_multi(
        self,
        table: NeighborTable,
        ongoing_links,
        me: int,
        my_dst: int,
    ) -> ValidationResult:
        """Mutual-impact test against *several* ongoing links at once.

        Extends the paper's single-interferer analysis (its stated future
        work) with mean-power aggregation: my transmission must leave
        every ongoing receiver's PRR above ``T_PRR`` individually, while
        my own receiver must survive the *combined* interference of all
        ongoing transmitters (via
        :meth:`repro.phy.prr.PrrModel.prr_multi`).
        """
        links = list(ongoing_links)
        if not links:
            raise ValueError("at least one ongoing link is required")
        worst_theirs = 1.0
        interferer_distances = []
        for src, dst in links:
            if me in (src, dst) or my_dst in (src, dst):
                return ValidationResult(
                    False, 0.0, 0.0, "I or my receiver participate in an ongoing link"
                )
            d1 = table.distance(src, dst)
            r1 = table.distance(me, dst)
            r2 = table.distance(src, my_dst)
            if None in (d1, r1, r2):
                return MISSING_POSITION
            prr_theirs = self.model.prr(d1, r1)
            worst_theirs = min(worst_theirs, prr_theirs)
            if prr_theirs < T_PRR:
                return ValidationResult(
                    False, prr_theirs, 0.0,
                    "my transmission would corrupt an ongoing link",
                )
            interferer_distances.append(r2)
        d2 = table.distance(me, my_dst)
        if d2 is None:
            return MISSING_POSITION
        prr_mine = self.model.prr_multi(d2, interferer_distances)
        if prr_mine < T_PRR:
            return ValidationResult(
                False, worst_theirs, prr_mine,
                "combined ongoing interference would corrupt my receiver",
            )
        return ValidationResult(
            True, worst_theirs, prr_mine, "concurrent with all ongoing links"
        )
