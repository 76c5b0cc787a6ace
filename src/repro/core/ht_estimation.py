"""Hidden-terminal and contender counting (Section IV-D1).

For a link S→R the hidden terminals are the nodes located *inside the
interference range of the link* and *outside the carrier-sense range of
S*.  With positions in hand this becomes two probabilistic tests:

* **interferer test** — eq. (3): a neighbor whose concurrent transmission
  would drop the link's PRR below a floor;
* **hidden test** — eq. (4): the probability that the neighbor's received
  power from S stays under ``T_cs`` exceeds 0.9.

Interferers that *can* sense S (eq. 4 probability <= threshold) are
*contenders* — they share the channel via CSMA rather than colliding
blindly.  Both counts feed the analytical model's ``(h, c)`` lookup for
packet-size/CW adaptation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.core.neighbor_table import NeighborTable
from repro.phy.prr import PrrModel


class InterferenceClass(enum.Enum):
    """How a neighbor relates to a given link."""

    HIDDEN = "hidden"
    CONTENDER = "contender"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class NeighborRole:
    """Classification of one neighbor with the evidence that produced it."""

    node_id: int
    klass: InterferenceClass
    prr_under_interference: float
    cs_miss_probability: float


class HtEstimator:
    """Classifies a node's neighbors relative to one of its links.

    The default thresholds are the ones every CO-MAP agent runs: a
    neighbor is hidden when its eq. (4) miss probability exceeds 0.9 (the
    paper's value), and it interferes when it would push the link's PRR
    below 0.5.
    """

    def __init__(
        self,
        model: PrrModel,
        tx_power_dbm: float,
        t_cs_dbm: float,
        hidden_prob_threshold: float = 0.9,
        interference_prr_floor: float = 0.5,
    ) -> None:
        self.model = model
        self.tx_power_dbm = tx_power_dbm
        self.t_cs_dbm = t_cs_dbm
        self.hidden_prob_threshold = hidden_prob_threshold
        self.interference_prr_floor = interference_prr_floor

    def classify(
        self, table: NeighborTable, sender: int, receiver: int
    ) -> List[NeighborRole]:
        """Classify every known neighbor relative to the link sender→receiver."""
        d_link = table.distance(sender, receiver)
        if d_link is None:
            return []
        roles: List[NeighborRole] = []
        for entry in table.neighbors():
            if entry.node_id in (sender, receiver):
                continue
            r_interferer = table.distance(entry.node_id, receiver)
            r_sense = table.distance(sender, entry.node_id)
            if r_interferer is None or r_sense is None:
                continue
            prr = self.model.prr(d_link, r_interferer)
            miss = self.model.carrier_sense_miss_probability(
                r_sense, self.tx_power_dbm, self.t_cs_dbm
            )
            if miss <= self.hidden_prob_threshold:
                # The neighbor (usually) hears the sender: it contends.
                klass = InterferenceClass.CONTENDER
            elif prr < self.interference_prr_floor:
                # Cannot sense us but would corrupt our receiver: hidden.
                klass = InterferenceClass.HIDDEN
            else:
                klass = InterferenceClass.INDEPENDENT
            roles.append(
                NeighborRole(
                    node_id=entry.node_id,
                    klass=klass,
                    prr_under_interference=prr,
                    cs_miss_probability=miss,
                )
            )
        return roles

    def counts(self, table: NeighborTable, sender: int, receiver: int) -> Dict[str, int]:
        """Return ``{"hidden": N_ht, "contenders": c, "independent": n}``."""
        tally = {"hidden": 0, "contenders": 0, "independent": 0}
        for role in self.classify(table, sender, receiver):
            if role.klass is InterferenceClass.HIDDEN:
                tally["hidden"] += 1
            elif role.klass is InterferenceClass.CONTENDER:
                tally["contenders"] += 1
            else:
                tally["independent"] += 1
        return tally

    def hidden_terminals(
        self, table: NeighborTable, sender: int, receiver: int
    ) -> List[int]:
        """Node ids of the link's hidden terminals."""
        return [
            role.node_id
            for role in self.classify(table, sender, receiver)
            if role.klass is InterferenceClass.HIDDEN
        ]
