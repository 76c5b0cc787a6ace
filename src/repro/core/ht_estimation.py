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
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.neighbor_table import NeighborTable
from repro.phy.prr import PrrModel


class InterferenceClass(enum.Enum):
    """How a neighbor relates to a given link."""

    HIDDEN = "hidden"
    CONTENDER = "contender"
    INDEPENDENT = "independent"


#: The classes bound once as globals, as :mod:`repro.mac.dcf` binds its
#: states: before Python 3.12 an enum member read through its class takes
#: the metaclass's slow attribute hook.
_HIDDEN = InterferenceClass.HIDDEN
_CONTENDER = InterferenceClass.CONTENDER
_INDEPENDENT = InterferenceClass.INDEPENDENT


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

    def _roles(
        self, table: NeighborTable, sender: int, receiver: int, evidence: bool
    ) -> Iterator[Tuple[int, InterferenceClass, Optional[float], float]]:
        """``(node_id, class, prr, miss)`` per neighbor of the link sender→receiver.

        Eq. (4) decides first: a neighbor that (usually) senses the sender
        contends whatever its PRR, so eq. (3) is evaluated only for one
        that cannot, or for every neighbor when ``evidence`` asks for it
        (``prr`` is None otherwise).  Nothing is yielded unless both ends
        of the link have a row.
        """
        at_sender = table.position_of(sender)
        at_receiver = table.position_of(receiver)
        if at_sender is None or at_receiver is None:
            return
        d_link = at_sender.distance_to(at_receiver)
        miss_of = self.model.carrier_sense_miss_probability
        tx_power_dbm = self.tx_power_dbm
        t_cs_dbm = self.t_cs_dbm
        prr_of = self.model.prr
        hidden_prob = self.hidden_prob_threshold
        prr_floor = self.interference_prr_floor
        for entry in table.neighbors():
            node_id = entry.node_id
            if node_id == sender or node_id == receiver:
                continue
            position = entry.position
            miss = miss_of(at_sender.distance_to(position), tx_power_dbm, t_cs_dbm)
            prr = None
            if evidence or miss > hidden_prob:
                prr = prr_of(d_link, position.distance_to(at_receiver))
            if miss <= hidden_prob:
                # The neighbor (usually) hears the sender: it contends.
                klass = _CONTENDER
            elif prr < prr_floor:
                # Cannot sense us but would corrupt our receiver: hidden.
                klass = _HIDDEN
            else:
                klass = _INDEPENDENT
            yield node_id, klass, prr, miss

    def classify(
        self, table: NeighborTable, sender: int, receiver: int
    ) -> List[NeighborRole]:
        """Classify every known neighbor relative to the link sender→receiver."""
        return [
            NeighborRole(
                node_id=node_id,
                klass=klass,
                prr_under_interference=prr,
                cs_miss_probability=miss,
            )
            for node_id, klass, prr, miss in self._roles(
                table, sender, receiver, evidence=True
            )
        ]

    def counts(self, table: NeighborTable, sender: int, receiver: int) -> Dict[str, int]:
        """Return ``{"hidden": N_ht, "contenders": c, "independent": n}``.

        The tally of :meth:`classify`'s classes, without its evidence.
        """
        hidden = contenders = independent = 0
        for _, klass, _, _ in self._roles(table, sender, receiver, evidence=False):
            if klass is _HIDDEN:
                hidden += 1
            elif klass is _CONTENDER:
                contenders += 1
            else:
                independent += 1
        return {"hidden": hidden, "contenders": contenders, "independent": independent}

    def hidden_terminals(
        self, table: NeighborTable, sender: int, receiver: int
    ) -> List[int]:
        """Node ids of the link's hidden terminals."""
        return [
            role.node_id
            for role in self.classify(table, sender, receiver)
            if role.klass is InterferenceClass.HIDDEN
        ]
