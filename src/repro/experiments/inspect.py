"""Interference-structure inspection of a built network.

The paper characterizes its large-scale topologies by interference
structure: "By statistics, in this network, 47.6 % links have at least
one ET and 19.4 % links have HTs."  This module computes those
statistics from a CO-MAP network's agents and renders per-link
classification tables — handy both for experiment reporting and for
debugging why a given topology does (not) benefit from CO-MAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.net.network import Network

Flow = Tuple[int, int]


@dataclass(frozen=True)
class LinkProfile:
    """Interference classification of one directed link."""

    src: int
    dst: int
    hidden_terminals: Tuple[int, ...]
    contenders: Tuple[int, ...]
    has_exposed_opportunity: bool

    @property
    def hidden_count(self) -> int:
        return len(self.hidden_terminals)

    @property
    def contender_count(self) -> int:
        return len(self.contenders)


@dataclass
class InterferenceSurvey:
    """Aggregate interference statistics over a set of links."""

    profiles: List[LinkProfile] = field(default_factory=list)

    @property
    def link_count(self) -> int:
        return len(self.profiles)

    @property
    def et_link_fraction(self) -> float:
        """Fraction of links with at least one exposed-terminal opportunity."""
        if not self.profiles:
            raise ValueError("survey is empty")
        return sum(p.has_exposed_opportunity for p in self.profiles) / len(self.profiles)

    @property
    def ht_link_fraction(self) -> float:
        """Fraction of links with at least one hidden terminal."""
        if not self.profiles:
            raise ValueError("survey is empty")
        return sum(p.hidden_count > 0 for p in self.profiles) / len(self.profiles)

    def render(self, names: Dict[int, str] = None) -> str:
        """Aligned per-link table plus the paper-style summary line."""
        names = names or {}

        def label(node_id: int) -> str:
            return names.get(node_id, str(node_id))

        lines = [f"{'link':>16}  {'HTs':>4} {'contenders':>11}  {'ET?':>4}"]
        for p in self.profiles:
            lines.append(
                f"{label(p.src):>7} -> {label(p.dst):<6} {p.hidden_count:>4} "
                f"{p.contender_count:>11}  {'yes' if p.has_exposed_opportunity else 'no':>4}"
            )
        lines.append(
            f"\n{self.et_link_fraction * 100:.1f}% links have at least one ET, "
            f"{self.ht_link_fraction * 100:.1f}% links have HTs "
            f"(paper's floor: 47.6% / 19.4%)"
        )
        return "\n".join(lines)


def survey_network(network: Network, flows: List[Flow]) -> InterferenceSurvey:
    """Classify every flow of a CO-MAP network.

    Requires ``mac_kind="comap"`` (the classification runs on the band's
    neighbor table, which only CO-MAP agents read).
    """
    survey = InterferenceSurvey()
    for src, dst in flows:
        node = network.nodes[src]
        agent = node.agent
        if agent is None:
            raise ValueError(
                "interference survey needs CO-MAP agents (mac_kind='comap')"
            )
        roles = agent.estimator.classify(agent.neighbor_table, src, dst)
        from repro.core.ht_estimation import InterferenceClass

        hidden = tuple(r.node_id for r in roles
                       if r.klass is InterferenceClass.HIDDEN)
        contenders = tuple(r.node_id for r in roles
                           if r.klass is InterferenceClass.CONTENDER)
        survey.profiles.append(
            LinkProfile(
                src=src,
                dst=dst,
                hidden_terminals=hidden,
                contenders=contenders,
                has_exposed_opportunity=agent.announce_worthwhile(dst),
            )
        )
    return survey
