"""Bit-rate adaptation policies.

The paper's testbed keeps the Linux default rate controller, Minstrel,
enabled "to verify the effectiveness of CO-MAP under real bitrate
conditions", and argues CO-MAP is *complementary* to rate adaptation
(Fig. 8's rising tail).  :class:`MinstrelLite` is a compact
sample-and-hold reimplementation of Minstrel's core loop: per-destination
EWMA success probability per rate, throughput-ordered selection, and a
fixed fraction of probe frames.

:class:`FixedRate` pins one rate — used by the NS-2-style experiments
(Table I fixes 6 Mbps) and by the analytical-model validation.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

import numpy as np

from repro.phy.rates import Rate, RateTable


class RatePolicy(Protocol):
    """Interface the MAC uses to pick data rates and report outcomes."""

    def select(self, dst: int) -> Rate:
        """Choose the data rate for the next attempt to ``dst``."""
        ...

    def report(self, dst: int, success: bool) -> None:
        """Feed back the ACK outcome of the last attempt to ``dst``."""
        ...


class FixedRate:
    """Always use one configured rate."""

    def __init__(self, rate: Rate) -> None:
        self.rate = rate

    def select(self, dst: int) -> Rate:
        return self.rate

    def report(self, dst: int, success: bool) -> None:
        """Fixed policy ignores feedback."""


class _DstState:
    """Per-destination Minstrel statistics."""

    __slots__ = ("ewma_prob", "attempts", "last_rate_index")

    def __init__(self, n_rates: int) -> None:
        # Optimistic start so every rate gets tried before being ruled out.
        self.ewma_prob = [1.0] * n_rates
        self.attempts = [0] * n_rates
        self.last_rate_index = 0


class MinstrelLite:
    """A compact Minstrel-style sampling rate controller.

    Parameters
    ----------
    rates:
        The table to walk.
    rngs / node_id:
        Deterministic probe-choice randomness.
    ewma_weight:
        Weight of the newest observation (Minstrel uses ~25 %).
    probe_fraction:
        Fraction of attempts spent sampling a non-best rate (~10 %).
    """

    def __init__(
        self,
        rates: RateTable,
        rng: np.random.Generator,
        ewma_weight: float = 0.25,
        probe_fraction: float = 0.1,
    ) -> None:
        if not 0.0 < ewma_weight <= 1.0:
            raise ValueError("ewma_weight must lie in (0, 1]")
        if not 0.0 <= probe_fraction < 1.0:
            raise ValueError("probe_fraction must lie in [0, 1)")
        self.rates = rates
        self._rng = rng
        self.ewma_weight = ewma_weight
        self.probe_fraction = probe_fraction
        self._per_dst: Dict[int, _DstState] = {}

    def _state(self, dst: int) -> _DstState:
        state = self._per_dst.get(dst)
        if state is None:
            state = _DstState(len(self.rates))
            self._per_dst[dst] = state
        return state

    def best_index(self, dst: int) -> int:
        """Index of the estimated-throughput-maximizing rate for ``dst``.

        On a tie the slowest of the tied rates (the first maximum) wins.
        """
        state = self._state(dst)
        throughputs = [
            state.ewma_prob[i] * rate.bps for i, rate in enumerate(self.rates.rates)
        ]
        return max(range(len(throughputs)), key=throughputs.__getitem__)

    def select(self, dst: int) -> Rate:
        """Pick the best-throughput rate, probing occasionally."""
        state = self._state(dst)
        best = self.best_index(dst)
        index = best
        if len(self.rates) > 1 and self._rng.random() < self.probe_fraction:
            others = [i for i in range(len(self.rates)) if i != best]
            index = int(self._rng.choice(others))
        state.last_rate_index = index
        state.attempts[index] += 1
        return self.rates.rates[index]

    def report(self, dst: int, success: bool) -> None:
        """EWMA update of the success probability of the last-used rate."""
        state = self._state(dst)
        i = state.last_rate_index
        observation = 1.0 if success else 0.0
        state.ewma_prob[i] += self.ewma_weight * (observation - state.ewma_prob[i])
