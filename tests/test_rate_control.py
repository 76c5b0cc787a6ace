"""Rate adaptation policies."""

import numpy as np
import pytest

from repro.mac.rate_control import FixedRate, MinstrelLite
from repro.phy.rates import OFDM_RATES


class TestFixedRate:
    def test_always_returns_configured_rate(self):
        policy = FixedRate(OFDM_RATES.top)
        assert policy.select(1) is OFDM_RATES.top
        policy.report(1, success=False)
        assert policy.select(1) is OFDM_RATES.top


def make_minstrel(probe=0.1, seed=0):
    return MinstrelLite(OFDM_RATES, np.random.default_rng(seed), probe_fraction=probe)


class TestMinstrelLite:
    def test_initially_optimistic_picks_top(self):
        policy = make_minstrel(probe=0.0)
        assert policy.select(1) is OFDM_RATES.top

    def test_failures_drive_rate_down(self):
        policy = make_minstrel(probe=0.0)
        for _ in range(40):
            rate = policy.select(1)
            policy.report(1, success=rate.bps <= 12_000_000)
        assert policy.select(1).bps <= 12_000_000

    def test_per_destination_state_is_independent(self):
        policy = make_minstrel(probe=0.0)
        for _ in range(40):
            policy.select(1)
            policy.report(1, success=False)
        # Destination 2 is untouched and still optimistic.
        assert policy.select(2) is OFDM_RATES.top

    def test_probing_explores_other_rates(self):
        policy = make_minstrel(probe=0.5, seed=3)
        chosen = {policy.select(1).bps for _ in range(100)}
        assert len(chosen) > 1

    def test_recovery_after_channel_improves(self):
        policy = make_minstrel(probe=0.3, seed=5)
        for _ in range(60):
            policy.select(1)
            policy.report(1, success=False)
        for _ in range(300):
            policy.select(1)
            policy.report(1, success=True)
        assert policy.best_index(1) == len(OFDM_RATES) - 1

    def test_ties_go_to_the_first_maximum(self):
        # 12 Mb/s at p=1 and 24 Mb/s at p=0.5 both estimate 12 Mb/s: the
        # slower rate, the first maximum, wins.
        policy = make_minstrel(probe=0.0)
        state = policy._state(1)
        bps = [rate.bps for rate in OFDM_RATES.rates]
        state.ewma_prob = [0.0] * len(bps)
        state.ewma_prob[bps.index(12_000_000)] = 1.0
        state.ewma_prob[bps.index(24_000_000)] = 0.5
        assert policy.best_index(1) == bps.index(12_000_000)
        state.ewma_prob = [0.0] * len(bps)
        assert policy.best_index(1) == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MinstrelLite(OFDM_RATES, np.random.default_rng(0), ewma_weight=0.0)
        with pytest.raises(ValueError):
            MinstrelLite(OFDM_RATES, np.random.default_rng(0), probe_fraction=1.0)
