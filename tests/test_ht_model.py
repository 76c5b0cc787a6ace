"""The hidden-terminal goodput extension (eq. 9)."""

import pytest
from hypothesis import given, strategies as st

from repro.analytical.bianchi import BianchiSlotModel
from repro.analytical.ht_model import HtGoodputModel
from repro.mac.timing import OFDM_TIMING
from repro.phy.rates import OFDM_RATES


def make_model():
    return HtGoodputModel(
        BianchiSlotModel(OFDM_TIMING, OFDM_RATES.by_bps(6_000_000), OFDM_RATES.base)
    )


class TestHtPenalty:
    def test_no_hidden_matches_bianchi(self):
        model = make_model()
        assert model.goodput_bps(63, 5, 0, 1000) == pytest.approx(
            model.slot_model.goodput_bps(63, 5, 1000)
        )

    def test_hidden_terminals_reduce_goodput(self):
        model = make_model()
        g0 = model.goodput_bps(63, 5, 0, 1000)
        g3 = model.goodput_bps(63, 5, 3, 1000)
        g5 = model.goodput_bps(63, 5, 5, 1000)
        assert g0 > g3 > g5 > 0

    def test_breakdown_intermediates(self):
        b = make_model().breakdown(63, 5, 3, 1000)
        assert b.vulnerable_slots > 0
        assert 0 < b.p_success < 1
        assert b.goodput_bps > 0

    def test_negative_hidden_rejected(self):
        with pytest.raises(ValueError):
            make_model().goodput_bps(63, 5, -1, 1000)

    def test_max_window_best_with_many_hts(self):
        # "When the number of HTs increases, CW size should be set to the
        # maximum value" (homogeneous model).
        model = make_model()
        assert model.goodput_bps(1023, 5, 5, 1000) > model.goodput_bps(63, 5, 5, 1000)

    def test_interior_payload_optimum_with_many_hts(self):
        # "When the number of HTs is large, a small payload length should
        # be used": the payload curve must not be monotone increasing.
        model = make_model()
        payloads = list(range(100, 2001, 100))
        curve = [model.goodput_bps(1023, 5, 10, L) for L in payloads]
        best = payloads[curve.index(max(curve))]
        assert best < 2000


class TestDecoupledAttackers:
    def test_attacker_window_changes_survival(self):
        model = make_model()
        homogeneous = model.goodput_bps(1023, 0, 3, 1000)
        decoupled = model.goodput_bps(1023, 0, 3, 1000, attacker_window=32)
        assert homogeneous != decoupled

    def test_raising_own_window_does_not_slow_fixed_attackers(self):
        # With decoupled attackers, W=1023 loses its defensive value:
        # survival is identical, so the slower station only wastes time.
        model = make_model()
        b_small = model.breakdown(31, 0, 3, 1000, attacker_window=32)
        b_big = model.breakdown(1023, 0, 3, 1000, attacker_window=32)
        assert b_small.goodput_bps > b_big.goodput_bps

    def test_attacker_payload_fixes_their_cycle(self):
        model = make_model()
        a = model.goodput_bps(31, 0, 3, 1800, attacker_window=32, attacker_payload=1000)
        b = model.goodput_bps(31, 0, 3, 1800, attacker_window=32, attacker_payload=200)
        # Faster-cycling (small-frame) attackers hurt more.
        assert b < a

    def test_more_attackers_worse(self):
        model = make_model()
        g1 = model.goodput_bps(31, 0, 1, 1000, attacker_window=32)
        g5 = model.goodput_bps(31, 0, 5, 1000, attacker_window=32)
        assert g5 < g1

    @given(st.integers(min_value=0, max_value=8),
           st.sampled_from([31, 63, 255, 1023]),
           st.integers(min_value=100, max_value=2000))
    def test_survival_bounded(self, hidden, window, payload):
        b = make_model().breakdown(window, 2, hidden, payload, attacker_window=32)
        assert 0 <= b.p_success <= 1
