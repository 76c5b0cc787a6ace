"""Log-normal shadowing propagation model (eq. 1)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.phy.propagation import FreeSpaceReference, LogNormalShadowing


class TestFreeSpaceReference:
    def test_reference_loss_at_one_meter_2_4ghz(self):
        # 20 log10(4 pi f / c) at 2.4 GHz is ~40.05 dB.
        assert FreeSpaceReference().loss_db(1.0) == pytest.approx(40.05, abs=0.1)

    def test_loss_grows_20db_per_decade(self):
        ref = FreeSpaceReference()
        assert ref.loss_db(10.0) - ref.loss_db(1.0) == pytest.approx(20.0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            FreeSpaceReference().loss_db(0.0)


class TestLogNormalShadowing:
    def test_mean_rx_at_reference_distance(self):
        model = LogNormalShadowing(alpha=2.9, sigma_db=4.0)
        assert model.mean_rx_dbm(0.0, 1.0) == pytest.approx(-40.05, abs=0.1)

    def test_path_loss_slope_follows_alpha(self):
        model = LogNormalShadowing(alpha=3.3, sigma_db=5.0)
        delta = model.path_loss_db(100.0) - model.path_loss_db(10.0)
        assert delta == pytest.approx(33.0, abs=0.01)

    def test_testbed_numbers(self):
        # 0 dBm at 8 m in the paper's office (alpha=2.9): about -66.2 dBm.
        model = LogNormalShadowing(alpha=2.9, sigma_db=4.0)
        assert model.mean_rx_dbm(0.0, 8.0) == pytest.approx(-66.2, abs=0.3)

    def test_distances_below_reference_clamped(self):
        model = LogNormalShadowing(alpha=2.9, sigma_db=4.0)
        assert model.mean_rx_dbm(0.0, 0.2) == model.mean_rx_dbm(0.0, 1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LogNormalShadowing(alpha=0.0, sigma_db=4.0)
        with pytest.raises(ValueError):
            LogNormalShadowing(alpha=2.0, sigma_db=-1.0)
        with pytest.raises(ValueError):
            LogNormalShadowing(alpha=2.0, sigma_db=1.0, reference_distance_m=0.0)

    def test_sampling_without_sigma_is_deterministic(self):
        model = LogNormalShadowing(alpha=3.0, sigma_db=0.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert model.shadowing_db(rng) == 0.0
        assert rng.bit_generator.state == state

    def test_sampling_statistics_match_sigma(self):
        model = LogNormalShadowing(alpha=3.0, sigma_db=4.0)
        rng = np.random.default_rng(1)
        samples = [model.shadowing_db(rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(0.0, abs=0.3)
        assert np.std(samples) == pytest.approx(4.0, abs=0.3)

    @pytest.mark.parametrize("sigma_db", [0.0, 4.0, 5.0])
    def test_shadowing_block_equals_scalar_draws(self, sigma_db):
        # The blocks are exactly the scalar draws, in order, and leave the
        # generator where the scalar draws do (sigma 0: untouched).
        model = LogNormalShadowing(alpha=3.3, sigma_db=sigma_db)
        block_rng, scalar_rng = np.random.default_rng(9), np.random.default_rng(9)
        blocks = model.shadowing_block(block_rng, 16)
        blocks += model.shadowing_block(block_rng, 7)
        assert blocks == [model.shadowing_db(scalar_rng) for _ in range(23)]
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_range_for_rx_inverts_mean(self):
        model = LogNormalShadowing(alpha=3.3, sigma_db=5.0)
        r = model.range_for_rx_dbm(20.0, -80.0)
        assert model.mean_rx_dbm(20.0, r) == pytest.approx(-80.0, abs=1e-6)

    def test_ns2_carrier_sense_range(self):
        # 20 dBm, alpha=3.3, T_cs=-80 dBm: roughly 66 m.
        model = LogNormalShadowing(alpha=3.3, sigma_db=5.0)
        assert model.range_for_rx_dbm(20.0, -80.0) == pytest.approx(65.6, abs=1.0)

    @given(st.floats(min_value=1.0, max_value=500.0),
           st.floats(min_value=1.0, max_value=500.0))
    def test_mean_rx_monotone_decreasing(self, d1, d2):
        model = LogNormalShadowing(alpha=2.9, sigma_db=4.0)
        lo, hi = sorted((d1, d2))
        assert model.mean_rx_dbm(0.0, lo) >= model.mean_rx_dbm(0.0, hi)

    @given(st.floats(min_value=-10, max_value=30),
           st.floats(min_value=1.0, max_value=500.0))
    def test_tx_power_shifts_linearly(self, tx, d):
        model = LogNormalShadowing(alpha=3.0, sigma_db=2.0)
        assert model.mean_rx_dbm(tx, d) - model.mean_rx_dbm(0.0, d) == pytest.approx(tx)
