"""Rate tables and airtime arithmetic."""

import pytest

from repro.phy.rates import DSSS_RATES, OFDM_RATES, Rate, RateTable


class TestRate:
    def test_airtime_of_1000_bytes_at_6mbps(self):
        rate = OFDM_RATES.by_bps(6_000_000)
        # Integer nanoseconds, rounded from 1333333.33...
        assert rate.airtime_ns(1000) == round(1000 * 8 / 6e6 * 1e9)

    def test_airtime_zero_bytes(self):
        assert OFDM_RATES.base.airtime_ns(0) == 0

    def test_airtime_rejects_negative(self):
        with pytest.raises(ValueError):
            OFDM_RATES.base.airtime_ns(-1)

    def test_mbps_property(self):
        assert DSSS_RATES.by_bps(5_500_000).mbps == pytest.approx(5.5)


class TestRateTable:
    def test_ordering_slow_to_fast(self):
        bps = [r.bps for r in OFDM_RATES]
        assert bps == sorted(bps)

    def test_base_and_top(self):
        assert DSSS_RATES.base.bps == 1_000_000
        assert DSSS_RATES.top.bps == 11_000_000
        assert OFDM_RATES.base.bps == 6_000_000
        assert OFDM_RATES.top.bps == 54_000_000

    def test_by_bps_miss_raises(self):
        with pytest.raises(KeyError):
            OFDM_RATES.by_bps(7_000_000)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            RateTable([])

    def test_duplicate_rates_rejected(self):
        rate = Rate(bps=1_000_000, sir_threshold_db=4, sensitivity_dbm=-94)
        with pytest.raises(ValueError):
            RateTable([rate, rate])

    def test_paper_dsss_sir_span(self):
        # "normally 10 dB for 11 Mbps down to 4 dB for 1 Mbps".
        assert DSSS_RATES.base.sir_threshold_db == 4.0
        assert DSSS_RATES.top.sir_threshold_db == 10.0

    def test_thresholds_monotone_with_speed(self):
        for table in (DSSS_RATES, OFDM_RATES):
            thresholds = [r.sir_threshold_db for r in table]
            assert thresholds == sorted(thresholds)

    def test_sensitivities_monotone_with_speed(self):
        for table in (DSSS_RATES, OFDM_RATES):
            sens = [r.sensitivity_dbm for r in table]
            assert sens == sorted(sens)


class TestBestForSir:
    def test_high_sir_selects_top(self):
        assert OFDM_RATES.best_for_sir(40.0) is OFDM_RATES.top

    def test_low_sir_falls_back_to_base(self):
        assert OFDM_RATES.best_for_sir(-5.0) is OFDM_RATES.base

    def test_mid_sir_selects_fastest_satisfiable(self):
        rate = OFDM_RATES.best_for_sir(12.0)
        assert rate.bps == 18_000_000  # threshold 10.8, next one needs 17

    def test_exact_threshold_qualifies(self):
        rate = OFDM_RATES.best_for_sir(9.0)
        assert rate.bps == 12_000_000
