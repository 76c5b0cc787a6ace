"""Unit conversions: dBm/mW, dB/ratio, time constants."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.units import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    db_block_to_ratios,
    db_to_ratio,
    dbm_to_mw,
    mw_to_dbm,
    ns_to_s,
    ratio_to_db,
    s_to_ns,
)


class TestPowerConversions:
    def test_zero_dbm_is_one_milliwatt(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)

    def test_twenty_dbm_is_hundred_milliwatts(self):
        assert dbm_to_mw(20.0) == pytest.approx(100.0)

    def test_noise_floor_value(self):
        # The paper's -95 dBm noise floor.
        assert dbm_to_mw(-95.0) == pytest.approx(3.1623e-10, rel=1e-3)

    def test_mw_to_dbm_inverts(self):
        assert mw_to_dbm(1.0) == pytest.approx(0.0)
        assert mw_to_dbm(100.0) == pytest.approx(20.0)

    def test_mw_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mw_to_dbm(0.0)
        with pytest.raises(ValueError):
            mw_to_dbm(-1.0)

    @given(st.floats(min_value=-120.0, max_value=60.0))
    def test_round_trip_dbm(self, dbm):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-9)

    @given(st.floats(min_value=-120.0, max_value=60.0),
           st.floats(min_value=-120.0, max_value=60.0))
    def test_adding_in_linear_domain_exceeds_max(self, a, b):
        # Power sums must dominate each addend (physical sanity used by CCA).
        total = dbm_to_mw(a) + dbm_to_mw(b)
        assert total > dbm_to_mw(max(a, b)) * 0.999999


class TestRatioConversions:
    def test_three_db_is_factor_two(self):
        assert db_to_ratio(3.0103) == pytest.approx(2.0, rel=1e-4)

    def test_ratio_to_db_inverts(self):
        assert ratio_to_db(db_to_ratio(7.5)) == pytest.approx(7.5)

    @given(st.lists(st.floats(min_value=-300.0, max_value=300.0)))
    def test_block_is_db_to_ratio_of_each_level(self, levels):
        assert db_block_to_ratios(iter(levels)) == [db_to_ratio(x) for x in levels]

    def test_ratio_to_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ratio_to_db(0.0)


class TestTimeConstants:
    def test_constants_consistent(self):
        assert MICROSECOND == 1_000
        assert MILLISECOND == 1_000 * MICROSECOND
        assert SECOND == 1_000 * MILLISECOND

    def test_seconds_round_trip(self):
        assert ns_to_s(s_to_ns(1.5)) == pytest.approx(1.5)

    def test_s_to_ns_rounds(self):
        assert s_to_ns(1e-9) == 1
        assert s_to_ns(1.4e-9) == 1
        assert s_to_ns(1.6e-9) == 2

    @given(st.integers(min_value=0, max_value=10 * SECOND))
    def test_ns_round_trip_exact(self, ns):
        assert s_to_ns(ns_to_s(ns)) == ns
