"""The PRR model: eqs. (2)-(4) of the paper."""

import pytest
from hypothesis import given, strategies as st

from repro.phy.propagation import LogNormalShadowing
from repro.phy.prr import PrrModel, _standard_normal_cdf


def make_model(alpha=2.9, sigma=4.0, t_sir=4.0):
    return PrrModel(LogNormalShadowing(alpha=alpha, sigma_db=sigma), t_sir_db=t_sir)


class TestNormalCdfHelpers:
    def test_cdf_midpoint(self):
        assert _standard_normal_cdf(0.0) == pytest.approx(0.5)

    def test_cdf_known_value(self):
        assert _standard_normal_cdf(1.645) == pytest.approx(0.95, abs=1e-3)


class TestPrr:
    def test_equidistant_interferer(self):
        # d == r: PRR = 1 - Phi(T_SIR / (sqrt(2) sigma)).
        model = make_model(t_sir=4.0, sigma=4.0)
        assert model.prr(10.0, 10.0) == pytest.approx(
            1.0 - _standard_normal_cdf(4.0 / (2**0.5 * 4.0))
        )

    def test_far_interferer_gives_high_prr(self):
        model = make_model()
        assert model.prr(8.0, 100.0) > 0.99

    def test_near_interferer_gives_low_prr(self):
        model = make_model()
        assert model.prr(30.0, 3.0) < 0.05

    def test_no_shadowing_is_step_function(self):
        model = make_model(sigma=0.0, t_sir=10.0)
        # margin < 0 (interferer far enough) -> certain reception
        assert model.prr(10.0, 30.0) == 1.0
        # margin >= 0 -> certain corruption
        assert model.prr(10.0, 10.0) == 0.0

    def test_rejects_nonpositive_distances(self):
        # Negative distances are errors; a zero one (two nodes reporting
        # the same point) is floored at d0 = 1 m, like eq. 1's path loss.
        model = make_model()
        with pytest.raises(ValueError):
            model.prr(-1.0, 10.0)
        with pytest.raises(ValueError):
            model.prr(10.0, -1.0)
        assert model.prr(0.0, 10.0) == model.prr(1.0, 10.0)
        assert model.prr(10.0, 0.0) == model.prr(10.0, 1.0)
        assert model.prr(0.5, 0.0) == model.prr(1.0, 1.0)

    @given(st.floats(min_value=1.0, max_value=200.0),
           st.floats(min_value=1.0, max_value=200.0),
           st.floats(min_value=1.0, max_value=200.0))
    def test_monotone_in_interferer_distance(self, d, r1, r2):
        model = make_model()
        lo, hi = sorted((r1, r2))
        assert model.prr(d, lo) <= model.prr(d, hi) + 1e-12

    @given(st.floats(min_value=1.0, max_value=200.0),
           st.floats(min_value=1.0, max_value=200.0),
           st.floats(min_value=1.0, max_value=200.0))
    def test_monotone_in_link_distance(self, r, d1, d2):
        # Longer links are more fragile under the same interferer.
        model = make_model()
        lo, hi = sorted((d1, d2))
        assert model.prr(hi, r) <= model.prr(lo, r) + 1e-12

    @given(st.floats(min_value=1.0, max_value=200.0),
           st.floats(min_value=1.0, max_value=200.0))
    def test_bounded(self, d, r):
        assert 0.0 <= make_model().prr(d, r) <= 1.0


class TestCarrierSenseMiss:
    def test_close_neighbor_always_senses(self):
        model = make_model()
        assert model.carrier_sense_miss_probability(2.0, 0.0, -87.0) < 0.01

    def test_far_neighbor_rarely_senses(self):
        model = make_model()
        assert model.carrier_sense_miss_probability(200.0, 0.0, -87.0) > 0.99

    def test_no_shadowing_is_step(self):
        model = make_model(sigma=0.0)
        # mean rx at 10 m with 0 dBm, alpha 2.9 is ~ -69 dBm > -87: senses.
        assert model.carrier_sense_miss_probability(10.0, 0.0, -87.0) == 0.0
        assert model.carrier_sense_miss_probability(150.0, 0.0, -87.0) == 1.0

    @given(st.floats(min_value=1.0, max_value=500.0),
           st.floats(min_value=1.0, max_value=500.0))
    def test_monotone_increasing_in_distance(self, r1, r2):
        # The paper: "The relation between Pr{P_r < T_cs} and r is
        # monotonically increasing."
        model = make_model()
        lo, hi = sorted((r1, r2))
        a = model.carrier_sense_miss_probability(lo, 0.0, -87.0)
        b = model.carrier_sense_miss_probability(hi, 0.0, -87.0)
        assert a <= b + 1e-12

    def test_rejects_nonpositive_distance(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.carrier_sense_miss_probability(-1.0, 0.0, -87.0)
        assert model.carrier_sense_miss_probability(
            0.0, 0.0, -87.0
        ) == model.carrier_sense_miss_probability(1.0, 0.0, -87.0)
