"""Statistics helpers: empirical CDFs and fairness."""

import pytest
from hypothesis import example, given, strategies as st

from repro.util.stats import EmpiricalCdf, cdf_table, jain_fairness

samples_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


class TestEmpiricalCdf:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])

    def test_quantiles(self):
        cdf = EmpiricalCdf([10, 20, 30, 40])
        assert cdf.quantile(0.25) == 10
        assert cdf.quantile(0.5) == 20
        assert cdf.quantile(1.0) == 40
        assert cdf.median() == 20

    def test_quantile_bounds(self):
        cdf = EmpiricalCdf([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    @given(samples_strategy)
    def test_quantile_within_sample_range(self, samples):
        cdf = EmpiricalCdf(samples)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert min(samples) <= cdf.quantile(q) <= max(samples)

    @given(samples_strategy)
    def test_mean_matches_numpy(self, samples):
        import numpy as np

        assert EmpiricalCdf(samples).mean() == pytest.approx(float(np.mean(samples)))


class TestJainFairness:
    def test_perfect_fairness(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_total_unfairness(self):
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    def test_all_zero_defined(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30))
    @example([1.4221015801511683e-160] * 2)  # its squares are subnormal
    def test_bounds(self, values):
        f = jain_fairness(values)
        assert 0.0 <= f <= 1.0 + 1e-9


class TestCdfTable:
    def test_renders_all_labels(self):
        table = cdf_table({"a": [1, 2, 3], "b": [4, 5, 6]}, points=4)
        assert "a" in table and "b" in table
        assert len(table.splitlines()) == 5
