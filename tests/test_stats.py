"""Statistics helpers: empirical CDFs, fairness, gains."""

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import EmpiricalCdf, cdf_table, jain_fairness, mean_gain, summarize

samples_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


class TestEmpiricalCdf:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])

    def test_evaluate_endpoints(self):
        cdf = EmpiricalCdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(4.0) == 1.0
        assert cdf.evaluate(2.0) == 0.5

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
    def test_evaluate_is_monotone(self, samples):
        cdf = EmpiricalCdf(samples)
        lo, hi = min(samples), max(samples)
        assert cdf.evaluate(lo - 1) <= cdf.evaluate((lo + hi) / 2) <= cdf.evaluate(hi + 1)

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
    def test_bounds(self, values):
        f = jain_fairness(values)
        assert 0.0 <= f <= 1.0 + 1e-9


class TestMeanGain:
    def test_gain_of_77_percent(self):
        assert mean_gain([1.0, 1.0], [1.775, 1.775]) == pytest.approx(0.775)

    def test_negative_gain(self):
        assert mean_gain([2.0], [1.0]) == pytest.approx(-0.5)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            mean_gain([0.0], [1.0])

    def test_empty_inputs_rejected(self):
        # Regression: np.mean([]) is NaN, which sailed past the
        # positive-baseline check and returned NaN instead of raising.
        with pytest.raises(ValueError):
            mean_gain([], [])
        with pytest.raises(ValueError):
            mean_gain([1.0], [])
        with pytest.raises(ValueError):
            mean_gain([], [1.0])


class TestSummarize:
    def test_summary_fields(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.median == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCdfTable:
    def test_renders_all_labels(self):
        table = cdf_table({"a": [1, 2, 3], "b": [4, 5, 6]}, points=4)
        assert "a" in table and "b" in table
        assert len(table.splitlines()) == 5
