"""Tests for ECDFs, heavy-tailed samplers and concentration measures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError
from repro.stats.distributions import (
    ECDF,
    fit_power_law_exponent,
    lorenz_curve,
    pareto_share,
    sample_lognormal,
    sample_power_law,
    sample_zipf_shares,
)


class TestECDF:
    def test_basic_evaluation(self):
        cdf = ECDF([1, 2, 3, 4])
        assert cdf.evaluate(0) == 0.0
        assert cdf.evaluate(2) == 0.5
        assert cdf.evaluate(4) == 1.0
        assert cdf.survival(2) == 0.5

    def test_quantile(self):
        cdf = ECDF(range(101))
        assert cdf.quantile(0.5) == pytest.approx(50)
        with pytest.raises(AnalysisError):
            cdf.quantile(1.5)

    def test_series_monotone(self):
        xs, ys = ECDF([3, 1, 2]).series()
        assert xs == [1, 2, 3]
        assert ys == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            ECDF([])

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200))
    def test_evaluate_bounded_and_monotone(self, sample):
        cdf = ECDF(sample)
        points = sorted(sample)
        values = [cdf.evaluate(x) for x in points]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestPowerLawSampling:
    def test_respects_bounds(self):
        rng = np.random.default_rng(1)
        sample = sample_power_law(rng, 5000, exponent=2.0, minimum=2.0, maximum=50.0)
        assert sample.min() >= 2.0
        assert sample.max() <= 50.0

    def test_unbounded_minimum(self):
        rng = np.random.default_rng(1)
        sample = sample_power_law(rng, 1000, exponent=2.5, minimum=1.0)
        assert sample.min() >= 1.0

    def test_zero_size(self):
        rng = np.random.default_rng(1)
        assert sample_power_law(rng, 0).size == 0

    def test_invalid_parameters(self):
        rng = np.random.default_rng(1)
        with pytest.raises(AnalysisError):
            sample_power_law(rng, 10, exponent=1.0)
        with pytest.raises(AnalysisError):
            sample_power_law(rng, 10, minimum=0)
        with pytest.raises(AnalysisError):
            sample_power_law(rng, 10, minimum=5, maximum=4)
        with pytest.raises(AnalysisError):
            sample_power_law(rng, -1)

    def test_fit_recovers_exponent(self):
        rng = np.random.default_rng(7)
        sample = sample_power_law(rng, 20000, exponent=2.5, minimum=1.0)
        fitted = fit_power_law_exponent(sample, minimum=1.0)
        assert 2.3 < fitted < 2.7

    def test_fit_rejects_empty(self):
        with pytest.raises(AnalysisError):
            fit_power_law_exponent([])
        with pytest.raises(AnalysisError):
            fit_power_law_exponent([1.0], minimum=5.0)

    def test_fit_rejects_a_tail_at_xmin(self):
        with pytest.raises(AnalysisError, match="equals xmin"):
            fit_power_law_exponent([2.0, 2.0, 2.0])


class TestLognormal:
    def test_median_close_to_target(self):
        rng = np.random.default_rng(3)
        sample = sample_lognormal(rng, 20000, median=10.0, sigma=1.0)
        assert 9.0 < float(np.median(sample)) < 11.0

    def test_invalid_parameters(self):
        rng = np.random.default_rng(3)
        with pytest.raises(AnalysisError):
            sample_lognormal(rng, 10, median=0, sigma=1)
        with pytest.raises(AnalysisError):
            sample_lognormal(rng, 10, median=1, sigma=0)


class TestZipfShares:
    def test_shares_sum_to_one_and_decrease(self):
        shares = sample_zipf_shares(50, exponent=1.2)
        assert shares.sum() == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(shares, shares[1:]))

    def test_invalid_size(self):
        with pytest.raises(AnalysisError):
            sample_zipf_shares(0)


class TestConcentration:
    def test_pareto_share_uniform(self):
        assert pareto_share([1] * 100, 0.10) == pytest.approx(0.10)

    def test_pareto_share_extreme(self):
        sample = [1000] + [1] * 99
        assert pareto_share(sample, 0.01) == pytest.approx(1000 / 1099)

    def test_pareto_share_invalid(self):
        with pytest.raises(AnalysisError):
            pareto_share([1, 2], 0.0)
        with pytest.raises(AnalysisError):
            pareto_share([], 0.5)

    def test_lorenz_curve_shape(self):
        xs, ys = lorenz_curve([1, 1, 1, 1])
        assert xs[0] == 0.0 and xs[-1] == 1.0
        assert ys == pytest.approx(xs)

    def test_lorenz_rejects_negative(self):
        with pytest.raises(AnalysisError):
            lorenz_curve([-1, 2])

    @settings(max_examples=50)
    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=100))
    def test_pareto_share_monotone_in_fraction(self, sample):
        small = pareto_share(sample, 0.1)
        large = pareto_share(sample, 0.5)
        assert 0.0 <= small <= large <= 1.0
