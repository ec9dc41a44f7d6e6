"""Tests for autocorrelation, correlation time, ESS and credible bands."""
import numpy as np
import pytest

from hessmc.diagnostics import (
    ZeroVariance,
    acceptance_rate,
    autocorrelation,
    correlation_time,
    credible_band,
    effective_samples,
    spatial_average,
    summarize_chain,
)


class TestSpatialAverage:
    def test_single_row(self):
        assert spatial_average(np.array([[2.0, 4.0]])) == pytest.approx([3.0])

    def test_constant_chain(self):
        s = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert np.allclose(spatial_average(s), 2.0)

    def test_row_mean(self):
        assert spatial_average(np.array([[1.0, 2, 3, 4, 5, 6]]))[0] == pytest.approx(3.5)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        assert autocorrelation(x, 0) == pytest.approx(1.0)

    def test_alternating(self):
        x = np.array([1.0, -1.0] * 500)
        assert autocorrelation(x, 1) == pytest.approx(-0.999, abs=1e-3)

    def test_iid_noise(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100_000)
        for t in range(1, 21):
            assert abs(autocorrelation(x, t)) < 0.02

    def test_constant_raises(self):
        with pytest.raises(ZeroVariance):
            autocorrelation(np.ones(50), 1)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        x = np.cumsum(rng.standard_normal(500))
        for t in (1, 3, 10):
            assert autocorrelation(3.0 * x + 7.0, t) == pytest.approx(
                autocorrelation(x, t), abs=1e-12
            )


class TestCorrelationTime:
    def test_iid(self):
        rng = np.random.default_rng(3)
        tau, _ = correlation_time(rng.standard_normal(100_000))
        assert 0.8 <= tau <= 1.3

    def test_ar1(self):
        rng = np.random.default_rng(4)
        phi = 0.9
        n = 100_000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.standard_normal(n)
        for k in range(1, n):
            x[k] = phi * x[k - 1] + eps[k]
        tau, rho = correlation_time(x)
        analytic = 1.0 + phi / (1.0 - phi)  # 10
        assert abs(tau - analytic) / analytic < 0.15
        assert np.all(rho > 0)

    def test_alternating_truncates_immediately(self):
        x = np.array([1.0, -1.0] * 200)
        tau, rho = correlation_time(x)
        assert tau == 1.0
        assert rho.size == 0

    def test_shuffled_chain_decorrelates(self):
        rng = np.random.default_rng(6)
        x = np.cumsum(rng.standard_normal(20_000))  # strongly correlated
        tau_corr, _ = correlation_time(x)
        assert tau_corr > 10
        shuffled = rng.permutation(x)
        tau_shuf, _ = correlation_time(shuffled)
        assert 0.8 <= tau_shuf <= 1.3

    # the mean of each of these but the first is off by an ulp
    @pytest.mark.parametrize("value, n", [(1.0, 50), (0.1, 300), (0.7, 50), (123.456, 40)])
    def test_any_constant_series_raises(self, value, n):
        with pytest.raises(ZeroVariance):
            correlation_time(np.full(n, value))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            correlation_time(np.arange(5.0))


class TestEffectiveSamples:
    def test_published_magnitudes(self):
        assert effective_samples(25_000, 176.77) == pytest.approx(141.4, abs=0.1)
        assert effective_samples(25_000, 123.41) == pytest.approx(202.6, abs=0.1)

    def test_unit_tau(self):
        assert effective_samples(1000, 1.0) == 1000


class TestAcceptanceRate:
    def test_all_true(self):
        assert acceptance_rate(np.array([True] * 5)) == 1.0

    def test_half(self):
        assert acceptance_rate(np.array([True, False, True, False])) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            acceptance_rate(np.array([], dtype=bool))


class TestCredibleBand:
    def test_full_mass_extremes(self):
        band = credible_band(np.array([1.0, 2.0, 3.0]), 1.0)
        assert band.lower[0] == 1.0
        assert band.upper[0] == 3.0

    def test_interpolated_ranks(self):
        band = credible_band(np.array([0.0, 10.0]), 0.5)
        assert band.lower[0] == pytest.approx(2.5)
        assert band.upper[0] == pytest.approx(7.5)

    def test_normal_quantiles(self):
        rng = np.random.default_rng(7)
        band = credible_band(rng.standard_normal(100_000), 0.95)
        assert abs(band.lower[0] + 1.959964) < 0.05
        assert abs(band.upper[0] - 1.959964) < 0.05

    def test_monotone_in_mass(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5000, 3))
        b1 = credible_band(x, 0.5)
        b2 = credible_band(x, 0.9)
        assert np.all(b2.lower <= b1.lower)
        assert np.all(b2.upper >= b1.upper)

    def test_elementwise_order(self):
        rng = np.random.default_rng(9)
        band = credible_band(rng.standard_normal((100, 4)), 0.8)
        assert np.all(band.lower <= band.upper)


class TestSummarizeChain:
    def test_bundle_invariants(self):
        rng = np.random.default_rng(10)
        samples = np.cumsum(rng.standard_normal((2000, 3)), axis=0) * 0.01 + rng.standard_normal((2000, 3))
        flags = rng.uniform(size=2000) < 0.7
        d = summarize_chain(samples, flags)
        assert 0.0 <= d.acceptance_rate <= 1.0
        assert d.tau >= 1.0
        assert d.n_eff <= 2000
        assert np.all(np.abs(d.rho) <= 1.0 + 1e-12)
