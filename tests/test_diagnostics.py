"""Tests for correlation time, ESS, acceptance rate and credible bands."""
import tracemalloc

import numpy as np
import pytest

from hessmc import diagnostics
from hessmc.diagnostics import (
    BandTails,
    ZeroVariance,
    correlation_time,
    credible_band,
    spatial_average,
    summarize_chain,
)


def autocorrelation(series, t):
    """Lag-t sample autocorrelation with biased (lag-0) normalization: the
    reference for the rho that correlation_time sums."""
    series = np.asarray(series, dtype=float)
    x = series - series.mean()
    denom = float(x @ x)
    if denom == 0.0 or np.all(series == series[0]):
        raise ZeroVariance("series has zero variance")
    n = x.shape[0]
    if not 0 <= t <= n - 1:
        raise ValueError(f"lag {t} out of range for series of length {n}")
    return float(x[: n - t] @ x[t:]) / denom


def ar1(phi, n, seed):
    """x_k = phi * x_{k-1} + eps_k from x_0 = 0."""
    eps = np.random.default_rng(seed).standard_normal(n)
    x = np.empty(n)
    x[0] = 0.0
    for k in range(1, n):
        x[k] = phi * x[k - 1] + eps[k]
    return x


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
        phi = 0.9
        x = ar1(phi, 100_000, 4)
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

    @pytest.mark.parametrize("phi, n", [(0.5, 400), (0.9, 2000), (0.99, 200)])
    def test_rho_is_the_autocorrelation_at_every_summed_lag(self, phi, n):
        # bit for bit; the sum stops before the first non-positive lag or at N/4
        x = ar1(phi, n, n) + 5.0
        tau, rho = correlation_time(x)
        lags = len(rho)
        assert lags > 0
        assert rho.tolist() == [autocorrelation(x, t) for t in range(1, lags + 1)]
        assert lags == n // 4 or autocorrelation(x, lags + 1) <= 0.0
        assert tau == 1.0 + sum(rho.tolist())


SERIES = np.random.default_rng(12).standard_normal(40)


class TestEffectiveSamples:
    def test_n_eff_is_n_over_tau(self):
        # the paper's convention, N / tau (25,000 / 176.77 = 141.4), on the
        # spatial average of a (N, dim) chain and on an (N,) series
        samples = np.cumsum(np.random.default_rng(13).standard_normal((2000, 3)), axis=0)
        for chain in (samples, spatial_average(samples)):
            d = summarize_chain(chain, np.ones(2000, dtype=bool))
            assert d.tau == correlation_time(spatial_average(samples))[0] > 10.0
            assert d.n_eff == 2000 / d.tau

    def test_unit_tau(self):
        x = np.array([1.0, -1.0] * 500)
        d = summarize_chain(x, np.ones(1000, dtype=bool))
        assert d.tau == 1.0 and d.n_eff == 1000


class TestAcceptanceRate:
    def test_all_true(self):
        assert summarize_chain(SERIES, np.array([True] * 5)).acceptance_rate == 1.0

    def test_half(self):
        flags = np.array([True, False, True, False])
        assert summarize_chain(SERIES, flags).acceptance_rate == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize_chain(SERIES, np.array([], dtype=bool))


class TestCredibleBand:
    @staticmethod
    def tied_rows(n):
        # chains repeat a row on each rejection, so the rows carry ties
        rng = np.random.default_rng(n)
        return rng.standard_normal((n, 64))[np.sort(rng.integers(0, n, n))]

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

    @pytest.mark.parametrize("n", [40, 400, 1000])
    @pytest.mark.parametrize("mass", [0.95, 0.5, 1.0])
    def test_equals_one_quantile_call_per_tail(self, n, mass):
        x = self.tied_rows(n)
        band = credible_band(x, mass)
        lo_q = (1.0 - mass) / 2.0
        lower = np.quantile(x, lo_q, axis=0, method="linear")
        upper = np.quantile(x, 1.0 - lo_q, axis=0, method="linear")
        assert band.lower.tobytes() == lower.tobytes()
        assert band.upper.tobytes() == upper.tobytes()

    @staticmethod
    def streamed(x, mass, size):
        # x's rows in blocks of size, merged into the band's tails
        tails = BandTails(len(x), x.shape[1], mass)
        for start in range(0, len(x), size):
            tails.add(x[start : start + size])
        return tails

    @pytest.mark.parametrize("n", [2, 40, 1000])
    @pytest.mark.parametrize("mass", [0.5, 0.95, 1.0])
    def test_in_place_band_equals_the_copying_one(self, n, mass):
        # the tails, merged as blocks come, give the band of all rows, which
        # credible_band takes on its own copy
        x = self.tied_rows(n)
        band = credible_band(x, mass)
        tracemalloc.start()
        try:
            tails = self.streamed(x, mass, 128)
            merge_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            streamed = credible_band(tails, mass)
            band_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streamed.lower.tobytes() == band.lower.tobytes()
        assert streamed.upper.tobytes() == band.upper.tobytes()
        # no copy of the rows or room for a block: the tails, one merge of at
        # most diagnostics._MERGE_VALUES values and small objects (3.6 KB with
        # numpy 2.4 on Python 3.11); then no copy of the tails, which are read
        # sorted
        tails_bytes = min(n, tails.low + tails.high) * x.shape[1] * 8
        assert merge_peak < tails_bytes + diagnostics._MERGE_VALUES * 8 + 6 * 1024
        assert band_peak < tails_bytes + 16 * 1024

    @pytest.mark.parametrize("n", [2, 40, 1000])
    def test_caller_array_left_unchanged(self, n):
        x = self.tied_rows(n)
        before = x.tobytes()
        credible_band(x, 0.95)
        credible_band(x[:, 0], 0.5)
        tails = self.streamed(x, 0.95, 7)
        kept = tails._cols.tobytes()
        credible_band(tails, 0.95)
        assert x.tobytes() == before
        assert tails._cols.tobytes() == kept

    def test_tails_are_all_the_band_reads(self):
        # 0.95 of 1,000: ranks 24 and 25 below, 974 and 975 above
        tails = BandTails(1000, 3, 0.95)
        assert (tails.low, tails.high) == (26, 26)
        # tails that cover every row keep them all, sorted per coordinate
        x = self.tied_rows(40)[:, :3]
        for size in (1, 7, 40):
            tails = self.streamed(x, 1e-9, size)
            assert (tails.low, tails.high) == (21, 21)
            assert tails._cols.tobytes() == np.sort(x.T, axis=1).tobytes()

    def test_too_many_rows_or_too_few_rejected(self):
        x = self.tied_rows(40)
        tails = self.streamed(x, 0.95, 40)
        kept = tails._cols.tobytes()
        tails.add(x[:0])  # no rows are not a row too many
        assert tails._cols.tobytes() == kept
        with pytest.raises(ValueError, match="40 rows in all"):
            tails.add(x[:1])
        short = BandTails(40, 64, 0.95)
        short.add(x[:39])
        with pytest.raises(ValueError, match="needs all 40 rows, not 39"):
            credible_band(short, 0.95)
        # tails kept for one mass do not hold the ranks of another
        with pytest.raises(ValueError, match="mass 0.95, not 0.9"):
            credible_band(tails, 0.9)

    def test_bad_rows_n_or_mass_rejected(self):
        # one column does not broadcast into three coordinates, even while
        # the rows still fit in the tails' buffer
        for rows in (np.arange(4.0)[:, None], np.arange(3.0), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match="rows of 3 values"):
                BandTails(100, 3, 0.95).add(rows)
        for n in (1, 0):
            with pytest.raises(ValueError, match="at least two"):
                BandTails(n, 3, 0.95)
        for mass in (1.5, 0.0, -0.5, np.nan):
            with pytest.raises(ValueError, match="mass must lie in"):
                BandTails(10, 1, mass)
        # credible_band makes these checks through its BandTails
        with pytest.raises(ValueError, match="at least two"):
            credible_band(np.array([1.0]), 0.95)
        with pytest.raises(ValueError, match="mass must lie in"):
            credible_band(np.arange(10.0), 1.5)

    @pytest.mark.parametrize("mass", [1.0, 0.2, 1e-9, 0.999999, 0.99999999999999, "random"])
    def test_streamed_band_is_numpy_quantile_bit_for_bit(self, mass):
        # n rows of d coordinates in blocks of every size from 1 to n; small
        # integers make ties (and no -0.0, which a sort may place either
        # side of 0.0)
        rng = np.random.default_rng(28)
        for trial in range(12):
            n = (2, 500)[trial] if trial < 2 else int(rng.integers(2, 501))
            d = int(rng.integers(1, 7))
            x = rng.integers(-3, 4, (n, d)).astype(float) if trial % 2 else rng.standard_normal((n, d))
            q = 1.0 - rng.uniform() if mass == "random" else mass  # in (0, 1]
            lo_q = (1.0 - q) / 2.0
            expected = np.quantile(x, [lo_q, 1.0 - lo_q], axis=0, method="linear").tobytes()
            for size in range(1, n + 1):
                band = credible_band(self.streamed(x, q, size), q)
                assert np.stack((band.lower, band.upper)).tobytes() == expected, (n, d, q, size)


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
