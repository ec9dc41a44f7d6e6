"""Chain-quality statistics: autocorrelation, correlation time, ESS, bands.

The correlation time follows the paper's tau = 1 + sum_t rho_t (no factor
of 2, unlike the textbook 1 + 2*sum). The sum is truncated by the
initial-positive-sequence rule (stop before the first non-positive rho_t)
with a hard ceiling of N/4 lags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ZeroVariance(Exception):
    """Series is constant; autocorrelation is undefined."""


@dataclass(frozen=True)
class ChainDiagnostics:
    acceptance_rate: float
    rho: np.ndarray
    tau: float
    n_eff: float


@dataclass(frozen=True)
class CredibleBand:
    lower: np.ndarray
    upper: np.ndarray


def spatial_average(samples: np.ndarray) -> np.ndarray:
    """Per-sample mean over coordinates: (N, dim) -> (N,)."""
    return np.asarray(samples, dtype=float).mean(axis=1)


def _centered(series: np.ndarray) -> tuple[np.ndarray, float]:
    series = np.asarray(series, dtype=float)
    x = series - series.mean()
    denom = float(x @ x)
    # the mean of equal values can be off by an ulp, leaving denom > 0
    if denom == 0.0 or np.all(series == series[0]):
        raise ZeroVariance("series has zero variance")
    return x, denom


def autocorrelation(series: np.ndarray, t: int) -> float:
    """Lag-t sample autocorrelation with biased (lag-0) normalization."""
    x, denom = _centered(series)
    n = x.shape[0]
    if not 0 <= t <= n - 1:
        raise ValueError(f"lag {t} out of range for series of length {n}")
    return float(x[: n - t] @ x[t:]) / denom


def correlation_time(series: np.ndarray) -> tuple[float, np.ndarray]:
    """Integrated autocorrelation time of a scalar series.

    Returns (tau, rho) where rho holds the autocorrelations actually
    summed (lags 1..T*). tau is clamped to >= 1.
    """
    x, denom = _centered(series)
    n = x.shape[0]
    if n < 10:
        raise ValueError("series too short for a correlation time estimate")
    rho = []
    total = 0.0
    for t in range(1, n // 4 + 1):
        r = float(x[: n - t] @ x[t:]) / denom
        if r <= 0.0:
            break
        rho.append(r)
        total += r
    return max(1.0 + total, 1.0), np.array(rho)


def effective_samples(n: int, tau: float) -> float:
    """Effective sample count N / tau."""
    return n / tau


def acceptance_rate(flags: np.ndarray) -> float:
    flags = np.asarray(flags)
    if flags.size == 0:
        raise ValueError("empty flag vector")
    return float(np.mean(flags))


def credible_band(samples: np.ndarray, mass: float) -> CredibleBand:
    """Per-coordinate central credible interval from empirical quantiles.

    Quantiles interpolate linearly between order statistics at rank
    q*(N-1) (numpy's 'linear' method).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < mass <= 1.0:
        raise ValueError("mass must lie in (0, 1]")
    lo_q = (1.0 - mass) / 2.0
    lower = np.quantile(samples, lo_q, axis=0, method="linear")
    upper = np.quantile(samples, 1.0 - lo_q, axis=0, method="linear")
    return CredibleBand(lower=lower, upper=upper)


def summarize_chain(samples: np.ndarray, accept_flags: np.ndarray) -> ChainDiagnostics:
    """Diagnostics bundle computed on the spatial-average scalar."""
    series = spatial_average(samples)
    tau, rho = correlation_time(series)
    return ChainDiagnostics(
        acceptance_rate=acceptance_rate(accept_flags),
        rho=rho,
        tau=tau,
        n_eff=effective_samples(len(series), tau),
    )
