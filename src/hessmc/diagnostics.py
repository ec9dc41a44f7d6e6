"""Chain-quality statistics: correlation time, ESS, credible bands.

The correlation time follows the paper's tau = 1 + sum_t rho_t (no factor
of 2, unlike the textbook 1 + 2*sum). The sum is truncated by the
initial-positive-sequence rule (stop before the first non-positive rho_t)
with a hard ceiling of N/4 lags.

The credible band reads two order statistics per quantile and coordinate,
those either side of rank q*(n-1) (numpy's 'linear' rule), so BandTails
holds only each coordinate's smallest and largest values down to those
ranks, merging each block of samples into them a few coordinates at a
time, and credible_band gives from them the bits np.quantile gives from
all n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# credible_band sorts copies of at most this many values at a time (64 KiB)
_SORT_VALUES = 8192
# BandTails merges at most this many values at a time (8 KiB), unless one
# coordinate's tails are more than half of them. 2,048 gave an 8 KB higher
# peak and no faster merges on the 8x8 target.
_MERGE_VALUES = 1024


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
    """Per-sample mean over coordinates: (..., N, dim) -> (..., N)."""
    return np.asarray(samples, dtype=float).mean(axis=-1)


def _centered(series: np.ndarray) -> tuple[np.ndarray, float]:
    series = np.asarray(series, dtype=float)
    x = series - series.mean()
    denom = float(x @ x)
    # the mean of equal values can be off by an ulp, leaving denom > 0
    if denom == 0.0 or np.all(series == series[0]):
        raise ZeroVariance("series has zero variance")
    return x, denom


def correlation_time(series: np.ndarray) -> tuple[float, np.ndarray]:
    """Integrated autocorrelation time of a scalar series.

    Returns (tau, rho) where rho holds the lag-t sample autocorrelations
    (biased, lag-0 normalization) actually summed (lags 1..T*). tau is
    clamped to >= 1.
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


def _ranks(n: int, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """The order statistics the band of n values reads, and their weights.

    numpy's 'linear' quantile rule (Hyndman & Fan's type 7) for the two
    quantiles q = (1 -+ mass) / 2: the virtual index v = (n - 1) * q, the
    ranks prev = floor(v) and next = prev + 1, and gamma = v - prev; where
    v >= n - 1 both ranks are the largest, which numpy counts as -1 in
    gamma. Returns the (2, 2) ranks [prev, next], counted from 0, and
    gamma; each column is one quantile, lower first.
    """
    lo_q = (1.0 - mass) / 2.0
    ranks, gamma = [], []
    for q in (lo_q, 1.0 - lo_q):
        v = (n - 1) * q  # in doubles, as numpy computes it
        top = v >= n - 1
        prev = n - 1 if top else math.floor(v)
        ranks.append((prev, n - 1 if top else prev + 1))
        gamma.append(v + 1.0 if top else v - prev)
    return np.array(ranks).T, np.array(gamma)


def _tails(n: int, mass: float) -> tuple[int, int]:
    """How many of each column's smallest and largest values the band reads."""
    ranks, _ = _ranks(n, mass)
    return int(ranks[1, 0]) + 1, n - int(ranks[0, 1])


class BandTails:
    """The rows of n samples that their credible band reads, merged block by block.

    Each coordinate's `low` smallest and `high` largest values are all the
    band reads, and all that the buffer holds: a row of min(n, low + high)
    values per coordinate. add() copies rows into it while they fit; then
    it merges the rest of a block a few coordinates at a time, sorting each
    coordinate's kept values with the block's and keeping only the tails.
    A merge holds at most _MERGE_VALUES values, or, if that is more, one
    coordinate's tails and as many of the block's values. If the tails
    cover all n rows, the buffer holds all n and is never sorted. kept holds
    the tails, for credible_band(kept, mass, n).
    """

    def __init__(self, n: int, dim: int, mass: float):
        self.n = n
        self.low, self.high = _tails(n, mass)
        self._cols = np.empty((dim, min(n, self.low + self.high)))
        self._filled = self._seen = 0

    @property
    def kept(self) -> np.ndarray:
        return self._cols[:, : self._filled].T

    def add(self, rows: np.ndarray) -> None:
        """Merge the next rows of the n; rows itself is left unchanged."""
        if self._seen + len(rows) > self.n:
            raise ValueError(f"at most {self.n} rows in all")
        self._seen += len(rows)
        cols, low, high = self._cols, self.low, self.high
        room = cols.shape[1] - self._filled
        fits, rest = rows[:room], rows[room:]
        cols[:, self._filled : self._filled + len(fits)] = fits.T
        self._filled += len(fits)
        if len(rest) == 0:
            return
        size = cols.shape[1]  # low + high, since a row is left over
        step = min(len(rest), max(_MERGE_VALUES - size, size))
        width = max(1, _MERGE_VALUES // (size + step))
        for start in range(0, len(rest), step):
            for j in range(0, len(cols), width):
                # a sort, which numpy vectorizes, is faster here than a
                # partition at two ranks, which it does not
                merged = np.concatenate(
                    (cols[j : j + width], rest[start : start + step, j : j + width].T), axis=1
                )
                merged.sort(axis=1)
                cols[j : j + width, :low] = merged[:, :low]
                cols[j : j + width, low:] = merged[:, merged.shape[1] - high :]
                del merged  # so that no two merges are held at once


def credible_band(samples: np.ndarray, mass: float, n: int | None = None) -> CredibleBand:
    """Per-coordinate central credible interval from empirical quantiles.

    Quantiles interpolate linearly between order statistics at rank
    q*(n-1), bit for bit as np.quantile's 'linear' method. samples are the n
    rows, or, with n given, rows holding at least each column's tails among
    n samples (BandTails.kept); they are read, never reordered.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n = len(samples) if n is None else n
    if n < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < mass <= 1.0:
        raise ValueError("mass must lie in (0, 1]")
    if not min(n, sum(_tails(n, mass))) <= len(samples) <= n:
        raise ValueError(f"{len(samples)} rows cannot hold the tails of {n}")
    ranks, gamma = _ranks(n, mass)
    ranks[:, 1] -= n - len(samples)  # the upper quantile's ranks count from the top
    picked = np.empty((4, samples.shape[1]))
    step = max(1, _SORT_VALUES // len(samples))
    for j in range(0, samples.shape[1], step):  # sorted copies of a few columns
        picked[:, j : j + step] = np.sort(samples[:, j : j + step], axis=0)[ranks.ravel()]
    prev, nxt = picked.reshape(2, 2, -1)
    # numpy's _lerp: from the nearer rank, so gamma 1 gives nxt exactly
    gamma = gamma[:, None]
    diff = nxt - prev
    band = prev + diff * gamma
    np.subtract(nxt, diff * (1 - gamma), out=band, where=gamma >= 0.5)
    return CredibleBand(lower=band[0], upper=band[1])


def summarize_chain(samples: np.ndarray, accept_flags: np.ndarray) -> ChainDiagnostics:
    """Diagnostics bundle computed on the spatial-average scalar.

    samples is the (N, dim) chain, or its (N,) spatial average. The
    acceptance rate is the mean of accept_flags (ValueError if it is empty),
    and the effective sample count N / tau.
    """
    samples = np.asarray(samples, dtype=float)
    series = samples if samples.ndim == 1 else spatial_average(samples)
    tau, rho = correlation_time(series)
    flags = np.asarray(accept_flags)
    if flags.size == 0:
        raise ValueError("empty flag vector")
    return ChainDiagnostics(
        acceptance_rate=float(np.mean(flags)),
        rho=rho,
        tau=tau,
        n_eff=len(series) / tau,
    )
