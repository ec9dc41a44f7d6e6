"""Chain-quality statistics: correlation time, ESS, credible bands.

The correlation time follows the paper's tau = 1 + sum_t rho_t (no factor
of 2, unlike the textbook 1 + 2*sum). The sum is truncated by the
initial-positive-sequence rule (stop before the first non-positive rho_t)
with a hard ceiling of N/4 lags.

The credible band reads two order statistics per quantile and coordinate,
those either side of rank q*(n-1) (numpy's 'linear' rule), so BandTails
holds each coordinate's smallest and largest values down to those ranks,
sorted, merging each block of samples into them; credible_band reads from
them the bits np.quantile gives from all n, and sends whole rows through
one BandTails too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# BandTails merges at most this many values (8 KiB) at a time, unless one coordinate's
# tails are more than half; 2,048 gave an 8 KB higher peak, no faster merges at d = 64.
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


class BandTails:
    """The values of n samples that their credible band reads, merged block by block.

    Each coordinate's `low` smallest and `high` largest values, in ascending
    order, are all the band reads and all the buffer holds (min(n, low + high)
    per coordinate). add() merges a block a few coordinates at a time, sorting
    each coordinate's kept values with the block's and keeping the tails; a
    merge holds at most _MERGE_VALUES values, or one coordinate's tails and as
    many of the block's if that is more. credible_band(tails, mass) reads them.
    """

    def __init__(self, n: int, dim: int, mass: float):
        if n < 2:
            raise ValueError("need at least two samples")
        if not 0.0 < mass <= 1.0:
            raise ValueError("mass must lie in (0, 1]")
        self.n, self.mass = n, mass
        ranks, _ = _ranks(n, mass)
        self.low, self.high = int(ranks[1, 0]) + 1, n - int(ranks[0, 1])
        self._cols = np.empty((dim, min(n, self.low + self.high)))
        self._seen = 0

    def add(self, rows: np.ndarray) -> None:
        """Merge the next (k, dim) rows of the n; rows itself is left unchanged."""
        cols, low = self._cols, self.low
        if rows.shape[1:] != cols.shape[:1]:
            raise ValueError(f"rows of {len(cols)} values expected, not of shape {rows.shape}")
        if self._seen + len(rows) > self.n:
            raise ValueError(f"at most {self.n} rows in all")
        size = cols.shape[1]
        step = min(len(rows), max(_MERGE_VALUES - size, size)) or 1  # 1: no rows
        width = max(1, _MERGE_VALUES // (size + step))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            filled = min(self._seen, size)
            self._seen += len(block)
            kept = min(self._seen, size)
            lo = min(low, kept)  # the smallest kept, then the largest
            for j in range(0, len(cols), width):
                # a sort, which numpy vectorizes, beats a partition at two ranks
                merged = np.concatenate(
                    (cols[j : j + width, :filled], block[:, j : j + width].T), axis=1)
                merged.sort(axis=1)
                cols[j : j + width, :lo] = merged[:, :lo]
                cols[j : j + width, lo:kept] = merged[:, merged.shape[1] - kept + lo :]
                del merged  # so that no two merges are held at once


def credible_band(samples: np.ndarray | BandTails, mass: float) -> CredibleBand:
    """Per-coordinate central credible interval from empirical quantiles.

    Quantiles interpolate linearly between order statistics at rank
    q*(n-1), bit for bit as np.quantile's 'linear' method. samples are the n
    rows (1-D: one coordinate), which are read, never reordered, or a
    BandTails for this mass that has taken all n of its rows.
    """
    if not isinstance(samples, BandTails):
        rows = np.asarray(samples, dtype=float)
        rows = rows[:, None] if rows.ndim == 1 else rows
        samples = BandTails(len(rows), rows.shape[1], mass)
        samples.add(rows)
    n, cols = samples.n, samples._cols
    if samples._seen < n:
        raise ValueError(f"the band needs all {n} rows, not {samples._seen}")
    if mass != samples.mass:
        raise ValueError(f"tails kept for mass {samples.mass}, not {mass}")
    ranks, gamma = _ranks(n, mass)
    ranks[:, 1] -= n - cols.shape[1]  # the upper quantile's ranks count from the top
    prev, nxt = cols[:, ranks.ravel()].T.reshape(2, 2, -1)
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
