"""Target distributions: potential, gradient, Hessian, MAP.

The potential is J(theta) = -log pi(theta). The log-normal field target
drops the additive normalization constant -0.5*log|Sigma^-1| from J; only
differences of J enter any acceptance ratio, so the convention is harmless
as long as it is applied consistently (it is, and tests pin it).

Both targets are held in precision form: Sigma^-1 is inverted once at
construction, made exactly symmetric, and applied by one matrix-vector
product per call, so no potential, gradient or Hessian solves against the
covariance, and every Hessian is exactly symmetric by construction.
``samplers.leapfrog`` checks a drifted position's domain only through
gradient, which must raise OutOfDomain there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, SpdFactor, factorize, inverse


class OutOfDomain(Exception):
    """Point lies outside the target's support."""


def _symmetric_inverse(f: SpdFactor) -> np.ndarray:
    """Inverse of the factored matrix, made exactly symmetric in place."""
    s = inverse(f)
    s += s.T
    s *= 0.5
    return s


class TargetModel:
    """Interface for a target density in potential form.

    Subclasses provide potential(theta), gradient(theta), hessian(theta)
    and in_domain(theta). potential returns +inf outside the domain;
    gradient and hessian raise OutOfDomain there. ``samplers.leapfrog``
    relies on that: it checks a drifted position only through gradient.
    The targets below store their precision exactly symmetric and apply it
    by one matrix-vector product.
    """

    dim: int

    def potential(self, theta: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def in_domain(self, theta: np.ndarray) -> bool:
        raise NotImplementedError


@dataclass
class GaussianTarget(TargetModel):
    """Multivariate Gaussian with J = 0.5 (theta-mean)' Sigma^-1 (theta-mean)."""

    mean: np.ndarray
    cov: SpdFactor
    precision: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        if self.mean.shape != (self.cov.dim,):
            raise DimensionMismatch(
                f"mean length {self.mean.shape} vs covariance dim {self.cov.dim}"
            )
        self.dim = self.cov.dim
        self.precision = _symmetric_inverse(self.cov)

    def in_domain(self, theta: np.ndarray) -> bool:
        return True

    def potential(self, theta: np.ndarray) -> float:
        r = np.asarray(theta, dtype=float) - self.mean
        return 0.5 * float(r @ (self.precision @ r))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        r = np.asarray(theta, dtype=float) - self.mean
        return self.precision @ r

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        return self.precision.copy()


def gaussian_target(mean: np.ndarray, cov: SpdFactor) -> GaussianTarget:
    """Analytic Gaussian reference target for sampler validation."""
    return GaussianTarget(mean=mean, cov=cov)


@dataclass
class LogNormalField(TargetModel):
    """Log-normal field target: log(theta) ~ N(m, Sigma) on a spatial grid.

    J(theta) = 0.5 ||Sigma^{-1/2} (log theta - m)||^2 + sum_i log theta_i,
    with the normalization constant dropped. The domain is the strictly
    positive orthant. grid_shape and extent_m are layout metadata only.
    """

    m: np.ndarray
    sigma: SpdFactor
    grid_shape: tuple[int, int] = (1, 1)
    extent_m: tuple[float, float] = (1.0, 1.0)
    sigma_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if self.m.shape != (self.sigma.dim,):
            raise DimensionMismatch(
                f"m length {self.m.shape} vs sigma dim {self.sigma.dim}"
            )
        self.dim = self.sigma.dim
        self.sigma_inv = _symmetric_inverse(self.sigma)

    def in_domain(self, theta: np.ndarray) -> bool:
        return bool((np.asarray(theta) > 0.0).all())

    def _weighted_residual(self, theta: np.ndarray) -> np.ndarray:
        # v = Sigma^-1 (log theta - m)
        return self.sigma_inv @ (np.log(theta) - self.m)

    def potential(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        if not self.in_domain(theta):
            return np.inf
        log_theta = np.log(theta)
        r = log_theta - self.m
        return 0.5 * float(r @ (self.sigma_inv @ r)) + float(np.sum(log_theta))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if not self.in_domain(theta):
            raise OutOfDomain("gradient requested outside the positive orthant")
        v = self._weighted_residual(theta)
        return (v + 1.0) / theta

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if not self.in_domain(theta):
            raise OutOfDomain("hessian requested outside the positive orthant")
        v = self._weighted_residual(theta)
        inv_theta = 1.0 / theta
        h = self.sigma_inv * np.outer(inv_theta, inv_theta)
        h[np.diag_indices_from(h)] -= (v + 1.0) * inv_theta**2
        return h

    def map_point(self) -> np.ndarray:
        """Closed-form mode: exp(m - Sigma @ 1).

        Raises:
            OutOfDomain: the mode is not finite and positive in every coordinate.
        """
        ones = np.ones(self.dim)
        with np.errstate(over="ignore"):
            theta = np.exp(self.m - self.sigma.matrix() @ ones)
        if not np.all((0.0 < theta) & (theta < np.inf)):
            raise OutOfDomain("MAP exp(m - Sigma 1) is not finite and positive")
        return theta


def build_grid_covariance(
    rows: int,
    cols: int,
    extent_m: tuple[float, float],
    lengthscale_m: float,
    variance: float = 1.0,
    nugget: float = 1e-6,
) -> SpdFactor:
    """Squared-exponential covariance over a uniform rows x cols grid.

    Nodes are placed uniformly over the physical extent (endpoints
    included; a single node sits at the extent midpoint). The kernel is
    variance * exp(-||xi - xj||^2 / (2 l^2)) + nugget on the diagonal.

    Raises:
        NotPositiveDefinite: factorization failed even with the nugget
            (increase the nugget).
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if lengthscale_m <= 0 or variance <= 0 or nugget < 0:
        raise ValueError("lengthscale and variance must be positive, nugget >= 0")
    width, height = extent_m
    xs = np.linspace(0.0, width, cols) if cols > 1 else np.array([0.5 * width])
    ys = np.linspace(0.0, height, rows) if rows > 1 else np.array([0.5 * height])
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    sq_dist = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # factorize reports a NaN
        k = variance * np.exp(-sq_dist / (2.0 * lengthscale_m**2))
    k[np.diag_indices_from(k)] += nugget
    return factorize(k)
