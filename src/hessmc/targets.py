"""Target distributions: potential, gradient, Hessian, MAP.

The potential is J(theta) = -log pi(theta). The log-normal field target
drops the additive normalization constant -0.5*log|Sigma^-1| from J; only
differences of J enter any acceptance ratio, so the convention is harmless
as long as it is applied consistently (it is, and tests pin it).

A target is three methods: potential, gradient and hessian. Outside its
domain potential returns +inf and gradient and hessian raise OutOfDomain;
that is the only domain check the samplers rely on. All three also take a
(K, d) stack of points and evaluate it row by row, each row to the bits the
single point gives (hessian returns a (K, d, d) stack): a row outside the
domain gets a +inf potential, and gradient and hessian raise OutOfDomain
with ``rows`` marking the rows outside. The kernels are ``np.matvec`` and
``np.vecdot``, which compute each row as the 1-D ``P @ r`` and ``r @ v`` do
(a gemm ``R @ P`` does not) when the rows are contiguous, so the targets
make every stack C-ordered first; a Hessian is elementwise products only.

GaussianTarget is held in precision form: Sigma^-1 is inverted once at
construction, made exactly symmetric, and applied by one matrix-vector
product per call, so no potential, gradient or Hessian solves against the
covariance, and every Hessian is exactly symmetric by construction.
LogNormalField is the image of GaussianTarget(m, Sigma) under exp: it
evaluates that Gaussian, its ``log_space``, at log theta and adds the
Jacobian terms of theta = exp(x). Its potential and gradient call
``log_space``'s formulas of a residual, the one copy of each, with the
residual formed in place in the fresh array of log theta and the gradient
finished in place in the matvec's, so they copy neither theta nor the
residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, SpdFactor, count_nonzero, factorize, inverse


class OutOfDomain(Exception):
    """Point lies outside the target's support.

    rows: for a (K, d) stack, the boolean mask of the rows outside it; None
    for a single point.
    """

    def __init__(self, message: str, rows: np.ndarray | None = None):
        super().__init__(message)
        self.rows = rows


class TargetModel:
    """Interface for a target density in potential form.

    Subclasses provide potential(theta), gradient(theta) and hessian(theta).
    potential returns +inf outside the domain; gradient and hessian raise
    OutOfDomain there. All three also take a (K, d) stack and answer row by
    row, bit for bit as for each row alone (hessian with a (K, d, d) stack);
    a row outside the domain gets a +inf potential, and gradient and hessian
    raise OutOfDomain whose ``rows`` marks the rows outside. The samplers
    make no domain check of their own.
    """

    dim: int

    def potential(self, theta: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, theta: np.ndarray) -> np.ndarray:
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
        self.precision = inverse(self.cov)
        self.precision += self.precision.T  # made exactly symmetric
        self.precision *= 0.5

    def potential(self, theta: np.ndarray) -> float | np.ndarray:
        return self._potential_of(np.ascontiguousarray(theta, dtype=float) - self.mean)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self._gradient_of(np.ascontiguousarray(theta, dtype=float) - self.mean)

    def _potential_of(self, r: np.ndarray) -> float | np.ndarray:
        """J of the residual r = theta - mean (or a stack of them)."""
        return 0.5 * np.vecdot(r, np.matvec(self.precision, r))

    def _gradient_of(self, r: np.ndarray) -> np.ndarray:
        """grad J of the residual r = theta - mean, a fresh array."""
        return np.matvec(self.precision, r)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """The precision, or a (K, d, d) stack of it for a (K, d) stack."""
        shape = np.shape(theta)[:-1] + self.precision.shape
        return np.broadcast_to(self.precision, shape).copy()


@dataclass
class LogNormalField(TargetModel):
    """Log-normal field target: log(theta) ~ N(m, Sigma) on a spatial grid.

    J(theta) = G(log theta) + sum_i log theta_i, where G is the potential of
    log_space = GaussianTarget(m, Sigma), the one owner of the precision, and
    the sum is the log-Jacobian of theta = exp(x); the normalization constant
    is dropped. The domain is the strictly positive orthant.
    """

    m: np.ndarray
    sigma: SpdFactor
    log_space: GaussianTarget = field(init=False, repr=False)

    def __post_init__(self):
        self.log_space = GaussianTarget(self.m, self.sigma)
        self.m = self.log_space.mean
        self.dim = self.log_space.dim

    def _log(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(theta, log theta) as floats, log theta a fresh array; the field's
        one domain check."""
        theta = np.ascontiguousarray(theta, dtype=float)
        inside = theta > 0.0
        if count_nonzero(inside) != inside.size:
            rows = None if theta.ndim == 1 else ~inside.all(axis=1)
            raise OutOfDomain("theta is outside the positive orthant", rows)
        return theta, np.log(theta)

    def potential(self, theta: np.ndarray) -> float | np.ndarray:
        try:
            _, x = self._log(theta)
        except OutOfDomain as exc:
            if exc.rows is None:
                return np.inf
            inside = ~exc.rows
            j = np.full(len(inside), np.inf)
            j[inside] = self._of_log(np.log(np.asarray(theta, dtype=float)[inside]))
            return j
        return self._of_log(x)

    def _of_log(self, x: np.ndarray) -> float | np.ndarray:
        """J at theta = exp(x): ``log_space.potential(x) + x.sum(axis=-1)``,
        the same operations, with the residual formed in x, a fresh array,
        and the sum taken by ``np.add.reduce``, which ``sum`` wraps."""
        jacobian = np.add.reduce(x, -1)
        x -= self.log_space.mean
        return self.log_space._potential_of(x) + jacobian

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """(P (log theta - m) + 1) / theta, the residual formed in log's fresh
        array and the rest in the matvec's: the operations of
        ``(log_space.gradient(log theta) + 1) / theta``, without temporaries."""
        theta, r = self._log(theta)
        r -= self.log_space.mean
        g = self.log_space._gradient_of(r)
        g += 1.0
        g /= theta
        return g

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """D^-1 P D^-1 - diag((P (log theta - m) + 1) / theta^2), D = diag(theta).

        A (K, d) stack gives a (K, d, d) stack, built in one buffer: the
        outer products 1/theta_i * 1/theta_j (one einsum, which fills it
        faster than a broadcast product), scaled by P in place, then the
        diagonal updated through a strided view.
        """
        theta, x = self._log(theta)
        v = self.log_space.gradient(x)
        inv_theta = 1.0 / theta
        h = np.einsum("...i,...j->...ij", inv_theta, inv_theta)
        h *= self.log_space.precision
        diagonal = h.reshape(*h.shape[:-2], -1)[..., :: self.dim + 1]
        diagonal -= (v + 1.0) * inv_theta**2
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
    x, y = (g.ravel() for g in np.meshgrid(xs, ys))
    sq_dist = (x[:, None] - x) ** 2 + (y[:, None] - y) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):  # factorize reports a NaN
        k = variance * np.exp(-sq_dist / (2.0 * lengthscale_m**2))
    k[np.diag_indices_from(k)] += nugget
    return factorize(k)
