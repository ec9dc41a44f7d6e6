"""Dense symmetric-positive-definite matrix services.

Everything downstream (momentum sampling, kinetic energies, log-determinants,
mass-matrix preconditioning) goes through the :class:`SpdFactor` container,
which holds a matrix together with its lower Cholesky factor and
log-determinant. Factors are immutable and safe to share across chains.

The two hot kernels call LAPACK directly: :func:`factorize` is one ``dpotrf``
and :func:`solve` one ``dpotrs``, the same routines ``scipy.linalg.cholesky``
and ``cho_solve`` call, so results agree bit for bit without those wrappers'
per-call overhead. Each matrix is checked once per call: an exactly
symmetric input passes after one finiteness and one equality scan, uncopied,
and only an asymmetric one is measured for its asymmetry and symmetrized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs


SYMMETRY_RTOL = 1e-8

# Escalation cap for PD repair: jitter beyond floor * 1e12 means the input
# is pathological, not merely indefinite.
REPAIR_CAP = 1e12


class NotPositiveDefinite(Exception):
    """Cholesky hit a non-positive pivot; the matrix is not PD."""


class RepairFailed(Exception):
    """Jitter escalation exceeded the cap without reaching a PD matrix."""


class DimensionMismatch(Exception):
    """Vector or matrix dimensions are incompatible."""


@dataclass(frozen=True)
class SpdFactor:
    """A symmetric positive-definite matrix held via its Cholesky factor.

    Attributes:
        dim: matrix dimension.
        lower_factor: lower-triangular L with L @ L.T equal to the matrix.
        log_det: log-determinant of the matrix (twice the sum of
            log-diagonal entries of L).
    """

    dim: int
    lower_factor: np.ndarray = field(repr=False)
    log_det: float

    def matrix(self) -> np.ndarray:
        """Reconstruct the dense matrix L @ L.T."""
        return self.lower_factor @ self.lower_factor.T


def _check_symmetric(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise NotPositiveDefinite("matrix has a non-finite entry")
    if np.array_equal(matrix, matrix.T):
        return matrix
    scale = np.abs(matrix).max()
    asym = np.abs(matrix - matrix.T).max()
    if scale > 0 and asym > SYMMETRY_RTOL * scale:
        raise DimensionMismatch(
            f"matrix is not symmetric (relative asymmetry {asym / scale:.3e})"
        )
    # symmetrize so the factorization sees an exactly symmetric input
    return 0.5 * (matrix + matrix.T)


def factorize(matrix: np.ndarray) -> SpdFactor:
    """Cholesky-factorize a symmetric PD matrix.

    Args:
        matrix: dense square matrix, symmetric to 1e-8 relative tolerance.

    Returns:
        An :class:`SpdFactor` with ``lower_factor @ lower_factor.T == matrix``.

    Raises:
        NotPositiveDefinite: a non-positive pivot was encountered, or an
            entry is not finite.
        DimensionMismatch: the input is not square or not symmetric.
    """
    sym = _check_symmetric(matrix)
    lower, info = dpotrf(sym, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrf")
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
    return SpdFactor(dim=sym.shape[0], lower_factor=lower, log_det=log_det)


def solve(f: SpdFactor, v: np.ndarray) -> np.ndarray:
    """Solve M @ x = v through the two triangular factors of M.

    Raises:
        DimensionMismatch: v is not a vector of length ``f.dim``.
        ValueError: v has an inf or NaN entry.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (f.dim,):
        raise DimensionMismatch(f"expected a vector of length {f.dim}, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = dpotrs(f.lower_factor, v, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def inverse(f: SpdFactor) -> np.ndarray:
    """Dense inverse of the factored matrix."""
    return dpotrs(f.lower_factor, np.eye(f.dim), lower=1)[0]


def sample_gaussian(f: SpdFactor, rng: np.random.Generator) -> np.ndarray:
    """Draw one sample from N(0, M) as L @ z with z standard normal."""
    z = rng.standard_normal(f.dim)
    return f.lower_factor @ z


def repair_to_pd(matrix: np.ndarray, floor: float) -> tuple[SpdFactor, float]:
    """Factorize, adding diagonal jitter lam*I if the matrix is indefinite.

    lam runs through the doubling sequence 0, floor, 2*floor, 4*floor, ...
    until the Cholesky succeeds; a non-finite matrix fails before any attempt.
    Each attempt is one :func:`factorize`, which checks shape and symmetry.

    Args:
        matrix: dense square symmetric matrix.
        floor: first nonzero jitter magnitude; must be finite and positive.

    Returns:
        (factor of matrix + lam*I, lam).

    Raises:
        RepairFailed: lam exceeded floor * 1e12, or an entry is not finite.
        DimensionMismatch: the matrix is not square or not symmetric.
        ValueError: floor is not finite and positive.
    """
    if not 0.0 < floor < np.inf:
        raise ValueError("floor must be finite and positive")
    matrix = np.asarray(matrix, dtype=float)
    if not np.isfinite(matrix).all():
        raise RepairFailed("matrix has a non-finite entry")
    lam = 0.0
    while True:
        try:
            return factorize(matrix + lam * np.eye(len(matrix)) if lam else matrix), lam
        except NotPositiveDefinite:
            if lam == 0.0:  # jitter the symmetric part that factorize accepted
                matrix = 0.5 * (matrix + matrix.T)
            lam = floor if lam == 0.0 else 2.0 * lam
            if lam > REPAIR_CAP * floor:
                raise RepairFailed(
                    f"jitter escalated past {REPAIR_CAP:g} * floor without success"
                ) from None
