"""Dense symmetric-positive-definite matrix services.

Everything downstream (momentum sampling, kinetic energies, log-determinants,
mass-matrix preconditioning) goes through the :class:`SpdFactor` container,
which holds a matrix together with its lower Cholesky factor and
log-determinant. Factors are immutable and safe to share across chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


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


def _check_symmetric(matrix: np.ndarray, non_finite=NotPositiveDefinite) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {matrix.shape}")
    scale = np.abs(matrix).max()  # nan or inf iff an entry is
    if not np.isfinite(scale):
        raise non_finite("matrix has a non-finite entry")
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
    try:
        lower = scipy.linalg.cholesky(sym, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
    return SpdFactor(dim=sym.shape[0], lower_factor=lower, log_det=log_det)


def solve(f: SpdFactor, v: np.ndarray) -> np.ndarray:
    """Solve M @ x = v through the two triangular factors of M."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != f.dim:
        raise DimensionMismatch(f"vector of length {v.shape[-1]} vs factor dim {f.dim}")
    return scipy.linalg.cho_solve((f.lower_factor, True), v)


def inverse(f: SpdFactor) -> np.ndarray:
    """Dense inverse of the factored matrix."""
    return scipy.linalg.cho_solve((f.lower_factor, True), np.eye(f.dim))


def sample_gaussian(f: SpdFactor, rng: np.random.Generator) -> np.ndarray:
    """Draw one sample from N(0, M) as L @ z with z standard normal."""
    z = rng.standard_normal(f.dim)
    return f.lower_factor @ z


def repair_to_pd(matrix: np.ndarray, floor: float) -> tuple[SpdFactor, float]:
    """Factorize, adding diagonal jitter lam*I if the matrix is indefinite.

    lam runs through the doubling sequence 0, floor, 2*floor, 4*floor, ...
    until the Cholesky succeeds; a non-finite matrix fails before any attempt.

    Args:
        matrix: dense square symmetric matrix.
        floor: first nonzero jitter magnitude; must be positive.

    Returns:
        (factor of matrix + lam*I, lam).

    Raises:
        RepairFailed: lam exceeded floor * 1e12, or an entry is not finite.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    sym = _check_symmetric(matrix, non_finite=RepairFailed)
    lam = 0.0
    eye = np.eye(sym.shape[0])
    while True:
        try:
            return factorize(sym + lam * eye), lam
        except NotPositiveDefinite:
            lam = floor if lam == 0.0 else 2.0 * lam
            if lam > REPAIR_CAP * floor:
                raise RepairFailed(
                    f"jitter escalated past {REPAIR_CAP:g} * floor without success"
                ) from None
