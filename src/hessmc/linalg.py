"""Dense symmetric-positive-definite matrix services.

Everything downstream (momentum sampling, kinetic energies, log-determinants,
mass-matrix preconditioning) goes through the :class:`SpdFactor` container,
which holds a matrix together with its lower Cholesky factor and
log-determinant. Factors are immutable and safe to share across chains.

The two hot kernels call LAPACK directly: :func:`factorize` is one ``dpotrf``
and :func:`solve` one ``dpotrs``, the same routines ``scipy.linalg.cholesky``
and ``cho_solve`` call, so results agree bit for bit without those wrappers'
per-call overhead. A factor that carries its dense inverse
(:func:`with_inverse`) is solved by one matvec instead, ``inv.dot(v)`` for a
vector (a stack's ``np.matvec`` and the 1-D ``inv @ v`` go through a gufunc's
dispatch): a checked :func:`solve` at d = 144 took 3.0-4.4 us that way against
13.6-14.0 us by ``dpotrs`` and 4.5-4.9 us through ``inv @ v``, and at d = 64
1.8-1.9 us against 2.35 us through ``inv @ v`` (best of 7-9 repeats of 2000
calls, one BLAS thread of a shared 2-core x86 box, OpenBLAS, numpy 2.4, the
ranges from process to process; 7-10 against 20-27 us by ``dpotrs`` when first
measured at d = 144). Only a chain's constant mass carries one. A mass
refrozen at each point would spend about 200 us inverting at d = 144
(``dpotri``; 430 us through :func:`inverse`) to save about 100 us over its 12
solves. Tried for HLOCAL_HMC (one ``dpotri`` per new mass, then a matvec per
solve), it made a run slower, x1.24 on the desk target and x1.21 with 8 chains
(20 alternating in-process runs each), and it would change HLOCAL_HMC's output
bytes. Any other factor (a covariance's, say) would hold a second d x d array
for nothing.

A diagonal factor (``beta * I``, HMC's mass: L has no nonzero entry off its
diagonal) carries only its inverse's diagonal, a (d,) array, and :func:`solve`
and :func:`sample_gaussian` apply it by one elementwise product. At d = 144 a
checked solve took 1.3 us that way against 3.0-4.4 us by the dense ``dot``, a
draw 3.2-3.3 us against 6.0 us and an 8-row stack 3.5-3.6 us against 26 us
(measured the same way). The bits are those of the dense products: each entry
of ``inv.dot(v)`` or ``L.dot(z)`` is one nonzero product plus exact zeros.
Only the sign of an entry that is itself a zero product can differ, and the
samplers only add such an entry to a position or sum it into an energy.
:func:`with_inverse` finds the diagonal by one ``dpotrs`` against a vector of
ones, not by :func:`inverse`'s O(d**3) solve against the identity: 0.04 ms
against 0.52 ms at d = 144, 0.58 ms against 21 ms at d = 576 (best of 7, one
BLAS thread). Each entry of that solve sees only its own diagonal entry of L,
the others being exact zeros, and the same routine computes it, so it has the
bits of ``inverse(f).diagonal()``, the values the dense matvec multiplies by.
``1 / L_ii / L_ii`` differs from them in the last bit for some beta (2.5, 0.3
and 1e-3 among them).

Each matrix is checked once per call: an exactly symmetric input passes after
one finiteness and one equality scan, uncopied, and only an asymmetric one is
measured for its asymmetry and symmetrized. :func:`solve` makes two checks of
a vector or stack to solve against: its shape against the factor or factors
(``_check_dims``, 0.15-0.25 us at d = 144), then its finiteness, by
counting its finite entries with numpy's C ``count_nonzero``, one C loop
(``.all()`` and ``np.count_nonzero`` go through Python wrappers: 0.93 and 0.30
us a call at d = 64 against 0.08 us). ``_check_dims`` is the one check that
a mass fits its points (a point takes one factor, a (K, d) stack one or K,
each of dim d): the samplers' ``leapfrog`` and ``run_chain`` call it once,
and their energies reach it through :func:`solve`. ``_solve_checked`` is
the second check and the product alone, which a trajectory calls for each
momentum after those shape checks, so every momentum is still refused
before its drift if it is not finite. A refused stack marks its non-finite
rows in :class:`NonFiniteVector`, which is how a diverging leapfrog
trajectory stops those rows without a scan of its own.

A stack is checked once and then handed to LAPACK row by row, so each row
gets the bits of its call alone (scipy's batched Cholesky is no faster, and
``np.linalg.cholesky`` is not bit-identical). :func:`solve` takes a vector
or a (K, d) stack of them, against one factor or against K, one per row.
One factor that carries its inverse solves a stack by one ``np.matvec``,
which gives every row the bits of the 1-D ``inv.dot(v)`` a vector takes (a
gemm ``V @ inv.T`` does not), or by one product with its diagonal;
otherwise each row takes one ``dpotrs``, or its own factor's ``dot`` or
product.
:func:`repair_to_pd` repairs one (d, d) matrix, as one point, or a (K, d, d)
stack: one finiteness and one exact-symmetry scan (of a matrix, two counts
by ``count_nonzero``), then one ``dpotrf`` per exactly symmetric matrix (any
other finite one is checked and symmetrized first, with no second
finiteness scan). Only a matrix whose Cholesky fails goes on to the jitter
escalation, and one that cannot be repaired gets None. ``dpotrf`` and
``dpotrs`` take their flags positionally, which their wrappers parse faster
than keywords (a d = 64 ``dpotrs`` took 3.26 against 3.43 us, a ``dpotrf``
12.5 against 13.0 us, best of 9 interleaved repeats on one BLAS thread of a
shared 2-core x86 box).

``dpotrf`` and ``dpotrs`` come from ``scipy.linalg._flapack``, the compiled
f2py module that ``scipy.linalg.lapack`` star-imports, loaded by its path
and registered in ``sys.modules`` under its own name, so a later
``import scipy.linalg`` reuses the same module and the same routines. The
``scipy.linalg`` package's ``__init__`` is never run: through
``scipy._lib._array_api`` it star-imports numpy, which imports
``numpy.f2py``, ``ma``, ``polynomial`` and the rest of ``numpy.__all__``.
Measured by rusage on one thread of a shared 2-core x86 box (Python 3.11,
numpy 2.4, scipy 1.17): after ``import numpy`` (0.10-0.12 s of CPU),
``from scipy.linalg.lapack import dpotrf`` took 0.27-0.34 s and this loader
4-6 ms, and a process importing ``hessmc.cli`` went from 0.61-0.63 s to
0.22-0.26 s of CPU in all.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from importlib.machinery import PathFinder

import numpy as np

try:  # np.count_nonzero's C function, without its Python wrapper
    from numpy._core.multiarray import count_nonzero
except ImportError:  # a numpy that moved it: the wrapper, the same counts
    count_nonzero = np.count_nonzero


def _load_flapack():
    """scipy's compiled LAPACK module, loaded by path without ``scipy.linalg``."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy else []
    paths = [os.path.join(root, "linalg") for root in roots]
    spec = PathFinder.find_spec(name, paths)
    if spec is None:
        raise ImportError(f"cannot find {name} in {paths}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module  # a later `import scipy.linalg` reuses it
    return module


_flapack = _load_flapack()
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


SYMMETRY_RTOL = 1e-8

# Escalation cap for PD repair: jitter beyond floor * 1e12 means the input
# is pathological, not merely indefinite.
REPAIR_CAP = 1e12


class NotPositiveDefinite(Exception):
    """Cholesky hit a non-positive pivot; the matrix is not PD."""


class RepairFailed(Exception):
    """A mass cannot be built: its matrix is not finite, or jitter escalation
    exceeded the cap without reaching a PD matrix (a None from repair_to_pd)."""


class DimensionMismatch(Exception):
    """Vector or matrix dimensions are incompatible."""


class NonFiniteVector(ValueError):
    """A vector to solve against has an inf or NaN entry.

    rows: for a (K, d) stack, the boolean mask of the rows with one; None
    for a single vector.
    """

    def __init__(self, message: str, rows: np.ndarray | None = None):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class SpdFactor:
    """A symmetric positive-definite matrix held via its Cholesky factor.

    Attributes:
        dim: matrix dimension.
        lower_factor: lower-triangular L with L @ L.T equal to the matrix.
        log_det: log-determinant of the matrix (twice the sum of
            log-diagonal entries of L).
        inv: the inverse, or None: the dense (d, d) inverse, or for a
            diagonal matrix that inverse's diagonal, a (d,) array. When set,
            :func:`solve` is one matvec with it, or one elementwise product
            with the diagonal, instead of two triangular solves.
    """

    dim: int
    lower_factor: np.ndarray = field(repr=False)
    log_det: float
    inv: np.ndarray | None = field(default=None, repr=False)

    def matrix(self) -> np.ndarray:
        """Reconstruct the dense matrix L @ L.T."""
        return self.lower_factor @ self.lower_factor.T


def _check_symmetric(matrix: np.ndarray, finite: bool = False) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {matrix.shape}")
    if not finite and not np.isfinite(matrix).all():
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
    return _cholesky(_check_symmetric(matrix))


def _cholesky(sym: np.ndarray) -> SpdFactor:
    """One ``dpotrf`` of a checked, exactly symmetric matrix."""
    lower, info = dpotrf(sym, 1, 1)  # lower=1, clean=1
    if info > 0:
        raise NotPositiveDefinite(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrf")
    # ndarray.sum is np.sum's reduce without its dispatch, so the same bits
    log_det = 2.0 * float(np.log(lower.diagonal()).sum())
    return SpdFactor(dim=sym.shape[0], lower_factor=lower, log_det=log_det)


def solve(f: SpdFactor | Sequence[SpdFactor], v: np.ndarray) -> np.ndarray:
    """Solve M @ x = v: ``f.inv.dot(v)`` if f carries its dense inverse,
    ``v * f.inv`` if it carries a diagonal one, else ``dpotrs``.

    v may also be a (K, d) stack, solved row by row, each row to the bits
    this call gives it alone, into one (K, d) result: against one factor
    (one ``np.matvec`` with its inverse, one product with its diagonal, else
    one ``dpotrs`` per row), or against a sequence of K factors, one per row.
    The stack is checked once. The result is always a fresh array.

    Raises:
        DimensionMismatch: v is not a vector of length ``f.dim`` or a
            (K, f.dim) stack, or not a (K, d) stack with K factors of dim d.
        NonFiniteVector: v has an inf or NaN entry.
    """
    v = np.asarray(v, dtype=float)
    _check_dims(f, v)
    return _solve_checked(f, v)


def _check_dims(f: SpdFactor | Sequence[SpdFactor], v: np.ndarray) -> None:
    """The one check that a mass fits the points it moves, for :func:`solve`
    and the samplers: raise DimensionMismatch unless v is a vector of length
    ``f.dim`` or a (K, f.dim) stack, or, for a sequence of factors, a (K, d)
    stack with K factors of dim d."""
    if isinstance(f, SpdFactor):
        if v.shape != (f.dim,) and (v.ndim != 2 or v.shape[1] != f.dim):
            raise DimensionMismatch(
                f"expected a vector of length {f.dim} or a (K, {f.dim}) stack, got {v.shape}"
            )
    elif v.ndim != 2 or len(f) != len(v) or any(g.dim != v.shape[1] for g in f):
        rows = (f"{len(v)} rows" if v.ndim == 2
                else "one point" if v.ndim == 1 else "an array")
        raise DimensionMismatch(
            f"{len(f)} masses for {rows}: expected a (K, d) stack and K factors of dim d,"
            f" got {v.shape}"
        )


def _solve_checked(f: SpdFactor | Sequence[SpdFactor], v: np.ndarray) -> np.ndarray:
    """:func:`solve` of a float array v whose shape ``_check_dims`` has
    passed against f: the finiteness check (NonFiniteVector) and the product,
    for a caller that solves many momenta of one shape against one mass. A
    wrong-shaped v is not refused here: a diagonal factor broadcasts it."""
    finite = np.isfinite(v)
    if count_nonzero(finite) != finite.size:
        rows = None if v.ndim == 1 else ~finite.all(axis=1)
        raise NonFiniteVector("array must not contain infs or NaNs", rows)
    if isinstance(f, SpdFactor):
        if f.inv is not None:
            if f.inv.ndim == 1:
                return v * f.inv
            return f.inv.dot(v) if v.ndim == 1 else np.matvec(f.inv, v)
        if v.ndim == 1:
            return _potrs(f, v)
        f = [f] * len(v)
    x = np.empty(v.shape)
    for k, (g, row) in enumerate(zip(f, v)):
        if g.inv is None:
            x[k] = _potrs(g, row)
        else:
            x[k] = row * g.inv if g.inv.ndim == 1 else g.inv.dot(row)
    return x


def _potrs(f: SpdFactor, v: np.ndarray) -> np.ndarray:
    x, info = dpotrs(f.lower_factor, v, 1)  # lower=1
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def inverse(f: SpdFactor) -> np.ndarray:
    """Dense inverse of the factored matrix."""
    return dpotrs(f.lower_factor, np.eye(f.dim), lower=1)[0]


def with_inverse(f: SpdFactor) -> SpdFactor:
    """The same factor carrying its inverse, for a mass reused all chain: the
    dense inverse, or for a diagonal matrix (L has no nonzero entry off its
    diagonal; -0.0 counts as zero) that inverse's diagonal, a (d,) array,
    by one solve against a vector of ones, with the bits inverse(f) gives."""
    if np.count_nonzero(f.lower_factor) == f.dim:
        return replace(f, inv=_potrs(f, np.ones(f.dim)))
    return replace(f, inv=inverse(f))


def sample_gaussian(f: SpdFactor, rng: np.random.Generator) -> np.ndarray:
    """Draw one sample from N(0, M) as L @ z with z standard normal; for a
    factor that carries a diagonal inverse, z times L's diagonal."""
    z = rng.standard_normal(f.dim)
    if f.inv is not None and f.inv.ndim == 1:
        return z * f.lower_factor.diagonal()
    return f.lower_factor.dot(z)


def repair_to_pd(
    matrices: np.ndarray, floor: float
) -> tuple[list[SpdFactor | None], np.ndarray] | tuple[SpdFactor | None, float]:
    """Factorize one (d, d) matrix, or each matrix of a (K, d, d) stack,
    adding diagonal jitter lam*I to one that is indefinite.

    lam runs through the doubling sequence 0, floor, 2*floor, 4*floor, ...
    until the Cholesky succeeds. The matrix or stack is scanned once for
    finiteness and once for exact symmetry (a matrix by two counts of
    ``count_nonzero``, a stack row by row); each finite matrix that is
    exactly symmetric is factorized by one ``dpotrf``, any other finite one
    by one ``dpotrf`` of its checked, symmetrized copy. Only a matrix whose
    Cholesky fails goes on to the jitter escalation, each attempt one
    :func:`factorize` of the symmetric part the first attempt accepted. A
    (d, d) matrix is one point, with the bits of a one-row stack's row.

    Args:
        matrices: a (d, d) matrix or a (K, d, d) stack, symmetric.
        floor: first nonzero jitter magnitude; must be finite and positive.

    Returns:
        For a matrix, (factor, lam): the factor of the matrix + lam*I, and
        the float jitter; (None, 0.0) where the repair fails (a non-finite
        entry, or lam past floor * 1e12 or not finite). For a stack,
        (factors, lams): the list of K such factors and the (K,) jitters.

    Raises:
        DimensionMismatch: the input is not (d, d) or (K, d, d), or a matrix
            is not symmetric.
        ValueError: floor is not finite and positive.
    """
    if not 0.0 < floor < np.inf:
        raise ValueError("floor must be finite and positive")
    matrices = np.asarray(matrices, dtype=float)
    if matrices.ndim not in (2, 3) or matrices.shape[-1] != matrices.shape[-2]:
        raise DimensionMismatch(
            f"expected a (d, d) matrix or a (K, d, d) stack, got shape {matrices.shape}"
        )
    if matrices.ndim == 2:
        finite = np.isfinite(matrices)
        exact = matrices == matrices.T
        return _repair(matrices, floor, count_nonzero(finite) == finite.size,
                       count_nonzero(exact) == exact.size)
    finite = np.isfinite(matrices).all(axis=(1, 2)).tolist()
    exact = (matrices == matrices.transpose(0, 2, 1)).all(axis=(1, 2)).tolist()
    factors, lams = [None] * len(matrices), np.zeros(len(matrices))
    for k, matrix in enumerate(matrices):
        factors[k], lams[k] = _repair(matrix, floor, finite[k], exact[k])
    return factors, lams


def _repair(matrix: np.ndarray, floor: float, finite: bool,
            exact: bool) -> tuple[SpdFactor | None, float]:
    """:func:`repair_to_pd` of one matrix whose finiteness and exact symmetry
    the caller has scanned."""
    if not finite:
        return None, 0.0
    try:
        return _cholesky(matrix if exact else _check_symmetric(matrix, finite=True)), 0.0
    except NotPositiveDefinite:
        return _jitter(matrix, floor)


def _jitter(matrix: np.ndarray, floor: float) -> tuple[SpdFactor | None, float]:
    """The escalation after a failed first attempt on a finite matrix: lam =
    floor, 2*floor, ... on the symmetric part that attempt accepted; (None,
    0.0) once lam passes the cap, or overflows (a floor near the largest
    float makes the cap itself inf). A sum that overflows is not finite, and
    factorize refuses it."""
    with np.errstate(over="ignore"):
        matrix = 0.5 * (matrix + matrix.T)
        lam = floor
        while lam <= REPAIR_CAP * floor and lam < np.inf:
            try:
                return factorize(matrix + lam * np.eye(len(matrix))), lam
            except NotPositiveDefinite:
                lam *= 2.0
    return None, 0.0
