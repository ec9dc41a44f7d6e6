"""Tests for the SPD factorization services."""
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from hessmc import linalg
from hessmc.linalg import (
    DimensionMismatch,
    NotPositiveDefinite,
    SpdFactor,
    factorize,
    repair_to_pd,
    sample_gaussian,
    solve,
)
from support import FixedNormals, python


def _counting(calls, fn):
    """Wrap fn so that each call appends its arguments to calls."""
    return lambda *a, **k: calls.append(a) or fn(*a, **k)


def _repair(matrix, floor):
    """repair_to_pd of one matrix, as a one-row stack: (factor or None, lam)."""
    factors, lams = repair_to_pd(np.asarray(matrix, dtype=float)[None], floor)
    return factors[0], lams[0]


def test_factorize_identity():
    f = factorize(np.eye(3))
    assert np.allclose(f.lower_factor, np.eye(3))
    assert f.log_det == pytest.approx(0.0, abs=1e-15)
    assert f.dim == 3


def test_factorize_diagonal():
    f = factorize(np.diag([4.0, 9.0]))
    assert np.allclose(f.lower_factor, np.diag([2.0, 3.0]))
    assert f.log_det == pytest.approx(np.log(36.0), rel=1e-12)


def test_factorize_indefinite_raises():
    # eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefinite):
        factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_factorize_rejects_nonsquare_and_asymmetric():
    with pytest.raises(DimensionMismatch):
        factorize(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        factorize(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_log_det_invariant():
    rng = np.random.default_rng(1)
    for dim in (1, 3, 7, 20):
        b = rng.standard_normal((dim, dim))
        a = b.T @ b + 0.1 * np.eye(dim)
        f = factorize(a)
        diag_sum = 2.0 * np.sum(np.log(np.diag(f.lower_factor)))
        assert f.log_det == pytest.approx(diag_sum, rel=1e-12)
        eig_sum = np.sum(np.log(np.linalg.eigvalsh(a)))
        assert f.log_det == pytest.approx(eig_sum, rel=1e-8)
        assert np.linalg.norm(f.matrix() - a) <= 1e-10 * np.linalg.norm(a)


def test_solve_examples():
    assert np.allclose(solve(factorize(np.eye(3)), [1.0, 2.0, 3.0]), [1, 2, 3])
    assert np.allclose(solve(factorize(np.diag([4.0, 9.0])), [4.0, 9.0]), [1, 1])
    assert np.allclose(
        solve(factorize(np.array([[2.0, 1.0], [1.0, 2.0]])), [3.0, 3.0]), [1, 1]
    )


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(factorize(np.eye(2)), np.ones(3))
    with pytest.raises(DimensionMismatch):
        solve(factorize(np.eye(2)), np.ones((2, 3)))  # rows of the wrong length
    with pytest.raises(DimensionMismatch):
        solve(factorize(np.eye(1)), 1.0)


def test_solve_round_trip():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 5, 13, 50):
        b = rng.standard_normal((dim, dim))
        a = b.T @ b + 1e-3 * np.eye(dim)
        f = factorize(a)
        x = rng.standard_normal(dim)
        assert np.allclose(solve(f, a @ x), x, rtol=1e-8, atol=1e-8)


def test_sample_gaussian_passthrough():
    f = factorize(np.eye(2))
    assert np.allclose(sample_gaussian(f, FixedNormals([0.5, -1.2])), [0.5, -1.2])
    f = factorize(np.diag([4.0, 9.0]))
    assert np.allclose(sample_gaussian(f, FixedNormals([1.0, 1.0])), [2.0, 3.0])


def test_sample_gaussian_covariance():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    f = factorize(m)
    rng = np.random.default_rng(42)
    draws = np.array([sample_gaussian(f, rng) for _ in range(10_000)])
    emp = np.cov(draws.T)
    assert np.abs(emp - m).max() < 0.1


def test_sample_gaussian_whiteness():
    f = factorize(np.eye(4))
    rng = np.random.default_rng(3)
    draws = f.lower_factor @ rng.standard_normal((4, 100_000))
    emp = np.cov(draws)
    off = emp - np.diag(np.diag(emp))
    assert np.abs(off).max() < 0.02


def test_repair_noop_on_pd():
    rng = np.random.default_rng(11)
    for dim in (1, 4, 9):
        b = rng.standard_normal((dim, dim))
        a = b.T @ b + 0.5 * np.eye(dim)
        f, lam = _repair(a, 1e-6)
        assert lam == 0.0
        g = factorize(a)
        assert np.allclose(f.lower_factor, g.lower_factor)


def test_repair_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # lambda_min = -1
    f, lam = _repair(a, 0.5)
    min_eig = np.linalg.eigvalsh(a)[0]
    assert lam >= -min_eig  # enough jitter to clear the negative eigenvalue
    assert lam < 1e12 * 0.5
    assert np.all(np.linalg.eigvalsh(a + lam * np.eye(2)) >= -1e-12)
    # doubling sequence: previous value (lam/2) must not have been enough
    assert lam / 2.0 < -min_eig
    assert np.allclose(f.matrix(), a + lam * np.eye(2))


def test_repair_zero_matrix():
    f, lam = _repair(np.zeros((2, 2)), 1.0)
    assert lam == 1.0
    assert np.allclose(f.matrix(), np.eye(2))


def test_repair_failure():
    # lam past the cap: the row gets None and lam 0
    assert _repair(np.array([[-1e30]]), 1e-12) == (None, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_repair_non_finite_fails_before_any_cholesky(bad, monkeypatch):
    # no jitter makes a non-finite matrix finite: fail without escalating,
    # that is without a factorize attempt or a LAPACK Cholesky
    calls = []
    for name in ("factorize", "dpotrf"):
        monkeypatch.setattr(linalg, name, _counting(calls, getattr(linalg, name)))
    assert _repair(np.array([[bad, 0.0], [0.0, 1.0]]), 1.0) == (None, 0.0)
    with pytest.raises(NotPositiveDefinite):
        factorize(np.array([[bad, 0.0], [0.0, 1.0]]))
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_repair_rejects_non_finite_floor(bad):
    # a NaN floor passed "floor <= 0", and an indefinite matrix then never
    # reached the cap; a finite matrix shows it without escalating
    with pytest.raises(ValueError, match="finite and positive"):
        repair_to_pd(np.eye(2)[None], bad)


def test_repair_jitters_the_symmetric_part():
    # asymmetric within SYMMETRY_RTOL of its largest entry, -100, but not of
    # the largest entry of a + 64 I, -36: the jitter goes on the part the
    # first attempt symmetrized, so later attempts check an exact symmetry
    a = np.array([[-100.0, 1.0 + 5e-7], [1.0, -100.0]])
    sym = 0.5 * (a + a.T)
    f, lam = _repair(a, 1.0)
    assert lam == 128.0
    assert np.array_equal(f.lower_factor, factorize(sym + lam * np.eye(2)).lower_factor)
    with pytest.raises(DimensionMismatch):
        factorize(a + 64.0 * np.eye(2))


def test_factor_is_frozen():
    f = factorize(np.eye(2))
    with pytest.raises(AttributeError):
        f.log_det = 1.0


# The LAPACK calls must give what the scipy.linalg wrappers give, bit for bit.
LAPACK_DIMS = (1, 4, 64, 144)


def _spd(dim, seed):
    b = np.random.default_rng(seed).standard_normal((dim, dim))
    a = b @ b.T + dim * np.eye(dim)
    return 0.5 * (a + a.T)


def _diagonal(dim, beta=2.5):
    """The factor of beta * I carrying its inverse, as HMC's mass does."""
    return linalg.with_inverse(factorize(beta * np.eye(dim)))


def _dense(f):
    """f carrying its dense inverse: the oracle of a diagonal factor."""
    return replace(f, inv=linalg.inverse(f))


def _same_bits(a, b):
    """Equal shape and bits: unlike array_equal, -0.0 differs from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", LAPACK_DIMS)
def test_factorize_and_solve_match_scipy_bitwise(dim):
    a = _spd(dim, dim)
    f = factorize(a)
    lower = scipy.linalg.cholesky(a, lower=True)
    assert np.array_equal(f.lower_factor, lower)
    assert f.lower_factor.flags.f_contiguous
    assert f.log_det == 2.0 * float(np.sum(np.log(np.diag(lower))))
    v = np.random.default_rng(dim + 1).standard_normal(dim)
    assert np.array_equal(solve(f, v), scipy.linalg.cho_solve((lower, True), v))
    assert np.array_equal(linalg.inverse(f),
                          scipy.linalg.cho_solve((lower, True), np.eye(dim)))
    # asymmetric within SYMMETRY_RTOL: factorized after symmetrizing
    b = a + 1e-12 * np.triu(np.ones((dim, dim)), 1)
    assert np.array_equal(factorize(b).lower_factor,
                          scipy.linalg.cholesky(0.5 * (b + b.T), lower=True))


# Run in a fresh interpreter, since this module has imported scipy.linalg.
SAME_LAPACK_CODE = """
import sys
import numpy as np
{imports}
import scipy.linalg
from hessmc import linalg
assert linalg._flapack is scipy.linalg.lapack._flapack
assert linalg.dpotrf is scipy.linalg.lapack.dpotrf
assert linalg.dpotrs is scipy.linalg.lapack.dpotrs
b = np.random.default_rng(64).standard_normal((64, 64))
a = b @ b.T + 64 * np.eye(64)
a = 0.5 * (a + a.T)
v = np.random.default_rng(65).standard_normal(64)
f = linalg.factorize(a)
lower = scipy.linalg.cholesky(a, lower=True)
assert np.array_equal(f.lower_factor, lower)
assert np.array_equal(linalg.solve(f, v), scipy.linalg.cho_solve((lower, True), v))
print("ok")
"""


@pytest.mark.parametrize("imports", [
    # hessmc first: scipy.linalg then finds the LAPACK module hessmc loaded
    "import hessmc; assert 'scipy.linalg' not in sys.modules",
    "import scipy.linalg; import hessmc",
])
def test_same_lapack_routines_in_either_import_order(imports):
    out = python("-c", SAME_LAPACK_CODE.format(imports=imports), check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@pytest.mark.parametrize("dim", LAPACK_DIMS)
def test_repair_jitter_matches_scipy_escalation_bitwise(dim):
    # shift the spectrum below zero so that repair has to jitter
    a = _spd(dim, dim) - 1.5 * np.linalg.eigvalsh(_spd(dim, dim))[-1] * np.eye(dim)
    floor = 1e-3
    lam = 0.0
    while True:  # the escalation as it was written over scipy.linalg.cholesky
        try:
            lower = scipy.linalg.cholesky(a + lam * np.eye(dim), lower=True)
            break
        except scipy.linalg.LinAlgError:
            lam = floor if lam == 0.0 else 2.0 * lam
    f, got = _repair(a, floor)
    assert got == lam > 0.0
    assert np.array_equal(f.lower_factor, lower)
    assert f.lower_factor.flags.f_contiguous


@pytest.mark.parametrize("dim", LAPACK_DIMS)
def test_lapack_path_keeps_its_errors(dim):
    f = factorize(_spd(dim, dim))
    v = np.ones(dim)
    v[-1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve(f, v)
    with pytest.raises(NotPositiveDefinite):
        factorize(-_spd(dim, dim))


def test_repair_calls_factorize_once_per_attempt(monkeypatch):
    # one symmetry scan per attempt, but none for the first attempt on an
    # exactly symmetric row (a bare dpotrf); the first attempt on another
    # row is that scan and a dpotrf, a jittered attempt one factorize
    calls, checks = [], []
    monkeypatch.setattr(linalg, "factorize", _counting(calls, linalg.factorize))
    monkeypatch.setattr(linalg, "_check_symmetric",
                        _counting(checks, linalg._check_symmetric))
    _repair(np.eye(3), 0.3)
    assert len(calls) == len(checks) == 0
    _repair(np.eye(3) + 1e-12 * np.triu(np.ones((3, 3)), 1), 0.3)
    assert (len(calls), len(checks)) == (0, 1)
    calls.clear()
    checks.clear()
    # lambda_min = -1: lam runs 0 (the bare dpotrf), 0.3, 0.6 and stops at 1.2
    f, lam = _repair(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.3)
    assert lam == pytest.approx(1.2)
    assert len(calls) == len(checks) == 3


def test_factorize_stores_no_inverse():
    # a stored inverse is a second d x d array: only a chain's constant mass
    # asks for one, through with_inverse
    f = factorize(_spd(4, 4))
    assert f.inv is None
    g = linalg.with_inverse(f)
    assert g.inv is not None and f.inv is None
    assert g.lower_factor is f.lower_factor and g.log_det == f.log_det
    assert np.array_equal(g.inv, linalg.inverse(f))
    assert "inv" not in repr(g)


@pytest.mark.parametrize("dim", LAPACK_DIMS)
def test_stored_inverse_solve_keeps_every_check(dim):
    # the matvec path refuses exactly what the dpotrs path refuses; a
    # (K, dim) stack, (dim, dim) say, is K vectors to solve
    bare = factorize(_spd(dim, dim))
    for f in (bare, linalg.with_inverse(bare), _diagonal(dim)):
        for bad in (np.ones(dim + 1), np.ones((dim, dim + 1)), np.ones((2, dim, 1)), 1.0):
            with pytest.raises(DimensionMismatch, match="expected a vector"):
                solve(f, bad)
        assert solve(f, np.ones((dim, dim))).shape == (dim, dim)
        for value in (np.nan, np.inf, -np.inf):
            v = np.ones(dim)
            v[dim // 2] = value
            with pytest.raises(ValueError, match="infs or NaNs") as exc:
                solve(f, v)
            assert isinstance(exc.value, linalg.NonFiniteVector)
            assert exc.value.rows is None


def test_stored_inverse_solve_is_one_matvec(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "dpotrs", _counting(calls, linalg.dpotrs))
    bare = factorize(_spd(5, 5))
    f = linalg.with_inverse(bare)
    calls.clear()
    v = np.random.default_rng(0).standard_normal(5)
    assert np.array_equal(solve(f, v), f.inv @ v)
    assert not calls
    solve(bare, v)
    assert len(calls) == 1


@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("dim", LAPACK_DIMS)
def test_solve_rows_equals_solve_per_row(dim, k):
    # a (K, d) stack against one factor: each row gets the bits of its
    # contiguous 1-D solve, whatever the stack's memory layout
    bare = factorize(_spd(dim, dim))
    rng = np.random.default_rng(k)
    v = rng.standard_normal((k, dim))
    strided = rng.standard_normal((k, 2 * dim))[:, ::2]
    stacks = (v, strided, np.asfortranarray(rng.standard_normal((k, dim))))
    for f in (bare, linalg.with_inverse(bare)):
        for stack in stacks:
            x = solve(f, stack)
            assert x.shape == (k, dim)
            for row, given in zip(x, stack):
                assert np.array_equal(row, solve(f, np.ascontiguousarray(given)))


def test_solve_rows_keeps_the_checks():
    bare = factorize(_spd(3, 3))
    for f in (bare, linalg.with_inverse(bare), _diagonal(3)):
        for bad in (np.ones(4), np.ones((2, 4)), np.ones((2, 3, 1))):
            with pytest.raises(DimensionMismatch, match="stack"):
                solve(f, bad)
        for value in (np.nan, np.inf, -np.inf):
            v = np.ones((3, 3))
            v[1, 1] = value
            with pytest.raises(ValueError, match="infs or NaNs") as exc:
                solve(f, v)
            assert exc.value.rows.tolist() == [False, True, False]


@pytest.mark.parametrize("dim", [1, 3])
def test_empty_stacks_keep_their_shape(dim):
    # a (0, d) stack solves to a (0, d) stack on every path
    bare = factorize(_spd(dim, dim))
    v = np.empty((0, dim))
    for x in (solve([], v), solve(bare, v), solve(linalg.with_inverse(bare), v),
              solve(_diagonal(dim), v)):
        assert x.shape == (0, dim)


def test_solve_result_is_its_own_array():
    # leapfrog scales and shifts the result in place: it must share no memory
    bare = factorize(_spd(3, 3))
    inverted = linalg.with_inverse(bare)
    v, stack = np.ones(3), np.ones((2, 3))
    for f in (bare, inverted, _diagonal(3)):
        for x, given in ((solve(f, v), v), (solve(f, stack), stack),
                         (solve([f, f], stack), stack)):
            assert x.flags.writeable and not np.shares_memory(x, given)
            assert not np.shares_memory(x, f.lower_factor)
            assert f.inv is None or not np.shares_memory(x, f.inv)


DIAGONAL_BETAS = (1.0, 2.5, 0.3, 1e-3, 12345.678, 1e-300, 1e300)


def test_only_a_diagonal_factor_keeps_a_diagonal_inverse():
    # with_inverse reads the structure off L: a diagonal L, -0.0 entries
    # included, keeps the diagonal of inverse(f); any other keeps all of it
    for dim in LAPACK_DIMS:
        f = factorize(np.diag(np.linspace(0.5, 3.0, dim)))
        assert _diagonal(dim).inv.shape == linalg.with_inverse(f).inv.shape == (dim,)
        for g in (f, *(factorize(beta * np.eye(dim)) for beta in DIAGONAL_BETAS)):
            assert _same_bits(linalg.with_inverse(g).inv, linalg.inverse(g).diagonal())
    lower = np.diag([1.0, 2.0, 3.0, 4.0])
    lower[2, 0] = -0.0
    assert linalg.with_inverse(SpdFactor(4, lower, 0.0)).inv.shape == (4,)
    assert _same_bits(linalg.with_inverse(SpdFactor(4, lower, 0.0)).inv,
                      linalg.inverse(SpdFactor(4, lower, 0.0)).diagonal())
    assert linalg.with_inverse(factorize(_spd(4, 4))).inv.shape == (4, 4)
    tridiagonal = np.eye(4) + 0.25 * (np.eye(4, k=1) + np.eye(4, k=-1))
    assert linalg.with_inverse(factorize(tridiagonal)).inv.shape == (4, 4)


def test_diagonal_inverse_is_not_the_dense_inverse(monkeypatch):
    # a diagonal factor's inverse is one solve against ones, not the O(d**3)
    # inverse against the identity; a dense factor still takes inverse
    calls = []
    monkeypatch.setattr(linalg, "inverse", _counting(calls, linalg.inverse))
    assert linalg.with_inverse(factorize(2.5 * np.eye(144))).inv.shape == (144,)
    assert calls == []
    assert linalg.with_inverse(factorize(_spd(4, 4))).inv.shape == (4, 4)
    assert len(calls) == 1


@pytest.mark.parametrize("beta", DIAGONAL_BETAS)
@pytest.mark.parametrize("dim", LAPACK_DIMS)
def test_diagonal_factor_solves_and_draws_as_its_dense_inverse(dim, beta):
    # each row of inv @ v and of L @ z is one nonzero product plus exact
    # zeros, so one elementwise product gives the same bits
    f = _diagonal(dim, beta)
    dense = _dense(f)
    rng = np.random.default_rng(dim)
    v = rng.standard_normal(dim)
    assert _same_bits(solve(f, v), solve(dense, v))
    for k in (1, 3):
        stacks = (rng.standard_normal((k, dim)), rng.standard_normal((k, 2 * dim))[:, ::2],
                  np.asfortranarray(rng.standard_normal((k, dim))))
        for stack in stacks:
            assert _same_bits(solve(f, stack), solve(dense, stack))
    draws = [sample_gaussian(g, np.random.default_rng(7)) for g in (f, dense)]
    assert _same_bits(*draws)


@pytest.mark.parametrize("beta", DIAGONAL_BETAS)
@pytest.mark.parametrize("dim", LAPACK_DIMS)
def test_diagonal_factor_in_a_per_row_list(dim, beta):
    # a list that mixes diagonal, dense and bare factors: each row gets the
    # bits its own factor gives it alone
    factors = [_diagonal(dim, beta), linalg.with_inverse(factorize(_spd(dim, 1))),
               factorize(_spd(dim, 2)), factorize(beta * np.eye(dim)), _diagonal(dim, 1.0)]
    oracle = [_dense(g) if g.inv is not None and g.inv.ndim == 1 else g for g in factors]
    v = np.random.default_rng(dim).standard_normal((len(factors), dim))
    x = solve(factors, v)
    assert _same_bits(x, solve(oracle, v))
    for row, g, given in zip(x, factors, v):
        assert _same_bits(row, solve(g, given))


def test_repair_scans_finiteness_once(monkeypatch):
    # repair_to_pd's own scan covers its first attempt (a bare dpotrf on an
    # exactly symmetric row, no check at all); a jittered attempt, whose
    # matrix it has not scanned, is scanned by factorize
    seen = []
    check = linalg._check_symmetric
    monkeypatch.setattr(linalg, "_check_symmetric",
                        lambda m, finite=False: seen.append(finite) or check(m, finite))
    _repair(np.eye(3), 0.3)
    assert seen == []
    _repair(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.3)
    assert seen == [False, False, False]
    seen.clear()
    # asymmetric within SYMMETRY_RTOL: the first attempt is factorize's
    _repair(np.array([[1.0, 2.0 + 1e-9], [2.0, 1.0]]), 0.3)
    assert seen == [True, False, False, False]


@pytest.mark.parametrize("dim", LAPACK_DIMS)
def test_solve_takes_one_factor_per_row(dim, monkeypatch):
    # each row of a stack against its own factor, checked once for the stack
    factors = [factorize(_spd(dim, seed)) for seed in range(3)]
    factors[1] = linalg.with_inverse(factors[1])
    v = np.random.default_rng(dim).standard_normal((3, dim))
    expected = [solve(f, row) for f, row in zip(factors, v)]
    scans = []
    monkeypatch.setattr(linalg.np, "isfinite", _counting(scans, np.isfinite))
    x = solve(factors, v)
    assert len(scans) == 1
    monkeypatch.undo()
    assert x.shape == (3, dim)
    for row, ref in zip(x, expected):
        assert np.array_equal(row, ref)
    for bad in (factors[:2], factors[:2] + [factorize(np.eye(dim + 1))]):
        with pytest.raises(DimensionMismatch, match="stack"):
            solve(bad, v)
    with pytest.raises(DimensionMismatch, match="stack"):
        solve(factors, v[0])
    for value in (np.nan, np.inf, -np.inf):
        v[2, 0] = value
        with pytest.raises(ValueError, match="infs or NaNs") as exc:
            solve(factors, v)
        assert exc.value.rows.tolist() == [False, False, True]


def _repair_stack(dim):
    """Rows that repair_to_pd takes at lam = 0, jitters, symmetrizes, and
    fails on (non-finite, unrepairable)."""
    pd = _spd(dim, dim)
    indefinite = pd - 1.5 * np.linalg.eigvalsh(pd)[-1] * np.eye(dim)
    near = pd + 1e-12 * np.triu(np.ones((dim, dim)), 1)  # within SYMMETRY_RTOL
    non_finite = pd.copy()
    non_finite[-1, 0] = non_finite[0, -1] = np.nan
    return np.array([pd, indefinite, near, non_finite, -1e300 * np.eye(dim)])


def _escalate(matrix, floor):
    """The repair of one matrix, written out as a reference: None if it is not
    finite, else factorize at lam = 0, then floor, 2*floor, ... on its
    symmetric part, and None past floor * 1e12."""
    if not np.isfinite(matrix).all():
        return None, 0.0
    try:
        return factorize(matrix), 0.0
    except NotPositiveDefinite:
        pass
    sym, lam = 0.5 * (matrix + matrix.T), floor
    while lam <= 1e12 * floor:
        try:
            return factorize(sym + lam * np.eye(len(matrix))), lam
        except NotPositiveDefinite:
            lam *= 2.0
    return None, 0.0


@pytest.mark.parametrize("dim", LAPACK_DIMS)
def test_repair_rows_equals_repair_to_pd_per_row(dim):
    # each row of a stack gets the bits the one-matrix escalation gives it
    stack = _repair_stack(dim)
    factors, lams = repair_to_pd(stack, 1e-3)
    assert lams.shape == (len(stack),)
    for matrix, f, lam in zip(stack, factors, lams):
        ref, ref_lam = _escalate(matrix, 1e-3)
        assert lam == ref_lam
        if ref is None:
            assert f is None
            continue
        assert np.array_equal(f.lower_factor, ref.lower_factor)
        assert f.log_det == ref.log_det
    assert [f is None for f in factors] == [False, False, False, True, True]
    assert lams[0] == lams[2] == 0.0 < lams[1]


def test_repair_rows_checks_the_stack_once(monkeypatch):
    # exactly symmetric PD rows: one dpotrf each and no per-row factorize,
    # so no per-row shape, finiteness or symmetry check
    calls, checks = [], []
    monkeypatch.setattr(linalg, "dpotrf", _counting(calls, linalg.dpotrf))
    monkeypatch.setattr(linalg, "factorize", _counting(checks, linalg.factorize))
    stack = np.array([_spd(4, seed) for seed in range(8)])
    factors, lams = repair_to_pd(stack, 1e-3)
    assert len(calls) == 8 and checks == []
    assert not lams.any() and all(f is not None for f in factors)


def test_repair_rows_keeps_the_checks():
    for shape in ((3,), (2, 3), (2, 3, 4), (1, 2, 2, 2)):
        with pytest.raises(DimensionMismatch, match="stack"):
            repair_to_pd(np.ones(shape), 1e-3)
    with pytest.raises(DimensionMismatch, match="not symmetric"):
        repair_to_pd(np.array([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]), 1e-3)
    with pytest.raises(ValueError, match="finite and positive"):
        repair_to_pd(np.array([np.eye(2)]), np.nan)


@pytest.mark.parametrize("dim", LAPACK_DIMS)
def test_repair_point_equals_one_row_stack(dim, monkeypatch):
    # a (d, d) matrix is one point: the factor bits, log_det, lam (a float)
    # or None of its one-row stack
    for matrix in _repair_stack(dim):  # PD, jittered, near, non-finite, unrepairable
        (ref,), (ref_lam,) = repair_to_pd(matrix[None], 1e-3)
        f, lam = repair_to_pd(matrix, 1e-3)
        assert type(lam) is float and lam == ref_lam
        assert (f is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(f.lower_factor, ref.lower_factor)
            assert f.log_det == ref.log_det
    asymmetric = np.eye(dim)
    asymmetric[-1, 0] = 0.5 if dim > 1 else 0.0
    if dim > 1:  # too asymmetric: the same refusal for a point and a stack
        with pytest.raises(DimensionMismatch, match="not symmetric") as point:
            repair_to_pd(asymmetric, 1e-3)
        with pytest.raises(DimensionMismatch, match="not symmetric") as stack:
            repair_to_pd(asymmetric[None], 1e-3)
        assert str(point.value) == str(stack.value)
    # an exactly symmetric PD point: one finiteness scan and one dpotrf
    scans, calls = [], []
    monkeypatch.setattr(linalg.np, "isfinite", _counting(scans, np.isfinite))
    monkeypatch.setattr(linalg, "dpotrf", _counting(calls, linalg.dpotrf))
    repair_to_pd(_spd(dim, dim), 1e-3)
    assert (len(scans), len(calls)) == (1, 1)


def test_repair_stops_when_the_jitter_overflows(monkeypatch):
    # floor 1e300 makes the cap floor * 1e12 inf; lam doubled past the
    # largest float became inf, inf * eye put NaN off the diagonal, and
    # inf <= inf kept the escalation going for ever. It stops at inf now,
    # after the 28 finite jitters 1e300 * 2**n, each of them too small
    calls, factorize = [], linalg.factorize

    def bounded(m):  # a regression fails here instead of hanging
        calls.append(m)
        assert len(calls) <= 100, "the jitter escalation does not stop"
        return factorize(m)

    monkeypatch.setattr(linalg, "factorize", bounded)
    matrix = np.array([[-1.7e308, 0.0], [0.0, 1.0]])
    assert repair_to_pd(matrix, 1e300) == (None, 0.0)
    assert len(calls) == 28
    factors, lams = repair_to_pd(matrix[None], 1e300)
    assert factors == [None] and lams.tolist() == [0.0] and len(calls) == 56
    # a jitter that is still finite repairs as before
    f, lam = repair_to_pd(np.array([[-1e300, 0.0], [0.0, 1.0]]), 1e300)
    assert lam == 2e300 and f.lower_factor[0, 0] == np.sqrt(1e300)


def test_solve_is_shape_check_then_checked_product():
    # solve's two halves: the shape checks, then the finiteness check and the
    # product, which a caller that has checked the shapes once calls alone
    bare = factorize(_spd(4, 4))
    v = np.random.default_rng(0).standard_normal((3, 4))
    for f in (bare, linalg.with_inverse(bare), _diagonal(4),
              [bare, _diagonal(4), linalg.with_inverse(bare)]):
        for x in (v, v[0]) if isinstance(f, linalg.SpdFactor) else (v,):
            linalg._check_dims(f, x)
            assert np.array_equal(linalg._solve_checked(f, x), solve(f, x))
        for bad in (np.ones((3, 5)), np.ones(5)):
            with pytest.raises(DimensionMismatch):
                linalg._check_dims(f, bad)
        w = v.copy()
        w[1, 2] = np.nan
        with pytest.raises(linalg.NonFiniteVector) as exc:
            linalg._solve_checked(f, w)
        assert exc.value.rows.tolist() == [False, True, False]
