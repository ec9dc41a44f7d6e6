"""Tests for the SPD factorization services."""
import numpy as np
import pytest
import scipy.linalg

from hessmc import linalg
from hessmc.linalg import (
    DimensionMismatch,
    NotPositiveDefinite,
    RepairFailed,
    SpdFactor,
    factorize,
    repair_to_pd,
    sample_gaussian,
    solve,
)


def _counting(calls, fn):
    """Wrap fn so that each call appends its arguments to calls."""
    return lambda *a, **k: calls.append(a) or fn(*a, **k)


class FixedNormals:
    """Generator stand-in returning a preset standard-normal vector."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, n):
        assert n == len(self.z)
        return self.z


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
        solve(factorize(np.eye(2)), np.ones((2, 2)))  # columns, not rows
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
        f, lam = repair_to_pd(a, 1e-6)
        assert lam == 0.0
        g = factorize(a)
        assert np.allclose(f.lower_factor, g.lower_factor)


def test_repair_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # lambda_min = -1
    f, lam = repair_to_pd(a, 0.5)
    min_eig = np.linalg.eigvalsh(a)[0]
    assert lam >= -min_eig  # enough jitter to clear the negative eigenvalue
    assert lam < 1e12 * 0.5
    assert np.all(np.linalg.eigvalsh(a + lam * np.eye(2)) >= -1e-12)
    # doubling sequence: previous value (lam/2) must not have been enough
    assert lam / 2.0 < -min_eig
    assert np.allclose(f.matrix(), a + lam * np.eye(2))


def test_repair_zero_matrix():
    f, lam = repair_to_pd(np.zeros((2, 2)), 1.0)
    assert lam == 1.0
    assert np.allclose(f.matrix(), np.eye(2))


def test_repair_failure():
    with pytest.raises(RepairFailed):
        repair_to_pd(np.array([[-1e30]]), 1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_repair_non_finite_fails_before_any_cholesky(bad, monkeypatch):
    # no jitter makes a non-finite matrix finite: fail without escalating,
    # that is without a factorize attempt or a LAPACK Cholesky
    calls = []
    for name in ("factorize", "dpotrf"):
        monkeypatch.setattr(linalg, name, _counting(calls, getattr(linalg, name)))
    with pytest.raises(RepairFailed):
        repair_to_pd(np.array([[bad, 0.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(NotPositiveDefinite):
        factorize(np.array([[bad, 0.0], [0.0, 1.0]]))
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_repair_rejects_non_finite_floor(bad):
    # a NaN floor passed "floor <= 0", and an indefinite matrix then never
    # reached the cap; a finite matrix shows it without escalating
    with pytest.raises(ValueError, match="finite and positive"):
        repair_to_pd(np.eye(2), bad)


def test_repair_jitters_the_symmetric_part():
    # asymmetric within SYMMETRY_RTOL of its largest entry, -100, but not of
    # the largest entry of a + 64 I, -36: the jitter goes on the part the
    # first attempt symmetrized, so later attempts check an exact symmetry
    a = np.array([[-100.0, 1.0 + 5e-7], [1.0, -100.0]])
    sym = 0.5 * (a + a.T)
    f, lam = repair_to_pd(a, 1.0)
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
    f, got = repair_to_pd(a, floor)
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
    # shape and symmetry are factorize's to check: one scan per attempt
    calls, checks = [], []
    monkeypatch.setattr(linalg, "factorize", _counting(calls, linalg.factorize))
    monkeypatch.setattr(linalg, "_check_symmetric",
                        _counting(checks, linalg._check_symmetric))
    repair_to_pd(np.eye(3), 0.3)
    assert len(calls) == len(checks) == 1
    calls.clear()
    checks.clear()
    # lambda_min = -1: lam runs 0, 0.3, 0.6 and stops at 1.2
    f, lam = repair_to_pd(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.3)
    assert lam == pytest.approx(1.2)
    assert len(calls) == len(checks) == 4
