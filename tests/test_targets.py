"""Tests for the log-normal field and Gaussian targets."""
import numpy as np
import pytest

from hessmc import linalg, targets
from hessmc.linalg import DimensionMismatch, factorize
from hessmc.targets import (
    GaussianTarget,
    LogNormalField,
    OutOfDomain,
    build_grid_covariance,
    gaussian_target,
)


def lognormal_1d(m=0.0, var=1.0):
    return LogNormalField(m=np.array([m]), sigma=factorize(np.array([[var]])))


def random_field(dim, rng, m_scale=0.5):
    b = rng.standard_normal((dim, dim))
    sigma = factorize(b.T @ b / dim + 0.3 * np.eye(dim))
    m = m_scale * rng.standard_normal(dim)
    return LogNormalField(m=m, sigma=sigma)


def fd_gradient(target, theta, rel=1e-6):
    g = np.empty_like(theta)
    for i in range(len(theta)):
        h = rel * theta[i]
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (target.potential(tp) - target.potential(tm)) / (2 * h)
    return g


def fd_hessian(target, theta, rel=1e-6):
    d = len(theta)
    h_mat = np.empty((d, d))
    for i in range(d):
        h = rel * theta[i]
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        h_mat[:, i] = (target.gradient(tp) - target.gradient(tm)) / (2 * h)
    return 0.5 * (h_mat + h_mat.T)


class TestLogNormalPotential:
    def test_unit_point(self):
        assert lognormal_1d().potential(np.array([1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_at_e(self):
        assert lognormal_1d().potential(np.array([np.e])) == pytest.approx(1.5)

    def test_separable(self):
        t = LogNormalField(m=np.zeros(2), sigma=factorize(np.eye(2)))
        assert t.potential(np.array([1.0, np.e])) == pytest.approx(1.5)

    def test_out_of_domain_is_inf(self):
        t = lognormal_1d()
        assert t.potential(np.array([-1.0])) == np.inf
        assert t.potential(np.array([0.0])) == np.inf


class TestLogNormalGradient:
    def test_at_e(self):
        g = lognormal_1d().gradient(np.array([np.e]))
        assert g[0] == pytest.approx(2.0 / np.e)

    def test_zero_at_map(self):
        rng = np.random.default_rng(5)
        t = random_field(6, rng)
        assert np.abs(t.gradient(t.map_point())).max() < 1e-8

    def test_out_of_domain_raises(self):
        with pytest.raises(OutOfDomain):
            lognormal_1d().gradient(np.array([-0.5]))

    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    def test_matches_finite_differences(self, dim):
        rng = np.random.default_rng(dim)
        t = random_field(dim, rng)
        for _ in range(5):
            theta = np.exp(t.m + 0.5 * rng.standard_normal(dim))
            g = t.gradient(theta)
            fd = fd_gradient(t, theta)
            assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(g)


class TestLogNormalHessian:
    def test_scalar_value_at_e(self):
        h = lognormal_1d().hessian(np.array([np.e]))
        assert h[0, 0] == pytest.approx(-1.0 / np.e**2)

    def test_map_identity(self):
        rng = np.random.default_rng(9)
        t = random_field(5, rng)
        theta_map = t.map_point()
        h = t.hessian(theta_map)
        d_inv = np.diag(1.0 / theta_map)
        expected = d_inv @ t.sigma_inv @ d_inv
        assert np.abs(h - expected).max() <= 1e-10 * np.abs(expected).max()
        factorize(h)  # PD at the mode: no repair needed

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        t = random_field(7, rng)
        theta = np.exp(rng.standard_normal(7))
        h = t.hessian(theta)
        assert np.abs(h - h.T).max() == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_matches_finite_differences(self, dim):
        rng = np.random.default_rng(100 + dim)
        t = random_field(dim, rng)
        for _ in range(5):
            theta = np.exp(t.m + 0.5 * rng.standard_normal(dim))
            h = t.hessian(theta)
            fd = fd_hessian(t, theta)
            assert np.abs(h - fd).max() <= 1e-4 * np.abs(h).max()


class TestMap:
    def test_scalar(self):
        assert lognormal_1d().map_point()[0] == pytest.approx(np.exp(-1.0))

    def test_identity_cancellation(self):
        t = LogNormalField(m=np.ones(2), sigma=factorize(np.eye(2)))
        assert np.allclose(t.map_point(), [1.0, 1.0])


class TestGridCovariance:
    def test_single_node(self):
        f = build_grid_covariance(1, 1, (10.0, 10.0), 1.0, variance=2.0, nugget=0.0)
        assert np.allclose(f.matrix(), [[2.0]])

    def test_two_nodes_at_lengthscale(self):
        # 1x2 grid over a width equal to the lengthscale
        f = build_grid_covariance(1, 2, (100.0, 1.0), 100.0, variance=1.0, nugget=0.0)
        k = f.matrix()
        assert k[0, 1] == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert k[0, 0] == pytest.approx(1.0)

    def test_desk_grid_factorizes(self):
        f = build_grid_covariance(8, 8, (8000.0, 4000.0), 1000.0, 1.0, 1e-6)
        assert f.dim == 64
        assert np.isfinite(f.log_det)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_grid_covariance(0, 2, (1.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            build_grid_covariance(2, 2, (1.0, 1.0), -1.0)


class TestNormalizationFreeContract:
    def test_constant_shift_leaves_decisions_unchanged(self):
        # adding the dropped normalization constant back must not change
        # any accept/reject decision under a shared seed
        from hessmc.samplers import LocalHessian, SamplerConfig, run_chain

        rng = np.random.default_rng(17)
        base = random_field(4, rng)
        constant = -0.5 * (-base.sigma.log_det)  # -1/2 log|Sigma^-1|

        class Shifted(LogNormalField):
            def potential(self, theta):
                return super().potential(theta) + constant

        shifted = Shifted(m=base.m.copy(), sigma=base.sigma)
        cfg = SamplerConfig(
            method="HLOCAL_HMC", dt=0.3, leapfrog_steps=5, n_samples=400
        )
        recs = [
            run_chain(t, LocalHessian(1e-6), cfg, t.map_point(),
                      np.random.default_rng(55))
            for t in (base, shifted)
        ]
        assert np.array_equal(recs[0].accept_flags, recs[1].accept_flags)
        assert np.array_equal(recs[0].samples, recs[1].samples)


class TestGaussianTarget:
    def test_at_mean(self):
        t = gaussian_target(np.zeros(2), factorize(np.eye(2)))
        assert t.potential(np.zeros(2)) == pytest.approx(0.0)
        assert np.allclose(t.gradient(np.zeros(2)), 0.0)

    def test_quadratic_value(self):
        t = gaussian_target(np.zeros(2), factorize(np.eye(2)))
        assert t.potential(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_hessian_constant(self):
        cov = factorize(np.array([[2.0, 1.0], [1.0, 2.0]]))
        t = gaussian_target(np.zeros(2), cov)
        h1 = t.hessian(np.zeros(2))
        h2 = t.hessian(np.array([5.0, -3.0]))
        assert np.allclose(h1, h2)
        assert np.allclose(h1 @ cov.matrix(), np.eye(2), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gaussian_target(np.zeros(3), factorize(np.eye(2)))

    def test_whole_space_domain(self):
        t = gaussian_target(np.zeros(2), factorize(np.eye(2)))
        assert t.potential(np.array([-1e6, 1e6])) == 1e12


def desk_field(rows, cols):
    """The CLI's default target on a rows x cols grid at desk spacing."""
    extent = (1000.0 * cols, 500.0 * rows)
    sigma = build_grid_covariance(rows, cols, extent, 1000.0, 1e-3, 1e-6)
    return LogNormalField(m=np.full(rows * cols, -1.0), sigma=sigma)


def perturbed_points(target, rng):
    theta_map = target.map_point()
    return [theta_map] + [
        theta_map * np.exp(0.05 * rng.standard_normal(target.dim)) for _ in range(3)
    ]


class TestPrecisionForm:
    """The stored precision matches the solve form it replaced."""

    @pytest.mark.parametrize("rows, cols", [(2, 2), (8, 8), (12, 12)])
    def test_matches_solve_form(self, rows, cols):
        t = desk_field(rows, cols)
        sigma_inv = np.column_stack([linalg.solve(t.sigma, e) for e in np.eye(t.dim)])
        for theta in perturbed_points(t, np.random.default_rng(rows)):
            log_theta = np.log(theta)
            r = log_theta - t.m
            v = linalg.solve(t.sigma, r)
            j = 0.5 * float(r @ v) + float(np.sum(log_theta))
            assert abs(t.potential(theta) - j) <= 1e-10 * abs(j)
            # the gradient vanishes at the MAP: scale by the size of its terms
            g_scale = np.linalg.norm((np.abs(v) + 1.0) / theta)
            g = t.gradient(theta) - (v + 1.0) / theta
            assert np.linalg.norm(g) <= 1e-10 * g_scale
            inv_theta = 1.0 / theta
            h = sigma_inv * np.outer(inv_theta, inv_theta)
            h[np.diag_indices_from(h)] -= (v + 1.0) * inv_theta**2
            assert np.linalg.norm(t.hessian(theta) - h) <= 1e-10 * np.linalg.norm(h)
            # the Gaussian N(m, Sigma) at log theta has the same residual
            g = gaussian_target(t.m, t.sigma)
            assert abs(g.potential(log_theta) - 0.5 * float(r @ v)) <= 1e-10 * abs(r @ v)
            assert np.linalg.norm(g.gradient(log_theta) - v) <= 1e-10 * np.linalg.norm(v)
            err = np.linalg.norm(g.hessian(log_theta) - sigma_inv)
            assert err <= 1e-10 * np.linalg.norm(sigma_inv)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (8, 8), (12, 12)])
    def test_field_is_its_log_space_gaussian_plus_jacobian(self, rows, cols):
        # J = G(x) + sum x, grad J = (grad G + 1)/theta and the Hessian is
        # D^-1 (Sigma^-1 - diag(grad G + 1)) D^-1 at x = log theta, D = diag(theta),
        # bit for bit, with Sigma^-1 held once, by the log-space Gaussian
        t = desk_field(rows, cols)
        g = t.log_space
        assert isinstance(g, GaussianTarget)
        assert t.sigma_inv is g.precision
        assert np.array_equal(g.mean, t.m)
        for theta in perturbed_points(t, np.random.default_rng(rows)):
            x = np.log(theta)
            assert t.potential(theta) == g.potential(x) + float(np.sum(x))
            v1 = g.gradient(x) + 1.0
            assert np.array_equal(t.gradient(theta), v1 / theta)
            inv_theta = 1.0 / theta
            h = g.hessian(x) * np.outer(inv_theta, inv_theta)
            h[np.diag_indices_from(h)] -= v1 * inv_theta**2
            assert np.array_equal(t.hessian(theta), h)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (8, 8), (12, 12)])
    def test_exactly_symmetric(self, rows, cols):
        t = desk_field(rows, cols)
        assert np.array_equal(t.sigma_inv, t.sigma_inv.T)
        for theta in perturbed_points(t, np.random.default_rng(rows)):
            h = t.hessian(theta)
            assert np.array_equal(h, h.T)
        g = gaussian_target(t.m, t.sigma)
        assert np.array_equal(g.precision, g.precision.T)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (8, 8), (12, 12)])
    def test_no_solve_per_call(self, rows, cols, monkeypatch):
        t = desk_field(rows, cols)
        g = gaussian_target(t.m, t.sigma)
        solve, calls = linalg.solve, []

        def counted(f, v):
            calls.append(f.dim)
            return solve(f, v)

        monkeypatch.setattr(linalg, "solve", counted)
        # a module that imports solve by name holds its own binding
        monkeypatch.setattr(targets, "solve", counted, raising=False)
        for theta in perturbed_points(t, np.random.default_rng(rows)):
            for target in (t, g):
                target.potential(theta)
                target.gradient(theta)
                target.hessian(theta)
        assert calls == []
