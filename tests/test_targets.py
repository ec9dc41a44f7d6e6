"""Tests for the log-normal field and Gaussian targets."""
import warnings

import numpy as np
import pytest

from hessmc import linalg, targets
from hessmc.linalg import DimensionMismatch, factorize
from hessmc.targets import (
    GaussianTarget,
    LogNormalField,
    OutOfDomain,
    TargetModel,
    build_grid_covariance,
)
from support import (
    RECORD_ARRAYS,
    desk_target,
    fd_gradient,
    fd_hessian,
    lognormal_1d,
    random_field,
)


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
        expected = d_inv @ t.log_space.precision @ d_inv
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


class TestPointHessian:
    """A point's Hessian takes one BLAS outer product, a stack's one einsum:
    the same bits."""

    @pytest.mark.parametrize("dim", [1, 4, 64, 144])
    def test_point_equals_einsum_and_stack_row(self, dim):
        # coordinates from 1e-150 to 1e150, so the outer products run from
        # 1e-300 to 1e300; each entry is one product either way
        rng = np.random.default_rng(dim)
        t = random_field(dim, rng)
        precision = t.log_space.precision
        stack = 10.0 ** rng.uniform(-150.0, 150.0, (8, dim))
        stack[1] = 10.0 ** rng.uniform(-1.0, 1.0, dim)  # a row near 1 too
        h_stack = t.hessian(stack)
        for k, theta in enumerate(stack):
            inv = 1.0 / theta
            outer = np.einsum("i,j->ij", inv, inv)
            assert np.array_equal(inv[:, None].dot(inv[None, :]), outer)
            v = precision.dot(np.log(theta) - t.m)
            expected = outer * precision
            expected[np.diag_indices(dim)] -= (v + 1.0) * inv**2
            h = t.hessian(theta)
            assert np.isfinite(h).all() and h.flags.c_contiguous
            assert np.array_equal(h, expected)
            assert np.array_equal(h, h_stack[k])


class TestPotentialAndHessian:
    """One point's endpoint evaluation: J and the Hessian from one log theta,
    one residual and one P r, unless potential or hessian is overridden."""

    @pytest.mark.parametrize("rows", [2, 8, 12])
    def test_bits_of_the_two_calls(self, rows):
        _, field = desk_target(rows, rows)
        for theta in perturbed_points(field, np.random.default_rng(rows)):
            j, h = targets.potential_and_hessian(field, theta)
            assert j == field.potential(theta)
            assert np.array_equal(h, field.hessian(theta))

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan])
    def test_outside_the_domain(self, bad):
        field = random_field(3, np.random.default_rng(3))
        theta = field.map_point()
        theta[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert targets.potential_and_hessian(field, theta) == (np.inf, None)

    def test_overrides_take_the_two_calls(self, monkeypatch):
        # a patch of the class, of the instance or a subclass's method is used
        field = random_field(3, np.random.default_rng(5))
        theta = field.map_point()
        j, h = targets.potential_and_hessian(field, theta)
        monkeypatch.setattr(LogNormalField, "potential", lambda self, x: 7.0)
        assert targets.potential_and_hessian(field, theta)[0] == 7.0
        monkeypatch.undo()
        monkeypatch.setattr(field, "hessian", lambda x: np.eye(3), raising=False)
        assert np.array_equal(targets.potential_and_hessian(field, theta)[1], np.eye(3))
        monkeypatch.undo()
        assert targets.potential_and_hessian(field, theta)[0] == j
        # no Hessian where the potential is not finite
        monkeypatch.setattr(LogNormalField, "potential", lambda self, x: np.inf)
        assert targets.potential_and_hessian(field, theta) == (np.inf, None)


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
        with pytest.raises(ValueError, match="too large to square"):
            build_grid_covariance(2, 2, (1.0, 1.0), 1e200)


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

    @pytest.mark.parametrize("override", ["potential", "hessian"])
    def test_an_override_is_used(self, override):
        # a subclass that overrides only potential (by a term that is not
        # constant) or only hessian runs HLOCAL_HMC bit for bit as a plain
        # target that forwards the three methods to it, which takes the two
        # separate endpoint calls, and not as the field it subclasses
        from hessmc.samplers import LocalHessian, SamplerConfig, run_chain

        base = random_field(4, np.random.default_rng(17))

        class Tilted(LogNormalField):
            def potential(self, theta):
                return super().potential(theta) + 0.3 * np.add.reduce(theta, -1)

        class Scaled(LogNormalField):
            def hessian(self, theta):
                return 1.5 * super().hessian(theta)

        class Forward(TargetModel):
            def __init__(self, inner):
                self.inner, self.dim = inner, inner.dim

            def potential(self, theta):
                return self.inner.potential(theta)

            def gradient(self, theta):
                return self.inner.gradient(theta)

            def hessian(self, theta):
                return self.inner.hessian(theta)

        field = (Tilted if override == "potential" else Scaled)(m=base.m, sigma=base.sigma)
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.3, leapfrog_steps=5, n_samples=200)
        recs = [run_chain(t, LocalHessian(1e-6), cfg, base.map_point(),
                          np.random.default_rng(55))
                for t in (field, Forward(field), base)]
        assert 0.0 < recs[0].accept_flags.mean() < 1.0
        for name in RECORD_ARRAYS:
            assert np.array_equal(getattr(recs[0], name), getattr(recs[1], name))
        assert not np.array_equal(recs[0].samples, recs[2].samples)


class TestGaussianTarget:
    def test_at_mean(self):
        t = GaussianTarget(np.zeros(2), factorize(np.eye(2)))
        assert t.potential(np.zeros(2)) == pytest.approx(0.0)
        assert np.allclose(t.gradient(np.zeros(2)), 0.0)

    def test_quadratic_value(self):
        t = GaussianTarget(np.zeros(2), factorize(np.eye(2)))
        assert t.potential(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_hessian_constant(self):
        cov = factorize(np.array([[2.0, 1.0], [1.0, 2.0]]))
        t = GaussianTarget(np.zeros(2), cov)
        h1 = t.hessian(np.zeros(2))
        h2 = t.hessian(np.array([5.0, -3.0]))
        assert np.allclose(h1, h2)
        assert np.allclose(h1 @ cov.matrix(), np.eye(2), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianTarget(np.zeros(3), factorize(np.eye(2)))

    def test_whole_space_domain(self):
        t = GaussianTarget(np.zeros(2), factorize(np.eye(2)))
        assert t.potential(np.array([-1e6, 1e6])) == 1e12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cov", [
        [[1e-310]], [[1.0, 0.0], [0.0, 1e-320]], [[1e-308]],
        [[4.52500460866315e-309, 2.452164143160955e-309, -2.751253955270747e-309],
         [2.452164143160955e-309, 2.880595466714604e-309, -1.94209694480767e-309],
         [-2.751253955270747e-309, -1.94209694480767e-309, 3.868545777839157e-309]],
    ], ids=["inverse-inf", "diagonal-inverse-inf", "symmetrized-inf", "mirrored-infs"])
    def test_non_finite_precision_refused(self, cov):
        # the covariance factorizes, but its inverse overflows: in the third
        # as the symmetrizing sum 1e308 + 1e308, and the fourth's inverse
        # holds -inf and inf in mirrored entries, whose sum is NaN; neither
        # sum warns, and no potential there is finite
        sigma = factorize(np.array(cov))
        with pytest.raises(linalg.NotPositiveDefinite, match="inverse is not finite"):
            GaussianTarget(np.zeros(len(cov)), sigma)
        with pytest.raises(linalg.NotPositiveDefinite, match="inverse is not finite"):
            LogNormalField(m=np.zeros(len(cov)), sigma=sigma)
        # a precision of 8.3e307, whose doubled sum stays finite, still builds
        t = GaussianTarget(np.zeros(1), factorize(np.array([[1.2e-308]])))
        assert np.isfinite(t.precision).all()


def perturbed_points(target, rng):
    theta_map = target.map_point()
    return [theta_map] + [
        theta_map * np.exp(0.05 * rng.standard_normal(target.dim)) for _ in range(3)
    ]


class TestPrecisionForm:
    """The stored precision matches the solve form it replaced."""

    @pytest.mark.parametrize("rows, cols", [(2, 2), (8, 8), (12, 12)])
    def test_matches_solve_form(self, rows, cols):
        _, t = desk_target(rows, cols)
        prec = np.column_stack([linalg.solve(t.sigma, e) for e in np.eye(t.dim)])
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
            h = prec * np.outer(inv_theta, inv_theta)
            h[np.diag_indices_from(h)] -= (v + 1.0) * inv_theta**2
            assert np.linalg.norm(t.hessian(theta) - h) <= 1e-10 * np.linalg.norm(h)
            # the Gaussian N(m, Sigma) at log theta has the same residual
            g = GaussianTarget(t.m, t.sigma)
            assert abs(g.potential(log_theta) - 0.5 * float(r @ v)) <= 1e-10 * abs(r @ v)
            assert np.linalg.norm(g.gradient(log_theta) - v) <= 1e-10 * np.linalg.norm(v)
            err = np.linalg.norm(g.hessian(log_theta) - prec)
            assert err <= 1e-10 * np.linalg.norm(prec)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (8, 8), (12, 12)])
    def test_field_is_its_log_space_gaussian_plus_jacobian(self, rows, cols):
        # J = G(x) + sum x, grad J = (grad G + 1)/theta and the Hessian is
        # D^-1 (Sigma^-1 - diag(grad G + 1)) D^-1 at x = log theta, D = diag(theta),
        # bit for bit, with Sigma^-1 held once, by the log-space Gaussian
        _, t = desk_target(rows, cols)
        g = t.log_space
        assert isinstance(g, GaussianTarget)
        # the field itself holds no d x d array: the precision lives in g alone
        assert not [v for v in vars(t).values() if np.ndim(v) == 2]
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
        _, t = desk_target(rows, cols)
        assert np.array_equal(t.log_space.precision, t.log_space.precision.T)
        for theta in perturbed_points(t, np.random.default_rng(rows)):
            h = t.hessian(theta)
            assert np.array_equal(h, h.T)
        g = GaussianTarget(t.m, t.sigma)
        assert np.array_equal(g.precision, g.precision.T)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (8, 8), (12, 12)])
    def test_no_solve_per_call(self, rows, cols, monkeypatch):
        _, t = desk_target(rows, cols)
        g = GaussianTarget(t.m, t.sigma)
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


class TestRowWise:
    """potential, gradient and hessian on a (K, d) stack equal the 1-D calls
    bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("rows", [2, 8, 12])
    def test_stack_equals_single_points(self, rows, k):
        # d = 4, 64, 144; a gemm R @ P would not give the 1-D bits
        _, field = desk_target(rows, rows)
        rng = np.random.default_rng(rows * 10 + k)
        stack = field.map_point() * np.exp(0.05 * rng.standard_normal((k, field.dim)))
        for target, points in ((field, stack), (field.log_space, np.log(stack))):
            j, g = target.potential(points), target.gradient(points)
            assert j.shape == (k,) and g.shape == (k, field.dim)
            for i, point in enumerate(points):
                assert j[i] == target.potential(point)
                assert np.array_equal(g[i], target.gradient(point))
            # a stack in another memory layout gives the same bits
            transposed = np.asfortranarray(points)
            assert np.array_equal(target.potential(transposed), j)
            assert np.array_equal(target.gradient(transposed), g)

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("rows", [2, 8, 12])
    def test_hessian_stack_equals_single_points(self, rows, k):
        # d = 4, 64, 144: a (K, d, d) stack whose rows are the 1-D Hessians
        _, field = desk_target(rows, rows)
        rng = np.random.default_rng(rows * 10 + k)
        stack = field.map_point() * np.exp(0.3 * rng.standard_normal((k, field.dim)))
        for target, points in ((field, stack), (field.log_space, np.log(stack))):
            h = target.hessian(points)
            assert h.shape == (k, field.dim, field.dim)
            for i, point in enumerate(points):
                assert np.array_equal(h[i], target.hessian(point))
            assert np.array_equal(target.hessian(np.asfortranarray(points)), h)

    @pytest.mark.parametrize("bad", [0.0, -0.5, -0.0, np.nan, -np.inf])
    def test_hessian_row_outside_orthant(self, bad):
        _, field = desk_target(2, 2)
        stack = np.tile(field.map_point(), (3, 1))
        stack[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain) as exc:
                field.hessian(stack)
        assert exc.value.rows.tolist() == [False, True, False]

    def test_row_outside_orthant(self):
        _, field = desk_target(2, 2)
        stack = np.tile(field.map_point(), (3, 1))
        stack[1, 2] = -0.5
        stack[2, 0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            j = field.potential(stack)
            with pytest.raises(OutOfDomain) as exc:
                field.gradient(stack)
        assert j[0] == field.potential(stack[0])
        assert j[1] == j[2] == np.inf
        assert exc.value.rows.tolist() == [False, True, True]

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.0, -np.inf, -0.5])
    def test_every_method_refuses_a_coordinate(self, bad):
        # the one domain check refuses NaN, zeros of either sign and negative
        # coordinates, for one point and in a stack, by the same rows
        _, field = desk_target(2, 2)
        point = field.map_point()
        point[1] = bad
        stack = np.tile(field.map_point(), (4, 1))
        stack[[0, 2], 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert field.potential(point) == np.inf
            j = field.potential(stack)
            assert j[0] == j[2] == np.inf and np.isfinite(j[[1, 3]]).all()
            for method in (field.gradient, field.hessian):
                with pytest.raises(OutOfDomain) as exc:
                    method(point)
                assert exc.value.rows is None
                with pytest.raises(OutOfDomain) as exc:
                    method(stack)
                assert exc.value.rows.tolist() == [True, False, True, False]

    def test_single_point_outside_has_no_rows(self):
        with pytest.raises(OutOfDomain) as exc:
            lognormal_1d().gradient(np.array([-1.0]))
        assert exc.value.rows is None
