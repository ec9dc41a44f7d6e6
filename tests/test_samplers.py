"""Tests for the four MCMC kernels and the leapfrog integrator."""
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from hessmc import cli, linalg, samplers
from hessmc.linalg import DimensionMismatch, factorize, sample_gaussian, solve
from hessmc.samplers import (
    KERNELS,
    ChainState,
    ConfigMismatch,
    FixedSpd,
    LocalHessian,
    NonFiniteGradient,
    PhaseState,
    SamplerConfig,
    ScaledIdentity,
    hamiltonian,
    hmap_mass,
    leapfrog,
    mh_accept,
    mh_propose,
    run_chain,
)
from hessmc.targets import GaussianTarget, LogNormalField, OutOfDomain, build_grid_covariance
from support import (
    FixedNormals,
    assert_reversible,
    assert_same_records,
    desk_target,
    energy_error_ratio,
    field_2x2,
    gaussian_2d,
    joined,
    lognormal_1d,
)


class CliffTarget(GaussianTarget):
    """Standard normal whose Hessian cannot be repaired beyond theta_0 = 1.

    As TargetModel documents, a (K, d) stack gets a (K, d, d) stack of
    Hessians, each row the Hessian of that row alone.
    """

    beyond = -1e300

    def hessian(self, theta):
        if np.ndim(theta) == 2:
            return np.array([self.hessian(row) for row in theta])
        return super().hessian(theta) if theta[0] <= 1.0 else np.array([[self.beyond]])


class NanCliffTarget(CliffTarget):
    """Standard normal whose Hessian is NaN beyond theta_0 = 1."""

    beyond = np.nan


class WallTarget(GaussianTarget):
    """Standard normal whose domain ends at theta_0 = 1.

    As TargetModel documents, past the wall its potential is +inf and its
    gradient and hessian raise OutOfDomain; in a (K, d) stack, a row past the
    wall gets a +inf potential, and OutOfDomain marks it in ``rows``.
    """

    def _past_wall(self, theta):
        return np.asarray(theta)[..., 0] > 1.0

    def _inside(self, theta, what):
        past = self._past_wall(theta)
        if past.any():
            rows = past if np.ndim(theta) == 2 else None
            raise OutOfDomain(f"{what} requested past the wall", rows)

    def potential(self, theta):
        past = self._past_wall(theta)
        if np.ndim(theta) == 1:
            return np.inf if past else super().potential(theta)
        return np.where(past, np.inf, super().potential(theta))

    def gradient(self, theta):
        self._inside(theta, "gradient")
        return super().gradient(theta)

    def hessian(self, theta):
        self._inside(theta, "hessian")
        return super().hessian(theta)


class SteepTarget(GaussianTarget):
    """Standard normal whose gradient is +inf beyond theta_0 = 1, inside its
    domain: a trajectory that crosses there diverges, its momentum turning
    -inf with no floating-point warning. Each row of a stack is its own."""

    def gradient(self, theta):
        past = np.asarray(theta)[..., :1] > 1.0
        return np.where(past, np.inf, super().gradient(theta))


class CountedField(LogNormalField):
    """Log-normal field that counts its one domain check, _log."""

    checks = 0

    def _log(self, theta):
        self.checks += 1
        return super()._log(theta)


class TestMhPropose:
    def test_affine(self):
        rng = FixedNormals([1.0, -1.0])
        y = mh_propose(np.zeros(2), 2.0, rng)
        assert np.allclose(y, [2.0, -2.0])

    def test_tiny_dt(self):
        rng = FixedNormals([1.0, 1.0])
        y = mh_propose(np.array([3.0, 4.0]), 1e-15, rng)
        assert np.allclose(y, [3.0, 4.0])

    @pytest.mark.parametrize("rows, count", [(3, 1), (1, 2)])
    def test_generator_count_must_match_rows(self, rows, count):
        # one generator for three rows would give them all the same noise, and
        # a second generator for one row would go unused
        rngs = [np.random.default_rng(s) for s in range(count)]
        with pytest.raises(DimensionMismatch, match="generators for"):
            mh_propose(np.zeros((rows, 2)), 0.1, rngs)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_stack_rows_equal_single_draws(self, k):
        # row r of a stack's proposal is the bits of row r proposed alone with
        # rngs[r], and each generator ends where it would alone
        stacked = [np.random.default_rng([5, r]) for r in range(k)]
        alone = [np.random.default_rng([5, r]) for r in range(k)]
        theta = np.random.default_rng(1).standard_normal((k, 64))
        for _ in range(50):
            prop = mh_propose(theta, 3e-4, stacked)
            rows = [mh_propose(t, 3e-4, rng) for t, rng in zip(theta, alone)]
            assert prop.tobytes() == np.array(rows).tobytes()
            theta = prop
        assert [r.bit_generator.state for r in stacked] == [
            r.bit_generator.state for r in alone]

    def test_proposal_scale(self):
        rng = np.random.default_rng(0)
        theta = np.array([1.0, 2.0])
        props = np.array([mh_propose(theta, 0.7, rng) for _ in range(100_000)])
        stds = props.std(axis=0)
        assert np.all(np.abs(stds - 0.7) < 0.02 * 0.7)


class TestMhAccept:
    def test_equal_potentials(self):
        assert mh_accept(1.0, 1.0, 0.999999)

    def test_uphill_threshold(self):
        alpha = np.exp(-1.0)
        assert mh_accept(1.0, 2.0, alpha - 1e-9)
        assert not mh_accept(1.0, 2.0, alpha + 1e-9)

    def test_infinite_proposal_rejected(self):
        assert not mh_accept(1.0, np.inf, 1e-300)

    def test_rows_take_each_rows_test(self):
        # (K,) arrays give each row's own flag, with no overflow warning for
        # a large gain (warnings from hessmc are errors here)
        rng = np.random.default_rng(2)
        j_cur = np.concatenate([rng.standard_normal(200), [1.0, 1.0, 1.0, 1.0, 900.0]])
        j_prop = np.concatenate([j_cur[:200] + rng.standard_normal(200),
                                 [1.0, np.inf, np.nan, 2.0, 1.0]])
        u = rng.random(len(j_cur))
        u[203] = np.exp(-1.0)  # exactly at the threshold: rejected
        flags = mh_accept(j_cur, j_prop, u)
        assert flags.dtype == bool
        assert flags.tolist() == [bool(mh_accept(a, b, c)) for a, b, c in
                                  zip(j_cur.tolist(), j_prop.tolist(), u.tolist())]
        assert flags[-5:].tolist() == [True, False, False, False, True]
        assert 0 < flags[:200].sum() < 200


class TestLeapfrog:
    def test_hand_step_quadratic(self):
        target = GaussianTarget(np.zeros(1), factorize(np.eye(1)))
        state = PhaseState(np.array([1.0]), np.array([0.0]))
        mass = factorize(np.eye(1))
        out = leapfrog(state, target, mass, 0.1, 1)
        assert out.position[0] == pytest.approx(0.995)
        assert out.momentum[0] == pytest.approx(-0.09975)

    def test_free_particle(self):
        # zero-curvature Gaussian approximated by a huge covariance
        target = GaussianTarget(np.zeros(2), factorize(1e300 * np.eye(2)))
        mass = factorize(np.eye(2))
        p0 = np.array([1.0, -2.0])
        state = PhaseState(np.zeros(2), p0.copy())
        out = leapfrog(state, target, mass, 0.5, 8)
        assert np.allclose(out.position, 8 * 0.5 * p0)
        assert np.allclose(out.momentum, p0)

    @pytest.mark.parametrize("target_name", ["gaussian", "lognormal"])
    def test_reversibility(self, target_name):
        rng = np.random.default_rng(12)
        if target_name == "gaussian":
            target = gaussian_2d()
            positions = rng.standard_normal((5, 2))
        else:
            target = LogNormalField(m=np.zeros(2), sigma=factorize(0.25 * np.eye(2)))
            positions = np.exp(0.3 * rng.standard_normal((5, 2)))
        mass = factorize(np.eye(2))
        for pos in positions:
            p = 0.5 * rng.standard_normal(2)
            assert_reversible(pos, p, target, mass, 0.05, 25)

    def test_divergence_sentinel(self):
        target = lognormal_1d()
        mass = factorize(np.eye(1))
        # huge momentum drives theta negative in one drift
        state = PhaseState(np.array([0.1]), np.array([-50.0]))
        out = leapfrog(state, target, mass, 0.1, 3)
        assert target.potential(out.position) == np.inf
        assert hamiltonian(out, target, mass) == np.inf

    def test_wall_crossed_mid_trajectory(self):
        # standard normal, unit mass: step 1 drifts to 0.6, step 2 to 1.05,
        # past the wall; the trajectory stops there with its half-step momentum
        target = WallTarget(np.zeros(1), factorize(np.eye(1)))
        dt, theta, p = 0.5, np.array([0.0]), np.array([1.2])
        inside = []
        for _ in range(2):
            p_half = p - 0.5 * dt * theta  # a standard normal's gradient is theta
            theta = theta + dt * p_half
            inside.append(not target._past_wall(theta))
            p = p_half - 0.5 * dt * theta
        assert inside == [True, False]
        start = PhaseState(np.array([0.0]), np.array([1.2]))
        out = leapfrog(start, target, factorize(np.eye(1)), dt, 5)
        assert np.array_equal(out.position, theta)
        assert np.array_equal(out.momentum, p_half)
        assert (out.position[0], out.momentum[0]) == pytest.approx((1.05, 0.9))

    def test_domain_checked_only_by_gradient(self):
        # L steps take L + 1 gradients, and each position's domain check is
        # the one inside its gradient: leapfrog makes none of its own
        class Counted(CountedField):
            gradients = 0

            def gradient(self, theta):
                self.gradients += 1
                return super().gradient(theta)

        plain = field_2x2()
        target = Counted(m=plain.m, sigma=plain.sigma)
        mass = hmap_mass(plain, 1e-6)[0]
        p0 = mass.lower_factor @ np.array([0.3, -0.2, 0.5, 0.1])
        out = leapfrog(PhaseState(plain.map_point(), p0), target, mass, 0.05, 7)
        assert (target.gradients, target.checks) == (8, 8)
        assert np.all(out.position > 0.0)

    def test_start_gradient_costs_no_call(self):
        # given the gradient at the start, L steps make L gradient calls
        plain = field_2x2()
        target = CountedField(m=plain.m, sigma=plain.sigma)
        mass = hmap_mass(plain, 1e-6)[0]
        start = PhaseState(plain.map_point(), mass.lower_factor @ np.full(4, 0.2))
        ref = leapfrog(start, plain, mass, 0.05, 7)
        out = leapfrog(replace(start, gradient=plain.gradient(start.position)), target,
                       mass, 0.05, 7)
        assert target.checks == 7
        assert np.array_equal(out.position, ref.position)
        assert np.array_equal(out.momentum, ref.momentum)
        assert np.array_equal(out.gradient, plain.gradient(out.position))

    @pytest.mark.parametrize("rows", [None, 1, 3], ids=["point", "one-row", "three-rows"])
    def test_result_fed_back_makes_l_calls(self, rows):
        # a result carries the gradient at its end, so fed back it makes L
        # gradient calls and gives the bits of a state without that gradient
        plain = field_2x2()
        target = CountedField(m=plain.m, sigma=plain.sigma)
        mass = hmap_mass(plain, 1e-6)[0]
        rng = np.random.default_rng(8)
        shape = (4,) if rows is None else (rows, 4)
        theta = plain.map_point() * np.exp(0.05 * rng.standard_normal(shape))
        first = leapfrog(PhaseState(theta, rng.standard_normal(shape) @ mass.lower_factor.T),
                         plain, mass, 0.05, 7)
        out = leapfrog(first, target, mass, 0.05, 7)
        assert target.checks == 7
        ref = leapfrog(PhaseState(first.position, first.momentum), plain, mass, 0.05, 7)
        for a, b in zip((out.position, out.momentum, out.gradient),
                        (ref.position, ref.momentum, ref.gradient)):
            assert np.array_equal(a, b)

    def test_stopped_row_fed_back_stops_at_once(self):
        # a row stopped outside the domain carries a NaN gradient, so fed back
        # it stays there, its momentum NaN; the other row goes on as alone
        target = WallTarget(np.zeros(1), factorize(np.eye(1)))
        mass = factorize(np.eye(1))
        first = leapfrog(PhaseState(np.array([[0.0], [-0.5]]), np.array([[1.2], [0.3]])),
                         target, mass, 0.5, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = leapfrog(first, target, mass, 0.5, 5)
        assert out.position[0, 0] == first.position[0, 0] > 1.0
        assert np.isnan(out.momentum[0]).all()
        alone = leapfrog(PhaseState(first.position[1], first.momentum[1]), target, mass, 0.5, 5)
        assert np.array_equal(out.position[1], alone.position)
        assert np.array_equal(out.momentum[1], alone.momentum)

    def test_carried_gradient_starts_the_trajectory(self):
        # the first half-kick takes the state's gradient as it is, even one
        # of another point, and L steps make L gradient calls
        plain = field_2x2()
        target = CountedField(m=plain.m, sigma=plain.sigma)
        mass = hmap_mass(plain, 1e-6)[0]
        theta, p = plain.map_point(), mass.lower_factor @ np.full(4, 0.2)
        other = plain.gradient(1.1 * theta)
        out = leapfrog(PhaseState(theta, p, other), target, mass, 0.05, 1)
        assert target.checks == 1
        p_half = p - 0.5 * 0.05 * other
        x = solve(mass, p_half) * 0.05 + theta
        assert np.array_equal(out.position, x)
        assert np.array_equal(out.momentum, p_half - 0.5 * 0.05 * plain.gradient(x))
        assert not np.array_equal(out.position, leapfrog(PhaseState(theta, p), plain, mass,
                                                         0.05, 1).position)

    @pytest.mark.parametrize("position, gradient",
                             [((4,), (3,)), ((2, 4), (4,)), ((1, 4), (4,)), ((4,), (1, 4))],
                             ids=["short", "point-for-stack", "point-for-row", "row-for-point"])
    def test_gradient_of_another_shape_refused(self, position, gradient):
        with pytest.raises(ValueError, match="the position's shape"):
            PhaseState(np.ones(position), np.ones(position), np.ones(gradient))

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
    def test_row_leaving_domain_stops_alone(self, per_row):
        # row 0 crosses the wall at step 2 of 5 and stops there with its
        # half-step momentum; rows 1 and 2 run all 5 steps, each as it would alone
        target = WallTarget(np.zeros(1), factorize(np.eye(1)))
        masses = [factorize(np.array([[m]])) for m in (1.0, 2.0, 0.5)]
        if not per_row:
            masses = [masses[0]] * 3
        mass = masses if per_row else masses[0]
        start = PhaseState(np.array([[0.0], [-0.5], [-0.2]]), np.array([[1.2], [0.3], [0.1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = leapfrog(start, target, mass, 0.5, 5)
        for k in range(3):
            alone = leapfrog(PhaseState(start.position[k], start.momentum[k]), target,
                             masses[k], 0.5, 5)
            assert np.array_equal(out.position[k], alone.position)
            assert np.array_equal(out.momentum[k], alone.momentum)
        assert out.position[0, 0] == pytest.approx(1.05)
        assert (out.position[1:] < 1.0).all()
        assert np.isnan(out.gradient[0]).all()
        assert np.array_equal(out.gradient[1:], target.gradient(out.position[1:]))
        assert target.potential(out.position).tolist()[0] == np.inf

    # each row's start (theta_0, p_0), and the step of 5 at which it crosses
    # the wall alone, with either the unit mass or its per-row mass (None:
    # it never does); in "all-stop" the last rows moving stop together
    NESTED = {
        "some-stop": ([(-0.5, 1.0), (0.0, 0.6), (0.5, 1.2), (0.0, 0.3)], [3, None, 1, None]),
        "all-stop": ([(-0.5, 1.0), (0.8, 1.2), (0.5, 1.2), (0.0, 2.0)], [3, 1, 1, 2]),
    }

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
    @pytest.mark.parametrize("case", list(NESTED))
    def test_rows_stopping_at_different_steps(self, case, per_row):
        # after each stop the rows still moving run the steps left as one
        # stack, in which rows stop again; each row ends as it would alone
        target = WallTarget(np.zeros(1), factorize(np.eye(1)))
        starts, stops = self.NESTED[case]
        masses = [factorize(np.array([[m]])) for m in (1.0, 2.0, 0.5, 1.5)]
        if not per_row:
            masses = [masses[0]] * 4
        start = PhaseState(*np.array(starts).T[:, :, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = leapfrog(start, target, masses if per_row else masses[0], 0.5, 5)
        for k, stop in enumerate(stops):
            alone = [leapfrog(PhaseState(start.position[k], start.momentum[k]), target,
                              masses[k], 0.5, steps) for steps in range(1, 6)]
            past = [s for s, a in enumerate(alone, 1) if target._past_wall(a.position)]
            assert (past[0] if past else None) == stop
            assert np.array_equal(out.position[k], alone[-1].position)
            assert np.array_equal(out.momentum[k], alone[-1].momentum)
            assert np.isnan(out.gradient[k]).all() == (stop is not None)
        inside = [stop is None for stop in stops]
        assert np.array_equal(out.gradient[inside], target.gradient(out.position[inside]))

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
    @pytest.mark.parametrize("case", list(NESTED))
    def test_rows_diverging_at_different_steps(self, case, per_row):
        # a row whose momentum stops being finite stops before its next drift,
        # with that momentum; the others go on, each as it would alone
        target = SteepTarget(np.zeros(1), factorize(np.eye(1)))
        starts, stops = self.NESTED[case]
        masses = [factorize(np.array([[m]])) for m in (1.0, 2.0, 0.5, 1.5)]
        if not per_row:
            masses = [masses[0]] * 4
        start = PhaseState(*np.array(starts).T[:, :, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = leapfrog(start, target, masses if per_row else masses[0], 0.5, 5)
            for k, stop in enumerate(stops):
                alone = leapfrog(PhaseState(start.position[k], start.momentum[k]), target,
                                 masses[k], 0.5, 5)
                assert np.array_equal(out.position[k], alone.position)
                assert np.array_equal(out.momentum[k], alone.momentum)
                assert np.array_equal(out.gradient[k], alone.gradient)
                # the stopped row ends where it crossed, its momentum -inf
                assert np.isfinite(out.momentum[k]).all() == (stop is None)
                assert np.isfinite(out.gradient[k]).all() == (stop is None)
        crossed = [stop is not None for stop in stops]
        assert (out.position[crossed, 0] > 1.0).all()
        assert (out.momentum[crossed] == -np.inf).all()

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
    @pytest.mark.parametrize("given", [False, True], ids=["computed", "given"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_writes_no_array_of_the_caller(self, k, given, per_row):
        # the half-kicks and drifts update leapfrog's own arrays in place
        target = field_2x2()
        rng = np.random.default_rng(k)
        theta = target.map_point() * np.exp(0.05 * rng.standard_normal((k, 4)))
        p = rng.standard_normal((k, 4))
        masses = [hmap_mass(target, 1e-6)[0], factorize(np.eye(4)),
                  linalg.with_inverse(factorize(2.0 * np.eye(4)))][:k]
        mass = masses if per_row else masses[0]
        grad = target.gradient(theta) if given else None
        ref = leapfrog(PhaseState(theta, p, grad), target, mass, 0.05, 4)
        for a in (theta, p) + ((grad,) if given else ()):
            a.flags.writeable = False
        out = leapfrog(PhaseState(theta, p, grad), target, mass, 0.05, 4)
        for a, b in zip((ref.position, ref.momentum, ref.gradient),
                        (out.position, out.momentum, out.gradient)):
            assert np.array_equal(a, b)

    def test_no_step_refused(self):
        state = PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="at least one step"):
            leapfrog(state, gaussian_2d(), factorize(np.eye(2)), 0.1, 0)

    @pytest.mark.parametrize("rows, count", [(1, 2), (3, 2)])
    def test_mass_count_must_match_rows(self, rows, count):
        # a list of another count is refused, though it repeats one factor
        state = PhaseState(np.zeros((rows, 2)), np.ones((rows, 2)))
        mass = [factorize(np.eye(2))] * count
        with pytest.raises(DimensionMismatch, match="masses for"):
            leapfrog(state, gaussian_2d(), mass, 0.1, 3)

    def test_energy_error_second_order(self):
        rng = np.random.default_rng(77)
        assert 3.5 <= energy_error_ratio(rng, gaussian_2d(), factorize(np.eye(2))) <= 4.5


class TestHamiltonian:
    def test_zero_energy(self):
        target = GaussianTarget(np.zeros(2), factorize(np.eye(2)))
        st = PhaseState(np.zeros(2), np.zeros(2))
        assert hamiltonian(st, target, factorize(np.eye(2))) == pytest.approx(0.0)

    def test_kinetic_identity_mass(self):
        target = GaussianTarget(np.array([3.0, 4.0]), factorize(np.eye(2)))
        # J = 0 at the mean is inconvenient here; use offset position with J = 2
        target = GaussianTarget(np.zeros(2), factorize(np.eye(2)))
        st = PhaseState(np.array([2.0, 0.0]), np.array([3.0, 4.0]))
        h = hamiltonian(st, target, factorize(np.eye(2)))
        assert h == pytest.approx(2.0 + 12.5)

    def test_logdet_term(self):
        target = GaussianTarget(np.zeros(1), factorize(1e300 * np.eye(1)))
        st = PhaseState(np.zeros(1), np.array([2.0]))
        mass = factorize(np.array([[4.0]]))
        h = hamiltonian(st, target, mass, include_logdet=True)
        assert h == pytest.approx(0.5 + 0.5 * np.log(4.0), rel=1e-6)

    @pytest.mark.parametrize("p", [-np.inf, np.inf, np.nan])
    def test_non_finite_momentum_is_infinite_energy(self, p):
        # a diverged leapfrog row: +inf, as for a position outside the domain
        target = GaussianTarget(np.zeros(1), factorize(np.eye(1)))
        st = PhaseState(np.array([0.5]), np.array([p]))
        assert hamiltonian(st, target, factorize(np.eye(1))) == np.inf
        assert hamiltonian(st, target, factorize(np.eye(1)), include_logdet=True) == np.inf

    def _stack(self):
        # four points of the 2x2 field, each with its own momentum and mass
        target = field_2x2()
        rng = np.random.default_rng(5)
        theta = target.map_point() * np.exp(0.1 * rng.standard_normal((4, 4)))
        p = rng.standard_normal((4, 4))
        masses = [hmap_mass(target, 1e-6)[0], factorize(np.eye(4)),
                  linalg.with_inverse(factorize(2.0 * np.eye(4))),
                  factorize(target.hessian(theta[3]))]
        return target, theta, p, masses

    @pytest.mark.parametrize("include_logdet", [False, True])
    @pytest.mark.parametrize("per_row", [False, True], ids=["one-factor", "k-factors"])
    def test_stack_rows_are_single_point_calls(self, per_row, include_logdet):
        target, theta, p, masses = self._stack()
        mass = masses if per_row else masses[0]
        h = hamiltonian(PhaseState(theta, p), target, mass, include_logdet)
        assert h.shape == (4,)
        for k in range(4):
            alone = hamiltonian(PhaseState(theta[k], p[k]), target,
                                masses[k] if per_row else masses[0], include_logdet)
            assert np.ndim(alone) == 0 and np.isfinite(alone)
            assert h[k] == alone
        one = hamiltonian(PhaseState(theta[:1], p[:1]), target, masses[:1], include_logdet)
        assert one.shape == (1,) and one[0] == h[0]

    @pytest.mark.parametrize("include_logdet", [False, True])
    @pytest.mark.parametrize("per_row", [False, True], ids=["one-factor", "k-factors"])
    def test_infinite_exactly_at_bad_rows(self, per_row, include_logdet):
        # row 0 lies outside the domain, rows 2 and 3 have a momentum that is
        # not finite; row 1 keeps the bits of its single-point call
        target, theta, p, masses = self._stack()
        theta[0, 1] = -theta[0, 1]
        p[2, 0], p[3, 3] = np.inf, np.nan
        mass = masses if per_row else masses[0]
        h = hamiltonian(PhaseState(theta, p), target, mass, include_logdet)
        assert (h == np.inf).tolist() == [True, False, True, True]
        assert h[1] == hamiltonian(PhaseState(theta[1], p[1]), target,
                                   masses[1] if per_row else masses[0], include_logdet)
        for rows in ([2], [2, 3]):  # a one-row stack, and every row stopped
            bad = hamiltonian(PhaseState(theta[rows], p[rows]), target,
                              [masses[r] for r in rows] if per_row else masses[0],
                              include_logdet)
            assert bad.tolist() == [np.inf] * len(rows)


class TestChecksBeforeTheSteps:
    """leapfrog and hamiltonian check a mass's count and dimension once, at
    entry, and the solves after do not: every public entry still refuses a
    mass that does not fit, and a momentum that is not finite still stops
    its row alone, for a point, a one-row stack and a three-row stack."""

    SHAPES = [(4,), (1, 4), (3, 4)]
    IDS = ["point", "1-row", "3-row"]

    def _state(self, shape, seed=0):
        target = field_2x2()
        rng = np.random.default_rng(seed)
        theta = target.map_point() * np.exp(0.05 * rng.standard_normal(shape))
        return target, theta, rng.standard_normal(shape)

    @pytest.mark.parametrize("distinct", [False, True], ids=["shared", "distinct"])
    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_wrong_mass_count_refused(self, shape, distinct):
        # a point takes one factor, a stack one or one per row; a list that
        # repeats one factor object is counted as any other list
        target, theta, p = self._state(shape)
        state = PhaseState(theta, p)
        rows = len(theta) if theta.ndim == 2 else None
        for count in {1, 2, 4} - {rows}:
            if distinct:
                masses = [factorize((c + 1.0) * np.eye(4)) for c in range(count)]
            else:
                masses = [factorize(np.eye(4))] * count
            with pytest.raises(DimensionMismatch, match="masses for"):
                hamiltonian(state, target, masses)
            with pytest.raises(DimensionMismatch, match="masses for"):
                leapfrog(state, target, masses, 0.05, 3)
            with pytest.raises(DimensionMismatch, match="stack"):
                solve(masses, p)

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_wrong_mass_dimension_refused(self, shape):
        target, theta, p = self._state(shape)
        state = PhaseState(theta, p)
        right = factorize(np.eye(4))
        for wrong in (factorize(np.eye(3)), linalg.with_inverse(factorize(np.eye(3))),
                      linalg.with_inverse(factorize(_spd3()))):
            masses = [wrong]
            if theta.ndim == 2:
                masses += [[wrong] * len(theta), [right] * (len(theta) - 1) + [wrong]]
            for mass in masses:
                for call in (lambda: hamiltonian(state, target, mass, include_logdet=True),
                             lambda: leapfrog(state, target, mass, 0.05, 3),
                             lambda: solve(mass, p)):
                    with pytest.raises(DimensionMismatch):
                        call()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("per_row", [False, True], ids=["one-factor", "k-factors"])
    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_non_finite_momentum_stops_its_row(self, shape, per_row, value):
        target, theta, p = self._state(shape)
        p.reshape(-1, 4)[-1, 2] = value  # the last row's, or the point's
        rows = len(p) if p.ndim == 2 else 1
        masses = [hmap_mass(target, 1e-6)[0], linalg.with_inverse(factorize(2.0 * np.eye(4))),
                  factorize(np.eye(4))][:rows]
        mass = masses if per_row and p.ndim == 2 else masses[0]
        bad = [False] * (rows - 1) + [True] if p.ndim == 2 else None
        with pytest.raises(linalg.NonFiniteVector) as exc:
            solve(mass, p)
        assert (exc.value.rows is None) if bad is None else exc.value.rows.tolist() == bad
        h = hamiltonian(PhaseState(theta, p), target, mass, include_logdet=True)
        out = leapfrog(PhaseState(theta, p), target, mass, 0.05, 3)
        if bad is None:
            assert h == np.inf
            assert np.array_equal(out.position, theta)
            assert not np.isfinite(out.momentum[2])
            return
        assert (h == np.inf).tolist() == bad
        # the bad row stops before its first drift; the others run as alone
        assert np.array_equal(out.position[-1], theta[-1])
        assert not np.isfinite(out.momentum[-1, 2])
        for k in range(len(p) - 1):
            alone = leapfrog(PhaseState(theta[k], p[k]), target,
                             masses[k] if per_row else masses[0], 0.05, 3)
            assert np.array_equal(out.position[k], alone.position)
            assert np.array_equal(out.momentum[k], alone.momentum)

    @pytest.mark.parametrize("k", [1, 3])
    def test_run_with_a_mass_of_another_dimension_refused(self, k):
        # refused at the first transition, before any momentum is drawn
        target = field_2x2()
        cfg = SamplerConfig("HMC", 0.05, leapfrog_steps=3, n_samples=2)
        runs = [[np.random.default_rng(c) for c in range(k)]]
        if k == 1:  # and one generator alone
            runs.append(np.random.default_rng(0))
        for rng in runs:
            drawn = [r.bit_generator.state for r in np.atleast_1d(rng)]
            with pytest.raises(DimensionMismatch):
                run_chain(target, FixedSpd(factorize(np.eye(3))), cfg, target.map_point(), rng)
            assert [r.bit_generator.state for r in np.atleast_1d(rng)] == drawn

    def test_policies_take_a_point(self):
        # a one-chain run asks for its one point's mass: a constant policy
        # gives the factor itself and jitter 0, building nothing, and the
        # local one the bits of a one-row stack's
        target = field_2x2()
        f = factorize(np.eye(4))
        theta = target.map_point() * np.exp(0.1 * np.random.default_rng(1).standard_normal(4))
        assert FixedSpd(f).mass_at(target)(theta) == (f, 0.0)
        local = LocalHessian(1e-6).mass_at(target)
        mass, lam = local(theta)
        (rows_mass,), (rows_lam,) = local(theta[None])
        assert np.array_equal(mass.lower_factor, rows_mass.lower_factor)
        assert mass.log_det == rows_mass.log_det and lam == rows_lam == 0.0


def _spd3():
    a = np.random.default_rng(3).standard_normal((3, 3))
    return a @ a.T + 3.0 * np.eye(3)


class TestHmcStep:
    def test_tiny_dt_always_accepts(self):
        target = gaussian_2d()
        mass = FixedSpd(factorize(np.eye(2)))
        cfg = SamplerConfig(method="HMC", dt=1e-8, leapfrog_steps=3, n_samples=1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.standard_normal(2)
            assert run_chain(target, mass, cfg, theta, rng).accept_flags[0]

    def test_acceptance_probability(self):
        # Average acceptance at moderate dt stays in (0, 1] and matches
        # exp(-E[dH]) qualitatively: larger dt, lower acceptance.
        target = gaussian_2d()
        mass = factorize(np.eye(2))
        rates = []
        for dt in (0.4, 1.2):
            cfg = SamplerConfig(method="HMC", dt=dt, leapfrog_steps=10)
            rng = np.random.default_rng(4)
            rec = run_chain(target, ScaledIdentity(), cfg, np.zeros(2), rng)
            rates.append(rec.accept_flags.mean())
        assert rates[0] > rates[1]

    def test_divergence_rejected(self):
        target = lognormal_1d()
        mass = FixedSpd(factorize(np.eye(1)))
        cfg = SamplerConfig(method="HMC", dt=5.0, leapfrog_steps=5, n_samples=1)
        rng = np.random.default_rng(1)
        rejected = 0
        for _ in range(50):
            rec = run_chain(target, mass, cfg, np.array([1e-3]), rng)
            if not rec.accept_flags[0]:
                assert rec.samples[0, 0] == 1e-3
                rejected += 1
        assert rejected > 0


class TestHlocalStep:
    def test_map_hessian_value(self):
        target = lognormal_1d()
        theta_map = target.map_point()  # e^-1
        g = target.hessian(theta_map)
        assert g[0, 0] == pytest.approx(np.e**2)
        mass, lam = hmap_mass(target, 1e-9)
        assert lam == 0.0
        assert mass.matrix()[0, 0] == pytest.approx(np.e**2)

    def test_stationary_degenerate_accepts(self):
        # theta_{k+1} == theta_k gives Delta = 0 and certain acceptance;
        # realized via a vanishing step size.
        target = lognormal_1d()
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=1e-12, leapfrog_steps=1, n_samples=1)
        rec = run_chain(target, LocalHessian(1e-9), cfg, target.map_point(),
                        np.random.default_rng(3))
        assert rec.accept_flags[0]

    @pytest.mark.parametrize("target_cls", [CliffTarget, NanCliffTarget, WallTarget])
    def test_bad_endpoint_rejected_with_one_uniform(self, target_cls):
        # an unrepairable or out-of-domain endpoint rejects through the one
        # accept test: one momentum draw, one uniform, the start point kept
        target = target_cls(np.zeros(1), factorize(np.eye(1)))
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.5, leapfrog_steps=1, n_samples=1)
        theta = np.array([0.9])
        ref = np.random.default_rng(3)
        p0 = ref.standard_normal(1)  # the unit mass makes p0 the normal draw
        ref.uniform()
        end = leapfrog(PhaseState(theta, p0), target, factorize(np.eye(1)), 0.5, 1)
        assert end.position[0] > 1.0  # this seed carries the trajectory past 1
        rng = np.random.default_rng(3)
        rec = run_chain(target, LocalHessian(1.0), cfg, theta, rng)
        assert not rec.accept_flags[0]
        assert np.array_equal(rec.samples[0], theta)
        assert rec.repair_lambdas[0] == 0.0
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_accepts_on_the_public_energy(self):
        # replay each of 3 lockstep chains from its generator: the momentum
        # normals, then the uniform; its accept flag is the test on the
        # change of ``hamiltonian``, start and end each with its own mass (an
        # end outside the domain takes its start's, as the policy does)
        target = field_2x2()
        spec = LocalHessian(1e-6)
        mass_at = spec.mass_at(target)
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.3, leapfrog_steps=5, n_samples=1,
                            include_logdet=True)
        seen = set()
        for seed in range(6):
            init = target.map_point() * np.exp(
                0.3 * np.random.default_rng(seed).standard_normal((3, 4)))
            rngs = [np.random.default_rng([seed, k]) for k in range(3)]
            rec = run_chain(target, spec, cfg, init, rngs)
            masses, _ = mass_at(init)
            for k in range(3):
                ref = np.random.default_rng([seed, k])
                start = PhaseState(init[k], masses[k].lower_factor @ ref.standard_normal(4))
                end = leapfrog(start, target, masses[k], cfg.dt, cfg.leapfrog_steps)
                inside = np.isfinite(target.potential(end.position))
                (end_mass,), _ = mass_at((end.position if inside else init[k])[None])
                d = (hamiltonian(start, target, masses[k], include_logdet=True)
                     - hamiltonian(end, target, end_mass, include_logdet=True))
                accept = bool(d >= 0.0 or ref.uniform() < np.exp(d))
                assert rec.accept_flags[k, 0] == accept
                assert rngs[k].bit_generator.state == ref.bit_generator.state
                seen.add((bool(d >= 0.0), accept, bool(inside)))
        # accepted outright, accepted by the uniform, rejected inside the
        # domain and rejected outside it all occur
        assert seen == {(True, True, True), (False, True, True), (False, False, True),
                        (False, False, False)}


class MapStub:
    """Target stand-in for hmap_mass: its MAP is 0, its Hessian the one given."""

    def __init__(self, hessian):
        self._hessian = np.asarray(hessian, dtype=float)

    def map_point(self):
        return np.zeros(len(self._hessian))

    def hessian(self, theta):
        return self._hessian


class TestHmapMass:
    @pytest.mark.parametrize("corner", [np.nan, -1e300], ids=["non-finite", "unrepairable"])
    def test_raises_when_the_map_hessian_cannot_be_repaired(self, corner):
        with pytest.raises(linalg.RepairFailed):
            hmap_mass(MapStub([[corner, 0.0], [0.0, 1.0]]), 1e-6)

    def test_returns_the_repaired_factor_and_its_jitter(self):
        # -1 + lam: lam 0.5 and 1.0 leave no positive pivot, 2.0 does
        mass, lam = hmap_mass(MapStub([[-1.0]]), 0.5)
        assert isinstance(mass, linalg.SpdFactor) and type(lam) is float
        assert lam == 2.0 and mass.matrix()[0, 0] == 1.0

    def test_diagonal_sigma(self):
        sigma = np.diag([0.5, 2.0])
        target = LogNormalField(m=np.array([0.2, -0.3]), sigma=factorize(sigma))
        mass, lam = hmap_mass(target, 1e-9)
        theta_map = target.map_point()
        expected = np.diag(1.0 / np.diag(sigma) / theta_map**2)
        assert lam == 0.0
        assert np.allclose(mass.matrix(), expected)


@pytest.mark.parametrize("beta", [1.0, 2.5, 1e-3])
def test_scaled_identity_factor_is_closed_form_cholesky(beta):
    target = field_2x2()
    (mass,), (lam,) = ScaledIdentity(beta).mass_at(target)(target.map_point()[None])
    ref = factorize(beta * np.eye(4))
    assert lam == 0.0
    assert np.array_equal(mass.lower_factor, ref.lower_factor)
    assert mass.lower_factor.flags.f_contiguous == ref.lower_factor.flags.f_contiguous
    assert mass.log_det == pytest.approx(ref.log_det, rel=1e-14)


class TestRunChain:
    def test_single_sample_tiny_dt(self):
        target = gaussian_2d()
        cfg = SamplerConfig(method="MH", dt=1e-14, n_samples=1)
        rec = run_chain(target, ScaledIdentity(), cfg, np.array([1.0, 2.0]),
                        np.random.default_rng(0))
        assert rec.samples.shape == (1, 2)
        assert np.allclose(rec.samples[0], [1.0, 2.0], atol=1e-12)

    def test_determinism(self):
        target = lognormal_1d()
        cfg = SamplerConfig(
            method="HLOCAL_HMC", dt=0.3, leapfrog_steps=5, n_samples=200, burn_in=50
        )
        recs = [
            run_chain(target, LocalHessian(1e-8), cfg, np.array([0.5]),
                      np.random.default_rng(99))
            for _ in range(2)
        ]
        assert np.array_equal(recs[0].samples, recs[1].samples)
        assert np.array_equal(recs[0].accept_flags, recs[1].accept_flags)
        assert np.array_equal(recs[0].potentials, recs[1].potentials)
        assert np.array_equal(recs[0].repair_lambdas, recs[1].repair_lambdas)

    @pytest.mark.parametrize(
        "method, dt, mass",
        [
            ("MH", 0.05, ScaledIdentity()),
            ("HMC", 0.05, ScaledIdentity()),
            ("HMAP_HMC", 0.3, None),
            ("HLOCAL_HMC", 0.3, LocalHessian(1e-6)),
        ],
    )
    def test_carried_potential_exact(self, method, dt, mass):
        target = field_2x2()
        mass = mass or FixedSpd(hmap_mass(target, 1e-6)[0])
        cfg = SamplerConfig(method=method, dt=dt, leapfrog_steps=5, n_samples=60,
                            burn_in=15)
        rec = run_chain(target, mass, cfg, target.map_point(), np.random.default_rng(5))
        assert 0.0 < rec.accept_flags.mean() < 1.0
        for theta, j in zip(rec.samples, rec.potentials):
            assert j == target.potential(theta)

    def test_carried_mass_exact_and_evaluated_once(self, monkeypatch):
        target = field_2x2()
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.3, leapfrog_steps=5, n_samples=60,
                            burn_in=15)
        theta = target.map_point()
        # the reference: one-transition chains sharing one generator, each of
        # which builds its start mass afresh
        one = replace(cfg, n_samples=1, burn_in=0)
        rng, position, steps = np.random.default_rng(5), theta, []
        for _ in range(cfg.burn_in + cfg.n_samples):
            rec = run_chain(target, LocalHessian(1e-6), one, position, rng)
            position = rec.samples[0]
            steps.append((position, rec.accept_flags[0], rec.repair_lambdas[0]))
        positions, flags, lambdas = (np.array(x[cfg.burn_in:]) for x in zip(*steps))

        calls = []
        hessian = LogNormalField.hessian
        monkeypatch.setattr(LogNormalField, "hessian",
                            lambda self, x: calls.append(x) or hessian(self, x))
        rec = run_chain(target, LocalHessian(1e-6), cfg, theta, np.random.default_rng(5))
        assert 0.0 < rec.accept_flags.mean() < 1.0
        assert np.array_equal(rec.samples, positions)
        assert np.array_equal(rec.accept_flags, flags)
        assert np.array_equal(rec.repair_lambdas, lambdas)
        # one Hessian at the initial point and one per proposed endpoint
        assert len(calls) <= 1 + cfg.burn_in + cfg.n_samples

    @pytest.mark.parametrize("spec", [ScaledIdentity(), LocalHessian(1e-6)])
    def test_mh_allocates_no_matrix(self, spec):
        # MH builds no mass: at d = 144 its peak allocation stays within half
        # a d x d array of its ChainRecord, where a 144 x 144 mass is 166 KB
        sigma = build_grid_covariance(12, 12, (12000.0, 6000.0), 1000.0, 1e-3, 1e-6)
        target = LogNormalField(m=np.full(144, -1.0), sigma=sigma)
        cfg = SamplerConfig(method="MH", dt=0.01, n_samples=200, burn_in=20)
        theta = target.map_point()
        tracemalloc.start()
        try:
            rec = run_chain(target, spec, cfg, theta, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the record's arrays and those of the state it ends in; MH's state
        # carries no gradient and no mass
        fields = dict(vars(rec))
        points = fields.pop("state").points
        assert points.grad is None and points.mass == [None]
        held = sum(a.nbytes for a in (*fields.values(), points.theta, points.j, points.lam))
        assert peak <= held + 0.5 * target.dim**2 * 8
        assert not rec.repair_lambdas.any()

    def test_burn_in_is_additional(self):
        target = gaussian_2d()
        cfg = SamplerConfig(method="MH", dt=0.5, n_samples=100, burn_in=100)
        rec = run_chain(target, ScaledIdentity(), cfg, np.zeros(2),
                        np.random.default_rng(1))
        assert rec.samples.shape == (100, 2)

    def test_rejections_repeat_position(self):
        target = lognormal_1d()
        cfg = SamplerConfig(method="MH", dt=5.0, n_samples=500)
        rec = run_chain(target, ScaledIdentity(), cfg, np.array([1.0]),
                        np.random.default_rng(8))
        rejected = ~rec.accept_flags[1:]
        assert rejected.any()
        same = rec.samples[1:][rejected] == rec.samples[:-1][rejected]
        assert same.all()
        assert np.all(rec.samples > 0)

    def test_config_mismatch(self):
        target = gaussian_2d()
        cfg = SamplerConfig(method="HMAP_HMC", dt=0.1)
        with pytest.raises(ConfigMismatch):
            run_chain(target, ScaledIdentity(), cfg, np.zeros(2),
                      np.random.default_rng(0))
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.1)
        with pytest.raises(ConfigMismatch):
            run_chain(target, FixedSpd(factorize(np.eye(2))), cfg, np.zeros(2),
                      np.random.default_rng(0))
        cfg = SamplerConfig(method="HMC", dt=0.1)
        with pytest.raises(ConfigMismatch):
            run_chain(target, LocalHessian(1e-8), cfg, np.zeros(2),
                      np.random.default_rng(0))

    # the pairings each method accepts; every other pairing is a mismatch
    ACCEPTS = {
        "MH": {"ScaledIdentity", "FixedSpd", "LocalHessian"},
        "HMC": {"ScaledIdentity", "FixedSpd"},
        "HMAP_HMC": {"FixedSpd"},
        "HLOCAL_HMC": {"LocalHessian"},
    }

    @pytest.mark.parametrize("spec", ["ScaledIdentity", "FixedSpd", "LocalHessian"])
    @pytest.mark.parametrize("method", list(KERNELS))
    def test_kernel_table_pairings(self, method, spec):
        target = field_2x2()
        mass_spec = {
            "ScaledIdentity": ScaledIdentity(2.0),
            "FixedSpd": FixedSpd(factorize(np.eye(4))),
            "LocalHessian": LocalHessian(1e-6),
        }[spec]
        cfg = SamplerConfig(method=method, dt=1e-3, leapfrog_steps=2, n_samples=2)
        init, rng = target.map_point(), np.random.default_rng(0)
        if spec in self.ACCEPTS[method]:
            assert run_chain(target, mass_spec, cfg, init, rng).samples.shape == (2, 4)
        else:
            with pytest.raises(ConfigMismatch):
                run_chain(target, mass_spec, cfg, init, rng)
        default = KERNELS[method].default(target, 1e-6, 2.0)
        assert type(default).__name__ in self.ACCEPTS[method]
        run_chain(target, default, cfg, init, np.random.default_rng(0))

    def test_invalid_config_values(self):
        with pytest.raises(ConfigMismatch):
            SamplerConfig(method="NUTS", dt=0.1)
        with pytest.raises(ValueError):
            SamplerConfig(method="MH", dt=-1.0)
        with pytest.raises(ValueError):
            SamplerConfig(method="MH", dt=0.1, leapfrog_steps=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_parameters_rejected(self, bad):
        # NaN fails no "<= 0" test and inf passes it; each must be refused
        with pytest.raises(ValueError, match="finite and positive"):
            SamplerConfig(method="HMC", dt=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            ScaledIdentity(bad)
        with pytest.raises(ValueError, match="finite and positive"):
            LocalHessian(bad)

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "np.bool_"])
    def test_bool_parameters_rejected(self, flag):
        # True passes 0 < flag < inf as 1; a flag is not a step size, beta or floor
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            SamplerConfig(method="HMC", dt=flag)
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            ScaledIdentity(flag)
        with pytest.raises(ValueError, match="floor must be finite and positive"):
            LocalHessian(flag)

    @pytest.mark.parametrize("flag", ["false", "", 0, 1, None])
    def test_include_logdet_takes_only_a_bool(self, flag):
        # the string "false" is truthy and would switch the terms on
        with pytest.raises(ValueError, match="include_logdet must be a bool"):
            SamplerConfig(method="HLOCAL_HMC", dt=0.1, include_logdet=flag)

    @pytest.mark.parametrize("flag", [np.True_, np.False_], ids=["True_", "False_"])
    def test_include_logdet_numpy_bools_accepted(self, flag):
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.1, include_logdet=flag)
        assert cfg.include_logdet is flag

    @pytest.mark.parametrize("method", list(KERNELS))
    def test_no_generator_refused(self, method):
        target = field_2x2()
        spec = KERNELS[method].default(target, 1e-6, 1.0)
        cfg = SamplerConfig(method=method, dt=0.05, leapfrog_steps=2, n_samples=2)
        with pytest.raises(ValueError, match="at least one generator"):
            run_chain(target, spec, cfg, target.map_point(), [])

    def test_start_outside_domain_raises(self):
        # the one domain check the samplers make: the start point they are given
        cfg = SamplerConfig(method="HMC", dt=0.1)
        with pytest.raises(ValueError, match="outside the target domain"):
            run_chain(lognormal_1d(), ScaledIdentity(), cfg, np.array([-1.0]),
                      np.random.default_rng(0))

    def test_start_outside_domain_raises_before_the_mass(self):
        # the start potential is checked before the start mass is built, so a
        # local-Hessian chain refuses the start and not its Hessian
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.1)
        with pytest.raises(ValueError, match="outside the target domain"):
            run_chain(lognormal_1d(), LocalHessian(1e-6), cfg, np.array([-1.0]),
                      np.random.default_rng(0))

    @pytest.mark.parametrize("method, spec", [("HMC", ScaledIdentity()),
                                              ("HLOCAL_HMC", LocalHessian(1e-6))])
    def test_start_gradient_not_finite_raises_before_the_mass(self, method, spec,
                                                              monkeypatch):
        # theta = 1e-322 is inside the domain with a finite potential, but
        # 1/theta overflows, so the gradient is inf; no mass is built there
        monkeypatch.setattr(LogNormalField, "hessian", None)
        cfg = SamplerConfig(method=method, dt=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteGradient, match="gradient is not finite"):
                run_chain(field_2x2(), spec, cfg, np.full(4, 1e-322),
                          np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(1,), (5,), (4, 1)])
    @pytest.mark.parametrize("method", list(KERNELS))
    def test_start_of_wrong_shape_raises(self, method, shape):
        # unchecked, a (1,) start would broadcast through MH's proposals; each
        # wrong shape is refused before the target is evaluated
        plain = field_2x2()
        target = CountedField(m=plain.m, sigma=plain.sigma)
        spec = KERNELS[method].default(plain, 1e-6, 1.0)
        cfg = SamplerConfig(method=method, dt=0.1, leapfrog_steps=2, n_samples=2)
        with pytest.raises(DimensionMismatch, match="init shape"):
            run_chain(target, spec, cfg, np.full(shape, 0.3), np.random.default_rng(0))
        assert target.checks == 0

    @pytest.mark.parametrize(
        "count", [{"leapfrog_steps": 2.5}, {"n_samples": 20.0}, {"burn_in": 1.5}]
    )
    def test_non_integer_counts_rejected(self, count):
        with pytest.raises(ValueError, match="must be an integer"):
            SamplerConfig(method="HMC", dt=0.1, **count)

    @pytest.mark.parametrize(
        "count", [{"leapfrog_steps": True}, {"n_samples": True}, {"burn_in": False}]
    )
    def test_bool_counts_rejected(self, count):
        # isinstance(True, int) holds, so a bool needs refusing by name
        with pytest.raises(ValueError, match="must be an integer"):
            SamplerConfig(method="HMC", dt=0.1, **count)

    def test_numpy_integer_counts_accepted(self):
        cfg = SamplerConfig(method="HMC", dt=0.1, leapfrog_steps=np.int32(3),
                            n_samples=np.int64(5), burn_in=np.uint8(0))
        assert (cfg.leapfrog_steps, cfg.n_samples, cfg.burn_in) == (3, 5, 0)

    @pytest.mark.parametrize(
        "method, dt",
        [("MH", 0.05), ("HMC", 0.05), ("HMAP_HMC", 0.3), ("HLOCAL_HMC", 0.3)],
    )
    def test_start_potential_evaluated_once(self, method, dt, monkeypatch):
        # one potential per transition (at its proposal) plus one at the start,
        # which both the domain check and the start point use
        target = field_2x2()
        spec = KERNELS[method].default(target, 1e-6, 1.0)
        calls = []
        potential = LogNormalField.potential
        monkeypatch.setattr(LogNormalField, "potential",
                            lambda self, x: calls.append(x) or potential(self, x))
        cfg = SamplerConfig(method=method, dt=dt, leapfrog_steps=5, n_samples=20,
                            burn_in=7)
        run_chain(target, spec, cfg, target.map_point(), np.random.default_rng(3))
        assert len(calls) == cfg.burn_in + cfg.n_samples + 1

    @pytest.mark.parametrize(
        "method, dt, per_transition",
        [("HMC", 0.05, 11), ("HMAP_HMC", 0.3, 11), ("HLOCAL_HMC", 0.3, 12)],
    )
    def test_domain_checked_only_by_target(self, method, dt, per_transition):
        # L = 10 steps take 10 gradients (the start point carries its own),
        # then the endpoint's potential (and, for HLOCAL_HMC, its Hessian) each
        # check the domain once; the sampler adds no check of its own, and no
        # trajectory here leaves the domain
        plain = field_2x2()
        target = CountedField(m=plain.m, sigma=plain.sigma)
        spec = KERNELS[method].default(plain, 1e-6, 1.0)
        checks = []
        for n in (1, 21):
            cfg = SamplerConfig(method=method, dt=dt, leapfrog_steps=10, n_samples=n)
            target.checks = 0
            run_chain(target, spec, cfg, plain.map_point(), np.random.default_rng(3))
            checks.append(target.checks)
        assert checks[1] - checks[0] == 20 * per_transition

    def test_logdet_terms_cancel_for_constant_hessian(self):
        # a Gaussian's Hessian is constant, so both endpoint log-dets are equal
        # and switching the terms off leaves the chain bit for bit the same
        target = gaussian_2d()
        recs = [
            run_chain(target, LocalHessian(1e-6),
                      SamplerConfig(method="HLOCAL_HMC", dt=0.5, n_samples=300,
                                    include_logdet=flag),
                      np.array([0.3, -0.2]), np.random.default_rng(7))
            for flag in (True, False)
        ]
        assert 0.0 < recs[0].accept_flags.mean() < 1.0
        assert np.array_equal(recs[0].samples, recs[1].samples)
        assert np.array_equal(recs[0].accept_flags, recs[1].accept_flags)

    def test_logdet_terms_change_a_local_hessian_chain(self):
        # on the log-normal field the local Hessian varies, so the terms count
        # (acceptance 0.27 with them and 0.205 without, with OpenBLAS)
        target = field_2x2()
        recs = []
        for flag in (True, False):
            cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.3, leapfrog_steps=5,
                                n_samples=200, include_logdet=flag)
            recs.append(run_chain(target, LocalHessian(1e-6), cfg, target.map_point(),
                                  np.random.default_rng(5)))
        assert not np.array_equal(recs[0].samples, recs[1].samples)
        assert recs[0].accept_flags.mean() != recs[1].accept_flags.mean()

    def test_hmc_moments_2d(self):
        target = gaussian_2d()
        cfg = SamplerConfig(method="HMC", dt=0.5, leapfrog_steps=10, n_samples=20_000)
        rec = run_chain(target, ScaledIdentity(), cfg, np.zeros(2),
                        np.random.default_rng(21))
        cov = np.cov(rec.samples.T)
        assert np.abs(cov - [[2.0, 1.0], [1.0, 2.0]]).max() < 0.25
        assert np.abs(rec.samples.mean(axis=0)).max() < 0.1


class TestConstantMassInverse:
    """HMC's and HMAP_HMC's constant mass is inverted once per chain."""

    @pytest.mark.parametrize("rows", [2, 8, 12])
    def test_hmap_mass_matvec_matches_cho_solve(self, rows):
        # d = 4, 64, 144; the mass condition number reaches ~1e4 at d = 144,
        # so the error is measured in norm, not per entry
        cfg, target = desk_target(rows, rows)
        s = cfg["sampler"]
        mass = KERNELS["HMAP_HMC"].default(target, s["pd_floor"], s["beta"]).factor
        assert mass.inv is not None
        rng = np.random.default_rng(rows)
        for _ in range(20):
            v = sample_gaussian(mass, rng)  # a momentum, as the kernel draws it
            ref = scipy.linalg.cho_solve((mass.lower_factor, True), v)
            assert np.linalg.norm(solve(mass, v) - ref) <= 1e-12 * np.linalg.norm(ref)

    def _masses(self, monkeypatch):
        # every mass a transition uses draws its momentum through sample_gaussian
        seen = []
        monkeypatch.setattr(samplers, "sample_gaussian",
                            lambda f, rng: seen.append(f) or sample_gaussian(f, rng))
        return seen

    @pytest.mark.parametrize("method", ["HMC", "HMAP_HMC", "HLOCAL_HMC"])
    def test_only_constant_masses_carry_an_inverse(self, method, monkeypatch):
        seen = self._masses(monkeypatch)
        target = field_2x2()
        spec = KERNELS[method].default(target, 1e-6, 1.0)
        cfg = SamplerConfig(method=method, dt=0.05, leapfrog_steps=3, n_samples=5)
        run_chain(target, spec, cfg, target.map_point(), np.random.default_rng(0))
        assert len(seen) == 5
        constant = method != "HLOCAL_HMC"
        assert all((f.inv is not None) == constant for f in seen)

    def _chains(self, target, method, specs, dt, n):
        cfg = SamplerConfig(method=method, dt=dt, leapfrog_steps=10, n_samples=n)
        return [run_chain(target, spec, cfg, target.map_point(),
                          np.random.default_rng(11)) for spec in specs]

    def test_unit_mass_chain_is_bit_identical(self):
        _, target = desk_target(8, 8)
        inverted, bare = self._chains(
            target, "HMC", [ScaledIdentity(1.0), FixedSpd(factorize(np.eye(64)))],
            cli.DESK_DT["HMC"], 200)
        assert 0.0 < inverted.accept_flags.mean() < 1.0
        assert np.array_equal(inverted.samples, bare.samples)
        assert np.array_equal(inverted.potentials, bare.potentials)

    @pytest.mark.parametrize("beta", [1.0, 2.5, 0.3])
    def test_scaled_identity_carries_the_diagonal_of_its_inverse(self, beta):
        # beta * I keeps a (d,) inverse, so a solve and a draw are O(d); the
        # MAP mass, not diagonal, keeps its dense (d, d) inverse
        cfg, target = desk_target(8, 8)
        (mass,), _ = ScaledIdentity(beta).mass_at(target)(target.map_point()[None])
        assert mass.inv.shape == (64,)
        assert np.array_equal(mass.inv, linalg.inverse(mass).diagonal())
        s = cfg["sampler"]
        hmap = KERNELS["HMAP_HMC"].default(target, s["pd_floor"], s["beta"]).factor
        assert hmap.inv.shape == (64, 64)

    @pytest.mark.parametrize("chains", [1, 8])
    @pytest.mark.parametrize("beta", [2.5, 0.3])
    def test_diagonal_mass_chain_equals_the_dense_inverse_chain(self, beta, chains):
        # HMC with beta * I gives the bits of a run whose factor carries the
        # dense inverse, one chain or eight in lockstep
        _, target = desk_target(8, 8)
        spec = ScaledIdentity(beta)
        (mass,), _ = spec.mass_at(target)(target.map_point()[None])
        dense = FixedSpd(replace(mass, inv=linalg.inverse(mass)))
        cfg = SamplerConfig(method="HMC", dt=cli.DESK_DT["HMC"], leapfrog_steps=10,
                            n_samples=60, burn_in=5)

        def rngs():  # one generator runs one chain, a list of them K in lockstep
            if chains == 1:
                return np.random.default_rng(0)
            return [np.random.default_rng(seed) for seed in range(chains)]

        records = [run_chain(target, m, cfg, target.map_point(), rngs()) for m in (spec, dense)]
        assert 0.0 < records[0].accept_flags.mean() < 1.0
        assert_same_records(*records)

    def test_hmap_chain_matches_the_bare_factor(self):
        cfg, target = desk_target(8, 8)
        s = cfg["sampler"]
        spec = KERNELS["HMAP_HMC"].default(target, s["pd_floor"], s["beta"])
        inverted, bare = self._chains(
            target, "HMAP_HMC",
            [spec, FixedSpd(hmap_mass(target, s["pd_floor"])[0])],
            cli.DESK_DT["HMAP_HMC"], 200)
        assert 0.0 < inverted.accept_flags.mean() < 1.0
        assert np.array_equal(inverted.accept_flags, bare.accept_flags)
        np.testing.assert_allclose(inverted.samples, bare.samples, rtol=1e-12, atol=0)


class TestLockstep:
    """K chains in lockstep equal K single-generator runs bit for bit."""

    def _runs(self, target, spec, cfg, init, seeds):
        serial = []
        for seed, start in zip(seeds, init):
            rng = np.random.default_rng(seed)
            serial.append((run_chain(target, spec, cfg, start, rng), rng.bit_generator.state))
        rngs = [np.random.default_rng(seed) for seed in seeds]
        lock = run_chain(target, spec, cfg, init, rngs)
        assert_same_records(lock, joined([rec for rec, _ in serial], 0, np.stack))
        for k, (_, state) in enumerate(serial):
            assert rngs[k].bit_generator.state == state
        return lock

    @pytest.mark.parametrize(
        "method, dt",
        [("MH", 0.05), ("HMC", 0.05), ("HMAP_HMC", 0.3), ("HLOCAL_HMC", 0.3)],
    )
    def test_equals_serial(self, method, dt):
        target = field_2x2()
        spec = KERNELS[method].default(target, 1e-6, 1.0)
        cfg = SamplerConfig(method=method, dt=dt, leapfrog_steps=5, n_samples=60,
                            burn_in=10)
        rng = np.random.default_rng(0)
        init = target.map_point() * np.exp(0.05 * rng.standard_normal((3, 4)))
        lock = self._runs(target, spec, cfg, init, [11, 12, 13])
        assert lock.samples.shape == (3, 60, 4)
        assert lock.accept_flags.shape == lock.potentials.shape == (3, 60)
        assert 0.0 < lock.accept_flags.mean() < 1.0
        # one start point is shared by every chain
        shared = run_chain(target, spec, cfg, target.map_point(),
                           [np.random.default_rng(s) for s in (11, 12, 13)])
        again = run_chain(target, spec, cfg, np.tile(target.map_point(), (3, 1)),
                          [np.random.default_rng(s) for s in (11, 12, 13)])
        assert np.array_equal(shared.samples, again.samples)

    def test_continuing_from_the_last_samples_continues_the_chains(self):
        target = field_2x2()
        spec = LocalHessian(1e-6)
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.3, leapfrog_steps=5, n_samples=40)
        whole = run_chain(target, spec, cfg, target.map_point(),
                          [np.random.default_rng(s) for s in (1, 2)])
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        half = replace(cfg, n_samples=20)
        first = run_chain(target, spec, half, target.map_point(), rngs)
        second = run_chain(target, spec, half, first.samples[:, -1], rngs)
        assert_same_records(joined([first, second], 1), whole)

    @pytest.mark.parametrize(
        "target_cls, method, spec",
        [(WallTarget, "HMC", ScaledIdentity()),
         (WallTarget, "HLOCAL_HMC", LocalHessian(1.0)),
         (CliffTarget, "HLOCAL_HMC", LocalHessian(1.0)),
         (NanCliffTarget, "HLOCAL_HMC", LocalHessian(1.0))],
    )
    def test_one_bad_endpoint_rejects_that_chain_alone(self, target_cls, method, spec):
        # chain 0's endpoint lies past theta_0 = 1, out of domain or with an
        # unrepairable Hessian; chains 1 and 2 accept
        target = target_cls(np.zeros(1), factorize(np.eye(1)))
        cfg = SamplerConfig(method=method, dt=0.5, leapfrog_steps=1, n_samples=1)
        init = np.array([[0.9], [-0.5], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lock = self._runs(target, spec, cfg, init, [3, 4, 5])
        assert lock.accept_flags[:, 0].tolist() == [False, True, True]
        assert lock.samples[0, 0, 0] == 0.9
        assert lock.repair_lambdas[0, 0] == 0.0

    def test_unbuildable_end_mass_draws_its_uniform(self):
        # chain 0 runs from -1.5 past the cliff to 1.29 and lowers the energy
        # there (with the start mass in place of the end's), but its end mass
        # cannot be built: its accept test rejects it after one momentum draw
        # and one uniform, as any rejection; chains 1 and 2 go on as alone
        target = CliffTarget(np.zeros(1), factorize(np.eye(1)))
        unit = factorize(np.eye(1))
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=1.0, leapfrog_steps=1, n_samples=1)
        init = np.array([[-1.5], [-0.5], [0.0]])
        ref = np.random.default_rng(3)
        start = PhaseState(init[0], ref.standard_normal(1))  # unit mass: p0 is the normal
        end = leapfrog(start, target, unit, cfg.dt, cfg.leapfrog_steps)
        assert end.position[0] > 1.0
        assert hamiltonian(start, target, unit, True) >= hamiltonian(end, target, unit, True)
        ref.uniform()
        rngs = [np.random.default_rng(s) for s in (3, 4, 5)]
        lock = run_chain(target, LocalHessian(1.0), cfg, init, rngs)
        assert not lock.accept_flags[0, 0]
        assert lock.samples[0, 0, 0] == -1.5
        assert rngs[0].bit_generator.state == ref.bit_generator.state
        self._runs(target, LocalHessian(1.0), cfg, init, [3, 4, 5])

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize(
        "method, spec",
        [("HMC", ScaledIdentity()),
         ("HMAP_HMC", FixedSpd(linalg.with_inverse(factorize(np.eye(1))))),
         ("HLOCAL_HMC", LocalHessian(1.0))],
    )
    def test_one_diverging_chain_rejects_alone(self, method, spec, steps):
        # chain 0 crosses theta_0 = 1, where the gradient is +inf: its
        # momentum stops being finite, so it is rejected, and never carries
        # a gradient that is not finite; chains 1 and 2 accept
        target = SteepTarget(np.zeros(1), factorize(np.eye(1)))
        cfg = SamplerConfig(method=method, dt=0.5, leapfrog_steps=steps, n_samples=1)
        init = np.array([[0.9], [-0.5], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lock = self._runs(target, spec, cfg, init, [3, 4, 5])
        assert lock.accept_flags[:, 0].tolist() == [False, True, True]
        assert lock.samples[0, 0, 0] == 0.9
        assert np.isfinite(lock.state.points.grad).all()

    def test_jitter_inside_lockstep(self):
        # the 8x8 desk target at variance 1e-2 has endpoints whose Hessian is
        # indefinite: at seed 0 one of 3 chains is repaired up to lam 256, so
        # zero and nonzero jitters meet in the same lockstep transitions
        cfg, target = desk_target(variance=0.01)
        s = cfg["sampler"]
        spec = KERNELS["HLOCAL_HMC"].default(target, s["pd_floor"], s["beta"])
        scfg = SamplerConfig("HLOCAL_HMC", cli.DESK_DT["HLOCAL_HMC"],
                             leapfrog_steps=s["leapfrog_steps"], n_samples=300,
                             burn_in=20)
        init = np.tile(target.map_point(), (3, 1))
        lock = self._runs(target, spec, scfg, init, [[0, c] for c in range(3)])
        lams = lock.repair_lambdas
        assert lams.max() == 256.0
        assert (lams == 0.0).any() and (lams > 0.0).any()
        assert (lams[:, lams.max(axis=0) > 0.0] == 0.0).any()

    def test_one_hessian_call_per_transition(self, monkeypatch):
        # K = 8 endpoints take one stacked Hessian, not 8; the start points one
        target = field_2x2()
        calls = []
        hessian = LogNormalField.hessian
        monkeypatch.setattr(LogNormalField, "hessian",
                            lambda self, x: calls.append(x.shape) or hessian(self, x))
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.3, leapfrog_steps=5, n_samples=30,
                            burn_in=5)
        run_chain(target, LocalHessian(1e-6), cfg, target.map_point(),
                  [np.random.default_rng(s) for s in range(8)])
        assert len(calls) == 1 + cfg.burn_in + cfg.n_samples
        assert calls[0] == (8, 4)

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 2), (1, 4)])
    def test_init_shape(self, shape):
        # K generators take one start point or a (K, d) stack; one generator
        # takes one start point only
        target = field_2x2()
        cfg = SamplerConfig(method="MH", dt=0.05, n_samples=2)
        init = np.broadcast_to(target.map_point()[: shape[-1]], shape)
        rngs = [np.random.default_rng(s) for s in range(3)]
        if shape in ((4,), (3, 4)):
            assert run_chain(target, ScaledIdentity(), cfg, init, rngs).samples.shape == (3, 2, 4)
        else:
            with pytest.raises(DimensionMismatch, match="init shape"):
                run_chain(target, ScaledIdentity(), cfg, init, rngs)
        with pytest.raises(DimensionMismatch, match="init shape"):
            run_chain(target, ScaledIdentity(), cfg, np.ones((1, 4)),
                      np.random.default_rng(0))


class TestContinueFromState:
    """A run continued from the state its record ends in is the one longer run."""

    def _calls(self, monkeypatch):
        """Count the target's evaluations and the factorizations."""
        calls = []
        for name in ("potential", "gradient", "hessian"):
            fn = getattr(LogNormalField, name)
            monkeypatch.setattr(LogNormalField, name,
                                lambda self, x, fn=fn, name=name:
                                calls.append(name) or fn(self, x))
        factorize_ = samplers.factorize
        monkeypatch.setattr(samplers, "factorize",
                            lambda m: calls.append("factorize") or factorize_(m))
        return calls

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize(
        "method, dt",
        [("MH", 0.05), ("HMC", 0.05), ("HMAP_HMC", 0.9), ("HLOCAL_HMC", 0.3)],
    )
    def test_blocks_join_to_one_run(self, method, dt, k, monkeypatch):
        # blocks of 5 with the burn-in in the first and a last block of 3; one
        # chain runs with one generator, its records without a chain axis
        target = field_2x2()
        spec = KERNELS[method].default(target, 1e-6, 1.0)
        cfg = SamplerConfig(method, dt, leapfrog_steps=5, n_samples=23, burn_in=4)
        calls = self._calls(monkeypatch)

        def generators():
            rngs = [np.random.default_rng([9, c]) for c in range(k)]
            return rngs if k > 1 else rngs[0]

        rng = generators()
        whole = run_chain(target, spec, cfg, target.map_point(), rng)
        whole_calls, calls[:] = list(calls), []
        rng_blocks, init, parts = generators(), target.map_point(), []
        for start in range(0, cfg.n_samples, 5):
            block = replace(cfg, n_samples=min(5, cfg.n_samples - start),
                            burn_in=cfg.burn_in if start == 0 else 0)
            rec = run_chain(target, spec, block, init, rng_blocks)
            assert isinstance(rec.state, ChainState)
            parts.append(rec)
            init = rec.state
        assert [len(r.accept_flags.T) for r in parts] == [5, 5, 5, 5, 3]
        assert_same_records(joined(parts, 0 if k == 1 else 1), whole)
        assert 0.0 < whole.accept_flags.mean() < 1.0
        # every generator ends where the one run leaves it, and no start point
        # is evaluated again: the blocks make the one run's calls
        for a, b in zip(np.atleast_1d(rng), np.atleast_1d(rng_blocks)):
            assert a.bit_generator.state == b.bit_generator.state
        assert calls == whole_calls
        for got, want in zip(parts[-1].state.points, whole.state.points):
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, want)

    def test_state_of_another_run_refused(self):
        target = field_2x2()
        spec = ScaledIdentity()
        cfg = SamplerConfig("HMC", 0.05, leapfrog_steps=5, n_samples=3)
        rngs = [np.random.default_rng(s) for s in range(3)]
        state = run_chain(target, spec, cfg, target.map_point(), rngs).state
        drawn = [r.bit_generator.state for r in rngs]
        other = SamplerConfig("HMAP_HMC", 0.05, leapfrog_steps=5, n_samples=3)
        for bad_target, bad_spec, bad_cfg in (
            (target, spec, replace(cfg, method="MH")),  # another method
            (target, ScaledIdentity(), cfg),  # another spec, though an equal one
            (target, FixedSpd(factorize(np.eye(4))), other),  # another method and spec
            (field_2x2(), spec, cfg),  # another target, though an equal one
        ):
            with pytest.raises(ConfigMismatch, match="another method, mass spec"):
                run_chain(bad_target, bad_spec, bad_cfg, state, rngs)
        for bad_rngs in (rngs[:2], rngs[0], rngs + [np.random.default_rng(3)]):
            with pytest.raises(DimensionMismatch, match="a state of 3 chains"):
                run_chain(target, spec, cfg, state, bad_rngs)
        # nothing was drawn, and the state still continues its own run
        assert [r.bit_generator.state for r in rngs] == drawn
        run_chain(target, spec, cfg, state, rngs)

    def test_state_holds_no_sample(self):
        # a continued run keeps only the (K, d) points alive, not the record
        target = field_2x2()
        cfg = SamplerConfig("HLOCAL_HMC", 0.3, leapfrog_steps=5, n_samples=50)
        rec = run_chain(target, LocalHessian(1e-6), cfg, target.map_point(),
                        [np.random.default_rng(s) for s in range(3)])
        buffers = {id(a.base) for a in vars(rec).values() if isinstance(a, np.ndarray)}
        for a in rec.state.points:
            if isinstance(a, np.ndarray):
                assert a.nbytes <= 3 * target.dim * 8
                assert a.base is None or id(a.base) not in buffers

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("method, dt", [("HMC", 0.05), ("HMAP_HMC", 0.9),
                                            ("HLOCAL_HMC", 0.3)])
    def test_writes_no_array_of_the_caller(self, method, dt, k):
        # a start stack and a state's points may be read-only: the transitions
        # write only arrays of their own
        target = field_2x2()
        spec = KERNELS[method].default(target, 1e-6, 1.0)
        cfg = SamplerConfig(method, dt, leapfrog_steps=5, n_samples=10)

        def generators():
            return [np.random.default_rng([5, c]) for c in range(k)]

        init = np.tile(target.map_point(), (k, 1))
        whole = run_chain(target, spec, replace(cfg, n_samples=20), init, generators())
        init.flags.writeable = False
        rngs = generators()
        first = run_chain(target, spec, cfg, init, rngs)
        for a in first.state.points:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        second = run_chain(target, spec, cfg, first.state, rngs)
        assert 0.0 < whole.accept_flags.mean() < 1.0
        assert_same_records(joined([first, second], 1), whole)
