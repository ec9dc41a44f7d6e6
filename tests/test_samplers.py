"""Tests for the four MCMC kernels and the leapfrog integrator."""
import tracemalloc

import numpy as np
import pytest

from hessmc.linalg import DimensionMismatch, factorize
from hessmc.samplers import (
    KERNELS,
    ChainRecord,
    ConfigMismatch,
    FixedSpd,
    LocalHessian,
    PhaseState,
    SamplerConfig,
    ScaledIdentity,
    hamiltonian,
    hlocal_step,
    hmap_mass,
    hmc_step,
    leapfrog,
    mh_accept,
    mh_propose,
    run_chain,
)
from hessmc.targets import (
    GaussianTarget,
    LogNormalField,
    OutOfDomain,
    build_grid_covariance,
    gaussian_target,
)


def gaussian_2d():
    return gaussian_target(np.zeros(2), factorize(np.array([[2.0, 1.0], [1.0, 2.0]])))


def lognormal_1d():
    return LogNormalField(m=np.array([0.0]), sigma=factorize(np.array([[1.0]])))


def field_2x2():
    return LogNormalField(
        m=np.full(4, -1.0),
        sigma=build_grid_covariance(2, 2, (2.0, 2.0), 1.0, 0.05, 1e-4),
        grid_shape=(2, 2),
    )


class CliffTarget(GaussianTarget):
    """Standard normal whose Hessian cannot be repaired beyond theta_0 = 1."""

    def hessian(self, theta):
        return super().hessian(theta) if theta[0] <= 1.0 else np.array([[-1e300]])


class NanCliffTarget(GaussianTarget):
    """Standard normal whose Hessian is NaN beyond theta_0 = 1."""

    def hessian(self, theta):
        return super().hessian(theta) if theta[0] <= 1.0 else np.array([[np.nan]])


class WallTarget(GaussianTarget):
    """Standard normal whose domain ends at theta_0 = 1.

    As TargetModel documents, its potential is +inf and its gradient raises
    OutOfDomain past the wall.
    """

    def _past_wall(self, theta):
        return bool(theta[0] > 1.0)

    def potential(self, theta):
        return np.inf if self._past_wall(theta) else super().potential(theta)

    def gradient(self, theta):
        if self._past_wall(theta):
            raise OutOfDomain("gradient requested past the wall")
        return super().gradient(theta)


class CountedField(LogNormalField):
    """Log-normal field that counts its one domain check, _log."""

    checks = 0

    def _log(self, theta):
        self.checks += 1
        return super()._log(theta)


class FixedStream:
    """Generator stand-in with preset normals and uniforms."""

    def __init__(self, normals=(), uniforms=()):
        self.normals = list(normals)
        self.uniforms = list(uniforms)

    def standard_normal(self, n):
        out = np.asarray(self.normals[:n], dtype=float)
        del self.normals[:n]
        return out

    def uniform(self):
        return self.uniforms.pop(0)


class TestMhPropose:
    def test_affine(self):
        rng = FixedStream(normals=[1.0, -1.0])
        y = mh_propose(np.zeros(2), 2.0, rng)
        assert np.allclose(y, [2.0, -2.0])

    def test_tiny_dt(self):
        rng = FixedStream(normals=[1.0, 1.0])
        y = mh_propose(np.array([3.0, 4.0]), 1e-15, rng)
        assert np.allclose(y, [3.0, 4.0])

    def test_proposal_scale(self):
        rng = np.random.default_rng(0)
        theta = np.array([1.0, 2.0])
        props = np.array([mh_propose(theta, 0.7, rng) for _ in range(100_000)])
        stds = props.std(axis=0)
        assert np.all(np.abs(stds - 0.7) < 0.02 * 0.7)


class TestMhAccept:
    def test_equal_potentials(self):
        assert mh_accept(1.0, 1.0, 0.0, 0.999999)

    def test_uphill_threshold(self):
        alpha = np.exp(-1.0)
        assert mh_accept(1.0, 2.0, 0.0, alpha - 1e-9)
        assert not mh_accept(1.0, 2.0, 0.0, alpha + 1e-9)

    def test_infinite_proposal_rejected(self):
        assert not mh_accept(1.0, np.inf, 0.0, 1e-300)


class TestLeapfrog:
    def test_hand_step_quadratic(self):
        target = gaussian_target(np.zeros(1), factorize(np.eye(1)))
        state = PhaseState(np.array([1.0]), np.array([0.0]))
        mass = factorize(np.eye(1))
        out = leapfrog(state, target, mass, 0.1, 1)
        assert out.position[0] == pytest.approx(0.995)
        assert out.momentum[0] == pytest.approx(-0.09975)

    def test_free_particle(self):
        # zero-curvature Gaussian approximated by a huge covariance
        target = gaussian_target(np.zeros(2), factorize(1e300 * np.eye(2)))
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
            fwd = leapfrog(PhaseState(pos, p), target, mass, 0.05, 25)
            back = leapfrog(
                PhaseState(fwd.position, -fwd.momentum), target, mass, 0.05, 25
            )
            scale = np.linalg.norm(pos) + np.linalg.norm(p)
            assert np.linalg.norm(back.position - pos) < 1e-9 * max(scale, 1.0)
            assert np.linalg.norm(-back.momentum - p) < 1e-9 * max(scale, 1.0)

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

    def test_energy_error_second_order(self):
        rng = np.random.default_rng(77)
        target = gaussian_2d()
        mass = factorize(np.eye(2))
        ratios = []
        for _ in range(32):
            pos = rng.standard_normal(2)
            p = rng.standard_normal(2)

            def max_energy_err(dt, steps):
                st = PhaseState(pos.copy(), p.copy())
                h0 = hamiltonian(st, target, mass)
                worst = 0.0
                for _ in range(steps):
                    st = leapfrog(st, target, mass, dt, 1)
                    worst = max(worst, abs(hamiltonian(st, target, mass) - h0))
                return worst

            ratios.append(max_energy_err(0.1, 20) / max_energy_err(0.05, 40))
        assert 3.5 <= np.mean(ratios) <= 4.5


class TestHamiltonian:
    def test_zero_energy(self):
        target = gaussian_target(np.zeros(2), factorize(np.eye(2)))
        st = PhaseState(np.zeros(2), np.zeros(2))
        assert hamiltonian(st, target, factorize(np.eye(2))) == pytest.approx(0.0)

    def test_kinetic_identity_mass(self):
        target = gaussian_target(np.array([3.0, 4.0]), factorize(np.eye(2)))
        # J = 0 at the mean is inconvenient here; use offset position with J = 2
        target = gaussian_target(np.zeros(2), factorize(np.eye(2)))
        st = PhaseState(np.array([2.0, 0.0]), np.array([3.0, 4.0]))
        h = hamiltonian(st, target, factorize(np.eye(2)))
        assert h == pytest.approx(2.0 + 12.5)

    def test_logdet_term(self):
        target = gaussian_target(np.zeros(1), factorize(1e300 * np.eye(1)))
        st = PhaseState(np.zeros(1), np.array([2.0]))
        mass = factorize(np.array([[4.0]]))
        h = hamiltonian(st, target, mass, include_logdet=True)
        assert h == pytest.approx(0.5 + 0.5 * np.log(4.0), rel=1e-6)


class TestHmcStep:
    def test_tiny_dt_always_accepts(self):
        target = gaussian_2d()
        mass = factorize(np.eye(2))
        cfg = SamplerConfig(method="HMC", dt=1e-8, leapfrog_steps=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.standard_normal(2)
            _, accepted = hmc_step(theta, target, mass, cfg, rng)
            assert accepted

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
        mass = factorize(np.eye(1))
        cfg = SamplerConfig(method="HMC", dt=5.0, leapfrog_steps=5)
        rng = np.random.default_rng(1)
        rejected = 0
        for _ in range(50):
            theta_next, accepted = hmc_step(np.array([1e-3]), target, mass, cfg, rng)
            if not accepted:
                assert theta_next[0] == 1e-3
                rejected += 1
        assert rejected > 0


class TestHlocalStep:
    def test_gaussian_reduces_to_hmc(self):
        # constant Hessian: identical accept decisions under a shared seed
        target = gaussian_2d()
        prec = target.hessian(np.zeros(2))
        mass = factorize(prec)
        cfg = SamplerConfig(method="HMC", dt=0.5, leapfrog_steps=10)
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        theta_a = np.array([0.3, -0.2])
        theta_b = theta_a.copy()
        for _ in range(500):
            theta_a, acc_a = hmc_step(theta_a, target, mass, cfg, rng_a)
            theta_b, acc_b, lam = hlocal_step(theta_b, target, 1e-9, cfg, rng_b)
            assert acc_a == acc_b
            assert lam == 0.0
            assert np.array_equal(theta_a, theta_b)

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
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=1e-12, leapfrog_steps=1)
        rng = np.random.default_rng(3)
        _, accepted, _ = hlocal_step(target.map_point(), target, 1e-9, cfg, rng)
        assert accepted


    @pytest.mark.parametrize("target_cls", [CliffTarget, NanCliffTarget, WallTarget])
    def test_bad_endpoint_rejected_with_one_uniform(self, target_cls):
        # an unrepairable or out-of-domain endpoint rejects through the one
        # accept test: one momentum draw, one uniform, the start point kept
        target = target_cls(np.zeros(1), factorize(np.eye(1)))
        cfg = SamplerConfig(method="HLOCAL_HMC", dt=0.5, leapfrog_steps=1)
        theta = np.array([0.9])
        ref = np.random.default_rng(3)
        p0 = ref.standard_normal(1)  # the unit mass makes p0 the normal draw
        ref.uniform()
        end = leapfrog(PhaseState(theta, p0), target, factorize(np.eye(1)), 0.5, 1)
        assert end.position[0] > 1.0  # this seed carries the trajectory past 1
        rng = np.random.default_rng(3)
        theta_next, accepted, lam = hlocal_step(theta, target, 1.0, cfg, rng)
        assert not accepted
        assert np.array_equal(theta_next, theta)
        assert lam == 0.0
        assert rng.bit_generator.state == ref.bit_generator.state


class TestHmapMass:
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
    mass, lam = ScaledIdentity(beta).mass_at(field_2x2())(None)
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
        rng, position, steps = np.random.default_rng(5), theta, []
        for _ in range(cfg.burn_in + cfg.n_samples):
            steps.append(hlocal_step(position, target, 1e-6, cfg, rng))
            position = steps[-1][0]
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
        held = sum(a.nbytes for a in vars(rec).values())
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

    def test_start_outside_domain_raises(self):
        # the one domain check the samplers make: the start point they are given
        cfg = SamplerConfig(method="HMC", dt=0.1)
        with pytest.raises(ValueError, match="outside the target domain"):
            run_chain(lognormal_1d(), ScaledIdentity(), cfg, np.array([-1.0]),
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
        "method, dt, per_transition",
        [("HMC", 0.05, 12), ("HMAP_HMC", 0.3, 12), ("HLOCAL_HMC", 0.3, 13)],
    )
    def test_domain_checked_only_by_target(self, method, dt, per_transition):
        # L = 10 steps take 11 gradients, then the endpoint's potential (and,
        # for HLOCAL_HMC, its Hessian) each check the domain once; the sampler
        # adds no check of its own, and no trajectory here leaves the domain
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
