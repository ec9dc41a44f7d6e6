"""Exact-start invariance tests (Geweke, "Getting it right", JASA 2004).

The log-normal field can be sampled exactly: log theta = m + L z with
L L' = Sigma. A kernel that leaves the target invariant maps K exact draws to
K exact draws, whatever its mixing, so after T transitions the whitened end
points w = L^-1 (log theta - m) are K d iid N(0, 1) values. K lockstep chains
are one ``run_chain`` call. The pooled mean of w and of w^2 - 1 must lie
within Z_BOUND standard errors of 0, after the first transition and after
the last, and at least MIN_MOVED of the chains must have moved, since a
chain that never moves shows no bias. Seed, K, T and the bounds were fixed
before the first run. This also checks end to end the energy that every
Hamiltonian accept test compares.
"""
import numpy as np
import pytest
import scipy.linalg

from hessmc import cli
from hessmc.samplers import KERNELS, SamplerConfig, run_chain
from support import desk_target

K = 2000  # chains, each from one exact draw
T = 3  # transitions
SEED = 0
Z_BOUND = 5.0
MIN_MOVED = 0.25

# field variance of the target: the desk default and a rougher field
TARGETS = {"desk": 1e-3, "variance-1e-2": 1e-2}

# HLOCAL_HMC freezes the local Hessian of the start point, which is not an
# exact kernel; measured at K = 2,000, seeds 0-1, T = 1 and 3
XFAIL = {
    ("HLOCAL_HMC", "desk"): "frozen local Hessian is not invariant: on the desk "
    "target the variance z reads -15 to -39 and the mean z -6.5 to -8.7",
    ("HLOCAL_HMC", "variance-1e-2"): "at field variance 1e-2 HLOCAL_HMC moves "
    "only 0.004-0.019 of its chains, too few to show a bias",
}


def cases():
    for method in KERNELS:
        for name in TARGETS:
            reason = XFAIL.get((method, name))
            marks = ([pytest.mark.xfail(raises=AssertionError, strict=True, reason=reason)]
                     if reason else [])
            yield pytest.param(method, name, marks=marks, id=f"{method}-{name}")


@pytest.mark.parametrize("method, name", cases())
def test_exact_draws_stay_exact(method, name):
    cfg, target = desk_target(variance=TARGETS[name])
    s = cfg["sampler"]
    lower = target.sigma.lower_factor
    z = np.random.default_rng([SEED, K]).standard_normal((K, target.dim))
    init = np.exp(target.m + z @ lower.T)
    spec = KERNELS[method].default(target, s["pd_floor"], s["beta"])
    scfg = SamplerConfig(method, cli.DESK_DT[method], leapfrog_steps=s["leapfrog_steps"],
                         n_samples=T)
    rec = run_chain(target, spec, scfg, init,
                    [np.random.default_rng([SEED, k]) for k in range(K)])
    for t in (1, T):
        w = scipy.linalg.solve_triangular(
            lower, (np.log(rec.samples[:, t - 1]) - target.m).T, lower=True)
        z_mean = w.mean() * np.sqrt(w.size)
        z_var = (np.mean(w * w) - 1.0) / np.sqrt(2.0 / w.size)
        moved = rec.accept_flags[:, :t].any(axis=1).mean()
        got = f"T = {t}: moved {moved:.3f}, mean z {z_mean:+.2f}, variance z {z_var:+.2f}"
        assert moved >= MIN_MOVED, got
        assert abs(z_mean) < Z_BOUND and abs(z_var) < Z_BOUND, got
