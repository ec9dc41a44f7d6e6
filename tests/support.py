"""Helpers shared by the test modules: test targets, finite-difference
oracles, a generator stand-in, hypothesis settings, a Python subprocess on
the sources under test, and the checks of the leapfrog and of records that
must be equal bit for bit."""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import hessmc
from hessmc import cli
from hessmc.linalg import factorize
from hessmc.samplers import PhaseState, hamiltonian, leapfrog
from hessmc.targets import GaussianTarget, LogNormalField, build_grid_covariance

RECORD_ARRAYS = ("samples", "accept_flags", "potentials", "repair_lambdas")

# hypothesis caches source constants at collection even with no database; keep
# that cache out of the working directory
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "hessmc-hypothesis")


def fuzz(examples, **options):
    """Settings of a reproducible hypothesis run: derandomized, with no
    example database and no deadline."""
    return settings(derandomize=True, database=None, max_examples=examples, deadline=None,
                    **options)


def python(*args, check=True):
    """A Python process run on the sources under test, its output captured."""
    src = str(Path(hessmc.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=check, env={**os.environ, "PYTHONPATH": src})


def gaussian_2d():
    return GaussianTarget(np.zeros(2), factorize(np.array([[2.0, 1.0], [1.0, 2.0]])))


def lognormal_1d(m=0.0, var=1.0):
    return LogNormalField(m=np.array([m]), sigma=factorize(np.array([[var]])))


def field_2x2():
    return LogNormalField(
        m=np.full(4, -1.0),
        sigma=build_grid_covariance(2, 2, (2.0, 2.0), 1.0, 0.05, 1e-4),
    )


def random_field(dim, rng, variance=1.0, m_scale=0.5):
    b = rng.standard_normal((dim, dim))
    sigma = factorize(variance * (b.T @ b / dim + 0.3 * np.eye(dim)))
    return LogNormalField(m=m_scale * rng.standard_normal(dim), sigma=sigma)


def desk_target(rows=8, cols=8, **overrides):
    """The CLI's default target on a rows x cols grid at desk spacing, with
    any other target settings overridden: (config, target)."""
    extent = [1000.0 * cols, 500.0 * rows]  # 8x8: the default [8000, 4000]
    cfg = cli.load_config(None, {"target": {"rows": rows, "cols": cols,
                                            "extent_m": extent, **overrides}})
    return cfg, cli.build_target(cfg)


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
    out = np.empty((d, d))
    for i in range(d):
        h = rel * theta[i]
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        out[:, i] = (target.gradient(tp) - target.gradient(tm)) / (2 * h)
    return 0.5 * (out + out.T)


class FixedNormals:
    """Generator stand-in that draws preset standard normals in order; asking
    for more than are left fails."""

    def __init__(self, normals):
        self.normals = list(normals)

    def standard_normal(self, n):
        assert n <= len(self.normals), "more normals asked for than were preset"
        out = np.asarray(self.normals[:n], dtype=float)
        del self.normals[:n]
        return out


def round_trip(start, target, mass, dt, steps):
    """leapfrog from start, then from its end with the momentum negated and
    the end's gradient carried: (end, back). A reversible integrator brings
    back to start's position with start's momentum negated."""
    end = leapfrog(start, target, mass, dt, steps)
    reverse = PhaseState(end.position, -end.momentum, end.gradient)
    return end, leapfrog(reverse, target, mass, dt, steps)


def assert_reversible(position, momentum, target, mass, dt, steps):
    """round_trip from (position, momentum) returns to them, the momentum
    negated, to 1e-9 of their norms' sum (at least 1)."""
    _, back = round_trip(PhaseState(position, momentum), target, mass, dt, steps)
    scale = max(np.linalg.norm(position) + np.linalg.norm(momentum), 1.0)
    assert np.linalg.norm(back.position - position) < 1e-9 * scale
    assert np.linalg.norm(back.momentum + momentum) < 1e-9 * scale


def energy_error_ratio(rng, target, mass, trials=32):
    """The mean, over trials from random positions and momenta, of the
    largest energy error over 20 leapfrog steps of dt 0.1 against that over
    40 of dt 0.05: about 4 for a second-order integrator. Each step starts
    from the state the last one returned."""

    def max_error(pos, p, dt, steps):
        st = PhaseState(pos.copy(), p.copy())
        h0 = hamiltonian(st, target, mass)
        worst = 0.0
        for _ in range(steps):
            st = leapfrog(st, target, mass, dt, 1)
            worst = max(worst, abs(hamiltonian(st, target, mass) - h0))
        return worst

    ratios = []
    for _ in range(trials):
        pos = rng.standard_normal(target.dim)
        p = rng.standard_normal(target.dim)
        ratios.append(max_error(pos, p, 0.1, 20) / max_error(pos, p, 0.05, 40))
    return np.mean(ratios)


def joined(records, axis, join=np.concatenate):
    """The RECORD_ARRAYS of records, each joined along axis: by concatenation
    the blocks of one run along their transition axis, or by np.stack
    single-generator runs as the chains of one lockstep run."""
    return {name: join([getattr(r, name) for r in records], axis=axis)
            for name in RECORD_ARRAYS}


def assert_same_records(got, want):
    """got and want, each a ChainRecord or a dict made by ``joined``, hold
    the same RECORD_ARRAYS: the same shape and the same bits."""
    for name in RECORD_ARRAYS:
        a, b = (r[name] if isinstance(r, dict) else getattr(r, name) for r in (got, want))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
