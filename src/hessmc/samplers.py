"""MCMC kernels: random-walk MH, HMC, Hessian-at-MAP HMC, frozen-local-Hessian HMC.

``run_chain`` is the one way to run a transition (``n_samples=1`` runs one).
A chain carries one point (theta, J, mass, lam) evaluated once, when proposed.
MH draws a uniform every transition (``mh_accept``); the Hamiltonian
transition makes its own accept test and draws one only when its energy change
is negative. ``KERNELS`` declares each method's transition, the mass specs it
takes and its default spec. A spec's ``mass_at(target)`` is its mass policy
``theta -> (SpdFactor, lam)``, and the Hamiltonian kernels are one transition
that differs only in that policy: HMC and HMAP_HMC use a constant mass
(``beta * I`` or the Hessian at the MAP, each inverted once so that every
``solve`` is one matvec), HLOCAL_HMC the local target Hessian,
computed once per point, reused as the next trajectory's start mass and frozen
during the leapfrog steps, with both endpoint log-determinant terms retained.
That scheme is not an exact detailed-balance kernel (the reverse trajectory
would freeze the other endpoint's Hessian); it is implemented as specified
and the log-det terms can be disabled for ablation via
``include_logdet=False``. MH takes any spec but builds no mass from it: its
proposals never read one, so its points carry ``(None, 0.0)``.

The target alone judges its domain, as ``TargetModel`` documents (+inf
potential, ``OutOfDomain`` from gradient and hessian); ``run_chain`` refuses a
start point of the wrong shape or of infinite potential.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .linalg import (
    DimensionMismatch,
    RepairFailed,
    SpdFactor,
    factorize,
    repair_to_pd,
    sample_gaussian,
    solve,
    with_inverse,
)
from .targets import LogNormalField, OutOfDomain, TargetModel


class ConfigMismatch(Exception):
    """Sampler method and mass specification do not fit together."""


def _check_positive(name, value):
    """Refuse a bool, and any value that is not finite and positive."""
    if isinstance(value, (bool, np.bool_)) or not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class PhaseState:
    """Position/momentum pair advanced by the integrator."""

    position: np.ndarray
    momentum: np.ndarray

    def __post_init__(self):
        if self.position.shape != self.momentum.shape:
            raise ValueError("position and momentum must have equal length")


@dataclass(frozen=True)
class ScaledIdentity:
    """Mass matrix beta * I, factorized and inverted once per chain."""

    beta: float = 1.0

    def __post_init__(self):
        _check_positive("beta", self.beta)

    def mass_at(self, target: TargetModel):
        mass = with_inverse(factorize(self.beta * np.eye(target.dim)))
        return FixedSpd(mass).mass_at(target)


@dataclass(frozen=True)
class FixedSpd:
    """Constant mass matrix supplied as a factor (see ``linalg.with_inverse``)."""

    factor: SpdFactor

    def mass_at(self, target: TargetModel):
        return lambda theta: (self.factor, 0.0)


@dataclass(frozen=True)
class LocalHessian:
    """Mass matrix refrozen from the local Hessian each trajectory."""

    floor: float = 1e-6

    def __post_init__(self):
        _check_positive("floor", self.floor)

    def mass_at(self, target: TargetModel):
        return lambda theta: repair_to_pd(target.hessian(theta), self.floor)


MassSpec = Union[ScaledIdentity, FixedSpd, LocalHessian]


@dataclass(frozen=True)
class SamplerConfig:
    method: str
    dt: float
    leapfrog_steps: int = 10
    n_samples: int = 1000
    burn_in: int = 0
    include_logdet: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigMismatch(f"unknown method {self.method!r}")
        _check_positive("dt", self.dt)
        if not isinstance(self.include_logdet, (bool, np.bool_)):
            raise ValueError("include_logdet must be a bool")
        for name in ("leapfrog_steps", "n_samples", "burn_in"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.leapfrog_steps < 1:
            raise ValueError("leapfrog_steps must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")


@dataclass
class ChainRecord:
    """Retained chain output: burn-in already discarded."""

    samples: np.ndarray
    accept_flags: np.ndarray
    potentials: np.ndarray  # potentials[i] == J(samples[i])
    repair_lambdas: np.ndarray  # mass jitter per transition; 0 for a constant mass


def mh_propose(theta: np.ndarray, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Isotropic Gaussian proposal with standard deviation dt per coordinate."""
    return theta + dt * rng.standard_normal(theta.shape[0])


def mh_accept(j_cur: float, j_prop: float, u: float) -> bool:
    """Symmetric Metropolis test: accept iff u < min{1, exp(j_cur - j_prop)}."""
    delta = j_cur - j_prop
    if delta >= 0.0:
        return True
    return u < np.exp(delta)


def leapfrog(
    state: PhaseState,
    target: TargetModel,
    mass: SpdFactor,
    dt: float,
    steps: int,
) -> PhaseState:
    """Explicit leapfrog: half-kick, drift through M^-1, half-kick, L times.

    If any intermediate position leaves the target domain (its gradient
    raises OutOfDomain) the trajectory is abandoned and the out-of-domain
    position is returned with its half-step momentum; its potential is +inf
    so the proposal will be rejected.
    """
    theta = state.position.copy()
    p = state.momentum.copy()
    grad = target.gradient(theta)
    for _ in range(steps):
        p_half = p - 0.5 * dt * grad
        theta = theta + dt * solve(mass, p_half)
        try:
            grad = target.gradient(theta)
        except OutOfDomain:
            return PhaseState(position=theta, momentum=p_half)
        p = p_half - 0.5 * dt * grad
    return PhaseState(position=theta, momentum=p)


def hamiltonian(
    state: PhaseState,
    target: TargetModel,
    mass: SpdFactor,
    include_logdet: bool = False,
) -> float:
    """Total energy J(theta) + 0.5 p' M^-1 p, optionally + 0.5 log|M|.

    The log-det term matters only when the mass matrix differs between
    the two endpoints being compared; with a constant mass it cancels.
    Returns +inf for out-of-domain positions, where the potential is +inf.
    """
    h = target.potential(state.position) + _kinetic(state.momentum, mass)
    if include_logdet:
        h += 0.5 * mass.log_det
    return h


def _kinetic(p: np.ndarray, mass: SpdFactor) -> float:
    return 0.5 * float(p @ solve(mass, p))


def _no_mass(theta):
    """MH's mass policy: its proposals read no mass, so its points hold none."""
    return None, 0.0


def _point(theta, target, mass_at):
    """The chain point (theta, J, mass, lam) at theta."""
    mass, lam = mass_at(theta)
    return theta, target.potential(theta), mass, lam


def _mh_step(point, target, mass_at, cfg, rng):
    new = _point(mh_propose(point[0], cfg.dt, rng), target, mass_at)
    accepted = mh_accept(point[1], new[1], rng.uniform())
    return (new if accepted else point), accepted


def _hamiltonian_step(point, target, mass_at, cfg, rng):
    """One Hamiltonian transition point -> (point, accepted).

    The trajectory uses the current point's mass; mass_at(position) ->
    (SpdFactor, lam) is evaluated at the endpoint only. An unrepairable or
    out-of-domain endpoint ends with delta = -inf: the one accept test rejects it.
    """
    theta, j_cur, mass, _ = point
    p0 = sample_gaussian(mass, rng)
    end = leapfrog(PhaseState(theta, p0), target, mass, cfg.dt, cfg.leapfrog_steps)
    new, delta = point, -np.inf
    with suppress(OutOfDomain, RepairFailed):
        new = _point(end.position, target, mass_at)
    if new is not point:
        _, j_end, m_end, _ = new
        delta = (j_cur - j_end) + (_kinetic(p0, mass) - _kinetic(end.momentum, m_end))
        if cfg.include_logdet:
            delta += 0.5 * (mass.log_det - m_end.log_det)
    accepted = delta >= 0.0 or rng.uniform() < np.exp(delta)
    return (new if accepted else point), accepted


def hmap_mass(target: LogNormalField, pd_floor: float) -> tuple[SpdFactor, float]:
    """Mass matrix from the Hessian at the MAP point.

    For the log-normal target the MAP Hessian is D^-1 Sigma^-1 D^-1 with
    D = diag(theta_MAP), which is PD, so the repair is a no-op (lam = 0).
    """
    return repair_to_pd(target.hessian(target.map_point()), pd_floor)


class Kernel(NamedTuple):
    step: Callable  # (point, target, mass_at, cfg, rng) -> (point, accepted)
    specs: tuple  # the mass-spec classes the method takes
    default: Callable  # (target, pd_floor, beta) -> the method's default spec


def _identity(target, pd_floor, beta):
    return ScaledIdentity(beta)


def _map_hessian(target, pd_floor, beta):
    return FixedSpd(with_inverse(hmap_mass(target, pd_floor)[0]))


def _local_hessian(target, pd_floor, beta):
    return LocalHessian(pd_floor)


# Each method's kernel; adding a method is adding a row.
KERNELS = {
    "MH": Kernel(_mh_step, (ScaledIdentity, FixedSpd, LocalHessian), _identity),
    "HMC": Kernel(_hamiltonian_step, (ScaledIdentity, FixedSpd), _identity),
    "HMAP_HMC": Kernel(_hamiltonian_step, (FixedSpd,), _map_hessian),
    "HLOCAL_HMC": Kernel(_hamiltonian_step, (LocalHessian,), _local_hessian),
}
METHODS = tuple(KERNELS)


def run_chain(
    target: TargetModel,
    mass_spec: MassSpec,
    cfg: SamplerConfig,
    init: np.ndarray,
    rng: np.random.Generator,
) -> ChainRecord:
    """Run burn_in + n_samples transitions from init; keep the last n_samples.

    KERNELS[cfg.method] gives the transition and the mass specs the method
    takes (MH takes any and builds no mass from it); another spec raises
    ConfigMismatch. An init of shape other than (target.dim,) raises
    DimensionMismatch. Deterministic for a fixed generator state.
    """
    init = np.asarray(init, dtype=float)
    if init.shape != (target.dim,):
        raise DimensionMismatch(f"init shape {init.shape} vs target dim {target.dim}")
    j_init = target.potential(init)
    if not np.isfinite(j_init):
        raise ValueError("initial position is outside the target domain")
    step, specs, _ = KERNELS[cfg.method]
    if not isinstance(mass_spec, specs):
        raise ConfigMismatch(f"{cfg.method} takes no {type(mass_spec).__name__} mass")
    mass_at = _no_mass if step is _mh_step else mass_spec.mass_at(target)

    samples = np.empty((cfg.n_samples, target.dim))
    accept_flags = np.empty(cfg.n_samples, dtype=bool)
    potentials = np.empty(cfg.n_samples)
    lambdas = np.empty(cfg.n_samples)

    point = (init.copy(), j_init, *mass_at(init))
    for _ in range(cfg.burn_in):
        point, _ = step(point, target, mass_at, cfg, rng)
    for i in range(cfg.n_samples):
        lambdas[i] = point[3]
        point, accept_flags[i] = step(point, target, mass_at, cfg, rng)
        samples[i], potentials[i] = point[0], point[1]
    return ChainRecord(samples, accept_flags, potentials, repair_lambdas=lambdas)
