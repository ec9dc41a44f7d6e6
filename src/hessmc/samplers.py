"""MCMC kernels: random-walk MH, HMC, Hessian-at-MAP HMC, frozen-local-Hessian HMC.

All four kernels share the Metropolis accept/reject machinery. The three
Hamiltonian kernels are one transition that differs only in its mass
policy: HMC and HMAP_HMC use a constant mass (``beta * I`` or the Hessian
at the MAP), HLOCAL_HMC recomputes the mass from the target Hessian at the
start of every trajectory and keeps it constant during the leapfrog steps,
with both endpoint log-determinant terms retained in the acceptance ratio.
That scheme is not an exact detailed-balance kernel (the reverse trajectory
would freeze the other endpoint's Hessian); it is implemented as specified
and the log-det terms can be disabled for ablation via
``include_logdet=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import (
    RepairFailed,
    SpdFactor,
    factorize,
    repair_to_pd,
    sample_gaussian,
    solve,
)
from .targets import LogNormalField, TargetModel


class ConfigMismatch(Exception):
    """Sampler method and mass specification do not fit together."""


METHODS = ("MH", "HMC", "HMAP_HMC", "HLOCAL_HMC")


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
    """Mass matrix beta * I."""

    beta: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class FixedSpd:
    """Constant mass matrix supplied as a factor."""

    factor: SpdFactor


@dataclass(frozen=True)
class LocalHessian:
    """Mass matrix refrozen from the local Hessian each trajectory."""

    floor: float = 1e-6

    def __post_init__(self):
        if self.floor <= 0:
            raise ValueError("floor must be positive")


MassSpec = Union[ScaledIdentity, FixedSpd, LocalHessian]


@dataclass(frozen=True)
class SamplerConfig:
    method: str
    dt: float
    leapfrog_steps: int = 10
    n_samples: int = 1000
    burn_in: int = 0
    seed: int = 0
    include_logdet: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigMismatch(f"unknown method {self.method!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
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


def mh_accept(j_cur: float, j_prop: float, dq: float, u: float) -> bool:
    """Metropolis-Hastings test: accept iff u < min{1, exp(j_cur - j_prop + dq)}."""
    delta = j_cur - j_prop + dq
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

    If any intermediate position leaves the target domain the trajectory
    is abandoned and the out-of-domain state is returned as-is; its
    potential is +inf so the proposal will be rejected.
    """
    theta = state.position.copy()
    p = state.momentum.copy()
    grad = target.gradient(theta)
    for _ in range(steps):
        p_half = p - 0.5 * dt * grad
        theta = theta + dt * solve(mass, p_half)
        if not target.in_domain(theta):
            return PhaseState(position=theta, momentum=p_half)
        grad = target.gradient(theta)
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
    Returns +inf for out-of-domain positions.
    """
    if not target.in_domain(state.position):
        return np.inf
    h = target.potential(state.position) + _kinetic(state.momentum, mass)
    if include_logdet:
        h += 0.5 * mass.log_det
    return h


def _kinetic(p: np.ndarray, mass: SpdFactor) -> float:
    return 0.5 * float(p @ solve(mass, p))


def _mh_step(theta, j_cur, target, dt, rng):
    proposal = mh_propose(theta, dt, rng)
    j_prop = target.potential(proposal)
    # symmetric proposal: dq = 0 identically
    if mh_accept(j_cur, j_prop, 0.0, rng.uniform()):
        return proposal, j_prop, True, 0.0
    return theta, j_cur, False, 0.0


def _hamiltonian_step(theta, j_cur, target, mass_at, cfg, rng):
    """One Hamiltonian transition (theta, J) -> (theta, J, accepted, lam).

    The mass policy mass_at(position) -> (SpdFactor, lam) fixes the mass
    for the trajectory at the current point and gives the endpoint mass of
    the acceptance ratio; for a constant policy the log-det term is 0.0.
    A RepairFailed at the current point propagates; at the endpoint it
    rejects, like an out-of-domain divergence.
    """
    mass, lam = mass_at(theta)
    p0 = sample_gaussian(mass, rng)
    end = leapfrog(PhaseState(theta, p0), target, mass, cfg.dt, cfg.leapfrog_steps)
    if not target.in_domain(end.position):
        rng.uniform()  # keep the stream aligned with the accepted path
        return theta, j_cur, False, lam
    try:
        mass_end, _ = mass_at(end.position)
    except RepairFailed:
        rng.uniform()
        return theta, j_cur, False, lam
    j_end = target.potential(end.position)
    delta = (j_cur - j_end) + (_kinetic(p0, mass) - _kinetic(end.momentum, mass_end))
    if cfg.include_logdet:
        delta += 0.5 * (mass.log_det - mass_end.log_det)
    if delta >= 0.0 or rng.uniform() < np.exp(delta):
        return end.position, j_end, True, lam
    return theta, j_cur, False, lam


def _constant_mass(mass: SpdFactor):
    return lambda theta: (mass, 0.0)


def _local_mass(target: TargetModel, floor: float):
    return lambda theta: repair_to_pd(target.hessian(theta), floor)


def hmc_step(
    theta: np.ndarray,
    target: TargetModel,
    mass: SpdFactor,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """One constant-mass HMC transition."""
    j, mass_at = target.potential(theta), _constant_mass(mass)
    theta, _, accepted, _ = _hamiltonian_step(theta, j, target, mass_at, cfg, rng)
    return theta, accepted


def hlocal_step(
    theta: np.ndarray,
    target: TargetModel,
    pd_floor: float,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool, float]:
    """One frozen-local-Hessian transition; the mass is the PD-repaired Hessian.

    Returns (next position, accepted, jitter used at the start point).
    """
    j, mass_at = target.potential(theta), _local_mass(target, pd_floor)
    theta, _, accepted, lam = _hamiltonian_step(theta, j, target, mass_at, cfg, rng)
    return theta, accepted, lam


def hmap_mass(target: LogNormalField, pd_floor: float) -> tuple[SpdFactor, float]:
    """Mass matrix from the Hessian at the MAP point.

    For the log-normal target the MAP Hessian is D^-1 Sigma^-1 D^-1 with
    D = diag(theta_MAP), which is PD, so the repair is a no-op (lam = 0).
    """
    return repair_to_pd(target.hessian(target.map_point()), pd_floor)


def _transition(target: TargetModel, mass_spec: MassSpec, cfg: SamplerConfig, rng):
    """The chain's transition (theta, J) -> (theta, J, accepted, lam)."""
    method = cfg.method
    if method == "MH":
        return lambda theta, j: _mh_step(theta, j, target, cfg.dt, rng)
    if method == "HMAP_HMC" and not isinstance(mass_spec, FixedSpd):
        raise ConfigMismatch("HMAP_HMC requires a FixedSpd mass")
    if method == "HLOCAL_HMC" and not isinstance(mass_spec, LocalHessian):
        raise ConfigMismatch("HLOCAL_HMC requires a LocalHessian mass")
    if method == "HMC" and isinstance(mass_spec, LocalHessian):
        raise ConfigMismatch("HMC requires a constant mass")
    if isinstance(mass_spec, LocalHessian):
        mass_at = _local_mass(target, mass_spec.floor)
    elif isinstance(mass_spec, FixedSpd):
        mass_at = _constant_mass(mass_spec.factor)
    else:
        mass_at = _constant_mass(factorize(mass_spec.beta * np.eye(target.dim)))
    return lambda theta, j: _hamiltonian_step(theta, j, target, mass_at, cfg, rng)


def run_chain(
    target: TargetModel,
    mass_spec: MassSpec,
    cfg: SamplerConfig,
    init: np.ndarray,
    rng: np.random.Generator,
) -> ChainRecord:
    """Run burn_in + n_samples transitions from init; keep the last n_samples.

    MH ignores mass_spec; HMC takes ScaledIdentity or FixedSpd; HMAP_HMC
    requires FixedSpd; HLOCAL_HMC requires LocalHessian. Deterministic
    for a fixed generator state.
    """
    init = np.asarray(init, dtype=float)
    if not target.in_domain(init):
        raise ValueError("initial position is outside the target domain")
    step = _transition(target, mass_spec, cfg, rng)

    samples = np.empty((cfg.n_samples, target.dim))
    accept_flags = np.empty(cfg.n_samples, dtype=bool)
    potentials = np.empty(cfg.n_samples)
    lambdas = np.empty(cfg.n_samples)

    theta, j = init.copy(), target.potential(init)
    for _ in range(cfg.burn_in):
        theta, j, _, _ = step(theta, j)
    for i in range(cfg.n_samples):
        theta, j, accept_flags[i], lambdas[i] = step(theta, j)
        samples[i] = theta
        potentials[i] = j
    return ChainRecord(
        samples=samples,
        accept_flags=accept_flags,
        potentials=potentials,
        repair_lambdas=lambdas,
    )
