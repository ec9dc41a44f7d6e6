"""MCMC kernels: random-walk MH, HMC, Hessian-at-MAP HMC, frozen-local-Hessian HMC.

All four kernels share the Metropolis accept/reject machinery, and a chain
carries one point (theta, J, mass, lam) evaluated once, when proposed. The
Hamiltonian kernels are one transition that differs only in its mass policy:
HMC and HMAP_HMC use a constant mass (``beta * I`` or the Hessian at the
MAP), HLOCAL_HMC the local target Hessian, computed once per point, reused as
the next trajectory's start mass and frozen during the leapfrog steps, with
both endpoint log-determinant terms retained in the acceptance ratio.
That scheme is not an exact detailed-balance kernel (the reverse trajectory
would freeze the other endpoint's Hessian); it is implemented as specified
and the log-det terms can be disabled for ablation via
``include_logdet=False``.
"""

from __future__ import annotations

from contextlib import suppress
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


def _point(theta, target, mass_at):
    """The chain point (theta, J, mass, lam) at theta."""
    mass, lam = mass_at(theta)
    return theta, target.potential(theta), mass, lam


def _mh_step(point, target, mass_at, cfg, rng):
    new = _point(mh_propose(point[0], cfg.dt, rng), target, mass_at)
    # symmetric proposal: dq = 0 identically
    accepted = mh_accept(point[1], new[1], 0.0, rng.uniform())
    return (new if accepted else point), accepted


def _hamiltonian_step(point, target, mass_at, cfg, rng):
    """One Hamiltonian transition point -> (point, accepted).

    The trajectory uses the current point's mass; mass_at(position) ->
    (SpdFactor, lam) is evaluated at the endpoint only. An out-of-domain or
    unrepairable endpoint keeps delta = -inf: the one accept test rejects it.
    """
    theta, j_cur, mass, _ = point
    p0 = sample_gaussian(mass, rng)
    end = leapfrog(PhaseState(theta, p0), target, mass, cfg.dt, cfg.leapfrog_steps)
    new, delta = point, -np.inf
    if target.in_domain(end.position):
        with suppress(RepairFailed):
            new = _point(end.position, target, mass_at)
    if new is not point:
        _, j_end, m_end, _ = new
        delta = (j_cur - j_end) + (_kinetic(p0, mass) - _kinetic(end.momentum, m_end))
        if cfg.include_logdet:
            delta += 0.5 * (mass.log_det - m_end.log_det)
    accepted = delta >= 0.0 or rng.uniform() < np.exp(delta)
    return (new if accepted else point), accepted


def _constant_mass(mass: SpdFactor | None):
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
    mass_at = _constant_mass(mass)
    point = _point(theta, target, mass_at)
    new, accepted = _hamiltonian_step(point, target, mass_at, cfg, rng)
    return new[0], accepted


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
    mass_at = _local_mass(target, pd_floor)
    point = _point(theta, target, mass_at)
    new, accepted = _hamiltonian_step(point, target, mass_at, cfg, rng)
    return new[0], accepted, point[3]


def hmap_mass(target: LogNormalField, pd_floor: float) -> tuple[SpdFactor, float]:
    """Mass matrix from the Hessian at the MAP point.

    For the log-normal target the MAP Hessian is D^-1 Sigma^-1 D^-1 with
    D = diag(theta_MAP), which is PD, so the repair is a no-op (lam = 0).
    """
    return repair_to_pd(target.hessian(target.map_point()), pd_floor)


def _kernel(target: TargetModel, mass_spec: MassSpec, cfg: SamplerConfig, rng):
    """The chain's mass policy and its transition point -> (point, accepted)."""
    method = cfg.method
    if method == "HMAP_HMC" and not isinstance(mass_spec, FixedSpd):
        raise ConfigMismatch("HMAP_HMC requires a FixedSpd mass")
    if method == "HLOCAL_HMC" and not isinstance(mass_spec, LocalHessian):
        raise ConfigMismatch("HLOCAL_HMC requires a LocalHessian mass")
    if method == "HMC" and isinstance(mass_spec, LocalHessian):
        raise ConfigMismatch("HMC requires a constant mass")
    step = _hamiltonian_step
    if method == "MH":
        step, mass_at = _mh_step, _constant_mass(None)
    elif isinstance(mass_spec, LocalHessian):
        mass_at = _local_mass(target, mass_spec.floor)
    elif isinstance(mass_spec, FixedSpd):
        mass_at = _constant_mass(mass_spec.factor)
    else:
        mass_at = _constant_mass(factorize(mass_spec.beta * np.eye(target.dim)))
    return mass_at, lambda point: step(point, target, mass_at, cfg, rng)


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
    mass_at, step = _kernel(target, mass_spec, cfg, rng)

    samples = np.empty((cfg.n_samples, target.dim))
    accept_flags = np.empty(cfg.n_samples, dtype=bool)
    potentials = np.empty(cfg.n_samples)
    lambdas = np.empty(cfg.n_samples)

    point = _point(init.copy(), target, mass_at)
    for _ in range(cfg.burn_in):
        point, _ = step(point)
    for i in range(cfg.n_samples):
        lambdas[i] = point[3]
        point, accept_flags[i] = step(point)
        samples[i], potentials[i] = point[0], point[1]
    return ChainRecord(
        samples=samples,
        accept_flags=accept_flags,
        potentials=potentials,
        repair_lambdas=lambdas,
    )
