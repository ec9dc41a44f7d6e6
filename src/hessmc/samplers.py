"""MCMC kernels: random-walk MH, HMC, Hessian-at-MAP HMC, frozen-local-Hessian HMC.

``run_chain`` is the one way to run a transition (``n_samples=1`` runs one).
Given K generators it runs K chains in lockstep as one (K, d) array: each
leapfrog step makes one gradient call and one ``solve`` for all of them
(one product with a shared constant mass's stored inverse, or one ``dpotrs``
per chain against HLOCAL_HMC's masses), and each transition one mass-policy call
for all endpoints (for HLOCAL_HMC one stacked Hessian and one
``repair_to_pd`` of it, checked once and factorized row by row), while every
chain keeps its own accept test, its own mass and its own generator, drawn
in the order it would draw alone. The target kernels and the stacked LAPACK
calls are row-exact (see ``targets`` and ``linalg``), so each chain is bit
for bit the chain its generator gives alone; one generator is K = 1.
One chain runs as one point, not as a one-row stack (``run_chain`` decides
that once per call; its ``ChainState`` holds the one-row stack), so its
transitions make 1-D calls, with no row split off or stacked again. A
trajectory checks its masses' shapes once (``linalg._check_dims``) and each of
its L solves only that the momentum is finite (``linalg._solve_checked``);
``leapfrog`` and ``hamiltonian`` check a mass's count and shape at entry.
A chain carries one point (theta, J, grad J, mass, lam) evaluated once, when
proposed, so a trajectory of L steps makes L gradient calls, and each record
ends in a ``ChainState`` (those points and the mass policy), from which a
later ``run_chain`` continues the chains without evaluating them again.
MH draws a uniform every transition (``mh_accept``); the Hamiltonian
transition only when the change of ``hamiltonian``'s energy is negative, and
a rejection is an infinite end energy, so one accept test rejects a proposal
that fails in any way. ``KERNELS`` declares each method's transition, the
mass specs it takes and its default spec. A spec's ``mass_at(target)`` is
its mass policy, which maps a (K, d) stack of points to K (SpdFactor, lam)
pairs: a list of factors, None where the mass cannot be built, and a (K,)
array of jitters; and one point to its factor (or None) and jitter.
The Hamiltonian kernels are one transition that differs only in that policy:
HMC and HMAP_HMC use a constant mass, inverted once: ``beta * I``, which keeps
only its inverse's diagonal, so that every ``solve`` and momentum draw is one
elementwise product, or the Hessian at the MAP, whose ``solve`` is one
matvec with its dense inverse. HLOCAL_HMC uses the local target Hessian,
computed once per point, reused as the next trajectory's start mass and
frozen during the leapfrog steps, with both endpoint log-determinant terms
retained.
That scheme is not an exact detailed-balance kernel (the reverse trajectory
would freeze the other endpoint's Hessian); it is implemented as specified
and the log-det terms can be disabled for ablation via
``include_logdet=False``. MH takes any spec but builds no mass from it: its
proposals never read one, so its points carry no mass, no gradient and lam 0.

The target alone judges its domain, as ``TargetModel`` documents (+inf
potential, ``OutOfDomain`` from gradient and hessian, with ``rows`` marking
the rows of a stack outside it). A trajectory row that leaves it stops there
(``leapfrog``), and the mass policy takes such an endpoint at its start point,
so a Hessian is asked for inside the domain only. A row whose momentum stops
being finite (a diverging trajectory) stops too, on ``solve``'s own refusal
(NonFiniteVector), so no leapfrog step scans for it; its energy is +inf.
``run_chain`` refuses a start point of the wrong shape or of infinite
potential, raises NonFiniteGradient if a Hamiltonian start point's gradient
is not finite and RepairFailed if its mass cannot be built, and a mass of
another dimension raises DimensionMismatch before any momentum is drawn.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .linalg import (
    DimensionMismatch,
    NonFiniteVector,
    RepairFailed,
    SpdFactor,
    _check_dims,
    _solve_checked,
    factorize,
    repair_to_pd,
    sample_gaussian,
    solve,
    with_inverse,
)
from .targets import LogNormalField, OutOfDomain, TargetModel


class ConfigMismatch(Exception):
    """Sampler method and mass specification do not fit together."""


class NonFiniteGradient(ArithmeticError):
    """A start point's gradient is not finite, so no trajectory can start there
    (for the log-normal field, a positive MAP so small that 1/theta overflows)."""


def _check_positive(name, value):
    """Refuse a bool, and any value that is not finite and positive."""
    if isinstance(value, (bool, np.bool_)) or not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class PhaseState:
    """Position/momentum pair advanced by the integrator, for one point or a
    (K, d) stack, with the gradient at the position if it is known: leapfrog
    starts from that gradient, and its result carries the one at its end."""

    position: np.ndarray
    momentum: np.ndarray
    gradient: np.ndarray | None = None

    def __post_init__(self):
        if self.position.shape != self.momentum.shape:
            raise ValueError("position and momentum must have equal length")
        if self.gradient is not None and self.gradient.shape != self.position.shape:
            raise ValueError("the gradient must have the position's shape")


@dataclass(frozen=True)
class ScaledIdentity:
    """Mass matrix beta * I, factorized and inverted once per run of a chain: a
    run continued from a ``ChainState`` keeps the factor of the run before.
    Being diagonal, the factor keeps its inverse's diagonal alone
    (``linalg.with_inverse``), so a solve and a momentum draw cost O(d)."""

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
        # a point's mass is the factor itself: a one-chain run builds nothing
        return lambda theta: ((self.factor, 0.0) if theta.ndim == 1 else
                              ([self.factor] * len(theta), np.zeros(len(theta))))


@dataclass(frozen=True)
class LocalHessian:
    """Mass matrix refrozen from the local Hessian each trajectory: one
    stacked Hessian and one ``repair_to_pd`` of it for a stack of points."""

    floor: float = 1e-6

    def __post_init__(self):
        _check_positive("floor", self.floor)

    def mass_at(self, target: TargetModel):
        def policy(theta):
            if theta.ndim == 2:
                return repair_to_pd(target.hessian(theta), self.floor)
            (factor,), (lam,) = repair_to_pd(target.hessian(theta)[None], self.floor)
            return factor, lam

        return policy


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


@dataclass(frozen=True)
class ChainState:
    """Where a run ends: each chain's point as evaluated there (theta, J,
    grad J, mass, lam) and the mass policy that built its mass, with the
    method, mass spec and target of the run. ``run_chain`` takes it as init
    and continues the chains from it with nothing evaluated again; it holds
    no sample, so a continued run keeps no earlier record alive."""

    points: _Points
    mass_at: Callable | None  # the mass policy; None for MH, which builds no mass
    method: str
    mass_spec: MassSpec
    target: TargetModel


@dataclass
class ChainRecord:
    """Retained chain output: burn-in already discarded."""

    samples: np.ndarray
    accept_flags: np.ndarray
    potentials: np.ndarray  # potentials[i] == J(samples[i])
    repair_lambdas: np.ndarray  # mass jitter per transition; 0 for a constant mass
    state: ChainState  # where the last transition ended, to continue from


def mh_propose(theta: np.ndarray, dt: float, rng) -> np.ndarray:
    """Isotropic Gaussian proposal with standard deviation dt per coordinate.

    A (K, d) stack of points takes a sequence of K generators, one per row;
    another count raises DimensionMismatch.
    """
    if theta.ndim == 1:
        return theta + dt * rng.standard_normal(theta.shape[0])
    if len(rng) != len(theta):
        raise DimensionMismatch(f"{len(rng)} generators for {len(theta)} rows")
    noise = np.empty(theta.shape)  # each generator draws its row in place
    for r, row in zip(rng, noise):
        r.standard_normal(out=row)
    noise *= dt
    noise += theta
    return noise


def mh_accept(j_cur, j_prop, u):
    """Symmetric Metropolis test: accept iff u < min{1, exp(j_cur - j_prop)}
    for a uniform u in [0, 1). Floats give a bool; (K,) arrays give the (K,)
    flags, by whole-array operations with the bits of each row's own test
    (exp is taken of min(delta, 0), so that no gain overflows it)."""
    delta = j_cur - j_prop
    if isinstance(delta, np.ndarray):
        return u < np.exp(np.minimum(delta, 0.0))
    return delta >= 0.0 or u < np.exp(delta)


def _accept(delta, rng):
    """The Hamiltonian accept test of one chain (a float delta and its
    generator) or of K (a (K,) delta and K generators, a (K,) result):
    accept if delta >= 0, else draw the chain's uniform and accept if it is
    below exp(delta). A uniform is ``random()``: ``uniform()``'s
    0 + 1 * random(), the same bits and draw, at a third of its cost."""
    if not isinstance(delta, np.ndarray):
        return delta >= 0.0 or rng.random() < np.exp(delta)
    return np.array([_accept(d, r) for d, r in zip(delta.tolist(), rng)])


def _shared(masses: list):
    """The one factor every row holds, or the list of them if they differ:
    ``solve`` takes a shared factor's stack in one matvec, not row by row."""
    first = masses[0]
    return first if len(masses) == 1 or all(m is first for m in masses) else masses


def leapfrog(state: PhaseState, target: TargetModel, mass, dt: float, steps: int) -> PhaseState:
    """Explicit leapfrog: half-kick, drift through M^-1, half-kick, L times.

    state holds one point, whose mass is one SpdFactor, or a (K, d) stack of
    them, whose mass is one SpdFactor for every row or a sequence of one per
    row; another count, or a factor of another dim, raises DimensionMismatch
    (checked once, before the steps). Each step makes one gradient call on
    the stack; from a state that carries its gradient, L steps make L calls,
    else L + 1.
    The result carries the gradient at its position, so a result fed back
    makes L calls and gives the bits of a state without one (a row stopped
    outside the domain carries a NaN gradient, so it stops again at once).

    A row whose position leaves the target domain (its gradient raises
    OutOfDomain, whose ``rows`` marks it) stops there with its half-step
    momentum and a NaN gradient; its potential is +inf, so its proposal will
    be rejected. A row whose momentum stops being finite (a diverging
    trajectory: ``solve`` raises NonFiniteVector, whose ``rows`` marks it)
    stops before that drift, with that momentum, whose energy is +inf
    (``hamiltonian``). The other rows run the steps left as one
    stack, each as it would alone. No array of the caller's is written.
    """
    theta = np.asarray(state.position, dtype=float, order="C")
    p = np.asarray(state.momentum, dtype=float, order="C")
    gradient = state.gradient
    _check_mass(mass, theta)
    if steps < 1:
        raise ValueError("leapfrog takes at least one step")
    if gradient is None:
        gradient = target.gradient(theta)
    return PhaseState(*_trajectory(theta, p - 0.5 * dt * gradient, gradient, target, mass,
                                   dt, steps))


def _check_mass(mass, theta: np.ndarray) -> None:
    """Refuse (DimensionMismatch) a mass that does not fit theta: a point
    takes one SpdFactor, a (K, d) stack one or a sequence of K, each of
    dim d. The public entries check once; the solves after do not."""
    if not isinstance(mass, SpdFactor) and (theta.ndim != 2 or len(mass) != len(theta)):
        rows = f"{len(theta)} rows" if theta.ndim == 2 else "one point"
        raise DimensionMismatch(f"{len(mass)} masses for {rows}")
    _check_dims(mass, theta)


def _trajectory(theta, p, g, target, mass, dt, steps):
    """leapfrog after its first half-kick: `steps` steps from theta, whose
    gradient is g, with the half-step momentum p, against a mass whose
    shapes the caller has checked (``linalg._check_dims``). Each step drifts,
    takes the gradient there, and with its half-kick ends this step and, but
    for the last, starts the next. p is updated in place (the caller made
    it); theta and g are not written. Returns the end (position, momentum,
    gradient).

    Rows that diverge or leave the domain stop (see ``leapfrog``); the
    other rows go on from before that drift (``_stop``)."""
    half = 0.5 * dt
    for left in range(steps, 0, -1):
        try:
            x = _solve_checked(mass, p)
        except NonFiniteVector as exc:  # these rows diverged: they stop here
            return _stop(exc.rows, (theta, p, g), (theta, p, g), target, mass, dt, left)
        x *= dt
        x += theta  # the bits of theta + dt * M^-1 p, in the solve's fresh array
        try:
            g_x = target.gradient(x)
        except OutOfDomain as exc:  # the rows outside stop there
            return _stop(exc.rows, (x, p, np.full_like(x, np.nan)), (theta, p, g), target,
                         mass, dt, left)
        theta, g = x, g_x
        kick = half * g
        p -= kick
        if left > 1:
            p -= kick
    return theta, p, g


def _stop(rows, end, start, target, mass, dt, steps):
    """A trajectory whose rows marked by rows (None: the one point) end at
    end = (position, momentum, gradient). The other rows run the `steps`
    steps left from start, the state before the drift that stopped the
    marked rows, as one stack; a drift is row-exact, so redoing it gives
    them the bits they had. Returns new arrays: start's are the caller's."""
    if rows is None:
        return end
    end = tuple(np.array(a) for a in end)
    go = ~rows
    if go.any():
        if not isinstance(mass, SpdFactor):
            mass = [m for m, keep in zip(mass, go) if keep]
        rest = _trajectory(*(a[go] for a in start), target, mass, dt, steps)
        for a, b in zip(end, rest):
            a[go] = b
    return end


def hamiltonian(
    state: PhaseState,
    target: TargetModel,
    mass: SpdFactor | Sequence[SpdFactor],
    include_logdet: bool = False,
) -> float | np.ndarray:
    """Total energy J(theta) + 0.5 p' M^-1 p, optionally + 0.5 log|M|, that
    every Hamiltonian accept test compares: a float for one point, a (K,)
    array for a (K, d) stack against one factor or K, each row the bits of
    its call alone. +inf where J is +inf (outside the domain) or the momentum
    is not finite (a diverged ``leapfrog`` row). The log-det term matters
    only when the two endpoints compared have different masses. A point
    takes one factor; a stack one or K (another count raises
    DimensionMismatch)."""
    p = np.asarray(state.momentum, dtype=float)
    _check_mass(mass, p)
    return _energy(target.potential(state.position), p, mass, include_logdet)


def _energy(j, p, mass, include_logdet):
    """J + 0.5 p' M^-1 p (+ 0.5 log|M|) of one point's momentum p, given its
    potential j and one factor, or of each row of a (K, d) stack p, given its
    (K,) potentials, against one factor or K. A momentum that ``solve``
    refuses as not finite (NonFiniteVector; its ``rows`` mark a stack's) is
    +inf, as is one whose J is."""
    mass = mass if isinstance(mass, SpdFactor) else _shared(mass)
    try:
        e = 0.5 * np.vecdot(p, solve(mass, p))
    except NonFiniteVector as exc:  # these rows diverged: J +inf, momentum 0
        if exc.rows is None:
            return np.inf
        stopped = exc.rows
        return _energy(np.where(stopped, np.inf, j), np.where(stopped[:, None], 0.0, p),
                       mass, include_logdet)
    if include_logdet:  # the mass's terms first: one row's are scalars, not arrays
        e = e + 0.5 * (mass.log_det if isinstance(mass, SpdFactor)
                       else np.array([m.log_det for m in mass]))
    return j + e


class _Points(NamedTuple):
    """K chain points, each evaluated once, when proposed. A run of one
    chain holds its one point: theta and grad (d,), j and lam floats and
    mass one SpdFactor (``_point``); a ``ChainState`` holds (K, d) stacks."""

    theta: np.ndarray  # (K, d)
    j: np.ndarray  # (K,) potentials
    grad: np.ndarray | None  # (K, d) gradients; None for MH, which reads none
    mass: list  # one SpdFactor per row; None for MH, which reads none
    lam: np.ndarray  # (K,) repair jitter of each mass; 0 for a constant mass


def _point(points: _Points) -> _Points:
    """The one point of a one-row stack's points."""
    theta, j, grad, mass, lam = points
    return _Points(theta[0], j[0], None if grad is None else grad[0], mass[0], lam[0])


def _rows(point: _Points) -> _Points:
    """A point's points as a one-row stack's."""
    theta, j, grad, mass, lam = point
    return _Points(theta[None], np.array([j]), None if grad is None else grad[None], [mass],
                   np.array([lam]))


def _select(accepted, new: _Points, old: _Points) -> _Points:
    """The new point if accepted, else the old one; for a stack, row by row
    by whole-array selections (accepted a (K,) bool array), a mass or lam
    that both share (MH's) passed through."""
    if not isinstance(accepted, np.ndarray):
        return new if accepted else old
    if accepted.all():
        return new
    if not accepted.any():
        return old
    rows = accepted[:, None]
    return _Points(
        np.where(rows, new.theta, old.theta),
        np.where(accepted, new.j, old.j),
        None if old.grad is None else np.where(rows, new.grad, old.grad),
        old.mass if new.mass is old.mass
        else [n if a else o for a, n, o in zip(accepted.tolist(), new.mass, old.mass)],
        old.lam if new.lam is old.lam else np.where(accepted, new.lam, old.lam),
    )


def _mh_step(points, target, mass_at, cfg, rng):
    """MH transitions of one point or of K: one proposal and one uniform per
    chain, drawn in row order, and one potential call."""
    theta = mh_propose(points.theta, cfg.dt, rng)
    j = target.potential(theta)
    u = np.array([r.random() for r in rng]) if theta.ndim == 2 else rng.random()
    accepted = mh_accept(points.j, j, u)
    new = _Points(theta, j, None, points.mass, points.lam)
    return _select(accepted, new, points), accepted


def _hamiltonian_step(points, target, mass_at, cfg, rng):
    """Hamiltonian transitions of one point or of K in lockstep:
    points -> (points, accepted).

    Each trajectory uses its point's mass; mass_at is called once, on all
    endpoints, an endpoint of infinite potential replaced by its start point
    (that row is rejected anyway), so the policy is asked inside the domain
    only. The start masses' shapes are checked once, before the momenta are
    drawn, for the whole trajectory. delta = H(start) - H(end), each
    ``_energy`` with its own mass, and a rejection is an infinite end energy:
    +inf out of domain, for a diverged momentum and where the end mass cannot
    be built (J is set +inf there), so one accept test per chain, with its
    one uniform, rejects it.
    """
    theta, j, grad, masses, _ = points
    stack = theta.ndim == 2
    _check_dims(masses, theta)
    if stack:
        p0 = np.array([sample_gaussian(m, r) for m, r in zip(masses, rng)])
    else:
        p0 = sample_gaussian(masses, rng)
    dt = cfg.dt
    x, p, g = _trajectory(theta, p0 - 0.5 * dt * grad, grad, target,
                          _shared(masses) if stack else masses, dt, cfg.leapfrog_steps)
    j_end = target.potential(x)
    inside = np.isfinite(j_end)
    # every endpoint inside, the common case, passes the endpoints uncopied
    if inside.all() if stack else inside:
        got, lams = mass_at(x)
    else:
        got, lams = mass_at(np.where(inside[..., None], x, theta))
    # an end mass that cannot be built: rejected, its uniform drawn
    if not stack:
        if got is None:
            got, j_end = masses, np.inf
    elif None in got:
        failed = [m is None for m in got]
        got = [o if f else m for f, m, o in zip(failed, got, masses)]
        j_end = np.where(failed, np.inf, j_end)
    delta = (_energy(j, p0, masses, cfg.include_logdet)
             - _energy(j_end, p, got, cfg.include_logdet))
    accepted = _accept(delta, rng)
    return _select(accepted, _Points(x, j_end, g, got, lams), points), accepted


def hmap_mass(target: LogNormalField, pd_floor: float) -> tuple[SpdFactor, float]:
    """Mass matrix from the Hessian at the MAP point.

    For the log-normal target the MAP Hessian is D^-1 Sigma^-1 D^-1 with
    D = diag(theta_MAP), which is PD, so the repair is a no-op (lam = 0).
    Raises RepairFailed if that Hessian is not finite or cannot be repaired.
    """
    factors, lams = repair_to_pd(target.hessian(target.map_point())[None], pd_floor)
    if factors[0] is None:
        raise RepairFailed("the MAP Hessian is not finite or cannot be repaired")
    return factors[0], float(lams[0])


class Kernel(NamedTuple):
    step: Callable  # (points, target, mass_at, cfg, rngs) -> (points, accepted)
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
    init: np.ndarray | ChainState,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> ChainRecord:
    """Run burn_in + n_samples transitions from init; keep the last n_samples.

    rng is one generator, or a sequence of K generators: then K chains run in
    lockstep, as one (K, d) array, and the record's arrays gain a leading
    axis of K. Chain k draws from rng[k] exactly the numbers, in the order,
    that it would draw alone, and every kernel is row-exact, so row k equals a
    run with rng[k] alone bit for bit, and rng[k] ends in the same state.
    init is one start point of shape (target.dim,), or with K generators a
    (K, target.dim) stack of them; another shape raises DimensionMismatch.
    A start point of infinite potential raises ValueError, and for a
    Hamiltonian method one whose gradient is not finite NonFiniteGradient
    and one whose mass cannot be built RepairFailed.

    init may instead be the ``state`` of an earlier record: then the chains
    go on from the points that record ended in, with their masses, and no
    start point is evaluated. Run with the same generators, the records of a
    run and of its continuation join to the one longer run bit for bit. A
    state of another method, mass spec or target raises ConfigMismatch, and
    one of another chain count DimensionMismatch.

    KERNELS[cfg.method] gives the transition and the mass specs the method
    takes (MH takes any and builds no mass from it); another spec raises
    ConfigMismatch. Deterministic for fixed generator states.
    """
    lockstep = isinstance(rng, Sequence)
    rngs = list(rng) if lockstep else [rng]
    if not rngs:
        raise ValueError("run_chain takes at least one generator")
    k = len(rngs)
    if isinstance(init, ChainState):
        if (init.method != cfg.method or init.mass_spec is not mass_spec
                or init.target is not target):
            raise ConfigMismatch("the state comes from another method, mass spec or target")
        if len(init.points.theta) != k:
            raise DimensionMismatch(f"a state of {len(init.points.theta)} chains for {k}")
        points, mass_at = init.points, init.mass_at
    else:
        points, mass_at = _start(target, mass_spec, cfg.method, init, lockstep, k)

    # stored transition-major, so that each transition writes whole rows
    samples = np.empty((cfg.n_samples, k, target.dim))
    accept_flags = np.empty((cfg.n_samples, k), dtype=bool)
    potentials = np.empty((cfg.n_samples, k))
    lambdas = np.empty((cfg.n_samples, k))

    # one chain runs as one point: 1-D ufuncs skip the broadcasting and 2-D
    # iteration of a (1, d) stack, and no row is split off or stacked again
    one = k == 1
    if one:
        points, rng = _point(points), rngs[0]
    else:
        rng = rngs
    step = KERNELS[cfg.method].step
    for _ in range(cfg.burn_in):
        points, _ = step(points, target, mass_at, cfg, rng)
    for i in range(cfg.n_samples):
        lambdas[i] = points.lam
        points, accept_flags[i] = step(points, target, mass_at, cfg, rng)
        samples[i], potentials[i] = points.theta, points.j
    arrays = (samples, accept_flags, potentials, lambdas)
    state = ChainState(_rows(points) if one else points, mass_at, cfg.method, mass_spec, target)
    if lockstep:
        return ChainRecord(*(np.swapaxes(a, 0, 1) for a in arrays), state)
    return ChainRecord(*(a[:, 0] for a in arrays), state)


def _start(target, mass_spec, method, init, lockstep, k):
    """run_chain's K start points, evaluated and checked, and the mass policy."""
    dim = target.dim
    init = np.asarray(init, dtype=float)
    if init.shape != (dim,) and not (lockstep and init.shape == (k, dim)):
        raise DimensionMismatch(f"init shape {init.shape} vs target dim {dim}")
    theta = np.empty((k, dim))
    theta[:] = init
    j_init = target.potential(theta)
    if not np.isfinite(j_init).all():
        raise ValueError("initial position is outside the target domain")
    step, specs, _ = KERNELS[method]
    if not isinstance(mass_spec, specs):
        raise ConfigMismatch(f"{method} takes no {type(mass_spec).__name__} mass")
    if step is _mh_step:
        return _Points(theta, j_init, None, [None] * k, np.zeros(k)), None
    grad = target.gradient(theta)
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("a start point's gradient is not finite")
    mass_at = mass_spec.mass_at(target)
    masses, lams = mass_at(theta)
    if any(m is None for m in masses):
        raise RepairFailed("a start point's mass cannot be repaired")
    return _Points(theta, j_init, grad, masses, lams), mass_at
