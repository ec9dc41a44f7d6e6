"""Hessian-informed HMC sampling library and benchmark harness."""

from .diagnostics import (
    ChainDiagnostics,
    CredibleBand,
    correlation_time,
    credible_band,
    spatial_average,
)
from .linalg import (
    DimensionMismatch,
    NonFiniteVector,
    NotPositiveDefinite,
    RepairFailed,
    SpdFactor,
    factorize,
    repair_to_pd,
    sample_gaussian,
    solve,
)
from .samplers import (
    ChainRecord,
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
from .targets import (
    GaussianTarget,
    LogNormalField,
    OutOfDomain,
    TargetModel,
    build_grid_covariance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
