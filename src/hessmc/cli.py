"""Benchmark CLI: run the four-sampler comparison and emit CSV artifacts.

Usage:
    python -m hessmc run --config cfg.json [--method HMC ...] [--seed 1] [--out dir]
    python -m hessmc map --config cfg.json [--out dir]

Config is a single JSON document with flat sections {target, sampler, run};
SETTINGS gives every setting's default, tuned to the desk-scale 8x8-grid
comparison, and its kind, which load_config checks for the file and flags.
Output CSVs are comma-delimited with a header row, '%.17g' floats and LF
line endings so reruns with the same config and seed are byte-identical.
Chains run one after another, each summarized and written before the next
starts; chain c draws from the stream ``np.random.default_rng([seed, c])``.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error (see
EXIT_CODES); config and target errors come before any output is written.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import diagnostics, linalg, samplers
from .diagnostics import CredibleBand, ZeroVariance
from .linalg import DimensionMismatch, NotPositiveDefinite, RepairFailed
from .samplers import KERNELS, METHODS, SamplerConfig
from .targets import LogNormalField, OutOfDomain, build_grid_covariance

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Step sizes for the synthetic desk-scale target (8x8 grid, d = 64).
# The MH and HMC steps are rescaled so every method accepts at >= 0.5 on the
# default target (calibrated empirically; the Hessian-informed steps
# keep their 0.3).
DESK_DT = {"MH": 5e-5, "HMC": 3e-4, "HMAP_HMC": 0.3, "HLOCAL_HMC": 0.3}

# Every setting: section -> key -> (default, kind). A kind is a type plus, for
# a number, its interval and, for a string, its choices (None: any string).
# The default also fixes the shape: a list of as many numbers, or a non-empty
# list of choices with repeats dropped; for dt, one number or an object keyed
# by methods; null only where the default is null. correlation_time needs 10
# samples, credible_band 2, and numpy seeds are non-negative.
SETTINGS = {
    "target": {
        "rows": (8, (int, "[1, inf)")),
        "cols": (8, (int, "[1, inf)")),
        "extent_m": ([8000.0, 4000.0], (float, "(0, inf)")),
        "lengthscale_m": (1000.0, (float, "(0, inf)")),
        # field variance 1e-3: keeps the frozen-local-Hessian acceptance
        # above 0.5 at dt = 0.3 while the covariance conditioning still
        # cripples the unpreconditioned samplers
        "variance": (1e-3, (float, "(0, inf)")),
        "nugget": (1e-6, (float, "[0, inf)")),
        "m_value": (-1.0, (float, "(-inf, inf)")),
        "sigma_csv": (None, (str, None)),
        "m_csv": (None, (str, None)),
    },
    "sampler": {
        "dt": (DESK_DT, (float, "(0, inf)")),
        "leapfrog_steps": (10, (int, "[1, inf)")),
        "n_samples": (25000, (int, "[10, inf)")),
        "burn_in": (0, (int, "[0, inf)")),
        "seed": (0, (int, "[0, inf)")),
        # repair jitter floor must be commensurate with the Hessian scale
        # (~1e4 on the default target); escalation caps at 1e12 * floor
        "pd_floor": (1.0, (float, "(0, inf)")),
        "beta": (1.0, (float, "(0, inf)")),
        "include_logdet": (True, (bool, None)),
        "store_samples": (False, (bool, None)),
        "thin": (10, (int, "[1, inf)")),
        "credible_mass": (0.95, (float, "(0, 1]")),
        "band_samples": (10000, (int, "[2, inf)")),
    },
    "run": {
        "methods": (list(METHODS), (str, METHODS)),
        "chains": (1, (int, "[1, inf)")),
        "output_dir": ("out", (str, None)),
    },
}


class ConfigError(Exception):
    """Bad or inconsistent run configuration."""


# Exit code of each known failure; any other exception keeps its traceback.
EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    DimensionMismatch: EXIT_CONFIG,
    NotPositiveDefinite: EXIT_NUMERICAL,
    OutOfDomain: EXIT_NUMERICAL,
    RepairFailed: EXIT_NUMERICAL,
    ZeroVariance: EXIT_NUMERICAL,
    OSError: EXIT_IO,
}


def _exit_code(command):
    """Make command return its own code, or the exit code of a known failure."""

    @functools.wraps(command)
    def guarded(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except tuple(EXIT_CODES) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            kind = next(k for k in type(exc).__mro__ if k in EXIT_CODES)
            return EXIT_CODES[kind]

    return guarded


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Merge a JSON config file, then overrides, over the defaults in SETTINGS.

    Each value is checked as it is merged, so a bad file value fails even where
    an override replaces it; then a dt object must have an entry for every method.
    """
    cfg = copy.deepcopy(
        {s: {k: d for k, (d, _) in keys.items()} for s, keys in SETTINGS.items()}
    )
    document = {}
    if path is not None:
        try:
            with open(path) as fh:
                document = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, too deep
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    for source in (document, overrides or {}):
        if not isinstance(source, dict):
            raise ConfigError(f"config {path} is not a JSON object: {source!r:.40}")
        for section, values in source.items():
            if section not in SETTINGS:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ConfigError(f"section {section!r} must be an object")
            for key, value in values.items():
                if key not in SETTINGS[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                default, kind = SETTINGS[section][key]
                cfg[section][key] = _setting(f"{section}.{key}", value, default, kind)
    dt = cfg["sampler"]["dt"]
    for method in cfg["run"]["methods"]:
        if isinstance(dt, dict) and method not in dt:
            raise ConfigError(f"sampler.dt has no entry for {method}")
    return cfg


def _setting(name: str, value, default, kind: tuple):
    """value checked against the shape of its default and against its kind;
    a float-kind value is returned as a float."""
    typ, allowed = kind
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
        if typ is not str and len(value) != len(default):
            raise ConfigError(f"{name} must be {len(default)} numbers, got {value!r}")
        items = [_setting(name, v, default[0], kind) for v in value]
        return list(dict.fromkeys(items)) if typ is str else items
    if isinstance(default, dict) and isinstance(value, dict):
        for k in value:
            if k not in default:
                raise ConfigError(f"unknown key {name}.{k}")
        return {k: _setting(f"{name}.{k}", value[k], default[k], kind) for k in value}
    if default is None and value is None:
        return None
    if typ is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if typ is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if typ in (int, float):
        lo, hi = (float(b) for b in allowed[1:-1].split(","))
        ok = (
            type(value) is typ
            and (lo < value if allowed[0] == "(" else lo <= value)
            and (value < hi if allowed[-1] == ")" else value <= hi)
        )
        noun = f"{'an integer' if typ is int else 'a number'} in {allowed}"
    else:
        ok = type(value) is typ and (allowed is None or value in allowed)
        noun = f"one of {allowed}" if allowed else f"a {typ.__name__}"
    if not ok:
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    return value


def method_dt(cfg: dict, method: str) -> float:
    return dt[method] if isinstance(dt := cfg["sampler"]["dt"], dict) else dt


def build_target(cfg: dict) -> LogNormalField:
    """Construct the log-normal field target from the config's target section."""
    t = cfg["target"]
    if t["m_csv"] is not None and t["sigma_csv"] is None:
        raise ConfigError("target.m_csv is given without target.sigma_csv")
    if t["sigma_csv"] is not None:
        try:
            with warnings.catch_warnings():
                # loadtxt only warns on an empty file: make that an error too
                warnings.simplefilter("error", UserWarning)
                sigma_mat = np.loadtxt(t["sigma_csv"], delimiter=",", ndmin=2)
                m = (
                    np.loadtxt(t["m_csv"], delimiter=",").reshape(-1)
                    if t["m_csv"] is not None
                    else np.full(sigma_mat.shape[0], t["m_value"])
                )
        except (OSError, ValueError, UserWarning) as exc:
            raise ConfigError(f"cannot read target CSV: {exc}") from exc
        sigma = linalg.factorize(sigma_mat)
        return LogNormalField(m=m, sigma=sigma, grid_shape=(1, sigma.dim))
    rows, cols = t["rows"], t["cols"]
    extent = tuple(t["extent_m"])
    sigma = build_grid_covariance(
        rows, cols, extent, t["lengthscale_m"], t["variance"], t["nugget"]
    )
    m = np.full(rows * cols, t["m_value"])
    return LogNormalField(m=m, sigma=sigma, grid_shape=(rows, cols))


def exact_band(target: LogNormalField, mass: float) -> CredibleBand:
    """Analytic per-coordinate quantiles of the log-normal marginals."""
    z = ndtri((1.0 + mass) / 2.0)  # the standard normal quantile
    sd = np.sqrt(np.diag(target.sigma.matrix()))
    return CredibleBand(
        lower=np.exp(target.m - z * sd),
        upper=np.exp(target.m + z * sd),
    )


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
            fh.write("\n")


def _setup(cfg: dict) -> tuple[Path, LogNormalField, np.ndarray]:
    """Build the target and its MAP, then write map.csv to the output directory."""
    target = build_target(cfg)
    theta_map = target.map_point()
    out_dir = Path(cfg["run"]["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "map.csv", ["coordinate", "theta_map"], enumerate(theta_map))
    return out_dir, target, theta_map


@_exit_code
def run_experiment(cfg: dict) -> int:
    """Execute the configured comparison; write all CSV artifacts.

    Returns a process exit code (see module docstring).
    """
    out_dir, target, theta_map = _setup(cfg)
    s = cfg["sampler"]
    band_ref = exact_band(target, s["credible_mass"])
    keys = ("leapfrog_steps", "n_samples", "burn_in", "include_logdet")
    summary_rows = []
    for method in cfg["run"]["methods"]:
        mass_spec = KERNELS[method].default(target, s["pd_floor"], s["beta"])
        scfg = SamplerConfig(method, method_dt(cfg, method), **{k: s[k] for k in keys})
        diag_rows, rho_rows = [], []
        for chain in range(cfg["run"]["chains"]):
            rng = np.random.default_rng([s["seed"], chain])
            rec = samplers.run_chain(target, mass_spec, scfg, theta_map, rng)
            d = diagnostics.summarize_chain(rec.samples, rec.accept_flags)
            lam = rec.repair_lambdas.max()
            diag_rows.append((chain, d.acceptance_rate, d.tau, d.n_eff, lam))
            rho_rows.extend((chain, t, r) for t, r in enumerate(d.rho, start=1))
            if chain == 0:
                band = diagnostics.credible_band(
                    rec.samples[: s["band_samples"]], s["credible_mass"]
                )
            if s["store_samples"]:
                write_csv(
                    out_dir / f"samples_{method}_{chain}.csv",
                    [f"x{i}" for i in range(target.dim)],
                    rec.samples[:: s["thin"]],
                )
            del rec  # free this chain's samples before the next chain runs
        write_csv(
            out_dir / f"diag_{method}.csv",
            ["chain", "acce", "tau", "n_eff", "max_repair_lambda"],
            diag_rows,
        )
        write_csv(out_dir / f"rho_{method}.csv", ["chain", "lag", "rho"], rho_rows)
        write_csv(
            out_dir / f"band_{method}.csv",
            ["coordinate", "lower", "upper", "exact_lower", "exact_upper"],
            (
                (i, band.lower[i], band.upper[i], band_ref.lower[i], band_ref.upper[i])
                for i in range(target.dim)
            ),
        )

        acce = float(np.mean([r[1] for r in diag_rows]))
        tau = float(np.mean([r[2] for r in diag_rows]))
        n_eff = float(np.mean([r[3] for r in diag_rows]))
        summary_rows.append((method, acce, tau, n_eff))
        print(f"{method}: acce={acce:.3f} tau={tau:.2f} n_eff={n_eff:.1f}")

    write_csv(out_dir / "summary.csv", ["method", "acce", "tau", "n_eff"], summary_rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessmc", description="Hessian-informed HMC benchmark driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the sampler comparison")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument(
        "--method",
        action="append",
        choices=METHODS,
        help="restrict to this method (repeatable)",
    )
    run_p.add_argument("--seed", type=int, help="override sampler.seed")
    run_p.add_argument("--out", help="override run.output_dir")

    map_p = sub.add_parser("map", help="emit the MAP field only")
    map_p.add_argument("--config", help="JSON config file")
    map_p.add_argument("--out", help="override run.output_dir")
    return parser


# The setting each command-line flag overrides; an empty --out overrides none.
FLAGS = {"seed": "sampler.seed", "method": "run.methods", "out": "run.output_dir"}


@_exit_code
def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    overrides = {}
    for flag, setting in FLAGS.items():
        if args.get(flag) not in (None, ""):
            section, key = setting.split(".")
            overrides.setdefault(section, {})[key] = args[flag]
    cfg = load_config(args["config"], overrides)
    if args["command"] == "map":
        _setup(cfg)
        return EXIT_OK
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
