"""Benchmark CLI: run the four-sampler comparison and emit CSV artifacts.

Usage:
    python -m hessmc run --config cfg.json [--method HMC ...] [--seed 1] [--out dir]
    python -m hessmc map --config cfg.json [--out dir]

Config is a single JSON document with flat sections {target, sampler, run};
SETTINGS gives every setting's default, tuned to the desk-scale 8x8-grid
comparison, and its kind, which load_config checks for the file and flags.
Output CSVs are comma-delimited with a header row, LF line endings and '%.17g'
numbers (a float reads back as the float written, an integer column as
integers), so reruns with the same config and seed are byte-identical.
write_rows formats a float array in numpy, chunk by chunk, to the bytes
'%.17g' gives; the summary's rows and a chunk holding a value outside
1e-4 <= |x| < 1e16 go through one '%' template per line.
A method's chains run in lockstep (``samplers.run_chain`` with one generator
per chain), in blocks of at most 96 KiB of samples across the chains (one
sample if one transition's samples are more) and at most
ceil(n_samples / (chains + 1)) samples, so that the chains' block holds fewer
than n_samples + chains samples, about one chain's run, however short the run
and many the chains; one ``run_chain`` call each. A block
continues the chains from the ``state`` the last block's record ends in, with
the same generators, so no start point is evaluated twice and the blocks join
to one run bit for bit; chain c draws from the stream
``np.random.default_rng([seed, c])`` and its output is the bytes that stream
gives alone. A block's samples are written and reduced to spatial averages
before the next block runs, and only its state outlives it; a stored chain's
samples file stays open across a method's blocks, so a run that stores more
chains than the process may open files exits 4 part-way. Chain 0's first
band_samples rows are merged block by block into the few of each
coordinate's smallest and largest values that its band reads
(``diagnostics.BandTails``, which holds those tails alone, sorted, and
merges a few coordinates at a time; ``credible_band`` reads the band off
them), so memory holds one block, those tails and a few floats per sample,
never a chain's record. The per-sample floats are allocated once, after
the target and its MAP and before any output, so a run too large to hold
them is a config error, as is a grid too large to build, and a method's
tails are freed before the next method runs. A run makes no numpy overflow
or invalid-value warning: a chain judges such a value itself (as a rejected
proposal, or as a numerical error below), so a known error prints its one
line alone.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error (see
EXIT_CODES); config and target errors come before any output is written.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diagnostics, linalg, samplers
from .diagnostics import CredibleBand, ZeroVariance
from .linalg import DimensionMismatch, NotPositiveDefinite, RepairFailed
from .samplers import KERNELS, METHODS, NonFiniteGradient, SamplerConfig
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
    NonFiniteGradient: EXIT_NUMERICAL,
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
        return LogNormalField(m=m, sigma=sigma)
    rows, cols = t["rows"], t["cols"]
    extent = tuple(t["extent_m"])
    try:
        sigma = build_grid_covariance(
            rows, cols, extent, t["lengthscale_m"], t["variance"], t["nugget"]
        )
    except (MemoryError, ValueError) as exc:  # numpy: too large to hold, or to index
        raise ConfigError(f"a {rows} x {cols} grid: {exc}") from None
    m = np.full(rows * cols, t["m_value"])
    return LogNormalField(m=m, sigma=sigma)


def exact_band(target: LogNormalField, mass: float) -> CredibleBand:
    """Analytic per-coordinate quantiles of the log-normal marginals.

    The standard normal quantile is ``statistics.NormalDist().inv_cdf``
    (Wichura, "Algorithm AS 241", *Applied Statistics* 37, 1988), imported
    here so that ``hessmc map`` never loads it. Where (1 + mass) / 2 rounds
    to 1, at which ``inv_cdf`` raises, the quantile is +inf: the band (0, inf).
    """
    from statistics import NormalDist

    q = (1.0 + mass) / 2.0
    z = math.inf if q == 1.0 else NormalDist().inv_cdf(q)
    sd = np.sqrt(np.diag(target.sigma.matrix()))
    return CredibleBand(
        lower=np.exp(target.m - z * sd),
        upper=np.exp(target.m + z * sd),
    )


# '%.17g' of a float block in numpy, for write_rows. Where 1e-4 <= |x| < 1e16,
# '%.17g' writes |x| in fixed notation as N * 10**(k - 16), N the 17-digit
# integer nearest |x| * 10**s (ties to even), s = 16 - k, k = floor(log10 |x|).
# s lies in [1, 20], so 10**s is an exact double, and Dekker's product (with
# Veltkamp's split into 26-bit halves) gives |x| * 10**s = hi + lo exactly;
# hi >= 2**53 is an even integer, so N = hi + rint(lo). N stays below 10**17:
# the largest double under each power of ten from 1e-3 to 1e16 lies at least
# 8.3e-17 of it below, more than half a unit in the 17th digit. Each value is a
# 40-byte cell of five words: "-0.000" and N's leading digit, then four
# groups of four digits, every digit followed by a '.', the last one by the
# separator. A mask chosen by the sign, s and N's trailing zeros zeroes the
# bytes the text leaves out, and bytes.translate drops the zeros.
_SPLIT = 134217729.0  # 2**27 + 1
_POW10 = np.array([float(10**s) for s in range(22)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _digit_words() -> np.ndarray:
    """Word g < 10**4: g's four digits, each followed by '.'; word 10**4 + d:
    '-0.000', then the digit d and '.'."""
    words = np.full((10**4 + 10, 8), ord("."), np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups = words[: 10**4].reshape(10, 10, 10, 10, 8)
    groups[..., 0] = digits[:, None, None, None]
    groups[..., 2] = digits[:, None, None]
    groups[..., 4] = digits[:, None]
    groups[..., 6] = digits
    words[10**4 :, :6] = np.frombuffer(b"-0.000", np.uint8)
    words[10**4 :, 6] = digits
    return words.view(np.uint64).ravel()


def _group_zeros() -> np.ndarray:
    """Twice the trailing zeros of each four-digit group g < 10**4."""
    zeros = np.zeros((10, 10, 10, 10), np.int64)
    zeros[..., 0] += 2
    zeros[..., 0, 0] += 2
    zeros[..., 0, 0, 0] += 2
    zeros[0, 0, 0, 0] += 2
    return zeros.ravel()


def _cell_masks() -> np.ndarray:
    """The five mask words of a cell, at row 34 s + 2 t + sign for a value
    whose N has t trailing zeros; 0xff marks a byte of the text."""
    point = 17 - np.arange(21)[:, None, None, None]  # N's digits before the point
    digits = 17 - np.arange(17)[:, None, None]  # N's significant digits
    keep = np.zeros((21, 17, 2, 40), bool)
    keep[:, :, 1, 0] = True  # '-'
    keep[..., 1:3] = point <= 0  # "0."
    keep[..., 3:6] = np.arange(3) < -point
    keep[..., 6::2] = np.arange(17) < np.maximum(point, digits)
    keep[..., 7::2] = (np.arange(17) == point - 1) & (point < digits)
    keep[..., 39] = True  # the separator
    return (keep * np.uint8(255)).view(np.uint64).reshape(-1, 5)


_WORDS = _digit_words()
_ZEROS2 = _group_zeros()
_MASKS = _cell_masks()
# Bytes a value holds at _format's peak, its bytes.translate: |x|, s, N's
# leading digit and the trailing-zero count, a zero group's flag, and its
# 40-byte cell three times: in the array, in its bytes and in what translate
# makes before it drops the zeros. write_rows sizes its chunks so that these
# come to at most _CHUNK_BYTES (one row if a row holds more). A run that
# stores its samples peaks while it writes a block: the band's tails, one
# block (_BLOCK_BYTES), one chunk and each chain's 8 KiB file buffer.
_VALUE_BYTES = 4 * 8 + 1 + 3 * 40
_CHUNK_BYTES = 96 * 1024
# The most bytes of samples one block of run_experiment holds across its
# chains, as many as a writer chunk; run_experiment also caps a block's samples
# by the run's length.
_BLOCK_BYTES = 96 * 1024


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, N) of each value of x in 1e-4 <= x < 1e16: N the 17-digit integer
    nearest x * 10**s."""
    s = (16.0 - np.floor(np.log10(x))).astype(np.int64)
    ah = x * _SPLIT
    ah -= ah - x
    al = x - ah
    while True:
        hi = x * _POW10.take(s)
        bh, bl = _POW10_HI.take(s), _POW10_LO.take(s)
        lo = (((ah * bh - hi) + al * bh) + ah * bl) + al * bl  # x 10**s - hi, exactly
        if hi.min() > 1e16 and hi.max() < 1e17:
            break
        # log10 may miss k by one next to a power of ten: step s where the
        # exact hi + lo is outside [1e16, 1e17)
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        if not (low.any() or high.any()):
            break
        s += low
        s -= high
    return s, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _format(fh, block: np.ndarray, size: np.ndarray) -> None:
    """Write the '%.17g' lines of block to fh, given size = |block| with
    every value in 1e-4 <= |x| < 1e16."""
    s, n = _decimal(size.reshape(-1))
    groups = np.empty((len(n), 5), np.int64)
    for col in (4, 3, 2, 1):
        n, groups[:, col] = np.divmod(n, 10**4)
    groups[:, 0] = n + 10**4
    zeros = _ZEROS2.take(groups[:, 4])
    for col in (3, 2, 1):  # a zero group: count on into the one before it
        zero = zeros == 8 * (4 - col)
        if not zero.any():
            break
        zeros += _ZEROS2.take(groups[:, col]) * zero
    s *= 34
    s += zeros
    s += np.signbit(block).reshape(-1)
    cells = _WORDS.take(groups)
    del groups  # not held at the peak that _VALUE_BYTES counts
    cells &= _MASKS.take(s, axis=0)
    text = cells.view(np.uint8).reshape(*block.shape, 40)
    text[:, :, 39] = ord(",")
    text[:, -1, 39] = ord("\n")
    fh.write(cells.tobytes().translate(None, b"\0"))


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows to path under a header line (see write_rows)."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        write_rows(fh, rows)


def write_rows(fh, rows) -> None:
    """Write the CSV lines of rows to the binary file fh.

    rows is a 2-D float array, or a list of tuples whose str items are written
    as they are. A float array is formatted in numpy in chunks of rows of at
    most _CHUNK_BYTES; a chunk holding 0, inf, NaN, |x| < 1e-4 or |x| >= 1e16,
    and a list, are written through one '%' template built from the first
    row: '%.17g' for a number, '%s' for a str. The two paths write the same
    bytes.
    """
    if len(rows) == 0:
        return
    line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0]) + "\n"
    if not isinstance(rows, np.ndarray):
        for row in rows:
            fh.write((line % row).encode())
        return
    step = max(1, _CHUNK_BYTES // (_VALUE_BYTES * rows.shape[1]))
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        size = np.absolute(chunk)
        if size.min() >= 1e-4 and size.max() < 1e16:  # a NaN fails both
            _format(fh, chunk, size)
            continue
        for row in chunk:
            fh.write((line % tuple(row.tolist())).encode())


def _write_map(cfg: dict, theta_map: np.ndarray) -> Path:
    """Write map.csv to the output directory, made if missing; return the directory."""
    out_dir = Path(cfg["run"]["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "map.csv", ["coordinate", "theta_map"],
              np.column_stack((np.arange(len(theta_map)), theta_map)))
    return out_dir


@_exit_code
@np.errstate(over="ignore", invalid="ignore")
def run_experiment(cfg: dict) -> int:
    """Execute the configured comparison; write all CSV artifacts.

    Returns a process exit code (see module docstring).
    """
    s = cfg["sampler"]
    n, chains, thin = s["n_samples"], cfg["run"]["chains"], s["thin"]
    target = build_target(cfg)
    theta_map = target.map_point()
    try:  # each sample's spatial average and accept flag, reused by every method
        averages, flags = np.empty((chains, n)), np.empty((chains, n), dtype=bool)
    except (MemoryError, ValueError) as exc:  # numpy: too large to hold, or to index
        raise ConfigError(f"{chains} chains x {n} samples: {exc}") from None
    out_dir = _write_map(cfg, theta_map)
    band_ref = exact_band(target, s["credible_mass"])
    keys = ("leapfrog_steps", "n_samples", "burn_in", "include_logdet")
    # A block holds at most _BLOCK_BYTES of samples across the chains (one
    # sample if that is more) and at most ceil(n / (K + 1)) samples, so the
    # K chains' block holds fewer than n + K samples: 8 chains of 40 desk
    # samples run in blocks of 5, where the byte cap alone gives blocks of 24
    # and a tracemalloc peak of 0.221 MB, not 0.136 MB. Beside the block, only
    # the band's tails of chain 0's first band_samples rows are held.
    block = min(-(-n // (chains + 1)),
                max(1, _BLOCK_BYTES // (8 * target.dim * chains)))
    summary_rows = []
    for method in cfg["run"]["methods"]:
        mass_spec = KERNELS[method].default(target, s["pd_floor"], s["beta"])
        scfg = SamplerConfig(method, method_dt(cfg, method), **{k: s[k] for k in keys})
        rngs = [np.random.default_rng([s["seed"], chain]) for chain in range(chains)]
        lams = np.zeros(chains)
        tails = diagnostics.BandTails(min(n, s["band_samples"]), target.dim,
                                      s["credible_mass"])
        position = theta_map  # then the state the last block ended in
        with contextlib.ExitStack() as files:
            sinks = [files.enter_context(open(out_dir / f"samples_{method}_{chain}.csv", "wb"))
                     for chain in range(chains if s["store_samples"] else 0)]
            for fh in sinks:
                fh.write(",".join(f"x{i}" for i in range(target.dim)).encode() + b"\n")
            for start in range(0, n, block):
                size = min(block, n - start)
                burn_in = scfg.burn_in if start == 0 else 0
                rec = samplers.run_chain(target, mass_spec,
                                         replace(scfg, n_samples=size, burn_in=burn_in),
                                         position, rngs)
                position = rec.state
                averages[:, start : start + size] = diagnostics.spatial_average(rec.samples)
                flags[:, start : start + size] = rec.accept_flags
                lams = np.maximum(lams, rec.repair_lambdas.max(axis=1))
                if start < tails.n:
                    tails.add(rec.samples[0, : tails.n - start])
                for chain, fh in enumerate(sinks):
                    write_rows(fh, rec.samples[chain, -start % thin :: thin])
                del rec  # free this block's samples: only its state goes on
        band = diagnostics.credible_band(tails, s["credible_mass"])
        del tails
        diag_rows, rho_rows = [], []
        for chain in range(chains):
            d = diagnostics.summarize_chain(averages[chain], flags[chain])
            diag_rows.append((chain, d.acceptance_rate, d.tau, d.n_eff, lams[chain]))
            lags = np.arange(1, len(d.rho) + 1)
            rho_rows.append(np.column_stack((np.full(len(lags), chain), lags, d.rho)))
        write_csv(
            out_dir / f"diag_{method}.csv",
            ["chain", "acce", "tau", "n_eff", "max_repair_lambda"],
            np.array(diag_rows),
        )
        write_csv(out_dir / f"rho_{method}.csv", ["chain", "lag", "rho"],
                  np.concatenate(rho_rows))
        del d, lags, rho_rows  # so that none is held beside the next method's
        write_csv(
            out_dir / f"band_{method}.csv",
            ["coordinate", "lower", "upper", "exact_lower", "exact_upper"],
            np.column_stack((np.arange(target.dim), band.lower, band.upper,
                             band_ref.lower, band_ref.upper)),
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


_parser = functools.cache(build_parser)  # main's one parser, built on first use


@_exit_code
def main(argv: list[str] | None = None) -> int:
    args = vars(_parser().parse_args(argv))
    overrides = {}
    for flag, setting in FLAGS.items():
        if args.get(flag) not in (None, ""):
            section, key = setting.split(".")
            overrides.setdefault(section, {})[key] = args[flag]
    cfg = load_config(args["config"], overrides)
    if args["command"] == "map":
        _write_map(cfg, build_target(cfg).map_point())
        return EXIT_OK
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
