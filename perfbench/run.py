"""End-to-end benchmark of the hessmc CLI, with a traced per-layer run.

Usage (from the repository root):
    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

The benchmark drives the CLI from outside in a closed loop, one process at a
time. A round is one ``hessmc map`` process (perfbench/map_cpu.py), whose CPU
time up to the CLI's return is the set-up time (interpreter start, imports,
covariance, MAP, map.csv), then one perfbench/child.py process that imports
the package once and makes ``hessmc run --method M`` calls through
``hessmc.cli.main``, for SLICE_S seconds and at least MIN_CALLS calls per
method, timing each call against a calibration task run beside it. The first
round's child also makes one MH call under ``tracemalloc``. Rounds repeat
until ``--seconds`` is used up (at least MIN_ROUNDS of them); each metric is
the median over its samples. Every map process and every call is one
operation; it fails when it exits non-zero or when its outputs fail a check
(see check_outputs), and each repeat at the same seed must reproduce the
first one's files byte for byte.

With ``--trace 1`` each method makes one untraced call and, in a process of
its own, one traced call; the per-layer metrics come from the spans, and the
tracing overhead is the difference between the two calls' CPU times.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is a JSON report with the machine manifest, wall and CPU
medians per label, the quality record (acceptance, tau, n_eff, ESS/s, band
ratios) and each failure. The same report is written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

METHODS = ("MH", "HMC", "HMAP_HMC", "HLOCAL_HMC")
MIN_ROUNDS = 3
# Seconds of calls per method in each round's child process, and the fewest
# calls, so that a method whose call takes more than a quarter of a slice
# still gets MIN_ROUNDS * MIN_CALLS samples in a run.
SLICE_S = 0.6
MIN_CALLS = 4
# A hung process is killed after this long and its work counted as failed.
PROCESS_TIMEOUT_S = 90.0
# HMAP_HMC is an exact kernel: the median over coordinates of its empirical
# 95% band width over the analytic one must lie within HMAP_BAND_TOL_SQRT_N /
# sqrt(n) of 1, where n is the number of draws the band rests on. Chains start
# at the MAP without burn-in, so short chains give narrow bands: on the desk
# target over seeds 0-29 the widest deviation was 4.4 / sqrt(n) at n = 100
# and 3.2 / sqrt(n) at n = 600 (see perfbench/README.md).
HMAP_BAND_TOL_SQRT_N = 6.0
CREDIBLE_Z = 1.959963984540054  # standard normal quantile at 0.975

# The desk target and step sizes, written out so that a later change to the
# CLI defaults does not silently change the benchmark.
DESK_TARGET = {
    "rows": 8,
    "cols": 8,
    "extent_m": [8000.0, 4000.0],
    "lengthscale_m": 1000.0,
    "variance": 1e-3,
    "nugget": 1e-6,
    "m_value": -1.0,
}
DESK_DT = {"MH": 5e-5, "HMC": 3e-4, "HMAP_HMC": 0.3, "HLOCAL_HMC": 0.3}


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload: config sections and samples per method."""

    n_samples: dict
    target: dict = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)
    chains: int = 1

    def config(self, method: str) -> dict:
        sampler = {
            "dt": dict(DESK_DT),
            "leapfrog_steps": 10,
            "burn_in": 0,
            "credible_mass": 0.95,
            "band_samples": 10000,
        }
        sampler.update(self.sampler)
        sampler["n_samples"] = self.n_samples[method]
        return {
            "target": dict(DESK_TARGET, **self.target),
            "sampler": sampler,
            "run": {"methods": [method], "chains": self.chains},
        }


# Why each workload exists is in perfbench/README.md. Sample counts keep one
# call under about a second on a 2-core machine, so each round's slice holds
# a few calls per method.
WORKLOADS = {
    # The default desk target (8x8 grid, d = 64), one chain per method.
    "desk": Workload(n_samples=dict.fromkeys(METHODS, 400)),
    # 12x12 grid, d = 144, about the desk node spacing. Not 16x16: at d = 256
    # HLOCAL_HMC often accepts no move in its first 100-240 transitions from
    # the MAP, and the CLI then exits 1 (see perfbench/README.md).
    "field144": Workload(
        n_samples=dict.fromkeys(METHODS, 100),
        target={"rows": 12, "cols": 12, "extent_m": [12000.0, 6000.0]},
    ),
    # Desk target, eight chains per method. One thread, not two: with
    # HESSMC_THREADS=2 the spread over seeds stayed above a third of the
    # bound (see perfbench/README.md).
    # 40 samples per chain keep the HMAP_HMC band check (n = 40, chain 0 only)
    # tighter than 1: 6 / sqrt(40) = 0.95.
    "chains8": Workload(n_samples=dict.fromkeys(METHODS, 40), chains=8),
    # Desk target, two chains, every sample written out; MH has the long run.
    "archive": Workload(
        n_samples={"MH": 1000, "HMC": 100, "HMAP_HMC": 100, "HLOCAL_HMC": 100},
        sampler={"store_samples": True, "thin": 1},
        chains=2,
    ),
}


# ---------------------------------------------------------------- invocation


@dataclass
class Op:
    """One operation: a map process or one CLI call inside a child process."""

    label: str
    wall_s: float | None
    cpu_s: float | None
    out_dir: Path
    problems: list = field(default_factory=list)
    calib_s: float | None = None
    alloc_mb: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HESSMC_THREADS")


def child_env() -> dict:
    """The environment of every process: hessmc importable, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def spawn(argv: list[str], log_path: Path, env: dict):
    """Run one process to completion; return (exit code, wall s, rusage)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


# --------------------------------------------------------------- correctness


@dataclass(frozen=True)
class Reference:
    theta_map: np.ndarray
    band_lower: np.ndarray
    band_upper: np.ndarray


def reference_field(target: dict) -> Reference:
    """Closed-form MAP exp(m - Sigma 1) and 95% marginal band, computed here
    from the target section so the check does not reuse the package's code."""
    rows, cols = target["rows"], target["cols"]
    width, height = target["extent_m"]
    xs = np.linspace(0.0, width, cols) if cols > 1 else np.array([0.5 * width])
    ys = np.linspace(0.0, height, rows) if rows > 1 else np.array([0.5 * height])
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    sigma = target["variance"] * np.exp(-sq / (2.0 * target["lengthscale_m"] ** 2))
    sigma[np.diag_indices_from(sigma)] += target["nugget"]
    m = np.full(rows * cols, float(target["m_value"]))
    sd = np.sqrt(np.diag(sigma))
    return Reference(
        theta_map=np.exp(m - sigma.sum(axis=1)),
        band_lower=np.exp(m - CREDIBLE_Z * sd),
        band_upper=np.exp(m + CREDIBLE_Z * sd),
    )


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_map(out_dir: Path, theta_map: np.ndarray) -> list[str]:
    data = read_csv(out_dir / "map.csv")
    if data.shape != (theta_map.size, 2):
        return [f"map.csv has shape {data.shape}"]
    if not np.allclose(data[:, 1], theta_map, rtol=1e-12, atol=0.0):
        err = np.max(np.abs(data[:, 1] / theta_map - 1.0))
        return [f"map.csv differs from exp(m - Sigma 1) by {err:.3g} relative"]
    return []


def check_outputs(inv: Op, method: str, cfg: dict, ref: Reference) -> dict:
    """Check one call's files; append problems to inv; return quality figures."""
    out, chains = inv.out_dir, cfg["run"]["chains"]
    s = cfg["sampler"]
    expected = ["map.csv", "summary.csv", f"diag_{method}.csv", f"rho_{method}.csv", f"band_{method}.csv"]
    if s.get("store_samples"):
        expected += [f"samples_{method}_{c}.csv" for c in range(chains)]
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        inv.problems.append(f"missing {', '.join(missing)}")
        return {}
    inv.problems += check_map(out, ref.theta_map)

    diag = read_csv(out / f"diag_{method}.csv")
    acce, tau, n_eff = diag[:, 1], diag[:, 2], diag[:, 3]
    if diag.shape[0] != chains:
        inv.problems.append(f"diag_{method}.csv has {diag.shape[0]} rows, expected {chains}")
    if not (np.all((acce >= 0) & (acce <= 1)) and np.all(tau >= 1) and np.all(np.isfinite(n_eff))):
        inv.problems.append(f"diag_{method}.csv holds out-of-range values")

    band = read_csv(out / f"band_{method}.csv")
    if not (np.allclose(band[:, 3], ref.band_lower, rtol=1e-9)
            and np.allclose(band[:, 4], ref.band_upper, rtol=1e-9)):
        inv.problems.append(f"band_{method}.csv analytic band differs from the closed form")
    band_ratio = float(np.median((band[:, 2] - band[:, 1]) / (band[:, 4] - band[:, 3])))
    tol = HMAP_BAND_TOL_SQRT_N / np.sqrt(min(s["n_samples"], s["band_samples"]))
    if method == "HMAP_HMC" and abs(band_ratio - 1.0) > tol:
        inv.problems.append(f"HMAP_HMC band ratio {band_ratio:.3f} outside 1 +- {tol:.3f}")

    if s.get("store_samples"):
        rows = -(-s["n_samples"] // s["thin"])
        for c in range(chains):
            with open(out / f"samples_{method}_{c}.csv", "rb") as fh:
                lines = sum(1 for _ in fh)
            if lines != rows + 1:
                inv.problems.append(f"samples_{method}_{c}.csv has {lines - 1} rows, expected {rows}")
    return {
        "acceptance": float(acce.mean()),
        "tau": float(tau.mean()),
        "n_eff": float(n_eff.mean()),
        "band_ratio": band_ratio,
    }


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ manifest


def manifest(args) -> dict:
    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return None
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = res.stdout.strip() or None
    env = child_env()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "env": {v: env[v] for v in THREAD_VARS},
        "commit": commit,
    }


# ------------------------------------------------------------------- helpers


def median(values) -> float | None:
    values = list(values)
    return float(statistics.median(values)) if values else None


def ratio(num, den) -> float | None:
    return float(num) / float(den) if num is not None and den else None


class Runner:
    """Runs one workload's processes and accumulates their operations."""

    def __init__(self, name: str, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = WORK / name
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.env = child_env()
        self.ref = reference_field(dict(DESK_TARGET, **workload.target))
        self.cfg_paths = {}
        self.cfgs = {}
        for method in METHODS:
            cfg = workload.config(method)
            path = self.work / f"{method}.json"
            path.write_text(json.dumps(cfg, indent=1))
            self.cfg_paths[method], self.cfgs[method] = path, cfg
        self.ops: list[Op] = []
        self.digests: dict[str, str] = {}
        self.quality: dict[str, dict] = {}
        self.peak_rss_kb = 0
        self.processes = 0

    def record(self, op: Op, key: str) -> None:
        """Compare outputs with the first operation under the same key."""
        if not op.failed:
            d = digest(op.out_dir)
            first = self.digests.setdefault(key, d)
            if d != first:
                op.problems.append(f"outputs differ from the first {key} run at this seed")
        self.ops.append(op)

    def setup(self) -> None:
        out = self.work / "map"
        if out.exists():
            shutil.rmtree(out)
        argv = [sys.executable, str(HERE / "map_cpu.py"), "--config", str(self.cfg_paths["MH"]),
                "--out", str(out)]
        log = self.work / "map.log"
        code, wall, _ = spawn(argv, log, self.env)
        op = Op("map", wall, None, out)
        if code != 0:
            op.problems.append(f"exit code {code}")
        else:
            try:
                op.cpu_s = float(log.read_text().split()[-1])
            except (IndexError, ValueError):
                op.problems.append("map_cpu.py printed no CPU time")
            op.problems += check_map(out, self.ref.theta_map)
        self.record(op, "map")

    def calls(self, methods, seconds: float, min_calls: int = 1, spans: Path | None = None,
              alloc=()) -> None:
        """One child process making calls for each method; spans if given.

        The methods in ``alloc`` make one more call under tracemalloc.
        """
        self.processes += 1
        base = self.work / f"calls_{self.processes}"
        plan = {
            "seconds": seconds,
            "min_calls": min_calls,
            "out": str(base),
            "calls": [
                {"label": m, "args": ["run", "--config", str(self.cfg_paths[m]), "--method", m,
                                      "--seed", str(self.seed)]}
                for m in methods
            ],
            "alloc": list(alloc),
        }
        plan_path, result_path = base.with_suffix(".plan.json"), base.with_suffix(".result.json")
        plan_path.write_text(json.dumps(plan))
        argv = [sys.executable, str(HERE / "child.py"), "--plan", str(plan_path),
                "--result", str(result_path)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        code, wall, usage = spawn(argv, base.with_suffix(".log"), self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        results = json.loads(result_path.read_text()) if result_path.exists() else []
        prefix = "traced " if spans is not None else ""
        # Each call is compared with the median calibration of its method's
        # slice: the machine's speed over those seconds, with less noise than
        # the single calibration just before the call.
        calib = {}
        for c in results:
            if "alloc_mb" not in c:
                calib.setdefault(c["label"], []).append(c["calib_s"])
        calib = {method: statistics.median(v) for method, v in calib.items()}
        for c in results:
            method = c["label"]
            if "alloc_mb" in c:
                op = Op("alloc " + method, None, None, Path(c["out"]), alloc_mb=c["alloc_mb"])
            else:
                op = Op(prefix + method, c["wall_s"], c["cpu_s"], Path(c["out"]),
                        calib_s=calib[method])
            if c["exit"] != 0:
                op.problems.append(f"exit code {c['exit']}")
            else:
                q = check_outputs(op, method, self.cfgs[method], self.ref)
                if q and op.label == method:
                    self.quality.setdefault(method, q)
            self.record(op, method)
        if code != 0:
            self.ops.append(Op(f"{prefix}process", wall, usage.ru_utime + usage.ru_stime, base,
                               [f"child process exit code {code}"]))
        if base.exists():
            shutil.rmtree(base)

    def walls(self, label: str) -> list[float]:
        return [op.wall_s for op in self.ops if op.label == label]

    def cpus(self, label: str) -> list[float]:
        return [op.cpu_s for op in self.ops if op.label == label and op.cpu_s is not None]

    def relative(self, label: str) -> list[float]:
        return [op.cpu_s / op.calib_s for op in self.ops if op.label == label]


# -------------------------------------------------------------- trace metrics


class Spans:
    """The spans of one traced invocation, with derived lookups."""

    def __init__(self, path: Path):
        with np.load(path, allow_pickle=False) as z:
            self.names = [str(n) for n in z["names"]]
            self.name = z["name"]
            self.start = z["start"]
            self.end = z["end"]
            self.parent = z["parent"]
            self.value = z["value"]
        self.dur_ns = self.end - self.start
        self.id = {n: i for i, n in enumerate(self.names)}
        layer = np.array([n.split(".")[0] for n in self.names])
        in_tl = np.isin(layer, ["targets", "linalg"])[self.name].tolist()
        # owner: the run_chain span each span runs under, or -1.
        # outermost_tl: a targets/linalg span not nested in another one.
        # One forward pass, since a parent precedes its children.
        run_chain = self.id["samplers.run_chain"]
        owner, outermost_tl = [], []
        for i, (n, p) in enumerate(zip(self.name.tolist(), self.parent.tolist())):
            owner.append(i if n == run_chain else (owner[p] if p >= 0 else -1))
            outermost_tl.append(in_tl[i] and (p < 0 or not in_tl[p]))
        self.owner = np.array(owner)
        self.in_chain = self.owner >= 0
        self.outermost_tl = np.array(outermost_tl, dtype=bool)
        # Self time: duration minus the time of direct children.
        child = self.parent >= 0
        self.self_ns = self.dur_ns.copy()
        np.subtract.at(self.self_ns, self.parent[child], self.dur_ns[child])

    def mask(self, name: str) -> np.ndarray:
        return self.name == self.id[name]

    def durations_us(self, name: str) -> np.ndarray:
        return self.dur_ns[self.mask(name)] / 1e3

    def count_in_chain(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name) & self.in_chain))


def trace_metrics(runner: Runner, spans: dict, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of one workload from its per-method span files."""
    w = runner.workload
    all_spans = list(spans.values())

    def per_call(name, q=None, scale=1.0):
        vals = np.concatenate([s.durations_us(name) for s in all_spans]) * scale
        if not vals.size:
            return None
        return float(np.median(vals)) if q is None else float(np.percentile(vals, q))

    def transitions(method):
        return w.chains * w.n_samples[method]

    m = {}
    for call in ("potential", "gradient", "hessian"):
        m[f"targets.{call}.us"] = per_call(f"targets.{call}")
        m[f"targets.{call}.us_p99"] = per_call(f"targets.{call}", 99)
    for method, s in spans.items():
        m[f"targets.potential.per_transition.{method}"] = s.count_in_chain("targets.potential") / transitions(method)
        if method != "MH":
            m[f"targets.gradient.per_transition.{method}"] = s.count_in_chain("targets.gradient") / transitions(method)
    if "HLOCAL_HMC" in spans:
        s = spans["HLOCAL_HMC"]
        m["targets.hessian.per_transition.HLOCAL_HMC"] = s.count_in_chain("targets.hessian") / transitions("HLOCAL_HMC")
        m["linalg.factorize.per_transition.HLOCAL_HMC"] = s.count_in_chain("linalg.factorize") / transitions("HLOCAL_HMC")
    m["targets.build_s"] = per_call("cli.build_target", scale=1e-6)
    m["targets.map_point.us"] = per_call("targets.map_point")

    m["linalg.solve.us"] = per_call("linalg.solve")
    m["linalg.solve.us_p99"] = per_call("linalg.solve", 99)
    for method, s in spans.items():
        m[f"linalg.solve.per_transition.{method}"] = s.count_in_chain("linalg.solve") / transitions(method)
    m["linalg.sample_gaussian.us"] = per_call("linalg.sample_gaussian")
    m["linalg.factorize.us"] = per_call("linalg.factorize")
    m["linalg.repair_to_pd.us"] = per_call("linalg.repair_to_pd")
    repairs = attempts = 0
    for s in all_spans:
        rep = s.mask("linalg.repair_to_pd")
        fac = s.mask("linalg.factorize")
        repairs += int(np.count_nonzero(rep))
        attempts += int(np.count_nonzero(fac & (s.parent >= 0) & rep[np.maximum(s.parent, 0)]))
    m["linalg.repair_to_pd.attempts_per_call"] = ratio(attempts, repairs)

    stage = {"setup": 0.0, "sampling": 0.0, "diagnostics": 0.0, "write": 0.0}
    chain_total = 0.0
    for method, s in spans.items():
        rc = s.mask("samplers.run_chain")
        chain_ns = s.dur_ns[rc]
        m[f"samplers.transition_ms.{method}"] = chain_ns.sum() / 1e6 / transitions(method)
        covered = sum(s.dur_ns[s.outermost_tl & (s.owner == i)].sum() for i in np.flatnonzero(rc))
        m[f"samplers.self_share.{method}"] = 1.0 - covered / chain_ns.sum()
        m[f"samplers.accept_rate.{method}"] = float(np.mean(s.value[rc]))
        proposal = s.mask("samplers.mh_propose" if method == "MH" else "samplers.leapfrog")
        m[f"samplers.out_of_domain_frac.{method}"] = float(np.nansum(s.value[proposal])) / transitions(method)
        run_start = s.start[s.mask("cli.run_experiment")].min()
        first, last = s.start[rc].min(), s.end[rc].max()
        stage["setup"] += (first - run_start) / 1e9
        stage["sampling"] += (last - first) / 1e9
        diag = s.mask("diagnostics.summarize_chain") | s.mask("diagnostics.credible_band")
        stage["diagnostics"] += s.dur_ns[diag].sum() / 1e9
        stage["write"] += s.dur_ns[s.mask("cli.write_csv")].sum() / 1e9
        chain_total += chain_ns.sum() / 1e9

    m["diagnostics.summarize_chain.ms"] = per_call("diagnostics.summarize_chain", scale=1e-3)
    m["diagnostics.credible_band.ms"] = per_call("diagnostics.credible_band", scale=1e-3)
    lags = np.concatenate([s.value[s.mask("diagnostics.correlation_time")] for s in all_spans])
    m["diagnostics.correlation_time.lags"] = float(np.median(lags)) if lags.size else None

    for k, v in stage.items():
        m[f"cli.stage_s.{k}"] = v
    written = sum(np.nansum(s.value[s.mask("cli.write_csv")]) for s in all_spans)
    m["cli.write_csv.mb"] = float(written) / 1e6
    m["cli.chain_overlap"] = ratio(chain_total, stage["sampling"])

    for method in spans:
        m[f"trace.overhead_s.{method}"] = traced[method] - untraced[method]
    return m


# ---------------------------------------------------------------------- main


def measure(runner: Runner, seconds: float) -> dict:
    start = time.perf_counter()
    rounds = 0
    while True:
        runner.setup()
        runner.calls(METHODS, SLICE_S, MIN_CALLS, alloc=("MH",) if rounds == 0 else ())
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    metrics = {f"cpu_vs_calib.{m}": median(runner.relative(m)) for m in METHODS}
    metrics["setup_s"] = median(runner.cpus("map"))
    metrics["peak_rss_mb"] = runner.peak_rss_kb * 1024 / 1e6
    metrics["peak_alloc_mb"] = median(op.alloc_mb for op in runner.ops if op.alloc_mb is not None)
    return metrics


def measure_traced(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics, plus each span name's total self time for the report."""
    runner.calls(METHODS, 0.0)
    spans = {}
    for method in METHODS:
        path = runner.work / f"spans_{method}.npz"
        runner.calls([method], 0.0, spans=path)
        if path.exists() and runner.cpus(f"traced {method}"):
            spans[method] = Spans(path)
    if len(spans) < len(METHODS):
        return {}, {}
    untraced = {m: runner.cpus(m)[0] for m in METHODS}
    traced = {m: runner.cpus(f"traced {m}")[0] for m in METHODS}
    self_ms = {}
    for s in spans.values():
        for i, name in enumerate(s.names):
            self_ms[name] = self_ms.get(name, 0.0) + s.self_ns[s.name == i].sum() / 1e6
    self_ms = dict(sorted(self_ms.items(), key=lambda kv: -kv[1]))
    return trace_metrics(runner, spans, untraced, traced), {"self_ms": self_ms}


def run_benchmark(name: str, workload: Workload, seed: int, seconds: float, trace: bool, args) -> tuple[dict, dict]:
    runner = Runner(name, workload, seed)
    if trace:
        metrics, extra = measure_traced(runner)
    else:
        metrics, extra = measure(runner, seconds), {}
    failures = [f"{op.label}: {p}" for op in runner.ops for p in op.problems]
    quality = {}
    for method, q in runner.quality.items():
        q = dict(q)
        wall = median(runner.walls(method))
        q["ess_per_s"] = ratio(q.get("n_eff"), wall)
        if trace and metrics.get(f"targets.gradient.per_transition.{method}"):
            grads = metrics[f"targets.gradient.per_transition.{method}"] * workload.chains * workload.n_samples[method]
            q["ess_per_grad"] = q["n_eff"] * workload.chains / grads
        quality[method] = q
    result = {
        "correct": not failures,
        "attempted": len(runner.ops),
        "failed": sum(op.failed for op in runner.ops),
        "metrics": metrics,
    }
    labels = ("map", *METHODS)
    report = {
        "manifest": manifest(args),
        "samples": {label: len(runner.cpus(label)) for label in labels},
        "wall_s": {label: median(runner.walls(label)) for label in labels},
        "cpu_s": {label: median(runner.cpus(label)) for label in labels},
        "calibration_cpu_s": median(op.calib_s for op in runner.ops if op.calib_s),
        "quality": quality,
        "failures": failures,
        **extra,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hessmc" / "cli.py").is_file():
        print(f"error: no hessmc sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["per_layer" if args.trace else "end_to_end"]

    result, report = run_benchmark(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args
    )
    values = result["metrics"]
    result["metrics"] = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in spec}
    missing = [n for n, v in result["metrics"].items() if v["value"] is None]
    if missing:
        report["failures"].append(f"metrics not measured: {', '.join(missing)}")
        result["correct"] = False

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"result": result, **report}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
