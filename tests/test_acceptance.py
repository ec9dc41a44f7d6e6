"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion. The desk-scale comparison (criteria 8 and 9) runs once as
a module fixture and takes about 13 s.
"""
import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from hessmc import cli
from hessmc.diagnostics import correlation_time, credible_band
from hessmc.linalg import factorize
from hessmc.samplers import (
    FixedSpd,
    LocalHessian,
    SamplerConfig,
    ScaledIdentity,
    hmap_mass,
    run_chain,
)
from hessmc.targets import GaussianTarget, LogNormalField, build_grid_covariance
from support import (
    assert_reversible,
    energy_error_ratio,
    fd_gradient,
    fd_hessian,
    gaussian_2d,
    random_field,
)


def test_criterion_1_derivative_correctness():
    start = time.monotonic()
    for dim in (1, 2, 8, 64):
        rng = np.random.default_rng(1000 + dim)
        target = random_field(dim, rng, variance=0.1)
        for _ in range(200):
            theta = np.exp(target.m + 0.3 * rng.standard_normal(dim))
            g = target.gradient(theta)
            assert np.linalg.norm(g - fd_gradient(target, theta)) <= 1e-5 * np.linalg.norm(g)
            h = target.hessian(theta)
            assert np.abs(h - fd_hessian(target, theta)).max() <= 1e-4 * np.abs(h).max()
    assert time.monotonic() - start < 30.0


def test_criterion_2_map_correctness():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(1, 65))
        target = random_field(dim, rng, variance=0.1)
        theta_map = target.map_point()
        assert np.abs(target.gradient(theta_map)).max() < 1e-8
        d_inv = np.diag(1.0 / theta_map)
        expected = d_inv @ target.log_space.precision @ d_inv
        h = target.hessian(theta_map)
        assert np.abs(h - expected).max() <= 1e-10 * np.abs(expected).max()


def test_criterion_3_integrator_properties():
    rng = np.random.default_rng(31)
    target = gaussian_2d()
    mass = factorize(np.eye(2))

    # reversibility over 25 steps
    for _ in range(10):
        pos = rng.standard_normal(2)
        p = rng.standard_normal(2)
        assert_reversible(pos, p, target, mass, 0.05, 25)

    # energy error halves by ~4x when dt halves
    assert 3.5 <= energy_error_ratio(rng, target, mass) <= 4.5


def test_criterion_4_sampler_exactness_2d_gaussian():
    start = time.monotonic()
    cov = np.array([[2.0, 1.0], [1.0, 2.0]])
    target = GaussianTarget(np.zeros(2), factorize(cov))
    prec = factorize(np.linalg.inv(cov))
    setups = [
        ("MH", 1.0, ScaledIdentity()),
        ("HMC", 0.24, ScaledIdentity()),
        ("HMAP_HMC", 0.2, FixedSpd(prec)),
        ("HLOCAL_HMC", 0.2, LocalHessian(1e-9)),
    ]
    n = 50_000
    for method, dt, mass in setups:
        cfg = SamplerConfig(method=method, dt=dt, leapfrog_steps=10, n_samples=n)
        rec = run_chain(target, mass, cfg, np.zeros(2), np.random.default_rng(101))
        s = rec.samples
        for i in range(2):
            tau, _ = correlation_time(s[:, i])
            se = np.sqrt(cov[i, i] * tau / n)
            assert abs(s[:, i].mean()) < 3 * se, method
        emp = np.cov(s.T)
        assert np.abs(emp - cov).max() / np.abs(cov).min() < 0.05, method
        rel = np.abs(emp - cov) / np.abs(cov)
        assert rel.max() < 0.05, method
    assert time.monotonic() - start < 120.0


def test_criterion_5_lognormal_marginal_means():
    sigma = build_grid_covariance(2, 4, (300.0, 100.0), 120.0, 0.3, 1e-3)
    target = LogNormalField(m=np.linspace(-0.5, 0.5, 8), sigma=sigma)
    mass, _ = hmap_mass(target, 1e-6)
    n = 50_000
    cfg = SamplerConfig(method="HMAP_HMC", dt=0.31, leapfrog_steps=10, n_samples=n)
    rec = run_chain(target, FixedSpd(mass), cfg, target.map_point(),
                    np.random.default_rng(11))
    logs = np.log(rec.samples)
    sig = sigma.matrix()
    for i in range(8):
        tau, _ = correlation_time(logs[:, i])
        se = np.sqrt(sig[i, i] * tau / n)
        assert abs(logs[:, i].mean() - target.m[i]) < 3 * se


def test_criterion_6_constant_hessian_reduction():
    # a Gaussian's Hessian is its constant precision: HLOCAL_HMC, which refreezes
    # the Hessian at every point, retraces HMC on the bare factor of that
    # precision bit for bit, with no repair jitter
    cov = np.array([[2.0, 1.0], [1.0, 2.0]])
    target = GaussianTarget(np.zeros(2), factorize(cov))
    mass = FixedSpd(factorize(target.hessian(np.zeros(2))))
    hmc, hlocal = (
        run_chain(target, spec,
                  SamplerConfig(method=method, dt=0.5, leapfrog_steps=10, n_samples=2000),
                  np.array([1.0, -1.0]), np.random.default_rng(77))
        for method, spec in (("HMC", mass), ("HLOCAL_HMC", LocalHessian(1e-9)))
    )
    assert 0.0 < hmc.accept_flags.mean() < 1.0
    assert np.array_equal(hmc.samples, hlocal.samples)
    assert np.array_equal(hmc.accept_flags, hlocal.accept_flags)
    assert not hlocal.repair_lambdas.any()


def test_criterion_7_diagnostics_oracles():
    rng = np.random.default_rng(13)
    # iid normals
    tau, _ = correlation_time(rng.standard_normal(100_000))
    assert 0.8 <= tau <= 1.3
    # AR(1), phi = 0.9
    phi, n = 0.9, 100_000
    x = np.empty(n)
    x[0] = 0.0
    eps = np.random.default_rng(4).standard_normal(n)
    for k in range(1, n):
        x[k] = phi * x[k - 1] + eps[k]
    tau, _ = correlation_time(x)
    analytic = 1.0 + phi / (1.0 - phi)
    assert abs(tau - analytic) / analytic < 0.15
    # credible band on normals
    band = credible_band(rng.standard_normal(100_000), 0.95)
    assert abs(band.lower[0] + 1.959964) < 0.05
    assert abs(band.upper[0] - 1.959964) < 0.05


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    cfg = cli.load_config(None)
    cfg["run"]["output_dir"] = str(out)
    start = time.monotonic()
    status = cli.run_experiment(cfg)
    elapsed = time.monotonic() - start
    assert status == 0
    return out, elapsed


def read_rows(path: Path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_criterion_8_desk_scale_comparison(desk_run):
    out, elapsed = desk_run
    assert elapsed < 600.0

    summary = {r["method"]: r for r in read_rows(out / "summary.csv")}
    tau = {m: float(summary[m]["tau"]) for m in summary}
    n_eff = {m: float(summary[m]["n_eff"]) for m in summary}
    acce = {m: float(summary[m]["acce"]) for m in summary}

    for m in ("MH", "HMC", "HMAP_HMC", "HLOCAL_HMC"):
        assert acce[m] >= 0.5, (m, acce[m])
    for hess in ("HMAP_HMC", "HLOCAL_HMC"):
        assert tau[hess] * 5 <= tau["HMC"]
        assert tau[hess] * 5 <= tau["MH"]
    # N_eff ordering per the published comparison; 20% tie window between
    # the two Hessian-informed methods
    assert n_eff["HLOCAL_HMC"] >= 0.8 * n_eff["HMAP_HMC"]
    assert min(n_eff["HLOCAL_HMC"], n_eff["HMAP_HMC"]) > n_eff["HMC"]
    assert n_eff["HMC"] > n_eff["MH"]

    def first_lag_below(method, level=0.1):
        rows = [r for r in read_rows(out / f"rho_{method}.csv") if r["chain"] == "0"]
        for r in rows:
            if float(r["rho"]) < level:
                return int(r["lag"])
        # truncation ended the series while still above level, or the
        # series was empty (rho_1 <= 0): decayed by the next lag
        return len(rows) + 1

    hess_lag = max(first_lag_below("HMAP_HMC"), first_lag_below("HLOCAL_HMC"))
    assert first_lag_below("HMC") >= 5 * hess_lag
    assert first_lag_below("MH") >= 5 * hess_lag


def test_criterion_9_credible_band_fidelity(desk_run):
    out, _ = desk_run
    rows = read_rows(out / "band_HMAP_HMC.csv")
    assert len(rows) == 64
    ok = 0
    for r in rows:
        lo, hi = float(r["lower"]), float(r["upper"])
        xlo, xhi = float(r["exact_lower"]), float(r["exact_upper"])
        if abs(lo - xlo) <= 0.15 * abs(xlo) and abs(hi - xhi) <= 0.15 * abs(xhi):
            ok += 1
    assert ok >= 0.9 * len(rows)


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "target": {"rows": 4, "cols": 4},
        "sampler": {"n_samples": 300, "seed": 9, "store_samples": True, "thin": 1},
        "run": {"methods": ["MH", "HMAP_HMC"], "chains": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for d in ("a", "b"):
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / d)]) == 0
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name
