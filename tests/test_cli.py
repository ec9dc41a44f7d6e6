"""Tests for the benchmark CLI: config handling, CSV outputs, exit codes."""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hessmc
from hessmc import diagnostics
from hessmc.cli import (
    EXIT_CONFIG,
    ConfigError,
    build_target,
    exact_band,
    load_config,
    main,
    method_dt,
    run_experiment,
)
from hessmc.linalg import factorize
from hessmc.samplers import METHODS
from hessmc.targets import LogNormalField


def small_config(tmp_path, **overrides):
    cfg = {
        "target": {"rows": 2, "cols": 2, "variance": 0.05, "nugget": 1e-4},
        "sampler": {"n_samples": 40, "seed": 7, "store_samples": True, "thin": 1},
        "run": {"methods": ["MH"], "output_dir": str(tmp_path / "out")},
    }
    for section, vals in overrides.items():
        cfg.setdefault(section, {}).update(vals)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_defaults_standalone(self):
        cfg = load_config(None)
        assert cfg["run"]["methods"] == ["MH", "HMC", "HMAP_HMC", "HLOCAL_HMC"]
        assert method_dt(cfg, "HMAP_HMC") == 0.3

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"sampler": {"stepsize": 0.1}}')
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_unknown_method_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"run": {"methods": ["NUTS"]}}')
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_invalid_json_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "document", [b"[1, 2]", b'"x"', b"null", b"\xff{}", b"[" * 100_000],
        ids=["list", "string", "null", "not-utf8", "too-deep"],
    )
    def test_non_object_document_exit_code(self, tmp_path, capsys, document):
        p = tmp_path / "bad.json"
        p.write_bytes(document)
        assert main(["run", "--config", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ConfigError")

    def test_methods_deduplicated(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"run": {"methods": ["HMC", "MH", "HMC"]}}')
        assert load_config(str(p))["run"]["methods"] == ["HMC", "MH"]
        flags = {"run": {"methods": ["MH", "MH"]}}
        assert load_config(str(p), flags)["run"]["methods"] == ["MH"]

    def test_overridden_file_value_still_checked(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"sampler": {"seed": -1}}')
        with pytest.raises(ConfigError):
            load_config(str(p), {"sampler": {"seed": 3}})

    def test_scalar_dt_applies_to_all(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"sampler": {"dt": 0.05}}')
        cfg = load_config(str(p))
        assert method_dt(cfg, "MH") == 0.05
        assert method_dt(cfg, "HLOCAL_HMC") == 0.05


class TestBuildTarget:
    def test_grid_target_dims(self):
        cfg = load_config(None)
        cfg["target"]["rows"] = 3
        cfg["target"]["cols"] = 4
        t = build_target(cfg)
        assert t.dim == 12
        assert t.grid_shape == (3, 4)
        assert np.allclose(t.m, -1.0)

    def test_csv_target(self, tmp_path):
        sigma = np.array([[0.5, 0.1], [0.1, 0.5]])
        np.savetxt(tmp_path / "sigma.csv", sigma, delimiter=",")
        np.savetxt(tmp_path / "m.csv", np.array([0.3, -0.2]), delimiter=",")
        cfg = load_config(None)
        cfg["target"]["sigma_csv"] = str(tmp_path / "sigma.csv")
        cfg["target"]["m_csv"] = str(tmp_path / "m.csv")
        t = build_target(cfg)
        assert t.dim == 2
        assert np.allclose(t.sigma.matrix(), sigma)
        assert np.allclose(t.m, [0.3, -0.2])


class TestExactBand:
    def test_unit_scalar(self):
        t = LogNormalField(m=np.array([0.0]), sigma=factorize(np.array([[1.0]])))
        band = exact_band(t, 0.95)
        assert band.lower[0] == pytest.approx(np.exp(-1.959964), rel=1e-5)
        assert band.upper[0] == pytest.approx(np.exp(1.959964), rel=1e-5)

    def test_small_mass_collapses_to_median(self):
        t = LogNormalField(m=np.array([0.4]), sigma=factorize(np.array([[1.0]])))
        band = exact_band(t, 1e-12)
        assert band.lower[0] == pytest.approx(np.exp(0.4), rel=1e-5)
        assert band.upper[0] == pytest.approx(np.exp(0.4), rel=1e-5)

    def test_matches_direct_sampling(self):
        sigma = np.diag([0.4, 0.9])
        t = LogNormalField(m=np.array([0.1, -0.5]), sigma=factorize(sigma))
        rng = np.random.default_rng(0)
        draws = np.exp(
            t.m + rng.standard_normal((200_000, 2)) * np.sqrt(np.diag(sigma))
        )
        emp = diagnostics.credible_band(draws, 0.95)
        band = exact_band(t, 0.95)
        assert np.allclose(emp.lower, band.lower, rtol=0.02)
        assert np.allclose(emp.upper, band.upper, rtol=0.02)


def test_cli_import_skips_scipy_stats():
    # scipy.stats takes most of a short CLI process's start-up time
    src = str(Path(hessmc.__file__).resolve().parents[1])
    code = "import hessmc.cli, sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class TestRunCommand:
    def test_smoke_outputs(self, tmp_path):
        cfg_path = small_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in (
            "map.csv",
            "samples_MH_0.csv",
            "diag_MH.csv",
            "rho_MH.csv",
            "band_MH.csv",
            "summary.csv",
        ):
            assert (out / name).exists(), name
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,acce,tau,n_eff"
        assert len(summary) == 2
        assert summary[1].startswith("MH,")

    def test_determinism_byte_identical(self, tmp_path):
        cfg_path = small_config(tmp_path)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
        for name in ("map.csv", "samples_MH_0.csv", "diag_MH.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = small_config(tmp_path)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
              "--seed", "123"])
        assert (tmp_path / "a" / "samples_MH_0.csv").read_bytes() != (
            tmp_path / "b" / "samples_MH_0.csv"
        ).read_bytes()

    def test_chains_do_not_accumulate_in_memory(self, tmp_path):
        cfg = load_config(None, {
            "target": {"rows": 4, "cols": 4},
            "sampler": {"n_samples": 2000},
            "run": {"methods": ["MH"], "output_dir": str(tmp_path / "out")},
        })

        def peak(chains):
            cfg["run"]["chains"] = chains
            tracemalloc.start()
            try:
                assert run_experiment(cfg) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first call: one-off allocations and caches
        sample_array = 2000 * 16 * 8
        assert peak(8) - peak(1) < 3 * sample_array

    def test_samples_round_trip_reproduces_diag(self, tmp_path):
        cfg_path = small_config(
            tmp_path, sampler={"n_samples": 400, "dt": 0.02, "thin": 1}
        )
        main(["run", "--config", str(cfg_path)])
        out = tmp_path / "out"
        samples = np.loadtxt(out / "samples_MH_0.csv", delimiter=",", skiprows=1)
        diag = np.loadtxt(out / "diag_MH.csv", delimiter=",", skiprows=1)
        tau, _ = diagnostics.correlation_time(diagnostics.spatial_average(samples))
        assert tau == pytest.approx(diag[2], abs=1e-9)
        n_eff = diagnostics.effective_samples(samples.shape[0], tau)
        assert n_eff == pytest.approx(diag[3], abs=1e-9)

    def test_multiple_chains_distinct(self, tmp_path):
        cfg_path = small_config(tmp_path, run={"chains": 2})
        main(["run", "--config", str(cfg_path)])
        out = tmp_path / "out"
        a = (out / "samples_MH_0.csv").read_bytes()
        b = (out / "samples_MH_1.csv").read_bytes()
        assert a != b
        diag = (out / "diag_MH.csv").read_text().splitlines()
        assert len(diag) == 3

    def test_method_filter(self, tmp_path):
        cfg_path = small_config(tmp_path)
        main(["run", "--config", str(cfg_path), "--method", "HMC",
              "--out", str(tmp_path / "m")])
        assert (tmp_path / "m" / "diag_HMC.csv").exists()
        assert not (tmp_path / "m" / "diag_MH.csv").exists()

    def test_chain_streams_independent(self, tmp_path):
        one = small_config(tmp_path, run={"chains": 1})
        main(["run", "--config", str(one), "--out", str(tmp_path / "one")])
        two = small_config(tmp_path, run={"chains": 2})
        for seed in ("7", "0", "1"):
            main(["run", "--config", str(two), "--seed", seed,
                  "--out", str(tmp_path / f"s{seed}")])

        def samples(run, chain):
            return (tmp_path / run / f"samples_MH_{chain}.csv").read_bytes()

        # stream [seed, 0] is the stream of seed alone (small_config's seed is 7)
        assert samples("one", 0) == samples("s7", 0)
        # (seed 0, chain 1) and (seed 1, chain 0) are different streams
        assert samples("s0", 1) != samples("s1", 0)


class TestMapCommand:
    def test_map_only(self, tmp_path):
        cfg_path = small_config(tmp_path)
        assert main(["map", "--config", str(cfg_path),
                     "--out", str(tmp_path / "m")]) == 0
        lines = (tmp_path / "m" / "map.csv").read_text().splitlines()
        assert lines[0] == "coordinate,theta_map"
        assert len(lines) == 5
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(v > 0 for v in values)

    @pytest.mark.parametrize(
        "sections, code",
        [({"target": {"m_value": 800}}, 3),
         ({"sampler": {"dt": {"MH": 0.1}}, "run": {"methods": list(METHODS)}}, 2)],
        ids=["map-overflows", "dt-missing"],
    )
    def test_map_rejects_before_writing(self, tmp_path, sections, code):
        cfg_path = small_config(tmp_path, **sections)
        assert main(["map", "--config", str(cfg_path),
                     "--out", str(tmp_path / "m")]) == code
        assert not (tmp_path / "m").exists()


@pytest.mark.parametrize(
    "sections, args, code",
    [
        # the default methods need a dt for every method
        ({"sampler": {"dt": {"MH": 0.1}}, "run": {"methods": list(METHODS)}}, [], 2),
        ({"sampler": {"dt": 0.0}}, [], 2),
        ({"sampler": {"dt": {"MH": -1}}}, [], 2),
        ({"sampler": {"n_samples": "abc"}}, [], 2),
        ({"sampler": {"n_samples": 5}}, [], 2),
        ({"run": {"chains": "2"}}, [], 2),
        ({"target": {"rows": 0}}, [], 2),
        ({}, ["--seed", "-1"], 2),
        ({"sampler": {"thin": 0}}, [], 2),
        ({"target": {"sigma_csv": "asym.csv"}}, [], 2),
        ({"target": {"sigma_csv": "text.csv"}}, [], 2),
        ({"target": {"variance": -1}}, [], 2),
        ({"target": {"variance": 10**400}}, [], 2),
        ({"target": {"lengthscale_m": "a"}}, [], 2),
        ({"target": {"extent_m": [1.0]}}, [], 2),
        ({"target": {"m_value": float("nan")}}, [], 2),
        ({"run": {"methods": 5}}, [], 2),
        ({"sampler": {"pd_floor": 0}, "run": {"methods": ["HLOCAL_HMC"]}}, [], 2),
        ({"sampler": {"beta": -1}}, [], 2),
        # rejected at load, before any sampling
        ({"sampler": {"credible_mass": 2.0}}, [], 2),
        ({"run": {"output_dir": 5}}, [], 2),
        ({"sampler": {"include_logdet": "no"}}, [], 2),
        ({"sampler": {"store_samples": "no"}}, [], 2),
        ({"sampler": {"dt": {"MH": 0.1, "HLOCAL": 0.3}}}, [], 2),
        ({"target": {"m_csv": "m.csv"}}, [], 2),
        # loadtxt only warns on an empty file; the CLI prints just its error
        ({"target": {"sigma_csv": "empty.csv"}}, [], 2),
        ({"target": {"sigma_csv": "sym.csv", "m_csv": "empty.csv"}}, [], 2),
        ({"target": {"sigma_csv": "nan.csv"}}, [], 3),
        ({"target": {"sigma_csv": "inf.csv"}}, [], 3),
        # the squared lengthscale underflows to 0, so the covariance is NaN
        ({"target": {"lengthscale_m": 1e-300}}, [], 3),
        # the MAP exp(m - Sigma 1) underflows to 0, overflows or is NaN
        ({"target": {"variance": 1e300}}, [], 3),
        ({"target": {"nugget": 1e300}}, [], 3),
        ({"target": {"m_value": 800}}, [], 3),
        ({"target": {"m_value": 1e300}}, [], 3),
        ({"target": {"sigma_csv": "sym.csv", "m_csv": "m_nan.csv"}}, [], 3),
        # every proposal is rejected, so the chain never moves; the mean of
        # the 43 equal values is off by an ulp
        ({"sampler": {"dt": 1000.0}}, [], 3),
        ({"sampler": {"dt": 1000.0, "n_samples": 43}}, [], 3),
    ],
    ids=["dt-missing", "dt-zero", "dt-negative", "n-samples-text", "n-samples-short",
         "chains-text", "rows-zero", "seed-negative", "thin-zero", "sigma-asymmetric",
         "sigma-not-numbers", "variance-negative", "variance-int-beyond-float",
         "lengthscale-text", "extent-short",
         "m-value-nan", "methods-number", "pd-floor-zero", "beta-negative",
         "credible-mass-above-one", "output-dir-number", "include-logdet-text",
         "store-samples-text", "dt-unknown-method", "m-csv-without-sigma",
         "sigma-empty", "m-csv-empty",
         "sigma-nan", "sigma-inf", "lengthscale-underflow", "variance-huge",
         "nugget-huge", "m-value-800", "m-value-huge", "m-csv-nan",
         "zero-variance", "zero-variance-ulp"],
)
def test_known_errors_exit_code(tmp_path, monkeypatch, capsys, sections, args, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "asym.csv").write_text("0.5,0.1\n0.3,0.5\n")
    (tmp_path / "text.csv").write_text("a,b\nc,d\n")
    (tmp_path / "nan.csv").write_text("nan,0.1\n0.1,0.5\n")
    (tmp_path / "inf.csv").write_text("inf,0.1\n0.1,0.5\n")
    (tmp_path / "sym.csv").write_text("0.5,0.1\n0.1,0.5\n")
    (tmp_path / "m_nan.csv").write_text("nan\n0.1\n")
    (tmp_path / "empty.csv").write_text("")
    cfg_path = small_config(tmp_path, **sections)
    assert main(["run", "--config", str(cfg_path), *args]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    # every error but a chain that never moves is raised before any output
    if "ZeroVariance" not in err:
        assert not (tmp_path / "out").exists()
