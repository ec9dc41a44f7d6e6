"""Tests for the benchmark CLI: config handling, CSV outputs, exit codes."""
import io
import json
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given
from hypothesis import strategies as st

from hessmc import cli, diagnostics, samplers
from hessmc.cli import (
    EXIT_CONFIG,
    ConfigError,
    _ndtri,
    build_target,
    exact_band,
    load_config,
    main,
    method_dt,
    run_experiment,
    write_csv,
    write_rows,
)
from hessmc.linalg import factorize
from hessmc.samplers import KERNELS, METHODS, ChainState, SamplerConfig, run_chain
from hessmc.targets import LogNormalField, build_grid_covariance
from support import fuzz, python

# Any float, and floats the numpy formatter takes (1e-4 <= |x| < 1e16), so
# that a short block holds chunks of either path.
ANY_FLOAT = (
    st.floats()
    | st.floats(1e-4, 1e16, exclude_max=True)
    | st.floats(-1e16, -1e-4, exclude_min=True)
)


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


def traced_peak(cfg):
    """tracemalloc's peak over one run_experiment call."""
    tracemalloc.start()
    try:
        assert run_experiment(cfg) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        # the covariance of a 3 x 4 grid over the default extent, not of a 4 x 3 one
        extent = tuple(cfg["target"]["extent_m"])
        grid = [build_grid_covariance(r, c, extent, 1000.0, 1e-3, 1e-6).lower_factor
                for r, c in ((3, 4), (4, 3))]
        assert np.array_equal(t.sigma.lower_factor, grid[0])
        assert not np.array_equal(t.sigma.lower_factor, grid[1])
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


class TestNdtri:
    """The Cephes port against scipy.special.ndtri, the routine it ports."""

    @staticmethod
    def assert_bitwise(q):
        from scipy.special import ndtri

        ours = np.array([_ndtri(float(v)) for v in q])
        # compare bits: 0.0 == -0.0, so a lost sign would pass a value compare
        assert np.array_equal(ours.view(np.int64), ndtri(q).view(np.int64))

    def test_even_grid(self):
        self.assert_bitwise(np.linspace(0.0, 1.0, 200_001))

    def test_both_tails(self):
        tail = np.logspace(-300, 0, 20_000)
        self.assert_bitwise(tail)
        self.assert_bitwise(1.0 - tail)

    def test_band_quantiles(self):
        mass = 1.0 - np.random.default_rng(20).uniform(size=20_000)  # in (0, 1]
        self.assert_bitwise((1.0 + mass) / 2.0)

    @pytest.mark.parametrize("edge", [np.exp(-2.0), 1.0 - 0.13533528323661269189,
                                      np.exp(-32.0)])
    def test_branch_edges(self, edge):
        self.assert_bitwise(np.array([np.nextafter(edge, 0.0), edge,
                                      np.nextafter(edge, 1.0)]))

    def test_limits_and_domain(self):
        assert _ndtri(0.0) == -np.inf and _ndtri(1.0) == np.inf
        assert np.signbit(_ndtri(0.5)) == np.signbit(0.0)
        for q in (np.nan, -0.1, 1.5):
            assert np.isnan(_ndtri(q))


def expected_csv(header, rows):
    """What write_csv must write, one value at a time: an oracle apart from it."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else f"{float(v):.17g}" for v in row)
              for row in rows]
    return "".join(line + "\n" for line in lines)


def assert_csv(text, header, rows):
    """text must equal expected_csv(header, rows). A failure names the first
    cell that differs: pytest's own diff of two long texts takes minutes."""
    expected = expected_csv(header, rows)
    if text == expected:
        return
    for i, (a, b) in enumerate(zip(text.split("\n"), expected.split("\n"))):
        if a != b:
            cells = enumerate(zip(a.split(","), b.split(",")))
            j, u, v = next(((j, u, v) for j, (u, v) in cells if u != v), (None, a, b))
            pytest.fail(f"line {i}, cell {j}: wrote {u!r}, expected {v!r}")
    pytest.fail(f"wrote {len(text)} characters, expected {len(expected)}")


class TestWriteCsv:
    def write(self, tmp_path, header, rows):
        """What write_csv writes, or with no header what write_rows writes."""
        path = tmp_path / "t.csv"
        if header is None:
            with open(path, "wb") as fh:
                write_rows(fh, rows)
        else:
            write_csv(path, header, rows)
        return path.read_bytes().decode()

    def test_signed_zeros_after_equal_rows(self, tmp_path):
        # 0.0 == -0.0, so only the bits tell a row's zeros from the last row's
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, 2.0]])
        text = self.write(tmp_path, ["a", "b"], rows)
        assert text == "a,b\n0,1\n-0,1\n-0,1\n0,1\n0,2\n"
        assert text == expected_csv(["a", "b"], rows)

    def test_repeated_nan_and_infinities(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        rows = np.array([[nan, inf], [nan, inf], [-inf, nan], [-inf, nan], [1.5, -inf]])
        text = self.write(tmp_path, ["a", "b"], rows)
        assert text == "a,b\nnan,inf\nnan,inf\n-inf,nan\n-inf,nan\n1.5,-inf\n"
        assert text == expected_csv(["a", "b"], rows)

    def test_integer_index_column(self, tmp_path):
        theta = np.array([0.1, 2.5e-300, 1e17, 7.0])
        rows = np.column_stack((np.arange(4), theta))
        text = self.write(tmp_path, ["coordinate", "theta"], rows)
        assert text.splitlines()[4].startswith("3,")
        assert text == expected_csv(["coordinate", "theta"], enumerate(theta))
        assert self.write(tmp_path, ["i", "x"], [(3, 0.5)]) == "i,x\n3,0.5\n"

    def test_append_continues_the_file(self, tmp_path):
        rows = np.random.default_rng(0).standard_normal((6, 3))
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], rows[:4])
        with open(path, "ab") as fh:
            write_rows(fh, rows[4:])
        assert path.read_bytes().decode() == expected_csv(["a", "b", "c"], rows)

    @pytest.mark.parametrize("rows", [np.empty((0, 3)), np.empty(0), []])
    def test_no_rows_writes_the_header_alone(self, tmp_path, rows):
        assert self.write(tmp_path, ["a", "b", "c"], rows) == "a,b,c\n"

    def test_string_column(self, tmp_path):
        rows = [("MH", 0.5, 1.25, 32.0), ("HLOCAL_HMC", 1 / 3, float("nan"), -0.0)]
        text = self.write(tmp_path, ["method", "acce", "tau", "n_eff"], rows)
        assert text.splitlines()[1] == "MH,0.5,1.25,32"
        assert text == expected_csv(["method", "acce", "tau", "n_eff"], rows)

    @pytest.mark.parametrize("thin", [1, 3])
    def test_strided_block_with_repeated_rows(self, tmp_path, thin):
        # a lockstep record (chains, n, d) whose chain 1 accepts 0.4 of its moves
        rng = np.random.default_rng(thin)
        moved = rng.uniform(size=60) < 0.4
        chain = rng.standard_normal((60, 5))[np.maximum.accumulate(moved * np.arange(60))]
        record = np.stack((rng.standard_normal((60, 5)), chain))
        block = record[1, 2::thin]
        assert block.flags.c_contiguous == (thin == 1)
        assert np.all(block[1:] == block[:-1], axis=1).any()
        assert self.write(tmp_path, None, block) == expected_csv(None, chain[2::thin])

    def fast(self, block):
        """block's lines as the numpy formatter writes them."""
        size = np.absolute(block)
        assert size.min() >= 1e-4 and size.max() < 1e16
        fh = io.BytesIO()
        cli._format(fh, block, size)
        return fh.getvalue().decode()

    def chunks(self, tmp_path, header, rows):
        """What write_csv writes, and the row count of each chunk the numpy
        formatter took."""
        taken, write = [], cli._format

        def counted(fh, block, size):
            taken.append(len(block))
            write(fh, block, size)

        with mock.patch.object(cli, "_format", counted):
            return self.write(tmp_path, header, rows), taken

    @fuzz(300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), rows=st.integers(1, 9), cols=st.integers(1, 5),
           chunk=st.integers(1, 4))
    def test_any_floats_in_any_block(self, tmp_path, data, rows, cols, chunk):
        values = data.draw(st.lists(ANY_FLOAT, min_size=rows * cols,
                                    max_size=rows * cols))
        block = np.array(values).reshape(rows, cols)
        # chunks of `chunk` rows, so that a short block crosses chunk edges
        with mock.patch.object(cli, "_CHUNK_BYTES", chunk * cols * cli._VALUE_BYTES):
            text = self.write(tmp_path, ["x"] * cols, block)
        assert_csv(text, ["x"] * cols, block)

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
        values = np.stack((np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)))
        values = np.concatenate((values, -values), axis=1).T.reshape(-1, 3)
        assert_csv(self.write(tmp_path, None, values), None, values)
        taken = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]
        assert taken.size == 120  # 1e-4 to 1e15 and both neighbours, 1e16's lower
        block = taken.reshape(-1, 8)
        assert_csv(self.fast(block), None, block)

    def test_ties_round_half_to_even(self):
        # m / 4 with m odd near 1e15: exact doubles whose 18th digit is a 5
        m = 4 * 10**15 + np.arange(1, 257, 2)
        block = (m / 4.0).reshape(-1, 8)
        assert np.all(block.ravel() * 4.0 == m)  # the ties are exact
        text = self.fast(block)
        assert text.startswith("1000000000000000.2,1000000000000000.8,")
        assert_csv(text, None, block)

    def test_digits_that_carry(self):
        values = np.array([1 - 2**-53, np.nextafter(1e16, 0), 0.99999999999999994,
                           9.9999999999999995e-5 + 1e-20, 999999999999999.94,
                           0.1 + 2**-56, 123456789.98765432, 5e-4])
        block = np.stack((values, -values))
        assert_csv(self.fast(block), None, block)

    def test_zeros_subnormals_and_the_largest_double(self, tmp_path):
        tiny, huge = 5e-324, sys.float_info.max
        rows = np.array([[0.0, -0.0, tiny, -tiny], [2.2e-308, huge, -huge, 1e16],
                         [1e-5, 9.999e-5, 0.5, 1.5]])
        text, taken = self.chunks(tmp_path, None, rows)
        assert_csv(text, None, rows)
        assert taken == []
        assert self.write(tmp_path, None, rows).splitlines()[0] == (
            "0,-0,4.9406564584124654e-324,-4.9406564584124654e-324")

    def test_row_count_that_does_not_divide_the_chunk(self, tmp_path):
        step = cli._CHUNK_BYTES // (cli._VALUE_BYTES * 64)
        record = np.random.default_rng(3).lognormal(-1.0, 0.03, (2, 2 * step + 3, 64))
        header = [f"x{i}" for i in range(64)]
        for block in (record[1], record[0, 1::2]):  # the second is thinned, strided
            text, taken = self.chunks(tmp_path, header, block)
            assert_csv(text, header, block)
            assert taken == [step] * (len(block) // step) + [len(block) % step]

    @pytest.mark.parametrize("odd", [1e-5, 0.0, float("nan"), 2e16])
    def test_value_the_formatter_leaves_in_mid_chunk(self, tmp_path, odd):
        step = cli._CHUNK_BYTES // (cli._VALUE_BYTES * 64)
        block = np.random.default_rng(4).lognormal(-1.0, 0.03, (3 * step, 64))
        block[step + step // 2, 30] = odd  # the middle chunk goes through the template
        text, taken = self.chunks(tmp_path, None, block)
        assert_csv(text, None, block)
        assert taken == [step, step]

    @pytest.mark.parametrize("cols", [64, 144])
    def test_working_set_is_one_chunk(self, tmp_path, cols):
        # a desk-like 334-row block, one chain's block of an archive MH call,
        # at the desk and field144 row widths
        record = np.random.default_rng(5).lognormal(-1.0, 0.03, (2, 334, cols))
        path = tmp_path / "t.csv"
        write_csv(path, [f"x{i}" for i in range(cols)], record[1])  # one-off costs
        tracemalloc.start()
        try:
            with open(path, "ab") as fh:
                write_rows(fh, record[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # at most 96 KiB while a chunk's text is translated (cli._VALUE_BYTES),
        # the file's 8 KiB buffer and small objects
        assert peak < 112 * 1024
        lines = path.read_bytes().decode().splitlines(keepends=True)
        assert_csv("".join(lines[1:]), None, np.concatenate((record[1], record[1])))


def test_cli_import_skips_scipy_stats():
    # scipy.stats takes most of a short CLI process's start-up time
    out = python("-c", "import hessmc.cli, sys; print('scipy.stats' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_map_command_skips_scipy_special(tmp_path):
    # only the run's analytic band needs ndtri, so `hessmc map` never imports it
    code = ("import sys; from hessmc.cli import main; "
            "print(main(['map', '--out', sys.argv[1]]), 'scipy.special' in sys.modules)")
    out = python("-c", code, str(tmp_path))
    assert out.stdout.split() == ["0", "False"]
    assert (tmp_path / "map.csv").exists()


def test_run_command_skips_scipy_special_and_linalg_package(tmp_path):
    # the analytic band's quantile is a pure-Python port, so a run, like a map,
    # loads nothing from scipy but its compiled LAPACK module
    code = ("import sys; from hessmc.cli import main; "
            "print(main(['run', '--config', sys.argv[1]]), "
            "*(m in sys.modules for m in ('scipy.special', 'scipy.linalg', 'numpy.f2py')), "
            "*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = python("-c", code, str(small_config(tmp_path)))
    assert out.stdout.splitlines()[-1].split() == [
        "0", "False", "False", "False", "scipy.linalg._flapack"]
    assert (tmp_path / "out" / "band_MH.csv").exists()


def test_map_command_skips_scipy_linalg_package(tmp_path):
    # hessmc.linalg loads scipy's compiled LAPACK module alone: the scipy.linalg
    # package's __init__ would also import numpy.f2py, ma, polynomial and more
    code = ("import sys; from hessmc.cli import main; "
            "print(main(['map', '--out', sys.argv[1]]), "
            "'scipy.linalg' in sys.modules, 'numpy.f2py' in sys.modules)")
    out = python("-c", code, str(tmp_path))
    assert out.stdout.split() == ["0", "False", "False"]
    assert (tmp_path / "map.csv").exists()


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
            return traced_peak(cfg)

        peak(1)  # first call: one-off allocations and caches
        sample_array = 2000 * 16 * 8
        assert peak(8) - peak(1) < 3 * sample_array

    def test_short_lockstep_blocks_hold_one_chains_samples(self, tmp_path):
        # chains8's MH run: a block holds at most ceil(n / (K + 1)) samples, so
        # 8 chains' block holds no more than one chain's n samples (blocks of
        # 5; the 96 KiB cap alone gives blocks of 24 and 86 KB more)
        n = 40
        cfg = load_config(None, {
            "sampler": {"n_samples": n},
            "run": {"methods": ["MH"], "output_dir": str(tmp_path / "out")},
        })

        def peak(chains):
            cfg["run"]["chains"] = chains
            return traced_peak(cfg)

        peak(8)  # first call: one-off allocations and caches
        assert peak(8) - peak(1) < n * 64 * 8

    def test_stored_samples_stream_to_disk(self, tmp_path):
        # two band rows, so that the band's tails cannot set the peak and hide
        # a writer that copies a block or builds its text in memory
        cfg = load_config(None, {
            "target": {"rows": 4, "cols": 4},
            "sampler": {"n_samples": 2000, "thin": 1, "band_samples": 2},
            "run": {"methods": ["MH"], "output_dir": str(tmp_path / "out")},
        })

        def peak(store_samples):
            cfg["sampler"]["store_samples"] = store_samples
            return traced_peak(cfg)

        peak(True)  # first call: one-off allocations and caches
        block_array = 1000 * 16 * 8  # one chain's blocks hold at most n / 2 samples
        assert peak(True) - peak(False) < block_array

    @pytest.mark.parametrize("method", ["HMAP_HMC", "HLOCAL_HMC"])
    def test_hamiltonian_chains_do_not_accumulate_in_memory(self, tmp_path, method):
        cfg = load_config(None, {
            "target": {"rows": 4, "cols": 4},
            "sampler": {"n_samples": 500},
            "run": {"methods": [method], "output_dir": str(tmp_path / "out")},
        })

        def peak(chains):
            cfg["run"]["chains"] = chains
            return traced_peak(cfg)

        peak(1)  # first call: one-off allocations and caches
        sample_array = 500 * 16 * 8
        assert peak(8) - peak(1) < 3 * sample_array

    def test_a_second_method_holds_no_second_band(self, tmp_path):
        # a method's band tails and per-sample arrays are freed before the next
        # method runs, so two methods peak like the larger of the two alone
        cfg = load_config(None, {
            "target": {"rows": 4, "cols": 4},
            "sampler": {"n_samples": 4000, "leapfrog_steps": 1},
            "run": {"output_dir": str(tmp_path / "out")},
        })

        def peak(*methods):
            cfg["run"]["methods"] = list(methods)
            return traced_peak(cfg)

        peak("MH", "HMC")  # first call: one-off allocations and caches
        # small objects (4 KB with numpy 2.4 on Python 3.11); one method's
        # samples' averages and flags alone are 36 KB, its tails 124 KB
        assert peak("MH", "HMC") - max(peak("MH"), peak("HMC")) < 12 * 1024

    @pytest.mark.parametrize("store_samples", [False, True])
    def test_band_tails_and_one_block_set_the_peak(self, tmp_path, store_samples):
        # the band holds the 101 smallest and 101 largest of each coordinate
        # of 4,000 samples and merges at most diagnostics._MERGE_VALUES values
        # at a time, beside a block of at most cli._BLOCK_BYTES (192 samples);
        # a stored block is written in chunks of about cli._CHUNK_BYTES,
        # through the file's 8 KiB buffer
        n = 4000
        cfg = load_config(None, {
            "sampler": {"n_samples": n, "thin": 1, "store_samples": store_samples},
            "run": {"methods": ["MH"], "output_dir": str(tmp_path / "out")},
        })
        traced_peak(cfg)  # first call: one-off allocations and caches
        tails = (101 + 101) * 64 * 8 + diagnostics._MERGE_VALUES * 8
        chunk = cli._CHUNK_BYTES + 8 * 1024 if store_samples else 0
        # each sample's spatial average and flag, then the target, the MAP and
        # small objects: 116-118 KB in all with numpy 2.4 on Python 3.11
        slack = 9 * n + 128 * 1024
        assert traced_peak(cfg) < tails + cli._BLOCK_BYTES + chunk + slack

    def test_band_rows_are_not_held(self, tmp_path):
        # a band of 4,000 samples costs its tails over one of 40, not 4,000 rows
        cfg = load_config(None, {
            "sampler": {"n_samples": 4000, "thin": 1},
            "run": {"methods": ["MH"], "output_dir": str(tmp_path / "out")},
        })

        def peak(band_samples):
            cfg["sampler"]["band_samples"] = band_samples
            return traced_peak(cfg)

        peak(40)  # first call: one-off allocations and caches
        # of 4,000, and one merge, which a band of 40 makes too (100 KB with
        # numpy 2.4 on Python 3.11, 230 KB if the tails keep room for a block)
        tails = (101 + 101) * 64 * 8 + diagnostics._MERGE_VALUES * 8
        assert peak(4000) - peak(40) < tails

    def test_block_budget_changes_no_byte(self, tmp_path, monkeypatch):
        # one sample a block, then blocks of ceil(n / (chains + 1)) samples
        cfg_path = small_config(tmp_path, sampler={"burn_in": 5, "thin": 3},
                                run={"chains": 3, "methods": list(METHODS)})
        calls = []
        run_chain = samplers.run_chain

        def counted(*args):
            calls.append(args[2].n_samples)
            return run_chain(*args)

        monkeypatch.setattr(samplers, "run_chain", counted)
        outputs = []
        for budget, size in ((1, 1), (40 * 3 * 4 * 8, 10)):
            monkeypatch.setattr(cli, "_BLOCK_BYTES", budget)
            calls.clear()
            out = tmp_path / f"budget{budget}"
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert calls == [size] * (40 // size) * len(METHODS)
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        # map and summary, then each method's diag, rho, band and three samples
        assert len(outputs[0]) == 2 + 6 * len(METHODS)
        assert outputs[0] == outputs[1]

    def test_samples_files_open_once_per_method(self, tmp_path, monkeypatch):
        # each chain's samples file is opened once and every block is written
        # to it (four blocks of 10 samples here)
        opened = []

        def counted(path, *args, **kwargs):
            opened.append(Path(path).name)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counted, raising=False)
        cfg_path = small_config(tmp_path, run={"chains": 3, "methods": ["MH", "HMC"]})
        assert main(["run", "--config", str(cfg_path)]) == 0
        samples = sorted(name for name in opened if name.startswith("samples_"))
        assert samples == sorted(f"samples_{m}_{c}.csv" for m in ("MH", "HMC") for c in range(3))

    def test_only_the_state_outlives_a_block(self, tmp_path, monkeypatch):
        # each block continues from the state the block before ended in, and
        # that block's record and arrays are freed before the next one runs
        blocks, inits = [], []
        run_chain = samplers.run_chain

        def checked(target, spec, scfg, init, rngs):
            assert all(ref() is None for ref in blocks), "an earlier block is alive"
            inits.append(init)
            rec = run_chain(target, spec, scfg, init, rngs)
            arrays = [a for a in vars(rec).values() if isinstance(a, np.ndarray)]
            bases = [a.base for a in arrays if a.base is not None]
            blocks.extend(weakref.ref(x) for x in (rec, *arrays, *bases))
            return rec

        monkeypatch.setattr(samplers, "run_chain", checked)
        cfg_path = small_config(tmp_path, sampler={"burn_in": 5, "thin": 3},
                                run={"chains": 3, "methods": list(METHODS)})
        assert main(["run", "--config", str(cfg_path)]) == 0
        # four blocks per method: the MAP, then three states
        assert len(inits) == 4 * len(METHODS)
        assert [isinstance(init, ChainState) for init in inits] == [False, True, True,
                                                                   True] * len(METHODS)

    @pytest.mark.parametrize("thin", [1, 3])
    def test_lockstep_chains_write_what_each_chain_gives_alone(self, tmp_path, thin):
        # chains run in lockstep, in blocks of 10 of the 40 samples; chain c's
        # samples and diag row, and the band on chain 0's first 15 samples
        # (two blocks), are the bytes of run_chain with default_rng([seed, c])
        cfg_path = small_config(tmp_path, sampler={"burn_in": 5, "thin": thin,
                                                   "band_samples": 15},
                                run={"chains": 3, "methods": list(METHODS)})
        assert main(["run", "--config", str(cfg_path)]) == 0
        cfg = load_config(str(cfg_path))
        s, target = cfg["sampler"], build_target(cfg)
        out = tmp_path / "out"
        for method in METHODS:
            spec = KERNELS[method].default(target, s["pd_floor"], s["beta"])
            scfg = SamplerConfig(method, method_dt(cfg, method), s["leapfrog_steps"],
                                 s["n_samples"], s["burn_in"], s["include_logdet"])
            diag = (out / f"diag_{method}.csv").read_text().splitlines()
            for chain in range(3):
                rng = np.random.default_rng([s["seed"], chain])
                rec = run_chain(target, spec, scfg, target.map_point(), rng)
                samples = "".join(",".join(f"{float(v):.17g}" for v in row) + "\n"
                                  for row in rec.samples[::thin])
                header = ",".join(f"x{i}" for i in range(target.dim)) + "\n"
                assert (out / f"samples_{method}_{chain}.csv").read_text() == header + samples
                d = diagnostics.summarize_chain(rec.samples, rec.accept_flags)
                row = (chain, d.acceptance_rate, d.tau, d.n_eff, rec.repair_lambdas.max())
                assert diag[chain + 1] == ",".join(f"{float(v):.17g}" for v in row)
                if chain == 0:
                    band = diagnostics.credible_band(rec.samples[:15], s["credible_mass"])
                    rows = (out / f"band_{method}.csv").read_text().splitlines()[1:]
                    assert [r.split(",")[1:3] for r in rows] == [
                        [f"{float(lo):.17g}", f"{float(hi):.17g}"]
                        for lo, hi in zip(band.lower, band.upper)]

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
        n_eff = samples.shape[0] / tau
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
        # each sample's spatial average alone is 256 TiB at 2**45 samples,
        # beyond a 47-bit address space whatever the overcommit setting, so no
        # memory is touched; at 2**62 its size in bytes overflows numpy's index
        ({"sampler": {"n_samples": 2**45}}, [], 2),
        ({"sampler": {"n_samples": 2**62}}, [], 2),
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
         "store-samples-text", "n-samples-beyond-memory", "n-samples-beyond-index",
         "dt-unknown-method", "m-csv-without-sigma",
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
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # every error but a chain that never moves is raised before any output
    if "ZeroVariance" not in err:
        assert not (tmp_path / "out").exists()


def test_benchmark_tracer_installs():
    # perfbench/child.py wraps the functions it names in WRAPPED by getattr:
    # a renamed or removed one breaks every traced benchmark run
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import child; "
            "t = child.Tracer(); t.install(); print(len(t.names) == len(child.WRAPPED))")
    out = python("-c", code, bench, check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


@pytest.mark.parametrize("m_value", [-700.0, -720.0, -740.0, -745.0])
@pytest.mark.parametrize("method", METHODS)
def test_tiny_positive_map_exits_numerical_without_warnings(tmp_path, capsys,
                                                            m_value, method):
    # the MAP exp(m - Sigma 1) is positive (about 4e-322 at m -740), but 1/theta
    # or 1/theta^2 overflows: a start gradient that is not finite, a Hessian
    # that cannot be repaired or a chain that never moves, each its own exit
    # 3 and one error line, with no numpy warning before it
    cfg = load_config(None, {"target": {"m_value": m_value},
                             "sampler": {"n_samples": 40},
                             "run": {"methods": [method],
                                     "output_dir": str(tmp_path / "out")}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_experiment(cfg) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cols, dt", [(2, 1e200), (1, 1e170)], ids=["1x2", "1x1"])
@pytest.mark.parametrize("method", ["HMC", "HMAP_HMC", "HLOCAL_HMC"])
def test_diverging_trajectories_exit_numerical_without_warnings(tmp_path, capsys,
                                                                method, cols, dt):
    # theta overflows, so the momentum stops being finite: each such
    # trajectory is rejected, no chain moves, and the run ends in one
    # ZeroVariance line with no numpy warning before it
    cfg = load_config(None, {"target": {"rows": 1, "cols": cols},
                             "sampler": {"dt": dt, "n_samples": 50},
                             "run": {"methods": [method],
                                     "output_dir": str(tmp_path / "out")}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_experiment(cfg) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ZeroVariance") and err.count("\n") == 1


def test_non_finite_start_gradient_prints_one_line(tmp_path):
    # in a process of its own: stderr holds the error line and nothing else
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"target": {"m_value": -740.0}}))
    out = python("-m", "hessmc", "run", "--config", str(cfg_path), "--method", "HMC",
                 "--out", str(tmp_path / "out"), check=False)
    assert out.returncode == 3
    assert out.stderr == "error: NonFiniteGradient: a start point's gradient is not finite\n"
