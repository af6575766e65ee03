"""Config loading, output emission, and subcommand dispatch."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import mbrh
from mbrh import broadening, cli, rhsolver, spectral
from mbrh.broadening import BroadeningProfile
from mbrh.cli import (
    load_scenario,
    pulse_from_config,
    profile_from_config,
    rho0_from_config,
    run_command,
    write_csv,
)
from mbrh.broadening import MIRROR_TOL
from mbrh.errors import (IllConditioned, InvariantError, NonDecaying,
                         SchemaError)
from references import excited_scenario


def gaussian_table(sign=-1):
    """Positive, unnormalized Gaussian line on 801 nodes of [-20, 20]."""
    grid = np.linspace(-20, 20, 801)
    return {"shape": "tabulated", "sign": sign, "grid": grid.tolist(),
            "values": np.exp(-grid ** 2 / 2).tolist()}


def write_scenario(tmp_path, name="scenario.json", **overrides):
    cfg = {
        "T": 6.0,
        "L": 2.0,
        "E_in": {"pulse": "gaussian", "amplitude": 0.3, "center": 3.0,
                 "width": 0.5},
        "E0": {"pulse": "zero"},
        "rho0": None,
        "profile": {"shape": "lorentzian", "l": 1.0, "sign": -1},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadScenario:
    def test_trivial_file(self, tmp_path):
        path = write_scenario(tmp_path, E_in={"pulse": "zero"})
        sc, prof, cfg = load_scenario(path)
        t = np.linspace(0, sc.T, 11)
        assert np.max(np.abs(sc.E_in(t))) == 0.0
        assert sc.rho0 is None and prof.sign == -1

    def test_sech_pulse_peak(self, tmp_path):
        path = write_scenario(tmp_path,
                              E_in={"pulse": "sech", "amplitude": 2.0})
        sc, _, _ = load_scenario(path)
        t = np.linspace(0, sc.T, 2001)
        vals = np.abs(sc.E_in(t))
        assert abs(np.max(vals) - 2.0) < 1e-12
        assert abs(t[np.argmax(vals)] - sc.T / 2) < 1e-2

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"T": 1.0}))
        with pytest.raises(SchemaError, match="scenario.L"):
            load_scenario(str(path))

    def test_unknown_pulse(self, tmp_path):
        path = write_scenario(tmp_path, E_in={"pulse": "box", "amplitude": 1})
        with pytest.raises(SchemaError, match="E_in.pulse"):
            load_scenario(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_scenario(str(path))

    def test_rho0_magnitude_guard(self):
        block = {"x": [0.0, 1.0], "lam": [-1.0, 0.0, 1.0],
                 "re": [[0.0, 0.2, 0.0], [0.0, 1.2, 0.0]]}
        with pytest.raises(InvariantError, match=r"x index 1, lam index 1"):
            rho0_from_config(block)

    def test_rho0_table_interpolates(self):
        block = {"x": [0.0, 1.0], "lam": [-1.0, 1.0],
                 "re": [[0.0, 0.4], [0.2, 0.6]]}
        rho0 = rho0_from_config(block)
        assert abs(rho0(0.5, np.array([0.0]))[0] - 0.3) < 1e-12

    def test_rho0_rows_match_columnwise_interp(self):
        # reference: np.interp in x column by column, then along lam; x
        # outside the table clamps to its edge rows
        rng = np.random.default_rng(3)
        xg = np.sort(rng.uniform(0.0, 2.0, 41))
        lg = np.linspace(-8.0, 8.0, 65)
        tab = 0.3 * (rng.uniform(-1, 1, (41, 65))
                     + 1j * rng.uniform(-1, 1, (41, 65)))
        rho0 = rho0_from_config({"x": xg.tolist(), "lam": lg.tolist(),
                                 "re": tab.real.tolist(),
                                 "im": tab.imag.tolist()})
        lam = np.linspace(-10.0, 10.0, 201)
        xs = np.concatenate([[-1.0, 3.0], xg[[0, 7, 40]],
                             rng.uniform(-0.5, 2.5, 50)])
        for x in xs:
            col = np.array([np.interp(x, xg, tab[:, k])
                            for k in range(lg.size)])
            want = np.interp(lam, lg, col)
            assert np.max(np.abs(rho0(x, lam) - want)) <= 1e-15

    def test_rho0_depth_array_rows_equal_scalar_calls(self):
        # a Magnus block reads its medium slices in one call
        rng = np.random.default_rng(7)
        xg = np.sort(rng.uniform(0.0, 2.0, 41))
        lg = np.linspace(-8.0, 8.0, 65)
        tab = 0.3 * (rng.uniform(-1, 1, (41, 65))
                     + 1j * rng.uniform(-1, 1, (41, 65)))
        rho0 = rho0_from_config({"x": xg.tolist(), "lam": lg.tolist(),
                                 "re": tab.real.tolist(),
                                 "im": tab.imag.tolist()})
        lam = np.linspace(-10.0, 10.0, 201)
        xs = np.concatenate([rng.uniform(0.0, 2.0, 200), xg,
                             [-1.0, xg[0] - 1e-12, 3.0, xg[-1] + 1e-12]])
        rows = rho0(xs, lam)
        assert rows.shape == (xs.size, lam.size)
        for x, row in zip(xs, rows):
            assert np.array_equal(row, rho0(x, lam))
        assert np.array_equal(rho0(xs[:, None], lam), rows)

    @pytest.mark.parametrize("key", ["x", "lam"])
    def test_rho0_grid_must_increase(self, key):
        # np.interp does not check its grid: a reversed x list read a
        # 0.3 bump as 5e-13
        block = {"x": [0.0, 1.0, 2.0], "lam": [-1.0, 0.0, 1.0],
                 "re": [[0.0, 0.1, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.0]]}
        block[key] = block[key][::-1]
        with pytest.raises(SchemaError, match=f"rho0.{key}"):
            rho0_from_config(block)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_refused(self, tmp_path, text):
        # NaN > 1 is False, so a NaN in rho0 passed the |rho0| check and
        # every sphere test, and solve-direct wrote NaN fields with exit 0
        rho0 = {"x": [0.0, 1.0, 2.0], "lam": [-1.0, 0.0, 1.0],
                "re": [[0.0, 0.25, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.0]]}
        path = write_scenario(tmp_path, rho0=rho0)
        with open(path) as fh:
            raw = fh.read()
        with open(path, "w") as fh:
            fh.write(raw.replace("0.25", text))
        with pytest.raises(SchemaError, match="non-finite"):
            load_scenario(path)
        assert run_command(["solve-direct", "--scenario", path, "--dt", "0.1",
                            "--out", str(tmp_path / "d")]) == 2
        assert not os.path.exists(tmp_path / "d")

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_integer_beyond_float_range_refused(self, tmp_path, digits):
        # float(int) raised an uncaught OverflowError, and past the
        # interpreter's digit limit int() itself raises ValueError
        path = write_scenario(tmp_path)
        with open(path) as fh:
            raw = fh.read()
        with open(path, "w") as fh:
            fh.write(raw.replace('"T": 6.0', '"T": 1' + "0" * digits))
        with pytest.raises(SchemaError, match="beyond float range"):
            load_scenario(path)
        assert run_command(["spectra", "--scenario", path,
                            "--out", str(tmp_path / "sp")]) == 2
        assert not os.path.exists(tmp_path / "sp")

    @pytest.mark.parametrize("key, value, command", [
        ("lam_window", [20, -20], "solve-direct"),
        ("lam_window", [20, -20], "solve-rh"),
        ("lam_window", [-20, 0, 20], "solve-rh"),
        ("lam_window", [-20, 0, 20], "spectra"),
        ("lam_window", [-20, 0, 20], "solve-direct"),
        ("lam_window", [-20, True], "spectra"),
        ("lam_points", "abc", "spectra"),
        ("lam_points", "abc", "solve-direct"),
        ("lam_points", True, "spectra"),
        ("lam_points", 1, "spectra"),
        ("n_panels", 0, "solve-rh"),
        ("n_panels", -3, "solve-rh"),
        ("n_panels", 2.7, "solve-rh"),
        ("nodes_per_panel", 0, "solve-rh"),
    ])
    def test_bad_discretization_key_refused(self, tmp_path, key, value,
                                            command):
        # a reversed window ran with exit 0 and a wrong field, a 3-entry
        # one ran solve-rh on its first two entries; the rest ended in a
        # traceback or were silently truncated
        path = write_scenario(tmp_path, **{key: value})
        with pytest.raises(SchemaError, match=f"scenario.{key}"):
            load_scenario(path)
        args = {"solve-rh": ["--t", "2:4:2", "--x", "0:1:2", "--no-poles"],
                "solve-direct": ["--dt", "0.1"], "spectra": []}[command]
        out = tmp_path / "out"
        assert run_command([command, "--scenario", path, *args,
                            "--out", str(out)]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("win", [[float("nan"), 5.0], [-5.0, float("inf")],
                                     [float("-inf"), float("inf")]])
    def test_non_finite_window_refused(self, win):
        # scenario JSON refuses non-finite numbers as it loads; a config
        # built in code, or from flags, meets the check itself
        with pytest.raises(SchemaError, match="scenario.lam_window"):
            cli.discretization({"lam_window": win})

    @pytest.mark.parametrize("step", ["-0.01", "inf", "-inf", "0", "nan",
                                      "1e-9"])
    def test_bad_step_refused(self, monkeypatch, tmp_path, capsys, step):
        # a negative or infinite step ran one Magnus step over [0, T] and
        # printed a wrong table with exit 0; 0 and nan ended in a
        # traceback; 1e-9 tried to allocate 74.5 GiB for its grid.  Each
        # is refused before any grid is built
        def no_grid(*args, **kwargs):
            raise AssertionError("a Magnus grid was built")

        monkeypatch.setattr(spectral, "_refined_grid", no_grid)
        path = write_scenario(tmp_path)
        out = tmp_path / "sp"
        assert run_command(["spectra", "--scenario", path, "--step", step,
                            "--out", str(out)]) == 2
        assert "--step" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_step_limit_counts_magnus_steps(self, tmp_path):
        # at most 10^6 Magnus steps on the longer of [0, T] and [0, L]
        scenario, _, _ = load_scenario(write_scenario(tmp_path, L=8.0))
        cli._check_step(8.0 / cli.MAX_MAGNUS_STEPS, scenario)
        with pytest.raises(SchemaError, match="--step"):
            cli._check_step(0.999 * 8.0 / cli.MAX_MAGNUS_STEPS, scenario)

    def test_discretization_defaults_stay_out_of_the_config(self, tmp_path):
        path = write_scenario(tmp_path)
        _, _, cfg = load_scenario(path)
        with open(path) as fh:
            assert cfg == json.load(fh)
        assert cli.discretization(cfg) == (broadening.LAM_WINDOW, 401,
                                           rhsolver.N_PANELS,
                                           rhsolver.NODES_PER_PANEL)
        path = write_scenario(tmp_path, lam_window=[-16, 16], lam_points=257,
                              n_panels=8, nodes_per_panel=12)
        assert cli.discretization(load_scenario(path)[2]) == (
            (-16.0, 16.0), 257, 8, 12)

    @pytest.mark.parametrize("pulse", ["gaussian", "sech"])
    def test_chirped_pulse(self, tmp_path, pulse):
        block = {"pulse": pulse, "amplitude": 0.6, "center": 2.5,
                 "width": 0.8, "chirp": 1.5}
        sc, _, _ = load_scenario(write_scenario(tmp_path, E_in=block))
        t = np.array([0.0, 1.3, 2.5, 3.7, 6.0])
        u = (t - 2.5) / 0.8
        g = np.exp(-u ** 2) if pulse == "gaussian" else 1.0 / np.cosh(u)
        want = 0.6 * g * np.exp(1.5j * t)
        assert np.max(np.abs(sc.E_in(t) - want)) <= 1e-15

    def test_tabulated_profile_is_normalized(self):
        # a positive table loads with the sign of the medium and unit mass
        prof = profile_from_config(gaussian_table(sign=-1))
        lam = np.linspace(-20, 20, 801)
        assert np.all(prof.n(lam) <= 0.0) and prof.n(0.0) < 0.0
        assert abs(np.trapezoid(prof.values, prof.grid) + 1.0) < 1e-12
        amp = profile_from_config(gaussian_table(sign=+1))
        assert abs(np.trapezoid(amp.values, amp.grid) - 1.0) < 1e-12

    def test_nondecaying_table_refused(self, tmp_path):
        # a Lorentzian cut at +-30 keeps 1e-3 of its peak at the ends
        grid = np.linspace(-30, 30, 601)
        block = {"shape": "tabulated", "sign": -1, "grid": grid.tolist(),
                 "values": (1.0 / (np.pi * (grid ** 2 + 1.0))).tolist()}
        with pytest.raises(NonDecaying):
            profile_from_config(block)
        path = write_scenario(tmp_path, profile=block)
        assert run_command(["solve-rh", "--scenario", path, "--t", "2:4:2",
                            "--x", "0:1:2", "--no-poles",
                            "--out", str(tmp_path / "rh")]) == 3

    def test_profile_errors(self):
        with pytest.raises(SchemaError, match="shape"):
            profile_from_config({"shape": "cauchy"})
        with pytest.raises(SchemaError, match="sign"):
            profile_from_config({"shape": "lorentzian", "l": 1.0, "sign": 2})

    @pytest.mark.parametrize("block, key, value", [
        ("E_in", "width", "abc"),
        ("E_in", "width", None),
        ("E_in", "chirp", "fast"),
        ("E_in", "center", "3"),
        ("E_in", "amplitude", True),
        ("profile", "sign", "x"),
        ("profile", "sign", -1.5),
        ("profile", "sign", True),
        ("profile", "l", False),
        ("scenario", "T", True),
        ("scenario", "L", "2"),
    ])
    def test_scenario_number_type_checked(self, tmp_path, block, key, value):
        # the first four ended in a ValueError or TypeError traceback; a
        # sign of -1.5 ran as an attenuator, "3" was read as 3.0 and true
        # as 1, each with exit 0
        cfg = {"E_in": {"pulse": "gaussian", "amplitude": 0.3,
                        "center": 3.0, "width": 0.5},
               "profile": {"shape": "lorentzian", "l": 1.0, "sign": -1}}
        if block == "scenario":
            cfg[key] = value
        else:
            cfg[block][key] = value
        path = write_scenario(tmp_path, **cfg)
        with pytest.raises(SchemaError, match=f"{block}.{key}"):
            load_scenario(path)
        out = tmp_path / "sp"
        assert run_command(["spectra", "--scenario", path,
                            "--out", str(out)]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value", [
        ("im", "zz"),
        ("x", [0.0, "1", 2.0]),
        ("lam", [-1.0, False, 1.0]),
        ("re", [[0.0, 0.1, 0.0], [0.0, 0.3], [0.0, 0.0, 0.0]]),
        ("im", [[0.0, 0.1, 0.0], [0.0, None, 0.0], [0.0, 0.0, 0.0]]),
        ("re", [0.0, [0.1], 0.0]),
        ("x", [0.0]),
        ("lam", [0.0]),
    ])
    def test_rho0_table_arrays_checked(self, tmp_path, key, value):
        # a non-numeric or ragged array ended in a ValueError traceback,
        # a one-point grid in an IndexError at the first interpolation
        block = {"x": [0.0, 1.0, 2.0], "lam": [-1.0, 0.0, 1.0],
                 "re": [[0.0, 0.1, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.0]]}
        block[key] = value
        with pytest.raises(SchemaError, match=f"rho0.{key}"):
            rho0_from_config(block)
        path = write_scenario(tmp_path, rho0=block)
        out = tmp_path / "d"
        assert run_command(["solve-direct", "--scenario", path, "--dt", "0.1",
                            "--out", str(out)]) == 2
        assert not os.path.exists(out)


def test_write_csv_bytes_match_per_value_format(tmp_path):
    # the %.17g row template writes what format(float(v), ".17g") wrote
    # value by value, on every kind of double, across two chunk edges
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 5e-324, -2.2e-310, 1e308, -1e308,
                        np.finfo(float).max, np.nan, np.inf, -np.inf, 1.0,
                        0.1, 1 / 3, -123456789.0])
    n = 2 * cli.CSV_CHUNK_ROWS + 1
    cols = [np.resize(special, n),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            np.arange(n),
            rng.standard_normal((n, 2)).view(complex).real]  # (n, 1), strided
    header = ["a", "b", "n", "m"]
    path = tmp_path / "t.csv"
    write_csv(str(path), header, cols)
    flat = [np.asarray(c).ravel() for c in cols]
    expected = ",".join(header) + "\n" + "".join(
        ",".join(format(float(c[i]), ".17g") for c in flat) + "\n"
        for i in range(flat[0].size))
    assert path.read_bytes() == expected.encode()


class TestCommands:
    def test_eta_csv(self, tmp_path):
        out = str(tmp_path / "eta")
        rc = run_command(["eta", "--profile", "lorentzian", "--l", "1.0",
                          "--grid", "101", "--out", out])
        assert rc == 0
        data = np.genfromtxt(os.path.join(out, "eta.csv"),
                             delimiter=",", names=True)
        assert data.shape == (101,)
        # boundary-jump identity between the two one-sided values
        jump = (data["re_eta_plus"] - data["re_eta_minus"]) \
            + 1j * (data["im_eta_plus"] - data["im_eta_minus"])
        assert np.max(np.abs(jump + 0.5j * np.pi * data["n"])) < 1e-10
        assert os.path.exists(os.path.join(out, "meta.json"))

    @pytest.mark.parametrize("shape", ["rectangular", "delta_approx"])
    def test_eta_box_profile_defaults_omit_edge_nodes(self, tmp_path, shape):
        # the default 401-node grid on [-20, 20] puts nodes on +-eps = +-0.5,
        # where eta_pm is log-infinite; those rows are left out and named
        out = str(tmp_path / shape)
        assert run_command(["eta", "--profile", shape, "--out", out]) == 0
        data = np.genfromtxt(os.path.join(out, "eta.csv"),
                             delimiter=",", names=True)
        assert data.shape == (399,)
        assert np.all(np.isfinite(data["re_eta_plus"]))
        assert np.min(np.abs(np.abs(data["lambda"]) - 0.5)) > 0.09
        meta = json.load(open(os.path.join(out, "meta.json")))
        assert meta["diagnostics"]["edge_nodes_omitted"] == pytest.approx([-0.5, 0.5])

    @pytest.mark.parametrize("argv", [
        ["eta", "--l", "nan"],
        ["eta", "--profile", "rectangular", "--eps", "inf"],
        ["curve", "--sign", "1", "--l", "nan"],
        ["curve", "--sign", "1", "--profile", "delta_approx", "--eps", "inf"],
        ["soliton", "--nu", "0.5", "--t", "0:1:3", "--x", "0:1:2",
         "--profile", "lorentzian", "--l", "nan"],
        ["soliton", "--nu", "0.5", "--t", "0:1:3", "--x", "0:1:2",
         "--eps", "inf"],
    ])
    def test_non_finite_profile_width_refused(self, tmp_path, argv):
        # NaN passed the `l <= 0` check: eta wrote an all-NaN table and
        # curve printed "0 points", both with exit code 0
        out = str(tmp_path / "out")
        assert run_command(argv + ["--out", out]) == 2
        assert not os.path.exists(out)

    def test_unused_profile_width_left_out_of_meta(self, tmp_path):
        # a Lorentzian reads only l: an unused --eps nan went into
        # meta.json as NaN, which is not valid JSON
        out = str(tmp_path / "eta")
        assert run_command(["eta", "--eps", "nan", "--grid", "11",
                            "--out", out]) == 0

        def refuse(text):
            raise ValueError(f"non-JSON constant {text}")

        with open(os.path.join(out, "meta.json")) as fh:
            meta = json.load(fh, parse_constant=refuse)
        assert meta["config"]["profile"] == {"shape": "lorentzian",
                                             "sign": -1, "l": 1.0}

    def test_soliton_peak(self, tmp_path):
        out = str(tmp_path / "sol")
        rc = run_command(["soliton", "--nu", "0.5", "--t", "0:20:101",
                          "--x", "0:10:51", "--out", out])
        assert rc == 0
        data = np.genfromtxt(os.path.join(out, "fields.csv"),
                             delimiter=",", names=True)
        assert abs(np.max(data["abs_E"]) - 2.0) < 1e-3

    def test_compare_identical(self, tmp_path):
        out = str(tmp_path / "sol")
        run_command(["soliton", "--nu", "0.3", "--t", "0:5:11",
                     "--x", "0:2:5", "--out", out])
        rc = run_command(["compare", "--run-a", os.path.join(out, "fields.csv"),
                          "--run-b", os.path.join(out, "fields.csv")])
        assert rc == 0

    BAD_FIELD_FILES = {"missing.csv": None,
                       "header_only.csv": "t,x,re_E,im_E,abs_E\n",
                       "no_lattice.csv": "re_E,im_E\n0.5,0.25\n",
                       "empty.csv": ""}

    @pytest.mark.filterwarnings("ignore:genfromtxt")   # the empty file's
    @pytest.mark.parametrize("name", list(BAD_FIELD_FILES))
    def test_compare_refuses_a_bad_file(self, tmp_path, capsys, name):
        # each ended in a traceback with exit 1: FileNotFoundError, a
        # zero-size max, "no field of name t" and an IndexError
        good = str(tmp_path / "sol")
        assert run_command(["soliton", "--nu", "0.3", "--t", "0:5:3",
                            "--x", "0:2:2", "--out", good]) == 0
        bad = tmp_path / name
        if self.BAD_FIELD_FILES[name] is not None:
            bad.write_text(self.BAD_FIELD_FILES[name])
        capsys.readouterr()
        assert run_command(["compare", "--run-a", str(bad), "--run-b",
                            os.path.join(good, "fields.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {bad}:")

    @pytest.mark.parametrize("col", ["t", "x", "re_E", "im_E"])
    @pytest.mark.parametrize("text", ["nan", "inf", "abc"])
    def test_compare_refuses_a_value_that_is_no_finite_number(
            self, tmp_path, capsys, col, text):
        # each exited 0 and printed "rel L2 nan" (genfromtxt reads a
        # non-numeric cell as NaN)
        good = str(tmp_path / "sol")
        assert run_command(["soliton", "--nu", "0.3", "--t", "0:5:3",
                            "--x", "0:2:2", "--out", good]) == 0
        lines = (tmp_path / "sol" / "fields.csv").read_text().splitlines()
        k = lines[0].split(",").index(col)
        row = lines[2].split(",")
        row[k] = text
        lines[2] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_command(["compare", "--run-a", os.path.join(good,
                            "fields.csv"), "--run-b", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {bad}: column {col}")

    def test_solve_direct_and_determinism(self, tmp_path):
        path = write_scenario(tmp_path, lam_points=41,
                              lam_window=[-8.0, 8.0])
        out1 = str(tmp_path / "d1")
        out2 = str(tmp_path / "d2")
        assert run_command(["solve-direct", "--scenario", path,
                            "--dt", "0.05", "--out", out1]) == 0
        assert run_command(["solve-direct", "--scenario", path,
                            "--dt", "0.05", "--out", out2]) == 0
        b1 = open(os.path.join(out1, "fields.csv"), "rb").read()
        b2 = open(os.path.join(out2, "fields.csv"), "rb").read()
        assert b1 == b2
        meta = json.load(open(os.path.join(out1, "meta.json")))
        assert "config_hash" in meta and "versions" in meta
        diag = meta["diagnostics"]
        # T = 6, L = 2 at dt 0.05; 41 detunings on [-8, 8]
        assert (diag["steps"], diag["nx"], diag["nlam"]) == (120, 41, 41)
        assert abs(diag["lam_spacing_over_pi_T"] - 0.4 * 6.0 / np.pi) < 1e-12
        assert diag["conservation_error"] <= 1e-6
        # E0 = 0 in an empty medium: step k rotates the k + 2 columns the
        # pulse can have reached, on the 21 detunings lam >= 0 of the
        # mirror-symmetric data
        front = np.minimum(np.arange(120) + 2, 41)
        assert diag["nlam_solved"] == 21
        assert diag["mirror_err"] <= MIRROR_TOL
        assert diag["rotated_cells"] == front.sum() * 21 < 120 * 41 * 41
        fields = np.genfromtxt(os.path.join(out1, "fields.csv"),
                               delimiter=",", names=True)
        assert np.all(fields["im_E"] == 0.0)
        assert set(diag["stages"]) == {"setup_s", "step_loop_s"}
        assert all(v >= 0.0 for v in diag["stages"].values())

    def test_solve_direct_chirped_steps_every_detuning(self, tmp_path):
        # a chirped pulse has no mirror symmetry: meta.json says so
        path = write_scenario(tmp_path, lam_points=41, lam_window=[-8.0, 8.0],
                              E_in={"pulse": "gaussian", "amplitude": 0.3,
                                    "center": 3.0, "width": 0.5,
                                    "chirp": 1.5})
        out = str(tmp_path / "d")
        assert run_command(["solve-direct", "--scenario", path,
                            "--dt", "0.05", "--out", out]) == 0
        diag = json.load(open(os.path.join(out, "meta.json")))["diagnostics"]
        front = np.minimum(np.arange(120) + 2, 41)
        assert (diag["nlam"], diag["nlam_solved"]) == (41, 41)
        assert diag["mirror_err"] > MIRROR_TOL
        assert diag["rotated_cells"] == front.sum() * 41

    def test_spectra_command(self, tmp_path):
        path = write_scenario(tmp_path, lam_points=101,
                              lam_window=[-10.0, 10.0])
        out = str(tmp_path / "sp")
        assert run_command(["spectra", "--scenario", path,
                            "--out", out]) == 0
        data = np.genfromtxt(os.path.join(out, "spectra.csv"),
                             delimiter=",", names=True)
        assert data.shape == (101,)
        # unimodular transition matrix in this symmetry class:
        # |a|^2 + |b|^2 = 1 on the axis
        a2 = data["re_a"] ** 2 + data["im_a"] ** 2
        b2 = data["re_b"] ** 2 + data["im_b"] ** 2
        assert np.max(np.abs(a2 + b2 - 1.0)) < 1e-6

    def test_solve_rh_smoke(self, tmp_path):
        path = write_scenario(tmp_path)
        out = str(tmp_path / "rh")
        rc = run_command(["solve-rh", "--scenario", path, "--t", "2:4:3",
                          "--x", "0:1:2", "--no-poles", "--out", out])
        assert rc == 0
        data = np.genfromtxt(os.path.join(out, "fields.csv"),
                             delimiter=",", names=True)
        assert data.shape == (6,)
        diag = json.load(open(os.path.join(out, "meta.json")))["diagnostics"]
        assert diag["n_stamps"] == 6
        for key in ("residual_rel", "cond"):
            spread = diag[key]
            assert 0 < spread["p50"] <= spread["max"]
            assert spread["max"] == diag[f"max_{key}"]
        # a pole-free contour: every stamp converges on the Krylov path
        assert diag["lu_stamps"] == 0 and diag["residue_cond"] is None
        assert 0 < diag["krylov_iters"]["p50"] <= diag["krylov_iters"]["max"]
        assert 0 < diag["posdef_min"]["min"] <= diag["posdef_min"]["p50"]
        # stage trace: one t-equation solve, T = 6 in 172 steps of at most
        # T_STEP, and its step-error solve at twice the step, 86 more; the
        # stacked x-sweep takes the plane-wave shortcut here
        stages = diag["stages"]
        assert set(stages) == {"pole_search_s", "spectral_s", "jost_phi_s",
                               "jost_w_s", "step_err_s", "stamp_loop_s",
                               "jump_s", "sie_s"}
        assert all(v >= 0.0 for v in stages.values())
        assert (stages["jost_phi_s"] + stages["jost_w_s"]
                + stages["step_err_s"] <= stages["spectral_s"])
        assert stages["jump_s"] + stages["sie_s"] <= stages["stamp_loop_s"]
        assert diag["magnus_steps"] == 172 + 86
        # the lattice holds the x = 0 column but no t = 0 row
        assert set(diag["boundary_err"]) == {"value", "t"}
        assert diag["initial_err"] is None
        # the scattering table's certificates, its step-error estimates
        # and the largest det(J0) error over the stamps
        spec = dict(diag["spectral"])
        assert set(spec.pop("step_err")) == {"t", "x"}
        # real data on a line symmetric about resonance: the Jost solves
        # and the stamps took the 192 contour nodes lam > 0 of 384
        assert spec.pop("mirror_err") <= MIRROR_TOL
        assert spec.pop("nodes_solved") == 192
        assert spec.pop("full_axis") is None and diag["full_axis"] is None
        assert np.all(data["im_E"] == 0.0)
        assert set(spec) == {"det_Tp_err", "det_Tm_err", "reduction_err"}
        assert all(0.0 <= v < 1e-10 for v in spec.values())
        assert 0.0 <= diag["J0_det_err"] < 1e-10

    @pytest.mark.parametrize("argv", [
        ["solve-rh", "--scenario", "SCENARIO", "--t", "0:10:0", "--x", "0:1:2"],
        ["solve-rh", "--scenario", "SCENARIO", "--t", "0:1:2", "--x", "0:1:-1"],
        ["soliton", "--nu", "0.5", "--t", "0:10:0", "--x", "0:1:2"],
    ])
    def test_range_count_below_one_refused(self, tmp_path, argv):
        # a zero count ended solve-rh and soliton in a traceback
        argv = [str(write_scenario(tmp_path)) if a == "SCENARIO" else a
                for a in argv]
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv, flag", [
        (["solve-rh", "--scenario", "SCENARIO", "--t=nan:4:2", "--x=0:1:2"],
         "--t"),
        (["solve-rh", "--scenario", "SCENARIO", "--t=0:inf:2", "--x=0:1:2"],
         "--t"),
        (["solve-rh", "--scenario", "SCENARIO", "--t=0:4:2", "--x=-inf:1:2"],
         "--x"),
        (["soliton", "--nu", "0.5", "--t=nan:4:2", "--x=0:1:2"], "--t"),
        (["soliton", "--nu", "0.5", "--t=0:4:2", "--x=0:inf:2"], "--x"),
    ])
    def test_non_finite_range_refused(self, tmp_path, capsys, argv, flag):
        # solve-rh --t nan:4:2 ended in a ValueError traceback
        argv = [str(write_scenario(tmp_path)) if a == "SCENARIO" else a
                for a in argv]
        out = tmp_path / "out"
        assert run_command(argv + ["--out", str(out)]) == 2
        assert not os.path.exists(out)
        assert capsys.readouterr().err.startswith(f"config error: {flag}:")

    @pytest.mark.parametrize("t, x, flag", [
        ("0:40:2", "0:1:2", "--t"),
        ("-1:4:2", "0:1:2", "--t"),
        ("0:4:2", "0:3:2", "--x"),
        ("0:4:2", "-0.5:1:2", "--x"),
    ])
    def test_stamps_outside_the_rectangle_refused(self, tmp_path, capsys,
                                                  t, x, flag):
        # on T = 6, L = 2, --t 0:40:2 exited 0 with a field at t = 40 and
        # boundary_err 2.3e5 there
        path = write_scenario(tmp_path)
        out = tmp_path / "rh"
        assert run_command(["solve-rh", "--scenario", path, f"--t={t}",
                            f"--x={x}", "--no-poles", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"config error: {flag}:")

    @pytest.mark.parametrize("t, x, flag", [
        ("1.0", "3.0", "--x"),
        ("1.0", "-0.5", "--x"),
        ("1.0", "nan", "--x"),
        ("nan", "1.0", "--t"),
        ("7.0", "1.0", "--t"),
        ("-inf", "1.0", "--t"),
    ])
    def test_jump_stamp_outside_the_rectangle_refused(self, tmp_path, capsys,
                                                      t, x, flag):
        # on L = 2, --x 3 exited 0 with the terminal value w(L) put at
        # x = 3; --t nan exited 0 with a NaN table ("det error nan")
        path = write_scenario(tmp_path)
        out = tmp_path / "jump"
        assert run_command(["jump", "--scenario", path, f"--t={t}",
                            f"--x={x}", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"config error: {flag}:")

    @pytest.mark.parametrize("dt", ["0", "nan", "-0.05", "inf", "-inf"])
    def test_bad_dt_refused(self, monkeypatch, tmp_path, capsys, dt):
        # 0 ended in ZeroDivisionError, nan in ValueError and -0.05 in
        # "negative dimensions are not allowed"; each is refused before
        # the integrator builds any array
        def no_run(*args, **kwargs):
            raise AssertionError("the direct integrator ran")

        monkeypatch.setattr(cli, "integrate_direct", no_run)
        out = tmp_path / "d"
        assert run_command(["solve-direct", "--scenario", write_scenario(tmp_path),
                            f"--dt={dt}", "--out", str(out)]) == 2
        assert "config error: --dt:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["--window", "nan", "5"], "--window"),
        (["--window", "-5", "inf"], "--window"),
        (["--window", "5", "-5"], "--window"),
        (["--grid", "-1"], "--grid"),
        (["--grid", "1"], "--grid"),
    ])
    def test_bad_eta_grid_refused(self, tmp_path, capsys, argv, flag):
        # --window nan 5 wrote a NaN table and 5 -5 a reversed grid, both
        # with exit 0; --grid -1 ended in a traceback and --grid 1 wrote
        # a one-node table.  The flags pass the lam_window/lam_points check
        out = tmp_path / "eta"
        assert run_command(["eta", *argv, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"config error: {flag}:")

    def test_overflowing_soliton_refused(self, tmp_path, capsys):
        # c = e^{2 nu t} overflows past t ~ 709: the run exited 0 and
        # wrote NaN rows ("|E| peak nan")
        out = tmp_path / "sol"
        assert run_command(["soliton", "--nu", "0.5", "--t", "0:2000:3",
                            "--x", "0:1:2", "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            "numerical failure (SingularResidueSystem)")

    @pytest.mark.parametrize("nu", ["nan", "inf", "0", "-1"])
    def test_bad_soliton_nu_refused(self, tmp_path, capsys, nu):
        # nan and inf exited 3 as an overflowing residue constant, 0 and
        # -1 exited 3 from residue_constants
        out = tmp_path / "sol"
        assert run_command(["soliton", f"--nu={nu}", "--t", "0:1:2",
                            "--x", "0:1:2", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: --nu:")

    def test_soliton_pole_on_the_axis_refused(self, tmp_path, capsys):
        # Im z = 1e-310: c is finite but 1/(z - conj z) overflows; the run
        # exited 0 with NaN rows ("|E| peak nan") and two RuntimeWarnings
        out = tmp_path / "sol"
        assert run_command(["soliton", "--nu", "1e-310", "--t", "0:1:2",
                            "--x", "0:1:2", "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            "numerical failure (SingularResidueSystem): residue system not finite")

    def test_residue_condition_refusal_exits_3(self, monkeypatch, tmp_path,
                                               capsys):
        # a condition limit below 1 refuses every certificate, the residue
        # system's (1.0 here) among them; test_rhsolver pins that one alone
        path = write_scenario(tmp_path, **POLE)
        argv = ["solve-rh", "--scenario", path, "--t", "16:16:1",
                "--x", "0:1:2", "--out", str(tmp_path / "rh")]
        assert run_command(argv) == 0
        monkeypatch.setattr(rhsolver, "COND_LIMIT", 0.5)
        assert run_command(argv) == 3
        assert "numerical failure (IllConditioned)" in capsys.readouterr().err

    def test_exit_2_on_config_error(self, tmp_path):
        assert run_command(["spectra", "--scenario",
                            str(tmp_path / "nope.json")]) == 2
        path = write_scenario(tmp_path, E_in={"pulse": "box", "amplitude": 1})
        assert run_command(["spectra", "--scenario", path]) == 2

    def test_exit_3_on_numerical_failure(self, tmp_path):
        # boundary pulse that has not decayed by t = T
        path = write_scenario(tmp_path,
                              E_in={"pulse": "gaussian", "amplitude": 0.5,
                                    "center": 6.0, "width": 2.0})
        assert run_command(["spectra", "--scenario",
                            path, "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("cmd", [
        ["spectra"], ["jump", "--t", "1", "--x", "1"],
        ["solve-rh", "--t", "0:10:3", "--x", "0:5:2"],
        ["solve-rh", "--t", "0:10:3", "--x", "0:5:2", "--no-poles"],
    ], ids=["spectra", "jump", "solve-rh", "no-poles"])
    def test_overflowing_spectral_data_refused(self, tmp_path, capsys, cmd):
        # E_in amplitude 1e200 overflows the Jost solves: spectra and jump
        # exited 0 printing "max |r| = nan" and "det error nan", and
        # solve-rh died with a ValueError from axis_zero_count or _lu_solve
        path = write_scenario(tmp_path, **dict(DESK, E_in={
            **DESK["E_in"], "amplitude": 1e200}))
        out = tmp_path / "out"
        assert run_command([cmd[0], "--scenario", path, *cmd[1:],
                            "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            "numerical failure (SpectralOverflow): T+- not finite")

    def test_solve_rh_runs_one_xbank_solve_per_bank(self, monkeypatch, tmp_path):
        # both banks in one stacked sweep: one call, 2 x 16 nodes wide on
        # the nodes lam > 0 of the mirror-symmetric data, and one for the
        # step-error estimate on nodes 16 and 31
        widths = []
        orig = spectral.xbank_propagate

        def counted(*args, **kwargs):
            widths.append(len(args[3]))
            return orig(*args, **kwargs)

        monkeypatch.setattr(spectral, "xbank_propagate", counted)
        path = write_scenario(tmp_path, n_panels=4, nodes_per_panel=8,
                              E0={"pulse": "gaussian", "amplitude": 0.2,
                                  "center": 1.0, "width": 0.3})
        out = tmp_path / "rh"
        rc = run_command(["solve-rh", "--scenario", path, "--t", "2:4:2",
                          "--x", "0:2:3", "--no-poles", "--out", str(out)])
        assert rc == 0
        assert widths == [2 * 2 * 8, 2 * 2]
        diag = json.load(open(out / "meta.json"))["diagnostics"]
        # T = 6 at T_STEP and L = 2 at X_STEP: the x-sweep's 80 steps count
        # once; the step-error solves take half as many steps again
        assert diag["magnus_steps"] == (172 + 80) + (86 + 40)

    def test_solve_rh_builds_cauchy_matrix_once(self, monkeypatch, tmp_path):
        # every stamp shares the contour's Cauchy matrix, built before the
        # stamp loop: each stamp's sie_solve finds it built once
        calls, at_stamp = [], []
        orig, solve = rhsolver._build_cauchy_plus, cli.sie_solve

        def counted(contour):
            calls.append(contour)
            return orig(contour)

        def entered(*args):
            at_stamp.append(len(calls))
            return solve(*args)

        monkeypatch.setattr(rhsolver, "_build_cauchy_plus", counted)
        monkeypatch.setattr(cli, "sie_solve", entered)
        path = write_scenario(tmp_path, n_panels=4, nodes_per_panel=8)
        rc = run_command(["solve-rh", "--scenario", path, "--t", "2:4:2",
                          "--x", "0:2:2", "--no-poles",
                          "--out", str(tmp_path / "rh")])
        assert rc == 0
        assert len(calls) == 1 and at_stamp == [1] * 4


class TestReproductionFigures:
    """`boundary_err` and `initial_err`: the contour field on the lattice's
    x = 0 column against E_in and on its t = 0 row against E0."""

    def run(self, tmp_path, t, x, **cfg):
        path = write_scenario(tmp_path, **cfg)
        out = str(tmp_path / "rh")
        rc = run_command(["solve-rh", "--scenario", path, "--t", t,
                          "--x", x, "--out", out])
        return rc, json.load(open(os.path.join(out, "meta.json")))["diagnostics"]

    def test_desk_run_reproduces_its_data(self, tmp_path):
        rc, diag = self.run(tmp_path, "0:10:21", "0:5:6", T=10.0, L=5.0,
                            E_in={"pulse": "gaussian", "amplitude": 0.8,
                                  "center": 3.0, "width": 0.7})
        assert rc == 0
        assert diag["boundary_err"]["value"] < 1e-4
        assert 0.0 <= diag["boundary_err"]["t"] <= 10.0
        # E0 = 0: the t = 0 row is compared in absolute terms
        assert diag["initial_err"]["value"] < 1e-6
        assert 0.0 <= diag["initial_err"]["x"] <= 5.0

    def test_missed_soliton_is_refused(self, tmp_path, capsys):
        # 1.04 sech(t - 20) carries a zero of a at 0.02i, below the old
        # pole search window, which missed it: the run passed every solver
        # certificate and exited 0 with its x = 0 column 18 % off E_in at
        # t = 20.  The axis fit and Newton find the zero, 0.19 node
        # spacings above the axis, where the panels cannot resolve it
        path = write_scenario(tmp_path, T=40.0, L=5.0,
                              E_in={"pulse": "sech", "amplitude": 1.04,
                                    "center": 20.0, "width": 1.0})
        out = tmp_path / "rh"
        rc = run_command(["solve-rh", "--scenario", path, "--t", "10:20:2",
                          "--x", "0:5:2", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "TooCloseToAxis" in err
        assert "0.000000+0.020000i lies 0.19 node spacings" in err
        assert not out.exists()

    def test_absent_lines_are_null(self, tmp_path):
        rc, diag = self.run(tmp_path, "2:4:2", "1:2:2")
        assert rc == 0
        assert diag["boundary_err"] is None and diag["initial_err"] is None


class TestSolveWindow:
    """solve-rh solves each stamp only on the run of panels where the jump
    differs from I (`jump_window`); a run with TAIL_TOL = 0 solves on
    the whole configured window."""

    DESK = {"T": 10.0, "L": 5.0,
            "E_in": {"pulse": "gaussian", "amplitude": 0.8, "center": 3.0,
                     "width": 0.7}}

    @staticmethod
    def both(monkeypatch, solve):
        """(windowed, untruncated) results of solve()."""
        windowed = solve()
        monkeypatch.setattr(rhsolver, "TAIL_TOL", 0.0)
        return windowed, solve()

    @staticmethod
    def command(tmp_path, t, x, **cfg):
        """solve-rh on a scenario: (field, diagnostics)."""
        out = tmp_path / "rh"
        assert run_command(["solve-rh", "--scenario",
                            write_scenario(tmp_path, **cfg), "--t", t,
                            "--x", x, "--out", str(out)]) == 0
        data = np.genfromtxt(out / "fields.csv", delimiter=",", names=True)
        diag = json.load(open(out / "meta.json"))["diagnostics"]
        return data["re_E"] + 1j * data["im_E"], diag

    def test_desk_field_is_the_untruncated_field(self, monkeypatch, tmp_path):
        tol = rhsolver.TAIL_TOL
        (E, diag), (E_all, diag_all) = self.both(
            monkeypatch, lambda: self.command(tmp_path, "0:10:11", "0:5:3",
                                              **self.DESK))
        assert np.max(np.abs(E - E_all)) <= 1e-8 * np.max(np.abs(E_all))
        win, win_all = diag["window"], diag_all["window"]
        assert win["configured"] == win_all["kept"] == [-20.0, 20.0]
        assert win["kept"] == pytest.approx([-25.0 / 3.0, 25.0 / 3.0])
        assert (diag["n_nodes"], diag_all["n_nodes"]) == (160, 384)
        assert 0.0 < win["dropped_max"] <= tol
        assert win_all["dropped_max"] == 0.0
        assert win["edge_max"] == win_all["edge_max"] < tol
        assert diag["pole_count"] == diag_all["pole_count"]

    def test_zero_pulse_keeps_every_panel(self, tmp_path):
        # J - I is rounding alone here, as large at the edges as anywhere
        E, diag = self.command(tmp_path, "0:6:3", "0:2:2",
                               E_in={"pulse": "zero"})
        assert np.array_equal(E, np.zeros(6))
        assert diag["n_nodes"] == 384
        assert diag["window"]["kept"] == [-20.0, 20.0]
        assert diag["window"]["dropped_max"] == 0.0

    def test_excited_run_drops_no_panel(self, monkeypatch):
        # its relative |J - I| at the window's edges is about 5e-7
        sc, lor = excited_scenario(), BroadeningProfile.lorentzian(1.0)
        (E, diag), (E_all, _) = self.both(
            monkeypatch, lambda: cli.rh_field_grid(
                sc, lor, np.linspace(0.0, 10.0, 3), np.linspace(0.0, 2.0, 2)))
        assert np.array_equal(E, E_all)
        assert diag["n_nodes"] == 384
        assert diag["window"]["kept"] == [-20.0, 20.0]
        assert diag["window"]["dropped_max"] == 0.0
        assert diag["window"]["edge_max"] > 1e-7

    def test_soliton_run_keeps_its_pole(self, monkeypatch, tmp_path):
        # the zero of a is found on the configured contour either way
        (E, diag), (E_all, diag_all) = self.both(
            monkeypatch, lambda: self.command(
                tmp_path, "14:18:3", "0:1:2",
                **TestZeroCount.pulse("sech", 2.0)))
        assert diag["pole_count"] == diag_all["pole_count"]
        assert diag["pole_count"]["axis"] == diag["n_poles"] == 1
        assert np.max(np.abs(E - E_all)) <= 1e-8 * np.max(np.abs(E_all))

    def test_coarse_panels_read_a_large_tail(self, tmp_path):
        # 8 panels of 8 nodes exit 0 with the desk field 0.5 off E_in at
        # x = 0; the Legendre tail of J - I on the kept panels shows it
        _, coarse = self.command(tmp_path, "0:10:11", "0:5:6", n_panels=8,
                                 nodes_per_panel=8, **self.DESK)
        _, default = self.command(tmp_path, "0:10:11", "0:5:6", **self.DESK)
        assert coarse["boundary_err"]["value"] > 0.4
        assert default["boundary_err"]["value"] < 1e-4
        assert coarse["window"]["tail"]["p50"] \
            >= 100.0 * default["window"]["tail"]["p50"]


def test_excited_run_interpolates_rho0_along_lam_once(monkeypatch):
    # the medium check at x = L samples rho0 on the run's own nodes, so
    # the x-sweep reuses the rows it interpolated along lam
    grids = []
    orig = cli._slopes

    def counted(grid, f):
        grids.append(grid.size)
        return orig(grid, f)

    monkeypatch.setattr(cli, "_slopes", counted)
    cli.rh_field_grid(excited_scenario(), BroadeningProfile.lorentzian(1.0),
                      np.linspace(0.0, 10.0, 3), np.linspace(0.0, 2.0, 2))
    assert grids.count(65) == 1     # the table's 65 lam nodes


class TestZeroCount:
    """The zeros of a are counted on the real axis, fitted as the roots of
    the Blaschke factor of a and refined by Newton (`a_zeros`); a fit that
    misses a zero and a zero the panels cannot resolve are refused."""

    def solve(self, tmp_path, t="14:18:2", **cfg):
        out = tmp_path / "rh"
        rc = run_command(["solve-rh", "--scenario", write_scenario(tmp_path, **cfg),
                          "--t", t, "--x", "0:1:2", "--out", str(out)])
        diag = (json.load(open(out / "meta.json"))["diagnostics"]
                if rc == 0 else None)
        return rc, diag

    @pytest.fixture
    def found(self, monkeypatch):
        """The poles of each run's `a_zeros`."""
        found, orig = [], cli.a_zeros

        def recorded(*args):
            poles, report = orig(*args)
            found.append(poles)
            return poles, report

        monkeypatch.setattr(cli, "a_zeros", recorded)
        return found

    @staticmethod
    def pulse(kind, amplitude, chirp=0.0):
        return {"T": 32.0, "L": 1.0,
                "E_in": {"pulse": kind, "amplitude": amplitude,
                         "center": 16.0, "width": 1.0, "chirp": chirp}}

    def test_pole_free_run_skips_the_window_search(self, monkeypatch,
                                                   tmp_path):
        # nothing is searched off the axis: a(z) is never continued, and
        # the fit of p = 0 zeros is max|B - 1|
        monkeypatch.setattr(spectral, "continued_a", None)
        rc, diag = self.solve(tmp_path, t="2:4:2")
        assert rc == 0
        count = diag["pole_count"]
        assert set(count) == {"axis", "fit_residual", "newton_steps",
                              "clearance"}
        assert (count["axis"], count["newton_steps"], count["clearance"]) \
            == (0, 0, None)
        assert 0.0 < count["fit_residual"] < spectral.FIT_TOL / 1e4
        assert diag["n_poles"] == 0

    def test_one_node_contour_has_no_phase_step(self, tmp_path):
        # a contour of one node has no arg step to count, and its H is 0
        rc, diag = self.solve(tmp_path, t="2:4:2", n_panels=1,
                              nodes_per_panel=1)
        assert rc == 0
        count = diag["pole_count"]
        assert (count["axis"], count["newton_steps"], count["clearance"]) \
            == (0, 0, None)
        assert count["fit_residual"] < spectral.FIT_TOL

    @pytest.mark.parametrize("kind, amplitude, zero", [
        ("sech", 2.0, 0.5j), ("sech", 2.0, 5.0 / 6.0 + 0.5j)])
    def test_counts_agree_and_the_zero_is_found(self, tmp_path, found, kind,
                                                amplitude, zero):
        # 2 sech(t - 16) has its zero at i/2; a chirp e^{ict} moves it by
        # -c/2, and at 5/6 + i/2 Newton from the old window's centre diverged
        rc, diag = self.solve(tmp_path, t="12:20:5", **self.pulse(
            kind, amplitude, chirp=-2.0 * zero.real))
        assert rc == 0 and diag["n_poles"] == 1
        assert abs(found[0][0][0] - zero) < 1e-7
        count = diag["pole_count"]
        assert count["axis"] == 1 and count["fit_residual"] < 1e-6
        assert 1 <= count["newton_steps"] <= 3
        assert abs(count["clearance"] - 4.8) < 1e-6       # 0.5 / (40/24/16)
        assert diag["boundary_err"]["value"] < 1e-6

    def test_zero_three_spacings_up_solves(self, tmp_path):
        # 1.6 sech(t - 16): zero at 0.3i, 2.88 node spacings up
        rc, diag = self.solve(tmp_path, **self.pulse("sech", 1.6))
        assert rc == 0 and diag["n_poles"] == 1
        assert 2.5 < diag["pole_count"]["clearance"] < 3.0
        assert diag["boundary_err"]["value"] < 5e-3

    def test_zero_below_the_panel_resolution_is_refused(self, tmp_path,
                                                        capsys):
        # 1.95 exp(-(t - 16)^2) has its zero at 0.1043i, one node spacing
        # up: the run used to exit 0 with its x = 0 column 2.5 off E_in
        rc, _ = self.solve(tmp_path, **self.pulse("gaussian", 1.95))
        assert rc == 3
        err = capsys.readouterr().err
        assert "TooCloseToAxis" in err and "0.104347i" in err
        # 24 nodes on each of 48 panels resolve it: 3 spacings up (the
        # lattice holds the peak t = 16, against which the error is taken)
        rc, diag = self.solve(tmp_path, t="15:17:3",
                              **self.pulse("gaussian", 1.95),
                              n_panels=48, nodes_per_panel=24)
        assert rc == 0 and diag["pole_count"]["clearance"] > 3.0
        assert diag["boundary_err"]["value"] < 1e-3

    def test_zero_the_window_misses_is_refused(self, tmp_path, capsys):
        # 3.2 sech(t - 16) e^{it} has zeros near -0.5 + 1.1i and
        # -0.5 + 0.1i; the old window search found only the first, and the
        # run used to exit 0 with E_in 25 % off at x = 0.  The fit finds
        # both, and the second lies below the panels' resolution
        rc, _ = self.solve(tmp_path, **self.pulse("sech", 3.2, 1.0))
        assert rc == 3
        err = capsys.readouterr().err
        assert "TooCloseToAxis" in err and "-0.500000+0.100000i" in err

    def test_under_resolved_axis_count_is_refused(self, tmp_path, capsys):
        # on 16 nodes the phase of a jumps by 2.5 rad near the zero at
        # 0.5i and the axis count aliases to 0; a Blaschke factor that
        # winds once is no fit of 1, and the run is refused rather than
        # dropping the soliton
        rc, _ = self.solve(tmp_path, **self.pulse("sech", 2.0),
                           n_panels=4, nodes_per_panel=4)
        assert rc == 3
        err = capsys.readouterr().err
        assert "CountMismatch" in err and "counts 0 zero(s)" in err
        assert "fits a only to 1.17e+00" in err


@pytest.mark.parametrize("name", ["desk_rh", "excited_rh"])
def test_benchmark_scenarios_fit_no_zeros(tmp_path, name):
    # the benchmark's contour workloads are pole-free; their fit residual
    # keeps a wide margin below the refusal
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark",
                        "scenarios", name + ".json")
    out = tmp_path / "rh"
    rc = run_command(["solve-rh", "--scenario", path, "--t", "0:2:2",
                      "--x", "0:1:2", "--out", str(out)])
    assert rc == 0
    count = json.load(open(out / "meta.json"))["diagnostics"]["pole_count"]
    assert count["axis"] == 0 and count["clearance"] is None
    assert count["fit_residual"] < spectral.FIT_TOL / 50


def test_tabulated_solve_rh_builds_pv_weights_per_run(monkeypatch, tmp_path):
    # eta_pm of a tabulated line is evaluated on the real nodes once per
    # run, and that one EtaValues serves both x-banks, on any lattice
    builds = []
    orig = broadening.pv_weights

    def counted(*args):
        builds.append(args[1].size)
        return orig(*args)

    monkeypatch.setattr(broadening, "pv_weights", counted)
    path = write_scenario(tmp_path, n_panels=4, nodes_per_panel=8,
                          profile=gaussian_table())
    counts = []
    for t_spec, x_spec in (("2:4:2", "0:2:1"), ("2:4:4", "0:2:3")):
        builds.clear()
        assert run_command(["solve-rh", "--scenario", path, "--t", t_spec,
                            "--x", x_spec, "--no-poles",
                            "--out", str(tmp_path / "rh")]) == 0
        counts.append(len(builds))
    assert counts == [1, 1]


def _fresh_interpreter(code, env=None):
    """Last stdout line of `code` run by a new interpreter on this mbrh,
    in `env` (default: this process's environment)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mbrh.__file__)))
    env = dict(os.environ if env is None else env, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def test_cli_import_leaves_out_scipy_integrate():
    # adaptive quadrature serves only the test references; an mb-rh
    # process does not pay for its import
    code = "import sys, mbrh.cli; print('scipy.integrate' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_cli_import_leaves_out_scipy_optimize():
    # only `mb-rh curve` root-finds (gamma_trace), so it alone imports it
    code = "import sys, mbrh.cli; print('scipy.optimize' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_lu_free_runs_leave_out_scipy_linalg(tmp_path):
    # the Krylov path solves its triangle with numpy, so import, a
    # solve-direct run, a pole-free solve-rh and one with a pole (residue
    # conditions, no LU) never load scipy.linalg
    path = write_scenario(tmp_path, T=10.0, L=5.0,
                          E_in={"pulse": "gaussian", "amplitude": 0.8,
                                "center": 3.0, "width": 0.7},
                          lam_points=41)
    pole = write_scenario(tmp_path, name="pole.json", **POLE)
    code = textwrap.dedent(f"""\
        import sys
        from mbrh.cli import run_command
        seen = []
        loaded = lambda: seen.append('scipy.linalg' in sys.modules)
        loaded()
        assert run_command(["solve-direct", "--scenario", {path!r},
                            "--dt", "0.1", "--out", {str(tmp_path / "d")!r}]) == 0
        loaded()
        assert run_command(["solve-rh", "--scenario", {path!r},
                            "--t", "2:4:2", "--x", "0:1:2",
                            "--out", {str(tmp_path / "rh")!r}]) == 0
        loaded()
        assert run_command(["solve-rh", "--scenario", {pole!r},
                            "--t", "14:18:3", "--x", "0:1:2",
                            "--out", {str(tmp_path / "pole")!r}]) == 0
        loaded()
        print(seen)
        """)
    assert _fresh_interpreter(code) == "[False, False, False, False]"
    for out, n_poles in (("rh", 0), ("pole", 1)):
        with open(tmp_path / out / "meta.json") as fh:
            diag = json.load(fh)["diagnostics"]
        assert (diag["n_poles"], diag["lu_stamps"]) == (n_poles, 0)


def test_runs_leave_out_openssl_and_scipy(tmp_path):
    # config_hash took OpenSSL (_hashlib) and meta.json's version string
    # the scipy package: import, solve-direct and a pole-free solve-rh
    # load neither
    path = write_scenario(tmp_path, T=10.0, L=5.0,
                          E_in={"pulse": "gaussian", "amplitude": 0.8,
                                "center": 3.0, "width": 0.7},
                          lam_points=41)
    code = textwrap.dedent(f"""\
        import sys
        from mbrh.cli import run_command
        seen = []
        loaded = lambda: seen.append([m for m in ("_hashlib", "scipy")
                                      if m in sys.modules])
        loaded()
        assert run_command(["solve-direct", "--scenario", {path!r},
                            "--dt", "0.1", "--out", {str(tmp_path / "d")!r}]) == 0
        loaded()
        assert run_command(["solve-rh", "--scenario", {path!r},
                            "--t", "2:4:2", "--x", "0:1:2",
                            "--out", {str(tmp_path / "rh")!r}]) == 0
        loaded()
        print(seen)
        """)
    assert _fresh_interpreter(code) == "[[], [], []]"


def test_versions_name_scipy_once_a_run_loads_it(tmp_path):
    # a pole-free solve-rh runs on numpy alone and records no scipy
    # version; curve root-finds with scipy.optimize and records it
    import scipy

    path = write_scenario(tmp_path, lam_points=41)
    code = textwrap.dedent(f"""\
        from mbrh.cli import run_command
        assert run_command(["solve-rh", "--scenario", {path!r},
                            "--t", "2:4:2", "--x", "0:1:2",
                            "--out", {str(tmp_path / "rh")!r}]) == 0
        assert run_command(["curve", "--sign", "1",
                            "--out", {str(tmp_path / "curve")!r}]) == 0
        print("ok")
        """)
    assert _fresh_interpreter(code) == "ok"
    versions = {}
    for out in ("rh", "curve"):
        with open(tmp_path / out / "meta.json") as fh:
            versions[out] = json.load(fh)["versions"]
    assert versions["rh"] == {"mbrh": mbrh.__version__,
                              "numpy": np.__version__, "scipy": None}
    assert versions["curve"]["scipy"] == scipy.__version__


def test_config_hash_is_sha256_of_the_canonical_config(tmp_path):
    import hashlib

    out = tmp_path / "sol"
    assert run_command(["soliton", "--nu", "0.3", "--t", "0:5:3",
                        "--x", "0:2:2", "--out", str(out)]) == 0
    with open(out / "meta.json") as fh:
        meta = json.load(fh)
    canon = json.dumps(meta["config"], sort_keys=True, default=str)
    assert meta["config_hash"] == hashlib.sha256(canon.encode()).hexdigest()


def test_meta_records_peak_rss(tmp_path):
    # ru_maxrss is KiB on Linux and bytes on macOS; meta.json holds MiB,
    # read after the tables were written
    import resource

    scale = 2.0 ** 20 if sys.platform == "darwin" else 1024.0
    peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    before = peak()
    out = tmp_path / "sol"
    assert run_command(["soliton", "--nu", "0.3", "--t", "0:5:3",
                        "--x", "0:2:2", "--out", str(out)]) == 0
    after = peak()
    with open(out / "meta.json") as fh:
        assert before <= json.load(fh)["peak_rss_mb"] <= after


def test_lu_stamp_loads_scipy_linalg(tmp_path):
    # a one-step Krylov budget leaves every stamp of a pole solve to the
    # dense LU, which imports scipy.linalg on its first call
    pole = write_scenario(tmp_path, name="pole.json", **POLE)
    code = textwrap.dedent(f"""\
        import sys
        from mbrh import cli, rhsolver
        rhsolver.KRYLOV_BUDGET = 1
        before = 'scipy.linalg' in sys.modules
        assert cli.run_command(["solve-rh", "--scenario", {pole!r},
                                "--t", "14:18:3", "--x", "0:1:2",
                                "--out", {str(tmp_path / "pole")!r}]) == 0
        print(before, 'scipy.linalg' in sys.modules)
        """)
    assert _fresh_interpreter(code) == "False True"
    with open(tmp_path / "pole" / "meta.json") as fh:
        diag = json.load(fh)["diagnostics"]
    assert (diag["n_poles"], diag["lu_stamps"]) == (1, 6)
    assert diag["krylov_iters"]["max"] == 0


def test_contour_commands_leave_out_numpy_ma(tmp_path):
    # np.unique and np.median import numpy.ma; a pole-free desk solve-rh,
    # spectra and jump use neither
    path = write_scenario(tmp_path, T=10.0, L=5.0,
                          E_in={"pulse": "gaussian", "amplitude": 0.8,
                                "center": 3.0, "width": 0.7},
                          lam_points=41)
    code = textwrap.dedent(f"""\
        import sys
        from mbrh.cli import run_command
        seen = []
        for cmd in (["solve-rh", "--t", "2:4:2", "--x", "0:1:2"],
                    ["spectra"], ["jump", "--t", "1", "--x", "1"]):
            assert run_command([cmd[0], "--scenario", {path!r}, *cmd[1:],
                                "--out", {str(tmp_path / "o")!r}]) == 0
            seen.append('numpy.ma' in sys.modules)
        print(seen)
        """)
    assert _fresh_interpreter(code) == "[False, False, False]"


# ----------------------------------------------------------------------
# the stamp loop: one BLAS thread, lattice order, the first refusal
# ----------------------------------------------------------------------

DESK = dict(T=10.0, L=5.0, E_in={"pulse": "gaussian", "amplitude": 0.8,
                                 "center": 3.0, "width": 0.7})
# one zero of a at i/2, 3.2 node spacings above the axis (the least
# `a_zeros` accepts is 2.5), on the Krylov path
POLE = dict(T=32.0, L=1.0, n_panels=16, nodes_per_panel=16,
            E_in={"pulse": "sech", "amplitude": 2.0, "center": 16.0,
                  "width": 1.0})


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_blas_runs_one_thread_unless_preset():
    code = ("import os, mbrh.cli as c; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], c.thread_width())")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    assert _fresh_interpreter(code, env) == "1 1"
    assert _fresh_interpreter(code, dict(env, OPENBLAS_NUM_THREADS="2")) \
        == "2 1"


def test_worker_refusal_exits_as_serial(monkeypatch, capsys, tmp_path):
    # stamps 3 (t = 3, x = 1) and 4 (t = 4, x = 0) both refuse: the loop
    # stops at stamp 3, the earlier in lattice order, with its message
    orig, seen = cli.sie_solve, []

    def refusing(contour, jd, residues):
        seen.append((jd.t, jd.x))
        if (jd.t, jd.x) in ((3.0, 1.0), (4.0, 0.0)):
            raise IllConditioned(f"stamp t={jd.t} x={jd.x}")
        return orig(contour, jd, residues)

    monkeypatch.setattr(cli, "sie_solve", refusing)
    path = write_scenario(tmp_path, n_panels=8, nodes_per_panel=8, **DESK)
    out = tmp_path / "rh"
    rc = run_command(["solve-rh", "--scenario", path, "--t", "2:4:3",
                      "--x", "0:1:2", "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (
        3, "numerical failure (IllConditioned): stamp t=3.0 x=1.0\n")
    assert seen == [(2.0, 0.0), (2.0, 1.0), (3.0, 0.0), (3.0, 1.0)]
    assert not out.exists()
    _assert_no_child()
