"""Config loading, output emission, and subcommand dispatch."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import mbrh
from mbrh import broadening, cli, rhsolver, spectral
from mbrh.cli import (
    load_scenario,
    pulse_from_config,
    profile_from_config,
    rho0_from_config,
    run_command,
    write_csv,
)
from mbrh.errors import (IllConditioned, InvariantError, NonDecaying,
                         SchemaError)


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


def test_write_csv_bytes_match_per_value_format(tmp_path):
    # the %.17g row template writes what format(float(v), ".17g") wrote
    # value by value, on every kind of double
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 5e-324, -2.2e-310, 1e308, -1e308,
                        np.finfo(float).max, np.nan, np.inf, -np.inf, 1.0,
                        0.1, 1 / 3, -123456789.0])
    n = special.size
    cols = [special,
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            np.arange(n),
            rng.standard_normal((2, n // 2))]
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
        # pulse can have reached
        front = np.minimum(np.arange(120) + 2, 41)
        assert diag["rotated_cells"] == front.sum() * 41 < 120 * 41 * 41
        assert set(diag["stages"]) == {"setup_s", "step_loop_s"}
        assert all(v >= 0.0 for v in diag["stages"].values())

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
        assert diag["lu_stamps"] == 0
        assert 0 < diag["krylov_iters"]["p50"] <= diag["krylov_iters"]["max"]
        assert 0 < diag["posdef_min"]["min"] <= diag["posdef_min"]["p50"]
        # stage trace: one t-equation solve, T / DEFAULT_STEP = 600 steps;
        # the two x-banks take the plane-wave shortcut here
        stages = diag["stages"]
        assert set(stages) == {"pole_search_s", "spectral_s",
                               "stamp_loop_s", "jump_s", "sie_s"}
        assert all(v >= 0.0 for v in stages.values())
        assert stages["jump_s"] + stages["sie_s"] <= stages["stamp_loop_s"]
        assert diag["magnus_steps"] == 600
        # the lattice holds the x = 0 column but no t = 0 row
        assert set(diag["boundary_err"]) == {"value", "t"}
        assert diag["initial_err"] is None

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

    def test_solve_rh_runs_one_xbank_solve_per_bank(self, monkeypatch, tmp_path):
        calls = []
        orig = spectral.xbank_propagate

        def counted(*args, **kwargs):
            calls.append(args[3])
            return orig(*args, **kwargs)

        monkeypatch.setattr(spectral, "xbank_propagate", counted)
        path = write_scenario(tmp_path, n_panels=4, nodes_per_panel=8,
                              E0={"pulse": "gaussian", "amplitude": 0.2,
                                  "center": 1.0, "width": 0.3})
        rc = run_command(["solve-rh", "--scenario", path, "--t", "2:4:2",
                          "--x", "0:2:3", "--no-poles",
                          "--out", str(tmp_path / "rh")])
        assert rc == 0
        assert sorted(calls) == ["+", "-"]

    def test_solve_rh_builds_cauchy_matrix_once(self, monkeypatch, tmp_path):
        # every stamp shares the contour's Cauchy matrix, built before the
        # stamp loop, so forked workers inherit it rather than build it
        calls, at_loop = [], []
        orig, loop = rhsolver._build_cauchy_plus, cli.parallel_map

        def counted(contour):
            calls.append(contour)
            return orig(contour)

        def entered(fn, items):
            at_loop.append(len(calls))
            return loop(fn, items)

        monkeypatch.setattr(rhsolver, "_build_cauchy_plus", counted)
        monkeypatch.setattr(cli, "parallel_map", entered)
        path = write_scenario(tmp_path, n_panels=4, nodes_per_panel=8)
        rc = run_command(["solve-rh", "--scenario", path, "--t", "2:4:2",
                          "--x", "0:2:2", "--no-poles",
                          "--out", str(tmp_path / "rh")])
        assert rc == 0
        assert len(calls) == 1 and at_loop == [1]


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

    def test_missed_soliton_shows_at_the_boundary(self, tmp_path):
        # 1.04 sech(t - 20) carries a zero of a near 0.02i, below the pole
        # search window: the run passes every solver certificate and
        # exits 0, but its x = 0 column is 18 % off E_in at t = 20
        rc, diag = self.run(tmp_path, "10:20:2", "0:5:2", T=40.0, L=5.0,
                            E_in={"pulse": "sech", "amplitude": 1.04,
                                  "center": 20.0, "width": 1.0})
        assert rc == 0 and diag["n_poles"] == 0
        assert diag["boundary_err"]["value"] > 0.1
        assert diag["boundary_err"]["t"] == 20.0
        assert diag["initial_err"] is None

    def test_absent_lines_are_null(self, tmp_path):
        rc, diag = self.run(tmp_path, "2:4:2", "1:2:2")
        assert rc == 0
        assert diag["boundary_err"] is None and diag["initial_err"] is None


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
    # solve-direct run and a pole-free solve-rh never load scipy.linalg
    path = write_scenario(tmp_path, T=10.0, L=5.0,
                          E_in={"pulse": "gaussian", "amplitude": 0.8,
                                "center": 3.0, "width": 0.7},
                          lam_points=41)
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
        print(seen)
        """)
    assert _fresh_interpreter(code) == "[False, False, False]"
    with open(tmp_path / "rh" / "meta.json") as fh:
        diag = json.load(fh)["diagnostics"]
    assert (diag["n_poles"], diag["lu_stamps"]) == (0, 0)


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


def test_pole_circle_solve_loads_scipy_linalg():
    # a contour with pole circles takes the dense LU, which imports
    # scipy.linalg on its first call
    code = textwrap.dedent("""\
        import sys
        from mbrh.broadening import BroadeningProfile
        from mbrh.rhsolver import contour_build, sie_solve, soliton_circle_jump
        c = contour_build(window=(-16.0, 16.0), n_panels=4, nodes_per_panel=8,
                          circles=[(0.5j, 0.15), (-0.5j, 0.15)])
        prof = BroadeningProfile.lorentzian(1.0)
        jd = soliton_circle_jump([(0.5j, 1.0 + 0.0j)], prof, 1.0, 0.0, c)
        before = 'scipy.linalg' in sys.modules
        iterations = sie_solve(c, jd).diagnostics["iterations"]
        print(before, iterations, 'scipy.linalg' in sys.modules)
        """)
    assert _fresh_interpreter(code) == "False 0 True"


# ----------------------------------------------------------------------
# forked stamp loop (cli.parallel_map): the serial loop's bytes,
# diagnostics and refusals, and no worker left behind on any exit path
# ----------------------------------------------------------------------

DESK = dict(T=10.0, L=5.0, E_in={"pulse": "gaussian", "amplitude": 0.8,
                                 "center": 3.0, "width": 0.7})
# one zero of a near the imaginary axis: two pole circles, LU on every stamp
POLE = dict(T=32.0, L=1.0, n_panels=8, nodes_per_panel=8,
            E_in={"pulse": "sech", "amplitude": 2.0, "center": 16.0,
                  "width": 1.0})


def _solve_rh_width(path, t, x, out, width):
    """fields.csv bytes and meta.json diagnostics of an `mb-rh solve-rh`
    process whose stamp loop has `width` processes."""
    _fresh_interpreter(textwrap.dedent(f"""\
        from mbrh import cli
        cli.thread_width = lambda: {width}
        assert cli.run_command(["solve-rh", "--scenario", {path!r},
                                "--t", {t!r}, "--x", {x!r},
                                "--out", {str(out)!r}]) == 0
        """))
    with open(out / "meta.json") as fh:
        diag = json.load(fh)["diagnostics"]
    return (out / "fields.csv").read_bytes(), diag


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cfg, t, x, lu_stamps", [
    (DESK, "0:10:21", "0:5:6", 0),
    (POLE, "14:18:3", "0:1:2", 6),
], ids=["desk", "pole-circles"])
def test_forked_stamp_loop_matches_serial(tmp_path, cfg, t, x, lu_stamps):
    path = write_scenario(tmp_path, **cfg)
    serial, d1 = _solve_rh_width(path, t, x, tmp_path / "serial", 1)
    forked, d2 = _solve_rh_width(path, t, x, tmp_path / "forked", 2)
    assert forked == serial
    assert (d1["workers"], d2["workers"], d2["lu_stamps"]) == (1, 2, lu_stamps)
    # every diagnostic but the timings and the process count
    untimed = lambda d: {k: v for k, v in d.items()
                         if k not in ("stages", "workers")}
    assert untimed(d2) == untimed(d1)


def test_thread_width_and_parallel_map_order(monkeypatch):
    # the two hooks benchmark/child.py and spans.py read
    width = cli.thread_width()
    assert isinstance(width, int) and width >= 1
    items = list(range(11))
    for w in (1, 3):
        monkeypatch.setattr(cli, "thread_width", lambda: w)
        out = cli.parallel_map(lambda i: (i, os.getpid()), items)
        assert [i for i, _ in out] == items
        assert len({pid for _, pid in out}) == w
    _assert_no_child()


def test_blas_runs_one_thread_unless_preset():
    code = ("import os, mbrh.cli as c; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], c.thread_width())")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    assert _fresh_interpreter(code, env).split() \
        == ["1", str(len(os.sched_getaffinity(0)))]
    assert _fresh_interpreter(code, dict(env, OPENBLAS_NUM_THREADS="2")) \
        == "2 1"


@pytest.mark.parametrize("fails, raised", [
    ({5: "a", 7: "b"}, "a"),        # both in workers: item 5 comes first
    ({3: "a", 8: "b"}, "a"),        # the parent's own chunk comes first
    ({6: "a", 4: "b"}, "b"),        # a worker's item comes first
])
def test_parallel_map_raises_lowest_failing_item(monkeypatch, fails, raised):
    monkeypatch.setattr(cli, "thread_width", lambda: 3)

    def fn(i):
        if i in fails:
            raise IllConditioned(fails[i])
        return i

    with pytest.raises(IllConditioned, match=f"^{raised}$"):
        cli.parallel_map(fn, range(12))
    _assert_no_child()


@pytest.mark.parametrize("die", [
    lambda: os._exit(5),
    lambda: os.kill(os.getpid(), signal.SIGKILL),
], ids=["exit", "signal"])
def test_parallel_map_worker_death_raises(monkeypatch, die):
    monkeypatch.setattr(cli, "thread_width", lambda: 3)
    parent = os.getpid()

    def fn(i):
        if i == 4 and os.getpid() != parent:
            die()
        return i

    with pytest.raises(RuntimeError, match="stamp worker 1 of 3 died"):
        cli.parallel_map(fn, range(12))
    _assert_no_child()


def test_parallel_map_interrupt_kills_workers(monkeypatch):
    monkeypatch.setattr(cli, "thread_width", lambda: 2)

    def fn(i):
        if i % 2:
            time.sleep(60)          # a worker still at work
        elif i == 2:
            raise KeyboardInterrupt
        return i

    tic = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.parallel_map(fn, range(8))
    assert time.monotonic() - tic < 30
    _assert_no_child()


def test_worker_refusal_exits_as_serial(monkeypatch, capsys, tmp_path):
    # stamp 3 (t = 3, x = 1) falls to the worker, stamp 4 (t = 4, x = 0)
    # to the parent: both runs refuse with stamp 3's message
    orig = cli.sie_solve

    def refusing(contour, jd):
        if (jd.t, jd.x) in ((3.0, 1.0), (4.0, 0.0)):
            raise IllConditioned(f"stamp t={jd.t} x={jd.x}")
        return orig(contour, jd)

    monkeypatch.setattr(cli, "sie_solve", refusing)
    path = write_scenario(tmp_path, n_panels=4, nodes_per_panel=8, **DESK)
    seen = []
    for width in (1, 2):
        monkeypatch.setattr(cli, "thread_width", lambda: width)
        rc = run_command(["solve-rh", "--scenario", path, "--t", "2:4:3",
                          "--x", "0:1:2", "--out", str(tmp_path / "rh")])
        seen.append((rc, capsys.readouterr().err))
        _assert_no_child()
    assert seen[0] == seen[1] == (
        3, "numerical failure (IllConditioned): stamp t=3.0 x=1.0\n")
