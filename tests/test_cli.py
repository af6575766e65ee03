"""Config loading, output emission, and subcommand dispatch."""

import json
import os

import numpy as np
import pytest

from mbrh import jump, rhsolver, spectral
from mbrh.cli import (
    load_scenario,
    pulse_from_config,
    profile_from_config,
    rho0_from_config,
    run_command,
)
from mbrh.errors import InvariantError, SchemaError


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

    def test_profile_errors(self):
        with pytest.raises(SchemaError, match="shape"):
            profile_from_config({"shape": "cauchy"})
        with pytest.raises(SchemaError, match="sign"):
            profile_from_config({"shape": "lorentzian", "l": 1.0, "sign": 2})


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
        monkeypatch.setattr(jump, "xbank_propagate", counted)
        path = write_scenario(tmp_path, n_panels=4, nodes_per_panel=8,
                              E0={"pulse": "gaussian", "amplitude": 0.2,
                                  "center": 1.0, "width": 0.3})
        rc = run_command(["solve-rh", "--scenario", path, "--t", "2:4:2",
                          "--x", "0:2:3", "--no-poles",
                          "--out", str(tmp_path / "rh")])
        assert rc == 0
        assert sorted(calls) == ["+", "-"]

    def test_solve_rh_builds_cauchy_matrix_once(self, monkeypatch, tmp_path):
        # every stamp shares the contour's Cauchy matrix
        calls = []
        orig = rhsolver._build_cauchy_plus

        def counted(contour):
            calls.append(contour)
            return orig(contour)

        monkeypatch.setattr(rhsolver, "_build_cauchy_plus", counted)
        path = write_scenario(tmp_path, n_panels=4, nodes_per_panel=8)
        rc = run_command(["solve-rh", "--scenario", path, "--t", "2:4:2",
                          "--x", "0:2:2", "--no-poles",
                          "--out", str(tmp_path / "rh")])
        assert rc == 0
        assert len(calls) == 1
