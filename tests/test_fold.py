"""The contour route on the detunings lambda >= 0 of mirror-symmetric data.

A real field on a line shape symmetric about resonance has Jost
solutions with X(-lambda) = conj X(lambda), so `spectral_data` solves
the nodes lambda >= 0 and unfolds, and `sie_solve_block` takes jumps given on
the nodes s > 0 as a real system there.  Every other run takes the full
axis, exactly as before, and says why.
"""

import json

import numpy as np
import pytest

from mbrh import pipeline, rhsolver
from mbrh.broadening import (MIRROR_TOL, BroadeningProfile, eta_boundary,
                             mirror_check, mirror_unfold)
from mbrh.cli import run_command
from mbrh.pipeline import rh_field_grid, spectral_data
from mbrh.rhsolver import contour_build, sie_solve_block
from mbrh.spectral import ScenarioData
from references import excited_scenario, mixed_jump, solve_stamp, stamp

LOR = BroadeningProfile.lorentzian(1.0, sign=-1)


def desk_scenario():
    return ScenarioData(T=10.0, L=5.0,
                        E_in=lambda t: 0.8 * np.exp(-((t - 3.0) / 0.7) ** 2)
                        + 0j * t,
                        E0=lambda x: np.zeros_like(np.asarray(x, complex)),
                        rho0=None)


SCENARIOS = [pytest.param(desk_scenario, id="desk"),
             pytest.param(excited_scenario, id="excited")]


@pytest.fixture
def unfolded(monkeypatch):
    """Make `spectral_data` solve every node, as for data that do not
    mirror: call it to switch."""
    orig = pipeline.data_mirror

    def switch():
        monkeypatch.setattr(pipeline, "data_mirror",
                            lambda *args: (orig(*args)[0], "switched off"))
    return switch


def stamps(make, contour, ts=(2.0, 3.5, 6.0)):
    """Jumps of the scenario's stamps on the contour: (full, folded)."""
    sc = make()
    xs = np.linspace(0.0, sc.L, 3)
    ev = eta_boundary(LOR, contour.nodes)
    table, Kp = spectral_data(sc, LOR, ev, x_out=xs)
    assert table.diagnostics["full_axis"] is None
    h = contour.n_nodes // 2
    full = [mixed_jump(t, x, ev, Kp[i])
            for t in ts for i, x in enumerate(xs)]
    return full, [J[h:] for J in full]


class TestFoldedSpectralData:
    @pytest.mark.parametrize("make", SCENARIOS)
    def test_matches_the_full_axis(self, make, unfolded):
        sc = make()
        contour = contour_build(window=(-16.0, 16.0))
        ev = eta_boundary(LOR, contour.nodes)
        xs = np.linspace(0.0, sc.L, 5)
        folded = spectral_data(sc, LOR, ev, x_out=xs)
        unfolded()
        full = spectral_data(sc, LOR, ev, x_out=xs)
        d, d_full = folded[0].diagnostics, full[0].diagnostics
        assert d["mirror_err"] == d_full["mirror_err"] <= MIRROR_TOL
        assert (d["nodes_solved"], d_full["nodes_solved"]) == (192, 384)
        assert d["full_axis"] is None and d_full["full_axis"] == "switched off"
        for name in ("a_plus", "b_plus", "r_plus"):
            got, want = getattr(folded[0], name), getattr(full[0], name)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for got, want in zip(folded[1:], full[1:]):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # the certificates read the same, to rounding
        for key in ("det_Tp_err", "reduction_err"):
            assert d[key] < 1e-13 and d_full[key] < 1e-13

    def test_unfolded_data_are_exactly_mirrored(self):
        contour = contour_build(window=(-16.0, 16.0), n_panels=16,
                                nodes_per_panel=12)
        ev = eta_boundary(LOR, contour.nodes)
        _, Kp = spectral_data(excited_scenario(), LOR, ev, x_out=[0.0, 1.0])
        assert np.array_equal(Kp[:, :96], np.conj(Kp[:, :95:-1]))

    def test_node_at_zero_counts_once(self, unfolded):
        # 401 nodes on [-20, 20]: node 200 is lambda = 0, its own mirror
        lam = np.linspace(-20.0, 20.0, 401)
        ev = eta_boundary(LOR, lam)
        table, Kp = spectral_data(desk_scenario(), LOR, ev)
        unfolded()
        full, Kp_full = spectral_data(desk_scenario(), LOR, ev)
        assert table.diagnostics["nodes_solved"] == 201
        assert np.max(np.abs(Kp - Kp_full)) <= 1e-13 * np.max(np.abs(Kp_full))
        assert np.max(np.abs(table.r_plus - full.r_plus)) <= 1e-13


class TestFoldedSolve:
    @pytest.mark.parametrize("make", SCENARIOS)
    def test_matches_the_full_solve(self, make):
        contour = contour_build(window=(-16.0, 16.0), n_panels=16,
                                nodes_per_panel=12)
        full, half = stamps(make, contour)
        refs = sie_solve_block(contour, np.stack(full))
        E, Q, diag = sie_solve_block(contour, np.stack(half))
        block = E, mirror_unfold(Q, contour.n_nodes, axis=1), diag
        sup = np.max(np.abs(refs[0]))
        for i in range(len(full)):
            (E_i, Q_i, d), (E_ref, Q_ref, d_ref) = stamp(block, i), stamp(refs, i)
            assert E_i.imag == 0.0
            assert abs(E_i - E_ref) <= 1e-14 * sup
            assert np.max(np.abs(Q_i - Q_ref)) <= 1e-13
            # the same Krylov space: the same steps and Hessenberg matrix
            assert d["iterations"] == d_ref["iterations"] > 0
            assert abs(d["cond"] - d_ref["cond"]) <= 1e-12 * d_ref["cond"]
            assert d["residual_rel"] < 1e-14 and not d["lu"]
            assert d["posdef_min"] == pytest.approx(d_ref["posdef_min"],
                                                    rel=1e-14)
            assert d.get("residue_cond") is None

    def test_uncertified_fold_takes_the_full_lu(self, monkeypatch):
        contour = contour_build(window=(-16.0, 16.0), n_panels=16,
                                nodes_per_panel=12)
        full, half = stamps(desk_scenario, contour, ts=(3.0,))
        E_krylov, Q_krylov, d_krylov = solve_stamp(contour, half[0])
        monkeypatch.setattr(rhsolver, "KRYLOV_BUDGET", 2)
        E_lu, Q_lu, d_lu = solve_stamp(contour, half[0])
        assert d_krylov["iterations"] > 2
        assert d_lu["lu"] and d_lu["iterations"] == 0
        assert abs(E_lu - E_krylov) < 1e-14
        assert np.max(np.abs(Q_lu - Q_krylov)) < 1e-13
        assert d_lu["residual_rel"] < 1e-14
        # the fallback stays folded: E exactly real, and the whole axis's
        # dense solve of the unfolded jump to rounding
        E_ref, _, d_ref = solve_stamp(contour, mirror_unfold(half[0], 192))
        assert d_ref["lu"] and E_lu.imag == 0.0
        assert abs(E_lu - E_ref) < 1e-14

    def test_poles_and_odd_halves_are_refused_the_fold(self):
        contour = contour_build(window=(-16.0, 16.0), n_panels=16,
                                nodes_per_panel=12)
        _, half = stamps(desk_scenario, contour, ts=(3.0,))
        residues = rhsolver.residue_constants([(0.5j, 1.0 + 0.0j)], LOR,
                                              3.0, 0.0)
        with pytest.raises(ValueError, match="does not match"):
            solve_stamp(contour, half[0], residues)
        with pytest.raises(ValueError, match="does not match"):
            solve_stamp(contour, half[0][1:])


class TestSharedOperator:
    """`cauchy_apply` is one operator with two kernels, chosen by the
    length of its data."""

    def contour(self):
        return contour_build(window=(-16.0, 16.0), n_panels=16,
                             nodes_per_panel=12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_folded_kernel_gives_the_half_of_the_unfolded_data(self, k):
        c = self.contour()
        n, h = c.n_nodes, c.n_nodes // 2
        rng = np.random.default_rng(k)
        g = rng.standard_normal((h, k)) + 1j * rng.standard_normal((h, k))
        full = c.cauchy_apply(mirror_unfold(g, n))
        half = c.cauchy_apply(g)
        assert half.shape == (h, k) and half.dtype == complex
        assert np.max(np.abs(half - full[h:])) <= 1e-14 * np.max(np.abs(full))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_whole_axis_form_is_the_complex_formula(self, k):
        c = self.contour()
        rng = np.random.default_rng(10 + k)
        X = (rng.standard_normal((c.n_nodes, k))
             + 1j * rng.standard_normal((c.n_nodes, k)))
        want = 0.5 * X + 1j * (c.kernel() @ X.view(float)).view(complex)
        assert np.array_equal(c.cauchy_apply(X), want)


class TestRealGmres:
    def test_real_system_matches_its_complex_run(self):
        rng = np.random.default_rng(5)
        n = 60
        A = np.eye(n) + 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal(n)
        real = [v[0] for v in rhsolver._gmres(lambda V, rows: V @ A.T,
                                              b[None], 1e9)]
        cplx = [v[0] for v in rhsolver._gmres(lambda V, rows: V @ A.T,
                                              b[None] + 0j, 1e9)]
        assert real[0].dtype == float and cplx[0].dtype == complex
        assert real[2] == cplx[2] > 1
        assert np.max(np.abs(real[0] - cplx[0])) <= 1e-14 * np.max(np.abs(cplx[0]))
        assert abs(real[1] - cplx[1]) <= 1e-12 * cplx[1]
        assert np.max(np.abs(A @ real[0] - b)) < 1e-13


class TestMirrorCheck:
    LAM = np.linspace(-4.0, 4.0, 9)

    def test_pairs_and_real_data(self):
        lam = self.LAM
        rho = np.exp(-lam ** 2) * (1.0 + 0.5j * lam)     # Re even, Im odd
        assert mirror_check([(lam, -1.0, 4.0), (rho, 1.0, 1.0)],
                            [(np.ones(3) + 0j, 1.0)]) == (0.0, None)
        err, why = mirror_check([(rho, -1.0, 1.0)])
        assert err > MIRROR_TOL and why.startswith("data not mirror")
        err, why = mirror_check([(lam, -1.0, 4.0)],
                                [(np.array([1.0, 1.0 + 1e-20j]), 1.0)])
        assert err <= MIRROR_TOL and why == "field data not exactly real"


def run_rh(tmp_path, t="2:4:2", x="0:2:2", **cfg):
    """solve-rh --no-poles on a scenario file: (fields.csv bytes, E, diag)."""
    from test_cli import write_scenario
    out = tmp_path / "rh"
    assert run_command(["solve-rh", "--scenario",
                        write_scenario(tmp_path, **cfg), "--t", t, "--x", x,
                        "--no-poles", "--out", str(out)]) == 0
    data = np.genfromtxt(out / "fields.csv", delimiter=",", names=True)
    return ((out / "fields.csv").read_bytes(), data["re_E"] + 1j * data["im_E"],
            json.loads((out / "meta.json").read_text())["diagnostics"])


SKEWED = {"shape": "tabulated", "sign": -1,
          "grid": np.linspace(-20.0, 20.0, 401).tolist(),
          "values": np.exp(-(np.linspace(-20.0, 20.0, 401) - 0.5) ** 2
                           / 2.0).tolist()}
CHIRPED = {"pulse": "gaussian", "amplitude": 0.3, "center": 3.0,
           "width": 0.5, "chirp": 1.5}
COMPLEX_RHO = {"x": [0.0, 1.0, 2.0], "lam": [-8.0, 0.0, 8.0],
               "re": [[0.0, 0.2, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.0]],
               "im": [[0.0, 0.1, 0.0], [0.0, 0.05, 0.0], [0.0, 0.0, 0.0]]}


class TestFullAxisRuns:
    """Data off the mirror take the full axis in both layers, with the
    reason in meta.json; their fields are the full-axis solve's, bit for
    bit."""

    @pytest.mark.parametrize("cfg, reason, complex_E", [
        pytest.param({"E_in": CHIRPED}, "data not mirror", True, id="chirped"),
        pytest.param({"rho0": COMPLEX_RHO}, "data not mirror", True,
                     id="complex_rho0"),
        pytest.param({"lam_window": [-16.0, 20.0]}, "data not mirror", False,
                     id="asymmetric_window"),
        # an off-resonant line makes the real pulse's field complex
        pytest.param({"profile": SKEWED}, "data not mirror", True,
                     id="skewed_line"),
    ])
    def test_takes_the_full_axis(self, tmp_path, unfolded, cfg, reason,
                                 complex_E):
        raw, E, diag = run_rh(tmp_path, **cfg)
        spec = diag["spectral"]
        assert spec["nodes_solved"] == 384
        assert spec["mirror_err"] > MIRROR_TOL
        assert spec["full_axis"].startswith(reason)
        assert diag["full_axis"] == spec["full_axis"]
        assert (np.max(np.abs(E.imag)) > 1e-6 * np.max(np.abs(E))) == complex_E
        unfolded()
        assert run_rh(tmp_path, **cfg)[0] == raw

    def test_mirrored_run_folds_both_layers(self, tmp_path, unfolded):
        raw, E, diag = run_rh(tmp_path)
        assert diag["spectral"]["nodes_solved"] == 192
        assert diag["full_axis"] is None and np.all(E.imag == 0.0)
        unfolded()
        _, E_full, diag_full = run_rh(tmp_path)
        assert diag_full["full_axis"] == "switched off"
        assert np.max(np.abs(E - E_full)) <= 1e-14 * np.max(np.abs(E_full))
        for key in ("krylov_iters", "n_nodes", "lu_stamps"):
            assert diag[key] == diag_full[key]
        assert diag["window"]["kept"] == diag_full["window"]["kept"]
        assert diag["cond"]["max"] == pytest.approx(diag_full["cond"]["max"],
                                                    rel=1e-12)

    def test_node_at_zero_takes_the_full_axis_in_the_stamps(self, tmp_path,
                                                            unfolded):
        # 9 panels of 9 nodes put a node at lambda = 0: the Jost solves
        # count it once, the stamps solve the whole kept window
        _, E, diag = run_rh(tmp_path, n_panels=9, nodes_per_panel=9)
        assert diag["spectral"]["nodes_solved"] == 41
        assert diag["full_axis"] == "a contour node at lambda = 0"
        unfolded()
        _, E_full, _ = run_rh(tmp_path, n_panels=9, nodes_per_panel=9)
        assert np.max(np.abs(E - E_full)) <= 1e-13 * np.max(np.abs(E_full))

    def test_poles_take_the_full_axis_in_the_stamps(self, tmp_path, unfolded):
        # 2 sech(t - 16): a zero of a at i/2, found from the unfolded a
        from test_cli import TestZeroCount
        cfg = TestZeroCount.pulse("sech", 2.0)

        def solve():
            out = tmp_path / "rh"
            from test_cli import write_scenario
            assert run_command(["solve-rh", "--scenario",
                                write_scenario(tmp_path, **cfg), "--t",
                                "14:18:3", "--x", "0:1:2", "--out",
                                str(out)]) == 0
            data = np.genfromtxt(out / "fields.csv", delimiter=",",
                                 names=True)
            return (data["re_E"] + 1j * data["im_E"],
                    json.loads((out / "meta.json").read_text())["diagnostics"])

        E, diag = solve()
        unfolded()
        E_full, diag_full = solve()
        assert diag["spectral"]["nodes_solved"] == 192
        assert diag["full_axis"].startswith("poles")
        count, count_full = diag["pole_count"], diag_full["pole_count"]
        assert count["axis"] == count_full["axis"] == diag["n_poles"] == 1
        assert count["newton_steps"] == count_full["newton_steps"]
        for key in ("fit_residual", "clearance"):
            assert count[key] == pytest.approx(count_full[key], rel=1e-8)
        assert np.max(np.abs(E - E_full)) <= 1e-12 * np.max(np.abs(E_full))


def test_fold_budget_fallback_in_the_field_grid(monkeypatch):
    # a folded run whose Krylov budget runs out still solves every stamp
    # by the full LU, on the same field
    kw = dict(window=(-16.0, 16.0), n_panels=16, nodes_per_panel=12,
              find_poles=False)
    E, diag = rh_field_grid(desk_scenario(), LOR, [2.5, 3.5], [0.0], **kw)
    monkeypatch.setattr(rhsolver, "KRYLOV_BUDGET", 2)
    E_lu, diag_lu = rh_field_grid(desk_scenario(), LOR, [2.5, 3.5], [0.0], **kw)
    assert diag["full_axis"] is None and diag_lu["full_axis"] is None
    assert (diag["lu_stamps"], diag_lu["lu_stamps"]) == (0, 2)
    assert np.max(np.abs(E_lu - E)) < 1e-14
