"""Command-line front end.

Loads JSON scenario configs, dispatches the computational pipelines
(line-shape transforms, spectral data, jump assembly, contour solve,
direct integration, closed-form solitons, run comparison) and emits
deterministic CSV data plus JSON metadata.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np
from scipy import __version__ as _scipy_version

from . import __version__
from .broadening import (LAM_WINDOW, BroadeningProfile, eta_boundary,
                         gamma_trace, profile_normalize)
from .direct import integrate_direct
from .errors import InvariantError, MBRHError, SchemaError
from .jump import JumpData, jump_mixed, spectral_data
from .rhsolver import (
    contour_build,
    sie_solve,
    soliton_circle_jump,
    soliton_closed_form,
)
from .spectral import DEFAULT_STEP, ScenarioData, locate_a_zeros

POLE_RADIUS = 0.15              # regularizing circle radius, capped at 0.45 Im z
POLE_STEP = 0.02                # Magnus step of the pole search


# ----------------------------------------------------------------------
# config loading
# ----------------------------------------------------------------------

def _require(block, key, path, types=None):
    if key not in block:
        raise SchemaError(f"{path}.{key}: missing required field")
    val = block[key]
    if types is not None and not isinstance(val, types):
        raise SchemaError(f"{path}.{key}: expected {types}, got {type(val).__name__}")
    return val


def profile_from_config(block, path="profile"):
    if not isinstance(block, dict):
        raise SchemaError(f"{path}: expected an object")
    shape = _require(block, "shape", path, str)
    sign = int(block.get("sign", -1))
    if sign not in (-1, 1):
        raise SchemaError(f"{path}.sign: must be -1 or +1")
    try:
        if shape == "lorentzian":
            return BroadeningProfile.lorentzian(_require(block, "l", path, (int, float)), sign=sign)
        if shape == "rectangular":
            return BroadeningProfile.rectangular(_require(block, "eps", path, (int, float)), sign=sign)
        if shape == "delta_approx":
            return BroadeningProfile.delta_approx(_require(block, "eps", path, (int, float)), sign=sign)
        if shape == "tabulated":
            return profile_normalize(BroadeningProfile.tabulated(
                _require(block, "grid", path, list),
                _require(block, "values", path, list), sign=sign))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    raise SchemaError(f"{path}.shape: unknown shape '{shape}'")


def pulse_from_config(block, domain, path):
    """Build a sampled-envelope callable from a pulse spec."""
    if block is None:
        block = {"pulse": "zero"}
    if not isinstance(block, dict):
        raise SchemaError(f"{path}: expected an object or null")
    kind = _require(block, "pulse", path, str)
    if kind == "zero":
        return lambda s: np.zeros(np.shape(s), dtype=complex)
    amp = complex(_require(block, "amplitude", path, (int, float)))
    center = float(block.get("center", 0.5 * domain))
    width = float(block.get("width", 1.0))
    chirp = float(block.get("chirp", 0.0))
    if width <= 0:
        raise SchemaError(f"{path}.width: must be positive")
    if kind == "sech":
        base = lambda s: amp / np.cosh((np.asarray(s, float) - center) / width)
    elif kind == "gaussian":
        base = lambda s: amp * np.exp(-((np.asarray(s, float) - center) / width) ** 2)
    else:
        raise SchemaError(f"{path}.pulse: unknown pulse type '{kind}'")
    if chirp == 0.0:
        return lambda s: np.asarray(base(s), dtype=complex)
    return lambda s: np.asarray(
        base(s) * np.exp(1j * chirp * np.asarray(s, float)), dtype=complex)


def rho0_from_config(block, path="rho0"):
    if block is None:
        return None
    if not isinstance(block, dict):
        raise SchemaError(f"{path}: expected an object or null")
    xg = np.asarray(_require(block, "x", path, list), dtype=float)
    lg = np.asarray(_require(block, "lam", path, list), dtype=float)
    re = np.asarray(_require(block, "re", path, list), dtype=float)
    im = np.asarray(block.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != (xg.size, lg.size) or im.shape != re.shape:
        raise SchemaError(f"{path}.re/im: table shape must be (len(x), len(lam))")
    mag = np.hypot(re, im)
    bad = np.argwhere(mag > 1.0 + 1e-12)
    if bad.size:
        i, j = bad[0]
        raise InvariantError(
            f"rho0 magnitude {mag[i, j]:.6g} > 1 at (x index {i}, lam index {j}); "
            "the initial polarization must satisfy |rho0| <= 1 so the "
            "population inversion can take the positive square-root branch")
    tab = re + 1j * im

    def rho0(x, lam):
        lam = np.asarray(lam, dtype=float)
        # bilinear: interpolate each lam column in x, then along lam
        col = np.array([np.interp(x, xg, tab[:, k]) for k in range(lg.size)])
        return np.interp(lam, lg, col)

    return rho0


def load_scenario(path):
    """Scenario JSON -> (ScenarioData, profile, resolved config dict)."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise SchemaError("scenario root: expected an object")
    T = float(_require(cfg, "T", "scenario", (int, float)))
    L = float(_require(cfg, "L", "scenario", (int, float)))
    if T <= 0 or L <= 0:
        raise SchemaError("scenario.T/L: must be positive")
    E_in = pulse_from_config(cfg.get("E_in"), T, "E_in")
    E0 = pulse_from_config(cfg.get("E0"), L, "E0")
    rho0 = rho0_from_config(cfg.get("rho0"))
    profile = profile_from_config(_require(cfg, "profile", "scenario", dict))
    scenario = ScenarioData(T=T, L=L, E_in=E_in, E0=E0, rho0=rho0)
    return scenario, profile, cfg


# ----------------------------------------------------------------------
# output emission
# ----------------------------------------------------------------------

def _fmt(v):
    return format(float(v), ".17g")


def write_csv(path, header, columns):
    cols = [np.asarray(c).ravel() for c in columns]
    n = cols[0].size
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(_fmt(c[i]) for c in cols) + "\n")


def emit_results(outdir, tables, config, diagnostics):
    """tables: {filename: (header, columns)}; writes CSVs and meta.json."""
    if not tables:
        raise ValueError("no result tables to emit")
    os.makedirs(outdir, exist_ok=True)
    for name, (header, columns) in tables.items():
        write_csv(os.path.join(outdir, name), header, columns)
    canon = json.dumps(config, sort_keys=True, default=str)
    meta = {
        "config": config,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "versions": {"mbrh": __version__, "numpy": np.__version__,
                     "scipy": _scipy_version},
        "diagnostics": diagnostics,
    }
    with open(os.path.join(outdir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)


def field_table(t_vals, x_vals, E):
    tt, xx = np.meshgrid(t_vals, x_vals, indexing="ij")
    return (["t", "x", "re_E", "im_E", "abs_E"],
            [tt, xx, E.real, E.imag, np.abs(E)])


# ----------------------------------------------------------------------
# stamp loop
# ----------------------------------------------------------------------

def thread_width():
    """Stamps solved at once: 1.  Each stamp's Cauchy products already
    run on the BLAS threads, and a stamp pool on top of them measured
    slower (`benchmark/child.py` reports this as the pool width)."""
    return 1


def parallel_map(fn, items):
    """The stamp loop: fn over items, one at a time (see thread_width)."""
    return [fn(it) for it in items]


# ----------------------------------------------------------------------
# pipelines
# ----------------------------------------------------------------------

def rh_field_grid(scenario, profile, t_vals, x_vals, window=LAM_WINDOW,
                  n_panels=24, nodes_per_panel=16, find_poles=True,
                  pole_window=(-5.0, 5.0, 0.05, 3.0)):
    """Mixed-problem contour pipeline: pole search -> contour -> spectral
    data and K_pm on the x lattice -> per-stamp jump assembly and contour
    solve.

    Returns (E grid (Nt, Nx), diagnostics dict).
    """
    t_vals = np.asarray(t_vals, dtype=float)
    x_vals = np.asarray(x_vals, dtype=float)
    scenario.validate()         # refuse bad data before the pole search

    poles = []
    if find_poles and profile.sign < 0:
        poles = locate_a_zeros(scenario, profile, window=pole_window,
                               step=POLE_STEP)
    circles = []
    for (zj, _) in poles:
        r = min(POLE_RADIUS, 0.45 * zj.imag)
        circles += [(zj, r), (np.conj(zj), r)]
    contour = contour_build(window=window, n_panels=n_panels,
                            nodes_per_panel=nodes_per_panel, circles=circles)
    # the real-axis panels come first in the node list
    n_real = n_panels * nodes_per_panel
    lam = contour.nodes[:n_real].real
    ev = eta_boundary(profile, lam)
    _, Kp, Km = spectral_data(scenario, profile, lam, x_out=x_vals)

    def solve_stamp(args):
        it, ix = args
        t, x = t_vals[it], x_vals[ix]
        jd_real = jump_mixed(t, x, ev, Kp[ix], Km[ix])
        if poles:
            jd_circ = soliton_circle_jump(poles, profile, t, x, contour)
            J = jd_circ.J.copy()
            J[:n_real] = jd_real.J
            jd = JumpData(problem_class="mixed", t=t, x=x,
                          nodes=contour.nodes, J=J)
        else:
            jd = jd_real
        res = sie_solve(contour, jd)
        return res.E, res.diagnostics

    stamps = [(it, ix) for it in range(t_vals.size)
              for ix in range(x_vals.size)]
    out = parallel_map(solve_stamp, stamps)
    E = np.array([e for e, _ in out]).reshape(t_vals.size, x_vals.size)
    col = {key: np.array([d[key] for _, d in out])
           for key in ("residual_rel", "cond", "iterations", "posdef_min")}
    diag = {"n_poles": len(poles), "n_nodes": contour.n_nodes,
            "n_stamps": len(stamps),
            "lu_stamps": int(np.count_nonzero(col["iterations"] == 0))}
    for key, name in (("residual_rel", "residual_rel"), ("cond", "cond"),
                      ("iterations", "krylov_iters")):
        vals = col[key]
        diag[name] = {"p50": float(np.median(vals)), "max": float(vals.max())}
    diag["posdef_min"] = {"p50": float(np.median(col["posdef_min"])),
                          "min": float(col["posdef_min"].min())}
    diag["max_residual_rel"] = diag["residual_rel"]["max"]
    diag["max_cond"] = diag["cond"]["max"]
    return E, diag


def soliton_field_grid(nu, t_vals, x_vals, profile):
    poles = [(1j * float(nu), 1.0 + 0.0j)]
    E = np.array([[soliton_closed_form(poles, profile, t, x)[0]
                   for x in x_vals] for t in t_vals])
    return E, poles


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _parse_range(spec, path):
    try:
        a, b, n = spec.split(":")
        return np.linspace(float(a), float(b), int(n))
    except ValueError as exc:
        raise SchemaError(f"{path}: expected start:stop:count, got '{spec}'") from exc


def _profile_from_args(args, l=1.0, eps=0.5):
    """Profile from --profile/--l/--eps/--sign.  The width the shape needs
    (l for a Lorentzian, eps otherwise) takes its default when unset."""
    block = {"shape": args.profile, "sign": args.sign}
    need = "l" if args.profile == "lorentzian" else "eps"
    for key, default in (("l", l), ("eps", eps)):
        val = getattr(args, key)
        if val is None and key == need:
            val = default
        if val is not None:
            block[key] = val
    return profile_from_config(block, path="profile"), block


def _lam_grid(cfg):
    """Detuning grid of a scenario: lam_points nodes on lam_window."""
    lo, hi = cfg.get("lam_window", LAM_WINDOW)
    return np.linspace(lo, hi, int(cfg.get("lam_points", 401)))


def _add_profile_args(p):
    p.add_argument("--profile", default="lorentzian",
                   choices=["lorentzian", "rectangular", "delta_approx"])
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--sign", type=int, default=-1, choices=[-1, 1])


def cmd_eta(args):
    profile, block = _profile_from_args(args)
    lam = np.linspace(args.window[0], args.window[1], args.grid)
    # eta_pm is log-infinite on the edges of a box profile: leave those
    # nodes out of the table and name them in meta.json
    edge = profile.on_edge(lam)
    edge_lam = lam[edge].tolist()
    lam = lam[~edge]
    ev = eta_boundary(profile, lam)
    tables = {"eta.csv": (
        ["lambda", "re_eta_plus", "im_eta_plus", "re_eta_minus",
         "im_eta_minus", "n"],
        [lam, ev.eta_plus.real, ev.eta_plus.imag, ev.eta_minus.real,
         ev.eta_minus.imag, ev.n])}
    emit_results(args.out, tables, {"command": "eta", "profile": block,
                                    "grid": args.grid,
                                    "window": list(args.window)},
                 {"edge_nodes_omitted": edge_lam})
    jump_err = float(np.max(np.abs(
        (ev.eta_plus - ev.eta_minus) + 0.5j * np.pi * ev.n), initial=0.0))
    print(f"eta: {lam.size} nodes ({len(edge_lam)} profile-edge nodes "
          f"omitted), boundary-jump identity error {jump_err:.3e}")
    return 0


def cmd_curve(args):
    profile, block = _profile_from_args(args)
    curve = gamma_trace(profile)
    pts = curve.points
    tables = {"curve.csv": (["re_z", "im_z"], [pts.real, pts.imag])}
    emit_results(args.out, tables,
                 {"command": "curve", "profile": block},
                 {"nu_max": curve.nu_max, "bounded": curve.bounded,
                  "truncated": curve.truncated})
    print(f"curve: {pts.size} points, nu_max={curve.nu_max:.6g}, "
          f"truncated={curve.truncated}")
    return 0


def cmd_spectra(args):
    scenario, profile, cfg = load_scenario(args.scenario)
    lam = _lam_grid(cfg)
    table, _, _ = spectral_data(scenario, profile, lam, step=args.step)
    tables = {"spectra.csv": (
        ["lambda", "re_a", "im_a", "re_b", "im_b", "abs_r"],
        [lam, table.a_plus.real, table.a_plus.imag, table.b_plus.real,
         table.b_plus.imag, np.abs(table.r_plus)])}
    emit_results(args.out, tables, {"command": "spectra", "scenario": cfg},
                 dict(table.diagnostics))
    print(f"spectra: {lam.size} nodes, max |r| = {np.max(np.abs(table.r_plus)):.6g}, "
          f"det error {table.diagnostics['det_Tp_err']:.3e}")
    return 0


def cmd_jump(args):
    scenario, profile, cfg = load_scenario(args.scenario)
    lam = _lam_grid(cfg)
    _, Kp, Km = spectral_data(scenario, profile, lam, x_out=[args.x])
    jd = jump_mixed(args.t, args.x, eta_boundary(profile, lam), Kp[0], Km[0])
    J = jd.J
    tables = {"jump.csv": (
        ["lambda", "re_J11", "im_J11", "re_J12", "im_J12",
         "re_J21", "im_J21", "re_J22", "im_J22"],
        [lam, J[:, 0, 0].real, J[:, 0, 0].imag, J[:, 0, 1].real,
         J[:, 0, 1].imag, J[:, 1, 0].real, J[:, 1, 0].imag,
         J[:, 1, 1].real, J[:, 1, 1].imag])}
    emit_results(args.out, tables,
                 {"command": "jump", "scenario": cfg, "t": args.t, "x": args.x},
                 {"det_error": jd.det_error()})
    print(f"jump: t={args.t} x={args.x}, det error {jd.det_error():.3e}")
    return 0


def cmd_solve_rh(args):
    scenario, profile, cfg = load_scenario(args.scenario)
    t_vals = _parse_range(args.t, "--t")
    x_vals = _parse_range(args.x, "--x")
    E, diag = rh_field_grid(scenario, profile, t_vals, x_vals,
                            window=tuple(cfg.get("lam_window", LAM_WINDOW)),
                            n_panels=int(cfg.get("n_panels", 24)),
                            nodes_per_panel=int(cfg.get("nodes_per_panel", 16)),
                            find_poles=not args.no_poles)
    emit_results(args.out, {"fields.csv": field_table(t_vals, x_vals, E)},
                 {"command": "solve-rh", "scenario": cfg,
                  "t": args.t, "x": args.x}, diag)
    print(f"solve-rh: {t_vals.size}x{x_vals.size} stamps, "
          f"max residual {diag['max_residual_rel']:.3e}, "
          f"|E| peak {np.max(np.abs(E)):.6g}")
    return 0


def cmd_solve_direct(args):
    scenario, profile, cfg = load_scenario(args.scenario)
    st = integrate_direct(scenario, profile, _lam_grid(cfg), dt=args.dt)
    emit_results(args.out,
                 {"fields.csv": field_table(st.t_grid, st.x_grid, st.E)},
                 {"command": "solve-direct", "scenario": cfg, "dt": args.dt},
                 st.diagnostics)
    print(f"solve-direct: dt={args.dt}, conservation drift "
          f"{st.diagnostics['conservation_error']:.3e}, "
          f"|E| peak {np.max(np.abs(st.E)):.6g}")
    return 0


def cmd_soliton(args):
    t_vals = _parse_range(args.t, "--t")
    x_vals = _parse_range(args.x, "--x")
    profile, block = _profile_from_args(args, eps=1e-3)
    E, poles = soliton_field_grid(args.nu, t_vals, x_vals, profile)
    emit_results(args.out, {"fields.csv": field_table(t_vals, x_vals, E)},
                 {"command": "soliton", "nu": args.nu, "profile": block,
                  "t": args.t, "x": args.x},
                 {"poles": [[str(z), str(m)] for z, m in poles]})
    print(f"soliton: nu={args.nu}, |E| peak {np.max(np.abs(E)):.6g}")
    return 0


def _load_field_csv(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.dtype.names is None or "re_E" not in data.dtype.names:
        raise SchemaError(f"{path}: not a field CSV (need re_E/im_E columns)")
    return data["t"], data["x"], data["re_E"] + 1j * data["im_E"]


def cmd_compare(args):
    ta, xa, Ea = _load_field_csv(args.run_a)
    tb, xb, Eb = _load_field_csv(args.run_b)
    if Ea.size != Eb.size or np.max(np.abs(ta - tb)) > 1e-12 \
            or np.max(np.abs(xa - xb)) > 1e-12:
        raise SchemaError("compare: runs are on different (t, x) lattices")
    denom2 = np.linalg.norm(Eb)
    denom_inf = np.max(np.abs(Eb))
    d = Ea - Eb
    rel_l2 = float(np.linalg.norm(d) / denom2) if denom2 > 0 else float(np.linalg.norm(d))
    rel_inf = float(np.max(np.abs(d)) / denom_inf) if denom_inf > 0 else float(np.max(np.abs(d)))
    report = {"rel_l2": rel_l2, "rel_linf": rel_inf, "points": int(Ea.size)}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "compare.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    print(f"compare: rel L2 {rel_l2:.6g}, rel Linf {rel_inf:.6g} "
          f"over {Ea.size} points")
    return 0


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="mb-rh",
                                 description="Maxwell-Bloch mixed-problem solver")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eta", help="boundary values of the shifted spectral map")
    _add_profile_args(p)
    p.add_argument("--grid", type=int, default=401)
    p.add_argument("--window", type=float, nargs=2, default=LAM_WINDOW)
    p.add_argument("--out", default="out-eta")
    p.set_defaults(fn=cmd_eta)

    p = sub.add_parser("curve", help="trace the zero-imaginary-part curve")
    _add_profile_args(p)
    p.add_argument("--out", default="out-curve")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("spectra", help="scattering data of a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--out", default="out-spectra")
    p.set_defaults(fn=cmd_spectra)

    p = sub.add_parser("jump", help="jump matrices at one (t, x) stamp")
    p.add_argument("--scenario", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--out", default="out-jump")
    p.set_defaults(fn=cmd_jump)

    p = sub.add_parser("solve-rh", help="contour-based field reconstruction")
    p.add_argument("--scenario", required=True)
    p.add_argument("--t", required=True, help="start:stop:count")
    p.add_argument("--x", required=True, help="start:stop:count")
    p.add_argument("--no-poles", action="store_true")
    p.add_argument("--out", default="out-rh")
    p.set_defaults(fn=cmd_solve_rh)

    p = sub.add_parser("solve-direct", help="direct integrator")
    p.add_argument("--scenario", required=True)
    p.add_argument("--dt", type=float, default=0.025)
    p.add_argument("--out", default="out-direct")
    p.set_defaults(fn=cmd_solve_direct)

    p = sub.add_parser("soliton", help="closed-form reflectionless field")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--t", required=True, help="start:stop:count")
    p.add_argument("--x", required=True, help="start:stop:count")
    _add_profile_args(p)
    p.set_defaults(profile="delta_approx")
    p.add_argument("--out", default="out-soliton")
    p.set_defaults(fn=cmd_soliton)

    p = sub.add_parser("compare", help="diff two field CSV runs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)
    return ap


def run_command(argv):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.fn(args)
    except (SchemaError, InvariantError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MBRHError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
