"""Command-line front end.

Loads JSON scenario configs, runs one subcommand (line-shape transforms,
spectral data, jump assembly, the contour route of `pipeline`, direct
integration, closed-form solitons, run comparison) and emits
deterministic CSV data plus JSON metadata.
"""

import argparse
import json
import math
import os
import resource
import sys

# config_hash is sha256 from the builtin module that hashlib itself falls
# back to, so a run does not load OpenSSL (`_hashlib`) for one digest;
# hashlib only where the build has neither (FIPS)
try:
    from _sha2 import sha256            # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

# The stamp loop runs in this process, one stamp after another, with one
# BLAS thread: its products are too small to gain from a second, and two
# OpenBLAS threads on two cores stalled.  BLAS reads these once, when
# numpy first loads it; a variable the environment already sets is left
# as it is.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:      # else BLAS read them already
    for _var in _BLAS_VARS:
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread variables)

from . import __version__
from .broadening import (LAM_POINTS, LAM_WINDOW, BroadeningProfile,
                         eta_boundary, gamma_trace, profile_normalize)
from .direct import integrate_direct
from .errors import InvariantError, MBRHError, SchemaError
from .jump import det_err, jump_base, jump_phased
from .pipeline import rh_field_grid, spectral_data
from .rhsolver import N_PANELS, NODES_PER_PANEL, soliton_closed_form
from .spectral import T_STEP, X_STEP, ScenarioData

MAX_MAGNUS_STEPS = 10 ** 6  # --step may ask for at most this many on [0, T] or [0, L]
MAX_LATTICE = 10 ** 7       # points a (t, x) lattice may have: --t/--x or --dt
# lam_points and the contour's N = n_panels * nodes_per_panel.  N nodes
# build N x N arrays: the real Cauchy kernel and p.v. weights, 8 N^2 B
# (32 MiB at the cap), and the dense fallback's complex 2N x 2N matrices,
# 64 N^2 B (256 MiB).  `_dense_solve` holds two of them, A and its
# inverse (a traced peak of 2.0 x at N = 256, test_rhsolver.py), and
# np.linalg.inv two LAPACK copies besides (RSS grows by 4.1 x at
# N = 768): about 1 GiB, as the direct route's workspace of MAX_LATTICE
# cells (14 x 8 B each) takes.
MAX_NODES = 2048
CSV_CHUNK_ROWS = 1024       # rows that write_csv formats at a time


# ----------------------------------------------------------------------
# config loading
# ----------------------------------------------------------------------

NUMBER = (int, float)       # JSON numbers, by type(): a bool is no number


def _require(block, key, path, types=None):
    """block[key]; SchemaError names the key when it is missing or its
    type() is not one of types."""
    if key not in block:
        raise SchemaError(f"{path}.{key}: missing required field")
    val = block[key]
    if types is not None and type(val) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise SchemaError(f"{path}.{key}: expected {names}, got {type(val).__name__}")
    return val


def _number(block, key, path, default):
    """block[key] as a float, default when unset; SchemaError names a key
    that holds no JSON number."""
    return float(_require(block, key, path, NUMBER) if key in block
                 else default)


def _table(block, key, path):
    """block[key], a list of JSON numbers or a table of them in rows of
    one length, as a float array; SchemaError names the key otherwise."""
    arr = np.array(_require(block, key, path, (list,)), dtype=object)
    if not all(type(v) in NUMBER for v in arr.flat):
        raise SchemaError(f"{path}.{key}: expected numbers in rows of one "
                          "length")
    return arr.astype(float)


def profile_from_config(block, path="profile"):
    if not isinstance(block, dict):
        raise SchemaError(f"{path}: expected an object")
    shape = _require(block, "shape", path, (str,))
    sign = _number(block, "sign", path, -1)
    if sign not in (-1, 1):
        raise SchemaError(f"{path}.sign: must be -1 or +1")
    sign = int(sign)
    try:
        if shape == "lorentzian":
            return BroadeningProfile.lorentzian(_require(block, "l", path, NUMBER), sign=sign)
        if shape == "rectangular":
            return BroadeningProfile.rectangular(_require(block, "eps", path, NUMBER), sign=sign)
        if shape == "delta_approx":
            return BroadeningProfile.delta_approx(_require(block, "eps", path, NUMBER), sign=sign)
        if shape == "tabulated":
            return profile_normalize(BroadeningProfile.tabulated(
                _require(block, "grid", path, (list,)),
                _require(block, "values", path, (list,)), sign=sign))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    raise SchemaError(f"{path}.shape: unknown shape '{shape}'")


def pulse_from_config(block, domain, path):
    """Build a sampled-envelope callable from a pulse spec."""
    if block is None:
        block = {"pulse": "zero"}
    if not isinstance(block, dict):
        raise SchemaError(f"{path}: expected an object or null")
    kind = _require(block, "pulse", path, (str,))
    if kind == "zero":
        return lambda s: np.zeros(np.shape(s), dtype=complex)
    amp = complex(_require(block, "amplitude", path, NUMBER))
    center = _number(block, "center", path, 0.5 * domain)
    width = _number(block, "width", path, 1.0)
    chirp = _number(block, "chirp", path, 0.0)
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


def _slopes(grid, f):
    """Slopes of f between the grid points along its first axis, as
    np.interp's complex path forms them."""
    return (f[1:] - f[:-1]) * (1.0 / np.diff(grid))[:, None]


def _interp_rows(grid, f, slope, at):
    """Rows np.interp(a, grid, f) for each point a of at, f interpolated
    along its first axis with its `_slopes`, in the operation order of
    np.interp's complex path, so equal to it bitwise; a outside the grid
    clamps to its end."""
    k = np.clip(np.searchsorted(grid, at, side="right") - 1, 0, grid.size - 2)
    out = slope[k] * (at - grid[k])[:, None] + f[k]
    out[at < grid[0]] = f[0]
    out[at >= grid[-1]] = f[-1]
    return out


def rho0_from_config(block, path="rho0"):
    if block is None:
        return None
    if not isinstance(block, dict):
        raise SchemaError(f"{path}: expected an object or null")
    xg, lg, re = (_table(block, key, path) for key in ("x", "lam", "re"))
    im = _table(block, "im", path) if "im" in block else np.zeros_like(re)
    for key, grid in (("x", xg), ("lam", lg)):
        if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
            raise SchemaError(f"{path}.{key}: must be a strictly increasing "
                              "list of at least 2 numbers")
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
    along_lam = []      # [lam, the table's rows on lam, their slopes in x]

    def rho0(x, lam):
        """Bilinear in the table: each x row along lam onto lam, then
        between the two rows that bracket x; x and lam outside the table
        clamp to its edge rows and columns, as np.interp does.  The rows
        on lam are kept for the next call on the same lam (a Magnus sweep
        makes one call per block).  An array x gives one row per depth,
        each equal to the call at that depth."""
        lam = np.asarray(lam, dtype=float)
        if not (along_lam and np.array_equal(along_lam[0], lam)):
            rows = np.ascontiguousarray(_interp_rows(
                lg, tab.T, _slopes(lg, tab.T), lam.ravel()).T)
            along_lam[:] = [lam.copy(), rows, _slopes(xg, rows)]
        xs = np.ravel(np.asarray(x, dtype=float))
        out = _interp_rows(xg, *along_lam[1:], xs).reshape(xs.shape + lam.shape)
        return out if np.ndim(x) else out[0]

    return rho0


def _non_finite(text):
    """Refuse a JSON NaN or Infinity constant."""
    raise SchemaError(f"non-finite number {text} in the scenario file")


def _refuse_non_finite(node):
    """Refuse a non-finite float anywhere in a parsed config, as JSON reads
    a literal beyond float range (1e999): one walk of its containers."""
    for val in node.values() if isinstance(node, dict) else node:
        if type(val) is float:
            if not math.isfinite(val):
                raise SchemaError(f"non-finite number {val} in the scenario "
                                  "file")
        elif isinstance(val, (dict, list)):
            _refuse_non_finite(val)


def _float_range_int(text):
    """JSON integer -> int, refusing one that no float can hold."""
    try:
        val = int(text)
        float(val)
    except (OverflowError, ValueError) as exc:   # ValueError: digit limit
        raise SchemaError(f"integer {text[:12]}... ({len(text)} digits) "
                          "beyond float range in the scenario file") from exc
    return val


def discretization(cfg, names=None):
    """(lam_window, lam_points, n_panels, nodes_per_panel) of a scenario
    config, defaults where unset; SchemaError names a bad key, as
    scenario.<key> or by names[key] (a flag that gave the value).  Each
    count, and the contour's nodes n_panels * nodes_per_panel, may be
    at most MAX_NODES."""
    name = lambda key: (names or {}).get(key, f"scenario.{key}")
    win = cfg.get("lam_window", LAM_WINDOW)
    if not (isinstance(win, (list, tuple)) and len(win) == 2
            and all(type(v) in NUMBER and np.isfinite(v) for v in win)
            and win[0] < win[1]):
        raise SchemaError(f"{name('lam_window')}: must be two finite numbers "
                          f"lo < hi, got {win!r}")
    counts = []
    for key, least, default in (("lam_points", 2, LAM_POINTS),
                                ("n_panels", 1, N_PANELS),
                                ("nodes_per_panel", 1, NODES_PER_PANEL)):
        val = cfg.get(key, default)
        if type(val) is not int or not least <= val <= MAX_NODES:
            raise SchemaError(f"{name(key)}: must be an integer in "
                              f"[{least}, {MAX_NODES}], got {val!r}")
        counts.append(val)
    if counts[1] * counts[2] > MAX_NODES:
        raise SchemaError(f"{name('n_panels')} * {name('nodes_per_panel')}: "
                          f"the contour may have at most {MAX_NODES} nodes, "
                          f"got {counts[1]} * {counts[2]}")
    return ((float(win[0]), float(win[1])), *counts)


def load_scenario(path):
    """Scenario JSON -> (ScenarioData, profile, config dict as read); a bad
    discretization key is refused here, before any command computes."""
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_int=_float_range_int,
                            parse_constant=_non_finite)
    except FileNotFoundError as exc:
        raise SchemaError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise SchemaError("scenario root: expected an object")
    _refuse_non_finite(cfg)
    T = float(_require(cfg, "T", "scenario", NUMBER))
    L = float(_require(cfg, "L", "scenario", NUMBER))
    if T <= 0 or L <= 0:
        raise SchemaError("scenario.T/L: must be positive")
    E_in = pulse_from_config(cfg.get("E_in"), T, "E_in")
    E0 = pulse_from_config(cfg.get("E0"), L, "E0")
    rho0 = rho0_from_config(cfg.get("rho0"))
    rho0_x = () if rho0 is None else tuple(map(float, cfg["rho0"]["x"]))
    profile = profile_from_config(_require(cfg, "profile", "scenario", (dict,)))
    discretization(cfg)
    scenario = ScenarioData(T=T, L=L, E_in=E_in, E0=E0, rho0=rho0,
                            rho0_x=rho0_x)
    return scenario, profile, cfg


# ----------------------------------------------------------------------
# output emission
# ----------------------------------------------------------------------

def write_csv(path, header, columns):
    """Every value as format(float(v), ".17g"), CSV_CHUNK_ROWS rows at a
    time.  Within a chunk each distinct value is formatted once
    (`_texts`): a field table repeats its t and x values across rows,
    the grids of t and x share values, a folded run's im_E holds only
    zeros, and abs_E repeats re_E wherever that is positive."""
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, cols[0].size, CSV_CHUNK_ROWS):
            chunk = np.stack([c[lo:lo + CSV_CHUNK_ROWS] for c in cols])
            fh.write("\n".join(map(",".join, zip(*_texts(chunk)))))
            fh.write("\n")


def _texts(values):
    """The "%.17g" texts of a contiguous float array, as nested lists,
    formatted once per distinct bit pattern, so that -0.0, 0.0 and NaNs
    each keep their own text.  Distinct by a sort and a neighbour mask:
    np.unique imports numpy.ma."""
    bits = values.view(np.int64).ravel()
    order = np.argsort(bits)
    bits = bits[order]
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    text = np.array(["%.17g" % v for v in bits[first].view(float).tolist()],
                    dtype=object)
    inv = np.empty(bits.size, dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    return text[inv.reshape(values.shape)].tolist()


def peak_rss_mb():
    """Peak resident memory of this process so far, in MiB (getrusage
    reports KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2.0 ** 20 if sys.platform == "darwin" else 1024.0)


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
        "config_hash": sha256(canon.encode()).hexdigest(),
        "versions": {"mbrh": __version__, "numpy": np.__version__},
        "peak_rss_mb": peak_rss_mb(),
        "diagnostics": diagnostics,
    }
    with open(os.path.join(outdir, "meta.json"), "w") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True, default=str))


FIELD_COLUMNS = ("t", "x", "re_E", "im_E")    # what compare reads of a fields.csv


def field_table(t_vals, x_vals, E):
    tt, xx = np.meshgrid(t_vals, x_vals, indexing="ij")
    return ([*FIELD_COLUMNS, "abs_E"], [tt, xx, E.real, E.imag, np.abs(E)])


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def thread_width():
    """1: the stamps are solved one after another in this process.
    `benchmark/child.py` reports this as the pool width."""
    return 1


def _parse_range(spec, path, hi=None, room=MAX_LATTICE):
    """start:stop:count -> np.linspace, with at most room values (the
    lattice points left for this axis); with hi, every value must lie
    in [0, hi]."""
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
        if not (1 <= n <= room and np.isfinite([a, b]).all()):
            raise ValueError("count out of range or non-finite end")
    except ValueError as exc:
        raise SchemaError(f"{path}: expected start:stop:count with finite "
                          f"ends and 1 <= count <= {room} (a (t, x) lattice "
                          f"has at most {MAX_LATTICE:.0e} points), got "
                          f"'{spec}'") from exc
    vals = np.linspace(a, b, n)
    return vals if hi is None else _check_within(vals, spec, path, hi)


def _check_within(vals, spec, path, hi):
    """vals, refused unless every one lies in [0, hi] (a NaN does not)."""
    if not np.all((0.0 <= vals) & (vals <= hi)):
        raise SchemaError(f"{path}: '{spec}' leaves the problem's range "
                          f"[0, {hi:g}]")
    return vals


def _profile_from_args(args, l=1.0, eps=0.5):
    """Profile from --profile/--l/--eps/--sign.  The block records only
    the width the shape reads (l for a Lorentzian, eps otherwise), which
    takes its default when unset; the other width is ignored."""
    key = "l" if args.profile == "lorentzian" else "eps"
    val = getattr(args, key)
    if val is None:
        val = l if key == "l" else eps
    block = {"shape": args.profile, "sign": args.sign, key: val}
    return profile_from_config(block, path="profile"), block


def _lam_grid(cfg, names=None):
    """Detuning grid of a scenario: lam_points nodes on lam_window."""
    (lo, hi), points, _, _ = discretization(cfg, names)
    return np.linspace(lo, hi, points)


def _add_profile_args(p):
    p.add_argument("--profile", default="lorentzian",
                   choices=["lorentzian", "rectangular", "delta_approx"])
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--sign", type=int, default=-1, choices=[-1, 1])


def cmd_eta(args):
    profile, block = _profile_from_args(args)
    lam = _lam_grid({"lam_window": args.window, "lam_points": args.grid},
                    {"lam_window": "--window", "lam_points": "--grid"})
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
                 {"nu_max": curve.nu_max, "bounded": not curve.truncated,
                  "truncated": curve.truncated})
    print(f"curve: {pts.size} points, nu_max={curve.nu_max:.6g}, "
          f"truncated={curve.truncated}")
    return 0


def _check_step(step, scenario):
    """Refuse a Magnus step that is not finite and positive, or that takes
    more than MAX_MAGNUS_STEPS steps on [0, T] or [0, L]; None takes
    each equation's own step."""
    if step is None:
        return
    if not (np.isfinite(step) and step > 0.0) \
            or max(scenario.T, scenario.L) / step > MAX_MAGNUS_STEPS:
        raise SchemaError(
            f"--step: must be finite and positive with at most "
            f"{MAX_MAGNUS_STEPS:.0e} Magnus steps on [0, T] and [0, L], "
            f"got {step}")


def cmd_spectra(args):
    scenario, profile, cfg = load_scenario(args.scenario)
    _check_step(args.step, scenario)
    lam = _lam_grid(cfg)
    table, _ = spectral_data(scenario, profile, eta_boundary(profile, lam),
                             step=args.step)
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
    for flag, val, hi in (("--t", args.t, scenario.T),
                          ("--x", args.x, scenario.L)):
        _check_within(val, val, flag, hi)
    ev = eta_boundary(profile, _lam_grid(cfg))
    _, Kp = spectral_data(scenario, profile, ev, x_out=[args.x])
    J = jump_phased(jump_base(Kp[0])[0], args.t, args.x, ev)
    tables = {"jump.csv": (
        ["lambda", "re_J11", "im_J11", "re_J12", "im_J12",
         "re_J21", "im_J21", "re_J22", "im_J22"],
        [ev.lam, J[:, 0, 0].real, J[:, 0, 0].imag, J[:, 0, 1].real,
         J[:, 0, 1].imag, J[:, 1, 0].real, J[:, 1, 0].imag,
         J[:, 1, 1].real, J[:, 1, 1].imag])}
    emit_results(args.out, tables,
                 {"command": "jump", "scenario": cfg, "t": args.t, "x": args.x},
                 {"det_error": det_err(J)})
    print(f"jump: t={args.t} x={args.x}, det error {det_err(J):.3e}")
    return 0


def cmd_solve_rh(args):
    scenario, profile, cfg = load_scenario(args.scenario)
    t_vals = _parse_range(args.t, "--t", scenario.T)
    x_vals = _parse_range(args.x, "--x", scenario.L,
                          room=MAX_LATTICE // t_vals.size)
    window, _, n_panels, nodes_per_panel = discretization(cfg)
    E, diag = rh_field_grid(scenario, profile, t_vals, x_vals, window=window,
                            n_panels=n_panels, nodes_per_panel=nodes_per_panel,
                            find_poles=not args.no_poles)
    emit_results(args.out, {"fields.csv": field_table(t_vals, x_vals, E)},
                 {"command": "solve-rh", "scenario": cfg,
                  "t": args.t, "x": args.x}, diag)
    print(f"solve-rh: {t_vals.size}x{x_vals.size} stamps, "
          f"max residual {diag['residual_rel']['max']:.3e}, "
          f"|E| peak {np.max(np.abs(E)):.6g}")
    return 0


def cmd_solve_direct(args):
    scenario, profile, cfg = load_scenario(args.scenario)
    dt, nlam = args.dt, discretization(cfg)[1]
    if not (np.isfinite(dt) and dt > 0.0
            and (scenario.T / dt + 1) * (scenario.L / dt + 1) <= MAX_LATTICE
            and (scenario.L / dt + 1) * nlam <= MAX_LATTICE):
        raise SchemaError(f"--dt: must be finite and positive with at most "
                          f"{MAX_LATTICE:.0e} points on [0, T] x [0, L] and "
                          f"on [0, L] x the {nlam} detunings, got {dt}")
    st = integrate_direct(scenario, profile, _lam_grid(cfg), dt=dt)
    emit_results(args.out,
                 {"fields.csv": field_table(st.t_grid, st.x_grid, st.E)},
                 {"command": "solve-direct", "scenario": cfg, "dt": dt},
                 st.diagnostics)
    print(f"solve-direct: dt={dt}, conservation drift "
          f"{st.diagnostics['conservation_error']:.3e}, "
          f"|E| peak {np.max(np.abs(st.E)):.6g}")
    return 0


def cmd_soliton(args):
    if not (np.isfinite(args.nu) and args.nu > 0.0):
        raise SchemaError(f"--nu: must be finite and positive, got {args.nu}")
    t_vals = _parse_range(args.t, "--t")
    x_vals = _parse_range(args.x, "--x", room=MAX_LATTICE // t_vals.size)
    profile, block = _profile_from_args(args, eps=1e-3)
    poles = [(1j * args.nu, 1.0 + 0.0j)]
    E, _ = soliton_closed_form(poles, profile, t_vals[:, None],
                               x_vals[None, :])
    emit_results(args.out, {"fields.csv": field_table(t_vals, x_vals, E)},
                 {"command": "soliton", "nu": args.nu, "profile": block,
                  "t": args.t, "x": args.x},
                 {"poles": [[str(z), str(m)] for z, m in poles]})
    print(f"soliton: nu={args.nu}, |E| peak {np.max(np.abs(E)):.6g}")
    return 0


def _load_field_csv(path):
    """(t, x, E) of a fields.csv; SchemaError names a file that cannot
    be read, lacks a t, x, re_E or im_E column, or has no rows, and the
    column of a value that is not a finite number (read as NaN)."""
    try:
        data = np.genfromtxt(path, delimiter=",", names=True)
    except (OSError, ValueError, IndexError) as exc:   # IndexError: empty file
        raise SchemaError(f"{path}: cannot read a field CSV ({exc})") from exc
    if not set(FIELD_COLUMNS) <= set(data.dtype.names or ()):
        raise SchemaError(f"{path}: not a field CSV (need columns "
                          f"{', '.join(FIELD_COLUMNS)})")
    if data.size == 0:
        raise SchemaError(f"{path}: field CSV has no rows")
    for col in FIELD_COLUMNS:
        if not np.all(np.isfinite(data[col])):
            raise SchemaError(f"{path}: column {col} holds a value that is "
                              "not a finite number")
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
    p.add_argument("--grid", type=int, default=LAM_POINTS)
    p.add_argument("--window", type=float, nargs=2, default=LAM_WINDOW)
    p.add_argument("--out", default="out-eta")
    p.set_defaults(fn=cmd_eta)

    p = sub.add_parser("curve", help="trace the zero-imaginary-part curve")
    _add_profile_args(p)
    p.add_argument("--out", default="out-curve")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("spectra", help="scattering data of a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--step", type=float, default=None,
                   help=f"Magnus step of both equations (default: "
                        f"{T_STEP:g} for t, {X_STEP:g} for x)")
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
