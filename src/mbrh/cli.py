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
import pickle
import signal
import sys
import threading
import time

# The stamp loop runs in forked processes (parallel_map), each with one
# BLAS thread.  BLAS reads these once, when numpy first loads it; a
# variable the environment already sets is left as it is.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_ONE_THREAD = "numpy" not in sys.modules  # else BLAS read them already
if _BLAS_ONE_THREAD:
    for _var in _BLAS_VARS:
        os.environ.setdefault(_var, "1")
    _BLAS_ONE_THREAD = all(os.environ[v] == "1" for v in _BLAS_VARS)

import numpy as np  # noqa: E402  (after the BLAS thread variables)
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
from .spectral import (DEFAULT_STEP, ScenarioData, locate_a_zeros,
                       magnus_steps_taken)

POLE_RADIUS = 0.15              # regularizing circle radius, capped at 0.45 Im z
POLE_STEP = 0.02                # Magnus step of the pole search
POLE_WINDOW = (-5.0, 5.0, 0.05, 3.0)    # (re lo, re hi, im lo, im hi) searched


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
    for key, grid in (("x", xg), ("lam", lg)):
        if grid.ndim != 1 or not np.all(np.diff(grid) > 0):
            raise SchemaError(f"{path}.{key}: must be a strictly increasing list")
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
        """Bilinear in the table: the two x rows that bracket x, then
        along lam; x and lam outside the table clamp to its edge rows and
        columns, as np.interp does.  An array x gives one row per depth,
        each equal to the call at that depth."""
        xs = np.ravel(np.asarray(x, dtype=float))
        j = np.clip(np.searchsorted(xg, xs, side="right") - 1, 0, xg.size - 2)
        rows = tab[np.where(xs >= xg[-1], -1, j)]      # clamped or on a row
        mid = (xs > xg[0]) & (xs < xg[-1]) & (xs != xg[j])
        j = j[mid]
        # np.interp's operation order, so each row matches it bitwise
        slope = (tab[j + 1] - tab[j]) * (1.0 / (xg[j + 1] - xg[j]))[:, None]
        rows[mid] = slope * (xs[mid] - xg[j])[:, None] + tab[j]
        out = np.array([np.interp(lam, lg, row) for row in rows])
        return out if np.ndim(x) else out[0]

    return rho0


def _finite_float(text):
    """JSON number (or NaN/Infinity constant) -> float, refusing non-finite."""
    val = float(text)
    if not np.isfinite(val):
        raise SchemaError(f"non-finite number {text} in the scenario file")
    return val


def _float_range_int(text):
    """JSON integer -> int, refusing one that no float can hold."""
    try:
        val = int(text)
        float(val)
    except (OverflowError, ValueError) as exc:   # ValueError: digit limit
        raise SchemaError(f"integer {text[:12]}... ({len(text)} digits) "
                          "beyond float range in the scenario file") from exc
    return val


def load_scenario(path):
    """Scenario JSON -> (ScenarioData, profile, resolved config dict)."""
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite_float,
                            parse_int=_float_range_int,
                            parse_constant=_finite_float)
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

def write_csv(path, header, columns):
    """Every value as format(float(v), ".17g"): one %-template per row
    on columns converted to Python floats once."""
    cols = [np.asarray(c, dtype=float).ravel().tolist() for c in columns]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % vals for vals in zip(*cols))


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
    """Processes that solve stamps at once: one per CPU this process may
    run on.  It is 1 where a fork cannot pay or is unsafe: without
    `os.fork` or `os.sched_getaffinity`, with other threads running, or
    when BLAS may run more than one thread (numpy loaded before this
    module, or a variable of _BLAS_VARS set to other than 1).  Workers
    with two BLAS threads each measured 2-10x slower than the serial
    loop on two cores.  `benchmark/child.py` reports this as the pool
    width."""
    if not (_BLAS_ONE_THREAD and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _run_chunk(fn, chunk):
    """(results, exception): fn over chunk in order, up to the first
    item that raises; exception is None when none did."""
    out = []
    for it in chunk:
        try:
            out.append(fn(it))
        except Exception as exc:
            return out, exc
    return out, None


def _worker(fn, chunk, fd):
    """Body of a forked worker: send _run_chunk's pair, pickled, down
    the pipe fd and leave without running the parent's exit handlers."""
    code = 1
    try:
        out, exc = _run_chunk(fn, chunk)
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:           # an exception that does not round-trip
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        with os.fdopen(fd, "wb") as fh:
            pickle.dump((out, exc), fh)
        code = 0
    finally:
        os._exit(code)


def parallel_map(fn, items):
    """[fn(it) for it in items], split across thread_width() processes.

    The parent forks the workers, so whatever fn reads that was built
    before the call is shared copy-on-write.  Process w of the width
    solves items[w::width] in order (w = 0 is the parent) and stops at
    its first exception; each worker sends back its results pickled
    through a pipe.  As in the serial loop, the exception of the lowest
    failing item is raised.  A worker that dies raises RuntimeError, and
    every worker is reaped before this returns or raises.
    """
    items = list(items)
    width = min(thread_width(), len(items))
    if width <= 1:
        return [fn(it) for it in items]
    procs, blobs = [], []
    try:
        for w in range(1, width):
            r, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wfd)
                raise
            if pid == 0:
                _worker(fn, items[w::width], wfd)
            os.close(wfd)
            procs.append((pid, os.fdopen(r, "rb")))
        chunks = [_run_chunk(fn, items[0::width])]
        blobs = [fh.read() for _, fh in procs]
    finally:
        statuses = []
        for i, (pid, fh) in enumerate(procs):
            fh.close()
            if i >= len(blobs):         # still at work: this call is leaving
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for w, (blob, code) in enumerate(zip(blobs, statuses), start=1):
        if code != 0:
            how = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise RuntimeError(f"stamp worker {w} of {width} died ({how})")
        chunks.append(pickle.loads(blob))
    failures = [(len(out) * width + w, exc)
                for w, (out, exc) in enumerate(chunks) if exc is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    out = [None] * len(items)
    for w, (chunk, _) in enumerate(chunks):
        out[w::width] = chunk
    return out


# ----------------------------------------------------------------------
# pipelines
# ----------------------------------------------------------------------

def _median(vals):
    """np.median of a 1-d array, NaN included, without its numpy.ma import."""
    v = np.sort(vals)              # a NaN sorts last
    mid = 0.5 * (v[(v.size - 1) // 2] + v[v.size // 2])
    return float(v[-1] if np.isnan(v[-1]) else mid)


def _line_err(E_line, coords, data, key):
    """{"value", key}: max |E - data| along a lattice line (E_line of
    shape (n, 1)) relative to sup |data| on it, absolute where the data
    vanish, and where it occurs; None when the lattice lacks the line."""
    if E_line.shape[1] == 0:
        return None
    want = np.asarray(data(coords), dtype=complex)
    err = np.abs(E_line[:, 0] - want)
    i, sup = int(np.argmax(err)), float(np.max(np.abs(want)))
    return {"value": float(err[i] / (sup or 1.0)), key: float(coords[i])}


def rh_field_grid(scenario, profile, t_vals, x_vals, window=LAM_WINDOW,
                  n_panels=24, nodes_per_panel=16, find_poles=True):
    """Mixed-problem contour pipeline: pole search -> contour -> spectral
    data and K_pm on the x lattice -> per-stamp jump assembly and contour
    solve.

    Returns (E grid (Nt, Nx), diagnostics dict); its `stages` holds the
    wall time of the pole search, the spectral data and the stamp loop,
    and the per-stamp `jump_mixed` and `sie_solve` times summed over
    stamps, whichever process solved them (`workers` counts those
    processes; see parallel_map).  `boundary_err` and `initial_err`
    compare the field on the lattice's x = 0 column with E_in and on its
    t = 0 row with E0.
    """
    t_vals = np.asarray(t_vals, dtype=float)
    x_vals = np.asarray(x_vals, dtype=float)
    scenario.validate()         # refuse bad data before the pole search

    steps0, marks = magnus_steps_taken(), [time.perf_counter()]
    poles = []
    if find_poles and profile.sign < 0:
        poles = locate_a_zeros(scenario, profile, window=POLE_WINDOW,
                               step=POLE_STEP)
    circles = []
    for (zj, _) in poles:
        r = min(POLE_RADIUS, 0.45 * zj.imag)
        circles += [(zj, r), (np.conj(zj), r)]
    marks.append(time.perf_counter())
    contour = contour_build(window=window, n_panels=n_panels,
                            nodes_per_panel=nodes_per_panel, circles=circles)
    # the real-axis panels come first in the node list
    n_real = n_panels * nodes_per_panel
    lam = contour.nodes[:n_real].real
    ev = eta_boundary(profile, lam)
    _, Kp, Km = spectral_data(scenario, profile, ev, x_out=x_vals)
    marks.append(time.perf_counter())

    contour.kernel()            # built once, before the stamp loop forks

    def solve_stamp(args):
        it, ix = args
        t, x = t_vals[it], x_vals[ix]
        tic = time.perf_counter()
        jd_real = jump_mixed(t, x, ev, Kp[ix], Km[ix])
        jump_s = time.perf_counter() - tic
        if poles:
            jd_circ = soliton_circle_jump(poles, profile, t, x, contour)
            J = jd_circ.J.copy()
            J[:n_real] = jd_real.J
            jd = JumpData(problem_class="mixed", t=t, x=x,
                          nodes=contour.nodes, J=J)
        else:
            jd = jd_real
        tic = time.perf_counter()
        res = sie_solve(contour, jd)
        return (res.E, res.diagnostics, (jump_s, time.perf_counter() - tic),
                os.getpid())

    stamps = [(it, ix) for it in range(t_vals.size)
              for ix in range(x_vals.size)]
    E, diags, times, pids = zip(*parallel_map(solve_stamp, stamps))
    marks.append(time.perf_counter())
    stages = dict(zip(("pole_search_s", "spectral_s", "stamp_loop_s"),
                      np.diff(marks).tolist()))
    stages["jump_s"], stages["sie_s"] = np.sum(times, axis=0).tolist()
    E = np.array(E).reshape(t_vals.size, x_vals.size)
    col = {key: np.array([d[key] for d in diags])
           for key in ("residual_rel", "cond", "iterations", "posdef_min")}
    diag = {"n_poles": len(poles), "n_nodes": contour.n_nodes,
            "n_stamps": len(stamps), "workers": len(set(pids)),
            "lu_stamps": int(np.count_nonzero(col["iterations"] == 0)),
            "stages": stages, "magnus_steps": magnus_steps_taken() - steps0}
    for key, name in (("residual_rel", "residual_rel"), ("cond", "cond"),
                      ("iterations", "krylov_iters")):
        vals = col[key]
        diag[name] = {"p50": _median(vals), "max": float(vals.max())}
    diag["posdef_min"] = {"p50": _median(col["posdef_min"]),
                          "min": float(col["posdef_min"].min())}
    diag["max_residual_rel"] = diag["residual_rel"]["max"]
    diag["max_cond"] = diag["cond"]["max"]
    diag["boundary_err"] = _line_err(E[:, x_vals == 0.0], t_vals,
                                     scenario.E_in, "t")
    diag["initial_err"] = _line_err(E[t_vals == 0.0].T, x_vals,
                                    scenario.E0, "x")
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
    """Profile from --profile/--l/--eps/--sign.  The block records only
    the width the shape reads (l for a Lorentzian, eps otherwise), which
    takes its default when unset; the other width is ignored."""
    key = "l" if args.profile == "lorentzian" else "eps"
    val = getattr(args, key)
    if val is None:
        val = l if key == "l" else eps
    block = {"shape": args.profile, "sign": args.sign, key: val}
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
    table, _, _ = spectral_data(scenario, profile, eta_boundary(profile, lam),
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
    ev = eta_boundary(profile, _lam_grid(cfg))
    _, Kp, Km = spectral_data(scenario, profile, ev, x_out=[args.x])
    jd = jump_mixed(args.t, args.x, ev, Kp[0], Km[0])
    J = jd.J
    tables = {"jump.csv": (
        ["lambda", "re_J11", "im_J11", "re_J12", "im_J12",
         "re_J21", "im_J21", "re_J22", "im_J22"],
        [ev.lam, J[:, 0, 0].real, J[:, 0, 0].imag, J[:, 0, 1].real,
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
