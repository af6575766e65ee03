"""The contour route from a scenario to its field on a (t, x) lattice.

Spectral data (the Jost solves, the scattering table and K_pm = w_pm
S_pm on the x lattice), the zeros of a, the window of panels on which
the jump differs from I, and the stamp loop of jump assembly and
contour solve, block by block of stamps, with the run's certificates.
Both halves of the mirror fold are decided here: whether the Jost
solves take the nodes lam >= 0 alone (`spectral_data`) and whether the
stamps then solve on the nodes s > 0 alone (`_full_axis_reason`).
"""

import time

import numpy as np

from .broadening import LAM_WINDOW, eta_boundary, mirror_check, mirror_unfold
from .jump import det_err, jump_base, jump_phased, shear_matrices
from .rhsolver import (N_PANELS, NODES_PER_PANEL, contour_build, jump_window,
                       median, residue_constants, sie_solve_block)
from .spectral import (a_zeros, data_mirror, equation_steps, jost_phi, jost_w,
                       magnus_steps_taken, sorted_union, step_error,
                       transition_and_reflection)

# Stamps solved together, in lattice order, by one block GMRES
# (`sie_solve_block`): max(STAMP_BLOCK, BLOCK_FLOATS // (k n)), with n = 4m
# the floats of one Krylov row on the m nodes solved and k = 1 + 2p its
# rows per stamp.  Each lockstep step has a fixed cost in Python calls,
# so short rows take more stamps per block, up to the BLOCK_FLOATS of 8
# rows of 768 floats (one Krylov vector of a whole block, 48 KB); rows of
# 768 floats or more get STAMP_BLOCK.  The Krylov arrays grow with the
# steps taken: at MAX_NODES = 2048, a whole-axis row holds at most
# KRYLOV_BUDGET + 1 = 101 vectors of 2N complex numbers (32 N B each,
# 6.6 MB; half on the folded nodes), so a block of 8 pole-free stamps
# holds 53 MB, and 87 MB while the basis grows from 64 to 100 steps; a
# pole adds 2 rows per stamp.  That is a third of one complex 2N x 2N
# matrix of the dense fallback (64 N^2 B = 256 MiB).
STAMP_BLOCK = 8
BLOCK_FLOATS = 6144


def spectral_data(scenario, profile, ev, x_out=(0.0,), step=None,
                  stages=None):
    """Scattering table and mixed-problem terminal data K_pm on x_out.

    ev is the `EtaValues` of the real nodes lam (`eta_boundary`), which a
    run evaluates once.  One t-equation solve (Phi at x = 0) and one
    stacked x-equation sweep for both banks (w_pm on x_out and x = 0).
    The table comes from w_pm(0), the shears S_pm from its reflection
    coefficients, and K_pm = w_pm S_pm: the x-equation is linear in its
    terminal data, so this is the solution with terminal value
    e^{i L eta_pm sigma_3} S_pm.  Returns (table, K+, K-) with K of shape
    (len(x_out), len(lam), 2, 2).  step is the Magnus step of both
    equations, each its own (`equation_steps`) when None; the table's
    diagnostics hold their `step_error` as step_err.  A `stages` dict
    receives the wall time of the two solves as jost_phi_s and jost_w_s,
    and that of the table with its step-error estimate as step_err_s.
    The scenario is validated here, once per run, on the nodes lam, not
    by the solves.

    When the data mirror under lam -> -lam (`data_mirror`), both solves
    and the step-error estimate take the nodes lam >= 0 alone, and Phi(0)
    and w_pm are unfolded onto all of lam by X(-lam) = conj X(lam) before
    the table is formed.  The table's diagnostics report the mismatch
    (mirror_err), the nodes solved (nodes_solved) and, on a run that took
    every node, why (full_axis; None on a folded run).
    """
    lam = ev.lam
    scenario.validate(lam)
    x_out = np.asarray(x_out, dtype=float)
    xs = sorted_union(x_out, [0.0])
    at, at0 = np.searchsorted(xs, x_out), np.searchsorted(xs, 0.0)
    t_step, x_step = equation_steps(step)
    mirror_err, why = data_mirror(scenario, ev, xs, t_step, x_step)
    n = lam.size
    h = n // 2 if why is None else 0        # the nodes h.. are solved
    marks = [time.perf_counter()]
    with np.errstate(over="ignore", invalid="ignore"):  # refused as not finite
        Phi0 = jost_phi(scenario, lam[h:], step=t_step)
        marks.append(time.perf_counter())
        wp, wm = jost_w(scenario, profile, ev, x_out=xs, step=x_step,
                        cols=slice(h, None))
        marks.append(time.perf_counter())
        if h:
            Phi0 = mirror_unfold(Phi0, n)
            wp, wm = mirror_unfold(wp, n, axis=1), mirror_unfold(wm, n, axis=1)
        table = transition_and_reflection(lam, Phi0, wp[at0], wm[at0])
    table.diagnostics.update(
        step_err=step_error(scenario, profile, ev, Phi0, (wp[at0], wm[at0]),
                            t_step, x_step, first=h),
        mirror_err=mirror_err, nodes_solved=n - h, full_axis=why)
    marks.append(time.perf_counter())
    if stages is not None:
        stages.update(zip(("jost_phi_s", "jost_w_s", "step_err_s"),
                          np.diff(marks).tolist()))
    Sp, Sm = shear_matrices(table.r_plus, table.r_bar_minus)
    return table, wp[at] @ Sp, wm[at] @ Sm


def _full_axis_reason(table, contour, poles):
    """Why the stamps solve on the whole kept window, or None when they
    may take its nodes s > 0 alone: the spectral data were solved folded
    (`spectral_data`), no pole adds residue conditions, and the window's
    nodes and weights mirror about 0 (`mirror_check`) with no node at 0."""
    if table.diagnostics["full_axis"] is not None:
        return table.diagnostics["full_axis"]
    if poles:
        return "poles: their residue conditions take the full axis"
    z, w = contour.nodes, contour.weights
    _, why = mirror_check([(z, -1.0, np.max(np.abs(z))),
                           (w, 1.0, np.sum(np.abs(w)))])
    if why is not None:
        return f"window {contour.edges[0]:g}..{contour.edges[-1]:g}: {why}"
    if contour.n_nodes % 2:
        return "a contour node at lambda = 0"
    return None


def rh_field_grid(scenario, profile, t_vals, x_vals, window=LAM_WINDOW,
                  n_panels=N_PANELS, nodes_per_panel=NODES_PER_PANEL,
                  find_poles=True):
    """Mixed-problem contour pipeline: contour -> spectral data and K_pm on
    the x lattice -> zeros of a, counted and fitted on the axis and
    refined by Newton (`a_zeros`) -> the window of panels on which J
    differs from I (`jump_window`) -> jump assembly and contour solve on
    that window, block by block of stamps.

    window, n_panels and nodes_per_panel give the configured contour,
    which the spectral data and the zeros of a use; the stamps solve on
    its panels that `jump_window` keeps.  On mirror-symmetric data the
    Jost solves take the nodes lam >= 0 (`spectral_data`), and each stamp
    assembles and solves its jump on the kept nodes s > 0 alone, unless
    `_full_axis_reason` gives a reason not to.  The zeros of a are
    counted on every run; an amplifier with zeros is refused
    (`a_zeros`).

    The stamps solve in blocks of consecutive stamps in lattice order
    (t-major), STAMP_BLOCK of them or more on short Krylov rows (see
    BLOCK_FLOATS).  J0 = K+^-1 K- is formed once per x
    column (`jump_base`; it does not depend on t), each block's jumps by
    one `jump_phased`, and each block by one `sie_solve_block`, whose
    lockstep GMRES keeps every stamp's certificates its own.  The loop
    keeps each stamp's E and the diagnostics reported below, and drops
    its density.  A refusal names the earliest refusing stamp of its
    block, and no later block starts.

    Returns (E grid (Nt, Nx), diagnostics dict); its `stages` holds the
    wall time of the spectral data (`spectral_s`, of which the t- and
    x-equation Jost solves took `jost_phi_s` and `jost_w_s`, and the
    scattering table with its step-error estimate `step_err_s`), of the
    zero search with the window and its Cauchy kernel build
    (`pole_search_s`) and of the stamp loop (`stamp_loop_s`), and the
    times of the blocks' `jump_phased` and `sie_solve_block` calls
    summed over blocks (`jump_s`, `sie_s`).  `n_stamps` counts the
    stamps and `stamp_blocks` {`count`, `largest`, `steps`, `row_steps`}
    their blocks, the lockstep Arnoldi steps summed over blocks (one
    kernel product each) and the rows' own steps summed.
    `n_nodes` counts the nodes of the kept window,
    `full_axis` says why the stamps solved all of them (None: the half
    s > 0), and `window` is `jump_window`'s report.  `boundary_err` and
    `initial_err` compare the field on the lattice's x = 0 column with
    E_in and on its t = 0 row with E0.  `spectral` holds the scattering
    table's det, reduction and step errors and its mirror report
    (`mirror_err`, `nodes_solved`, `full_axis`), `pole_count` the count, fit
    residual, Newton steps and clearance of the zeros of a (`a_zeros`;
    None on a --no-poles run), `K_det_err` {`plus`, `minus`} the largest
    |det K+- - 1| on the x lattice (refused above `DET_TOL` by
    `jump_base`), `J0_det_err` the largest det(J0) error on the stamps'
    nodes, and `residue_cond` the SVD condition of the
    stamps' residue systems (None without poles).
    """
    t_vals = np.asarray(t_vals, dtype=float)
    x_vals = np.asarray(x_vals, dtype=float)

    steps0, marks = magnus_steps_taken(), [time.perf_counter()]
    contour = contour_build(window=window, n_panels=n_panels,
                            nodes_per_panel=nodes_per_panel)
    ev = eta_boundary(profile, contour.nodes)
    stages = {}
    table, Kp, Km = spectral_data(scenario, profile, ev, x_out=x_vals,
                                  stages=stages)
    marks.append(time.perf_counter())
    poles, pole_count = [], None
    if find_poles:              # on the configured contour
        poles, pole_count = a_zeros(scenario, profile, ev, contour,
                                    table.a_plus)
    # J0 = K+^-1 K- does not depend on t, and |J - I| is the same at every
    # t: one jump per x column sizes the window of the whole lattice, and
    # the stamps solve on that window
    J0, k_det_err = jump_base(Kp, Km)
    contour, keep, window_report = jump_window(
        contour, jump_phased(J0, t_vals.max(), x_vals, ev))
    ev, J0 = ev.take(keep), J0[:, keep]
    full_axis = _full_axis_reason(table, contour, poles)
    if full_axis is None:       # J(-s) = conj J(s): the stamps take s > 0
        half = slice(contour.n_nodes // 2, None)
        ev, J0 = ev.take(half), J0[:, half]
        contour.kernel_fold()   # built once for every stamp
    else:
        contour.kernel()        # built once for every stamp
    marks.append(time.perf_counter())

    if poles:                   # (z_j, c_j) of every stamp, overflow refused
        zj, cj = residue_constants(poles, profile, t_vals[:, None],
                                   x_vals[None, :])
    n_stamps = t_vals.size * x_vals.size
    it, ix = np.divmod(np.arange(n_stamps), x_vals.size)
    size = max(STAMP_BLOCK,
               BLOCK_FLOATS // ((1 + 2 * len(poles)) * 4 * J0.shape[1]))
    starts = range(0, n_stamps, size)
    E = np.empty(n_stamps, dtype=complex)
    col = {key: np.empty(n_stamps) for key in (
        "residual_rel", "cond", "iterations", "posdef_min", "lu",
        *(("residue_cond",) if poles else ()))}
    counts, jump_s, sie_s = {"steps": 0, "row_steps": 0}, 0.0, 0.0
    for start in starts:
        b = slice(start, start + size)
        tic = time.perf_counter()
        J = jump_phased(J0[ix[b]], t_vals[it[b]], x_vals[ix[b]], ev)
        mid = time.perf_counter()
        block = sie_solve_block(contour, J, (zj, cj[it[b], ix[b]])
                                if poles else None, counts)
        jump_s += mid - tic
        sie_s += time.perf_counter() - mid
        for i, res in enumerate(block, start):
            E[i] = res.E
            for key, vals in col.items():
                vals[i] = res.diagnostics[key]
    marks.append(time.perf_counter())
    stages.update(zip(("spectral_s", "pole_search_s", "stamp_loop_s"),
                      np.diff(marks).tolist()))
    stages["jump_s"], stages["sie_s"] = jump_s, sie_s
    E = E.reshape(t_vals.size, x_vals.size)
    diag = {"n_poles": len(poles), "pole_count": pole_count,
            "n_nodes": contour.n_nodes, "full_axis": full_axis,
            "window": window_report,
            "n_stamps": n_stamps,
            "stamp_blocks": {"count": len(starts),
                             "largest": min(size, n_stamps), **counts},
            "lu_stamps": int(np.count_nonzero(col["lu"])),
            "stages": stages, "magnus_steps": magnus_steps_taken() - steps0,
            "spectral": dict(table.diagnostics),
            "K_det_err": k_det_err, "J0_det_err": det_err(J0)}
    for key, name in (("residual_rel", "residual_rel"), ("cond", "cond"),
                      ("iterations", "krylov_iters"),
                      ("residue_cond", "residue_cond")):
        vals = col.get(key)     # residue_cond: none without poles
        diag[name] = None if vals is None else {
            "p50": median(vals), "max": float(vals.max())}
    diag["posdef_min"] = {"p50": median(col["posdef_min"]),
                          "min": float(col["posdef_min"].min())}
    diag["boundary_err"] = _line_err(E[:, x_vals == 0.0], t_vals,
                                     scenario.E_in, "t")
    diag["initial_err"] = _line_err(E[t_vals == 0.0].T, x_vals,
                                    scenario.E0, "x")
    return E, diag


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
