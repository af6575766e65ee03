"""Correctness check of one run: its field against the other route's.

Both routes write `fields.csv` (columns t, x, re_E, im_E, abs_E).  The
check takes the contour route's stamp lattice, picks the direct route's
field at those stamps, and requires the relative L2 distance
||E_rh - E_direct|| / ||E_direct|| (criterion 11's figure) to stay below
FIELD_TOL.  Criterion 11 allows 5e-2; the benchmark's limit is ten times
tighter, so a field off by 1 % fails, while the two routes measure
4e-4 to 8e-4 apart on the benchmark lattices.
"""

import numpy as np

FIELD_TOL = 5e-3


class CheckFailed(Exception):
    pass


def load_field(path):
    """fields.csv -> (t, x, E) as flat arrays."""
    try:
        data = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc}") from exc
    if data.dtype.names is None or not {"t", "x", "re_E", "im_E"} <= set(data.dtype.names):
        raise CheckFailed(f"{path}: not a field CSV")
    data = np.atleast_1d(data)
    return data["t"], data["x"], data["re_E"] + 1j * data["im_E"]


def on_stamps(field, t_vals, x_vals):
    """Values of field (t, x, E) at every (t, x) of the stamp lattice."""
    t, x, E = field
    index = {(round(a, 9), round(b, 9)): e for a, b, e in zip(t, x, E)}
    try:
        return np.array([[index[(round(a, 9), round(b, 9))] for b in x_vals]
                         for a in t_vals])
    except KeyError as exc:
        raise CheckFailed(f"stamp {exc.args[0]} missing from the field") from exc


def field_err_rel(E_rh, E_direct):
    """Relative L2 distance of the contour field from the direct one."""
    return float(np.linalg.norm(E_rh - E_direct) / np.linalg.norm(E_direct))


def check_pair(rh_field, direct_field, t_vals, x_vals, tol=FIELD_TOL):
    """Both routes on the stamp lattice -> field_err_rel, or CheckFailed."""
    E_rh = on_stamps(rh_field, t_vals, x_vals)
    E_d = on_stamps(direct_field, t_vals, x_vals)
    if not (np.all(np.isfinite(E_rh)) and np.all(np.isfinite(E_d))):
        raise CheckFailed("non-finite field values")
    err = field_err_rel(E_rh, E_d)
    if not err <= tol:
        raise CheckFailed(f"field_err_rel {err:.3e} above {tol:.0e}")
    return err
