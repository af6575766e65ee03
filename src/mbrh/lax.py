"""Medium term of the Maxwell-Bloch Lax pair.

The time equation is generated by U = -i z sigma_3 - H(E) and the two
half-plane x-equations by V = i z sigma_3 - i G + H(E), with the field
coupling H(E) = [[0, E/2], [-E*/2, 0]] (`spectral` builds both in
component form).  G is the Cauchy transform of the medium matrix F
against the weight n, built per propagation by `medium_transform`.
"""

from dataclasses import dataclass

import numpy as np

from .broadening import cauchy_weights, eta_eval, pv_apply, pv_weights
from .errors import GridCoverage

COVERAGE_THRESHOLD = 0.999


@dataclass(frozen=True)
class MediumSlice:
    """Medium state (inversion N, polarization rho) on a detuning grid at
    fixed t, x; F = [[N, rho], [rho*, -N]] is its Hermitian medium matrix."""

    lam_grid: np.ndarray
    N: np.ndarray
    rho: np.ndarray


def medium_from_rho(lam_grid, rho):
    """Slice with the inversion fixed by the positive square-root branch
    (rho of shape (Ngrid,), or (m, Ngrid) for m stacked slices)."""
    rho = np.asarray(rho, dtype=complex)
    mag2 = np.abs(rho) ** 2
    if np.any(mag2 > 1.0 + 1e-12):
        raise ValueError("|rho| > 1 has no admissible inversion")
    return MediumSlice(lam_grid=np.asarray(lam_grid, float), rho=rho,
                       N=np.sqrt(np.maximum(1.0 - mag2, 0.0)))


def check_coverage(profile, grid):
    """Require the grid to capture COVERAGE_THRESHOLD of the weight's mass.

    Closed-form shapes carry their tails analytically in every quadrature
    here (the constant part of F is transformed in closed form), so only
    tabulated profiles can genuinely lose mass.
    """
    if profile.closed_form:
        return
    total = abs(profile.mass_between(profile.grid[0], profile.grid[-1]))
    covered = abs(profile.mass_between(grid[0], grid[-1])) / total
    if covered < COVERAGE_THRESHOLD:
        raise GridCoverage(f"grid captures {covered:.4f} of the weight mass "
                           f"< {COVERAGE_THRESHOLD}")


def medium_transform(profile, grid, targets, boundary=None):
    """The medium term G of the x-equation at the targets, as a function
    of the medium slice on grid.

    G = (1/4) integral F(s) n(s) / (s - z) ds at complex points z off the
    axis (targets, boundary None), or its lam +- i0 limit (boundary "+"
    or "-"; targets is then the `EtaValues` of the real points lam),
    which adds the local +-(pi i / 4) F(lam) n(lam) term.  The constant
    part of F (sigma_3 at infinity) is transformed exactly through eta,
    so tail truncation only touches the deviation F - sigma_3.  What
    depends on (grid, targets) alone -- the coverage check, n on the
    grid, eta, the local weight and the weight matrix W -- is computed
    here once; the returned function maps a slice to the entries
    (g11, g12, g21) of G = [[g11, g12], [g21, -g11]], each (Nz,), or
    (m, Nz) for m stacked slices, by one product with W.
    """
    check_coverage(profile, grid)
    grid = np.asarray(grid, dtype=float)
    nvals = profile.n(grid)

    def channels(slice_, product):
        """product of the three channels of every slice, stacked as rows
        of one (3 m, Ngrid) matrix; returned as (3, m, Nz)."""
        ch = np.stack([(slice_.N - 1.0) * nvals, slice_.rho * nvals,
                       np.conj(slice_.rho) * nvals])
        return product(ch.reshape(-1, grid.size)).reshape(ch.shape[:-1] + (-1,))

    if boundary is None:
        z = np.atleast_1d(np.asarray(targets, dtype=complex))
        W = 0.25 * cauchy_weights(grid, z)
        base = z - eta_eval(profile, z)              # scalar sigma_3 part

        def G(slice_):
            c = channels(slice_, lambda f: f @ W)
            return c[0] + base, c[1], c[2]

        return G

    ev = targets
    lam = ev.lam
    W = 0.25 * pv_weights(grid, lam)
    base = ev.g_plus if boundary == "+" else ev.g_minus
    local = (1.0 if boundary == "+" else -1.0) * 0.25j * np.pi * ev.n
    # slice data at lam, row by row: linear with clamped ends as np.interp,
    # and exact where lam is a grid node
    j = np.clip(np.searchsorted(grid, lam, side="right") - 1, 0, grid.size - 2)
    t = np.clip((lam - grid[j]) / (grid[j + 1] - grid[j]), 0.0, 1.0)
    interp = lambda f: f[..., j] * (1.0 - t) + f[..., j + 1] * t

    def G(slice_):
        pv = channels(slice_, lambda f: pv_apply(grid, f, lam, W))
        loc11 = interp(slice_.N) - 1.0
        loc12 = interp(slice_.rho)
        return (pv[0] + local * loc11 + base, pv[1] + local * loc12,
                pv[2] + local * np.conj(loc12))

    return G
