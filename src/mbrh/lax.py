"""Medium term of the Maxwell-Bloch Lax pair.

The time equation is generated by U = -i z sigma_3 - H(E) and the
x-equation by V = i z sigma_3 - i G + H(E), with the field coupling
H(E) = [[0, E/2], [-E*/2, 0]] (`spectral` builds both in component
form).  G is the Cauchy transform of the medium matrix F against the
weight n, built per propagation by `medium_transform`.  On the real axis
G has the limits G+- from the two half-planes, and G- = G+^dagger (F is
Hermitian, n real), so V- = -V+^dagger: only G+ is built there.
"""

from dataclasses import dataclass

import numpy as np

from .broadening import (EtaValues, cauchy_weights, eta_eval, pv_apply,
                         pv_weights)
from .errors import GridCoverage

COVERAGE_THRESHOLD = 0.999


@dataclass(frozen=True)
class MediumSlice:
    """Medium state (inversion N, polarization rho) on a detuning grid at
    fixed t, x; F = [[N, rho], [rho*, -N]] is its Hermitian medium matrix."""

    N: np.ndarray
    rho: np.ndarray


def medium_from_rho(rho):
    """Slice with the inversion fixed by the positive square-root branch
    (rho of shape (Ngrid,), or (m, Ngrid) for m stacked slices)."""
    rho = np.asarray(rho, dtype=complex)
    mag2 = np.abs(rho) ** 2
    if np.any(mag2 > 1.0 + 1e-12):
        raise ValueError("|rho| > 1 has no admissible inversion")
    return MediumSlice(rho=rho, N=np.sqrt(np.maximum(1.0 - mag2, 0.0)))


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


def medium_transform(profile, grid, targets):
    """The medium term G of the x-equation at the targets, as a function
    of the medium slice on grid.

    G = (1/4) integral F(s) n(s) / (s - z) ds at complex points z off the
    axis (targets), or, when targets is the `EtaValues` of real points
    lam, its limit G+ at lam + i0, the p.v. integral plus the local
    (pi i / 4) F(lam) n(lam) term (the limit lam - i0 is G+^dagger, the
    p.v. part being Hermitian).  The constant part of F (sigma_3 at infinity) is
    transformed exactly through eta, so tail truncation only touches the
    deviation F - sigma_3.  What depends on (grid, targets) alone -- the
    coverage check, n on the grid, eta, the local weight and the weight
    matrix W -- is computed here once.  The returned function maps a
    slice to the entries (g11, g12, g21) of G = [[g11, g12], [g21, -g11]],
    each (Nz,), or (m, Nz) for m stacked slices.  rho* n is the conjugate of rho n, so F n enters through two
    channels, (N - 1) n and rho n, all slices at once: in the p.v. form
    `pv_apply` multiplies the real (N - 1) n, and the real and imaginary
    parts of rho n, by the real W, and in the off-axis form the real rows
    (N - 1) n, Re(rho n) and Im(rho n) are multiplied by [Re W | Im W].
    The local term takes the slice at lam itself when lam is the grid,
    and its linear interpolant there otherwise.
    """
    check_coverage(profile, grid)
    grid = np.asarray(grid, dtype=float)
    nvals = profile.n(grid)

    if not isinstance(targets, EtaValues):
        z = np.atleast_1d(np.asarray(targets, dtype=complex))
        W = 0.25 * cauchy_weights(grid, z)
        W = np.concatenate([W.real, W.imag], axis=1)
        base = z - eta_eval(profile, z)              # scalar sigma_3 part

        def G(slice_):
            rho_n = slice_.rho * nvals
            f = np.stack([(slice_.N - 1.0) * nvals, rho_n.real, rho_n.imag])
            p = (f.reshape(-1, grid.size) @ W).reshape(f.shape[:-1] + (2, z.size))
            re, im = p[..., 0, :], p[..., 1, :]      # products with Re W, Im W
            return (re[0] + base + 1j * im[0], re[1] - im[2] + 1j * (im[1] + re[2]),
                    re[1] + im[2] + 1j * (im[1] - re[2]))

        return G

    lam = targets.lam
    W = 0.25 * pv_weights(grid, lam)
    local = 0.25j * np.pi * targets.n
    if np.array_equal(lam, grid):
        at = lambda f: f                     # the slice data are on lam
    else:
        # slice data at lam, row by row: linear with clamped ends as
        # np.interp, and exact where lam is a grid node
        j = np.clip(np.searchsorted(grid, lam, side="right") - 1, 0, grid.size - 2)
        t = np.clip((lam - grid[j]) / (grid[j + 1] - grid[j]), 0.0, 1.0)
        at = lambda f: f[..., j] * (1.0 - t) + f[..., j + 1] * t

    def G(slice_):
        pv11 = pv_apply(grid, (slice_.N - 1.0) * nvals, lam, W)
        pv12 = pv_apply(grid, slice_.rho * nvals, lam, W)
        rho = at(slice_.rho)
        # the p.v. part plus the local term
        return (pv11 + local * (at(slice_.N) - 1.0) + targets.g_plus,
                pv12 + local * rho, np.conj(pv12) + local * np.conj(rho))

    return G
