"""Zero-curvature (AKNS) generators of the Maxwell-Bloch Lax pair.

U(z, E) generates the time equation and V(z, E, G) the two half-plane
x-equations; G is the Cauchy transform of the medium matrix F against
the weight n, built per propagation by `medium_transform`.  Also
finite-difference residual checks of the evolution equations themselves.
"""

from dataclasses import dataclass

import numpy as np

from .broadening import (average_weights, cauchy_weights, eta_boundary,
                         eta_eval, pv_apply, pv_weights)
from .errors import GridCoverage, StencilTooCoarse
from .mat2 import SIGMA3

COVERAGE_THRESHOLD = 0.999


@dataclass(frozen=True)
class MediumSlice:
    """Medium state (inversion N, polarization rho) on a detuning grid at
    fixed t, x; F = [[N, rho], [rho*, -N]] is its Hermitian medium matrix."""

    lam_grid: np.ndarray
    N: np.ndarray
    rho: np.ndarray


def medium_from_rho(lam_grid, rho):
    """Slice with the inversion fixed by the positive square-root branch."""
    rho = np.asarray(rho, dtype=complex)
    mag2 = np.abs(rho) ** 2
    if np.any(mag2 > 1.0 + 1e-12):
        raise ValueError("|rho| > 1 has no admissible inversion")
    return MediumSlice(lam_grid=np.asarray(lam_grid, float), rho=rho,
                       N=np.sqrt(np.maximum(1.0 - mag2, 0.0)))


def coupling_matrix(E):
    """Off-diagonal field coupling H = [[0, E/2], [-E*/2, 0]] (anti-Hermitian)."""
    E = np.asarray(E, dtype=complex)
    out = np.zeros(E.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = 0.5 * E
    out[..., 1, 0] = -0.5 * np.conj(E)
    return out


def U(z, E):
    """Generator of the t-equation, U = -i z sigma_3 - H(E).

    Linear in (z, E): U(z, E) = U(z, 0) + U(0, E), so a propagation in t
    builds its z part once.
    """
    return -1j * np.asarray(z)[..., None, None] * SIGMA3 - coupling_matrix(E)


def V(z, E, G):
    """Generator of the x-equation, V = i z sigma_3 - i G + H(E).

    G is the medium term (2x2 per z, see `medium_transform`).  Linear in
    (z, E, G) like U.
    """
    return (1j * np.asarray(z)[..., None, None] * SIGMA3 - 1j * np.asarray(G)
            + coupling_matrix(E))


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


def medium_transform(profile, grid, z, boundary=None):
    """The medium term G of the x-equation at the targets z, as a function
    of the medium slice on grid.

    G = (1/4) integral F(s) n(s) / (s - z) ds, off-axis (boundary None),
    or its lam +- i0 limit (boundary "+" or "-"), which adds the local
    +-(pi i / 4) F(lam) n(lam) term.  The constant part of F (sigma_3 at
    infinity) is transformed exactly through eta, so tail truncation only
    touches the deviation F - sigma_3.  What depends on (grid, z) alone
    -- the coverage check, n on the grid, eta, the local weight and the
    weight matrix W -- is computed here once; the returned function maps
    a slice to G, shape (Nz, 2, 2), by one product with W.
    """
    check_coverage(profile, grid)
    grid = np.asarray(grid, dtype=float)
    nvals = profile.n(grid)

    def channels(slice_):
        return np.stack([(slice_.N - 1.0) * nvals, slice_.rho * nvals,
                         np.conj(slice_.rho) * nvals])

    if boundary is None:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        W = 0.25 * cauchy_weights(grid, z)
        base = z - eta_eval(profile, z)              # scalar sigma_3 part

        def G(slice_):
            c = channels(slice_) @ W                 # (3, Nz)
            return _traceless(c[0] + base, c[1], c[2])

        return G

    lam = np.atleast_1d(np.asarray(z, dtype=float))
    W = 0.25 * pv_weights(grid, lam)
    ev = eta_boundary(profile, lam)
    base = ev.g_plus if boundary == "+" else ev.g_minus
    local = (1.0 if boundary == "+" else -1.0) * 0.25j * np.pi * profile.n(lam)

    def G(slice_):
        pv = pv_apply(grid, channels(slice_), lam, W)       # (3, Nlam)
        loc11 = np.interp(lam, grid, slice_.N) - 1.0
        loc12 = (np.interp(lam, grid, slice_.rho.real)
                 + 1j * np.interp(lam, grid, slice_.rho.imag))
        return _traceless(pv[0] + local * loc11 + base,
                          pv[1] + local * loc12,
                          pv[2] + local * np.conj(loc12))

    return G


def _traceless(d11, d12, d21):
    """[[d11, d12], [d21, -d11]] per target."""
    out = np.empty(d11.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = d11
    out[..., 0, 1] = d12
    out[..., 1, 0] = d21
    out[..., 1, 1] = -d11
    return out


def conservation_check(slice_):
    """Max deviation of the Bloch-sphere constraint N^2 + |rho|^2 = 1."""
    return float(np.max(np.abs(slice_.N ** 2 + np.abs(slice_.rho) ** 2 - 1.0)))


def mb_residual(state, profile):
    """Sup-norms of centered finite-difference residuals of the three equations.

    state needs attributes t_grid, x_grid, lam_grid, E (t, x),
    rho (t, x, lam), N (t, x, lam).  Second-order interior stencils.
    """
    t, x, lam = state.t_grid, state.x_grid, state.lam_grid
    if t.size < 3 or x.size < 3:
        raise StencilTooCoarse("need at least 3 points per direction")
    dt = t[1] - t[0]
    dx = x[1] - x[0]
    E, rho, N = state.E, state.rho, state.N

    w = average_weights(profile, lam)
    avg = rho @ w

    E_t = (E[2:, 1:-1] - E[:-2, 1:-1]) / (2 * dt)
    E_x = (E[1:-1, 2:] - E[1:-1, :-2]) / (2 * dx)
    r1 = E_t + E_x - avg[1:-1, 1:-1]

    rho_t = (rho[2:] - rho[:-2]) / (2 * dt)
    r2 = rho_t + 2j * lam * rho[1:-1] - N[1:-1] * E[1:-1, :, None]

    N_t = (N[2:] - N[:-2]) / (2 * dt)
    r3 = N_t + np.real(np.conj(E[1:-1, :, None]) * rho[1:-1])

    return (float(np.max(np.abs(r1))), float(np.max(np.abs(r2))),
            float(np.max(np.abs(r3))))
