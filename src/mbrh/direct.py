"""Method-of-lines integrator for the coupled field-medium system.

Independent verification oracle for the contour-based reconstruction.
The field equation is a unit-speed transport with the averaged medium
polarization as source, so the grid is characteristics-aligned
(dt = dx) and the source is the only quadrature.  The medium pair
(rho, N) evolves by an exact SU(2) rotation per step, applied in closed
form from its Cayley-Klein parameters (no 2x2 matrix exponential), which
preserves N^2 + |rho|^2 to machine precision; the sphere is checked on
each new time slice as it is made.
"""

from dataclasses import dataclass, field

import numpy as np

from .broadening import average_weights
from .errors import CFLViolation, ConstraintDrift
from .lax import MediumSlice

STEP_TOL = 1e-10            # largest per-step change of N^2 + |rho|^2
DRIFT_TOL = 1e-6            # largest distance of N^2 + |rho|^2 from 1


@dataclass
class FieldState:
    """Field and medium samples on the (t, x, lambda) lattice."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    lam_grid: np.ndarray
    E: np.ndarray               # (Nt, Nx) complex
    rho: np.ndarray             # (Nt, Nx, Nlam) complex
    N: np.ndarray               # (Nt, Nx, Nlam) real
    diagnostics: dict = field(default_factory=dict)

    def conservation_error(self):
        return float(np.max(np.abs(self.N ** 2 + np.abs(self.rho) ** 2 - 1.0)))


def rho_average(slice_: MediumSlice, profile):
    """Weighted average of the polarization against the line-shape weight."""
    w = average_weights(profile, slice_.lam_grid)
    return complex(np.sum(w * slice_.rho))


def bloch_rotation(E_mid, lam, h, rho, N):
    """Advance (rho, N) over one step with the field frozen at midpoint.

    The pair evolves by conjugation of F = [[N, rho], [conj rho, -N]]
    with R = exp(h A), A = -i lam sigma3 - H(E_mid).  A is traceless
    anti-Hermitian with A^2 = -w^2 I, w = sqrt(lam^2 + |E|^2/4), so R is
    the SU(2) element [[a, b], [-conj b, conj a]] with Cayley-Klein
    parameters a = cos(hw) - i lam s, b = -E s/2, s = sin(hw)/w, and
    R F R^dagger is written out elementwise; the sphere constraint is
    preserved exactly.  Shapes broadcast over (..., Nlam).
    """
    E_mid = np.asarray(E_mid, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    rho = np.asarray(rho, dtype=complex)
    N = np.asarray(N, dtype=float)
    if E_mid.ndim:
        E_mid = E_mid[..., None]
    w = np.sqrt(lam * lam + 0.25 * (E_mid.real ** 2 + E_mid.imag ** 2))
    hw = h * w
    s = h * np.sinc(hw / np.pi)         # sin(hw)/w, finite at w = 0
    a = np.cos(hw) - 1j * (lam * s)
    b = -0.5 * s * E_mid
    rho_new = a * a * rho - b * b * np.conj(rho) - 2.0 * a * b * N
    N_new = ((a.real ** 2 + a.imag ** 2 - b.real ** 2 - b.imag ** 2) * N
             + 2.0 * (a * np.conj(b) * rho).real)
    return rho_new, N_new


def integrate_direct(scenario, profile, lam_grid, dt, x_max=None,
                     t_max=None) -> FieldState:
    """Advance the coupled system on a characteristics-aligned lattice.

    dt is used for both directions (dx = dt); x_max defaults to the
    scenario depth L and t_max to the scenario horizon T; dt must divide
    both.  The diagnostics hold the largest per-step change of
    N^2 + |rho|^2 (refused above STEP_TOL), its largest distance from 1
    over the history (refused above DRIFT_TOL), the lattice sizes
    (steps, nx and nlam points), and the largest detuning spacing over
    pi/t_max: the polarization oscillates like e^{-2 i lam t}, with
    period pi/t_max in lam at the horizon.
    """
    lam = np.asarray(lam_grid, dtype=float)
    if x_max is None:
        x_max = scenario.L
    if t_max is None:
        t_max = scenario.T
    nt = int(round(t_max / dt))
    nx = int(round(x_max / dt))
    if abs(nt * dt - t_max) > 1e-9 * max(1.0, t_max) or \
            abs(nx * dt - x_max) > 1e-9 * max(1.0, x_max):
        raise CFLViolation("dt must divide both t_max and x_max "
                           "(characteristics-aligned lattice)")
    t_grid = np.arange(nt + 1) * dt
    x_grid = np.arange(nx + 1) * dt
    w = average_weights(profile, lam)

    E = np.zeros((nt + 1, nx + 1), dtype=complex)
    rho = np.zeros((nt + 1, nx + 1, lam.size), dtype=complex)
    N = np.ones((nt + 1, nx + 1, lam.size))

    E[0, :] = np.asarray(scenario.E0(x_grid), dtype=complex)
    E[:, 0] = np.asarray(scenario.E_in(t_grid), dtype=complex)
    if scenario.rho0 is not None:
        for j, xj in enumerate(x_grid):
            sl = scenario.medium_slice(xj, lam)
            rho[0, j] = sl.rho
            N[0, j] = sl.N

    sphere = N[0] ** 2 + np.abs(rho[0]) ** 2        # N^2 + |rho|^2 per slice
    total = float(np.max(np.abs(sphere - 1.0)))
    max_step_drift = 0.0
    for k in range(nt):
        Ek = E[k]
        avg0 = rho[k] @ w                              # (Nx,)
        # predictor: transport Euler along the x - t characteristic
        Ep = np.empty_like(Ek)
        Ep[0] = E[k + 1, 0]
        Ep[1:] = Ek[:-1] + dt * avg0[:-1]
        # predictor medium with midpoint-frozen field
        rho_p, _ = bloch_rotation(0.5 * (Ek + Ep), lam, dt, rho[k], N[k])
        avg1 = rho_p @ w
        # corrector: trapezoid of the source along the characteristic
        E[k + 1, 1:] = Ek[:-1] + 0.5 * dt * (avg0[:-1] + avg1[1:])
        # final medium rotation with the corrected midpoint field
        rho[k + 1], N[k + 1] = bloch_rotation(
            0.5 * (Ek + E[k + 1]), lam, dt, rho[k], N[k])
        sphere_next = N[k + 1] ** 2 + np.abs(rho[k + 1]) ** 2
        drift = np.max(np.abs(sphere_next - sphere))
        max_step_drift = max(max_step_drift, float(drift))
        if drift > STEP_TOL:
            raise ConstraintDrift(
                f"per-step sphere drift {drift:.3e} at t={t_grid[k + 1]:.4f}")
        total = max(total, float(np.max(np.abs(sphere_next - 1.0))))
        sphere = sphere_next

    if total > DRIFT_TOL:
        raise ConstraintDrift(f"cumulative sphere drift {total:.3e}")
    spacing = float(np.max(np.diff(lam))) if lam.size > 1 else 0.0
    diagnostics = {"max_step_drift": max_step_drift,
                   "conservation_error": total,
                   "steps": nt, "nx": x_grid.size, "nlam": lam.size,
                   "lam_spacing_over_pi_T": spacing * t_max / np.pi}
    return FieldState(t_grid=t_grid, x_grid=x_grid, lam_grid=lam,
                      E=E, rho=rho, N=N, diagnostics=diagnostics)
