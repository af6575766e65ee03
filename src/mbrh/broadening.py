"""Inhomogeneous-broadening weight n(lambda) and the phase function eta.

The weight n carries the medium sign (attenuator n < 0, amplifier n > 0)
and unit mass.  Everything downstream -- the x-equation exponentials, the
jump-matrix decay rates, the amplifier oval -- is driven by the sectionally
analytic function

    eta(z) = z - (1/4) * integral n(s) / (s - z) ds,

its boundary values eta_pm on the real axis, and (for amplifiers) the
level curve Im eta = 0 bounding the domains D+-.  Cauchy integrals of
piecewise-linear data are products f @ W with one weight matrix W per
(grid, targets) pair; a caller that applies the same pair many times
builds W once (`pv_weights`, `cauchy_weights`).
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from .errors import (
    NonDecaying,
    PrincipalValueFailure,
    TooCloseToAxis,
    ZeroMass,
)

ATTENUATOR = -1
AMPLIFIER = +1

LAM_WINDOW = (-20.0, 20.0)      # default detuning window

# Quadrature floor for the adaptive off-axis path (closed forms exempt).
_AXIS_FLOOR = 1e-8

# Data counts as vanished at a grid end when |f| there is at most this
# fraction of max |f| (tabulated weights, p.v. targets on an end node).
_END_TOL = 1e-6


@dataclass(frozen=True)
class BroadeningProfile:
    """Spectral-line weight n(lambda): shape, sign and parameters.

    Closed-form shapes are normalized by construction; tabulated profiles
    must pass through :func:`profile_normalize`.
    """

    shape: str                     # rectangular | lorentzian | delta_approx | tabulated
    sign: int                      # -1 attenuator, +1 amplifier
    eps: float | None = None       # half-width (rectangular / delta_approx)
    l: float | None = None         # Lorentzian scale
    grid: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def rectangular(cls, eps, sign=ATTENUATOR):
        if eps <= 0:
            raise ValueError("rectangular half-width must be positive")
        return cls(shape="rectangular", sign=int(sign), eps=float(eps))

    @classmethod
    def lorentzian(cls, l, sign=ATTENUATOR):
        if l <= 0:
            raise ValueError("lorentzian scale must be positive")
        return cls(shape="lorentzian", sign=int(sign), l=float(l))

    @classmethod
    def delta_approx(cls, eps, sign=ATTENUATOR):
        if eps <= 0:
            raise ValueError("delta_approx half-width must be positive")
        return cls(shape="delta_approx", sign=int(sign), eps=float(eps))

    @classmethod
    def tabulated(cls, grid, values, sign=ATTENUATOR):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 3:
            raise ValueError("tabulated profile needs matching 1-d grid/values")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("tabulated grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("tabulated values must be finite")
        return cls(shape="tabulated", sign=int(sign), grid=grid, values=values)

    # -- pointwise weight ------------------------------------------------
    def n(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.shape == "lorentzian":
            return self.sign * (self.l / np.pi) / (lam * lam + self.l * self.l)
        if self.shape in ("rectangular", "delta_approx"):
            box = (np.abs(lam) <= self.eps).astype(float)
            return self.sign * box / (2.0 * self.eps)
        return np.interp(lam, self.grid, self.values, left=0.0, right=0.0)

    @property
    def closed_form(self):
        return self.shape in ("lorentzian", "rectangular", "delta_approx")

    def on_edge(self, lam):
        """True where lam sits on a jump of n (the box edges +-eps of the
        rectangular and delta_approx shapes), where eta_pm is log-infinite."""
        lam = np.asarray(lam, dtype=float)
        if self.shape not in ("rectangular", "delta_approx"):
            return np.zeros(lam.shape, dtype=bool)
        return np.abs(np.abs(lam) - self.eps) < 1e-12 * max(self.eps, 1.0)

    def mass_between(self, a, b):
        """integral_a^b n(s) ds (closed forms analytic, tabulated trapezoid)."""
        if self.shape == "lorentzian":
            cdf = lambda x: (0.5 + np.arctan(x / self.l) / np.pi)
            return self.sign * (cdf(b) - cdf(a))
        if self.shape in ("rectangular", "delta_approx"):
            lo, hi = max(a, -self.eps), min(b, self.eps)
            return self.sign * max(hi - lo, 0.0) / (2.0 * self.eps)
        lo, hi = max(a, self.grid[0]), min(b, self.grid[-1])
        if hi <= lo:
            return 0.0
        xs = np.linspace(lo, hi, 2049)
        return np.trapezoid(np.interp(xs, self.grid, self.values), xs)


@dataclass(frozen=True)
class EtaValues:
    """Boundary data of eta on the real axis (vectorized over lambda)."""

    lam: np.ndarray
    eta_plus: np.ndarray
    eta_minus: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    n: np.ndarray


@dataclass(frozen=True)
class GammaCurve:
    """Polyline of the Im eta = 0 level curve gamma in the upper half-plane."""

    points: np.ndarray            # complex, ordered by Re z, Im > 0; may be empty
    lam_minus: float | None
    lam_plus: float | None
    nu_max: float
    bounded: bool
    truncated: bool               # curve left the lambda-window


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

def profile_normalize(profile: BroadeningProfile) -> BroadeningProfile:
    """Rescale the weight so its integral equals sign * 1.

    Closed-form shapes are exact already and returned unchanged.
    """
    if profile.closed_form:
        return profile
    vals = profile.values
    grid = profile.grid
    vmax = np.max(np.abs(vals))
    if vmax > 0 and max(abs(vals[0]), abs(vals[-1])) > _END_TOL * vmax:
        raise NonDecaying("tabulated weight does not decay at the grid ends")
    mass = np.trapezoid(vals, grid)
    if abs(mass) < 1e-14:
        raise ZeroMass("tabulated weight has zero integral")
    scaled = vals * (profile.sign / mass)
    return replace(profile, values=scaled)


# ----------------------------------------------------------------------
# Cauchy integrals of piecewise-linear data
# ----------------------------------------------------------------------

def _sum_by_parts(sgrid, targets, D):
    """Weights W (Ns, Nt) from the panel log increments D (Ns - 1, Nt).

    Panel j contributes [f_j (1 - t_j) + f_{j+1} t_j] D_j + f_{j+1} - f_j,
    t_j = (target - s_j)/h_j, so node k collects
    W[k] = (1 - t_k) D_k + t_{k-1} D_{k-1} + (delta_{k,last} - delta_{k,0}).
    """
    t = (targets - sgrid[:-1, None]) / np.diff(sgrid)[:, None]
    W = np.zeros((sgrid.size, targets.size), dtype=D.dtype)
    W[:-1] += (1.0 - t) * D
    W[1:] += t * D
    W[-1] += 1.0
    W[0] -= 1.0
    return W


def pv_weights(sgrid, lam):
    """Real W with p.v. integral f(s)/(s - lam) ds = f @ W.

    D_j = log|s_{j+1} - lam| - log|s_j - lam|.  For lam on a node the
    coefficient of that node's log vanishes analytically, so the
    log-infinite term is dropped (set to 0) rather than multiplied by 0.
    """
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(sgrid[:, None] - lam))          # (Ns, Nlam)
    logs[np.isinf(logs)] = 0.0
    return _sum_by_parts(sgrid, lam, np.diff(logs, axis=0))


def cauchy_weights(sgrid, z):
    """Complex W with integral f(s)/(s - z) ds = f @ W, Im z != 0.

    D_j = log((s_{j+1} - z)/(s_j - z)), which never crosses the branch
    cut for z off the axis.
    """
    D = np.log((sgrid[1:, None] - z) / (sgrid[:-1, None] - z))
    return _sum_by_parts(sgrid, z, D)


def cauchy_pwlin(sgrid, f, z):
    """integral f(s)/(s - z) ds, exact for piecewise-linear f, Im z != 0.

    f may be batched: shape (..., Ns).  z is scalar or 1-d; the result has
    shape (..., Nz).  Computed as f @ W with W = cauchy_weights(sgrid, z).
    """
    sgrid = np.asarray(sgrid, dtype=float)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.asarray(f) @ cauchy_weights(sgrid, z)


def pv_cauchy_pwlin(sgrid, f, lam):
    """p.v. integral f(s)/(s - lam) ds, exact for piecewise-linear f.

    lam may lie on interior grid nodes (the divergent log coefficients
    cancel there and are dropped explicitly).  f may be batched with
    shape (..., Ns); output shape is (..., Nlam).  Computed as
    pv_apply(sgrid, f, lam, pv_weights(sgrid, lam)).
    """
    sgrid = np.asarray(sgrid, dtype=float)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return pv_apply(sgrid, f, lam, pv_weights(sgrid, lam))


def pv_apply(sgrid, f, lam, W):
    """f @ W for p.v. weights W of the (sgrid, lam) pair (or a multiple).

    On the first or last node the integral diverges like
    f(end) log|s - lam|, so such a target raises PrincipalValueFailure
    unless f has vanished at that end (|f| at most _END_TOL of max |f|,
    per batch row); so does a non-finite result.  Complex f takes two
    real products.
    """
    f = np.asarray(f)
    for end in (0, -1):
        if np.any(lam == sgrid[end]):
            fabs = np.abs(f)
            if np.any(fabs[..., end] > _END_TOL * np.max(fabs, axis=-1)):
                raise PrincipalValueFailure(
                    f"p.v. integral diverges: target on the grid end "
                    f"{sgrid[end]:g}, where f does not vanish")
    if np.iscomplexobj(f):
        out = (f.real @ W) + 1j * (f.imag @ W)
    else:
        out = f @ W
    if not np.all(np.isfinite(out)):
        raise PrincipalValueFailure("p.v. quadrature produced non-finite values")
    return out


# ----------------------------------------------------------------------
# eta and its boundary values
# ----------------------------------------------------------------------

def _eta_closed(profile, z):
    z = np.asarray(z, dtype=complex)
    s = profile.sign
    if profile.shape == "lorentzian":
        shift = np.where(z.imag >= 0, 1j * profile.l, -1j * profile.l)
        return z + s / (4.0 * (z + shift))
    eps = profile.eps
    return z - (s / (8.0 * eps)) * np.log((eps - z) / (-eps - z))


def eta_eval(profile, z, method="auto"):
    """eta(z) off the real axis.

    method: "auto" (closed form if available, else exact piecewise-linear
    Cauchy integral), "closed", or "quadrature" (independent adaptive path).
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag == 0.0):
        raise TooCloseToAxis("eta_eval requires Im z != 0; use eta_boundary")
    if method == "closed" or (method == "auto" and profile.closed_form):
        if not profile.closed_form:
            raise ValueError(f"no closed form for shape {profile.shape!r}")
        return _eta_closed(profile, z)
    if method == "quadrature":
        return _eta_quadrature(profile, z)
    # tabulated: exact Cauchy integral of the piecewise-linear weight
    c = cauchy_pwlin(profile.grid, profile.values, np.atleast_1d(z))
    return (z - 0.25 * c.reshape(np.shape(z))) if z.shape else (z - 0.25 * c[0])


def _eta_quadrature(profile, z):
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(np.abs(zs.imag) < _AXIS_FLOOR):
        raise TooCloseToAxis(
            f"|Im z| below quadrature floor {_AXIS_FLOOR} for the adaptive path")
    if profile.shape == "tabulated":
        lo, hi = profile.grid[0], profile.grid[-1]
    else:
        lo, hi = -np.inf, np.inf
    out = np.empty(zs.shape, dtype=complex)
    for k, zk in enumerate(zs.ravel()):
        fre = lambda s: (profile.n(s) / (s - zk)).real
        fim = lambda s: (profile.n(s) / (s - zk)).imag
        kw = dict(epsabs=1e-12, epsrel=1e-12, limit=400)
        if np.isfinite(lo):
            kw["points"] = [zk.real] if lo < zk.real < hi else None
            if kw["points"] is None:
                del kw["points"]
        re, _ = quad(fre, lo, hi, **kw)
        im, _ = quad(fim, lo, hi, **kw)
        out.ravel()[k] = zk - 0.25 * (re + 1j * im)
    return out.reshape(np.shape(z)) if np.shape(z) else out[()]


def eta_boundary(profile, lam) -> EtaValues:
    """Boundary values eta_pm(lam) = lam - g_pm(lam) on the real axis.

    g_pm = p.v.(1/4) int n(s)/(s-lam) ds +- (pi i/4) n(lam), so the jump
    eta_plus - eta_minus = -(pi i/2) n(lam) holds by construction.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    nval = profile.n(lam)
    s = profile.sign
    if profile.shape == "lorentzian":
        gp = -s / (4.0 * (lam + 1j * profile.l))
        gm = -s / (4.0 * (lam - 1j * profile.l))
    elif profile.shape in ("rectangular", "delta_approx"):
        eps = profile.eps
        edge = profile.on_edge(lam)
        if np.any(edge):
            raise PrincipalValueFailure(
                f"p.v. integral diverges at the {profile.shape} profile edge "
                f"lambda = {lam[edge][0]:.12g}")
        with np.errstate(divide="ignore"):
            pv = (s / (8.0 * eps)) * np.log(np.abs((eps - lam) / (eps + lam)))
        gp = pv + 0.25j * np.pi * nval
        gm = pv - 0.25j * np.pi * nval
    else:
        if np.any(lam < profile.grid[0]) or np.any(lam > profile.grid[-1]):
            raise ValueError("lambda outside the tabulated grid hull")
        pv = 0.25 * pv_cauchy_pwlin(profile.grid, profile.values, lam)
        gp = pv + 0.25j * np.pi * nval
        gm = pv - 0.25j * np.pi * nval
    return EtaValues(lam=lam, eta_plus=lam - gp, eta_minus=lam - gm,
                     g_plus=gp, g_minus=gm, n=nval)


# ----------------------------------------------------------------------
# Im eta = 0 curve (amplifier domains D+-)
# ----------------------------------------------------------------------

def _im_eta(profile, lam, nu):
    return eta_eval(profile, lam + 1j * nu).imag


def _nu_root(profile, lam, nu_floor=1e-9, nu_cap=8.0, tol=1e-13):
    """Height of gamma above lam, or None if the curve does not pass here."""
    f0 = _im_eta(profile, lam, nu_floor)
    if not (f0 < 0.0):
        return None
    hi = 0.05
    while _im_eta(profile, lam, hi) < 0.0:
        hi *= 2.0
        if hi > nu_cap:
            return None
    return brentq(lambda nu: _im_eta(profile, lam, nu), nu_floor, hi,
                  xtol=tol, rtol=1e-14)


def gamma_trace(profile, lam_window=LAM_WINDOW, n_scan=401,
                curve_tol=1e-9) -> GammaCurve:
    """Trace gamma = {Im eta = 0, Im z > 0} by lambda-scan with nu-bisection.

    Attenuators have sign Im eta = sign Im z everywhere, so the curve is
    empty.  A curve reaching the lambda-window edge is reported truncated
    (the Lorentzian D+ is unbounded along the real line).
    """
    empty = GammaCurve(points=np.empty(0, complex), lam_minus=None,
                       lam_plus=None, nu_max=0.0, bounded=True, truncated=False)
    if profile.sign < 0:
        return empty
    lams = np.linspace(lam_window[0], lam_window[1], n_scan)
    roots = [(_nu_root(profile, lam), lam) for lam in lams]
    found = [(lam, nu) for nu, lam in roots if nu is not None]
    if not found:
        return empty

    lam_found = np.array([lam for lam, _ in found])
    nu_found = np.array([nu for _, nu in found])

    def _edge(lam_in, lam_out):
        # bisect the has-root predicate toward the real-axis crossing
        for _ in range(60):
            mid = 0.5 * (lam_in + lam_out)
            if _nu_root(profile, mid) is None:
                lam_out = mid
            else:
                lam_in = mid
        return lam_in

    truncated = False
    if lam_found[0] > lams[0]:
        lam_minus = _edge(lam_found[0], lam_found[0] - (lams[1] - lams[0]))
    else:
        lam_minus, truncated = lams[0], True
    if lam_found[-1] < lams[-1]:
        lam_plus = _edge(lam_found[-1], lam_found[-1] + (lams[1] - lams[0]))
    else:
        lam_plus, truncated = lams[-1], True

    # refine nu_max around the scan maximum
    k = int(np.argmax(nu_found))
    lo = lam_found[max(k - 1, 0)]
    hi = lam_found[min(k + 1, len(lam_found) - 1)]
    nu_max = nu_found[k]
    if hi > lo:
        res = minimize_scalar(lambda lam: -(_nu_root(profile, lam) or 0.0),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-10})
        nu_max = max(nu_max, -res.fun)

    pts = lam_found + 1j * nu_found
    bad = np.abs(_im_eta(profile, pts.real, pts.imag)) > curve_tol
    if np.any(bad):
        raise PrincipalValueFailure("curve tracer left residual Im eta > tol")
    return GammaCurve(points=pts, lam_minus=float(lam_minus),
                      lam_plus=float(lam_plus), nu_max=float(nu_max),
                      bounded=not truncated, truncated=truncated)


# ----------------------------------------------------------------------
# averaging weights for <rho> = int n(lambda) rho dlambda
# ----------------------------------------------------------------------

def average_weights(profile, grid):
    """Quadrature weights w with sum_i w_i f(lam_i) ~ int n f dlam.

    Composite-Simpson weights times n on the grid, plus analytic tail
    masses folded onto the end nodes, rescaled so that constants are
    integrated exactly (sum w = sign).
    """
    grid = np.asarray(grid, dtype=float)
    h = np.diff(grid)
    if grid.size >= 3 and grid.size % 2 == 1 and np.allclose(h, h[0]):
        tau = np.ones(grid.size) * (h[0] / 3.0)
        tau[1:-1:2] *= 4.0
        tau[2:-1:2] *= 2.0
    else:
        tau = np.zeros(grid.size)
        tau[:-1] += 0.5 * h
        tau[1:] += 0.5 * h
    w = tau * profile.n(grid)
    w[0] += profile.mass_between(-np.inf, grid[0])
    w[-1] += profile.mass_between(grid[-1], np.inf)
    total = np.sum(w)
    if abs(total) < 1e-13:
        raise ZeroMass("averaging weights sum to zero; grid misses the line")
    return w * (profile.sign / total)
