"""Numerical verification layer for the spectral classifiers.

Provides Bergman-norm ring quadrature with membership verdicts, eigenfunction
identity checks, orbit integrals and resolvent certificates, non-surjectivity
witnesses, and coboundary growth-exponent fits.  All routines are
deterministic for fixed tolerances and grid sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import EvaluationError, OrbitIntegralError, PetalExitError
from .regions import fixed_point_gamma
from .scenario import (Scenario, _continuation_invert, eval_h, eval_h_prime,
                       eval_hv_jets, eval_v, generator_g, quasi_random_grid)

__all__ = [
    "QuadratureGrid",
    "MembershipVerdict",
    "ResolventCertificate",
    "ap_norm_rings",
    "local_membership",
    "eigenfunction",
    "eigen_identity_residual",
    "orbit_integral_K",
    "resolvent_apply",
    "residual_check",
    "nonsurjectivity_witness",
    "coboundary_growth_exponent",
    "verification_grid",
]

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

_TAU_BAND = 0.1          # |tau| below this -> inconclusive
_FIT_RINGS = 6           # increments used in the exponent fit
_TAIL_EPS = 0.05         # margin in the analytic tail-rate bound
_TAIL_INFLATE = 10.0     # safety factor on the sampled tail constant
_T_MAX = 200.0           # hard cap on orbit-integral truncation time


# -- quadrature plumbing ----------------------------------------------------

_gl_cache = {}


def _gl(n):
    if n not in _gl_cache:
        _gl_cache[n] = leggauss(n)
    return _gl_cache[n]


def _gl_on(a, b, n):
    """Gauss-Legendre nodes and weights transplanted to [a, b]."""
    x, w = _gl(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


@dataclass(frozen=True)
class QuadratureGrid:
    """Ring scheme for disk integrals: radii r_k = 1 - 2^-k, Gauss-Legendre
    radial nodes per ring, graded angular panels refined toward declared
    singular angles (a uniform angular rule cannot separate convergent from
    divergent boundary singularities once 1 - r falls below its spacing)."""

    k_max: int = 14
    radial_order: int = 12
    angular_base: int = 128   # uniform angular panels before grading
    angular_order: int = 8    # Gauss-Legendre points per angular panel

    def __post_init__(self):
        if self.k_max < 8 or self.radial_order < 2 or self.angular_base < 8:
            raise ValueError("quadrature grid too coarse")

    def rings(self):
        return [1.0 - 2.0 ** -k for k in range(1, self.k_max + 1)]


DEFAULT_GRID = QuadratureGrid()


@dataclass(frozen=True)
class MembershipVerdict:
    status: str
    fitted_exponent: float
    ring_integrals: tuple
    total: float


@dataclass(frozen=True)
class ResolventCertificate:
    lam: complex
    region: str               # right_of_gamma0 | gap_between_gamma2_and_min
    K: complex
    tail_bound: float
    anchor: complex
    base: complex
    tol: float


class _Overflow(Exception):
    pass


def _eval_f(f, z):
    out = np.asarray(f(z), dtype=complex)
    if out.shape != np.shape(z):
        out = np.broadcast_to(out, np.shape(z)).copy()
    return out


def _abs_pow(vals, p):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mag = np.abs(vals) ** p
    if not np.all(np.isfinite(mag)):
        raise _Overflow
    return mag


def _angular_breakpoints(singular_angles, r, grid):
    """Panel breakpoints on [0, 2pi): uniform base plus geometric refinement
    toward each singular angle down to scale (1 - r) / 4."""
    base = grid.angular_base
    pts = set((2.0 * math.pi * j / base) for j in range(base))
    delta = max((1.0 - r) / 4.0, 1e-12)
    for theta in singular_angles:
        pts.add(theta % (2.0 * math.pi))
        w = 2.0 * math.pi / base
        while w > delta:
            w *= 0.5
            pts.add((theta + w) % (2.0 * math.pi))
            pts.add((theta - w) % (2.0 * math.pi))
    return np.array(sorted(pts))


def _angular_integral(f, p, r, singular_angles, grid):
    """Integral over the circle of radius r of |f|^p d(theta)."""
    brk = _angular_breakpoints(singular_angles, r, grid)
    lo = brk
    hi = np.append(brk[1:], brk[0] + 2.0 * math.pi)
    x, w = _gl(grid.angular_order)
    half = 0.5 * (hi - lo)
    theta = (0.5 * (lo + hi))[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    z = r * np.exp(1j * theta.ravel())
    mag = _abs_pow(_eval_f(f, z), p)
    return float(np.sum(weights.ravel() * mag))


def _disk_ring_increment(f, p, r_lo, r_hi, singular_angles, grid):
    rho, w = _gl_on(r_lo, r_hi, grid.radial_order)
    acc = 0.0
    for rj, wj in zip(rho, w):
        acc += wj * rj * _angular_integral(f, p, rj, singular_angles, grid)
    return acc


def _fit_tau(increments):
    """Least-squares exponent in Delta I_k ~ C 2^{-k tau} over the last
    _FIT_RINGS increments."""
    tail = np.asarray(increments[-_FIT_RINGS:], dtype=float)
    tail = np.maximum(tail, 1e-300)
    k = np.arange(len(increments) - len(tail), len(increments), dtype=float)
    slope = np.polyfit(k, np.log2(tail), 1)[0]
    return float(-slope)


def _verdict(increments, total):
    tau = _fit_tau(increments)
    if tau > _TAU_BAND:
        status = CONVERGENT
    elif tau < -_TAU_BAND:
        status = DIVERGENT
    else:
        status = INCONCLUSIVE
    return MembershipVerdict(status, tau, tuple(increments), total)


def _singular_angles(s: Scenario):
    return [math.atan2(fp.zeta.imag, fp.zeta.real) for fp in s.fixed_points]


def ap_norm_rings(s: Scenario, f, p=None, grid=DEFAULT_GRID) -> MembershipVerdict:
    """Ring-by-ring Bergman p-norm integrals over |z| < r_k with a verdict on
    convergence of the full-disk integral."""
    p = s.p if p is None else float(p)
    sing = _singular_angles(s)
    radii = [0.0] + grid.rings()
    increments = []
    total = 0.0
    for r_lo, r_hi in zip(radii[:-1], radii[1:]):
        try:
            inc = _disk_ring_increment(f, p, r_lo, r_hi, sing, grid)
        except _Overflow:
            return MembershipVerdict(DIVERGENT, float("-inf"),
                                     tuple(increments), float("inf"))
        increments.append(inc)
        total += inc
    return _verdict(increments, total)


def _lens_increment(f, p, zeta, rho_lo, rho_hi, grid):
    """Integral of |f|^p over the disk-cap annulus rho_lo < |z - zeta| < rho_hi
    intersected with the unit disk; zeta on the unit circle."""
    theta0 = math.atan2(zeta.imag, zeta.real)
    rho, w = _gl_on(rho_lo, rho_hi, grid.radial_order)
    # geometric grading of the angular panels toward both arc endpoints,
    # which lie on the unit circle
    frac = [0.0]
    for j in range(8, 0, -1):
        frac.append(2.0 ** -j)
    for j in range(1, 9):
        frac.append(1.0 - 2.0 ** -j)
    frac.append(1.0)
    frac = np.array(sorted(set(frac)))
    x, wa = _gl(grid.angular_order)
    acc = 0.0
    for rj, wj in zip(rho, w):
        # |zeta + rho e^{i psi}| < 1  <=>  cos(psi - theta0) < -rho/2
        a = math.acos(max(-1.0, min(1.0, -rj / 2.0)))
        lo = theta0 + a
        hi = theta0 + 2.0 * math.pi - a
        b_lo = lo + (hi - lo) * frac[:-1]
        b_hi = lo + (hi - lo) * frac[1:]
        half = 0.5 * (b_hi - b_lo)
        psi = (0.5 * (b_lo + b_hi))[:, None] + half[:, None] * x[None, :]
        weights = (half[:, None] * wa[None, :]).ravel()
        z = zeta + rj * np.exp(1j * psi.ravel())
        z = np.where(np.abs(z) >= 1.0, z * (1.0 - 1e-15) / np.abs(z), z)
        mag = _abs_pow(_eval_f(f, z), p)
        acc += wj * rj * float(np.sum(weights * mag))
    return acc


def local_membership(s: Scenario, f, zeta, p=None,
                     grid=DEFAULT_GRID) -> MembershipVerdict:
    """Membership of f in the local Bergman space at a boundary point zeta:
    ring integrals over the shrinking disk caps |z - zeta| < 2^-k."""
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise EvaluationError("local membership requires |zeta| = 1")
    p = s.p if p is None else float(p)
    rhos = [2.0 ** -k for k in range(1, grid.k_max + 1)]
    increments = []
    for rho_hi, rho_lo in zip(rhos[:-1], rhos[1:]):
        try:
            increments.append(_lens_increment(f, p, zeta, rho_lo, rho_hi, grid))
        except _Overflow:
            return MembershipVerdict(DIVERGENT, float("-inf"),
                                     tuple(increments), float("inf"))
    total = float(np.sum(increments))
    return _verdict(increments, total)


# -- eigenfunctions ---------------------------------------------------------

def eigenfunction(s: Scenario, lam):
    """Eigenvector candidate z -> e^{lam h(z)} / v(z) of the generator."""
    lam = complex(lam)

    def F(z):
        hj, vj = eval_hv_jets(s, z, 0, 0)
        return np.exp(lam * hj.f) / vj.f

    return F


def verification_grid(n=100, radius=0.9):
    return quasi_random_grid(n, radius)


def eigen_identity_residual(s: Scenario, lam, t, grid=None):
    """Max deviation in the exact identity u_t (F_lam o phi_t) = e^{lam t} F_lam."""
    from .scenario import cocycle, flow
    lam = complex(lam)
    if grid is None:
        grid = verification_grid()
    grid = np.asarray(grid, dtype=complex)
    if np.any(np.abs(grid) > 0.95):
        raise EvaluationError("eigen-identity grid must satisfy |z| <= 0.95")
    F = eigenfunction(s, lam)
    zt = flow(s, t, grid)
    lhs = cocycle(s, t, grid) * F(zt)
    rhs = np.exp(lam * t) * F(grid)
    return float(np.max(np.abs(lhs - rhs)))


# -- adaptive quadrature ----------------------------------------------------

def _adaptive_gl(func, a, b, tol, order=12, max_depth=48):
    """Adaptive composite Gauss-Legendre on [a, b] for a vectorized func."""

    def estimate(lo, hi):
        x, w = _gl_on(lo, hi, order)
        return np.sum(w * func(x))

    total = 0.0 + 0.0j
    stack = [(a, b, tol, estimate(a, b), 0)]
    while stack:
        lo, hi, tl, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = estimate(lo, mid)
        right = estimate(mid, hi)
        fine = left + right
        if abs(fine - coarse) <= tl or depth >= max_depth:
            total += fine
        else:
            stack.append((mid, hi, 0.5 * tl, right, depth + 1))
            stack.append((lo, mid, 0.5 * tl, left, depth + 1))
    return complex(total)


def _omega_form(s: Scenario, lam, f, z):
    """The resolvent one-form density e^{-lam h} h' v f at z."""
    hj, vj = eval_hv_jets(s, z, 1, 0)
    return np.exp(-lam * hj.f) * hj.d1 * vj.f * _eval_f(f, z)


def _segment_integral(s: Scenario, lam, f, z0, z1, tol):
    """Straight-segment integral of the resolvent one-form from z0 to z1."""
    z0, z1 = complex(z0), complex(z1)
    if z0 == z1:
        return 0.0 + 0.0j
    dz = z1 - z0

    def density(u):
        z = z0 + u * dz
        return _omega_form(s, lam, f, z) * dz

    return _adaptive_gl(density, 0.0, 1.0, tol)


# -- orbit integrals --------------------------------------------------------

class _OrbitEvaluator:
    """Points phi_{sign*t}(base) for many t, warm-started from a sorted cache
    so repeated nearby times cost only a short Newton continuation."""

    def __init__(self, s: Scenario, base, sign):
        self.s = s
        self.sign = sign
        self.base = complex(base)
        self.w0 = complex(eval_h(s, base))
        self.closed = s._closed_inverse is not None
        self.ts = np.zeros(1)
        self.zs = np.array([self.base])

    def _check_domain(self, w):
        if self.sign < 0 and not np.all(self.s.in_omega(w)):
            raise PetalExitError("backward orbit leaves the image domain")

    def points(self, t_arr):
        t_arr = np.asarray(t_arr, dtype=float)
        w_t = self.w0 + self.sign * t_arr
        self._check_domain(w_t)
        if self.closed:
            return np.asarray(self.s._closed_inverse(w_t), dtype=complex)
        t = t_arr.ravel()
        # each t starts from its nearest cached time, the earlier one on a tie
        hi = np.minimum(np.searchsorted(self.ts, t), self.ts.size - 1)
        lo = np.maximum(hi - 1, 0)
        near = np.where(t - self.ts[lo] <= self.ts[hi] - t, lo, hi)
        z = _continuation_invert(self.s, w_t.ravel(), self.zs[near],
                                 self.w0 + self.sign * self.ts[near])
        ts = np.concatenate([self.ts, t])
        order = np.argsort(ts, kind="stable")
        self.ts, self.zs = ts[order], np.concatenate([self.zs, z])[order]
        return z.reshape(t_arr.shape)


def orbit_integral_K(s: Scenario, lam, f, anchor, base=None, tol=1e-9,
                     step=0.5) -> ResolventCertificate:
    """Resolvent constant K = integral of the one-form from 0 to the boundary
    fixed point `anchor`, taken along the straight segment to `base` and then
    the (forward or backward) orbit of `base`, truncated with an analytic
    tail bound."""
    lam = complex(lam)
    gamma = fixed_point_gamma(anchor, s.p)
    forward = anchor.role == "denjoy_wolff"
    if forward:
        if base is None:
            base = 0.0
        if not lam.real > gamma:
            raise OrbitIntegralError(
                f"divergent orbit integral: Re lambda = {lam.real} must "
                f"exceed gamma = {gamma} at the attracting point")
        rate = gamma - lam.real
        region = "right_of_gamma0"
        sign_t, lam_t, orient = 1.0, -lam, 1.0
    else:
        if base is None:
            base = s.petal_anchor(anchor)
        if not lam.real < gamma:
            raise OrbitIntegralError(
                f"divergent orbit integral: Re lambda = {lam.real} must be "
                f"below gamma = {gamma} at the repelling point")
        rate = lam.real - gamma
        region = "gap_between_gamma2_and_min"
        sign_t, lam_t, orient = -1.0, lam, -1.0

    rate_eff = rate + _TAIL_EPS
    if rate_eff >= 0.0:
        raise OrbitIntegralError(
            "tolerance failure: lambda within the tail margin of gamma",
            achieved=float("inf"))

    ev = _OrbitEvaluator(s, base, sign_t)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        z = ev.points(t)
        # far along the orbit z collapses onto the boundary fixed point and
        # the weight may not evaluate; the true integrand there is far below
        # tolerance, so those samples contribute zero
        with np.errstate(all="ignore"):
            vals = np.exp(lam_t * t) * s._v(z) * _eval_f(f, z)
        return np.where(np.isfinite(vals), vals, 0.0)

    # truncation time from the sampled tail constant, inflated for safety
    tail_tol = 0.5 * tol
    T = 25.0
    while True:
        ts = np.linspace(T / 10.0, T, 17)
        samples = np.abs(integrand(ts)) * np.exp(-rate_eff * ts)
        C = _TAIL_INFLATE * float(np.max(samples))
        bound = C * math.exp(rate_eff * T) / abs(rate_eff)
        if bound < tail_tol:
            break
        if T >= _T_MAX:
            raise OrbitIntegralError(
                f"tolerance failure: tail bound {bound:.3e} at T = {T}",
                achieved=bound)
        T = min(T * 1.6, _T_MAX)

    quad_tol = 0.5 * tol
    n_panels = max(1, int(math.ceil(T / step)))
    orbit_part = 0.0 + 0.0j
    for k in range(n_panels):
        a = T * k / n_panels
        b = T * (k + 1) / n_panels
        orbit_part += _adaptive_gl(integrand, a, b, quad_tol / n_panels)

    K = (_segment_integral(s, lam, f, 0.0, base, quad_tol)
         + orient * np.exp(-lam * ev.w0) * orbit_part)
    return ResolventCertificate(lam, region, complex(K), bound,
                                complex(anchor.zeta), complex(base), tol)


def resolvent_apply(s: Scenario, lam, f, cert: ResolventCertificate, z):
    """Resolvent solution F(z) = e^{lam h}/v * (K - segment integral to z)."""
    lam = complex(lam)
    if cert.lam != lam:
        raise EvaluationError("certificate was issued for a different lambda")
    z = complex(z)
    if abs(z) > 0.999:
        raise EvaluationError("resolvent evaluation rejected for |z| > 0.999")
    seg = _segment_integral(s, lam, f, 0.0, z, cert.tol)
    return complex(eigenfunction(s, lam)(z) * (cert.K - seg))


def _cauchy_derivative(F, z, radius=0.02, nodes=16):
    k = np.arange(nodes)
    theta = 2.0 * math.pi * k / nodes
    ring = z + radius * np.exp(1j * theta)
    vals = np.array([complex(F(w)) for w in ring])
    return complex(np.sum(vals * np.exp(-1j * theta)) / (nodes * radius))


def residual_check(s: Scenario, lam, f, F, grid=None):
    """Max over the grid of |lam F - F'/h' - g F - f|, with F' from the
    Cauchy integral on a small circle (F analytic, spectrally accurate)."""
    lam = complex(lam)
    if grid is None:
        grid = verification_grid(20, 0.85)
    grid = np.asarray(grid, dtype=complex)
    if np.any(np.abs(grid) > 0.9):
        raise EvaluationError("residual grid must satisfy |z| <= 0.9")
    worst = 0.0
    for z in grid.ravel():
        z = complex(z)
        Fz = complex(F(z))
        Fp = _cauchy_derivative(F, z)
        gz = complex(generator_g(s, z))
        fz = complex(_eval_f(f, np.array([z]))[0])
        res = abs(lam * Fz - Fp / complex(eval_h_prime(s, z)) - gz * Fz - fz)
        worst = max(worst, res)
    return worst


def nonsurjectivity_witness(s: Scenario, lam, f, tol=1e-9, step=0.5):
    """Integral of the resolvent one-form between the first two repelling
    fixed points; a nonzero value certifies that lam - A is not surjective."""
    lam = complex(lam)
    reps = s.repelling_points()
    if len(reps) < 2:
        raise OrbitIntegralError("witness needs at least two repelling points")
    gammas = sorted(fixed_point_gamma(fp, s.p) for fp in reps)
    gamma2 = gammas[0]
    if not lam.real < gamma2:
        raise OrbitIntegralError(
            f"witness requires Re lambda < gamma_2 = {gamma2}")
    k1 = orbit_integral_K(s, lam, f, reps[0], tol=tol, step=step)
    k2 = orbit_integral_K(s, lam, f, reps[1], tol=tol, step=step)
    return k2.K - k1.K


# -- growth exponents -------------------------------------------------------

def coboundary_growth_exponent(s: Scenario, fp, direction="forward",
                               t_lo=5.0, t_hi=40.0, n=36):
    """Least-squares slope of log|v| along the orbit toward fp; approximates
    Re beta at the fixed point.  Samples where the orbit has numerically
    collapsed onto the boundary are masked out."""
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be forward or backward")
    if direction == "forward":
        ev = _OrbitEvaluator(s, 0.1 + 0.0j, 1.0)
        if fp.role != "denjoy_wolff":
            raise EvaluationError("forward orbits converge to the attracting "
                                  "point only")
    else:
        if fp.role != "repelling":
            raise EvaluationError("backward orbits target repelling points")
        ev = _OrbitEvaluator(s, s.petal_anchor(fp), -1.0)
    for _ in range(8):
        ts = np.linspace(t_lo, t_hi, n)
        zs = np.empty(ts.shape, dtype=complex)
        ok = np.zeros(ts.shape, dtype=bool)
        collapse_t = None
        for i, t in enumerate(ts):
            try:
                z = complex(ev.points(np.array([t]))[0])
            except (PetalExitError, EvaluationError):
                collapse_t = t
                break
            if abs(z) >= 1.0 - 1e-13:
                collapse_t = t
                break
            zs[i] = z
            ok[i] = True
        if np.count_nonzero(ok) >= 10:
            break
        # orbit reached the boundary early; compress the sampling window
        if collapse_t is None or collapse_t <= 0.5:
            break
        t_hi = 0.9 * collapse_t
        t_lo = min(t_lo, t_hi / 8.0)
    if np.count_nonzero(ok) < 10:
        raise EvaluationError("orbit collapsed onto the boundary before "
                              "enough growth samples were collected")
    with np.errstate(divide="ignore", over="ignore"):
        logv = np.log(np.abs(eval_v(s, zs[ok])))
    good = np.isfinite(logv)
    x = (ts[ok] if direction == "forward" else -ts[ok])[good]
    if len(x) < 10:
        raise EvaluationError("weight evaluation failed along the orbit")
    return float(np.polyfit(x, logv[good], 1)[0])
