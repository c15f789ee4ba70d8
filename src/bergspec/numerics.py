"""Numerical verification layer for the spectral classifiers.

Provides Bergman-norm membership verdicts, eigenfunction identity checks,
orbit integrals and resolvent certificates, non-surjectivity witnesses, and
coboundary growth exponents.  All routines are deterministic for fixed
tolerances and grid sizes, and keep no state between calls: an orbit point
is found afresh by `scenario.orbit`, from next to the orbit's limit point.

Membership comes from Taylor coefficients on one circle (Hedenmalm,
Korenblum and Zhu, Theory of Bergman Spaces, ch. 1; Bornemann, Found.
Comput. Math. 11, 2011), so a divergence at any boundary point shows, fixed
or not, and tau can exceed 1 where f converges comfortably.

The work is batched: `eigenfunction(s, lams)` evaluates h and l once for
every lambda and `ap_norm_rings` gives each row its verdict; one adaptive
Gauss-Legendre routine refines every segment and orbit panel together.

The weight v enters only through ratios and exponentials, so it is read
as its folded logarithm l = log v (`expr.log_of`, on no fixed branch): the
eigenfunction is exp(lam h - l), the one-form exp(l - lam h) h' f, the orbit
integrand exp(lam_t t + l) f, read only at orbit points inside the disk,
and g = l'/h'.  Each point costs one exp, and for a built-in l reuses the
logs inside h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .errors import EvaluationError, OrbitIntegralError, WindingError
from .regions import fixed_point_gamma
# eval_v and _continuation_invert have no caller here, but
# perfbench/tracing.py wraps them by these names
from .scenario import (Scenario, _continuation_invert, beta_at, eval_h,
                       eval_h_prime, eval_hl_jets, eval_v, generator_g, orbit,
                       quasi_random_grid)

__all__ = [
    "MembershipVerdict",
    "ResolventCertificate",
    "ap_norm_rings",
    "eigenfunction",
    "eigen_identity_residual",
    "orbit_integral_K",
    "resolvent_apply",
    "residual_check",
    "nonsurjectivity_witness",
    "coboundary_growth_exponent",
]

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

_TAU_BAND = 0.1          # |tau| below this -> inconclusive
_FIT_RINGS = 6           # blocks used in the exponent fit
_TAIL_EPS = 0.05         # margin in the analytic tail-rate bound
_TAIL_INFLATE = 10.0     # safety factor on the sampled tail constant
_T_MAX = 200.0           # hard cap on orbit-integral truncation time
_STEP = 0.5              # orbit-integral panel width in t


# Taylor blocks for `ap_norm_rings`: f on |z| = e^{-1/J} at n = 16J points
# gives a_j for j < 2J (the alias a_{j+n} is damped by e^{-16}), read in
# _SUBCIRCLES interleaved parts of J points, one f call and one FFT each,
# each freed before the next f call, so no array of length n is made.  Each
# row is read at _TAYLOR_J, and read again at _REREAD_J, which then gives its
# verdict, when its first fit is unsure.  The layout is fixed, not set by the
# number of rows, and a row's unsureness is its own, so a stacked row is
# bitwise a single call.
_TAYLOR_J = 2 ** 10
_REREAD_J = 2 ** 12
_SUBCIRCLES = 16
_ROUNDOFF = 1e-13        # a block below (this * max|f^{p/2}|)^2 is round-off
# |f(conj z) - conj f(z)| / |f(z)| that still reads as real, far below the
# e^{-16} alias of every coefficient: conj z_k is z_{n-k} to about 1e-16 rho
_REAL_TOL = 1e-8
# a first read is unsure when |tau| is below _SURE_TAU (within 0.05 of the
# band) or its fit's rms residual in log2 B_k is above _SURE_RESIDUAL: rows
# whose first residual was at most 0.03 moved tau by at most 0.034 at 2^12
_SURE_TAU = 0.15
_SURE_RESIDUAL = 0.03


@dataclass(frozen=True)
class MembershipVerdict:
    status: str
    fitted_exponent: float
    ring_integrals: tuple    # block sums, which stand for the ring increments
    total: float
    J: int                   # the circle |z| = e^{-1/J} it was read on


@dataclass(frozen=True)
class ResolventCertificate:
    lam: complex
    K: complex
    tail_bound: float
    anchor: complex
    tol: float


def _eval_f(f, z):
    out = np.asarray(f(z), dtype=complex)
    if out.shape != np.shape(z):
        out = np.broadcast_to(out, np.shape(z)).copy()
    return out


def _powered(f, p, J):
    """(winding, parts): parts yields (r, f^{p/2} on the sub-circle
    z_{r + S l}) for r = 0..S-1, where the S interleaved sub-circles make up
    the n-point circle |z| = e^{-1/J}: rows by points for a stacked f, else
    one row.  For p != 2 the phase of f is unwrapped at full resolution,
    point to next point: down each column z_{S l + r}, r < S, and from each
    column's end to the next column's start, whose phases a first pass over
    f finds.  winding counts each row's turns of a phase that does not
    close; it is 0 at p = 2."""
    S = _SUBCIRCLES
    n = S * J
    base = math.exp(-1.0 / J) * np.exp(2j * np.pi * np.arange(J) / J)

    def sample(r):
        vals = np.asarray(f(base * np.exp(2j * np.pi * r / n)), dtype=complex)
        return vals if vals.ndim == 2 else np.broadcast_to(vals, base.shape)

    if p == 2.0:
        return 0.0, ((r, sample(r)) for r in range(S))
    prev = sample(0)
    first = last = np.angle(prev)
    for r in range(1, S):
        vals = sample(r)
        last, prev = last + np.angle(vals / prev), vals
    turns = np.rint((last - np.roll(first, -1, axis=-1)) / (2.0 * np.pi))
    winding = np.nan_to_num(turns.sum(axis=-1))     # an overflowed row is nan
    phase = first + 2.0 * np.pi * (np.cumsum(turns, axis=-1) - turns)
    # only phase goes on to the 2nd pass
    return winding, _unwrapped(sample, phase, p)


def _unwrapped(sample, phase, p):
    """_powered's second pass, which carries the phase point to point."""
    for r in range(_SUBCIRCLES):
        vals = sample(r)
        if r:
            ratio = vals / prev
            del prev                 # freed before the angle is taken
            phase += np.angle(ratio)
            del ratio                # and before the next f call
        prev = vals
        yield r, _principal_power(vals, phase, p)


def _principal_power(vals, phase, p):
    """f^{p/2} = exp(p/2 (log|f| + i phase)), built in one array, which
    the generator that yields it keeps no name for."""
    g = np.empty(vals.shape, dtype=complex)
    np.log(np.abs(vals), out=g.real)
    g.imag = phase
    g *= 0.5 * p
    return np.exp(g, out=g)


def ap_norm_rings(s: Scenario, f):
    """Bergman s.p-norm of f with a verdict on its convergence, from the
    Taylor coefficients a_j, j < 2J, of f^{p/2} on |z| = e^{-1/J}: the block
    sums of pi |a_j|^2 / (j + 1) over j = 0 and 2^(k-1) <= j < 2^k stand for
    the ring increments.  A stacked f, whose values carry a leading axis (as
    from `eigenfunction(s, lams)`), is treated row by row from one
    evaluation per point and gets a list of verdicts.  A row that overflows
    is divergent; one whose last block is round-off (a polynomial, say) is
    convergent with tau = inf.

    Every row is read at J = _TAYLOR_J.  A row whose fit is unsure there
    (`_block_verdict`), or whose phase winds at p != 2, is read again at
    J = _REREAD_J, all such rows from one f call per sub-circle, and takes
    its verdict from that read, where a zero of f inside the circle raises
    WindingError."""
    verdicts, unsure = _read(s, f, _TAYLOR_J)
    redo = np.flatnonzero(unsure)
    if redo.size:
        again, _ = _read(s, (lambda z: f(z)[redo]) if np.ndim(unsure) else f,
                         _REREAD_J)
        for i, v in zip(redo, again):
            verdicts[i] = v
    return verdicts if np.ndim(unsure) else verdicts[0]


def _read(s: Scenario, f, J):
    """(verdicts, unsure) of f's rows from the circle |z| = e^{-1/J}, unsure
    shaped as one row's or the stack's leading axis.

    At p = 2 a row is real when f(conj z) = conj f(z), the Schwarz
    reflection, holds to _REAL_TOL on sub-circle 0, whose points pair off as
    z_{n-k} = conj z_k, z_0 and z_{n/2} on the real axis with themselves (a
    principal log whose cut lies on the axis fails there).  Sub-circle S - r
    then adds the conjugate of sub-circle r's share T_r of each c_j, so the
    row's c_j = Re(T_0 + T_{S/2} + 2 sum_{0<r<S/2} T_r), and f is called on
    sub-circles 0..S/2 only when every row is real.  At p != 2 every row
    reads all 16, as the phase is unwrapped in order."""
    S, two_j = _SUBCIRCLES, 2 * J
    n, top = S * J, 0.0
    phase_u = -128j * np.pi * np.arange(J // 64)   # twiddle phases, below
    phase_v = -2j * np.pi * np.arange(64)
    with np.errstate(all="ignore"):
        winding, parts = _powered(f, s.p, J)
        if J == _REREAD_J and np.any(winding):
            raise WindingError(
                f"f winds {np.max(np.abs(winding)):.0f} times around 0 on "
                f"|z| = e^(-1/{J}), so it has a zero inside the circle "
                f"and |f|^p = |f^(p/2)|^2 does not hold")
        for r, g in parts:
            top = np.maximum(top, np.max(np.abs(g), axis=-1))
            if not r:
                # z_{S (J - l)} = conj z_{S l}; one row at a time, as the
                # whole stack's temporaries would outgrow the call's memory
                real = np.array([s.p == 2.0 and np.all(
                    np.abs(row[-np.arange(J)].conj() - row)
                    <= _REAL_TOL * np.abs(row)) for row in g.reshape(-1, J)])
                acc = np.zeros((np.size(top), two_j // J, J), dtype=complex)
            # c_{q J + l} += w_S^{-q r} w_n^{-l r} X_r[l], X_r the FFT of g;
            # g and x are freed before the next f call (r comes from
            # parts, since the tuple that enumerate reuses would keep g
            # alive); g may be f's own array, so the FFT does not write to it
            x = np.fft.fft(g, axis=-1).reshape(-1, J)
            del g
            # w_n^{-l r} for l = 64 u + v as w_n^{-64 u r} w_n^{-v r}: J / 64
            # + 64 exps instead of J, within 1e-15 of the direct ones
            x *= np.multiply.outer(np.exp(phase_u * r / n),
                                   np.exp(phase_v * r / n)).ravel()
            if r % (S // 2) and real.any():
                # a real row takes 2 T_r below S/2 and nothing above (a
                # stack with a complex row reads those for that row only)
                np.multiply(x, 2.0 if r < S // 2 else 0.0, out=x,
                            where=real[:, None])
            w = np.exp(-2j * np.pi * r / S)
            for q in range(two_j // J):
                if q:
                    x *= w
                acc[:, q] += x
            del x
            if r == S // 2 and real.all():
                break            # before parts calls f on sub-circle r + 1
        a = acc.reshape(-1, two_j)
        a.imag[real] = 0.0
        a *= np.exp(np.arange(two_j) / J) / n     # a_j = c_j rho^-j
        rows = [_block_verdict(row, big, J)
                for row, big in zip(a, np.atleast_1d(top))]
    unsure = np.reshape([u for _, u in rows], np.shape(top)) | (winding != 0)
    return [v for v, _ in rows], unsure


def _block_verdict(a, big, J):
    """(verdict, unsure) from the Taylor coefficients a of f^{p/2} read at
    J, whose largest sample big sets the round-off level.  A fitted tau is
    unsure when it is nan, below _SURE_TAU in size, or its fit's rms
    residual is above _SURE_RESIDUAL; tau = +-inf is sure."""
    edges = [0] + [2 ** k for k in range(J.bit_length() + 1)]
    terms = np.abs(a) ** 2 / np.arange(1, a.size + 1)
    blocks = [float(math.pi * np.sum(terms[lo:hi]))
              for lo, hi in zip(edges[:-1], edges[1:])]
    total = float(np.cumsum(blocks)[-1])
    if not math.isfinite(total):
        return MembershipVerdict(DIVERGENT, float("-inf"), (), float("inf"),
                                 J), False
    floor = math.pi * (_ROUNDOFF * big) ** 2
    if blocks[-1] <= floor:
        return MembershipVerdict(CONVERGENT, float("inf"), tuple(blocks),
                                 total, J), False
    tau, residual = _fit_tau(blocks, floor)
    if tau > _TAU_BAND:
        status = CONVERGENT
    elif tau < -_TAU_BAND:
        status = DIVERGENT
    else:
        status = INCONCLUSIVE       # a nan tau, too
    unsure = not (abs(tau) >= _SURE_TAU and residual <= _SURE_RESIDUAL)
    return MembershipVerdict(status, tau, tuple(blocks), total, J), unsure


def _fit_tau(blocks, floor):
    """(tau, rms residual) of the least-squares fit of log2 B_k ~ c - k tau
    over those of the last _FIT_RINGS blocks that lie above the round-off
    floor; nans when fewer than three do (a lacunary f has round-off blocks
    between its terms)."""
    k = np.arange(len(blocks) - _FIT_RINGS, len(blocks))
    tail = np.asarray(blocks, dtype=float)[k]
    above = tail > floor
    if np.count_nonzero(above) < 3:
        return float("nan"), float("nan")
    k, y = k[above], np.log2(tail[above])
    line = np.polyfit(k, y, 1)
    return (float(-line[0]),
            float(np.sqrt(np.mean((y - np.polyval(line, k)) ** 2))))


# -- eigenfunctions ---------------------------------------------------------

def eigenfunction(s: Scenario, lam):
    """Eigenvector candidate z -> e^{lam h(z)} / v(z) = e^{lam h(z) - l(z)}
    of the generator, l = log v.  For a sequence of lam the values are
    stacked on a leading axis, one row per lam, from one evaluation of h
    and l."""
    lams = np.asarray(lam, dtype=complex)

    def F(z):
        hj, lj = eval_hl_jets(s, z, 0)
        # in place, so a call holds one array of the result's size, and row
        # by row, since a broadcast update takes numpy iterator buffers of
        # two rows' size
        out = np.asarray(np.multiply.outer(lams, hj.f))
        for i in np.ndindex(lams.shape):
            out[i] -= lj.f
        np.exp(out, out=out)
        return out[()]

    return F


def eigen_identity_residual(s: Scenario, lam, t):
    """Max deviation in the exact identity u_t (F_lam o phi_t) = e^{lam t} F_lam
    over `quasi_random_grid(100, 0.9)`; a list of them for a sequence of lam."""
    from .scenario import _weight_ratio, flow
    lams = np.asarray(lam, dtype=complex)
    grid = quasi_random_grid(100, 0.9)
    F = eigenfunction(s, lams)
    zt = flow(s, t, grid)
    lhs = _weight_ratio(s, t, grid, zt) * F(zt)
    rhs = np.exp(lams * t)[..., None] * F(grid)
    return np.max(np.abs(lhs - rhs), axis=-1).tolist()


# -- adaptive quadrature ----------------------------------------------------

_GL_MAX_DEPTH = 48       # halvings of an interval before a panel must pass
_GL_BUDGET = 2 ** 18     # panel estimates per call: bounds its time and memory
_GL_CHUNK = 128          # panels per integrand call: bounds the batch's memory
# the 12-point Gauss-Legendre rule on [-1, 1], numpy's leggauss(12) bit for
# bit, from its positive nodes and their weights: the nodes are odd, the
# weights even.  Lists, so that importing this module loads no numpy; an
# array times a list broadcasts to the same values
_GL_X = [0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
         0.7699026741943047, 0.9041172563704748, 0.9815606342467192]
_GL_W = [0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
         0.16007832854334642, 0.10693932599531907, 0.04717533638651141]
_GL_X, _GL_W = [-x for x in _GL_X[::-1]] + _GL_X, _GL_W[::-1] + _GL_W


def _adaptive_gl(func, a, b, tol):
    """Adaptive composite Gauss-Legendre on many intervals a_k < b_k at once;
    returns one complex value per interval.

    func(x, i) gives the integrand at nodes x, one row of 12 nodes per
    panel, of panels on intervals i.  Every live panel is halved in one
    batched pass, and accepted once its halves change its estimate by at most
    its tolerance (tol_k, halved with each split).  An interval's accepted
    panels are summed left to right, as a depth-first recursion adds them, so
    its value does not depend on the other intervals.  A non-finite estimate,
    a panel not accepted at depth _GL_MAX_DEPTH, or a depth that would take
    the call past _GL_BUDGET panel estimates raises OrbitIntegralError."""
    def estimate(lo, hi, i):
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_X
        w = half[:, None] * _GL_W
        out = np.empty(lo.size, dtype=complex)
        for c in range(0, lo.size, _GL_CHUNK):
            part = slice(c, c + _GL_CHUNK)
            out[part] = np.sum(w[part] * func(x[part], i[part]), axis=-1)
        return out

    lo, hi, tl = (np.array(v, dtype=float).ravel() for v in (a, b, tol))
    n = lo.size
    i = np.arange(n)
    coarse = estimate(lo, hi, i)
    spent = n
    done_i, done_lo, done_val = [], [], []
    for depth in range(_GL_MAX_DEPTH + 1):
        spent += 2 * i.size
        if spent > _GL_BUDGET:
            k = int(i.min())
            raise OrbitIntegralError(
                f"tolerance failure: the quadrature would pass its budget of "
                f"{_GL_BUDGET} panel estimates, with interval {k} "
                f"[{np.ravel(a)[k]:g}, {np.ravel(b)[k]:g}] unfinished")
        mid = 0.5 * (lo + hi)
        halves = estimate(np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                          np.concatenate([i, i]))
        left, right = halves[:i.size], halves[i.size:]
        fine = left + right
        if not np.all(np.isfinite(fine)):
            raise OrbitIntegralError("tolerance failure: the integrand is not "
                                     "finite on a quadrature panel",
                                     achieved=float("inf"))
        err = np.abs(fine - coarse)
        ok = err <= tl
        if depth == _GL_MAX_DEPTH and not np.all(ok):
            worst = float(np.max(err[~ok]))
            raise OrbitIntegralError(
                f"tolerance failure: a quadrature panel's error {worst:.3e} "
                f"is above its tolerance after {_GL_MAX_DEPTH} halvings",
                achieved=worst)
        done_i.append(i[ok])
        done_lo.append(lo[ok])
        done_val.append(fine[ok])
        go = ~ok
        i = np.concatenate([i[go], i[go]])
        lo, hi = (np.concatenate([lo[go], mid[go]]),
                  np.concatenate([mid[go], hi[go]]))
        coarse = np.concatenate([left[go], right[go]])
        tl = 0.5 * np.concatenate([tl[go], tl[go]])
        if not i.size:
            break

    i, lo, val = (np.concatenate(v) for v in (done_i, done_lo, done_val))
    order = np.lexsort((lo, i))
    # add.at adds one term at a time in the order given: each interval's
    # panels left to right, from 0 like the recursion's sums
    out = np.zeros(n, dtype=complex)
    np.add.at(out, i[order], val[order])
    return out


def _omega_form(s: Scenario, lam, f, z):
    """The resolvent one-form density e^{-lam h} h' v f = e^{l - lam h} h' f
    at z."""
    hj, lj = eval_hl_jets(s, z, 1)
    return np.exp(lj.f - lam * hj.f) * hj.d1 * _eval_f(f, z)


def _segment_integrals(s: Scenario, lam, f, z, tol):
    """Integrals of the resolvent one-form along the straight segments from 0
    to each point of the 1-D array z."""

    def density(u, i):
        dz = z[i, None]
        return _omega_form(s, lam, f, u * dz) * dz

    return _adaptive_gl(density, np.zeros(z.size), np.ones(z.size),
                        np.full(z.size, tol))


# -- orbit integrals --------------------------------------------------------

def orbit_integral_K(s: Scenario, lam, f, anchor, tol) -> ResolventCertificate:
    """Resolvent constant K = integral of the one-form from 0 to the boundary
    fixed point `anchor`, truncated with an analytic tail bound.  To the
    attracting point it is the forward orbit of 0; to a repelling point, the
    straight segment to the petal anchor and then its backward orbit."""
    lam = complex(lam)
    gamma = fixed_point_gamma(anchor, s.p)
    if anchor.role == "denjoy_wolff":
        base = 0.0
        if not lam.real > gamma:
            raise OrbitIntegralError(
                f"divergent orbit integral: Re lambda = {lam.real} must "
                f"exceed gamma = {gamma} at the attracting point")
        rate = gamma - lam.real
        sign_t = 1.0
    else:
        base = s.petal_anchor(anchor)
        if not lam.real < gamma:
            raise OrbitIntegralError(
                f"divergent orbit integral: Re lambda = {lam.real} must be "
                f"below gamma = {gamma} at the repelling point")
        rate = lam.real - gamma
        sign_t = -1.0
    lam_t = -sign_t * lam

    # the orbit integrand decays at Re beta - Re lambda, not at gamma - Re lambda
    rate -= 2.0 * abs(anchor.alpha) / s.p
    rate_eff = rate + _TAIL_EPS
    if rate_eff >= 0.0:
        raise OrbitIntegralError(
            "tolerance failure: lambda within the tail margin of gamma",
            achieved=float("inf"))

    def integrand(t, z):
        return np.exp(lam_t * t + s._l(z)) * _eval_f(f, z)

    # truncation time from the sampled tail constant, inflated for safety;
    # T stops at the last sample of the leading run inside the disk (a nan
    # is outside), and the orbit nears zeta monotonically, so no node passes it
    tail_tol = quad_tol = 0.5 * tol
    T = 25.0
    while True:
        ts = np.linspace(T / 10.0, T, 17)
        z = orbit(s, base, anchor, ts)
        n = int(np.sum(np.logical_and.accumulate(np.abs(z) < 1.0)))
        bound = float("inf")
        if n:
            T, ts = float(ts[n - 1]), ts[:n]
            samples = np.abs(integrand(ts, z[:n])) * np.exp(-rate_eff * ts)
            bound = (_TAIL_INFLATE * float(np.max(samples))
                     * math.exp(rate_eff * T) / abs(rate_eff))
            if bound < tail_tol:
                break
        if n < z.size:
            raise OrbitIntegralError(
                f"tolerance failure: the orbit reached the unit circle before "
                f"its tail bound met tol (bound {bound:.3e})", achieved=bound)
        if T >= _T_MAX:
            raise OrbitIntegralError(
                f"tolerance failure: tail bound {bound:.3e} at T = {T}",
                achieved=bound)
        T = min(T * 1.6, _T_MAX)

    n_panels = max(1, int(math.ceil(T / _STEP)))
    k = np.arange(n_panels)
    panels = _adaptive_gl(lambda t, i: integrand(t, orbit(s, base, anchor, t)),
                          T * k / n_panels, T * (k + 1) / n_panels,
                          np.full(n_panels, quad_tol / n_panels))
    orbit_part = np.cumsum(np.append(0j, panels))[-1]   # panel by panel

    seg = (_segment_integrals(s, lam, f, np.array([complex(base)]), quad_tol)
           if base != 0 else [0j])        # the segment [0, 0] integrates to 0
    w0 = complex(eval_h(s, base))
    K = seg[0] + sign_t * np.exp(-lam * w0) * orbit_part
    return ResolventCertificate(lam, complex(K), bound, complex(anchor.zeta),
                                tol)


def resolvent_apply(s: Scenario, lam, f, cert: ResolventCertificate, z):
    """Resolvent solution F(z) = e^{lam h}/v * (K - segment integral to z), at
    a point (a complex) or at an array of points (an array of that shape)."""
    lam = complex(lam)
    if cert.lam != lam:
        raise EvaluationError("certificate was issued for a different lambda")
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > 0.999):
        raise EvaluationError("resolvent evaluation rejected for |z| > 0.999")
    seg = _segment_integrals(s, lam, f, z.ravel(), cert.tol).reshape(z.shape)
    out = eigenfunction(s, lam)(z) * (cert.K - seg)
    return complex(out) if out.ndim == 0 else out


def residual_check(s: Scenario, lam, f, F):
    """Max over `quasi_random_grid(20, 0.85)` of |lam F - F'/h' - g F - f|,
    with F' from the Cauchy integral on a small circle (F analytic,
    spectrally accurate).  F is called once, on the grid and every circle
    node together.  A non-finite residual anywhere makes the maximum NaN,
    which fails every tolerance."""
    lam = complex(lam)
    grid = quasi_random_grid(20, 0.85)
    radius, nodes = 0.02, 16
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    ring = grid[:, None] + radius * np.exp(1j * theta)
    vals = np.asarray(F(np.concatenate([grid, ring.ravel()])), dtype=complex)
    Fz, Fr = vals[:grid.size], vals[grid.size:].reshape(ring.shape)
    Fp = np.sum(Fr * np.exp(-1j * theta), axis=-1) / (nodes * radius)
    res = np.abs(lam * Fz - Fp / eval_h_prime(s, grid)
                 - generator_g(s, grid) * Fz - _eval_f(f, grid))
    return float(np.max(res, initial=0.0))


def nonsurjectivity_witness(s: Scenario, lam, f, held, tol):
    """Integral of the resolvent one-form between the first two repelling
    fixed points; a nonzero value certifies that lam - A is not surjective.
    A certificate in `held` (for this f) at lam and tol is not recomputed."""
    lam = complex(lam)
    reps = s.repelling_points()
    if len(reps) < 2:
        raise OrbitIntegralError("witness needs at least two repelling points")
    gammas = sorted(fixed_point_gamma(fp, s.p) for fp in reps)
    gamma2 = gammas[0]
    if not lam.real < gamma2:
        raise OrbitIntegralError(
            f"witness requires Re lambda < gamma_2 = {gamma2}")
    k1, k2 = (next((c for c in held if c.lam == lam and c.tol == tol
                    and c.anchor == fp.zeta), None)
              or orbit_integral_K(s, lam, f, fp, tol=tol) for fp in reps[:2])
    return k2.K - k1.K


# -- growth exponents -------------------------------------------------------

def coboundary_growth_exponent(s: Scenario, fp):
    """Re beta at fp, read off the radius by `beta_at`.  Along an orbit that
    meets fp nontangentially d/dt log v(phi_t) = g = v'/(v h'), so this is
    the limit of the orbit's log|v| slope, found without walking it."""
    return beta_at(s, fp).real
