"""Independent 30-digit references for the numpy quadrature (dev-only).

The references evaluate weighted strip_flow and half_strip from their closed
forms with mpmath and integrate with mpmath's own rules, sharing no code with
bergspec's numpy path (along the strip's orbits h = w, so its orbit
integrals are integrals in w):
    strip:      h = (log(1 + z) - log(1 - z)) / a,  h' = 2 / (a (1 - z^2)),
                v = e^{c h} h'^{-s};
    half_strip: u = (1 - z)/(1 + z),  h = asinh(u) - asinh(1),
                h^{-1}(w) = (1 - sinh(w + asinh 1)) / (1 + sinh(w + asinh 1)),
                v = e^{c h} (-h')^{-s}, -h' = 2 / ((1 + z)^2 sqrt(1 + u^2)).
"""

import math
import warnings

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from bergspec import numerics
from bergspec.expr import Jet
from bergspec.scenario import make_builtin, parse_scenario
from bergspec.truncation import build_matrix

P, A, C, S = 2.0, 1.0, 0.4, 0.7


def _h(z):
    return (mp.log(1 + z) - mp.log(1 - z)) / A


def _h_prime(z):
    return 2 / (A * (1 - z * z))


def _v(z):
    return mp.exp(C * _h(z)) * mp.power(_h_prime(z), -S)


@pytest.fixture(scope="module")
def strip():
    return make_builtin("strip_flow", P, a=A, c=C, s=S)


def test_resolvent_segment_integral_matches_mpmath(strip):
    # integral of e^{-lam h} h' v dz along the segment from 0 to z
    lam, z = 2.0 - 0.5j, 0.6 + 0.5j
    with mp.workdps(30):
        lam_m, z_m = mp.mpc(lam), mp.mpc(z)
        ref = mp.quad(lambda u: mp.exp(-lam_m * _h(u * z_m)) * _h_prime(u * z_m)
                      * _v(u * z_m) * z_m, [0, 1])
        ref = complex(ref)
    one = lambda x: np.ones_like(np.asarray(x, dtype=complex))
    got = numerics._segment_integrals(strip, lam, one, np.array([z]), 1e-9)[0]
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("lam,toward", [(2.0, 1.0), (-1.5, -1.0)])
def test_orbit_integral_matches_mpmath(strip, lam, toward):
    # along the orbit h = w, so v = e^{c w} (a/2)^s cosh(a w/2)^{-2s}, and
    # toward z = 1 K = int_0^inf e^{-lam w} v dw, toward the repelling point
    # z = -1 K = -int_{-inf}^0 e^{-lam w} v dw
    with mp.workdps(30):
        def one_form(w):
            return (mp.exp((C - lam) * w) * mp.power(mp.mpf(A) / 2, S)
                    * mp.cosh(A * w / 2) ** (-2 * S))

        if toward > 0:
            ref = float(mp.quad(one_form, [0, mp.inf]))
        else:
            ref = -float(mp.quad(one_form, [-mp.inf, 0]))
    (fp,) = [f for f in strip.fixed_points if f.zeta == toward]
    one = lambda x: np.ones_like(np.asarray(x, dtype=complex))
    cert = numerics.orbit_integral_K(strip, lam, one, fp, tol=1e-9)
    assert abs(cert.K - ref) <= 1e-9


def _strip_twin(c, s):
    # the expression twin of strip_flow at a = 1, d = 0, written as the newton
    # benchmark writes it: every orbit point comes from Newton continuation
    h = "log(1+z) - log(1-z)"
    return parse_scenario(
        f"p = 2\nmodel = expression\nh_expr = {h}\n"
        f"v_expr = exp({c:.6f}*({h})) * pow(2/(1-z^2), -{s:.6f})"
        " * pow(1+z, 0.000000)\n"
        f"fp = (1, 1, {c - s:.6f}, dw)\nfp = (-1, -1, {c + s:.6f}, rep)\n")


@pytest.mark.parametrize("c,s,lam,model,tol", [
    pytest.param(c, s, lam, model, tol,
                 id=f"{c}-{s}-{lam}" + ("-builtin" if model == "builtin" else "")
                 + (f"-{tol:g}" if tol != 1e-9 else ""))
    for c, s, lam, model, tol in [
        (0.3, 0.6, 1.0, "twin", 1e-9), (0.4, 0.7, 1.2, "twin", 1e-9),
        (0.4, 0.7, 0.8, "twin", 1e-9), (0.4, 0.7, 0.76, "twin", 1e-9),
        (0.4, 0.7, 0.8, "builtin", 1e-9), (0.4, 0.7, 0.76, "builtin", 1e-9),
        (0.4, 0.7, 0.8, "builtin", 1e-14), (0.4, 0.7, 0.76, "builtin", 1e-14)]])
def test_twin_orbit_integral_matches_mpmath(c, s, lam, model, tol):
    # slowly decaying orbits, at Re beta - lam = c - s - lam; the first row
    # needs the orbit walk centered on z = 1 (in legs of 0.25 around 0 its
    # inversion failed), and at lam = 0.8 and 0.76 a tail bounded at
    # gamma_0 - lam walked the orbit onto z = 1 (the built-in exited 2 and
    # the twin 4).  At tol 1e-14 the built-in's tail loop walks to where
    # its inverse rounds onto z = 1, and stops before it
    with mp.workdps(30):
        ref = float(mp.quad(lambda w: mp.exp((c - lam) * w) * mp.power(
            mp.mpf(1) / 2, s) * mp.cosh(w / 2) ** (-2 * s), [0, mp.inf]))
    scn = (_strip_twin(c, s) if model == "twin"
           else make_builtin("strip_flow", P, c=c, s=s))
    one = lambda x: np.ones_like(np.asarray(x, dtype=complex))
    cert = numerics.orbit_integral_K(scn, lam, one, scn.dw_point(), tol=tol)
    assert abs(cert.K - ref) <= tol


def test_taylor_block_matches_mpmath(strip, monkeypatch):
    # block 8 <= j < 16 of pi sum |a_j|^2 / (j + 1) over the Taylor
    # coefficients of F = e^{lam h}/v.  F is analytic in the unit disk, so
    # the n-point trapezoid rule on |z| = 1/2 gives a_j up to the alias
    # a_{j+n} 2^-n, far below 30 digits at n = 128
    lam, n = 0.5, 128
    with mp.workdps(30):
        roots = [mp.expjpi(mp.mpf(2 * k) / n) for k in range(n)]
        vals = [mp.exp(lam * _h(w / 2)) / _v(w / 2) for w in roots]
        coef = [2 ** j * mp.fsum(v * roots[-j * k % n]
                                 for k, v in enumerate(vals)) / n
                for j in range(8, 16)]
        ref = float(mp.pi * mp.fsum(abs(a) ** 2 / (j + 1)
                                    for j, a in enumerate(coef, start=8)))
    F = numerics.eigenfunction(strip, lam)
    # on 16J points of |z| = e^{-1/J} the alias a_{j+n} rho^{j+n} of a_j is
    # damped by e^{-16} (here |a_j| also falls with j)
    got = numerics.ap_norm_rings(strip, F).ring_integrals[4]
    assert abs(got - ref) <= 2 * math.exp(-16) * ref
    # on 32J points the alias, e^{-32}, is below round-off
    monkeypatch.setattr(numerics, "_SAMPLES", 32 * numerics._TAYLOR_J)
    got = numerics.ap_norm_rings(strip, F).ring_integrals[4]
    assert abs(got - ref) <= 1e-12 * ref


def _half_strip_entries(c, s, t, entries, n=128):
    # M[j,k] = sqrt((k+1)/(j+1)) a_j(u_t phi_t^k), the Taylor coefficient
    # from an n-point trapezoid on |z| = 1/2; its alias a_{j+n} 2^{-n} is
    # below 1e-30 at n = 128
    def h(z):
        return mp.asinh((1 - z) / (1 + z)) - mp.asinh(1)

    def h_inv(w):
        sh = mp.sinh(w + mp.asinh(1))
        return (1 - sh) / (1 + sh)

    def v(z):
        u = (1 - z) / (1 + z)
        minus_dh = 2 / ((1 + z) ** 2 * mp.sqrt(1 + u * u))
        return mp.exp(c * h(z)) * mp.exp(-s * mp.log(minus_dh))

    with mp.workdps(30):
        zs = [mp.expjpi(mp.mpf(2 * m) / n) / 2 for m in range(n)]
        zts = [h_inv(h(z) + t) for z in zs]
        us = [v(zt) / v(z) for z, zt in zip(zs, zts)]
        out = {}
        for j, k in entries:
            a_j = sum(u * zt ** k * z ** -j for z, zt, u in zip(zs, zts, us)) / n
            out[j, k] = complex(mp.sqrt(mp.mpf(k + 1) / (j + 1)) * a_j)
    return out


def test_galerkin_entries_match_mpmath():
    # weighted half_strip, N = 8, t = 0.8, one entry from each part of the
    # section: corner, interior, last diagonal
    c, s, t, N = 0.3, 0.6, 0.8, 8
    M = build_matrix(make_builtin("half_strip", P, c=c, s=s), t, N).entries
    ref = _half_strip_entries(c, s, t, [(0, 0), (3, 2), (7, 7)])
    for (j, k), val in ref.items():
        assert abs(M[j, k] - val) <= 1e-12 * np.max(np.abs(M)), (j, k)


def _log_points():
    rng = np.random.default_rng(12)
    n = 200
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    sign = rng.choice([-1, 1], n)
    return {
        "unit_circle": phase * (1 + sign * 10.0 ** rng.uniform(-14, -12, n)),
        "negative_axis": -rng.uniform(0.01, 100, n)
                         + 1j * sign * 10.0 ** rng.uniform(-300, -8, n),
        "moduli": phase * 10.0 ** np.linspace(-300, 300, n),
        "generic": rng.standard_normal(n) + 1j * rng.standard_normal(n),
    }


@pytest.mark.parametrize("name", ["unit_circle", "negative_axis", "moduli",
                                  "generic"])
def test_jet_log_matches_mpmath(name):
    # the real-arithmetic log|f| + i atan2 is weakest where log|f| is near 0
    # and next to the branch cut; compare with a 30-digit log of the same
    # doubles
    f = _log_points()[name]
    got = Jet(f).log().f
    with mp.workdps(30):
        ref = np.array([complex(mp.log(mp.mpc(x.real, x.imag))) for x in f])
    assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1, np.abs(ref)))


@pytest.mark.parametrize("f, arg", [(complex(-1, -0.0), -np.pi),
                                    (complex(-1, 0.0), np.pi)])
def test_jet_log_branch_follows_signed_zero(f, arg):
    # the cut is np.log's: the sign of a zero imaginary part picks the side
    for x in (f, np.array([f, f])):
        got = Jet(x).log().f
        assert np.all(got == complex(0, arg))
        assert np.all(got == np.log(x))


def test_jet_log_beyond_the_largest_modulus():
    # |f| overflows to inf here although log|f| is about 710
    big = np.array([1.7e308 * (1 + 1j), -1.5e308 * (1 + 1j)])
    got = Jet(big).log().f
    ref = np.log(big)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - ref) <= 2e-16 * np.abs(ref))
    # the ordinary points of the same array keep their bits
    small = np.array([0.3 - 0.4j, -2.0 + 0j])
    mixed = Jet(np.concatenate([small, big])).log().f
    assert mixed[:2].tobytes() == Jet(small).log().f.tobytes()


@pytest.mark.parametrize("f", [1e308 * (1 + 1j), 1.7e308 * (1 + 1j)])
def test_jet_log_derivative_beyond_the_largest_modulus(f):
    # |Re f| + |Im f|, which numpy's complex division forms, overflows here
    # (and at 1.7e308 so does |f|), while log f and 1/f are finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = Jet(np.array([f]), np.ones(1, complex)).log()
    with mp.workdps(30):
        log_ref = complex(mp.log(mp.mpc(f.real, f.imag)))
        ref = complex(1 / mp.mpc(f.real, f.imag))
    assert np.isfinite(got.f[0]) and abs(got.f[0] - log_ref) <= 2e-16 * abs(log_ref)
    # 1/f is subnormal, so round-off is counted in its ulps
    assert abs(got.d1[0] - ref) <= 2 * math.ulp(abs(ref))
