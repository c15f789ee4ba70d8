"""Independent 30-digit references for the numpy quadrature (dev-only).

The references evaluate weighted strip_flow from its closed forms with mpmath
and integrate with mpmath's own rules, sharing no code with bergspec's
numpy path:
    h = (log(1 + z) - log(1 - z)) / a,  h' = 2 / (a (1 - z^2)),
    v = e^{c h} h'^{-s}.
"""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from bergspec import numerics
from bergspec.expr import Jet
from bergspec.scenario import make_builtin

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


def test_ring_integral_matches_mpmath(strip):
    # second ring, 1/2 < |z| < 3/4, of |e^{lam h}/v|^p r dr dtheta.  The
    # integrand is analytic up to |z| = 1, so in theta the trapezoid rule
    # converges like (3/4)^n and in r a 30-point Gauss-Legendre rule like
    # (2 + sqrt 3)^-60: both far below 30 digits
    lam, n = 0.5, 256
    with mp.workdps(30):
        nodes, weights = mp.mp.gauss_quadrature(30, "legendre")
        ref = mp.mpf(0)
        for x, w in zip(nodes, weights):
            r = (5 + x) / 8
            circle = sum(abs(mp.exp(lam * _h(zk)) / _v(zk)) ** P
                         for zk in (r * mp.expjpi(mp.mpf(2 * k) / n)
                                    for k in range(n)))
            ref += w / 8 * r * circle * 2 * mp.pi / n
        ref = float(ref)
    got = numerics.ap_norm_rings(strip, numerics.eigenfunction(strip, lam))
    assert abs(got.ring_integrals[1] - ref) <= 1e-12 * ref


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
    got = Jet(f, order=0).log().f
    with mp.workdps(30):
        ref = np.array([complex(mp.log(mp.mpc(x.real, x.imag))) for x in f])
    assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1, np.abs(ref)))


@pytest.mark.parametrize("f, arg", [(complex(-1, -0.0), -np.pi),
                                    (complex(-1, 0.0), np.pi)])
def test_jet_log_branch_follows_signed_zero(f, arg):
    # the cut is np.log's: the sign of a zero imaginary part picks the side
    for x in (f, np.array([f, f])):
        got = Jet(x, order=0).log().f
        assert np.all(got == complex(0, arg))
        assert np.all(got == np.log(x))
