"""Taylor-block membership, orbit-integral resolvents, growth exponents."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bergspec import numerics, scenario
from bergspec.errors import (EvaluationError, OrbitIntegralError,
                             PetalExitError, WindingError)
from bergspec.numerics import (MembershipVerdict, ResolventCertificate,
                               ap_norm_rings,
                               coboundary_growth_exponent,
                               eigen_identity_residual, eigenfunction,
                               nonsurjectivity_witness, orbit_integral_K,
                               residual_check, resolvent_apply)
from bergspec.regions import fixed_point_gamma, gammas_from
from bergspec.scenario import (FixedPointDatum, eval_h, make_builtin,
                               parse_scenario, quasi_random_grid)

ONE = lambda z: np.ones_like(np.asarray(z, dtype=complex))


# -- membership verdicts ----------------------------------------------------

def test_constant_function_convergent(strip_unweighted):
    v = ap_norm_rings(strip_unweighted, ONE)
    assert v.status == "convergent"
    assert abs(v.total - math.pi) < 1e-3
    assert v.fitted_exponent > 0.5


def test_threshold_family(strip_unweighted):
    s = strip_unweighted
    # |e^{a h}|^2 (1-|z|^2)... integrability flips at a = gamma0 = 1
    sub = lambda z: np.exp(0.5 * eval_h(s, z))
    sup = lambda z: np.exp(1.5 * eval_h(s, z))
    crit = lambda z: np.exp(1.0 * eval_h(s, z))
    assert ap_norm_rings(s, sub).status == "convergent"
    assert ap_norm_rings(s, sup).status == "divergent"
    assert ap_norm_rings(s, crit).status in ("inconclusive", "divergent")


def test_membership_monotone_in_exponent(strip_unweighted):
    s = strip_unweighted
    taus = [ap_norm_rings(s, lambda z, a=a: np.exp(a * eval_h(s, z))).fitted_exponent
            for a in (0.3, 0.6, 0.9)]
    assert taus[0] > taus[1] > taus[2]


@pytest.mark.parametrize("model", ["strip_weighted", "half_strip_weighted"])
def test_stacked_rows_match_single_lambda_calls(model, request):
    # lambda = 60 overflows F on the sample circle: that row is divergent,
    # with no blocks and no RuntimeWarning, and the other rows go on
    s = request.getfixturevalue(model)
    lams = [0.5 - 0.3j, 60.0, 1.5, -2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stacked = ap_norm_rings(s, eigenfunction(s, lams))
        single = [ap_norm_rings(s, eigenfunction(s, lam)) for lam in lams]
    assert stacked == single
    assert stacked[1] == MembershipVerdict("divergent", float("-inf"), (),
                                           float("inf"), 1024)
    assert [len(v.ring_integrals) for v in stacked[::2]] == [12, 12]


@pytest.mark.parametrize("make, lams, calls, reread", [
    pytest.param(lambda: make_builtin("strip_flow", 2.0), None, 9, 0,
                 id="2.0-9"),
    pytest.param(lambda: make_builtin("strip_flow", 3.0), None, 32, 0,
                 id="3.0-32"),
    pytest.param(lambda: make_builtin("strip_flow", 2.0, c=0.4, s=0.7),
                 [0.5, 2.0, -1.5], 9, 0, id="real-eigenfunction-9"),
    pytest.param(lambda: make_builtin("strip_flow", 2.0, c=0.4, s=0.7),
                 [0.5, 2.0 + 0.5j, -1.5], 16, 0, id="one-complex-row-16"),
    pytest.param(lambda: make_builtin("strip_flow", 2.0, c=0.4, s=0.7),
                 [0.5, 2.0 + 1e-3j, -1.5], 16, 0, id="nearly-real-row-16"),
    pytest.param(lambda: make_builtin("trident", 2.0, d=0.5), [0.5, -1.5], 16,
                 0, id="trident-z-minus-i-16"),
    pytest.param(lambda: _twin("strip_flow", 0.4, 0.7, 0.0, " * exp(i*pi)"),
                 [0.5, 2.0, -1.5], 9, 0, id="complex-constant-real-row-9"),
    pytest.param(lambda: _principal_pow_half_strip(), [-1.5, 0.5, 2.0], 16,
                 16, id="principal-pow-16"),
    pytest.param(lambda: make_builtin("strip_flow", 3.0, c=0.4, s=0.7),
                 [0.5, 2.0, -1.5], 32, 32, id="real-eigenfunction-p3-32")])
def test_the_circle_is_read_in_sixteen_parts(monkeypatch, make, lams, calls,
                                              reread):
    # one f call per sub-circle, two passes when the phase is unwrapped.  At
    # p = 2 an f whose every row reflects on sub-circle 0 has real Taylor
    # coefficients and reads sub-circles 0..8 only, whatever its constants
    # (exp(i*pi) is one); a complex lam, even 2 + 1e-3i, the trident's z - i
    # factor, a principal pow whose cut lies on the real axis, or p != 2
    # reads all 16.  Each f is read at J = 2^10 on 1,024-point sub-circles;
    # `reread` more calls of 4,096 points read its unsure rows at J = 2^12:
    # the principal pow's (its jump on the axis bends their fits) and
    # p = 3's steep rows at 2.0 and -1.5
    s = make()
    if lams is None:
        sizes = []

        def f(z):
            sizes.append(z.size)
            return (1 - z) ** -0.6
    else:
        f, sizes = eigenfunction(s, lams), _hl_jet_sizes(monkeypatch)
    ap_norm_rings(s, f)
    assert sizes == [1024] * calls + [4096] * reread


def _hl_jet_sizes(monkeypatch):
    # the point count of each call an eigenfunction makes
    jets, sizes = numerics.eval_hl_jets, []
    monkeypatch.setattr(numerics, "eval_hl_jets", lambda s, z, order: (
        sizes.append(z.size) or jets(s, z, order)))
    return sizes


def _one_fft_blocks(f, p, J=numerics._TAYLOR_J):
    # blocks from one FFT over all n = 16J samples of f^{p/2}, the principal
    # power (f must lie off the negative axis when p != 2), with their
    # round-off floors
    n = numerics._SUBCIRCLES * J
    z = math.exp(-1.0 / J) * np.exp(2j * np.pi * np.arange(n) / n)
    g = np.atleast_2d(f(z))
    if p != 2.0:
        g = g ** (p / 2)
    a = np.fft.fft(g, axis=-1)[:, :2 * J] * np.exp(np.arange(2 * J) / J) / n
    w = np.abs(a) ** 2 / np.arange(1, 2 * J + 1)
    edges = [0] + [2 ** k for k in range(J.bit_length() + 1)]
    blocks = math.pi * np.stack([w[:, lo:hi].sum(axis=1)
                                 for lo, hi in zip(edges, edges[1:])], axis=1)
    floor = math.pi * (numerics._ROUNDOFF * np.max(np.abs(g), axis=1)) ** 2
    return blocks, floor


@pytest.mark.parametrize("p, lams", [
    pytest.param(2.0, None, id="power-p2"),
    pytest.param(3.0, None, id="power-p3"),
    pytest.param(2.0, [0.5, 2.0, -1.5], id="stacked-eigenfunction")])
def test_blocks_match_one_fft_over_the_whole_circle(strip_weighted, p, lams):
    # the sub-circle assembly is the n-point DFT: each block agrees with the
    # one-FFT reference to 1e-12 relative, plus round-off.  A coefficient
    # carries round-off of about eps max|f^{p/2}|, 1e-3 of the floor's
    # 1e-13 max|f^{p/2}|, which moves a block B by about 2e-3 sqrt(B floor);
    # the allowance is five times that
    if lams is None:
        s, f = make_builtin("strip_flow", p), lambda z: (1 - z) ** -0.6
    else:
        s, f = strip_weighted, eigenfunction(strip_weighted, lams)
    got = ap_norm_rings(s, f)
    got = got if isinstance(got, list) else [got]
    ref, floor = _one_fft_blocks(f, p)
    assert len(got) == len(ref)
    for v, r, fl in zip(got, ref, floor):
        assert v.J == numerics._TAYLOR_J
        b = np.array(v.ring_integrals)
        assert np.all(np.abs(b - r) <= 1e-12 * r + 1e-2 * np.sqrt(r * fl))


# scenarios whose (h, l) tape has only real constants: at a real lam their
# eigenfunction has real Taylor coefficients
REAL_TAPES = {
    "strip": lambda: make_builtin("strip_flow", 2.0, a=2.0, c=0.3, s=0.6,
                                  d=0.2),
    "half_strip": lambda: make_builtin("half_strip", 2.0, c=0.3, s=0.6, d=0.1),
    "trident": lambda: make_builtin("trident", 2.0, c=0.1, s=0.2),
    "strip_twin": lambda: _twin("strip_flow", 0.3, 0.6, 0.2),
}
REAL_LAMS = [-1.5, 0.5, 2.0]


@pytest.mark.parametrize("name", sorted(REAL_TAPES))
def test_a_real_row_reflects_exactly(name):
    # F(conj z) == conj F(z) at 20,000 disk points and on a sub-circle of the
    # Taylor circle, and so do the jets of h and l that F is built from:
    # numpy's arithmetic and principal branches are conjugation-symmetric
    # (up to the sign of a zero imaginary part at a real point), which is
    # what lets ap_norm_rings read such a row from half the circle
    s = REAL_TAPES[name]()
    F = eigenfunction(s, REAL_LAMS)
    S = numerics._SUBCIRCLES
    n = S * numerics._TAYLOR_J
    sub = math.exp(-1.0 / numerics._TAYLOR_J) * np.exp(
        2j * np.pi * (S * np.arange(n // S) + 3) / n)
    z = np.concatenate([quasi_random_grid(20000, 0.999), sub])
    np.testing.assert_array_equal(F(z.conj()), F(z).conj())
    for got, ref in zip(scenario.eval_hl_jets(s, z.conj(), 1),
                        scenario.eval_hl_jets(s, z, 1)):
        for slot in ("f", "d1"):
            np.testing.assert_array_equal(getattr(got, slot),
                                          getattr(ref, slot).conj())


def _full_read(monkeypatch, s, f):
    # ap_norm_rings(s, f) with every row read from all 16 sub-circles: no
    # row reflects to a negative tolerance
    with monkeypatch.context() as m:
        m.setattr(numerics, "_REAL_TOL", -1.0)
        return ap_norm_rings(s, f)


@pytest.mark.parametrize("name", sorted(REAL_TAPES))
def test_a_real_row_read_from_half_the_circle_matches_the_full_read(
        monkeypatch, name):
    # equal statuses and J, and blocks within the tolerance of
    # test_blocks_match_one_fft_over_the_whole_circle, against a read of
    # all 16 sub-circles.  The trident's row at -1.5 (tau -0.001) is unsure
    # at J = 2^10 and is read again at 2^12, in both reads
    s = REAL_TAPES[name]()
    F = eigenfunction(s, REAL_LAMS)
    sizes = _hl_jet_sizes(monkeypatch)
    half = ap_norm_rings(s, F)
    full = _full_read(monkeypatch, s, F)
    again = name == "trident"
    assert sizes == ([1024] * 9 + [4096] * 9 * again
                     + [1024] * 16 + [4096] * 16 * again)
    floors = {J: _one_fft_blocks(F, 2.0, J)[1] for J in (1024, 4096)}
    for i, (h, f) in enumerate(zip(half, full)):
        assert h.status == f.status and h.J == f.J
        fl = floors[h.J][i]
        b, r = np.array(h.ring_integrals), np.array(f.ring_integrals)
        assert b.shape == r.shape
        assert np.all(np.abs(b - r) <= 1e-12 * r + 1e-2 * np.sqrt(r * fl))


def _principal_pow_half_strip():
    # half_strip c = 0.3, s = 0.3 with its weight as a principal-branch
    # pow(h', -0.3): h' < 0 on the real diameter, so v jumps across it
    u = "(1-z)/(1+z)"
    root = f"sqrt(1 + ({u})^2)"
    h = f"log({u} + {root}) - {math.log1p(math.sqrt(2.0))!r}"
    return parse_scenario(f"p = 2\nmodel = expression\nh_expr = {h}\n"
                          f"v_expr = exp(0.3*({h})) * pow(-2/((1+z)^2*{root}), "
                          "-0.3)\nfp = (-1, 1.0, 0.0, dw)\n")


def test_a_row_that_is_not_real_on_the_real_axis_reads_the_whole_circle(
        monkeypatch):
    # the principal pow's jump makes F not real at z = +-rho, though every
    # constant is real.  Half the circle would miss that jump (tau -0.539
    # against -0.552 at lam = 2), so the row reads all 16 sub-circles and
    # its verdict is bitwise that of the full read.  Every row is unsure at
    # J = 2^10, so all 16 are read again at 2^12
    s = _principal_pow_half_strip()
    F = eigenfunction(s, REAL_LAMS)
    full = _full_read(monkeypatch, s, F)
    sizes = _hl_jet_sizes(monkeypatch)
    assert ap_norm_rings(s, F) == full
    assert sizes == [1024] * 16 + [4096] * 16


def test_a_three_row_call_stays_within_its_memory(strip_weighted):
    # measured 0.32 MB with numpy 2.4.6, every row sure at J = 2^10.  The
    # bound is a J = 2^12 read of all three rows, 0.92 MB (the 2J
    # coefficients of each row, 0.39 MB, and one 4,096-point f call), plus
    # 20%; there keeping the tape's dead slots read 1.38 MB, an F that is
    # not computed in place 1.18 MB, and 8 sub-circles of 8,192 points
    # 1.45 MB
    F = eigenfunction(strip_weighted, [0.5, 2.0, -1.5])
    ap_norm_rings(strip_weighted, F)      # compiles the tape
    tracemalloc.start()
    try:
        ap_norm_rings(strip_weighted, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1e6


def test_a_three_row_call_at_p3_stays_within_its_memory():
    # measured 0.93 MB with numpy 2.4.6: the rows at 2.0 and -1.5 are read
    # again at J = 2^12.  The bound is a J = 2^12 read of all three rows,
    # 1.16 MB (the p = 2 call's 0.86 MB plus the unwrapped phase and the
    # raw sub-circle that the next phase step reads), plus 8%; there keeping
    # the first pass's phases and building f^{p/2} through temporaries read
    # 1.68 MB
    s = make_builtin("strip_flow", 3.0, c=0.4, s=0.7)
    F = eigenfunction(s, [0.5, 2.0, -1.5])
    ap_norm_rings(s, F)                   # compiles the tape
    tracemalloc.start()
    try:
        ap_norm_rings(s, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25e6


def _exact_blocks(b, J):
    # blocks of pi sum |a_j|^2 / (j + 1), j < 2J, for (1 - z)^{-b}, whose
    # Taylor coefficients are Gamma(j + b) / (Gamma(b) j!)
    two_j = 2 * J
    log_a = [math.lgamma(j + b) - math.lgamma(b) - math.lgamma(j + 1)
             for j in range(two_j)]
    w = np.exp(2 * np.array(log_a)) / np.arange(1, two_j + 1)
    edges = [0] + [2 ** k for k in range(J.bit_length() + 1)]
    return [math.pi * np.sum(w[lo:hi]) for lo, hi in zip(edges, edges[1:])]


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("a", [0.25, 0.6, 1.2])
def test_tau_of_power_singularity_matches_exact_coefficients(p, a):
    # |(1 - z)^{-a}|^p = |(1 - z)^{-p a / 2}|^2, so tau = 2 - p a; the
    # fit on the exact blocks has the same finite-k offset as ours
    s = make_builtin("strip_flow", p)
    v = ap_norm_rings(s, lambda z: (1 - z) ** -a)
    exact = numerics._fit_tau(_exact_blocks(p * a / 2, v.J), 0.0)[0]
    assert abs(v.fitted_exponent - exact) < 1e-3
    assert abs(exact - (2 - p * a)) < 0.01
    assert v.status == ("convergent" if 2 - p * a > 0 else "divergent")


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("a", [0.5, 1.5])
def test_singularity_at_a_non_fixed_boundary_point(p, a):
    # strip_flow's fixed points are +-1; (z - i)^{-a} is singular at i alone,
    # where |f|^p = |(z - i)^{-p a / 2}|^2 gives tau = 2 - p a
    s = make_builtin("strip_flow", p)
    v = ap_norm_rings(s, lambda z: (z - 1j) ** -a)
    assert abs(v.fitted_exponent - (2 - p * a)) < 0.01
    assert v.status == ("convergent" if 2 - p * a > 0 else "divergent")


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_round_off_blocks_do_not_steer_the_fit(p):
    # exp(2 z^400) is entire, so in every A^p, but f^{p/2} has no Taylor
    # coefficient in 128 <= j < 256: that block is round-off and is left out
    # of the fit instead of pulling the slope toward divergence
    s = make_builtin("strip_flow", p)
    v = ap_norm_rings(s, lambda z: np.exp(2.0 * z ** 400))
    assert v.ring_integrals[-6] < 1e-25
    assert v.status == "convergent" and v.fitted_exponent > 4.0


def test_fewer_than_three_blocks_above_round_off_is_inconclusive(
        strip_unweighted):
    # 1 + z^1500 + z^5000: of the last six blocks only the last is above
    # round-off at J = 2^10, so the row is read again at 2^12, where two
    # are: too few to fit an exponent either time
    v = ap_norm_rings(strip_unweighted, lambda z: 1 + z ** 1500 + z ** 5000)
    assert v.status == "inconclusive" and math.isnan(v.fitted_exponent)
    assert v.J == 4096


@pytest.mark.parametrize("c, d", [(5.0, 1), (4.0, 400)])
def test_phase_is_unwrapped_past_pi(c, d):
    # arg exp(c z^d) passes +-pi on the circle, between neighbouring points
    # of one sub-circle too when d = 400; |exp(c z^d)|^3 = |exp(1.5 c z^d)|^2,
    # whose Taylor coefficients are (1.5 c)^k / k! at j = d k
    s = make_builtin("strip_flow", 3.0)
    v = ap_norm_rings(s, lambda z: np.exp(c * z ** d))
    exact = math.pi * math.fsum(
        math.exp(2 * (k * math.log(1.5 * c) - math.lgamma(k + 1))) / (d * k + 1)
        for k in range(2 * v.J // d + 1))
    assert v.total == pytest.approx(exact, rel=1e-12)


def test_zero_inside_the_circle_is_a_winding_error():
    # |f|^p = |f^{p/2}|^2 needs a zero-free f when p != 2
    s = make_builtin("strip_flow", 3.0)
    with pytest.raises(WindingError, match="winds 1 times"):
        ap_norm_rings(s, lambda z: (z - 0.5) * np.exp(z))


def test_constant_eigenfunction_has_round_off_blocks(strip_unweighted):
    # F = 1 at lambda = 0: every block after the first is round-off, so the
    # verdict is convergent with tau = inf
    s = strip_unweighted
    v = ap_norm_rings(s, eigenfunction(s, 0.0))
    assert v.status == "convergent" and v.fitted_exponent == float("inf")
    assert v.ring_integrals[0] == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("model, weights, lam, local", [
    ("trident", {"c": 0.0, "s": -1.2}, 2 + 1j, -0.4),
    ("half_strip", {"c": 0.0, "s": 2.5}, -3.0, -0.5)])
def test_non_fixed_contact_point_divergence_is_seen(model, weights, lam,
                                                    local):
    # F diverges at a boundary point that is not a fixed point (trident's
    # slit tip z = 1, half_strip's corners +-i); the blocks see it.
    # half_strip's row fits with residual 0.062 at J = 2^10, where it reads
    # tau -0.649, so it is read again at 2^12, where it reads -0.575
    s = make_builtin(model, 2.0, **weights)
    v = ap_norm_rings(s, eigenfunction(s, lam))
    assert v.status == "divergent"
    assert abs(v.fitted_exponent - local) < 0.1
    assert v.J == (4096 if model == "half_strip" else 1024)



# -- the two reads: J = 2^10 for every row, 2^12 for an unsure one -----------

def test_a_stack_of_sure_and_unsure_rows_matches_single_lambda_calls():
    # unsure rows: -3 and -1 by their fit residuals (0.087, 0.050), 1.0 by
    # its tau (-0.003) near the band; each is read again on its own terms
    s = make_builtin("half_strip", 2.0, c=0.3, s=0.3)
    lams = [-3.0, 0.5, -1.0, 2.0 + 0.5j, 1.0]
    stacked = ap_norm_rings(s, eigenfunction(s, lams))
    single = [ap_norm_rings(s, eigenfunction(s, lam)) for lam in lams]
    assert stacked == single
    assert [v.J for v in stacked] == [4096, 1024, 4096, 1024, 4096]


def test_the_p3_caveat_rows_keep_their_exponents():
    # the README's aliasing caveat quotes these two J = 2^12 exponents; both
    # rows fit unsurely at 2^10 and are read again
    s = make_builtin("strip_flow", 3.0, c=0.4, s=0.7)
    got = ap_norm_rings(s, eigenfunction(s, [-1.5, 2.0]))
    assert [v.J for v in got] == [4096, 4096]
    assert [v.fitted_exponent for v in got] == pytest.approx(
        [-5.268, -4.831], abs=1e-3)


# the verdict of each row read at J = 2^12 alone, as every row was read
# before the two reads: status and tau
_STRIP = ("strip_flow", {"c": 0.4, "s": 0.7})
_TRIDENT = ("trident", {"c": 0.0, "s": 0.1, "d": 0.5})
_HALF = ("half_strip", {"c": 0.3, "s": 0.3})
FULL_READ_ROWS = [
    (_STRIP, -1.5, "divergent", -3.1992),
    (_STRIP, -0.5, "divergent", -1.2004),
    (_STRIP, 0.5, "convergent", 0.4117),
    (_STRIP, 0.65, "inconclusive", 0.0995),
    (_STRIP, 0.75, "divergent", -0.1007),
    (_STRIP, 2.0, "divergent", -2.5999),
    (_STRIP, 2.0 + 0.5j, "divergent", -2.6001),
    (_TRIDENT, -3.0, "divergent", -2.2001),
    (_TRIDENT, -1.5, "divergent", -0.7004),
    (_TRIDENT, 0.5, "convergent", 0.8052),
    (_TRIDENT, 2.0, "divergent", -2.2011),
    (_HALF, -3.0, "convergent", 1.8699),
    (_HALF, -1.5, "convergent", 1.8001),
    (_HALF, -1.0, "convergent", 1.7703),
    (_HALF, 0.5, "convergent", 1.0003),
    (_HALF, 2.0, "divergent", -2.0012),
    (("trident", {"c": 0.0, "s": -1.2}), 2.0 + 1j, "divergent", -0.3942),
    (("half_strip", {"c": 0.0, "s": 2.5}), -3.0, "divergent", -0.5751),
]


@pytest.mark.parametrize("model, lam, status, tau", FULL_READ_ROWS,
                         ids=[f"{m[0]}-s{m[1]['s']}-{lam}"
                              for m, lam, *_ in FULL_READ_ROWS])
def test_the_two_reads_keep_each_full_read_verdict(model, lam, status, tau):
    s = make_builtin(model[0], 2.0, **model[1])
    v = ap_norm_rings(s, eigenfunction(s, lam))
    assert v.status == status
    assert abs(v.fitted_exponent - tau) < 0.05


# -- eigenfunctions ---------------------------------------------------------

def test_eigen_identity_residual_small(strip_unweighted):
    assert eigen_identity_residual(strip_unweighted, 0.5, 1.0) < 1e-9
    assert eigen_identity_residual(strip_unweighted, -0.25 + 0.4j, 0.7) < 1e-9


def test_eigen_identity_residual_weighted(trident_weighted):
    assert eigen_identity_residual(trident_weighted, -1.5, 1.0) < 1e-9


def test_stacked_identity_residuals_match_single_lambda_calls(trident_weighted):
    # one flow of the grid serves every lambda, bitwise as one call each
    s, lams = trident_weighted, [-1.5, 0.5 - 0.3j, 2.0]
    single = [eigen_identity_residual(s, lam, 0.7) for lam in lams]
    assert all(type(r) is float for r in single)
    assert eigen_identity_residual(s, lams, 0.7) == single


def test_eigenfunction_membership_tracks_strip(strip_unweighted):
    s = strip_unweighted  # gamma0 = 1, gamma1 = -1
    assert ap_norm_rings(s, eigenfunction(s, 0.5)).status == "convergent"
    assert ap_norm_rings(s, eigenfunction(s, 1.5)).status == "divergent"
    assert ap_norm_rings(s, eigenfunction(s, 1.0)).status != "convergent"


# -- orbit integrals and resolvents -----------------------------------------

def test_forward_orbit_integral_closed_form(strip_unweighted):
    # unweighted, f constant 1, anchored at the attracting point from base
    # z = 0 (h(0) = 0): K = int_0^inf e^{-lam t} dt = 1/lam
    s = strip_unweighted
    for lam in (2.0, 3.0):
        cert = orbit_integral_K(s, lam, ONE, s.dw_point(), tol=1e-10)
        assert abs(cert.K - 1.0 / lam) < 1e-10
        assert cert.tail_bound < 1e-9



@pytest.mark.parametrize("lam", [2.0, 0.8 + 1.5j])
def test_a_denjoy_wolff_K_integrates_no_segment(lam, monkeypatch):
    # the segment from 0 to the base 0 integrates to exactly +0 + 0j, so
    # skipping it leaves K's bits as they were; a petal anchor still pays it
    s = make_builtin("strip_flow", 2.0, c=0.4, s=0.7)
    assert numerics._segment_integrals(s, lam, ONE, np.array([0j]),
                                       5e-9)[0].tobytes() == bytes(16)
    calls = []
    segment = numerics._segment_integrals
    monkeypatch.setattr(numerics, "_segment_integrals",
                        lambda *a: calls.append(a) or segment(*a))
    orbit_integral_K(s, lam, ONE, s.dw_point(), tol=1e-8)
    assert calls == []
    orbit_integral_K(s, -2.0, ONE, s.repelling_points()[0], tol=1e-8)
    assert len(calls) == 1

def test_resolvent_constant_right_of_gamma0(strip_unweighted):
    s = strip_unweighted
    lam = 2.0
    cert = orbit_integral_K(s, lam, ONE, s.dw_point(), tol=1e-10)
    F = lambda z: resolvent_apply(s, lam, ONE, cert, z)
    pts = quasi_random_grid(20, 0.85)
    vals = np.array([F(z) for z in pts])
    assert np.max(np.abs(vals - 0.5)) < 1e-8
    assert residual_check(s, lam, ONE, F) < 1e-8


def test_resolvent_gap_anchor_trident(trident_weighted):
    s = trident_weighted  # gammas (1, -1, -2)
    lam = -1.5
    reps = s.repelling_points()
    anchor = max(reps, key=lambda fp: 2 * fp.alpha / s.p + fp.beta_re)
    cert = orbit_integral_K(s, lam, ONE, anchor, tol=1e-9)
    F = lambda z: resolvent_apply(s, lam, ONE, cert, z)
    assert residual_check(s, lam, ONE, F) < 1e-5
    # one array call agrees with a call per point
    pts = quasi_random_grid(20, 0.85).reshape(4, 5)
    each = np.array([[F(z) for z in row] for row in pts])
    assert isinstance(F(pts[0, 0]), complex)
    assert np.max(np.abs(F(pts) - each) / np.abs(each)) < 1e-15


def _resolvent(s, lam, f=ONE):
    """K and residual of the resolvent of f certified at lam, anchored as
    `verify` does."""
    if lam > gammas_from(s.fixed_points, s.p).gamma0:
        anchor = s.dw_point()
    else:
        anchor = max(s.repelling_points(), key=lambda fp: fixed_point_gamma(fp, s.p))
    cert = orbit_integral_K(s, lam, f, anchor, tol=1e-9)
    return cert.K, residual_check(s, lam, f, lambda z: resolvent_apply(s, lam, f, cert, z))


@pytest.mark.parametrize("s_", [0.3, 0.7])
@pytest.mark.parametrize("name,weights,sides", [
    pytest.param("half_strip", dict(c=0.2), ("right",), id="half_strip"),
    pytest.param("trident", dict(c=0.2, d=0.3), ("right", "gap"), id="trident")])
def test_weighted_resolvent_on_both_sides(name, weights, sides, s_):
    # the s-factor (+-h')^{-s} must be one analytic branch: h' < 0 on the
    # whole real diameter of both models, where pow(h', -s) would jump
    s = make_builtin(name, 2.0, s=s_, **weights)
    g = gammas_from(s.fixed_points, s.p)
    for side in sides:
        lam = g.gamma0 + 1.0 if side == "right" else g.gamma2 - 1.0
        assert _resolvent(s, lam)[1] < 1e-5, (side, lam)


@pytest.mark.parametrize("lam", [2.0, -1.0])
def test_a_scalar_valued_f_is_broadcast_to_the_points(strip_weighted, lam):
    # f = 1 returned as one Python float, not an array of the points' shape:
    # the one-form and the residual broadcast it, so K and the residual are
    # bitwise those of np.ones_like, right of gamma0 and in the gap
    got = _resolvent(strip_weighted, lam, lambda z: 1.0)
    ref = _resolvent(strip_weighted, lam)
    assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in ref]


@pytest.mark.parametrize("s_", [0.3, 0.7])
def test_half_strip_resolvent_constant_is_real(s_):
    # a real-symmetric model gives a real K at real lambda
    s = make_builtin("half_strip", 2.0, c=0.2, s=s_)
    K = orbit_integral_K(s, 1.52, ONE, s.dw_point(), tol=1e-9).K
    assert abs(K.imag) <= 1e-12 * abs(K)


def test_residual_check_fails_on_a_non_finite_value(strip_unweighted):
    grid = quasi_random_grid(20, 0.85)
    zero = lambda z: np.zeros_like(np.asarray(z, dtype=complex))
    F = lambda z: np.where(np.asarray(z) == grid[7], np.nan, 0.0)
    assert residual_check(strip_unweighted, 0.5, zero, zero) == 0.0
    assert math.isnan(residual_check(strip_unweighted, 0.5, zero, F))


def test_orbit_integral_rejects_wrong_half_plane(strip_unweighted):
    s = strip_unweighted
    with pytest.raises(OrbitIntegralError):
        # Re lam < gamma0
        orbit_integral_K(s, 0.5, ONE, s.dw_point(), tol=1e-9)


def test_witness_step_halving_reproducible(trident_unweighted, monkeypatch):
    s = trident_unweighted
    ident = lambda z: np.asarray(z, dtype=complex)
    w1 = nonsurjectivity_witness(s, -3.0, ident, (), tol=1e-9)
    monkeypatch.setattr(numerics, "_STEP", 0.25)   # halve the panels
    w2 = nonsurjectivity_witness(s, -3.0, ident, (), tol=1e-9)
    assert abs(w1) > 1e-6
    assert abs(w1 - w2) < 1e-8


def _trident_anchored_at(re, c, s, d):
    """The built-in trident with its petal anchors at Re w = re on the
    petal midlines Im w = +-pi/4, in place of zeta (1 - 2^-6)."""
    b = make_builtin("trident", 2.0, c=c, s=s, d=d)
    anchors = [b._closed_inverse(complex(re, m))
               for m in (math.pi / 4, -math.pi / 4)]
    return scenario.Scenario(
        b.p, b.kind, h=b._h, v=b._v, fixed_points=b.fixed_points,
        weights=b.weights, closed_inverse=b._closed_inverse,
        in_omega=b._in_omega, petal_anchors=anchors, params=b.params)


# the weighted rows are item 3's criterion at tol 1e-12: from an anchor
# within about 1e-7 of -i, K toward -i passes the budget of 2^18 panel
# estimates on its first orbit panel
@pytest.mark.parametrize("c,s,d,lam", [(0.0, 0.0, 0.0, -3.0),
                                       (0.3, 0.6, 0.2, -0.6)] + [
    (c, s, d, lam) for c, s, d in ((0.0, 0.1, 0.5), (0.2, 0.3, 0.3))
    for lam in (-2.0, -2.4, -2.8)])
def test_a_repelling_K_does_not_depend_on_its_petal_anchor(c, s, d, lam):
    # K runs from 0 to the fixed point on any path: a straight segment to the
    # anchor, then its backward orbit.  The built-in anchor zeta (1 - 2^-6)
    # maps to Re w = -2.08, inside each petal and off the slit; from
    # Re w = -1 the orbit part is a larger share of K and from Re w = -4 a
    # smaller one, so an orbit panel that is off by 1e-8 shows here
    ident = lambda z: np.asarray(z, dtype=complex)
    builtin = make_builtin("trident", 2.0, c=c, s=s, d=d)
    for fp in builtin.repelling_points():
        ref = orbit_integral_K(builtin, lam, ident, fp, tol=1e-12).K
        for re in (-1.0, -4.0):
            got = orbit_integral_K(_trident_anchored_at(re, c, s, d), lam,
                                   ident, fp, tol=1e-12).K
            assert abs(got - ref) < 1e-12, (fp.zeta, re)


def test_witness_degenerate_for_constant_data(trident_unweighted):
    # with v = 1 the one-form has a global primitive, so the witness vanishes
    w = nonsurjectivity_witness(trident_unweighted, -3.0, ONE, (), tol=1e-9)
    assert abs(w) < 1e-8


# -- adaptive quadrature ----------------------------------------------------

def test_the_gauss_legendre_table_is_numpys_rule():
    # six nodes and weights mirrored stand for leggauss(12), so importing
    # bergspec loads no numpy.polynomial
    x, w = np.polynomial.legendre.leggauss(12)
    eps = np.finfo(float).eps
    assert np.max(np.abs(numerics._GL_X - x)) <= 2 * eps
    assert np.max(np.abs(numerics._GL_W - w)) <= 2 * eps
    src = str(Path(numerics.__file__).parents[1])
    probe = ("import sys, bergspec; "
             "sys.exit('numpy.polynomial' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


def _depth_first_gl(func, a, b, tol, order=12, max_depth=48):
    """Scalar reference: the depth-first recursion, one interval at a time."""
    x, w = np.polynomial.legendre.leggauss(order)

    def estimate(lo, hi):
        half = 0.5 * (hi - lo)
        return np.sum(half * w * func(0.5 * (lo + hi) + half * x))

    total = 0.0 + 0.0j
    stack = [(a, b, tol, estimate(a, b), 0)]
    while stack:
        lo, hi, tl, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left, right = estimate(lo, mid), estimate(mid, hi)
        if abs(left + right - coarse) <= tl or depth >= max_depth:
            total += left + right
        else:
            stack.append((mid, hi, 0.5 * tl, right, depth + 1))
            stack.append((lo, mid, 0.5 * tl, left, depth + 1))
    return complex(total)


def test_adaptive_gl_intervals_are_independent():
    # 300 intervals, more than one evaluation chunk, refined to many depths
    k = np.arange(300)
    freq, shift = 1.0 + 0.37 * k, 0.02 * (1 + k % 7)
    a, b = 0.01 * k, 0.01 * k + 1.0 + k % 3
    tol = np.full(k.size, 1e-10)
    f = lambda x, i: (np.exp(1j * freq[i, None] * x)
                      / (x - a[i, None] + shift[i, None]))
    together = numerics._adaptive_gl(f, a, b, tol)
    assert k.size > numerics._GL_CHUNK
    for j in range(k.size):
        alone = numerics._adaptive_gl(lambda x, i: f(x, i + j), a[j:j + 1],
                                      b[j:j + 1], tol[j:j + 1])
        assert together[j] == alone[0]
    # each interval adds its panels in the depth-first recursion's order
    for j in (0, 57, 128, 299):
        assert together[j] == _depth_first_gl(lambda x: f(x, np.array([j]))[0],
                                              a[j], b[j], tol[j])


def test_adaptive_gl_raises_at_the_depth_cap():
    # on [0, 2^-d] the rule's estimate of the integral of 1/x does not depend
    # on d, so the panel at 0 never passes
    with pytest.raises(OrbitIntegralError, match="halvings"):
        numerics._adaptive_gl(lambda x, i: 1.0 / x, [0.0], [1.0], [1e-9])
    with pytest.raises(OrbitIntegralError, match="not finite"):
        numerics._adaptive_gl(lambda x, i: np.where(x < 0.5, 1.0, np.nan),
                              [0.0], [1.0], [1e-9])


def test_adaptive_gl_raises_past_its_budget():
    # an absolute tolerance below the round-off of the estimates: nearly
    # every panel splits at every depth, so the live panels double until the
    # next depth would pass the budget, which refuses before evaluating it
    panels = []

    def f(x, i):
        panels.append(x.shape[0])
        return np.exp(30j * x)

    with pytest.raises(OrbitIntegralError,
                       match=r"budget of 262144 panel estimates, with "
                             r"interval 0 \[0, 1\] unfinished"):
        numerics._adaptive_gl(f, [0.0], [1.0], [1e-300])
    assert numerics._GL_BUDGET // 2 < sum(panels) <= numerics._GL_BUDGET


def test_an_orbit_integral_of_a_function_with_a_pole_ends_at_the_budget(
        strip_weighted):
    # f = 1/(z - 0.5) has a pole on the strip's forward orbit of 0, the real
    # axis toward z = 1, so the orbit quadrature splits next to it without
    # end; it must refuse at the budget, naming the interval, in bounded
    # time and memory
    s = strip_weighted
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(OrbitIntegralError,
                           match=r"budget of 262144 panel estimates, with "
                                 r"interval 2 \[1, 1\.5\] unfinished"):
            orbit_integral_K(s, 2.0, lambda z: 1 / (z - 0.5), s.dw_point(),
                             1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 5.0
    assert peak < 100e6


# -- growth exponents -------------------------------------------------------

def test_growth_exponents_strip(strip_weighted):
    s = strip_weighted  # (c, s) = (0.4, 0.7): beta_dw = -0.3, beta_rep = 1.1
    fwd = coboundary_growth_exponent(s, s.dw_point())
    bwd = coboundary_growth_exponent(s, s.repelling_points()[0])
    assert abs(fwd - (-0.3)) < 0.05 * 0.3
    assert abs(bwd - 1.1) < 0.05 * 1.1


def test_growth_exponents_trident_weighted(trident_weighted):
    s = trident_weighted
    for fp in s.repelling_points():
        slope = coboundary_growth_exponent(s, fp)
        assert abs(slope - fp.beta_re) < 0.05 * max(abs(fp.beta_re), 0.4)


@pytest.mark.parametrize("name,weights", [
    pytest.param("strip_flow", dict(c=0.4, s=0.7), id="strip_flow"),
    pytest.param("half_strip", dict(c=0.4, s=0.7), id="half_strip"),
    pytest.param("trident", dict(d=0.5), id="trident"),
    pytest.param("trident", dict(c=0.2, s=0.3, d=0.3), id="trident_csd")])
def test_growth_exponent_at_every_fixed_point(name, weights):
    # the orbit's direction comes from the role: forward to the attracting
    # point, backward to each repelling one
    s = make_builtin(name, 2.0, **weights)
    for fp in s.fixed_points:
        slope = coboundary_growth_exponent(s, fp)
        assert abs(slope - fp.beta_re) < 0.05 * max(abs(fp.beta_re), 0.4), fp


# expression twins of the built-ins, written as the newton benchmark writes
# them: the same h, v and declared data, inverted by Newton continuation
_TWINS = {
    "strip_flow": ("log(1+z) - log(1-z)", "2/(1-z^2)", "1+z",
                   lambda c, s, d: [("1", 1, c - s, "dw"),
                                    ("-1", -1, c + s + d, "rep")]),
    "trident": ("0.5*log(1+z^2) - log(1+z)", "z/(1+z^2) - 1/(1+z)", "z - i",
                lambda c, s, d: [("-1", 1, c - s, "dw"),
                                 ("i", -2, c + 2 * (s + d), "rep"),
                                 ("-i", -2, c + 2 * s, "rep")]),
}


def _twin(model, c, s, d, extra=""):
    # extra: more factors of v, which the cocycle does not see when they are
    # constant
    h, hprime, d_factor, fps = _TWINS[model]
    lines = ["p = 2", "model = expression", f"h_expr = {h}",
             f"v_expr = exp({c}*({h})) * pow({hprime}, -{s})"
             f" * pow({d_factor}, {d}){extra}"]
    lines += [f"fp = ({z}, {a}, {b}, {role})" for z, a, b, role in fps(c, s, d)]
    return parse_scenario("\n".join(lines) + "\n")


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


@pytest.mark.parametrize("model, c, s, d", [
    pytest.param("strip_flow", 0.4, 0.7, 0.15, id="strip_flow"),
    pytest.param("trident", 0.0, 0.1, 0.5, id="trident")])
def test_growth_exponent_of_a_twin_needs_no_orbit(monkeypatch, model, c, s, d):
    # the radial readout meets each declared beta far inside the 5% bound,
    # and walks no orbit: no Newton continuation runs
    tw = _twin(model, c, s, d)
    calls = (_counting(monkeypatch, scenario, "_continuation_invert")
             + _counting(monkeypatch, numerics, "_continuation_invert"))
    for fp in tw.fixed_points:
        assert abs(coboundary_growth_exponent(tw, fp) - fp.beta_re) < 1e-6, fp
    assert not calls


def test_alpha_flows_every_radius_in_one_call(monkeypatch):
    # one continuation per fixed point, where a flow per radius made 33, and
    # bitwise the quotient limit of flowing each radius on its own
    tw = _twin("trident", 0.0, 0.1, 0.5)
    calls = _counting(monkeypatch, scenario, "_continuation_invert")
    got = [scenario.alpha_at(tw, fp) for fp in tw.fixed_points]
    assert len(calls) == 3
    for fp, alpha in zip(tw.fixed_points, got):
        zeta = complex(fp.zeta)
        quot = [-np.log((zeta - scenario.flow(tw, 1.0, z)) / (zeta - z))
                for z in ((1.0 - 2.0 ** -k) * zeta for k in scenario._RADII_K)]
        assert alpha == scenario.richardson(quot[-4:]).real
        assert abs(alpha - fp.alpha) < 1e-4


def test_an_orbit_walk_takes_long_legs_toward_its_limit(monkeypatch):
    # the first tail samples of orbit_integral_K, to T = 25: one correction
    # next to zeta and two legs of 2 in w back to the earliest samples, where
    # a walk from the base point took 13 corrector calls (100 in legs of 0.25)
    tw = _twin("strip_flow", 0.4, 0.7, 0.15)
    steps = _counting(monkeypatch, scenario, "_newton_step_batch")
    z = scenario.orbit(tw, 0.0, tw.dw_point(), np.linspace(2.5, 25, 17))
    assert np.all(np.abs(z) < 1.0)
    assert len(steps) <= 4


@pytest.mark.parametrize("model, c, s, d", [
    pytest.param("trident", 0.0, 0.1, 0.5, id="trident"),
    pytest.param("trident", 0.2, 0.3, 0.3, id="trident-weighted"),
    pytest.param("strip_flow", 0.4, 0.7, 0.15, id="strip_flow"),
    pytest.param("strip_flow", 0.3, 0.6, 0.0, id="strip_flow-d0")])
def test_orbit_walks_match_the_closed_form_orbits(model, c, s, d):
    # the forward orbit and each backward petal orbit, far into their limit
    # points, where an iterate could pass the residual floor of _converged
    # while still off the orbit
    tw, ref = _twin(model, c, s, d), make_builtin(model, 2.0, c=c, s=s, d=d)
    t = np.array([0.5, 1, 2, 5, 10, 15, 20, 25])
    orbits = [(0.0, ref.dw_point())] + [
        (ref.petal_anchor(fp), fp) for fp in ref.repelling_points()]
    for base, fp in orbits:
        got = scenario.orbit(tw, base, fp, t)
        want = scenario.orbit(ref, base, fp, t)
        assert np.max(np.abs(got - want)) <= 1e-15, fp.zeta


def test_an_orbit_point_rounded_onto_its_limit_stays_there(monkeypatch):
    # far along the orbit the start next to zeta = 1 rounds onto it, where h
    # is singular: the point is returned there, uncorrected, and the tail
    # loop's run of samples inside the disk ends before it
    tw = _twin("strip_flow", 0.4, 0.7, 0.15)
    steps = _counting(monkeypatch, scenario, "_newton_step_batch")
    z = scenario.orbit(tw, 0.0, tw.dw_point(), np.array([40.0, 60.0, 200.0]))
    assert np.all(np.abs(z) <= 1.0)
    assert np.all(z == 1.0) and not steps


def test_orbit_integrals_on_threads_match_their_serial_values():
    # the threads share the scenario's cache of compiled tapes, where a race
    # only compiles a tape twice: every K matches its serial value
    lams = [1.6, 1.8, 2.0, 2.2, 2.4, 2.6]
    tw = _twin("strip_flow", 0.4, 0.7, 0.15)
    serial = [orbit_integral_K(tw, lam, ONE, tw.dw_point(), tol=1e-9).K
              for lam in lams]
    tw = _twin("strip_flow", 0.4, 0.7, 0.15)
    got = {}

    def run(lam):
        got[lam] = orbit_integral_K(tw, lam, ONE, tw.dw_point(), tol=1e-9).K

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(lam,)) for lam in lams]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for lam, K in zip(lams, serial):
        assert abs(got[lam] - K) <= 1e-12 * abs(K), lam


@pytest.mark.parametrize("lam", [1.0, 1 + 2j])
def test_trident_exp_log_twin_orbit_integral_matches_the_builtin(lam):
    # the tail decays at Re beta_0 - Re lam = -0.1 - Re lam, so the loop stops
    # at T = 25; bounded at gamma_0 - Re lam it walked the twin's orbit until
    # Newton lost it next to z = -1
    h = "0.5*log(1+z^2) - log(1+z)"
    twin = parse_scenario(
        f"p = 2\nmodel = expression\nh_expr = {h}\n"
        f"v_expr = exp(0.2*({h})) * exp(-0.3*(log(1-z) - log(1+z^2) - log(1+z)))\n"
        "fp = (-1, 1, -0.1, dw)\nfp = (i, -2, 0.8, rep)\nfp = (-i, -2, 0.8, rep)\n")
    ref = make_builtin("trident", 2.0, c=0.2, s=0.3)
    got = orbit_integral_K(twin, lam, ONE, twin.dw_point(), tol=1e-9)
    want = orbit_integral_K(ref, lam, ONE, ref.dw_point(), tol=1e-9)
    assert abs(got.K - want.K) <= 1e-9


# -- guards and failures of the orbit integrals -------------------------------

def test_orbit_integral_diverges_above_gamma_at_a_repelling_point(
        strip_weighted):
    rep = strip_weighted.repelling_points()[0]   # gamma = 0.1
    with pytest.raises(OrbitIntegralError, match="at the repelling point"):
        orbit_integral_K(strip_weighted, 0.5, ONE, rep, tol=1e-9)


def test_orbit_integral_refuses_lambda_within_the_tail_margin():
    # the tail decays at Re beta - Re lambda = gamma - 2|alpha|/p - Re lambda,
    # so the margin is reachable above gamma only where 2|alpha|/p is below it
    s = make_builtin("strip_flow", 50.0, c=0.4, s=0.7)
    dw = s.dw_point()
    assert 2.0 * abs(dw.alpha) / s.p < numerics._TAIL_EPS
    lam = fixed_point_gamma(dw, s.p) + 0.1 * numerics._TAIL_EPS
    with pytest.raises(OrbitIntegralError, match="tail margin"):
        orbit_integral_K(s, lam, ONE, dw, tol=1e-9)


def test_orbit_integral_fails_when_no_truncation_time_meets_tol(
        trident_weighted):
    # the backward orbit rounds onto +-i long before the cap T = 200, which
    # only slow orbits reach (the strip at a = 0.15 below); the tail loop
    # stops at its first sample on the circle, with the bound it had there
    with pytest.raises(OrbitIntegralError, match="reached the unit circle") as ei:
        orbit_integral_K(trident_weighted, -2.5, ONE,
                         trident_weighted.repelling_points()[0], tol=1e-300)
    assert 1e-300 < ei.value.achieved < 1e-20


@pytest.mark.parametrize("anchor, shift", [(0, 1.3), (1, -1.3)],
                         ids=["dw", "rep"])
def test_orbit_integral_fails_at_the_cap_on_an_orbit_inside_the_disk(
        anchor, shift):
    # at a = 0.15 the strip's orbits reach z = +-1 only near t = 250, so
    # every tail sample to T = 200 lies inside the disk: bounds about 3e-122
    # forward and 5e-124 backward
    s = make_builtin("strip_flow", 2.0, a=0.15, c=0.4, s=0.7)
    fp = s.fixed_points[anchor]
    lam = fixed_point_gamma(fp, s.p) + shift
    with pytest.raises(OrbitIntegralError, match="at T = 200") as ei:
        orbit_integral_K(s, lam, ONE, fp, tol=1e-300)
    assert 0 < ei.value.achieved < 1e-100


@pytest.mark.parametrize("a,tol", [(1.0, 1e-300), (20.0, 1e-9)])
def test_orbit_integral_refuses_once_its_orbit_reaches_the_circle(a, tol):
    # the strip's inverse rounds onto z = 1 near Re w = 37/a: at a = 1 the
    # tail loop gets there only for a tiny tol; at a = 20 it is there before
    # the first sample, t = 2.5, so no sample is left to bound the tail
    s = make_builtin("strip_flow", 2.0, a=a, c=0.4, s=0.7)
    lam = fixed_point_gamma(s.dw_point(), s.p) + 1.3
    with pytest.raises(OrbitIntegralError, match="reached the unit circle"):
        orbit_integral_K(s, lam, ONE, s.dw_point(), tol=tol)


def test_a_backward_orbit_that_leaves_the_image_domain_raises(
        half_strip_weighted):
    # h(0) = 0, and the half strip's image ends at Re w = -log(1 + sqrt 2),
    # the image of z = 1, which a repelling datum there makes a backward orbit
    rep = FixedPointDatum(1.0 + 0j, -1.0, 0.0)
    with pytest.raises(PetalExitError):
        scenario.orbit(half_strip_weighted, 0.0, rep, np.array([0.5, 5.0]))


def test_resolvent_apply_rejects_a_certificate_for_another_lambda(
        strip_weighted):
    cert = ResolventCertificate(2.0 + 0j, 0j, 0.0, 1.0 + 0j, 1e-9)
    with pytest.raises(EvaluationError, match="different lambda"):
        resolvent_apply(strip_weighted, 1.5, ONE, cert, 0.3)


def test_resolvent_apply_rejects_points_near_the_circle(strip_weighted):
    cert = ResolventCertificate(2.0 + 0j, 0j, 0.0, 1.0 + 0j, 1e-9)
    with pytest.raises(EvaluationError, match="0.999"):
        resolvent_apply(strip_weighted, 2.0, ONE, cert,
                        np.array([0.3, 0.9995j]))


def test_the_witness_needs_two_repelling_points(strip_weighted):
    with pytest.raises(OrbitIntegralError, match="two repelling points"):
        nonsurjectivity_witness(strip_weighted, -2.0, ONE, (), tol=1e-9)


def test_the_witness_needs_lambda_below_gamma_2(trident_weighted):
    # the trident's repelling gammas are -1 and -2
    with pytest.raises(OrbitIntegralError, match="gamma_2"):
        nonsurjectivity_witness(trident_weighted, -1.5, ONE, (),
                                tol=1e-9)


# -- Bergman growth bound ---------------------------------------------------

def test_pointwise_growth_bound(strip_unweighted):
    # |F(z)| (1 - |z|^2) <= 1.05 * ||F||_2 near the boundary
    s = strip_unweighted
    lam = 0.5
    F = eigenfunction(s, lam)
    norm = math.sqrt(ap_norm_rings(s, F).total / math.pi)
    theta = 2 * np.pi * np.arange(64) / 64
    z = 0.99 * np.exp(1j * theta)
    lhs = np.abs(F(z)) * (1 - np.abs(z) ** 2)
    assert np.max(lhs) <= 1.05 * norm
