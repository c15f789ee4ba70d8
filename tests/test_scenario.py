"""Scenario models: flow/cocycle laws, generators, inversion, config parsing."""

import re
import warnings

import numpy as np
import pytest

from bergspec import numerics, scenario
from bergspec.errors import (ConfigError, EvaluationError, InversionError,
                             ModelInconsistencyError, OutsideOmegaError,
                             PetalExitError)
from bergspec.expr import parse_expr
from bergspec.scenario import (FixedPointDatum, Scenario, alpha_at, beta_at,
                               cocycle, eval_h, eval_h_inverse, eval_h_prime,
                               eval_v, flow, generator_G, generator_g,
                               make_builtin, parse_complex, parse_scenario,
                               quasi_random_grid)
from bergspec.truncation import build_matrix

GRID = quasi_random_grid(100, 0.9)


ALL_BUILTINS = ["strip_flow", "half_strip", "trident"]
WEIGHTS = [dict(c=0.4, s=0.7, d=0.0), dict(c=0.0, s=0.0, d=0.5)]


def _scenarios():
    out = []
    for name in ALL_BUILTINS:
        for w in WEIGHTS:
            out.append(pytest.param(name, w, id=f"{name}-c{w['c']}-s{w['s']}-d{w['d']}"))
    return out


@pytest.mark.parametrize("name,w", _scenarios())
def test_koenigs_conjugacy(name, w):
    s = make_builtin(name, 2.0, **w)
    for t in (0.3, 1.0):
        z = GRID
        lhs = eval_h(s, flow(s, t, z))
        rhs = eval_h(s, z) + t
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("name,w", _scenarios())
def test_semigroup_law(name, w):
    s = make_builtin(name, 2.0, **w)
    z = GRID
    lhs = flow(s, 0.7, flow(s, 0.4, z))
    rhs = flow(s, 1.1, z)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("name,w", _scenarios())
def test_cocycle_law(name, w):
    s = make_builtin(name, 2.0, **w)
    z = GRID
    lhs = cocycle(s, 0.4, z) * cocycle(s, 0.7, flow(s, 0.4, z))
    rhs = cocycle(s, 1.1, z)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("name,w", _scenarios())
def test_inverse_round_trip(name, w):
    s = make_builtin(name, 2.0, **w)
    z = GRID
    back = eval_h_inverse(s, eval_h(s, z))
    assert np.max(np.abs(back - z)) < 1e-10


@pytest.mark.parametrize("name,w", _scenarios())
def test_generator_times_h_prime_is_one(name, w):
    s = make_builtin(name, 2.0, **w)
    z = GRID
    assert np.max(np.abs(generator_G(s, z) * eval_h_prime(s, z) - 1.0)) < 1e-12


def _richardson_fd(sample, dt=2e-4):
    # central differences at dt and dt/2, extrapolated to fourth order
    c1 = (sample(dt) - sample(-dt)) / (2 * dt)
    c2 = (sample(dt / 2) - sample(-dt / 2)) / dt
    return (4 * c2 - c1) / 3


@pytest.mark.parametrize("name,w", _scenarios())
def test_flow_derivative_cross_check(name, w):
    # d/dt phi_t(z)|_{t=0} = G(z) by finite differences
    s = make_builtin(name, 2.0, **w)
    z = quasi_random_grid(100, 0.8)
    fd = _richardson_fd(lambda dt: flow(s, dt, z))
    assert np.max(np.abs(fd - generator_G(s, z))) < 1e-6


@pytest.mark.parametrize("name,w", _scenarios())
def test_cocycle_derivative_cross_check(name, w):
    # d/dt u_t(z)|_{t=0} = g(z) = v'/(v h')
    s = make_builtin(name, 2.0, **w)
    z = quasi_random_grid(100, 0.8)
    fd = _richardson_fd(lambda dt: cocycle(s, dt, z))
    assert np.max(np.abs(fd - generator_g(s, z))) < 1e-6


@pytest.mark.parametrize("name,sign", [("strip_flow", 1), ("half_strip", -1),
                                       ("trident", -1)])
def test_weight_log_is_a_log_of_h_prime(name, sign):
    # with s = -1 and no other factor the weight is exp(L), L the analytic
    # log of +-h' that the weight's s-factor is built from
    s = make_builtin(name, 2.0, s=-1.0)
    z = quasi_random_grid(2000, 0.999)
    hp = sign * scenario.eval_h_jet(s, z, 1).d1
    assert np.max(np.abs(eval_v(s, z) - hp) / np.abs(hp)) < 1e-13


def test_flow_at_zero_is_identity(strip_weighted):
    z = GRID
    assert np.max(np.abs(flow(strip_weighted, 0.0, z) - z)) < 1e-12
    assert np.max(np.abs(cocycle(strip_weighted, 0.0, z) - 1.0)) < 1e-12


def test_backward_flow_inverts_forward(trident_weighted):
    z = quasi_random_grid(50, 0.7)
    back = flow(trident_weighted, -0.5, flow(trident_weighted, 0.5, z))
    assert np.max(np.abs(back - z)) < 1e-9


# -- closed-form trident inverse --------------------------------------------

def test_trident_inverse_round_trip_to_the_slit_tip(trident_weighted):
    s = trident_weighted
    # a cluster around z = 1, the preimage of the slit tip, where h' vanishes
    theta = np.concatenate([-np.geomspace(0.05, 1e-4, 100), [0.0],
                            np.geomspace(1e-4, 0.05, 100)])
    near_tip = (np.linspace(0.99, 0.999, 10)[:, None] * np.exp(1j * theta)).ravel()
    z = np.concatenate([quasi_random_grid(2000, 0.999), near_tip])
    assert np.max(np.abs(eval_h_inverse(s, eval_h(s, z)) - z)) < 1e-12


@pytest.mark.parametrize("name,w,limit", [
    ("strip_flow", 1000 + 0.3j, 1.0), ("strip_flow", -1000 + 0.3j, -1.0),
    ("half_strip", 1000 + 0.3j, -1.0), ("trident", 1000 + 0.5j, -1.0),
    ("trident", -1000 + 0.5j, -1j), ("trident", -1000 - 0.5j, 1j)])
def test_closed_inverse_tends_to_the_boundary_limit(name, w, limit):
    # the closed form rounds onto the limit; eval_h_inverse hands back no
    # image on the circle
    s = make_builtin(name, 2.0)
    z = complex(s._closed_inverse(np.asarray(w)))
    assert abs(z) <= 1.0 and abs(z - limit) < 1e-15
    with pytest.raises(InversionError, match="rounded onto the unit circle"):
        eval_h_inverse(s, w)
    assert np.isfinite(flow(s, 1000.0, 0.3 + 0.2j))


@pytest.mark.parametrize("name, params, w", [
    ("strip_flow", dict(c=0.4, s=0.7), -3 + 1j * (np.pi / 2 - 1e-15)),
    ("trident", dict(c=0.0, s=0.1, d=0.5),
     -0.5 * np.log(2.0) - 3 + 1e-14j)])
def test_an_image_rounded_onto_the_circle_is_an_inversion_error(name, params,
                                                                w):
    # targets in Omega within rounding of its boundary: the closed inverse
    # gives 1 - |z| = 0, and the next eval_h would raise "on or outside the
    # unit disk", a config error, instead of a numerical failure
    s = make_builtin(name, 2.0, **params)
    assert abs(s._closed_inverse(np.asarray(w))) == 1.0
    for target in (w, np.array([0.1, w])):
        with pytest.raises(InversionError,
                           match=re.escape(f"w = {complex(w)} rounded")):
            eval_h_inverse(s, target)


def test_trident_petal_anchors_are_conjugate(trident_weighted):
    s = trident_weighted
    up, down = (s.petal_anchor(fp) for fp in s.repelling_points())
    assert up == down.conjugate()


def test_trident_slit_is_outside_omega(trident_weighted):
    with pytest.raises(OutsideOmegaError):
        eval_h_inverse(trident_weighted, -1.0)


# -- expression twins: Newton continuation against the closed forms ----------

TWINS = [
    pytest.param("strip_flow", dict(c=0.4, s=0.7), "log(1+z) - log(1-z)",
                 "exp(0.4*(log(1+z) - log(1-z))) * pow(2/(1-z^2), -0.7)", 12,
                 id="strip_flow"),
    pytest.param("trident", dict(d=0.5), "0.5*log(1+z^2) - log(1+z)",
                 "pow(z - i, 0.5)", 12, id="trident"),
]


def _twin(name, w, h_text, v_text):
    ref = make_builtin(name, 2.0, **w)
    return ref, Scenario(2.0, "expression", h=parse_expr(h_text),
                         v=parse_expr(v_text), fixed_points=ref.fixed_points)


@pytest.mark.parametrize("name,w,h_text,v_text,N", TWINS)
def test_expression_twin_matches_builtin(name, w, h_text, v_text, N):
    ref, twin = _twin(name, w, h_text, v_text)
    z = quasi_random_grid(200, 0.9)
    w_pts = eval_h(ref, z)
    assert np.max(np.abs(eval_h_inverse(twin, w_pts) - eval_h_inverse(ref, w_pts))) < 1e-10
    assert np.max(np.abs(flow(twin, 0.8, z) - flow(ref, 0.8, z))) < 1e-10
    if N is not None:
        diff = build_matrix(twin, 1.0, N).entries - build_matrix(ref, 1.0, N).entries
        assert np.max(np.abs(diff)) < 1e-10


# -- a built-in and an expression model that holds its text ----------------

OWN_TEXT = [("strip_flow", dict(c=0.38, s=0.69)),
            ("strip_flow", dict(c=0.4, s=0.7, d=0.15)),
            ("half_strip", dict(c=0.3, s=0.6)),
            ("half_strip", dict(c=-0.2, s=0.4, d=0.5)),
            ("trident", dict(c=-0.014, s=0.119, d=0.486)),
            ("trident", dict(c=0.2, s=-0.3))]


def _own_text_config(s):
    """A model = expression config of a built-in: its h and v text, fixed
    points and petal anchors."""
    roles = {"denjoy_wolff": "dw", "repelling": "rep"}
    lines = ["p = 2", "model = expression", f"h_expr = {s._h._text}",
             f"v_expr = {s._v._text}"]
    lines += [f"fp = ({f.zeta.real!r}{f.zeta.imag:+}i, {f.alpha!r}, "
              f"{f.beta_re!r}, {roles[f.role]})" for f in s.fixed_points]
    lines += [f"petal_anchor = {a.real!r}{a.imag:+}i"
              for a in map(s.petal_anchor, s.repelling_points())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, w", OWN_TEXT,
                         ids=[f"{n}-{'-'.join(map(str, w.values()))}"
                              for n, w in OWN_TEXT])
def test_a_builtin_and_its_own_text_agree_bitwise(name, w):
    # every built-in's h and v are parsed formula text, so an expression
    # model of that text runs the same tape: the same (h, l) jets bit for
    # bit on a ring sub-circle, and the same ring verdicts, since the ring
    # reads only the tape and never inverts
    ref = make_builtin(name, 2.0, **w)
    twin = parse_scenario(_own_text_config(ref))
    assert (twin._h._text, twin._v._text) == (ref._h._text, ref._v._text)
    S = numerics._SUBCIRCLES
    n = S * numerics._TAYLOR_J
    z = np.exp(-1.0 / numerics._TAYLOR_J) * np.exp(
        2j * np.pi * (1 + S * np.arange(n // S)) / n)
    for k in (0, 1):
        for a, b in zip(scenario.eval_hl_jets(ref, z, k),
                        scenario.eval_hl_jets(twin, z, k)):
            assert a.f.tobytes() == b.f.tobytes()
            assert (a.d1 is None and b.d1 is None) or (
                a.d1.tobytes() == b.d1.tobytes())
    lams = [-1.0, 0.2, 0.9 + 0.5j, 2.0]
    assert (numerics.ap_norm_rings(twin, numerics.eigenfunction(twin, lams))
            == numerics.ap_norm_rings(ref, numerics.eigenfunction(ref, lams)))


# flowing two points of this circle by t = 1 passes the trident's slit tip
# at a distance of 4.3e-5
SLIT_TIP_CIRCLE = 0.9944247566854857
SLIT_TIP_POINT = SLIT_TIP_CIRCLE * np.exp(2j * np.pi * 5 / 1024)


def _trident_twin():
    return _twin(*TWINS[1].values[:4])


def test_trident_twin_flows_past_the_slit_tip():
    ref, twin = _trident_twin()
    z = SLIT_TIP_CIRCLE * np.exp(2j * np.pi * np.arange(1024) / 1024)
    assert np.max(np.abs(flow(twin, 1.0, z) - flow(ref, 1.0, z))) < 1e-10


def test_continuation_decides_per_point(monkeypatch):
    # easy points take the same legs whether or not a hard point rides along
    ref, twin = _trident_twin()
    z = np.concatenate([[SLIT_TIP_POINT], quasi_random_grid(30, 0.9)])
    w = eval_h(twin, z)
    alone = scenario._continuation_invert(twin, w[1:] + 1.0, z[1:], w[1:])
    corrector = scenario._newton_step_batch
    calls = []

    def counted(s, z, target, center):
        calls.append(z.size)
        return corrector(s, z, target, center)

    monkeypatch.setattr(scenario, "_newton_step_batch", counted)
    both = scenario._continuation_invert(twin, w + 1.0, z, w)
    assert np.array_equal(both[1:], alone)
    assert abs(both[0] - flow(ref, 1.0, SLIT_TIP_POINT)) < 1e-10
    # past the slit tip the hard point goes back to long legs
    assert len(calls) < 64


def test_continuation_gives_up_on_a_point_that_never_converges(monkeypatch):
    _, twin = _trident_twin()
    z = quasi_random_grid(30, 0.9)
    w = eval_h(twin, z)
    corrector = scenario._newton_step_batch
    calls = []

    def stuck(s, z, target, center):
        # the first point's path is the only one at its height
        calls.append(z.size)
        z, ok = corrector(s, z, target, center)
        return z, ok & (target.imag != w[0].imag)

    monkeypatch.setattr(scenario, "_newton_step_batch", stuck)
    with pytest.raises(InversionError, match=r"\(residual \d\.\de[-+]\d+\)$") as err:
        scenario._continuation_invert(twin, w + 1.0, z, w)
    assert f"converge toward w = {complex(w[0] + 1.0)} (" in str(err.value)
    assert len(calls) <= scenario._LEG_DEPTH + 1


def test_continuation_resumes_long_legs_after_a_failed_legs_quarters(
        monkeypatch):
    _, twin = _trident_twin()
    z = quasi_random_grid(30, 0.9)
    w = eval_h(twin, z)
    want = scenario._continuation_invert(twin, w + 8.0, z, w)
    corrector = scenario._newton_step_batch
    calls = []

    def first_leg_fails(s, z, target, center):
        calls.append(z.size)
        z, ok = corrector(s, z, target, center)
        return z, ok & (len(calls) > 1)

    monkeypatch.setattr(scenario, "_newton_step_batch", first_leg_fails)
    got = scenario._continuation_invert(twin, w + 8.0, z, w)
    # the failed first leg in four quarters, then the three long legs left
    assert calls == [30] * 8
    assert np.max(np.abs(got - want)) < 1e-12


# orbits through this circle hug |z| = 1, where a straight Newton step leaves
# the disk
NEAR_BOUNDARY_CIRCLE = 0.9999981560634247


def test_near_circle_flow_takes_long_legs(monkeypatch):
    ref, twin = _twin(*TWINS[0].values[:4])
    z = NEAR_BOUNDARY_CIRCLE * np.exp(2j * np.pi * np.arange(1024) / 1024)
    corrector = scenario._newton_step_batch
    calls = []

    def counted(s, z, target, center):
        calls.append(z.size)
        return corrector(s, z, target, center)

    monkeypatch.setattr(scenario, "_newton_step_batch", counted)
    out = flow(twin, 1.0, z)
    # the points passed to the corrector: 4,111 in five calls walking legs
    # of 0.25 from z, where steps in z took 340 calls of 1,024
    assert sum(calls) <= 4111
    assert np.max(np.abs(out - flow(ref, 1.0, z))) < 1e-10
    assert np.all(np.abs(out) < 1.0)


@pytest.mark.parametrize("t", [5.0, 25.0])
@pytest.mark.parametrize("name,w,h_text,v_text,N", TWINS)
def test_a_long_flow_costs_a_bounded_number_of_corrector_calls(
        monkeypatch, name, w, h_text, v_text, N, t):
    # a flow is inverted from next to the Denjoy-Wolff point, so its
    # corrector calls do not grow with t
    ref, twin = _twin(name, w, h_text, v_text)
    z = quasi_random_grid(64, 0.9)
    corrector = scenario._newton_step_batch
    calls = []

    def counted(s, z, target, center):
        calls.append(z.size)
        return corrector(s, z, target, center)

    monkeypatch.setattr(scenario, "_newton_step_batch", counted)
    out = flow(twin, t, z)
    assert len(calls) <= 4
    assert np.max(np.abs(out - flow(ref, t, z))) < 1e-12


@pytest.mark.parametrize("radius", [1e-3, 0.49, 0.51, 0.98, 0.99, 1 - 1e-6])
@pytest.mark.parametrize("name,w,h_text,v_text,N", TWINS)
def test_inverse_round_trip_across_the_step_switch(monkeypatch, name, w,
                                                  h_text, v_text, N, radius):
    # trident targets just above the slit whose inverse started from the
    # nearest of a grid of seeds, just below it, crossed the slit: 1 of 64
    # failed at r = 0.98 and 15-16 at r >= 0.99.  A walk in from the right
    # stays on its side of the slit, and each point walks on its own
    ref, twin = _twin(name, w, h_text, v_text)
    z = radius * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    w_pts = eval_h(ref, z)
    corrector = scenario._newton_step_batch
    calls = []

    def counted(s, z, target, center):
        calls.append(z.size)
        return corrector(s, z, target, center)

    monkeypatch.setattr(scenario, "_newton_step_batch", counted)
    assert np.max(np.abs(eval_h_inverse(twin, w_pts) - eval_h_inverse(ref, w_pts))) < 1e-10
    # at r = 1 - 1e-6 the walk out from zeta in steps of log(zeta - z) was
    # halved out of the disk: 741 batches on the strip twin, 420 on the
    # trident twin; steps in u = -i log z take 6 and 36
    assert len(calls) <= 40


# next to the trident's slit tip z = 1, where h' = 0, a Newton step's basin
# shrinks with the distance to the critical value w_c = h(1) = -log(2)/2:
# targets on circles around w_c, targets w_c - x +- i eps just above and
# below the slit, and backward flows that pass w_c at heights 1e-2 to 1e-8,
# on the exp-log twin of trident c = 0, s = 0.1, d = 0.5
_W_C = -0.5 * np.log(2.0)
# a walk that passes w_c at distance r quarters its legs down to about r, at
# about three corrector batches per factor 4: past the cap of
# test_inverse_round_trip_across_the_step_switch from r ~ 1e-8 on
_PAST_THE_CAP = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 4: a walk that passes the critical "
    "value at distance r takes about 6 corrector batches per decade of r, "
    "over 40 from r ~ 1e-8; the images still meet 1e-10")


@pytest.mark.parametrize("case, r", [
    pytest.param("circle", 1e-4, id="circle-1e-4"),
    pytest.param("circle", 1e-8, id="circle-1e-8"),
    pytest.param("circle", 1e-10, id="circle-1e-10"),
    pytest.param("circle", 1e-12, id="circle-1e-12", marks=_PAST_THE_CAP),
    pytest.param("circle", 1e-14, id="circle-1e-14"),
    pytest.param("slit", 1e-4, id="slit-1e-4"),
    pytest.param("slit", 1e-8, id="slit-1e-8", marks=_PAST_THE_CAP),
    pytest.param("slit", 1e-12, id="slit-1e-12", marks=_PAST_THE_CAP),
    pytest.param("flow", None, id="flow"),
    pytest.param("builtin", 1e-12, id="builtin-circle-1e-12"),
    pytest.param("builtin", 1e-14, id="builtin-circle-1e-14")])
def test_walks_next_to_the_trident_critical_value(monkeypatch, case, r):
    # each row is one batch: every image within the twin tolerance 1e-10 of
    # its target (and of the built-in, where the built-in is well
    # conditioned), inside the disk, in at most 40 corrector batches.  The
    # builtin rows invert the circles' targets, some within 1e-15 of the
    # slit line, in closed form and compare in w through the twin's h:
    # z - 1 ~ sqrt(w - w_c) moves z by up to 5e-7 between the two
    ref = make_builtin("trident", 2.0, s=0.1, d=0.5)
    twin = Scenario(
        2.0, "expression", h=parse_expr("0.5*log(1+z^2) - log(1+z)"),
        v=parse_expr("exp(-0.1*(log(1-z) - log(1+z^2) - log(1+z)))"
                     " * pow(z - i, 0.5)"), fixed_points=ref.fixed_points)
    corrector = scenario._newton_step_batch
    calls = []

    def counted(s, z, target, center):
        calls.append(z.size)
        return corrector(s, z, target, center)

    monkeypatch.setattr(scenario, "_newton_step_batch", counted)
    if case == "flow":
        heights = 10.0 ** -np.arange(2, 9)
        w0 = _W_C + 1.0 + 1j * np.concatenate([heights, -heights])
        z0 = eval_h_inverse(ref, w0)
        z = flow(twin, -2.0, z0)
        w = w0 - 2.0
        assert np.max(np.abs(z - flow(ref, -2.0, z0))) < 1e-10
    else:
        if case == "slit":
            x = np.array([1e-3, 0.1, 1.0, 3.0])[:, None]
            w = (_W_C - x + np.array([1j, -1j]) * r).ravel()
        else:
            w = _W_C + r * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
        z = eval_h_inverse(ref if case == "builtin" else twin, w)
        if case == "slit":
            assert np.max(np.abs(z - eval_h_inverse(ref, w))) < 1e-10
    assert np.all(np.abs(z) < 1.0)
    assert np.max(np.abs(eval_h(twin, z) - w)) < 1e-10
    assert len(calls) <= 40


def test_an_overflowing_first_step_is_damped_into_the_disk(monkeypatch):
    # next to the trident's critical point z = 1, h' is small and a step in
    # log(zeta - z) overflows exp; the non-finite candidate is halved until
    # it lands inside the disk, without a RuntimeWarning
    _, twin = _trident_twin()
    z = np.array([0.999 + 0j])
    target = eval_h(twin, z) - 1.0 + 0.5j
    hj = twin._h.jet(z, 1)
    assert ((hj.f - target) / (hj.d1 * (-1.0 - z))).real[0] > 710
    monkeypatch.setattr(scenario, "_NEWTON_BUDGET", 0)   # the first step only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stepped, _ = scenario._newton_step_batch(twin, z, target, -1.0 + 0j)
    assert np.all(np.abs(stepped) < 1.0)


# -- declared invariants vs numerical extraction ----------------------------

@pytest.mark.parametrize("name,w", _scenarios())
def test_alpha_oracle_matches_declared(name, w):
    s = make_builtin(name, 2.0, **w)
    for fp in s.fixed_points:
        assert abs(alpha_at(s, fp) - fp.alpha) < 1e-4 * max(1.0, abs(fp.alpha))


@pytest.mark.parametrize("name,w", _scenarios())
def test_beta_oracle_matches_declared(name, w):
    s = make_builtin(name, 2.0, **w)
    for fp in s.fixed_points:
        if fp.beta_re == float("-inf"):
            continue
        b = beta_at(s, fp)
        assert abs(b.real - fp.beta_re) < 1e-5 * max(1.0, abs(fp.beta_re))


def test_backward_flow_out_of_the_image_domain_raises(half_strip_weighted):
    # h(0) = 0, and the half strip's image ends at Re w = -log(1 + sqrt 2)
    with pytest.raises(PetalExitError):
        flow(half_strip_weighted, -5.0, 0.0)


def test_alpha_oracle_rejects_a_wrong_declared_alpha(strip_weighted):
    wrong = FixedPointDatum(1.0 + 0j, 2.0, 0.0, role="denjoy_wolff")
    with pytest.raises(ModelInconsistencyError, match="alpha mismatch"):
        alpha_at(strip_weighted, wrong)


# the unweighted strip's h with a weight of the caller's choosing
STRIP_EXPR_CFG = ("p = 2\nmodel = expression\nh_expr = log((1+z)/(1-z))\n"
                  "fp = (1, 1.0, -inf, dw)\nfp = (-1, -1.0, 0.0, rep)\n")


def test_beta_oracle_reads_minus_infinity_where_g_falls_without_bound():
    # g = l'/h' = -(1+z)/(1-z)^2 for v = exp(-1/(1-z)^2)
    s = parse_scenario(STRIP_EXPR_CFG + "v_expr = exp(-1/(1-z)^2)\n")
    assert beta_at(s, s.dw_point()) == complex(float("-inf"), 0.0)


@pytest.mark.parametrize("s_", [500.0, 1500.0])
def test_beta_oracle_reads_a_finite_limit_far_below_minus_1e3(s_):
    # the strip's s weight: g falls toward its limit -s along the radius to
    # z = 1 (-1498.5 at r = 0.999 when s = 1500), so at s = 1500 the last
    # samples lie below -1e3 and keep falling, yet their limit converges
    s = make_builtin("strip_flow", 2.0, c=0.0, s=s_)
    fp = s.dw_point()
    assert fp.beta_re == -s_
    assert beta_at(s, fp).real == pytest.approx(-s_, rel=1e-9)


def test_beta_oracle_rejects_samples_that_oscillate():
    # l = ((1+z)/(1-z))^i = e^{ih}, so g = i e^{ih} turns forever toward z = 1
    s = parse_scenario(STRIP_EXPR_CFG + "v_expr = exp(pow((1+z)/(1-z), i))\n")
    with pytest.raises(EvaluationError, match="oscillatory"):
        beta_at(s, s.dw_point())


# -- validation and parsing -------------------------------------------------

def test_fixed_point_sign_validation():
    with pytest.raises(ConfigError):
        FixedPointDatum(1.0 + 0j, -1.0, 0.0, role="denjoy_wolff")
    with pytest.raises(ConfigError):
        FixedPointDatum(-1.0 + 0j, 2.0, 0.0, role="repelling")
    with pytest.raises(ConfigError):
        FixedPointDatum(0.5 + 0j, 1.0, 0.0, role="denjoy_wolff")


def test_exactly_one_attracting_point_required():
    rep = FixedPointDatum(1.0, -1.0, 0.0, role="repelling")
    for fps in ([rep], []):
        with pytest.raises(ConfigError, match="exactly one Denjoy-Wolff point"):
            Scenario(2.0, "parametric", fixed_points=fps)
    with pytest.raises(ConfigError, match="exactly one Denjoy-Wolff point"):
        Scenario(2.0, "expression", h=parse_expr("log(1+z) - log(1-z)"),
                 v=parse_expr("1"), fixed_points=[rep])


def test_petal_anchors_need_a_repelling_point():
    dw = FixedPointDatum(1.0, 1.0, 0.0, role="denjoy_wolff")
    with pytest.raises(ConfigError, match="repelling"):
        Scenario(2.0, "expression", h=parse_expr("log(1+z) - log(1-z)"),
                 v=parse_expr("1"), fixed_points=[dw], petal_anchors=[-0.5])


def test_p_validation():
    with pytest.raises(ConfigError):
        make_builtin("strip_flow", 0.5)


def test_parse_complex():
    assert parse_complex("0.5+0.2i") == 0.5 + 0.2j
    assert parse_complex("-1") == -1
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    with pytest.raises(ConfigError):
        parse_complex("banana")


def test_parse_scenario_builtin_round_trip():
    s = parse_scenario("p = 2\nmodel = strip_flow\nc = 0.4\ns = 0.7\n")
    assert s.kind == "strip_flow"
    assert s.weights == (0.4, 0.7, 0.0)
    dw = s.dw_point()
    assert dw.zeta == 1.0 + 0j and abs(dw.beta_re - (-0.3)) < 1e-12


def test_parse_scenario_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_scenario("p = 2\nmodel = strip_flow\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario("model = strip_flow\n")


_STRIP_TWIN = ("p = 2\nmodel = expression\nh_expr = log((1+z)/(1-z))\n"
               "fp = (1, 1.0, 0.0, dw)\nfp = (-1, -1.0, 0.0, rep)\n")


@pytest.mark.parametrize("text, line, what", [
    pytest.param("p = 2\nmodel = strip_flow\nfp = (1, 5, 0, dw)\n", 3, "'fp'",
                 id="strip_flow-fp"),
    pytest.param("p = 2\nmodel = trident\na = 3\n", 3, "'a'", id="trident-a"),
    pytest.param("p = 2\nh_expr = z\nmodel = trident\n", 2, "'h_expr'",
                 id="trident-h_expr"),
    pytest.param(_STRIP_TWIN + "c = 0.4\n", 6, "'c'", id="expression-c"),
    pytest.param(_STRIP_TWIN + "s = 0.7\n", 6, "'s'", id="expression-s"),
    pytest.param(_STRIP_TWIN + "petal_anchor = 5\n", 6, "unit disk",
                 id="petal_anchor-outside")])
def test_parse_scenario_rejects_keys_the_model_ignores(text, line, what):
    # each key would be read and then have no effect on the model
    with pytest.raises(ConfigError, match=f"^line {line}: .*{what}"):
        parse_scenario(text)


@pytest.mark.parametrize("name", ["half_strip", "trident"])
def test_make_builtin_rejects_a_the_model_ignores(name):
    with pytest.raises(ConfigError, match=f"model {name} does not read"):
        make_builtin(name, 2.0, a=3.0)
    assert make_builtin(name, 2.0, a=1.0).kind == name
    assert make_builtin("strip_flow", 2.0, a=3.0).params == {"a": 3.0}


@pytest.mark.parametrize("x", [0.4, -0.7, 0.0, 5e-324, -1e300, 2.0 / 3.0])
def test_a_builtin_number_parses_to_its_float_bit_for_bit(x):
    # a negative number is written (0-|x|): a unary minus would also make
    # the zero imaginary part -0.0, and the built-in weights change bits
    got = complex(parse_expr(scenario._lit(x))(0.0))
    assert got.real.hex() == x.hex()
    assert got.imag == 0.0 and not np.signbit(got.imag)


@pytest.mark.parametrize("a", [0.0, -1.0, 1e-310, float("nan")])
def test_strip_flow_rejects_an_a_whose_inverse_is_not_finite(a):
    # h is written with the number 1/a, and inf is no formula text
    with pytest.raises(ConfigError, match="must be positive, with 1/a finite"):
        make_builtin("strip_flow", 2.0, a=a)


def test_a_builtin_round_trip_that_fails_refuses_every_numerical_use():
    # a closed-form inverse that misses by about 1e-6: the model is built,
    # and each first use, not only the first, raises the round trip's
    # ConfigError
    s = make_builtin("strip_flow", 2.0)
    inverse = s._closed_inverse
    s._closed_inverse = lambda w: inverse(w) * (1 - 1e-6)
    for use in (lambda: eval_h(s, 0.1), lambda: cocycle(s, 1.0, 0.1),
                lambda: eval_h(s, 0.1)):
        with pytest.raises(ConfigError, match=r"smoke test failed \(max error"):
            use()
    assert not s._round_trip_ok


@pytest.mark.parametrize("a", [8e307, 9e307, 1e308, 1.7e308])
def test_a_strip_at_a_huge_a_passes_its_round_trip(a):
    # pi/2/a is a subnormal, not 0, so the images read inside the strip;
    # the repelling point's generator samples near 5.6e307 have no finite
    # Richardson limit, an EvaluationError with no numpy warning
    s = make_builtin("strip_flow", 2.0, a=a, c=0.4, s=0.7)
    assert eval_h(s, 0.1) == pytest.approx(0.2006707 / a)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EvaluationError, match="no boundary limit .* "
                                                  "Richardson limit overflows"):
            beta_at(s, s.repelling_points()[0])


def test_parse_scenario_parametric_and_expression():
    s = parse_scenario(
        "p = 2\nmodel = parametric\n"
        "fp = (1, 1.0, 0.0, dw)\nfp = (-1, -1.0, 0.0, rep)\n")
    assert not s.evaluable
    with pytest.raises(EvaluationError):
        eval_h(s, 0.1)
    # expression model equivalent to the unweighted strip flow
    e = parse_scenario(
        "p = 2\nmodel = expression\n"
        "h_expr = log((1+z)/(1-z))\n"
        "fp = (1, 1.0, 0.0, dw)\nfp = (-1, -1.0, 0.0, rep)\n")
    ref = make_builtin("strip_flow", 2.0)
    z = quasi_random_grid(50, 0.8)
    scale = eval_h(e, 0.1) - eval_h(ref, 0.1)
    assert np.max(np.abs((eval_h(e, z) - eval_h(ref, z)) - scale)) < 1e-9


def test_evaluation_outside_disk_rejected(strip_unweighted):
    with pytest.raises(EvaluationError):
        eval_h(strip_unweighted, 1.5)
    with pytest.raises(EvaluationError):
        eval_v(strip_unweighted, np.array([0.1, 1.0 + 0j]))


def test_quasi_random_grid_deterministic():
    a = quasi_random_grid(64, 0.9)
    b = quasi_random_grid(64, 0.9)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) <= 0.9
