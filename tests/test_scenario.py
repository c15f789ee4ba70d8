"""Scenario models: flow/cocycle laws, generators, inversion, config parsing."""

import warnings

import numpy as np
import pytest

from bergspec import scenario
from bergspec.errors import (ConfigError, EvaluationError, InversionError,
                             ModelInconsistencyError, OutsideOmegaError,
                             PetalExitError)
from bergspec.expr import parse_expr
from bergspec.scenario import (FixedPointDatum, alpha_at, beta_at, cocycle,
                               eval_h, eval_h_inverse, eval_h_prime, eval_v,
                               flow, generator_G, generator_g, make_builtin,
                               make_expression, make_parametric, parse_complex,
                               parse_scenario, quasi_random_grid)
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


def test_trident_inverse_stays_inside_far_along_orbits(trident_weighted):
    w = np.array([x + 1j * y for x in (300.0, -300.0)
                  for y in (np.pi / 4, -np.pi / 4, 0.7)])
    z = eval_h_inverse(trident_weighted, w)
    assert np.all(np.isfinite(z))
    assert np.all(np.abs(z) < 1.0)


@pytest.mark.parametrize("name,w,limit", [
    ("strip_flow", 1000 + 0.3j, 1.0), ("strip_flow", -1000 + 0.3j, -1.0),
    ("half_strip", 1000 + 0.3j, -1.0), ("trident", 1000 + 0.5j, -1.0),
    ("trident", -1000 + 0.5j, -1j), ("trident", -1000 - 0.5j, 1j)])
def test_closed_inverse_tends_to_the_boundary_limit(name, w, limit):
    s = make_builtin(name, 2.0)
    z = eval_h_inverse(s, w)
    assert abs(z) <= 1.0 and abs(z - limit) < 1e-15
    assert np.isfinite(flow(s, 1000.0, 0.3 + 0.2j))


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
    return ref, make_expression(2.0, parse_expr(h_text), parse_expr(v_text),
                                ref.fixed_points)


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
    with pytest.raises(InversionError, match=r"\(residual \d\.\de[-+]\d+\)$"):
        scenario._continuation_invert(twin, w + 1.0, z, w)
    assert len(calls) <= scenario._LEG_DEPTH + 1


def test_continuation_resumes_long_legs_after_a_failed_legs_quarters(
        monkeypatch):
    _, twin = _trident_twin()
    z = quasi_random_grid(30, 0.9)
    w = eval_h(twin, z)
    want = scenario._continuation_invert(twin, w + 1.0, z, w)
    corrector = scenario._newton_step_batch
    calls = []

    def first_leg_fails(s, z, target, center):
        calls.append(z.size)
        z, ok = corrector(s, z, target, center)
        return z, ok & (len(calls) > 1)

    monkeypatch.setattr(scenario, "_newton_step_batch", first_leg_fails)
    got = scenario._continuation_invert(twin, w + 1.0, z, w)
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
    # four 0.25 legs and a few retries, where steps in z took 340 calls
    assert len(calls) <= 8
    assert np.max(np.abs(out - flow(ref, 1.0, z))) < 1e-10
    assert np.all(np.abs(out) < 1.0)


@pytest.mark.parametrize("radius", [1e-3, 0.49, 0.51, 0.98, 0.99, 1 - 1e-6])
@pytest.mark.parametrize("name,w,h_text,v_text,N", TWINS)
def test_inverse_round_trip_across_the_step_switch(name, w, h_text, v_text,
                                                  N, radius):
    # trident targets just above the slit whose inverse started from the
    # nearest of a grid of seeds, just below it, crossed the slit: 1 of 64
    # failed at r = 0.98 and 15-16 at r >= 0.99.  A walk in from the right
    # stays on its side of the slit, and each point walks on its own
    ref, twin = _twin(name, w, h_text, v_text)
    z = radius * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    w_pts = eval_h(ref, z)
    assert np.max(np.abs(eval_h_inverse(twin, w_pts) - eval_h_inverse(ref, w_pts))) < 1e-10


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
            make_parametric(2.0, fps)
    with pytest.raises(ConfigError, match="exactly one Denjoy-Wolff point"):
        make_expression(2.0, parse_expr("log(1+z) - log(1-z)"), parse_expr("1"),
                        [rep])


def test_petal_anchors_need_a_repelling_point():
    dw = FixedPointDatum(1.0, 1.0, 0.0, role="denjoy_wolff")
    with pytest.raises(ConfigError, match="repelling"):
        make_expression(2.0, parse_expr("log(1+z) - log(1-z)"), parse_expr("1"),
                        [dw], petal_anchors=[-0.5])


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
