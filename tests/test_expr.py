"""Parser and forward-mode jet arithmetic for analytic expressions."""

import cmath

import numpy as np
import pytest

from bergspec.errors import EvaluationError, ExprSyntaxError
from bergspec.expr import Tape, log_of, parse_expr


def _fd_deriv(f, z, h=1e-5):
    # fourth-order central difference in the complex plane
    return (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)


POINTS = [0.3 + 0.1j, -0.2 + 0.4j, 0.05 - 0.6j, 0.0j]


@pytest.mark.parametrize("text,ref", [
    ("z", lambda z: z),
    ("2*z + 1", lambda z: 2 * z + 1),
    ("z^3 - z/2", lambda z: z ** 3 - z / 2),
    ("exp(z)", cmath.exp),
    ("log(1 + z)", lambda z: cmath.log(1 + z)),
    ("sqrt(1 - z)", lambda z: cmath.sqrt(1 - z)),
    ("(1+z)/(1-z)", lambda z: (1 + z) / (1 - z)),
    ("pow(1 - z, 0.5)", lambda z: (1 - z) ** 0.5),
    ("-z^2 + 3", lambda z: -z ** 2 + 3),
    ("exp(2*log(1+z))", lambda z: (1 + z) ** 2),
])
def test_values_match_reference(text, ref):
    e = parse_expr(text)
    for z in POINTS:
        assert abs(e(z) - ref(z)) < 1e-12 * (1 + abs(ref(z)))


@pytest.mark.parametrize("text", [
    "exp(z)", "log(1+z)", "sqrt(1-z)", "(1+z)/(1-z)", "z^3 - 2*z",
    "pow(1-z, 1.5)",
])
def test_deriv_matches_finite_difference(text):
    e = parse_expr(text)
    for z in POINTS[:3]:
        fd = _fd_deriv(e, z)
        assert abs(e.jet(z, 1).d1 - fd) < 1e-8 * (1 + abs(fd))


def test_third_order_jet_chain_rule():
    e = parse_expr("exp(z^2)")
    z = 0.3 + 0.2j
    j = e.jet(z, 1)
    f = cmath.exp(z * z)
    assert abs(j.f - f) < 1e-13
    assert abs(j.d1 - 2 * z * f) < 1e-12


def test_vectorized_evaluation():
    e = parse_expr("exp(z)*(1-z)")
    z = np.array(POINTS)
    vals = e(z)
    assert vals.shape == z.shape
    for zi, vi in zip(POINTS, vals):
        assert abs(vi - cmath.exp(zi) * (1 - zi)) < 1e-13


@pytest.mark.parametrize("bad", ["", "z +", "2 ** z", "sin(z)", "(1+z", "pow(z)",
                                 "z^z"])
def test_syntax_errors_carry_position(bad):
    with pytest.raises(ExprSyntaxError) as ei:
        parse_expr(bad)
    assert ei.value.pos >= 1


def test_branch_point_evaluation_error():
    for text in ("log(z)", "pow(z, 0.5)", "sqrt(z)"):
        e = parse_expr(text)
        for z in (0.0, np.array([0.5, 0.0, 0.3j])):
            with pytest.raises(EvaluationError):
                e(z)
        # the smallest subnormal is not a branch point
        for z in (5e-324, np.array([0.5, 5e-324, 0.3j])):
            assert np.all(np.isfinite(e(z)))


def _zz(z):
    f = z ** z
    return f, f * (cmath.log(z) + 1)


def _one_plus_z_iz(z):
    # (1+z)^{iz} = exp(u), u = iz log(1+z)
    f = cmath.exp(1j * z * cmath.log(1 + z))
    return f, f * (1j * cmath.log(1 + z) + 1j * z / (1 + z))


@pytest.mark.parametrize("order", [1])
@pytest.mark.parametrize("text,ref", [
    pytest.param("pow(z, z)", _zz, id="z^z"),
    pytest.param("pow(1+z, i*z)", _one_plus_z_iz, id="(1+z)^(iz)")])
def test_pow_carries_the_exponents_derivatives(text, ref, order):
    e = parse_expr(text)
    for z in [0.5 + 0.1j] + POINTS[:3]:
        j = e.jet(z, order)
        want = ref(z)
        for got, exact in zip((j.f, j.d1)[:order + 1], want):
            assert abs(got - exact) < 1e-12 * (1 + abs(exact)), (z, order)


def test_integer_power_vs_general_power():
    a = parse_expr("(1-z)^4")
    b = parse_expr("pow(1-z, 4)")
    for z in POINTS:
        assert abs(a(z) - b(z)) < 1e-12
        assert abs(a.jet(z, 1).d1 - b.jet(z, 1).d1) < 1e-11


@pytest.mark.parametrize("order", range(2))
def test_negative_and_zero_integer_powers(order):
    # z^-n is 1 / z^n bitwise, as a constant numerator's jet computes it;
    # z^0 is one with zero derivatives
    z = np.array(POINTS[:3] + [0.9j, -0.7 + 0.0j])
    for n in (1, 2, 3, 7):
        got = parse_expr(f"(1+z)^-{n}").jet(z, order)
        ref = parse_expr(f"1/(1+z)^{n}").jet(z, order)
        for slot in ("f", "d1")[:order + 1]:
            assert getattr(got, slot).tobytes() == getattr(ref, slot).tobytes()
    j = parse_expr("(1+z)^0").jet(z, order)
    assert np.all(j.f == 1)
    if order:
        assert np.all(j.d1 == 0)


# 100 levels each: parentheses, calls, signs, and a sum and a product, whose
# trees nest a level per operator, over the depth of their operands
AT_THE_LIMIT = ["(" * 100 + "z" + ")" * 100, "sqrt(" * 100 + "z" + ")" * 100,
                "-" * 100 + "z", "+".join(["z"] * 101),
                "*".join(["(1+z)"] * 100)]


@pytest.mark.parametrize("text", AT_THE_LIMIT,
                         ids=["parentheses", "calls", "signs", "sum", "product"])
def test_nesting_at_the_limit_parses_and_evaluates(text):
    e = parse_expr(text)
    l = log_of(e)
    z = np.array([0.1 + 0.2j, -0.3j])
    hj, lj = Tape((e, l), 1)(z)
    assert np.all(np.isfinite(hj.f)) and np.all(np.isfinite(lj.d1))


@pytest.mark.parametrize("text", [
    "(" * 101 + "z" + ")" * 101, "sqrt(" * 101 + "z" + ")" * 101,
    "-" * 101 + "z", "+".join(["z"] * 102), "*".join(["(1+z)"] * 101)],
    ids=["parentheses", "calls", "signs", "sum", "product"])
def test_nesting_past_the_limit_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels"):
        parse_expr(text)
