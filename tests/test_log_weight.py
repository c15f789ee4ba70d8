"""The weight read as its folded logarithm l = log v: every reader of v
agrees with its v form, tapes merge equal nodes bitwise, and subtraction
is bitwise the sum with a negated operand."""

import mpmath as mp
import numpy as np
import pytest

from bergspec import numerics
from bergspec.expr import Jet, Tape, _Const, _Z, log_of, parse_expr
from bergspec.scenario import (DENJOY_WOLFF, REPELLING, FixedPointDatum,
                               Scenario, _clamp_re, _weight_ratio,
                               eval_hl_jets, flow, generator_g, make_builtin,
                               parse_scenario, quasi_random_grid)

C, S, D = 0.4, 0.7, 0.3
SLOTS = ("f", "d1")

BUILTINS = {name: make_builtin(name, 2.0, c=C, s=S, d=D)
            for name in ("strip_flow", "half_strip", "trident")}

# expression twins of the built-ins: the same h, weight formula and
# fixed-point data, inverted by Newton continuation
_TWIN_TEXTS = {
    "strip_twin": ("log(1+z) - log(1-z)", "2/(1-z^2)", "1+z",
                   [("1", 1.0, C - S, "dw"), ("-1", -1.0, C + S + D, "rep")]),
    "trident_twin": ("0.5*log(1+z^2) - log(1+z)", "z/(1+z^2) - 1/(1+z)",
                     "z - i",
                     [("-1", 1.0, C - S, "dw"), ("i", -2.0, C + 2 * (S + D), "rep"),
                      ("-i", -2.0, C + 2 * S, "rep")]),
}


def _twin(h, hprime, d_factor, fps):
    lines = ["p = 2", "model = expression", f"h_expr = {h}",
             f"v_expr = exp({C}*({h})) * pow({hprime}, -{S}) "
             f"* pow({d_factor}, {D})"]
    lines += [f"fp = ({z}, {a}, {b}, {role})" for z, a, b, role in fps]
    return parse_scenario("\n".join(lines) + "\n")


SCENARIOS = dict(BUILTINS)
SCENARIOS.update({name: _twin(*t) for name, t in _TWIN_TEXTS.items()})
GRID = quasi_random_grid(100, 0.9)
LAMS = [1.5, 0.2 + 0.3j, -1.5]


def _bits(a, b):
    """Bitwise equal, signed zeros included."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_eigenfunction_rows_on_a_ring_subcircle_match_the_weight_form(name):
    s = SCENARIOS[name]
    m = numerics._TAYLOR_J
    z = (np.exp(-1.0 / m + 2j * np.pi * np.arange(m) / m)
         * np.exp(2j * np.pi * 5 / (numerics._SUBCIRCLES * m)))
    rows = numerics.eigenfunction(s, LAMS)(z)
    assert rows.shape == (len(LAMS), m)
    for lam, row in zip(LAMS, rows):
        assert _rel(row, np.exp(lam * s._h(z)) / s._v(z)) < 1e-13, lam
        # one lambda alone gives the same row
        assert _bits(numerics.eigenfunction(s, lam)(z), row)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_weight_ratio_and_generator_match_their_weight_forms(name):
    s = SCENARIOS[name]
    zt = flow(s, 1.0, GRID)
    assert _rel(_weight_ratio(s, 1.0, GRID, zt), s._v(zt) / s._v(GRID)) < 1e-13
    v = s._v.jet(GRID, 1)
    g_v = v.d1 / (v.f * s._h.jet(GRID, 1).d1)
    assert _rel(generator_g(s, GRID), g_v) < 1e-13


def _strip_with_weight_vanishing_at_dw():
    """The strip map with v = (1-z)^2 = 4 / (1 + e^h)^2, which vanishes at
    the Denjoy-Wolff point z = 1.  log_of(v) is log((1-z)^2), and the closed
    inverse rounds orbit points far out onto z = 1 exactly."""
    def inverse(w):
        e = np.exp(_clamp_re(np.asarray(w, dtype=complex)))
        return (e - 1) / (e + 1)

    fps = (FixedPointDatum(1.0 + 0j, 1.0, -2.0, role=DENJOY_WOLFF),
           FixedPointDatum(-1.0 + 0j, -1.0, 0.0, role=REPELLING))
    return Scenario(2.0, "expression", h=parse_expr("log(1+z) - log(1-z)"),
                    v=parse_expr("(1-z)^2"), fixed_points=fps,
                    closed_inverse=inverse)


def _no_v(z):
    raise AssertionError("v read at an orbit point")


# near gamma_0 = -1 the tail decays slowly, at Re beta - lam = -2 - lam, so
# the tail loop walks far toward z = 1, where l = log v has no value
@pytest.mark.parametrize("lam", [-0.9, -0.95])
def test_an_orbit_toward_a_zero_of_the_weight_stays_inside_the_disk(
        lam, monkeypatch):
    # K = int_0^inf e^{-lam t} 4 / (1 + e^t)^2 dt, with x = e^{-t}
    with mp.workdps(30):
        closed = float(mp.quad(lambda x: 4 * x ** (lam + 1) / (1 + x) ** 2,
                               [0, 1]))
    s = _strip_with_weight_vanishing_at_dw()
    read = []

    def one(z):
        # f is read with l at every orbit sample of the integrand
        read.append(np.max(np.abs(z)))
        return np.ones_like(np.asarray(z, dtype=complex))

    monkeypatch.setattr(s, "_v", _no_v)
    got = numerics.orbit_integral_K(s, lam, one, s.dw_point(), tol=1e-10)
    assert abs(got.K - closed) < 1e-10
    assert read and max(read) < 1.0


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_a_builtin_weight_without_d_takes_no_exp(name):
    s = make_builtin(name, 2.0, c=C, s=S)
    tape = Tape((s._h, s._l), 1)
    steps = [op[1] for op in tape._ops]
    assert Jet.log in steps
    assert Jet.exp not in steps and Jet.pow not in steps
    z = GRID[:16]
    _, lj = eval_hl_jets(s, z, 0)
    assert _rel(np.exp(lj.f), s._v(z)) < 1e-13


@pytest.mark.parametrize("text", [
    "exp(z) * pow(1+z, 0.5) / 2", "pow(2 - z, -0.7) * exp(-3*z) / (4 + z)",
    "sqrt(1+z) * (2+z)^3", "-(2+z)", "1 + z", "3", "-2"])
def test_log_of_exponentiates_back_to_the_expression(text):
    e = parse_expr(text)
    ell = log_of(e)
    j = e.jet(GRID, 1)
    lj = ell.jet(GRID, 1)
    assert _rel(np.exp(lj.f), j.f) < 1e-14
    if not np.all(j.d1 == 0):
        assert np.max(np.abs(lj.d1 - j.d1 / j.f)) < 1e-13 * np.max(np.abs(lj.d1))


# -- structural merging in tapes --------------------------------------------

def _direct(node, z, k):
    """Jet of a node by plain recursion over the tree: no tape, no sharing."""
    if node is _Z:
        return Jet(z, np.ones_like(z) if k else None)
    if isinstance(node, _Const):
        return Jet(node.value, 0j if k else None)
    return node.step()(*(_direct(c, z, k) for c in node.children))


@pytest.mark.parametrize("kh,kl", [(kh, kl) for kh in range(2) for kl in range(2)])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_merged_tape_is_bitwise_each_root_on_its_own(name, kh, kl):
    # each root read to its own order from the tape at the higher one
    s = SCENARIOS[name]
    z = GRID[:32]
    tape = Tape((s._h, s._l), max(kh, kl))
    for j, e, k in zip(tape(z), (s._h, s._l), (kh, kl)):
        for ref in (e.jet(z, k), _direct(e._root, z, k)):
            for slot in SLOTS[:k + 1]:
                assert _bits(getattr(j, slot), getattr(ref, slot)), (k, slot)


def test_the_strip_twin_takes_each_log_once():
    s = SCENARIOS["strip_twin"]
    tape = Tape((s._h, s._l), 1)
    # log(1+z), log(1-z) and log(2/(1-z^2)); h's logs, their copies in the
    # weight and the d factor's log(1+z) merge
    assert sum(op[1] is Jet.log for op in tape._ops) == 3


def _merged_nodes(roots):
    """Structural keys of the distinct nodes under roots that a tape
    computes: all but the constants and the variable."""
    keys, memo = set(), {}

    def key(node):
        if id(node) not in memo:
            if isinstance(node, _Const):
                memo[id(node)] = ("const", repr(node.value))
            else:
                memo[id(node)] = (type(node).__name__,
                                  getattr(node, "op", None),
                                  getattr(node, "name", None),
                                  tuple(key(c) for c in node.children))
                if node is not _Z:
                    keys.add(memo[id(node)])
        return memo[id(node)]

    for r in roots:
        key(r._root)
    return keys


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_tape_computes_each_merged_node_once_at_its_order(name):
    # the resolvent one-form reads h at order 1 and l at order 0 from the
    # order-1 tape, with no copies that drop l's derivative; the order-0
    # tape runs the same schedule
    s = SCENARIOS[name]
    roots = (s._h, s._l)
    values, full = Tape(roots, 0), Tape(roots, 1)
    assert values._ops == full._ops
    assert len(full._ops) == len(_merged_nodes(roots))


# -- subtraction --------------------------------------------------------------

ZEROS = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0),
                  complex(-0.0, -0.0), 1.5 - 2j])


def _old_sub(self, o):
    return self + (-o if isinstance(o, Jet) else Jet(-o))


def test_subtraction_is_bitwise_the_negated_sum_on_signed_zeros():
    a = np.repeat(ZEROS, ZEROS.size)
    b = np.tile(ZEROS, ZEROS.size)
    for k in range(2):
        # a constant as a tape holds it: a fixed jet at the tape's order
        c = Jet(2.5 + 0j, 0j if k else None)
        x, y = Jet(a, b if k else None), Jet(b, a if k else None)
        for got, ref in ((x - y, x + (-y)), (c - x, (-x) + c),
                         (x - c, x + (-c))):
            assert (got.d1 is None) == (ref.d1 is None) == (k == 0)
            for slot in SLOTS[:k + 1]:
                assert _bits(getattr(got, slot), getattr(ref, slot))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_tapes_subtract_as_they_did_with_a_negation_pass(name, monkeypatch):
    s = SCENARIOS[name]
    z = np.concatenate([GRID[:32], [0.0, complex(0.0, -0.0), -0.5]])
    tapes = [Tape((s._h, e), 1) for e in (s._v, s._l)]
    new = [t(z) for t in tapes]
    monkeypatch.setattr(Jet, "__sub__", _old_sub)
    for t, jets in zip(tapes, new):
        for j, ref in zip(jets, t(z)):
            for slot in SLOTS:
                assert _bits(getattr(j, slot), getattr(ref, slot))
