"""Jets at each order: a jet of order k computes exactly the slots 0..k of
the order-1 jet, bit for bit, and nothing above them."""

import numpy as np
import pytest

from bergspec import numerics
from bergspec.expr import log_of, parse_expr
from bergspec.scenario import (eval_h, eval_h_prime, eval_v, make_builtin,
                               quasi_random_grid)

SLOTS = ("f", "d1")
C, S, D = 0.4, 0.7, 0.3


def _twin(h, hprime, d_factor):
    # expression-model twins of the built-ins: same h and weight formula
    v = f"exp({C}*({h})) * pow({hprime}, -{S}) * pow({d_factor}, {D})"
    return parse_expr(h), parse_expr(v)


BUILTINS = {name: make_builtin(name, 2.0, c=C, s=S, d=D)
            for name in ("strip_flow", "half_strip", "trident")}

EXPRS = {}
for _name, _s in BUILTINS.items():
    EXPRS[f"{_name}.h"] = _s._h
    EXPRS[f"{_name}.v"] = _s._v
for _name, _texts in {
        "strip_twin": ("log(1+z) - log(1-z)", "2/(1-z^2)", "1+z"),
        "trident_twin": ("0.5*log(1+z^2) - log(1+z)", "z/(1+z^2) - 1/(1+z)",
                         "z - i")}.items():
    EXPRS[f"{_name}.h"], EXPRS[f"{_name}.v"] = _twin(*_texts)

POINTS = quasi_random_grid(200, 0.95)
SCALARS = [complex(z) for z in POINTS[::40]]


def _same(a, b):
    return np.array_equal(a, b) and np.shape(a) == np.shape(b)


@pytest.mark.parametrize("name", sorted(EXPRS))
def test_each_order_matches_order_three_bitwise(name):
    e = EXPRS[name]
    for z in [POINTS, *SCALARS]:
        full = e.jet(z, 1)
        for k in range(2):
            j = e.jet(z, k)
            for i, slot in enumerate(SLOTS):
                if i <= k:
                    assert _same(getattr(j, slot), getattr(full, slot)), (k, slot)
                else:
                    assert getattr(j, slot) is None, (k, slot)
        assert _same(e(z), full.f)
        assert _same(e.jet(z, 1).d1, full.d1)


def test_jets_stop_at_order_two():
    with pytest.raises(ValueError):
        EXPRS["trident.v"].jet(POINTS, 2)


def _f(z):
    return 1 + z * z


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_fused_omega_form_equals_separate_evaluations(name):
    # e^{l - lam h} h' f, with h, h' and l = log v each from its own jet
    s = BUILTINS[name]
    lam = 0.3 - 0.2j
    z = POINTS[:64]
    fused = numerics._omega_form(s, lam, _f, z)
    separate = (np.exp(log_of(s._v).jet(z, 0).f - lam * eval_h(s, z))
                * eval_h_prime(s, z) * numerics._eval_f(_f, z))
    assert _same(fused, separate)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_fused_omega_form_agrees_with_the_weight_form(name):
    s = BUILTINS[name]
    lam = 0.3 - 0.2j
    z = POINTS[:64]
    fused = numerics._omega_form(s, lam, _f, z)
    direct = (np.exp(-lam * eval_h(s, z)) * eval_h_prime(s, z)
              * eval_v(s, z) * numerics._eval_f(_f, z))
    assert np.max(np.abs(fused - direct) / np.abs(direct)) < 1e-13
