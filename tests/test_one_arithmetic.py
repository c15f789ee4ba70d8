"""One arithmetic per point: a point evaluated as a Python complex gives
bitwise the jet it gets inside an array, for h and l = log v of every
built-in and of the expression twins that Newton continuation inverts."""

import numpy as np
import pytest

from bergspec.expr import Tape, log_of, parse_expr
from bergspec.scenario import make_builtin, quasi_random_grid

SLOTS = ("f", "d1")
C, S, D = 0.4, 0.7, 0.3

# expression twins of the built-ins: same h and weight formula
_TWIN_TEXTS = {
    "strip_twin": ("log(1+z) - log(1-z)", "2/(1-z^2)", "1+z"),
    "trident_twin": ("0.5*log(1+z^2) - log(1+z)", "z/(1+z^2) - 1/(1+z)",
                     "z - i")}

ROOTS = {}
for _name in ("strip_flow", "half_strip", "trident"):
    _s = make_builtin(_name, 2.0, c=C, s=S, d=D)
    ROOTS[_name] = (_s._h, _s._l)
for _name, (_h, _hprime, _dfac) in _TWIN_TEXTS.items():
    ROOTS[_name] = (parse_expr(_h), log_of(parse_expr(
        f"exp({C}*({_h})) * pow({_hprime}, -{S}) * pow({_dfac}, {D})")))

# 330 points out to |z| = 0.99, with both signs of zero on the axes
POINTS = np.concatenate([quasi_random_grid(320, 0.99),
                         [0.0, complex(0.0, -0.0), complex(-0.0, 0.0), 0.5,
                          -0.5, 0.5j, -0.5j, 0.9 + 0.0j, complex(-0.9, -0.0),
                          0.3 - 0.4j]])


@pytest.mark.parametrize("order", range(2))
@pytest.mark.parametrize("name", sorted(ROOTS))
def test_a_scalar_point_gets_the_bits_it_gets_in_an_array(name, order):
    tape = Tape(ROOTS[name], order)
    in_array = tape(POINTS)
    for i, z in enumerate(POINTS.tolist()):
        for j, ref in zip(tape(z), in_array):
            for slot in SLOTS[:order + 1]:
                got = getattr(j, slot)
                assert np.shape(got) == ()
                assert np.asarray(got).tobytes() == getattr(ref, slot)[i].tobytes(), \
                    (z, slot)
