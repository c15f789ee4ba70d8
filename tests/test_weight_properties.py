"""Property tests of the built-in weights (dev-only: needs hypothesis)."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bergspec.scenario import eval_v, make_builtin

EPS = 1e-9
unit = st.floats(-1.0, 1.0)


@pytest.mark.parametrize("name", ["strip_flow", "half_strip", "trident"])
@settings(derandomize=True, deadline=None, max_examples=50)
@given(c=unit, s=unit, d=st.just(0.0) | st.floats(0.0, 1.0),
       x=st.floats(-0.99, 0.99), y=unit)
def test_weight_is_one_analytic_branch(name, c, s, d, x, y):
    # v is continuous across the real diameter, where h' of half_strip and
    # trident is negative real and a principal-branch (h')^{-s} would jump
    sc = make_builtin(name, 2.0, c=c, s=s, d=d)
    above, below = eval_v(sc, complex(x, EPS)), eval_v(sc, complex(x, -EPS))
    assert abs(above / below - 1.0) <= 1e-6
    if d == 0.0:
        # every factor but trident's (z - i)^d is real on the real diameter
        z = complex(x, y * math.sqrt(0.99 ** 2 - x * x))
        v = eval_v(sc, z)
        assert abs(eval_v(sc, z.conjugate()) - v.conjugate()) <= 1e-12 * abs(v)
