"""Property tests of the exact region algebra (dev-only: needs hypothesis)."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bergspec.errors import CoverageError
from bergspec.regions import (NEG_INF, Component, GammaProfile,
                              SpectralRegion, essential_spectrum,
                              generator_point_spectrum, generator_spectrum,
                              operator_point_spectrum, operator_spectrum)

# multiples of 1/8 in [-4, 4]: a sum of two is exact, so translating a region
# by c and shifting its gammas by c give the same floats
grid = st.integers(-32, 32).map(lambda k: k / 8)
extended = grid | st.just(NEG_INF)
certainty = st.sampled_from(["certified", "boundary_unresolved"])

_ARITY = {"half_plane_left": 1, "vstrip": 2, "vline": 1,
          "open_vstrip_interior": 2, "disk": 1, "closed_annulus": 2,
          "open_annulus_interior": 2, "circle": 1, "empty": 0}


@st.composite
def components(draw):
    kind = draw(st.sampled_from(sorted(_ARITY)))
    params = tuple(draw(extended) for _ in range(_ARITY[kind]))
    return Component(kind, params, draw(certainty))


regions = st.lists(components(), max_size=5).map(
    lambda cs: SpectralRegion(tuple(cs)))
# probes on the grid, where the components' edges lie, and between them;
# |lambda| meets every radius on the grid along the real axis
probes = st.builds(complex, st.integers(-36, 36).map(lambda k: k / 8)
                   | st.floats(-5.0, 5.0), st.just(0.0) | st.floats(-5.0, 5.0))


def _zero_radius_disk(region):
    return any(c.kind in ("disk", "closed_annulus") and c.params[-1] == 0.0
               for c in region.components)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(region=regions, lams=st.lists(probes, min_size=1, max_size=8))
def test_normalized_is_idempotent_and_keeps_membership(region, lams):
    once = region.normalized()
    assert once.normalized() == once
    for lam in lams:
        if lam == 0 and _zero_radius_disk(region):
            continue        # the known gap below
        assert once.contains(lam) == region.contains(lam), lam


@pytest.mark.xfail(strict=True, reason="normalized() drops a disk of radius "
                   "0, whose contains() holds the origin")
def test_a_zero_radius_disk_keeps_the_origin():
    region = SpectralRegion((Component("disk", (0.0,)),))
    assert region.normalized().contains(0j) == region.contains(0j)


profiles = st.builds(GammaProfile, st.just(2.0), grid,
                     st.lists(extended, max_size=3).map(tuple))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(g=profiles, c=grid)
def test_translation_agrees_with_shifted_gammas(g, c):
    for region in (generator_spectrum, generator_point_spectrum,
                   essential_spectrum):
        try:
            moved = region(g).translated(c)
        except CoverageError:
            with pytest.raises(CoverageError):
                region(g.shifted(c))
            continue
        assert moved == region(g.shifted(c)).normalized(), region.__name__


# the operator regions are the e^{t.} image of the generator regions, plus an
# undecided annulus; x t and gamma t are exact here, so exp keeps their order
@settings(derandomize=True, deadline=None, max_examples=150)
@given(g=st.builds(GammaProfile, st.just(2.0), extended,
                   st.lists(extended, max_size=3).map(tuple)),
       t=st.sampled_from([0.125, 0.5, 1.0, 2.0]),
       xs=st.lists(st.integers(-80, 80).map(lambda k: k / 16), min_size=1,
                   max_size=8))
def test_operator_regions_are_the_exp_image(g, t, xs):
    gen_point, op_point = generator_point_spectrum(g), operator_point_spectrum(g, t)
    assert not op_point.contains(0j)    # 0 is no e^{lambda t}
    try:
        gen, op = generator_spectrum(g), operator_spectrum(g, t)
    except CoverageError:
        gen = op = None
    for x in xs:
        mu = complex(math.exp(x * t), 0)
        for tag in ("certified", "boundary_unresolved"):
            assert gen_point.restrict(tag).contains(complex(x, 0.3)) == \
                op_point.restrict(tag).contains(mu), (x, tag)
        if gen is None:
            continue
        if gen.contains(complex(x, 0)):
            assert op.contains(mu), x
        elif op.contains(mu):
            assert any(c.certainty == "unknown_question2" and c.contains(mu)
                       for c in op.components), x
