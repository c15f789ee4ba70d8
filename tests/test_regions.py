"""Exact spectral-region formulas, normalization algebra, and case coverage."""

import itertools
import json
import time

import pytest

from bergspec.errors import CoverageError
from bergspec.regions import (NEG_INF, Component, GammaProfile, SpectralRegion,
                              essential_spectrum, gammas_from,
                              generator_point_spectrum, generator_spectrum,
                              operator_point_spectrum, operator_radius,
                              operator_spectrum)
from bergspec.scenario import FixedPointDatum

INF = float("inf")


def _direct_generator_membership(g, lam):
    """Literal case formulas from the classification theorem."""
    x = lam.real
    if g.gamma0 >= g.gamma1:
        return x <= g.gamma2 or g.gamma1 <= x <= g.gamma0
    if g.gamma2 < g.gamma0 < g.gamma1:
        return x <= g.gamma2 or g.gamma0 <= x <= g.gamma1
    return x <= g.gamma1


def _case_matrix():
    """Exercise every ordering and tie pattern of (gamma0, gamma1, gamma2)."""
    finite = [-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.5]
    cases = []
    for g0 in finite:
        for g1 in finite + [NEG_INF]:
            for g2 in finite + [NEG_INF]:
                if g2 > g1:
                    continue  # profile stores repelling gammas sorted
                cases.append(GammaProfile(2.0, g0, (g1, g2)))
    return cases


CASES = _case_matrix()


def test_case_matrix_size_covers_two_hundred():
    assert len(CASES) >= 200


def test_generator_spectrum_matches_literal_formula():
    start = time.perf_counter()
    probes = [complex(x, y) for x in
              [-3.0, -2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
              for y in (0.0, 1.3)]
    for g in CASES:
        region = generator_spectrum(g)
        for lam in probes:
            assert region.contains(lam) == _direct_generator_membership(g, lam), \
                (g, lam)
    assert time.perf_counter() - start < 1.0


def test_translation_equivariance():
    for g in CASES:
        shifted = generator_spectrum(g.shifted(0.75))
        translated = generator_spectrum(g).translated(0.75)
        assert shifted.normalized().to_json() == translated.normalized().to_json()


def test_inclusion_chain():
    # essential subset of full spectrum; point-spectrum interior subset too
    probes = [complex(x, 0.0) for x in
              [-3.0, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0]]
    for g in CASES:
        full = generator_spectrum(g)
        try:
            ess = essential_spectrum(g)
        except CoverageError:
            ess = None
        pt = generator_point_spectrum(g).restrict("certified")
        for lam in probes:
            if ess is not None and ess.contains(lam):
                assert full.contains(lam)
            if pt.contains(lam):
                assert full.contains(lam)


def test_normalization_idempotent():
    for g in CASES:
        r = generator_spectrum(g)
        once = r.normalized()
        assert once.to_json() == once.normalized().to_json()


# -- worked examples --------------------------------------------------------

def test_case_i_example():
    g = GammaProfile(2.0, 1.0, (-1.0, -2.0))
    r = generator_spectrum(g).normalized()
    assert r.to_json() == SpectralRegion.of(
        Component("half_plane_left", (-2.0,)),
        Component("vstrip", (-1.0, 1.0))).normalized().to_json()


def test_case_ii_example():
    g = GammaProfile(2.0, 0.5, (1.0, -0.3))
    r = generator_spectrum(g).normalized()
    assert r.to_json() == SpectralRegion.of(
        Component("half_plane_left", (-0.3,)),
        Component("vstrip", (0.5, 1.0))).normalized().to_json()


def test_case_iii_example():
    g = GammaProfile(2.0, -1.0, (1.0, -0.5))
    r = generator_spectrum(g).normalized()
    assert r.to_json() == [{"kind": "half_plane_left", "params": [1.0],
                            "certainty": "certified"}]


def test_tie_normalizes_to_half_plane():
    g = GammaProfile(2.0, 1.0, (-2.0, -2.0))
    assert generator_spectrum(g).normalized().to_json() == \
        [{"kind": "half_plane_left", "params": [1.0], "certainty": "certified"}]


def test_essential_spectrum_lines_and_dedup():
    g = GammaProfile(2.0, 1.0, (-1.0, -1.0))
    lines = essential_spectrum(g).to_json()
    assert sorted(c["params"] for c in lines) == [[-1.0], [1.0]]
    assert all(c["kind"] == "vline" for c in lines)


def test_essential_spectrum_coverage_error():
    with pytest.raises(CoverageError):
        essential_spectrum(GammaProfile(2.0, 1.0, ()))  # gamma1 = -inf


def test_generator_coverage_error_gamma0_neg_inf():
    with pytest.raises(CoverageError):
        generator_spectrum(GammaProfile(2.0, NEG_INF, (0.0,)))


def test_point_spectrum_open_strip_with_unresolved_boundary():
    g = GammaProfile(2.0, 1.0, (-1.0, -2.0))
    pt = generator_point_spectrum(g)
    interior = pt.restrict("certified")
    assert interior.contains(0.0) and not interior.contains(1.0)
    boundary = pt.restrict("boundary_unresolved")
    assert boundary.contains(1.0) and boundary.contains(-1.0)
    assert not pt.contains(1.5)


# -- builtin-derived profiles ----------------------------------------------

def test_gammas_from_trident_weighted():
    fps = (FixedPointDatum(-1.0 + 0j, 1.0, 0.0, role="denjoy_wolff"),
           FixedPointDatum(1j, -2.0, 1.0, role="repelling"),
           FixedPointDatum(-1j, -2.0, 0.0, role="repelling"))
    g = gammas_from(fps, 2.0)
    assert g.all_gammas() == (1.0, -1.0, -2.0)
    r = generator_spectrum(g).normalized().to_json()
    assert r == [{"kind": "half_plane_left", "params": [-2.0],
                  "certainty": "certified"},
                 {"kind": "vstrip", "params": [-1.0, 1.0],
                  "certainty": "certified"}]


def test_gammas_from_beta_neg_inf():
    fps = (FixedPointDatum(1.0 + 0j, 1.0, NEG_INF, role="denjoy_wolff"),)
    g = gammas_from(fps, 2.0)
    assert g.gamma0 == NEG_INF


# -- operator level ---------------------------------------------------------

def test_operator_radius_exact():
    import math
    g = GammaProfile(2.0, 1.0, (-1.0, -2.0))
    assert operator_radius(g, 1.0) == pytest.approx(math.e)
    assert operator_radius(g, 2.0) == pytest.approx(math.e ** 2)
    assert operator_radius(g, 0.0) == 1.0
    with pytest.raises(ValueError):
        operator_radius(g, -1.0)


def test_operator_spectrum_disk_case():
    import math
    # gamma2 >= gamma0: spectrum is the full disk
    g = GammaProfile(2.0, 0.0, (1.0, 0.5))
    r = operator_spectrum(g, 1.0).normalized().to_json()
    assert r == [{"kind": "disk", "params": [pytest.approx(math.e)],
                  "certainty": "certified"}]


def test_operator_spectrum_annulus_case():
    import math

    def comp(kind, params, certainty="certified"):
        return {"kind": kind, "params": params, "certainty": certainty}

    e = math.exp
    cases = [
        # two repelling points: the inner disk, the outer annulus and the
        # undecided annulus between them
        (GammaProfile(2.0, 1.0, (-1.0, -2.0)),
         [comp("disk", [e(-2.0)]), comp("closed_annulus", [e(-1.0), e(1.0)]),
          comp("open_annulus_interior", [e(-2.0), e(-1.0)],
               "unknown_question2")]),
        # a strip (gamma2 = -inf): no inner disk, so the undecided annulus
        # reaches down to 0
        (GammaProfile(2.0, 0.7, (0.1,)),
         [comp("closed_annulus", [e(0.1), e(0.7)]),
          comp("open_annulus_interior", [0.0, e(0.1)], "unknown_question2")]),
    ]
    for g, expected in cases:
        assert operator_spectrum(g, 1.0).normalized().to_json() == expected
    # vline(-inf) holds no lambda, so it normalizes away
    assert SpectralRegion.of(Component("vline", (NEG_INF,))) == SpectralRegion(())


def test_operator_point_spectrum_t_zero_circle():
    # T_0 = I: with or without a repelling point (gamma1 = -inf), the one
    # candidate is mu = 1, never a certified annulus
    for g in (GammaProfile(2.0, 1.0, (1.0,)), GammaProfile(2.0, 1.0, ())):
        pt = operator_point_spectrum(g, 0.0).to_json()
        assert len(pt) == 1, g
        assert pt[0]["kind"] == "circle" and pt[0]["params"] == [1.0]
        assert pt[0]["certainty"] == "boundary_unresolved"


def test_to_json_neg_inf_sentinel():
    g = GammaProfile(2.0, 1.0, ())
    blob = json.dumps(generator_spectrum(g).normalized().to_json())
    assert "-inf" not in blob or json.loads(blob)  # parseable either way
    json.loads(blob)


def test_disk_zero_component_drops():
    r = SpectralRegion.of(Component("disk", (0.0,)),
                          Component("circle", (1.0,))).normalized()
    assert [c["kind"] for c in r.to_json()] == ["circle"]


def test_unknown_kind_raises():
    c = Component("ellipse", (1.0, 2.0))
    for read in (c.interval, lambda: c.contains(0j),
                 lambda: SpectralRegion.of(c)):
        with pytest.raises(ValueError, match="unknown component kind"):
            read()
