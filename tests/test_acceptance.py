"""Acceptance suite: one criterion per test, one pass/fail line each.

Each test prints a single `[criterion NN] name: PASS/FAIL` line directly to
the real stdout (bypassing capture) so the verdicts are always visible, and
asserts the stated numeric tolerances and runtime budgets.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from bergspec import numerics
from bergspec.cli import main as cli_main
from bergspec.numerics import (ap_norm_rings, coboundary_growth_exponent,
                               eigen_identity_residual, eigenfunction,
                               nonsurjectivity_witness, orbit_integral_K,
                               residual_check, resolvent_apply)
from bergspec.regions import (GammaProfile, gammas_from,
                              essential_spectrum, generator_point_spectrum,
                              generator_spectrum, operator_radius)
from bergspec.scenario import (alpha_at, cocycle, eval_h, eval_h_inverse,
                               eval_h_prime, flow, generator_G, make_builtin,
                               quasi_random_grid)
from bergspec.truncation import build_matrix, gelfand_radius

ONE = lambda z: np.ones_like(np.asarray(z, dtype=complex))
NEG_INF = float("-inf")


@pytest.fixture
def criterion(capfd):
    """One `[criterion NN] name: PASS/FAIL` line per test, printed past the
    capture so it always reaches the terminal."""

    @contextlib.contextmanager
    def run(num, name, budget_s):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"[criterion {num:02d}] {name}: FAIL", flush=True)
            raise
        elapsed = time.perf_counter() - start
        verdict = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
        with capfd.disabled():
            print(f"[criterion {num:02d}] {name}: {verdict} ({elapsed:.2f}s)",
                  flush=True)
        assert elapsed < budget_s

    return run


def test_criterion_01_classifier_case_matrix(criterion):
    with criterion(1, "classifier case matrix (200 profiles)", 1.0):
        finite = [-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.5]
        cases = []
        for g0 in finite:
            for g1 in finite + [NEG_INF]:
                for g2 in finite + [NEG_INF]:
                    if g2 <= g1:
                        cases.append(GammaProfile(2.0, g0, (g1, g2)))
        assert len(cases) >= 200
        probes = [complex(x, y) for x in
                  [-3.0, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5]
                  for y in (0.0, 0.7)]

        def literal(g, lam):
            x = lam.real
            if g.gamma0 >= g.gamma1:
                return x <= g.gamma2 or g.gamma1 <= x <= g.gamma0
            if g.gamma2 < g.gamma0 < g.gamma1:
                return x <= g.gamma2 or g.gamma0 <= x <= g.gamma1
            return x <= g.gamma1

        for g in cases:
            region = generator_spectrum(g)
            for lam in probes:
                assert region.contains(lam) == literal(g, lam)
            shifted = generator_spectrum(g.shifted(0.5)).normalized()
            translated = generator_spectrum(g).translated(0.5).normalized()
            assert shifted.to_json() == translated.to_json()
            pt = generator_point_spectrum(g).restrict("certified")
            for lam in probes:
                if pt.contains(lam):
                    assert region.contains(lam)


def test_criterion_02_composition_group_case(criterion):
    with criterion(2, "composition group strip case", 1.0):
        s = make_builtin("strip_flow", 2.0)
        g = gammas_from(s.fixed_points, 2.0)
        assert generator_spectrum(g).normalized().to_json() == \
            [{"kind": "vstrip", "params": [-1.0, 1.0],
              "certainty": "certified"}]
        ess = essential_spectrum(g).to_json()
        assert sorted(c["params"][0] for c in ess) == [-1.0, 1.0]
        assert all(c["kind"] == "vline" for c in ess)
        pt = generator_point_spectrum(g)
        assert pt.restrict("certified").contains(0.5)
        assert not pt.restrict("certified").contains(1.0)
        assert pt.restrict("boundary_unresolved").contains(1.0)


def test_criterion_03_trident_coverage(criterion):
    with criterion(3, "trident classification and tie handling", 1.0):
        s = make_builtin("trident", 2.0, d=0.5)
        # derive alphas from the numerical oracle, betas from the weight data
        alphas = [alpha_at(s, fp) for fp in s.fixed_points]
        derived = [2.0 * a / 2.0 + fp.beta_re
                   for a, fp in zip(alphas, s.fixed_points)]
        assert np.allclose(derived, [1.0, -1.0, -2.0], atol=1e-3)
        g = gammas_from(s.fixed_points, 2.0)
        assert g.all_gammas() == (1.0, -1.0, -2.0)
        assert generator_spectrum(g).normalized().to_json() == [
            {"kind": "half_plane_left", "params": [-2.0],
             "certainty": "certified"},
            {"kind": "vstrip", "params": [-1.0, 1.0],
             "certainty": "certified"}]
        g0 = gammas_from(make_builtin("trident", 2.0).fixed_points, 2.0)
        assert g0.all_gammas() == (1.0, -2.0, -2.0)
        assert generator_spectrum(g0).normalized().to_json() == \
            [{"kind": "half_plane_left", "params": [1.0],
              "certainty": "certified"}]


def test_criterion_04_semigroup_cocycle_identities(criterion):
    with criterion(4, "semigroup/cocycle identities on built-ins", 30.0):
        grid = quasi_random_grid(100, 0.9)
        for name in ("strip_flow", "half_strip", "trident"):
            for w in (dict(c=0.4, s=0.7, d=0.0), dict(c=0.0, s=0.0, d=0.5)):
                s = make_builtin(name, 2.0, **w)
                # conjugacy h(phi_t) = h + t
                assert np.max(np.abs(eval_h(s, flow(s, 0.8, grid))
                                     - eval_h(s, grid) - 0.8)) < 1e-10
                # semigroup law
                assert np.max(np.abs(flow(s, 0.7, flow(s, 0.4, grid))
                                     - flow(s, 1.1, grid))) < 1e-9
                # cocycle law
                lhs = cocycle(s, 0.4, grid) * cocycle(s, 0.7, flow(s, 0.4, grid))
                assert np.max(np.abs(lhs - cocycle(s, 1.1, grid))) < 1e-9
                # round trip
                assert np.max(np.abs(eval_h_inverse(s, eval_h(s, grid))
                                     - grid)) < 1e-10
                # G * h' = 1
                assert np.max(np.abs(generator_G(s, grid)
                                     * eval_h_prime(s, grid) - 1.0)) < 1e-12
                # derivative cross-check (Richardson-extrapolated differences)
                inner = quasi_random_grid(100, 0.8)
                dt = 2e-4
                c1 = (flow(s, dt, inner) - flow(s, -dt, inner)) / (2 * dt)
                c2 = (flow(s, dt / 2, inner) - flow(s, -dt / 2, inner)) / dt
                assert np.max(np.abs((4 * c2 - c1) / 3
                                     - generator_G(s, inner))) < 1e-6


def test_criterion_05_eigenfunction_verification(criterion):
    with criterion(5, "eigenfunction membership and identity", 120.0):
        s = make_builtin("strip_flow", 2.0)
        assert ap_norm_rings(s, eigenfunction(s, 0.5)).status == "convergent"
        assert eigen_identity_residual(s, 0.5, 1.0) < 1e-9
        zero = lambda z: np.zeros_like(np.asarray(z, dtype=complex))
        assert residual_check(s, 0.5, zero, zero) < 1e-8
        assert ap_norm_rings(s, eigenfunction(s, 1.5)).status == "divergent"
        assert ap_norm_rings(s, eigenfunction(s, 1.0)).status != "convergent"


def test_criterion_06_resolvent_reproduction(criterion):
    with criterion(6, "resolvent orbit-integral reproduction", 120.0):
        s = make_builtin("strip_flow", 2.0)
        cert = orbit_integral_K(s, 2.0, ONE, s.dw_point(), tol=1e-10)
        assert abs(cert.K - 0.5) < 1e-10
        F = lambda z: resolvent_apply(s, 2.0, ONE, cert, z)
        pts = quasi_random_grid(20, 0.85)
        assert max(abs(F(z) - 0.5) for z in pts) < 1e-8
        tw = make_builtin("trident", 2.0, d=0.5)
        anchor = max(tw.repelling_points(),
                     key=lambda fp: fp.alpha + fp.beta_re)
        cert2 = orbit_integral_K(tw, -1.5, ONE, anchor, tol=1e-9)
        F2 = lambda z: resolvent_apply(tw, -1.5, ONE, cert2, z)
        assert residual_check(tw, -1.5, ONE, F2) < 1e-5


def test_criterion_07_nonsurjectivity_witness(criterion, monkeypatch):
    # Deviation from the spec text: for the unweighted trident with f = 1 the
    # witness one-form has a global primitive, so the pair integral vanishes
    # identically; the nonzero-witness requirement is met with f(z) = z and
    # the constant-data case is pinned to zero as a consistency check.
    with criterion(7, "nonsurjectivity witness integrals", 60.0):
        s = make_builtin("trident", 2.0)
        assert abs(nonsurjectivity_witness(s, -3.0, ONE, (), tol=1e-9)) < 1e-8
        ident = lambda z: np.asarray(z, dtype=complex)
        w1 = nonsurjectivity_witness(s, -3.0, ident, (), tol=1e-9)
        monkeypatch.setattr(numerics, "_STEP", 0.25)   # halve the panels
        w2 = nonsurjectivity_witness(s, -3.0, ident, (), tol=1e-9)
        assert abs(w1) > 1e-6
        assert abs(w1 - w2) < 1e-8


def test_criterion_08_growth_exponents(criterion):
    with criterion(8, "weight growth exponents along orbits", 60.0):
        s = make_builtin("strip_flow", 2.0, c=0.4, s=0.7)
        fwd = coboundary_growth_exponent(s, s.dw_point())
        bwd = coboundary_growth_exponent(s, s.repelling_points()[0])
        assert abs(fwd - (-0.3)) <= 0.05 * 0.3
        assert abs(bwd - 1.1) <= 0.05 * 1.1


def test_criterion_09_truncation_oracle_vs_theory(criterion):
    with criterion(9, "truncation oracle radius vs theory", 300.0):
        for name in ("strip_flow", "trident"):
            s = make_builtin(name, 2.0)
            g = gammas_from(s.fixed_points, 2.0)
            M = build_matrix(s, 1.0, 60)
            r, _ = gelfand_radius(M, 24)
            assert 0.85 * math.e <= r <= 1.15 * math.e
            assert r <= 1.05 * operator_radius(g, 1.0)
        rng = np.random.default_rng(20260824)
        for _ in range(5):
            c, sw = rng.uniform(-0.5, 0.5, 2)
            s = make_builtin("strip_flow", 2.0, c=c, s=sw)
            g = gammas_from(s.fixed_points, 2.0)
            M = build_matrix(s, 1.0, 60)
            r, _ = gelfand_radius(M, 24)
            assert r <= 1.05 * operator_radius(g, 1.0)


def test_criterion_10_pointwise_growth_bound(criterion):
    with criterion(10, "pointwise Bergman growth bound", 30.0):
        s = make_builtin("strip_flow", 2.0)
        F = eigenfunction(s, 0.5)
        norm = math.sqrt(ap_norm_rings(s, F).total / math.pi)
        theta = 2 * np.pi * np.arange(128) / 128
        z = 0.99 * np.exp(1j * theta)
        lhs = np.abs(F(z)) * (1 - np.abs(z) ** 2)
        assert np.max(lhs) <= 1.05 * norm


def test_criterion_11_report_determinism(criterion, tmp_path):
    with criterion(11, "byte-identical report determinism", 300.0):
        (tmp_path / "strip.cfg").write_text(
            "p = 2\nmodel = strip_flow\nc = 0.4\ns = 0.7\n")
        (tmp_path / "trident.cfg").write_text("p = 2\nmodel = trident\nd = 0.5\n")
        (tmp_path / "param.cfg").write_text(
            "p = 2\nmodel = parametric\n"
            "fp = (1, 1.0, 0.0, dw)\nfp = (-1, -1.0, 0.0, rep)\n")
        suite = tmp_path / "suite.txt"
        suite.write_text("strip.cfg\ntrident.cfg\nparam.cfg\n")
        blobs = []
        for sub in ("run1", "run2"):
            out = tmp_path / sub
            assert cli_main(["report", "--suite", str(suite),
                             "--out", str(out)]) == 0
            blobs.append({f.name: f.read_bytes()
                          for f in sorted(out.iterdir())})
        assert blobs[0].keys() == blobs[1].keys()
        assert blobs[0] == blobs[1]
