"""The trust ledger: every known false verdict as a strict xfail.

Each row runs the CLI in-process on the input, or the mutation, that shows
one hole, and asserts the verdict that is right there: the exit code and the
point, check or error it names, so a row cannot pass on an unrelated
failure.  Each reason names the ROADMAP item that closes the hole.  A change
that closes one removes that row's marker; a row is never deleted or
loosened to get a pass, and a hole found later joins as a row.
"""

import dataclasses
import json
import math

import pytest

from bergspec import numerics, truncation
from bergspec.cli import main
from test_cli import _exp_log_twin

STRIP_TWIN_FPS = "fp = (1, 1.0, 0.0, dw)\nfp = (-1, -1.0, 0.0, rep)\n"
STRIP_TWIN_H = "h_expr = log((1+z)/(1-z))\n"


def _run(tmp_path, capsys, cfg_text, *argv):
    """(exit code, JSON report or None, stderr) of one CLI call."""
    cfg, out = tmp_path / "s.cfg", tmp_path / "out.json"
    cfg.write_text(cfg_text)
    code = main([argv[0], "-c", str(cfg), *argv[1:], "--json", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, capsys.readouterr().err


def _checks(report):
    (result,) = report["results"]
    return {c["check"]: c for c in result["checks"]}


@pytest.mark.xfail(strict=True, reason=(
    "item 17: resolvent_residual checks the segment quadrature, not K, so "
    "K + 1e-6 passes; an orbit_constant check against an independent "
    "resolvent must fail it"))
def test_an_orbit_constant_off_by_1e_6_fails_verify(tmp_path, capsys,
                                                   monkeypatch):
    exact = numerics.orbit_integral_K

    def shifted(*args, **kwargs):
        cert = exact(*args, **kwargs)
        return dataclasses.replace(cert, K=cert.K + 1e-6)

    monkeypatch.setattr(numerics, "orbit_integral_K", shifted)
    code, report, _ = _run(tmp_path, capsys,
                           "p = 2\nmodel = strip_flow\nc = 0.4\ns = 0.7\n",
                           "verify", "--lambda", "2")
    assert code == 1
    assert _checks(report)["orbit_constant"]["status"] == "fail"


@pytest.mark.xfail(strict=True, reason=(
    "item 25(a): radius_bound_ok checks only that the Gelfand estimate is "
    "at most 1.05 e^(gamma0 t), so a halved matrix passes; the eigenvector "
    "check M e = e^(lambda t) e must fail it"))
@pytest.mark.parametrize("cfg_text", [
    pytest.param("p = 2\nmodel = strip_flow\nc = 0.4\ns = 0.7\n", id="strip"),
    pytest.param("p = 2\nmodel = half_strip\nc = 0.3\ns = 0.3\n",
                 id="half_strip"),
    pytest.param("p = 2\nmodel = trident\nc = 0.2\ns = 0.3\nd = 0.3\n",
                 id="trident")])
def test_a_halved_galerkin_matrix_fails_truncate(tmp_path, capsys,
                                                 monkeypatch, cfg_text):
    exact = truncation.build_matrix

    def halved(*args):
        M = exact(*args)
        return dataclasses.replace(M, entries=0.5 * M.entries)

    monkeypatch.setattr(truncation, "build_matrix", halved)
    code, report, _ = _run(tmp_path, capsys, cfg_text, "truncate", "--t", "1",
                           "--N", "60")
    assert code == 1
    assert report.get("eigenvector_check_ok") is False


@pytest.mark.xfail(strict=True, reason=(
    "item 15: verify never compares a declared alpha with the model; the "
    "strip twin declaring alpha = 3 at z = 1 must exit 4 naming that point"))
def test_a_wrong_declared_alpha_fails_verify(tmp_path, capsys):
    code, _, err = _run(tmp_path, capsys,
                        "p = 2\nmodel = expression\n" + STRIP_TWIN_H
                        + STRIP_TWIN_FPS.replace("(1, 1.0,", "(1, 3.0,"),
                        "verify", "--lambda", "0.5")
    assert code == 4
    assert "alpha mismatch at (1+0j)" in err


@pytest.mark.xfail(strict=True, reason=(
    "item 16(b): a weight with a zero or a pole inside the disk makes T_t "
    "leave A^p; the winding number of v on the circle must refuse it with "
    "exit 2 before any oracle runs"))
@pytest.mark.parametrize("v_expr, argv, winds", [
    pytest.param("z - 0.5", ("verify", "--lambda", "2"), 1, id="zero-verify"),
    pytest.param("1/(z - 0.5)", ("truncate", "--N", "60"), -1,
                 id="pole-truncate"),
    pytest.param("1/(z - 0.5)", ("verify", "--lambda", "2"), -1,
                 id="pole-verify")])
def test_a_weight_that_winds_is_a_config_error(tmp_path, capsys, v_expr, argv,
                                               winds):
    code, _, err = _run(tmp_path, capsys,
                        "p = 2\nmodel = expression\n" + STRIP_TWIN_H
                        + f"v_expr = {v_expr}\n" + STRIP_TWIN_FPS, *argv)
    assert code == 2
    assert f"v winds {winds} times" in err


@pytest.mark.xfail(strict=True, reason=(
    "item 2(c): u_t = T_t 1 leaves A^p where p k_v >= 2 at a non-fixed "
    "contact point, so classify must exit 3 naming it: the trident's slit "
    "tip z = 1, half_strip's corners +-i"))
@pytest.mark.parametrize("cfg_text, zetas", [
    pytest.param("p = 2\nmodel = trident\nc = 0\ns = -1.2\n", [(1.0, 0.0)],
                 id="trident"),
    pytest.param("p = 2\nmodel = half_strip\nc = 0\ns = 2.5\n",
                 [(0.0, 1.0), (0.0, -1.0)], id="half_strip")])
def test_classify_names_a_contact_point_outside_coverage(tmp_path, capsys,
                                                        cfg_text, zetas):
    code, report, _ = _run(tmp_path, capsys, cfg_text, "classify")
    assert code == 3
    named = {(e["zeta"]["re"], e["zeta"]["im"])
             for e in report["coverage_errors"] if isinstance(e, dict)}
    assert named >= set(zetas)


@pytest.mark.xfail(strict=True, reason=(
    "item 1(b): a principal-branch pow(h', -s) weight jumps on a curve "
    "inside the disk; verify must refuse it with exit 2, asking for "
    "exp(s*log(...))"))
def test_a_principal_branch_weight_is_refused(tmp_path, capsys):
    u = "(1-z)/(1+z)"
    root = f"sqrt(1 + ({u})^2)"
    h = f"log({u} + {root}) - {math.log1p(math.sqrt(2.0))!r}"
    cfg_text = ("p = 2\nmodel = expression\n" + f"h_expr = {h}\n"
                + f"v_expr = exp(0.3*({h})) * pow(-2/((1+z)^2*{root}), -0.3)\n"
                + "fp = (-1, 1.0, 0.0, dw)\n")
    code, _, err = _run(tmp_path, capsys, cfg_text, "verify", "--lambda", "2")
    assert code == 2
    assert "exp(s*log(" in err


def test_a_flow_rounded_onto_the_circle_fails_the_trident_truncate(
        tmp_path, capsys):
    code, _, err = _run(tmp_path, capsys,
                        "p = 2\nmodel = trident\nc = 0\ns = 0.1\nd = 0.5\n",
                        "truncate", "--t", "40", "--N", "24")
    assert code == 4
    assert "the time-40 flow rounded a point onto the unit circle" in err


TWIN_TRUNCATES = pytest.mark.parametrize("model, c, s, d", [
    ("strip_flow", 0.4, 0.7, 0.0), ("trident", 0.0, 0.1, 0.5)],
    ids=["strip", "trident"])


@TWIN_TRUNCATES
def test_a_flow_rounded_onto_the_circle_fails_the_twin_truncate(
        tmp_path, capsys, model, c, s, d):
    code, _, err = _run(tmp_path, capsys, _exp_log_twin(model, c, s, d),
                        "truncate", "--t", "40", "--N", "24")
    assert code == 4
    assert "the time-40 flow rounded a point onto the unit circle" in err


@pytest.mark.xfail(strict=True, reason=(
    "item 3, the t = 33-34 bullet: at t = 34 the built-ins' closed forms "
    "round 215 (strip) and 162 (trident) of the 1,024 Cauchy-circle images "
    "onto the circle and exit 4; the twins' Newton flow halves no step "
    "there, yet its images all end inside, the nearest 1.1e-16 from the "
    "circle, off the orbit, and truncate --t 34 exits 3: a section of "
    "N = 24 resolves no power of T_34"))
@TWIN_TRUNCATES
def test_a_time_34_flow_rounded_onto_the_circle_fails_the_twin_truncate(
        tmp_path, capsys, model, c, s, d):
    code, _, err = _run(tmp_path, capsys, _exp_log_twin(model, c, s, d),
                        "truncate", "--t", "34", "--N", "24")
    assert code == 4
    assert "the time-34 flow rounded a point onto the unit circle" in err


@pytest.mark.xfail(strict=True, reason=(
    "item 3: at a = 20 the time-1 flow moves the grid by 20 in a*w, so the "
    "weight ratio is read from a flow image that rounded next to z = 1; "
    "read from w, the eigen-identity holds at tol 1e-9 as it does at "
    "lambda = -1"))
def test_a_steep_strip_keeps_the_eigen_identity(tmp_path, capsys):
    code, report, _ = _run(tmp_path, capsys,
                           "p = 2\nmodel = strip_flow\na = 20\nc = 0.4\n"
                           "s = 0.7\n", "verify", "--lambda", "6.9")
    assert code == 0
    assert _checks(report)["eigen_identity_t_1"]["status"] == "pass"


@pytest.mark.xfail(strict=True, reason=(
    "item 30: at p = 3 the membership ring unwraps the phase of "
    "exp(lambda h - l) point to point on 65,536 samples, and next to z = 1 "
    "it turns by more than pi between samples, so a zero-free eigenfunction "
    "reads as winding twice (WindingError, exit 4)"))
def test_a_zero_free_eigenfunction_at_p_3_reads_divergent(tmp_path, capsys):
    code, report, _ = _run(tmp_path, capsys,
                           "p = 3\nmodel = strip_flow\nc = 0.4\ns = 0.7\n",
                           "verify", "--lambda", "9")
    assert code in (0, 1)
    assert _checks(report)["eigenfunction_membership"]["verdict"] == "divergent"


@pytest.mark.xfail(strict=True, reason=(
    "item 32: eigen_identity_residual is an absolute max deviation, so at "
    "lambda = 8, where |e^(lambda t) F| reaches 2.2e12 on the grid, round-off "
    "reads 0.021 against tol 1e-9 although the relative deviation is about "
    "5e-15; measured against the size of its terms, the identity passes"))
def test_a_large_eigenfunction_passes_the_eigen_identity(tmp_path, capsys):
    code, report, _ = _run(tmp_path, capsys,
                           "p = 2\nmodel = strip_flow\nc = 0.4\ns = 0.7\n",
                           "verify", "--lambda", "8")
    assert code == 0
    assert _checks(report)["eigen_identity_t_1"]["status"] == "pass"


def test_a_time_no_power_of_the_section_resolves_is_refused(tmp_path, capsys):
    # item 36: at t = 10 the horizon round(log(25)/10) - 1 is -1, so the
    # estimate, 0.0084 of the bound, came from a section that resolves no
    # power of T_t; a section resolves t once N + 1 >= e^(1.5 t)
    code, report, err = _run(tmp_path, capsys,
                             "p = 2\nmodel = strip_flow\nc = 0.4\ns = 0.7\n",
                             "truncate", "--t", "10", "--N", "24")
    assert code == 3 and report is None
    assert err.splitlines()[0] == (
        "coverage error: at t = 10 a section of N = 24 resolves no power of "
        "T_t (resolution horizon -1): that needs N + 1 >= e^15, above the "
        "largest N, 256")
