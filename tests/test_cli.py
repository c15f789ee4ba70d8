"""CLI contract: JSON round-trip, determinism, exit codes, suite reports."""

import json
import warnings

import numpy as np
import pytest

from bergspec import cli, errors, numerics, regions, truncation
from bergspec.cli import main
from bergspec.regions import gammas_from
from bergspec.scenario import make_builtin, parse_scenario
from bergspec.svgplot import Viewport, render_svg

STRIP_CFG = "p = 2\nmodel = strip_flow\n"
STRIP_WEIGHTED_CFG = "p = 2\nmodel = strip_flow\nc = 0.4\ns = 0.7\n"
TRIDENT_CFG = "p = 2\nmodel = trident\nd = 0.5\n"
PARAM_CFG = ("p = 2\nmodel = parametric\n"
             "fp = (1, 1.0, 0.0, dw)\nfp = (-1, -1.0, 0.0, rep)\n")
# the unweighted strip as an expression model, with no petal_anchor line
STRIP_TWIN_CFG = ("p = 2\nmodel = expression\nh_expr = log((1+z)/(1-z))\n"
                  "fp = (1, 1.0, 0.0, dw)\nfp = (-1, -1.0, 0.0, rep)\n")


@pytest.fixture
def strip_cfg(tmp_path):
    p = tmp_path / "strip.cfg"
    p.write_text(STRIP_CFG)
    return p


def test_classify_json_round_trip(tmp_path, strip_cfg):
    out = tmp_path / "out.json"
    code = main(["classify", "-c", str(strip_cfg), "--t", "1.0",
                 "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["gamma_profile"]["gamma0"] == 1.0
    assert report["gamma_profile"]["gammas"] == [-1.0, "-inf"]
    spec = report["regions"]["generator_spectrum"]
    assert spec == [{"kind": "vstrip", "params": [-1.0, 1.0],
                     "certainty": "certified"}]
    ess = report["regions"]["essential_spectrum"]
    assert sorted(c["params"][0] for c in ess) == [-1.0, 1.0]
    op = report["operator"][0]
    assert abs(op["radius"] - 2.718281828459) < 1e-9
    # serialization round-trips to an equal value
    assert json.loads(json.dumps(report)) == report


def test_classify_byte_determinism(tmp_path, strip_cfg):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        svg = tmp_path / (name + ".svg")
        assert main(["classify", "-c", str(strip_cfg),
                     "--json", str(out), "--svg", str(svg)]) == 0
        outs.append((out.read_bytes(), svg.read_bytes()))
    assert outs[0] == outs[1]


def test_verify_pass_and_tolerance_flags(tmp_path, strip_cfg):
    out = tmp_path / "v.json"
    code = main(["verify", "-c", str(strip_cfg), "--lambda", "0.5+0i",
                 "--t", "1.0", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    checks = {c["check"]: c for c in report["results"][0]["checks"]}
    assert checks["eigenfunction_membership"]["status"] == "pass"
    assert checks["eigenfunction_membership"]["verdict"] == "convergent"
    assert checks["eigen_identity_t_1"]["status"] == "pass"
    # an absurdly tight identity tolerance forces a verification failure
    code = main(["verify", "-c", str(strip_cfg), "--lambda", "0.5+0i",
                 "--tol-identity", "1e-30", "--json", str(tmp_path / "f.json")])
    assert code == 1


def test_verify_resolvent_block(tmp_path, strip_cfg):
    out = tmp_path / "v.json"
    assert main(["verify", "-c", str(strip_cfg), "--lambda", "2+0i",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    checks = {c["check"]: c for c in report["results"][0]["checks"]}
    res = checks["resolvent_residual"]
    assert res["status"] == "pass"
    assert abs(res["K"]["re"] - 0.5) < 1e-9 and abs(res["K"]["im"]) < 1e-9


def test_truncate_report(tmp_path, strip_cfg):
    out = tmp_path / "t.json"
    code = main(["truncate", "-c", str(strip_cfg), "--t", "1.0",
                 "--N", "40", "--nmax", "10", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["radius_bound_ok"] is True
    assert len(report["gelfand_sequence"]) == 10
    assert report["gelfand_radius"] <= 1.05 * report["operator_radius_theory"]


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("p = 0.5\nmodel = strip_flow\n")
    assert main(["classify", "-c", str(bad)]) == 2
    missing = tmp_path / "nope.cfg"
    assert main(["classify", "-c", str(missing)]) == 2


@pytest.mark.parametrize("cmd", ["classify", "report"])
def test_a_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys, cmd):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"p = 2\nmodel = strip_flow\nc = 0.4\xff\n")
    argv = {"classify": ["-c", str(bad)],
            "report": ["--suite", str(bad), "--out", str(tmp_path / "o")]}
    assert main([cmd, *argv[cmd]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("config error: 'utf-8' codec")


def test_exit_code_coverage_error(tmp_path, capsys):
    cfg = tmp_path / "cov.cfg"
    cfg.write_text("p = 2\nmodel = parametric\n"
                   "fp = (1, 1.0, -inf, dw)\nfp = (-1, -1.0, 0.0, rep)\n")
    out = tmp_path / "cov.json"
    assert main(["classify", "-c", str(cfg), "--json", str(out)]) == 3
    report = json.loads(out.read_text())
    assert "generator_spectrum" in report["coverage_errors"]


@pytest.mark.parametrize("argv", [
    ["truncate", "--nmax", "4"],
    ["truncate", "--N", "-3"],
    ["truncate", "--N", "257"],
    ["truncate", "--t", "-1"],
    ["classify", "--t", "-1"],
    ["plot", "--svg", "r.svg", "--t", "1", "2"],
    ["report", "--suite", "s.txt", "--out", "o", "--nmax", "7"],
    ["report", "--suite", "s.txt", "--out", "o", "--N", "300"],
])
def test_exit_code_bad_argument(strip_cfg, capsys, argv):
    if argv[0] != "report":
        argv = [argv[0], "-c", str(strip_cfg), *argv[1:]]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bergspec")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
@pytest.mark.parametrize("option", ["--tol-identity", "--tol-residual",
                                    "--tol-orbit", "--tol-slope"])
def test_bad_tolerance_is_a_usage_error(tmp_path, strip_cfg, capsys, option,
                                        value):
    out = tmp_path / "v.json"
    with pytest.raises(SystemExit) as e:
        main(["verify", "-c", str(strip_cfg), "--lambda", "0.5",
              f"{option}={value}", "--json", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bergspec")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["classify", "verify", "plot", "report"])
def test_bare_t_is_a_usage_error(tmp_path, strip_cfg, capsys, cmd):
    # a --t with no value would otherwise drop every t-indexed check
    extra = {"classify": [], "verify": ["--lambda", "0.5"],
             "plot": ["--svg", str(tmp_path / "r.svg")],
             "report": ["--suite", "s.txt", "--out", str(tmp_path / "o")]}[cmd]
    source = [] if cmd == "report" else ["-c", str(strip_cfg)]
    with pytest.raises(SystemExit) as e:
        main([cmd, *source, *extra, "--t"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bergspec")
    assert "Traceback" not in err


@pytest.mark.parametrize("error", [
    errors.InversionError("Newton inversion failed to converge"),
    errors.ModelInconsistencyError("alpha mismatch"),
    errors.OrbitIntegralError("tolerance not met"),
    np.linalg.LinAlgError("SVD did not converge"),
    FloatingPointError("overflow encountered in multiply"),
    OverflowError("math range error"),
    ZeroDivisionError("complex division by zero"),
])
def test_exit_code_numerical_failure(tmp_path, strip_cfg, capsys,
                                     monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(truncation, "build_matrix", fail)
    out = tmp_path / "t.json"
    assert main(["truncate", "-c", str(strip_cfg), "--json", str(out)]) == 4
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == f"numerical failure: {type(error).__name__}: {error}"
    assert len(lines) == 2 and lines[1].startswith("wall time")


def test_float_overflow_exits_numerical_failure(tmp_path, capsys):
    # exp(801) in the operator radius overflows a float
    cfg = tmp_path / "big.cfg"
    cfg.write_text("p = 2\nmodel = strip_flow\nc = 800\n")
    assert main(["classify", "-c", str(cfg), "--json", str(tmp_path / "o.json")]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "numerical failure: OverflowError: math range error"
    assert len(lines) == 2 and lines[1].startswith("wall time")


HALF_STRIP_WEIGHTED_CFG = "p = 2\nmodel = half_strip\nc = 0.3\ns = 0.6\n"


@pytest.mark.parametrize("cfg_text,argv", [
    (STRIP_WEIGHTED_CFG, ["truncate", "--t", "33"]),
    (STRIP_WEIGHTED_CFG, ["truncate", "--t", "40"]),
    (STRIP_WEIGHTED_CFG, ["truncate", "--t", "100"]),
    (HALF_STRIP_WEIGHTED_CFG, ["truncate", "--t", "33"]),
    (STRIP_WEIGHTED_CFG, ["verify", "--lambda", "0.5", "--t", "40"]),
], ids=["strip-truncate-33", "strip-truncate-40", "strip-truncate-100",
        "half_strip-truncate-33", "strip-verify-40"])
def test_flow_rounded_onto_the_circle_is_a_numerical_failure(tmp_path, capsys,
                                                             cfg_text, argv):
    # far along the flow a point rounds onto |z| = 1, where v has a branch
    # point: the run is valid, so this is exit 4 naming t, not a config error
    cfg = tmp_path / "w.cfg"
    cfg.write_text(cfg_text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([argv[0], "-c", str(cfg), *argv[1:],
                     "--json", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 4
    lines = err.splitlines()
    assert lines[0].startswith("numerical failure: ")
    assert f"time-{argv[-1]} flow" in lines[0]
    assert len(lines) == 2 and lines[1].startswith("wall time")
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_wall_time_on_stderr_not_stdout(tmp_path, strip_cfg, capsys):
    main(["classify", "-c", str(strip_cfg), "--json", "-"])
    captured = capsys.readouterr()
    assert "wall time" in captured.err
    assert "wall time" not in captured.out
    json.loads(captured.out)


def test_plot_subcommand(tmp_path, strip_cfg):
    svg = tmp_path / "r.svg"
    assert main(["plot", "-c", str(strip_cfg), "--what", "essential",
                 "--svg", str(svg)]) == 0
    assert svg.read_text().startswith('<?xml')


def test_operator_plot_at_t_zero_is_a_config_error(tmp_path, strip_cfg, capsys):
    svg = tmp_path / "r.svg"
    assert main(["plot", "-c", str(strip_cfg), "--what", "operator",
                 "--t", "0", "--svg", str(svg)]) == 2
    assert not svg.exists()
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "config error: --what operator needs --t > 0"
    assert len(lines) == 2 and lines[1].startswith("wall time")


@pytest.mark.parametrize("cmd", ["classify", "plot"])
def test_viewport_sets_the_svg_window(tmp_path, strip_cfg, cmd):
    svg = tmp_path / "r.svg"
    assert main([cmd, "-c", str(strip_cfg), "--svg", str(svg),
                 "--viewport=-2,2,-1.5,1.5"]) == 0
    region = regions.generator_spectrum(gammas_from(
        parse_scenario(STRIP_CFG).fixed_points, 2.0))
    assert svg.read_text() == render_svg(region, Viewport(-2, 2, -1.5, 1.5))


@pytest.mark.parametrize("value", ["a,b,c,d", "1,2,3", "1,0,0,1", "0,nan,0,1"])
@pytest.mark.parametrize("cmd", ["classify", "plot"])
def test_bad_viewport_is_a_usage_error(tmp_path, strip_cfg, capsys, cmd, value):
    svg = tmp_path / "r.svg"
    with pytest.raises(SystemExit) as e:
        main([cmd, "-c", str(strip_cfg), "--svg", str(svg), f"--viewport={value}"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bergspec")
    assert "Traceback" not in err
    assert not svg.exists()


NON_FINITE = {
    "p_nan": ("classify", "p = nan\nmodel = strip_flow\n", []),
    "a_inf": ("classify", "p = 2\nmodel = strip_flow\na = inf\n", []),
    "s_inf": ("classify", "p = 2\nmodel = strip_flow\ns = inf\n", []),
    "t_inf": ("truncate", STRIP_CFG, ["--t", "inf"]),
    "lambda_1e400": ("verify", STRIP_CFG, ["--lambda", "1e400"]),
    "alpha_nan": ("classify", PARAM_CFG.replace("(1, 1.0,", "(1, nan,"), []),
    "beta_re_inf": ("classify", PARAM_CFG.replace("0.0, dw", "inf, dw"), []),
}


def test_a_key_the_model_does_not_read_exits_2(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("p = 2\nmodel = trident\na = 3\n")
    assert main(["classify", "-c", str(cfg)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, cfg, extra", NON_FINITE.values(),
                         ids=NON_FINITE.keys())
def test_non_finite_input_is_a_config_error(tmp_path, capsys, cmd, cfg, extra):
    path = tmp_path / "s.cfg"
    path.write_text(cfg)
    try:
        code = main([cmd, "-c", str(path), *extra])
    except SystemExit as e:     # argparse rejects an option value
        code = e.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and "finite" in errors[0]


def test_report_suite(tmp_path):
    (tmp_path / "strip.cfg").write_text(STRIP_WEIGHTED_CFG)
    (tmp_path / "param.cfg").write_text(PARAM_CFG)
    suite = tmp_path / "suite.txt"
    suite.write_text("# comment line\nstrip.cfg\nparam.cfg\n")
    out = tmp_path / "rpt"
    assert main(["report", "--suite", str(suite), "--out", str(out),
                 "--N", "16", "--nmax", "8"]) == 0
    for name in ("strip.classify.json", "strip.svg", "strip.truncate.json",
                 "param.classify.json", "param.svg", "param.truncate.json"):
        assert (out / name).exists()
    trunc = json.loads((out / "param.truncate.json").read_text())
    assert "error" in trunc  # parametric scenarios cannot be truncated


def test_report_parses_each_entry_once(tmp_path, monkeypatch):
    # classify and truncate of an entry share one parsed scenario
    (tmp_path / "strip.cfg").write_text(STRIP_WEIGHTED_CFG)
    (tmp_path / "param.cfg").write_text(PARAM_CFG)
    suite = tmp_path / "suite.txt"
    suite.write_text("strip.cfg\nparam.cfg\n")
    texts = []

    def counted(text):
        texts.append(text)
        return parse_scenario(text)

    monkeypatch.setattr(cli, "parse_scenario", counted)
    assert main(["report", "--suite", str(suite), "--out",
                 str(tmp_path / "rpt"), "--N", "16", "--nmax", "8"]) == 0
    assert texts == [STRIP_WEIGHTED_CFG, PARAM_CFG]


def test_report_failed_bound_outranks_coverage_exit(tmp_path):
    # half_strip c = 0.3 exits 3 (essential spectrum outside coverage); the
    # trident's truncate misses its radius bound (exit 1), which must show
    (tmp_path / "half.cfg").write_text("p = 2\nmodel = half_strip\nc = 0.3\n")
    (tmp_path / "tri.cfg").write_text(
        "p = 2\nmodel = trident\nc = 0\ns = -1.2\n")
    suite = tmp_path / "suite.txt"
    suite.write_text("half.cfg\ntri.cfg\n")
    out = tmp_path / "rpt"
    assert main(["classify", "-c", str(tmp_path / "half.cfg"),
                 "--json", str(tmp_path / "c.json")]) == 3
    assert main(["report", "--suite", str(suite), "--out", str(out)]) == 1
    trunc = json.loads((out / "tri.truncate.json").read_text())
    assert trunc["radius_bound_ok"] is False


def test_report_with_a_missing_suite_makes_no_output_directory(tmp_path):
    out = tmp_path / "made_out"
    assert main(["report", "--suite", str(tmp_path / "missing.txt"),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_report_goes_on_after_a_numerical_failure(tmp_path, capsys):
    # at t = 40 the strip's flow rounds a point onto the unit circle; the
    # trident after it truncates as it does on its own
    (tmp_path / "strip.cfg").write_text(STRIP_WEIGHTED_CFG)
    (tmp_path / "tri.cfg").write_text("p = 2\nmodel = trident\nc = 0\n"
                                      "s = 0.1\nd = 0.5\n")
    suite = tmp_path / "suite.txt"
    suite.write_text("strip.cfg\ntri.cfg\n")
    out = tmp_path / "rpt"
    assert main(["report", "--suite", str(suite), "--out", str(out),
                 "--t", "40"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if not line.startswith("wall time")] == [
        "numerical failure in strip: FloatingPointError: the time-40 flow "
        "rounded a point onto the unit circle"]
    trunc = json.loads((out / "strip.truncate.json").read_text())
    assert trunc == {"command": "truncate", "error": "the time-40 flow "
                     "rounded a point onto the unit circle"}
    for name in ("tri.classify.json", "tri.svg", "tri.truncate.json"):
        assert (out / name).exists()
    assert "gelfand_radius" in json.loads(
        (out / "tri.truncate.json").read_text())


def _membership(path):
    return [next(c for c in r["checks"]
                 if c["check"] == "eigenfunction_membership")
            for r in json.loads(path.read_text())["results"]]


def test_verify_at_p_3(tmp_path):
    # |F|^3 = |F^{3/2}|^2: at lambda = 0.3 + 0.2i, |F|^3 ~ |1 - z|^-0.9 at
    # the attracting point, so tau = 2 - 0.9
    cfg = tmp_path / "strip3.cfg"
    cfg.write_text("p = 3\nmodel = strip_flow\n")
    out = tmp_path / "v.json"
    assert main(["verify", "-c", str(cfg), "--lambda", "0.3+0.2i", "1.5+0i",
                 "--json", str(out)]) == 0
    conv, div = _membership(out)
    assert conv["verdict"] == "convergent" and div["verdict"] == "divergent"
    assert abs(conv["fitted_exponent"] - 1.1) < 0.01
    assert abs(div["fitted_exponent"] + 2.5) < 0.01


def test_verify_constant_eigenfunction_writes_inf(tmp_path, strip_cfg):
    # F = 1 at lambda = 0 on the unweighted strip: round-off blocks
    out = tmp_path / "v.json"
    assert main(["verify", "-c", str(strip_cfg), "--lambda", "0+0i",
                 "--json", str(out)]) == 0
    (check,) = _membership(out)
    assert check["verdict"] == "convergent"
    assert check["fitted_exponent"] == "inf"


@pytest.mark.parametrize("cfg_text, lam", [
    ("p = 2\nmodel = trident\nc = 0\ns = -1.2\n", "2+1i"),
    ("p = 2\nmodel = half_strip\nc = 0\ns = 2.5\n", "-3+0i")])
def test_verify_sees_divergence_at_non_fixed_contact_points(tmp_path, cfg_text,
                                                            lam):
    # classify certifies lambda as point spectrum, but F diverges at the
    # trident's slit tip or half_strip's corners, which are not fixed points
    cfg = tmp_path / "m.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "v.json"
    assert main(["verify", "-c", str(cfg), f"--lambda={lam}",
                 "--json", str(out)]) == 1
    (check,) = _membership(out)
    assert check["verdict"] == "divergent" and check["status"] == "fail"


def _orbit_checks(tmp_path, cfg_text, *argv):
    cfg, out = tmp_path / "s.cfg", tmp_path / "v.json"
    cfg.write_text(cfg_text)
    code = main(["verify", "-c", str(cfg), *argv, "--json", str(out)])
    (result,) = json.loads(out.read_text())["results"]
    return code, {c["check"]: c for c in result["checks"]
                  if c["check"] in ("resolvent_residual",
                                    "nonsurjectivity_witness")}


def test_verify_anchors_the_resolvent_at_a_repelling_point(tmp_path):
    # Re lambda = -1.5 is below gamma0 = 0.7 and the repelling gamma 0.1
    code, checks = _orbit_checks(tmp_path, STRIP_WEIGHTED_CFG,
                                 "--lambda", "-1.5")
    assert code == 0
    assert list(checks) == ["resolvent_residual"]
    res = checks["resolvent_residual"]
    assert res["anchor"] == {"re": -1.0, "im": 0.0}
    assert res["status"] == "pass"


def test_verify_records_the_nonsurjectivity_witness(tmp_path):
    # Re lambda = -2.5 is below both repelling gammas, -1 and -2
    code, checks = _orbit_checks(tmp_path, TRIDENT_CFG, "--lambda", "-2.5")
    assert code == 0
    assert checks["resolvent_residual"]["anchor"] == {"re": 0.0, "im": 1.0}
    witness = checks["nonsurjectivity_witness"]
    assert witness["status"] == "recorded" and witness["magnitude"] > 0.1


def test_verify_computes_each_orbit_constant_once(tmp_path, monkeypatch):
    # left of gamma_2 the witness takes the resolvent check's K toward i and
    # computes only the one toward -i; the identity check flows its grid
    # once per t for every lambda
    orbit, ident = numerics.orbit_integral_K, numerics.eigen_identity_residual
    anchors, times = [], []
    monkeypatch.setattr(numerics, "orbit_integral_K", lambda s, lam, f, fp, **k:
                        anchors.append(fp.zeta) or orbit(s, lam, f, fp, **k))
    monkeypatch.setattr(numerics, "eigen_identity_residual", lambda s, lams, t:
                        times.append(t) or ident(s, lams, t))
    cfg, out = tmp_path / "s.cfg", tmp_path / "v.json"
    cfg.write_text(TRIDENT_CFG)
    assert main(["verify", "-c", str(cfg), "--lambda", "-2.5", "-3", "--t",
                 "0.5", "1", "--json", str(out)]) == 0
    assert anchors == [1j, -1j] * 2
    assert times == [0.5, 1.0]
    for result in json.loads(out.read_text())["results"]:
        (witness,) = [c for c in result["checks"]
                      if c["check"] == "nonsurjectivity_witness"]
        assert witness["status"] == "recorded"


def test_verify_skips_orbit_checks_whose_tail_it_cannot_bound(tmp_path):
    code, checks = _orbit_checks(tmp_path, TRIDENT_CFG, "--lambda", "-2.5",
                                 "--tol-orbit", "1e-300")
    assert code == 0
    for name in ("resolvent_residual", "nonsurjectivity_witness"):
        assert checks[name]["status"] == "skipped"
        assert "at T = 200" in checks[name]["reason"]


def test_a_tiny_orbit_tolerance_skips_the_strip_resolvent(tmp_path):
    # the tail loop reaches the time where the closed-form inverse rounds
    # the orbit onto z = 1, where log v has no value, and refuses there
    code, checks = _orbit_checks(tmp_path, STRIP_WEIGHTED_CFG, "--lambda",
                                 "2", "--tol-orbit", "1e-300")
    assert code == 0
    assert checks["resolvent_residual"]["status"] == "skipped"
    assert "unit circle" in checks["resolvent_residual"]["reason"]


def _strip_exp_log_twin():
    # the weighted strip as an expression model, its weight written in logs
    # whose arguments avoid (-inf, 0] on the disk, with the built-in's petal
    # anchor; every orbit point is a Newton inverse
    ref = make_builtin("strip_flow", 2.0, c=0.4, s=0.7)
    anchor = ref.petal_anchor(ref.repelling_points()[0])
    h = "log(1+z) - log(1-z)"
    return (f"p = 2\nmodel = expression\nh_expr = {h}\n"
            f"v_expr = exp(0.4*({h})) * exp(-0.7*(log(2) - log(1-z)"
            f" - log(1+z)))\nfp = (1, 1, -0.3, dw)\nfp = (-1, -1, 1.1, rep)\n"
            f"petal_anchor = {anchor.real!r}\n")


@pytest.mark.parametrize("lam", ["2", "-1.5"])
def test_the_strip_and_its_twin_skip_a_tiny_orbit_tolerance_alike(tmp_path,
                                                                   lam):
    # forward and backward, both orbits round onto their limit points before
    # the tail bound meets tol; the twin's inverses used to be walked from
    # the base point until Newton lost them there (exit 4)
    reasons = []
    for cfg_text in (STRIP_WEIGHTED_CFG, _strip_exp_log_twin()):
        code, checks = _orbit_checks(tmp_path, cfg_text, f"--lambda={lam}",
                                     "--tol-orbit", "1e-300")
        assert code == 0
        assert checks["resolvent_residual"]["status"] == "skipped"
        reasons.append(checks["resolvent_residual"]["reason"])
    # the bound each reason quotes is sampled where each orbit rounds
    assert reasons[0].split(" (bound")[0] == reasons[1].split(" (bound")[0]
    assert "reached the unit circle" in reasons[1]


def test_a_tight_orbit_tolerance_certifies_the_strip_resolvent(tmp_path):
    # near gamma_0 the tail decays slowly, so the tail loop walks far
    code, checks = _orbit_checks(tmp_path, STRIP_WEIGHTED_CFG, "--lambda",
                                 "0.8", "--tol-orbit", "1e-14")
    assert code == 0
    assert checks["resolvent_residual"]["status"] == "pass"
    assert checks["resolvent_residual"]["tail_bound"] < 0.5e-14


def _growth(path):
    return {(g["zeta"]["re"], g["zeta"]["im"]): g
            for g in json.loads(path.read_text())["growth_exponents"]}


def test_growth_check_needs_no_petal_anchor(tmp_path):
    # the backward orbit to z = -1 needed a petal anchor; the radial readout
    # does not, so that entry is checked, not left as an error
    cfg = tmp_path / "twin.cfg"
    cfg.write_text(STRIP_TWIN_CFG)
    out = tmp_path / "v.json"
    assert main(["verify", "-c", str(cfg), "--lambda", "0.5",
                 "--json", str(out)]) == 0
    growth = _growth(out)
    assert [g["status"] for g in growth.values()] == ["pass", "pass"]
    assert abs(growth[-1.0, 0.0]["slope"]) < 1e-9
    assert "direction" not in growth[-1.0, 0.0]


def test_a_wrong_declared_beta_fails_verify(tmp_path):
    # beta at z = -1 declared 0.2 above the model's 0: only that entry
    # fails.  The petal anchor h^-1(-8) lets an orbit slope see it, too
    cfg = tmp_path / "twin.cfg"
    cfg.write_text(STRIP_TWIN_CFG.replace("-1.0, 0.0, rep", "-1.0, 0.2, rep")
                   + "petal_anchor = -0.999329299739067\n")
    out = tmp_path / "v.json"
    assert main(["verify", "-c", str(cfg), "--lambda", "2",
                 "--json", str(out)]) == 1
    growth = _growth(out)
    assert growth[-1.0, 0.0]["status"] == "fail"
    assert growth[1.0, 0.0]["status"] == "pass"
    checks = json.loads(out.read_text())["results"][0]["checks"]
    assert all(c["status"] != "fail" for c in checks)


def test_a_growth_exponent_that_cannot_be_read_is_skipped(tmp_path, strip_cfg,
                                                          monkeypatch):
    def unreadable(s, fp):
        raise errors.EvaluationError("no boundary limit")
    monkeypatch.setattr(numerics, "coboundary_growth_exponent", unreadable)
    out = tmp_path / "v.json"
    assert main(["verify", "-c", str(strip_cfg), "--lambda", "0.5",
                 "--json", str(out)]) == 0
    for g in _growth(out).values():
        assert g == {"zeta": g["zeta"], "status": "skipped",
                     "reason": "no boundary limit"}


def test_repeated_options_add_their_values(tmp_path, strip_cfg):
    # each repeat of --lambda or --t adds its values, and no --t means 1.0
    def run(*argv):
        out = tmp_path / "o.json"
        assert main([*argv, "-c", str(strip_cfg), "--json", str(out)]) == 0
        return json.loads(out.read_text())

    report = run("verify", "--lambda", "0.5", "--lambda", "2.0", "--t", "0.5",
                 "--t", "2")
    assert [r["lambda"]["re"] for r in report["results"]] == [0.5, 2.0]
    assert [c["check"] for c in report["results"][0]["checks"]
            if c["check"].startswith("eigen_identity")] == [
        "eigen_identity_t_0.5", "eigen_identity_t_2"]
    report = run("classify", "--t", "0.5", "--t", "2", "3")
    assert [o["t"] for o in report["operator"]] == [0.5, 2.0, 3.0]
    assert [o["t"] for o in run("classify")["operator"]] == [1.0]
    suite = tmp_path / "suite.txt"
    suite.write_text(f"{strip_cfg}\n")
    assert main(["report", "--suite", str(suite), "--out", str(tmp_path / "r"),
                 "--t", "0.5", "--t", "2"]) == 0
    report = json.loads((tmp_path / "r" / "strip.classify.json").read_text())
    assert [o["t"] for o in report["operator"]] == [0.5, 2.0]


def test_calls_in_one_process_share_no_options(tmp_path, strip_cfg):
    # the parser is built once per process; a second call sees only its own
    # values and the --t default, nothing the first call appended
    out = tmp_path / "o.json"
    assert cli._build_parser() is cli._build_parser()
    assert main(["verify", "-c", str(strip_cfg), "--lambda", "0.5",
                 "--lambda", "2.0", "--t", "0.5", "--t", "2",
                 "--json", str(out)]) == 0
    first = json.loads(out.read_text())
    assert [r["lambda"]["re"] for r in first["results"]] == [0.5, 2.0]
    assert main(["verify", "-c", str(strip_cfg), "--lambda", "0.75",
                 "--json", str(out)]) == 0
    second = json.loads(out.read_text())
    assert [r["lambda"]["re"] for r in second["results"]] == [0.75]
    assert [c["check"] for c in second["results"][0]["checks"]
            if c["check"].startswith("eigen_identity")] == [
        "eigen_identity_t_1"]
