"""CLI contract: JSON round-trip, determinism, exit codes, suite reports."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

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



def _plain(obj):
    """The report as json.dumps takes it: floats to 12 significant digits or
    "inf", "-inf", "nan"; complex numbers as {"re", "im"}."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _plain(float(obj.real)), "im": _plain(float(obj.imag))}
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    x = float(obj)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(format(x, ".12g"))


_AWKWARD_REPORT = {
    "zeros": [0.0, -0.0, np.float64(-0.0)],
    "limits": [float("inf"), float("-inf"), float("nan"),
               np.float64("-inf"), np.float32("nan")],
    "complex": [1 - 2j, complex(-0.0, float("inf")), np.complex128(0.25j),
                np.complex64(1.5 - 0.1j)],
    "ints": [0, -7, 10 ** 20, np.int64(-3), np.uint8(200), True, False],
    "floats": [1 / 3, 1e-300, 2.5e16, np.float64(math.pi),
               np.float32(0.1)],
    "tuple": (1, (2.0, "x"), ()),
    "empty": {"dict": {}, "list": [], "nested": [[], [{}], {"a": []}]},
    "deep": {"a": {"b": {"c": [{"d": None}]}}},
    "text": "gamma \u03b3\u2080 = \"-inf\"\\ caf\u00e9\n\t\x01",
}


def test_the_report_writer_matches_json_dumps_indent_2(tmp_path):
    out = tmp_path / "r.json"
    cli._dump(_AWKWARD_REPORT, out)
    text = out.read_text()
    assert text == json.dumps(_plain(_AWKWARD_REPORT), indent=2) + "\n"
    assert '"zeros": [\n    0.0,\n    -0.0,\n    -0.0\n  ]' in text
    assert '"dict": {},' in text and text.isascii()


# every report key is a string, so the writer takes no other key
@pytest.mark.parametrize("bad", [np.bool_(True), np.array([1.0]), object(),
                                 {"x"}, {1: 2.0}])
def test_the_report_writer_refuses_an_unsupported_type(tmp_path, bad):
    with pytest.raises(TypeError):
        cli._dump({"ok": 1.0, "bad": [bad]}, tmp_path / "r.json")


def test_every_command_writes_the_text_json_dumps_would(tmp_path, strip_cfg):
    # a report read back and dumped again with indent=2 is the same text
    trident = tmp_path / "trident.cfg"
    trident.write_text(TRIDENT_CFG)
    runs = [("classify", strip_cfg),
            ("verify", trident, "--lambda", "0.5", "2+1i"),
            ("truncate", strip_cfg, "--N", "13", "--nmax", "9"),
            ("truncate", trident, "--N", "24")]
    for i, (cmd, cfg, *rest) in enumerate(runs):
        out = tmp_path / f"{i}.json"
        main([cmd, "-c", str(cfg), *rest, "--json", str(out)])
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

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


@pytest.mark.parametrize("argv", [["--what", "point"],
                                  ["--what", "operator", "--t", "0.5"]],
                         ids=["point", "operator"])
def test_the_readme_plots_write_an_svg(tmp_path, argv):
    cfg, svg = tmp_path / "strip.cfg", tmp_path / "r.svg"
    cfg.write_text("p = 2\nmodel = strip_flow\na = 1.0\nc = 0.4\ns = 0.7\n")
    assert main(["plot", "-c", str(cfg), *argv, "--svg", str(svg)]) == 0
    assert svg.read_text().startswith('<?xml')


def test_a_one_point_spectral_circle_is_drawn_as_a_circle(tmp_path):
    # strip_flow at s = 1 (c = 0) has gamma0 = gamma1 = 0: at t = 1 the
    # operator spectrum holds the circle |z| = e^0 beside the hatched annulus
    cfg = tmp_path / "strip.cfg"
    cfg.write_text("p = 2\nmodel = strip_flow\ns = 1\n")
    svgs = []
    for name in ("a.svg", "b.svg"):
        assert main(["plot", "-c", str(cfg), "--what", "operator", "--t", "1",
                     "--svg", str(tmp_path / name)]) == 0
        svgs.append((tmp_path / name).read_bytes())
    assert svgs[0] == svgs[1]
    circles = [ln for ln in svgs[0].decode().splitlines()
               if ln.startswith("<circle")]
    assert circles == ['<circle cx="400.0000" cy="300.0000" r="100.0000" '
                       'fill="none" stroke="#3465a4" stroke-width="1" '
                       'data-fill="#3465a4" fill-opacity="0.8000" '
                       'class="certified"/>']
    assert 'fill="url(#hatch-unknown)"' in svgs[0].decode()


def test_an_unsupported_plot_is_a_coverage_error(tmp_path, capsys):
    cfg, svg = tmp_path / "half.cfg", tmp_path / "r.svg"
    cfg.write_text("p = 2\nmodel = half_strip\n")
    assert main(["plot", "-c", str(cfg), "--what", "essential",
                 "--svg", str(svg)]) == 3
    assert not svg.exists()
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == ("coverage error: essential spectrum unsupported when "
                        "gamma0 or gamma1 is -inf")
    assert len(lines) == 2 and lines[1].startswith("wall time")


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
    # trident after it still gets its classification, and its own flow
    # fails there too
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
        f"numerical failure in {stem}: FloatingPointError: the time-40 flow "
        "rounded a point onto the unit circle" for stem in ("strip", "tri")]
    for stem in ("strip", "tri"):
        trunc = json.loads((out / f"{stem}.truncate.json").read_text())
        assert trunc == {"command": "truncate", "error": "the time-40 flow "
                         "rounded a point onto the unit circle"}
    for name in ("tri.classify.json", "tri.svg"):
        assert (out / name).exists()


def test_report_refuses_entries_that_share_a_file_stem(tmp_path, capsys):
    # a/m.cfg and b/m.cfg would both write m.classify.json: the suite is
    # refused before anything is written
    for sub, model in (("a", "strip_flow"), ("b", "trident")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "m.cfg").write_text(f"p = 2\nmodel = {model}\n")
    suite = tmp_path / "suite.txt"
    suite.write_text("a/m.cfg\nb/m.cfg\n")
    out = tmp_path / "rpt"
    assert main(["report", "--suite", str(suite), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: suite entries share the file stem 'm'" in err
    assert not out.exists()


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
        assert "reached the unit circle" in checks[name]["reason"]


def test_a_tiny_orbit_tolerance_skips_the_strip_resolvent(tmp_path):
    # the tail loop reaches the time where the closed-form inverse rounds
    # the orbit onto z = 1, where log v has no value, and refuses there
    code, checks = _orbit_checks(tmp_path, STRIP_WEIGHTED_CFG, "--lambda",
                                 "2", "--tol-orbit", "1e-300")
    assert code == 0
    assert checks["resolvent_residual"]["status"] == "skipped"
    assert "unit circle" in checks["resolvent_residual"]["reason"]


def test_a_quadrature_past_its_budget_skips_the_resolvent(tmp_path):
    # at lambda = 10 the segment quadrature of the strip's residual check
    # splits without end; it grew past 2 GB before it had a budget
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code, checks = _orbit_checks(tmp_path, STRIP_WEIGHTED_CFG,
                                     "--lambda", "10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 5.0
    assert peak < 100e6
    assert code in (0, 1)
    assert checks["resolvent_residual"]["status"] == "skipped"
    assert ("budget of 262144 panel estimates"
            in checks["resolvent_residual"]["reason"])


# h, the log L of +-h' and the d factor of each built-in, in the built-in's
# own logs, whose arguments avoid (-inf, 0] on the disk
_EXP_LOG = {
    "strip_flow": ("log(1+z) - log(1-z)", "log(2) - log(1-z) - log(1+z)",
                   "1+z"),
    "trident": ("0.5*log(1+z^2) - log(1+z)",
                "log(1-z) - log(1+z^2) - log(1+z)", "z - i"),
    "half_strip": ("log((1-z)/(1+z) + sqrt(1 + ((1-z)/(1+z))^2))"
                   " - log(1 + sqrt(2))",
                   "log(2) - log((1+z)^2 * sqrt(1 + ((1-z)/(1+z))^2))", "1-z"),
}


def _exp_log_twin(model, c, s, d=0.0):
    # a built-in as an expression model: v = e^{c h} e^{-s L} d_factor^d,
    # each factor only where its weight is nonzero, as the built-in builds
    # it, with the built-in's fixed points and petal anchors; every orbit
    # point is a Newton inverse
    ref = make_builtin(model, 2.0, c=c, s=s, d=d)
    h, log_dh, d_factor = _EXP_LOG[model]
    factors = [f"exp({c!r}*({h}))" if c else None,
               f"exp({-s!r}*({log_dh}))" if s else None,
               f"pow({d_factor}, {d!r})" if d else None]
    v = " * ".join(f for f in factors if f) or "1"
    roles = {"denjoy_wolff": "dw", "repelling": "rep"}
    lines = ["p = 2", "model = expression", f"h_expr = {h}", f"v_expr = {v}"]
    lines += [f"fp = ({f.zeta.real!r}{f.zeta.imag:+}i, {f.alpha!r}, "
              f"{f.beta_re!r}, {roles[f.role]})" for f in ref.fixed_points]
    lines += [f"petal_anchor = {a.real!r}{a.imag:+}i"
              for a in map(ref.petal_anchor, ref.repelling_points())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("lam", ["2", "-1.5"])
def test_the_strip_and_its_twin_skip_a_tiny_orbit_tolerance_alike(tmp_path,
                                                                   lam):
    # forward and backward, both orbits round onto their limit points before
    # the tail bound meets tol; the twin's inverses used to be walked from
    # the base point until Newton lost them there (exit 4)
    reasons = []
    for cfg_text in (STRIP_WEIGHTED_CFG,
                     _exp_log_twin("strip_flow", 0.4, 0.7)):
        code, checks = _orbit_checks(tmp_path, cfg_text, f"--lambda={lam}",
                                     "--tol-orbit", "1e-300")
        assert code == 0
        assert checks["resolvent_residual"]["status"] == "skipped"
        reasons.append(checks["resolvent_residual"]["reason"])
    # the bound each reason quotes is sampled where each orbit rounds
    assert reasons[0].split(" (bound")[0] == reasons[1].split(" (bound")[0]
    assert "reached the unit circle" in reasons[1]


# the parity table: each built-in against its exp-log twin, at lambda 0.3
# and 0.02 below and above every finite gamma of the built-in
PARITY_TWINS = [("strip_flow", 0.4, 0.7, 0.15), ("trident", 0.0, 0.1, 0.5)]
# the half_strip, which has no repelling point, at lambda 0.3 either side of
# its gamma_0 = 0.7 only
HALF_STRIP_TWIN = ("half_strip", 0.3, 0.6, 0.2)


def _parity_rows():
    for model, c, s, d in PARITY_TWINS:
        g = gammas_from(make_builtin(model, 2.0, c=c, s=s, d=d).fixed_points,
                        2.0)
        for gamma in (g.gamma0, *g.gammas):
            if gamma == float("-inf"):
                continue
            for dx in (-0.3, -0.02, 0.02, 0.3):
                lam = round(gamma + dx, 6)
                yield pytest.param(model, c, s, d, lam, id=f"{model}-{lam:g}")
    for lam in (0.4, 1.0):
        yield pytest.param(*HALF_STRIP_TWIN, lam, id=f"half_strip-{lam:g}")


def _verify_json(tmp_path, cfg_text, lam):
    cfg, out = tmp_path / "s.cfg", tmp_path / "v.json"
    cfg.write_text(cfg_text)
    code = main(["verify", "-c", str(cfg), f"--lambda={lam}", "--json",
                 str(out)])
    report = json.loads(out.read_text())
    (result,) = report["results"]
    return code, result["checks"], report["growth_exponents"]


@pytest.mark.parametrize("model, c, s, d, lam", _parity_rows())
def test_a_builtin_and_its_exp_log_twin_verify_alike(tmp_path, model, c, s, d,
                                                    lam):
    # the same exit code, every check with the same status, and K within the
    # default tol_orbit, 1e-8.  A row that comes to disagree is marked with
    # the roadmap item that owns the defect, never dropped
    builtin = (f"p = 2\nmodel = {model}\nc = {c!r}\ns = {s!r}\n"
               f"d = {d!r}\n")
    code, checks, growth = _verify_json(tmp_path, builtin, lam)
    twin_code, twin_checks, twin_growth = _verify_json(
        tmp_path, _exp_log_twin(model, c, s, d), lam)
    assert twin_code == code
    assert ([(x["check"], x["status"]) for x in twin_checks]
            == [(x["check"], x["status"]) for x in checks])
    assert ([x["status"] for x in twin_growth]
            == [x["status"] for x in growth])
    for x, y in zip(checks, twin_checks):
        if "K" in x:
            assert abs(complex(x["K"]["re"], x["K"]["im"])
                       - complex(y["K"]["re"], y["K"]["im"])) <= 1e-8


@pytest.mark.parametrize("model, c, s, d, N",
                         [(*twin, 60) for twin in PARITY_TWINS]
                         + [(*HALF_STRIP_TWIN, 24)],
                         ids=[twin[0] for twin in PARITY_TWINS]
                         + [HALF_STRIP_TWIN[0]])
def test_a_builtin_and_its_exp_log_twin_truncate_alike(tmp_path, monkeypatch,
                                                      model, c, s, d, N):
    # item 26's truncate rows, at N = 60 and the half_strip's at N = 24: the
    # same exit code and section dtype, the Gelfand radius and the largest
    # eigenvalue modulus within 1e-10 and every sequence entry within 1e-9,
    # relative.  A row that comes to disagree is marked with the roadmap
    # item that owns the defect, never dropped
    dtypes = []
    exact = truncation.build_matrix

    def recorded(*args):
        M = exact(*args)
        dtypes.append(M.entries.dtype)
        return M

    monkeypatch.setattr(truncation, "build_matrix", recorded)
    runs = []
    for cfg_text in (f"p = 2\nmodel = {model}\nc = {c!r}\ns = {s!r}\n"
                     f"d = {d!r}\n", _exp_log_twin(model, c, s, d)):
        cfg, out = tmp_path / "s.cfg", tmp_path / "t.json"
        cfg.write_text(cfg_text)
        code = main(["truncate", "-c", str(cfg), "--t", "1", "--N", str(N),
                     "--json", str(out)])
        runs.append((code, json.loads(out.read_text())))
    (code, ref), (twin_code, twin) = runs
    assert twin_code == code
    assert dtypes[0] == dtypes[1]
    for key in ("gelfand_radius", "eigenvalue_max_modulus"):
        assert abs(twin[key] - ref[key]) <= 1e-10 * abs(ref[key])
    assert len(twin["gelfand_sequence"]) == len(ref["gelfand_sequence"])
    for x, y in zip(ref["gelfand_sequence"], twin["gelfand_sequence"]):
        assert abs(x - y) <= 1e-9 * abs(x)


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


def test_a_missing_petal_anchor_names_the_key(tmp_path, capsys):
    # left of gamma0 the resolvent is anchored at the repelling point -1,
    # whose backward orbit starts from a petal anchor the config lacks
    cfg = tmp_path / "twin.cfg"
    cfg.write_text("".join(ln for ln in _exp_log_twin("strip_flow", 0.4, 0.7)
                           .splitlines(keepends=True)
                           if not ln.startswith("petal_anchor")))
    assert main(["verify", "-c", str(cfg), "--lambda", "-1"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == ("config error: no petal anchor available for fixed "
                        "point (-1+0j): add a petal_anchor line near it")
    assert len(lines) == 2 and lines[1].startswith("wall time")


@pytest.mark.parametrize("argv", [["classify"], ["verify", "--lambda", "0.5"]],
                         ids=["classify", "verify"])
def test_a_map_newton_cannot_invert_fails_the_smoke_test(tmp_path, capsys,
                                                         argv):
    # h' = 2/(1-z^2) + 6z vanishes at z = -0.39 and -0.74, so h is not
    # conformal and Newton inversion fails on the smoke test's grid: a
    # config error (exit 2), not a numerical failure (exit 4)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 2\nmodel = expression\n"
                   "h_expr = log(1+z) - log(1-z) + 3*z^2\n"
                   "fp = (1, 1, 0, dw)\nfp = (-1, -1, 0, rep)\n")
    assert main([argv[0], "-c", str(cfg), *argv[1:]]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("config error: round-trip smoke test failed "
                               "(Newton inversion failed to converge")
    assert len(lines) == 2 and lines[1].startswith("wall time")


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


def test_a_fixed_point_with_beta_minus_inf_has_no_growth_check(tmp_path):
    cfg = tmp_path / "twin.cfg"
    cfg.write_text(STRIP_TWIN_CFG.replace("-1.0, 0.0, rep", "-1.0, -inf, rep"))
    out = tmp_path / "v.json"
    assert main(["verify", "-c", str(cfg), "--lambda", "0.5",
                 "--json", str(out)]) == 0
    growth = _growth(out)
    assert list(growth) == [(1.0, 0.0)]
    assert growth[1.0, 0.0]["status"] == "pass"


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


@pytest.mark.parametrize("key, body", [
    ("h_expr", "h_expr = " + "(" * 2000 + "z" + ")" * 2000),
    ("h_expr", "h_expr = " + "+".join(["z"] * 2000)),
    ("v_expr", "h_expr = log((1+z)/(1-z))\nv_expr = "
     + "*".join(["(1+z)"] * 2000)),
], ids=["parentheses", "sum", "product"])
def test_an_expression_nested_too_deep_is_a_config_error(tmp_path, capsys,
                                                         key, body):
    # each overflowed a recursion, the parser's, a tape's compile and
    # log_of's, and ended in a traceback with exit 1
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(f"p = 2\nmodel = expression\n{body}\n"
                   "fp = (1, 2, 0, dw)\nfp = (-1, -2, 0, rep)\n")
    assert main(["classify", "-c", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[1].startswith("wall time: ")
    assert lines[0].startswith(f"config error: {key}: expression nested "
                               "deeper than 100 levels")


# -- numpy on first numerical use ---------------------------------------------

BUILTIN_CFGS = {"strip": STRIP_WEIGHTED_CFG,
                "half_strip": "p = 2\nmodel = half_strip\nc = 0.3\ns = 0.3\n",
                "trident": "p = 2\nmodel = trident\nc = 0\ns = 0.1\nd = 0.5\n"}


def test_classify_and_plot_of_a_builtin_never_run_numpy(tmp_path):
    # a built-in config parses with no numpy, and classify and plot read only
    # its boundary data; one fresh process runs both on each built-in
    argvs = []
    for name, text in BUILTIN_CFGS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        argvs += [["classify", "-c", str(cfg), "--json", str(tmp_path / "c.json"),
                   "--svg", str(tmp_path / "c.svg")],
                  ["plot", "-c", str(cfg), "--what", "operator", "--t", "0.5",
                   "--svg", str(tmp_path / "p.svg")]]
    probe = ("import json, sys\nfrom bergspec.cli import main\n"
             f"codes = [main(a) for a in json.loads({json.dumps(argvs)!r})]\n"
             "print(json.dumps([codes, 'numpy._core' in sys.modules]))\n")
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    codes, loaded = json.loads(done.stdout)
    assert codes == [0, 0, 3, 0, 0, 0]    # half_strip c = 0.3 exits 3
    assert not loaded


def test_the_first_numerical_use_from_many_threads_gets_numpy():
    # four threads, more than the cores, with a short switch interval: each
    # one's first read of np may import numpy and rebind it, and each runs a
    # built-in's round-trip check; every thread must get the same inverse
    probe = """
import sys, threading
from bergspec import cli, expr, numerics, scenario, truncation
sys.setswitchinterval(1e-6)
s = scenario.parse_scenario(sys.argv[1])
z = [0.1, 0.2j, -0.3]
out, go = [], threading.Barrier(4, timeout=30)
def run():
    go.wait()
    out.append(scenario.eval_h_inverse(s, scenario.eval_h(s, z)).tolist())
threads = [threading.Thread(target=run) for _ in range(4)]
for th in threads: th.start()
for th in threads: th.join(timeout=60)
assert not any(th.is_alive() for th in threads) and len(out) == 4
import numpy
assert all(m.np is numpy for m in (cli, expr, numerics, scenario, truncation))
assert s._round_trip_ok and all(o == out[0] for o in out)
assert max(abs(a - b) for a, b in zip(out[0], z)) < 1e-12
"""
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe, BUILTIN_CFGS["trident"]],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


STRIP_A_1E308 = "p = 2\nmodel = strip_flow\na = 1e308\n"


@pytest.mark.parametrize("argv", [["verify", "--lambda", "2"],
                                  ["truncate", "--N", "24"]],
                         ids=["verify", "truncate"])
def test_a_builtin_round_trip_is_checked_on_first_numerical_use(
        tmp_path, capsys, argv):
    # at a = 1e308 pi/(2a) overflows to 0 and every image reads outside the
    # strip, so the built-in's round trip fails when a numerical command
    # first evaluates it: a config error, as it was at parse
    cfg = tmp_path / "big.cfg"
    cfg.write_text(STRIP_A_1E308)
    assert main([argv[0], "-c", str(cfg), *argv[1:],
                 "--json", str(tmp_path / "o.json")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("config error: round-trip smoke test failed "
                               "(target point outside the image domain)")
    assert len(lines) == 2 and not (tmp_path / "o.json").exists()


def test_classify_and_report_of_a_builtin_that_fails_its_round_trip(
        tmp_path, capsys):
    # classify reads no map: alpha = 1e308 overflows gamma0 to inf, where the
    # essential spectrum is outside coverage (exit 3); report classifies the
    # entry, then its truncate meets the failed round trip, a config error
    # that ends the report (exit 2)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(STRIP_A_1E308)
    assert main(["classify", "-c", str(cfg), "--json", str(tmp_path / "c.json")]) == 3
    suite = tmp_path / "suite.txt"
    suite.write_text("big.cfg\n")
    out = tmp_path / "rpt"
    capsys.readouterr()
    assert main(["report", "--suite", str(suite), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: round-trip smoke test failed")
    assert (out / "big.classify.json").exists()
    assert not (out / "big.truncate.json").exists()


# -- truncate at a time its section cannot resolve ----------------------------

@pytest.mark.parametrize("name", BUILTIN_CFGS)
@pytest.mark.parametrize("t, N", [(1, 24), (2, 24), (1, 60), (2, 60)])
def test_truncate_resolves_times_1_and_2(tmp_path, name, t, N):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BUILTIN_CFGS[name])
    out = tmp_path / "t.json"
    assert main(["truncate", "-c", str(cfg), "--t", str(t), "--N", str(N),
                 "--json", str(out)]) == 0
    assert json.loads(out.read_text())["resolution_horizon"] >= 1


def test_truncate_refuses_a_time_its_section_cannot_resolve(tmp_path, capsys):
    # round(log(25)/3) - 1 = 0; N = 90 is the smallest with e^4.5 <= N + 1
    cfg = tmp_path / "s.cfg"
    cfg.write_text(STRIP_WEIGHTED_CFG)
    out = tmp_path / "t.json"
    assert main(["truncate", "-c", str(cfg), "--t", "3", "--N", "24",
                 "--json", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == ("coverage error: at t = 3 a section of N = 24 resolves "
                        "no power of T_t (resolution horizon 0): that needs "
                        "N >= 90")
    assert len(lines) == 2 and not out.exists()
    assert main(["truncate", "-c", str(cfg), "--t", "3", "--N", "90",
                 "--json", str(out)]) == 0
    assert json.loads(out.read_text())["resolution_horizon"] == 1


def test_report_inherits_the_refusal_of_a_time_no_section_resolves(
        tmp_path, capsys):
    # the entry is classified, its truncate writes the refusal, and the
    # report exits 3, not 4
    (tmp_path / "strip.cfg").write_text(STRIP_WEIGHTED_CFG)
    suite = tmp_path / "suite.txt"
    suite.write_text("strip.cfg\n")
    out = tmp_path / "rpt"
    assert main(["report", "--suite", str(suite), "--out", str(out),
                 "--t", "10"]) == 3
    err = [ln for ln in capsys.readouterr().err.splitlines()
           if not ln.startswith("wall time")]
    reason = ("at t = 10 a section of N = 24 resolves no power of T_t "
              "(resolution horizon -1): that needs N + 1 >= e^15, above the "
              "largest N, 256")
    assert err == [f"coverage error in strip: {reason}"]
    assert json.loads((out / "strip.truncate.json").read_text()) == {
        "command": "truncate", "error": reason}
    assert json.loads((out / "strip.classify.json").read_text())["command"] == "classify"
