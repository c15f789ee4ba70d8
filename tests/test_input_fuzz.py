"""Malformed input never ends in a traceback (dev-only: needs hypothesis).

Three kinds of input are generated: scenario configs run through `classify`
and `plot --what operator` (every key, built-in and parametric models, and
numbers that include nan, +-inf, 1e+-300 and malformed text), formula text
for `parse_expr`, and bad values of every numeric option.  A config must end
with exit code 0, 2 or 3, the others with a code from 0 to 4, and each with
at most one message line on stderr besides the wall time (argparse's error
line for a bad option), with no warning.  Only invalid formulas and option
values are run, so no case reaches the numerics of `verify` or `truncate`,
nor the Newton smoke test of an expression model.
"""

import contextlib
import io
import string
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bergspec.cli import main
from bergspec.errors import ExprSyntaxError
from bergspec.expr import AnalyticExpr, parse_expr

# malformed and extreme numbers; NUMBERS draws them one time in three
BAD_NUMBERS = st.sampled_from([
    "nan", "NaN", "inf", "-inf", "+inf", "infinity", "1e300", "-1e300",
    "1e-300", "1e999", "-0", "", "abc", "1..2", "1e", "0x10", "1 2", "(1)",
    "--1", "−1",
])
NUMBERS = BAD_NUMBERS | st.sampled_from(["0", "1", "2", "0.5", "-0.3"]) | \
    st.floats(-3, 3).map(repr)
COMPLEX = st.sampled_from([
    "1", "-1", "i", "-i", "+i", "j", "0.3+0.2i", "0.6+0.8i", "-0.5", "2",
    "1e300i", "nan", "inf+1i", "", "1+", "i i", "(1)", "1e-300-1e-300i",
    "0.1−0.1i",
])
ROLES = st.sampled_from(["dw", "rep", "denjoy_wolff", "repelling", "attr", ""])
FP = st.sampled_from([
    "(1, 1, 0, dw)", "(-1, -1, 0.5, rep)", "(i, -2, 1, rep)",
    "(-1, 1, -inf, dw)", "(0.6+0.8i, 2, 0.3, denjoy_wolff)",
    "(-i, -0.5, 0, repelling)", "(1, -1, 0, dw)", "(0.5, 1, 0, dw)",
    "(1, 1, 0)", "1, 1, 0, dw", "(1, 1, 0, dw, 2)", "()", "",
]) | st.builds(lambda *f: "(" + ", ".join(f) + ")", COMPLEX, NUMBERS,
               NUMBERS | st.sampled_from(["-inf", "-Infinity", "-oo", "−inf"]),
               ROLES)

# formula text: every character the parser reads, and some it does not
# ('#' is left out: in a config it starts a comment)
FORMULA_CHARS = "z0123456789.eE+-*/^(), ilogexpsqrtpw=xy"
FORMULAS = st.sampled_from([
    "", "z +", "2 ** z", "sin(z)", "(1+z", "pow(z)", "z^z", "z^", "1e",
    "1e+", ".", "1.2.3", "sqrt()", "pow(z,)", "log(z))", "exp", "z^-",
    "pi(z)", "i z", "log((1+z)/(1-z))", "pow(1-z, 0.5)", "z^-3", "2i*z",
]) | st.text(FORMULA_CHARS, max_size=16)


def _formula_error(text):
    try:
        e = parse_expr(text)
    except ExprSyntaxError as err:
        return err
    assert isinstance(e, AnalyticExpr)
    return None


# an expression model stops at its invalid formula, before any numerics
INVALID_FORMULAS = FORMULAS.map(str.strip).filter(
    lambda t: _formula_error(t) is not None)
NOISE = st.sampled_from([
    "", "   ", "# a comment", "no equals sign", "p 2", "=", "q = 1", "P = 2",
    " = 1", "fp2 = 1", "p = 3", "model = trident", "c = 1 # comment"])
VALID_P = st.sampled_from(["1", "2", "3", "2.5"])

# the keys each model reads besides p and model, by one letter each: a, c,
# s, d, h(_expr), v(_expr), f(p) and n for petal_anchor
_READS = {"strip_flow": "acsd", "half_strip": "csd", "trident": "csd",
          "parametric": "f", "expression": "hvfn", "strip": "", "": "",
          None: ""}


@st.composite
def configs(draw):
    """Config text: the keys its model reads, each at most once and in any
    order, and in one config of four a key it does not read, or a line
    that repeats a key or is not a key = value line at all."""
    model = draw(st.sampled_from(sorted(_READS, key=str)))
    stray = draw(st.sampled_from([False, False, False, True]))
    keys = "acsdhvfn" if stray else _READS[model]
    lines = [] if model is None else [f"model = {model}"]
    if draw(st.sampled_from([True] * 7 + [False])):
        # three p values in four are valid
        p = draw(st.sampled_from([VALID_P] * 3 + [NUMBERS]))
        lines.append(f"p = {draw(p)}")
    for key in "acsd":
        if key in keys and draw(st.booleans()):
            lines.append(f"{key} = {draw(NUMBERS | st.floats(-2, 2).map(repr))}")
    for key in ("h_expr", "v_expr"):
        if key[0] in keys and draw(st.booleans()):
            lines.append(f"{key} = {draw(INVALID_FORMULAS)}")
    if "f" in keys:
        lines += [f"fp = {x}" for x in draw(st.lists(FP, max_size=3))]
    if "n" in keys:
        lines += [f"petal_anchor = {x}"
                  for x in draw(st.lists(COMPLEX, max_size=1))]
    if stray:
        lines += draw(st.lists(NOISE, max_size=1))
    return "".join(line + "\n" for line in draw(st.permutations(lines)))


def _run(argv):
    """Exit code and stderr lines of one CLI call, with no warning raised or
    shown."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as e:     # argparse rejects an option value
            code = e.code
    assert not caught, [str(w.message) for w in caught]
    lines = err.getvalue().splitlines()
    assert not any("Traceback" in line for line in lines)
    return code, lines


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(text=configs())
def test_any_config_ends_in_an_exit_code_and_one_message(work, text):
    # classify and plot read only exact values, which a float either holds
    # or refuses as a coverage error: never a numerical failure.  classify
    # records what it refuses in its JSON, plot names it on stderr
    cfg = work / "s.cfg"
    cfg.write_text(text, encoding="utf-8")
    for argv, noted in ((["classify", "--json", str(work / "c.json")], (2,)),
                        (["plot", "--what", "operator", "--svg",
                          str(work / "p.svg")], (2, 3))):
        code, lines = _run([argv[0], "-c", str(cfg), *argv[1:]])
        assert code in (0, 2, 3)
        assert lines[-1].startswith("wall time: ")
        messages = lines[:-1]
        assert len(messages) == (code in noted), messages
        if code == 2:
            assert messages[0].startswith("config error: ")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(text=FORMULAS)
def test_formula_text_parses_or_is_a_config_error(work, text):
    text = text.strip()
    err = _formula_error(text)
    if err is None:
        return      # a valid formula would run Newton's smoke test
    assert err.pos >= 1
    cfg = work / "e.cfg"
    cfg.write_text(f"p = 2\nmodel = expression\nh_expr = {text}\n"
                   "fp = (1, 1, 0, dw)\n", encoding="utf-8")
    code, lines = _run(["classify", "-c", str(cfg)])
    assert code == 2
    assert lines[:-1] == [f"config error: h_expr: {err}"]


# values each option rejects: negative, non-finite or malformed
BAD_REALS = st.sampled_from([
    "-1", "-1e-300", "-inf", "nan", "inf", "1e999", "", "abc", "1,2", "0x1",
    "--", "one", "−1",
]) | st.floats(max_value=-1e-300).map(repr) | st.text(string.ascii_letters,
                                                      min_size=1, max_size=8)
BAD_COUNTS = st.sampled_from(["1.5", "1e2", "", "nan", "x", "2.0"]) | \
    st.integers(max_value=0).map(str)
BAD_NMAX = BAD_COUNTS | st.integers(max_value=7).map(str)
BAD_VIEWPORTS = st.sampled_from([
    "", "1,2,3", "0,1,1,0", "1,0,0,1", "0,0,0,0", "a,b,c,d", "nan,1,0,1",
    "-inf,1,0,1", "0,1,0,inf", "0;1;0;1", "0,1,0,1,2",
]) | st.tuples(*[st.floats(allow_nan=True)] * 4).filter(
    lambda b: not (b[0] < b[1] and b[2] < b[3])).map(
    lambda b: ",".join(map(repr, b)))

_CFG = "p = 2\nmodel = strip_flow\nc = 0.4\ns = 0.7\n"
_BAD_OPTIONS = {
    ("classify", "--t"): BAD_REALS, ("classify", "--viewport"): BAD_VIEWPORTS,
    ("verify", "--t"): BAD_REALS, ("verify", "--tol-identity"): BAD_REALS,
    ("verify", "--tol-residual"): BAD_REALS, ("verify", "--tol-orbit"): BAD_REALS,
    ("verify", "--tol-slope"): BAD_REALS, ("truncate", "--t"): BAD_REALS,
    ("truncate", "--N"): BAD_COUNTS, ("truncate", "--nmax"): BAD_NMAX,
    ("plot", "--t"): BAD_REALS, ("plot", "--viewport"): BAD_VIEWPORTS,
    ("report", "--t"): BAD_REALS, ("report", "--N"): BAD_COUNTS,
    ("report", "--nmax"): BAD_NMAX,
}
BAD_ARGS = st.sampled_from(sorted(_BAD_OPTIONS)).flatmap(
    lambda key: st.tuples(st.just(key), _BAD_OPTIONS[key]))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=BAD_ARGS)
def test_a_bad_option_value_is_a_usage_error(work, case):
    (cmd, option), value = case
    cfg = work / "o.cfg"
    cfg.write_text(_CFG)
    argv = {"classify": ["classify", "-c", str(cfg)],
            "verify": ["verify", "-c", str(cfg), "--lambda", "0.5"],
            "truncate": ["truncate", "-c", str(cfg)],
            "plot": ["plot", "-c", str(cfg), "--svg", str(work / "p.svg")],
            "report": ["report", "--suite", str(work / "suite.txt"),
                       "--out", str(work / "rpt")]}[cmd]
    code, lines = _run([*argv, f"{option}={value}"])
    assert code == 2
    assert lines[0].startswith(f"usage: bergspec {cmd}")
    assert [line for line in lines if "error: " in line] == [lines[-1]]
    assert lines[-1].startswith(f"bergspec {cmd}: error: argument {option}")
