"""The summary of tools/pairs.py on canned numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# ten parent runs: median 0.31, quartiles 0.3025 and 0.3175 (numpy's
# linear interpolation), so an interquartile range of 0.015
PARENT = [0.29, 0.30, 0.30, 0.31, 0.31, 0.31, 0.31, 0.32, 0.32, 0.33]


def test_a_clear_gain_holds():
    s = pairs.summarize(PARENT, [0.20] * 9 + [0.40], "lower")
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["a"] == pytest.approx((0.3025, 0.31, 0.3175))
    assert s["b"][1] == pytest.approx(0.20)
    assert s["change"] == pytest.approx(-0.11 / 0.31)
    assert s["holds"]


def test_eight_wins_of_ten_do_not_hold():
    assert not pairs.summarize(PARENT, [0.20] * 8 + [0.40] * 2, "lower")["holds"]


def test_a_gap_within_the_parents_quartiles_does_not_hold():
    # b wins every pair, but its median is only 0.01 below a's
    s = pairs.summarize(PARENT, [x - 0.01 for x in PARENT], "lower")
    assert s["wins"] == 10 and not s["holds"]


def test_higher_is_better_and_ties_are_no_wins():
    s = pairs.summarize([0.5] * 10, [0.9] * 10, "higher")
    assert s["wins"] == 10 and s["holds"]
    s = pairs.summarize([6 / 7] * 10, [6 / 7] * 10, "higher")
    assert s["wins"] == 0 and not s["holds"] and s["change"] == 0


def test_the_table_has_one_line_per_metric_reported_on_both_sides():
    runs_a = [{"wall_s": x, "pass_ratio": 1.0} for x in PARENT]
    runs_b = [{"wall_s": 0.2, "pass_ratio": 1.0} for _ in PARENT]
    out = pairs.table(runs_a, runs_b,
                      {"wall_s": "lower", "pass_ratio": "higher",
                       "setup_s": "lower"}).splitlines()
    assert len(out) == 3
    assert out[1].startswith("wall_s") and "10/10" in out[1]
    assert "holds" in out[1] and "-35.5%" in out[1]
    assert out[2].startswith("pass_ratio") and "not met" in out[2]


def test_a_checkout_holding_bytecode_is_refused(tmp_path, capsys):
    # refused before any run: bytecode left by an earlier run makes that
    # side's setup_s faster
    for side in ("a", "b"):
        for sub in ("src/bergspec", "perfbench"):
            (tmp_path / side / sub).mkdir(parents=True)
    cache = tmp_path / "b" / "perfbench" / "__pycache__"
    cache.mkdir()
    argv = ["--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
            "--workload", "newton", "--seed", "1", "--pairs", "10"]
    assert pairs.main(argv) == 2
    assert capsys.readouterr().err == (
        f"pairs: {cache} holds compiled bytecode; remove it so that both "
        "sides compile alike\n")


def test_the_count_table_marks_each_count_that_differs():
    a = {"calls.expr": 104, "points.expr": 21410, "calls.numerics.ring": 6,
         "failures.regions": 2}
    b = {"calls.expr": 104, "points.expr": 20000, "calls.numerics.ring": 6}
    out = pairs.count_table(a, b).splitlines()
    assert out[0].split() == ["count", "a", "b"]
    rows = {line.split()[0]: line.split()[1:] for line in out[1:]}
    assert rows == {"calls.expr": ["104", "104"],
                    "calls.numerics.ring": ["6", "6"],
                    "failures.regions": ["2", "-", "differs"],
                    "points.expr": ["21410", "20000", "differs"]}
    assert [line.split()[0] for line in out[1:]] == sorted(rows)
