"""Checks of the benchmark's own machinery: seeded inputs and the tracer."""

import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    a = workloads.generate(workload, 7, 1, tmp_path / "a")
    b = workloads.generate(workload, 7, 1, tmp_path / "b")
    fa, fb = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert fa and fa == fb
    assert [op.label for op in a] == [op.label for op in b]
    c = workloads.generate(workload, 8, 1, tmp_path / "c")
    assert _files(tmp_path / "c") != fa
    assert [op.label for op in c] != [op.label for op in a]


@pytest.mark.parametrize("workload", ("verify-closed", "galerkin-closed"))
def test_no_two_ops_share_an_input(workload, tmp_path):
    ops = workloads.generate(workload, 3, 60, tmp_path)
    configs = [p.read_text() for p in tmp_path.glob("*.cfg")]
    assert len(ops) > 8 and workloads.rounds_for(workload, 60) > 1
    assert len(set(configs)) == len(configs)


def _small_op(tmp_path):
    cfg = tmp_path / "strip.cfg"
    cfg.write_text("p = 2\nmodel = strip_flow\nc = 0.3\ns = 0.6\n")
    return [["classify", "-c", str(cfg), "--json", str(tmp_path / "c.json")],
            ["truncate", "-c", str(cfg), "--N", "8", "--nmax", "8",
             "--json", str(tmp_path / "t.json")]]


def _traced_counts(argvs):
    from bergspec import cli
    tracer = Tracer()
    tracer.install()
    try:
        for argv in argvs:
            assert tracer.call("cli", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_traced_counts_repeat_and_self_times_add_up(tmp_path, capsys):
    first = _traced_counts(_small_op(tmp_path))
    second = _traced_counts(_small_op(tmp_path))
    assert first.counts() == second.counts()
    m = first.metrics()
    assert m["truncation.build.calls"] == 1
    assert m["scenario.continuation.calls"] == 0
    assert m["expr.points"] > 0
    # self times partition the root spans exactly
    total_self = sum(first.self_times().values())
    assert total_self == pytest.approx(first.top_level(), rel=1e-9)


def test_tracer_restores_the_layers(tmp_path):
    from bergspec import expr, numerics, truncation
    before = (truncation.flow, numerics.eval_h, expr.AnalyticExpr.jet)
    _traced_counts([])
    assert (truncation.flow, numerics.eval_h, expr.AnalyticExpr.jet) == before


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_bytes((HERE / name).read_bytes())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "newton", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
