"""Benchmark for bergspec: seeded CLI sessions, closed loop, one client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-closed --seed 1 --seconds 15 --trace 0

Each op calls `bergspec.cli.main(argv)` in-process on files generated from
--seed (see workloads.py), one op after another.  A run does a fixed amount
of work set by --seconds.  Progress and each op's outcome go to stdout; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the layers are wrapped (tracing.py) and the per-layer metrics are
reported instead.  Details (machine block, every op, trace counts and spans)
are written under `.perfbench/` in the checkout.
"""

import time

_T0 = time.perf_counter()  # process start, before numpy and bergspec load

import os

# one BLAS thread keeps the process within nproc and CPU time equal to
# wall time; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5   # setup_s is the median of this many set-ups
PROBE_ROUNDS = 7


def _fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


# -- machine block ----------------------------------------------------------

def drift_probe():
    """Median time of a fixed pure-Python loop plus a small matmul, in ms."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    times = []
    for _ in range(PROBE_ROUNDS):
        t = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i % 7
        a @ a
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def machine_block():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "process_threads": threads,
            "loadavg_start": list(os.getloadavg())}


# -- set-up -----------------------------------------------------------------

def set_up(args, workdir):
    """Generate the inputs and construct every scenario once."""
    from bergspec.scenario import parse_scenario

    import workloads
    if workdir.exists():
        shutil.rmtree(workdir)
    ops = workloads.generate(args.workload, args.seed, args.seconds, workdir)
    for path in sorted(workdir.glob("*.cfg")):
        parse_scenario(path.read_text())
    return ops


def setup_child(args):
    """Time one set-up in a fresh process: process start to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# -- ops --------------------------------------------------------------------

def run_step(step):
    """Run one CLI step; return (exit code or None, message)."""
    from bergspec import cli
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(step.argv)
    except Exception as e:  # an uncaught exception is an op failure
        return None, f"{type(e).__name__}: {e}"
    lines = [ln for ln in err.getvalue().splitlines()
             if not ln.startswith("wall time")]
    return code, "; ".join(lines)


# -- output checks (independent of bergspec's own code) --------------------

def _jf(x):
    if x == "-inf":
        return float("-inf")
    return float(x)


def _close(a, b, tol=1e-9):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_gammas(report, gammas):
    prof = report["gamma_profile"]
    got = (_jf(prof["gamma0"]),) + tuple(_jf(x) for x in prof["gammas"])
    # JSON floats carry 12 significant digits
    return all(_close(a, b, 1e-10) for a, b in zip(got, gammas)) \
        and len(got) == len(gammas)


def _failed_checks(report):
    bad = [c for c in report.get("growth_exponents", [])
           if c.get("status") == "fail"]
    for res in report.get("results", []):
        bad += [c for c in res["checks"] if c.get("status") == "fail"]
    return bad


def check_output(step, code):
    """Problems with the outputs of a step that exited with `code`."""
    if code not in (0, 1, 3):
        return []
    problems = []
    if step.kind == "report":
        out = Path(step.json)
        for stem, gammas in step.suite:
            for suffix in (".classify.json", ".truncate.json", ".svg"):
                if not (out / f"{stem}{suffix}").is_file():
                    problems.append(f"missing {stem}{suffix}")
            if (out / f"{stem}.classify.json").is_file():
                rep = json.loads((out / f"{stem}.classify.json").read_text())
                if not _check_gammas(rep, gammas):
                    problems.append(f"{stem}: gamma profile differs")
        return problems
    report = json.loads(Path(step.json).read_text())
    if "gamma_profile" in report and not _check_gammas(report, step.gammas):
        problems.append("gamma profile differs from the generated data")
    if step.kind == "classify":
        svg = Path(step.svg).read_text()
        if "<svg" not in svg or not svg.rstrip().endswith("</svg>"):
            problems.append("SVG output malformed")
        if (code == 3) != ("coverage_errors" in report):
            problems.append("exit 3 without coverage errors, or the reverse")
    elif step.kind == "verify":
        if len(report["results"]) != step.n_lambda:
            problems.append("one result per lambda expected")
        if (code == 1) != bool(_failed_checks(report)):
            problems.append("exit code disagrees with the check statuses")
    elif step.kind == "truncate":
        gmax = max(step.gammas)
        theory = math.exp(gmax * step.t)
        if not _close(_jf(report["operator_radius_theory"]), theory, 1e-10):
            problems.append("operator radius differs from exp(t max gamma)")
        if len(report["gelfand_sequence"]) != step.nmax:
            problems.append("gelfand sequence length differs from nmax")
        if not _jf(report["gelfand_radius"]) > 0:
            problems.append("gelfand radius not positive")
        if (code == 0) != report["radius_bound_ok"]:
            problems.append("exit code disagrees with radius_bound_ok")
    return problems


def describe_failure(step, code, message):
    if code == 1 and step.kind == "verify" and Path(step.json).is_file():
        bad = _failed_checks(json.loads(Path(step.json).read_text()))
        return "; ".join(f"{c['check']} value {c.get('value')} tolerance "
                         f"{c.get('tolerance')}" for c in bad)
    return message


def run_ops(ops, tracer=None):
    """Run the ops closed loop; return per-op records."""
    records = []
    for op in ops:
        span_mark = len(tracer.name) if tracer else 0
        outcomes, step_walls = [], []
        t = time.perf_counter()
        for step in op.steps:
            ts = time.perf_counter()
            if tracer:
                outcomes.append(tracer.call("cli", run_step, step))
            else:
                outcomes.append(run_step(step))
            step_walls.append(time.perf_counter() - ts)
        wall = time.perf_counter() - t
        rec = {"op": op.label, "wall_s": wall, "steps": []}
        passed, problems = True, []
        for step, (code, message), step_wall in zip(op.steps, outcomes,
                                                     step_walls):
            ok = code in step.pass_codes
            entry = {"cmd": step.kind, "exit": code, "pass": ok,
                     "wall_s": step_wall}
            if not ok:
                entry["message"] = describe_failure(step, code, message)
            bad = check_output(step, code)
            if bad:
                entry["output_problems"] = bad
                problems += bad
                ok = False
            passed &= ok
            rec["steps"].append(entry)
        rec["pass"] = passed
        rec["output_ok"] = not problems
        if tracer:
            rec["traced_s"] = tracer.top_level(span_mark)
        records.append(rec)
    return records


def _fmt_step(s):
    text = f"{s['cmd']}={s['exit']}"
    if "message" in s:
        text += f" ({s['message']})"
    if "output_problems" in s:
        text += f" [output: {', '.join(s['output_problems'])}]"
    return text


def main(argv=None):
    args = _args(argv)
    if not (ROOT / "src" / "bergspec" / "__init__.py").is_file():
        _fail(f"no bergspec sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "inputs" / f"{tag}-{os.getpid()}"

    if args.setup_only:
        set_up(args, workdir)
        print(time.perf_counter() - _T0)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    ops = set_up(args, workdir)
    setups = [time.perf_counter() - _T0]
    machine = machine_block()
    if not args.trace:
        setups += [setup_child(args) for _ in range(SETUP_REPEATS - 1)]
    machine["probe_before_ms"] = drift_probe()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        records = run_ops(ops, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    machine["probe_after_ms"] = drift_probe()
    shutil.rmtree(workdir, ignore_errors=True)

    op_walls = [r["wall_s"] for r in records]
    wall = sum(op_walls)   # output checks between ops are not timed
    failed = sum(not r["pass"] for r in records)
    correct = all(r["output_ok"] for r in records)
    for r in records:
        status = "pass" if r["pass"] else "FAIL"
        print(f"{status} {r['wall_s']:8.3f}s  {r['op']}: "
              + ", ".join(_fmt_step(s) for s in r["steps"]))
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "ops": records,
              "setup_samples_s": setups}

    if tracer:
        per_layer = tracer.metrics()
        # the root spans of each op must account for its wall time
        coverage = min(r["traced_s"] / r["wall_s"] for r in records)
        per_layer["trace.wall_s"] = wall
        per_layer["trace.top_level_share"] = coverage
        if not 0.98 <= coverage <= 1.0:
            print(f"top-level spans cover only {coverage:.4f} of an op")
            correct = False
        if (args.workload in workloads.CLOSED_FORM
                and per_layer["scenario.continuation.calls"] != 0):
            print("Newton continuation ran on a closed-form workload")
            correct = False
        detail["counts"] = tracer.counts()
        detail["self_s"] = tracer.self_times()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{tag}-spans.npz")
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in per_layer.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "pass_ratio": {"value": (len(records) - failed) / len(records),
                           "unit": "ratio"},
        }
    detail["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"machine: {json.dumps(machine)}")
    print(f"{args.workload}: n={len(records)} ops, {failed} failed; "
          f"op_p50_s over n={len(records)}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
