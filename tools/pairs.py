"""Alternating paired benchmark runs of two checkouts, and the speed-claim rule.

    python3 tools/pairs.py --a PARENT_CHECKOUT --b CHANGE_CHECKOUT --workload newton --seed 1 --pairs 10

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds 15
--trace 0` once in each checkout, from its root, so each side measures its
own src/bergspec with its own perfbench (the two perfbench trees should be
byte-identical; a note goes to stderr when they are not).  The side that
runs first alternates from pair to pair, so drift of the machine falls on
both sides alike.  Both sides run with PYTHONDONTWRITEBYTECODE=1, and a
checkout whose src/ or perfbench/ holds a __pycache__ is refused (exit 2):
compiled bytecode made setup_s read 15-29% faster than in a fresh checkout.

For every end-to-end metric that BENCHMARK.json (read from --a) names, the
summary gives each side's median and quartiles over the pairs, the change
of b's median from a's, how many pairs b won (a tie is no win), and whether
the rule for a speed claim holds: b wins at least nine tenths of the pairs,
and b's median beats a's by more than a's interquartile range.

After the timed pairs each side runs once more with --trace 1, and every
count that the traced run writes to .perfbench/<tag>.json (calls, points
and failures per layer) is printed for both sides, a count that differs
marked.  Counts do not vary from run to run, so a marked one is work that
the change added or removed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SECONDS = 15
WIN_SHARE = 0.9


def _run(root, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
           str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         check=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_once(root, workload, seed):
    """The metrics of one benchmark run in checkout `root`: {name: value}."""
    last = _run(root, workload, seed, 0)
    return {k: m["value"] for k, m in last["metrics"].items()}


def traced_counts(root, workload, seed):
    """The counts of one traced run in checkout `root`, named by kind and
    layer: {"calls.expr": 104, "points.expr": 21410, ...}."""
    _run(root, workload, seed, 1)
    tag = f"{workload}-seed{seed}-trace1"
    detail = json.loads((root / ".perfbench" / f"{tag}.json").read_text())
    return {f"{kind}.{layer}": n for kind, per in detail["counts"].items()
            for layer, n in per.items()}


def count_table(a, b):
    """One line per count that either side reports, a's and b's side by
    side ("-" where a side has none); a count that differs is marked."""
    lines = [f"{'count':<34} {'a':>10} {'b':>10}"]
    for name in sorted(a.keys() | b.keys()):
        x, y = a.get(name, "-"), b.get(name, "-")
        lines.append(f"{name:<34} {x:>10} {y:>10}"
                     + ("  differs" if x != y else ""))
    return "\n".join(lines)


def summarize(a, b, better):
    """Medians, quartiles, wins and the claim rule for one metric, from the
    per-pair values a[i] and b[i]; `better` is "lower" or "higher"."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
    wins = int(np.sum(sign * (a - b) > 0))
    gain = sign * (qa[1] - qb[1])
    return {"a": tuple(qa), "b": tuple(qb), "wins": wins, "pairs": a.size,
            "change": (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan"),
            "holds": wins >= WIN_SHARE * a.size and gain > qa[2] - qa[0]}


def table(runs_a, runs_b, directions):
    """One summary line per metric that both sides report in every run."""
    lines = [f"{'metric':<12} {'a median [q1, q3]':>30} "
             f"{'b median [q1, q3]':>30} {'change':>8} {'b wins':>7}  rule"]
    for name, better in directions.items():
        if not all(name in r for r in runs_a + runs_b):
            continue
        s = summarize([r[name] for r in runs_a], [r[name] for r in runs_b],
                      better)
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (s["a"], s["b"])]
        lines.append(f"{name:<12} {cells[0]:>30} {cells[1]:>30} "
                     f"{s['change']:>+8.1%} {s['wins']:>3}/{s['pairs']:<3}  "
                     f"{'holds' if s['holds'] else 'not met'} ({better} is better)")
    return "\n".join(lines)


def _bytecode(root):
    """The first __pycache__ under root's src/ or perfbench/, or None."""
    return next((d for sub in ("src", "perfbench")
                 for d in sorted((root / sub).rglob("__pycache__"))), None)


def _harness(root):
    return {p.relative_to(root): p.read_bytes()
            for p in (root / "perfbench").rglob("*.py")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", type=Path, required=True, help="parent checkout")
    ap.add_argument("--b", type=Path, required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    a, b = args.a.resolve(), args.b.resolve()
    for root in (a, b):
        if (cache := _bytecode(root)) is not None:
            sys.stderr.write(f"pairs: {cache} holds compiled bytecode; "
                             "remove it so that both sides compile alike\n")
            return 2
    if _harness(a) != _harness(b):
        sys.stderr.write("pairs: the two perfbench trees differ\n")
    spec = json.loads((a / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    roots, runs = (a, b), ([], [])
    for i in range(args.pairs):
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[k].append(run_once(roots[k], args.workload, args.seed))
        print(f"pair {i + 1}/{args.pairs}: wall_s a {runs[0][-1].get('wall_s')}"
              f" b {runs[1][-1].get('wall_s')}", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs "
          f"(a = {a}, b = {b})")
    print(table(*runs, directions))
    print("\ncounts of one traced run per side")
    print(count_table(*(traced_counts(r, args.workload, args.seed)
                        for r in roots)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
