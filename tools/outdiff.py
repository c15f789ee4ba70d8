"""Write every output of a benchmark workload, or compare two such writes.

    python3 tools/outdiff.py run --workload verify-closed --seed 1 --out DIR [--reverse]
    python3 tools/outdiff.py run --workload newton --seed 97 --out DIR --root OTHER_CHECKOUT
    python3 tools/outdiff.py compare DIR_A DIR_B

`run` generates the inputs of one perfbench run (perfbench/workloads.py,
read only) under DIR/files and runs every CLI step in order in one process,
as the benchmark does, so state that leaks from one in-process call into
the next shows.  Each step writes its JSON and SVG there; DIR/steps.json
records each step's argv, exit code and stderr lines (all but the wall
time), with the work directory written as <work>.  --reverse runs the ops
last to first (each op's steps still in order) and records them in the
usual order, so comparing it with a forward run shows any output that
depends on what ran before it in the process.  --root picks the source
checkout whose src/bergspec and perfbench are used (default: this one).

`compare` lists every file that is missing on one side or differs, every
JSON field that moved, with its old and new value and relative change, and
per field name the number of moves and the largest relative change.  It
exits 0 when the two directories are identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, out, root, reverse=False):
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from bergspec import cli

    out = Path(out).resolve()
    work = out / "files"
    if work.exists():
        shutil.rmtree(work)
    ops = workloads.generate(workload, seed, seconds, work)
    steps = {}
    order = range(len(ops))
    for i in reversed(order) if reverse else order:
        op = ops[i]
        for j, step in enumerate(op.steps):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(step.argv)
            steps[i, j] = {
                "op": op.label,
                "argv": [a.replace(str(work), "<work>") for a in step.argv],
                "exit": code,
                "stderr": [ln.replace(str(work), "<work>")
                           for ln in err.getvalue().splitlines()
                           if not ln.startswith("wall time")]}
    (out / "steps.json").write_text(
        json.dumps([steps[k] for k in sorted(steps)], indent=1) + "\n")
    return 0


def _leaves(obj, path=""):
    """(path, value) for every leaf of a JSON document; a check is named by
    its "check" key instead of its list index."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            tag = v.get("check") if isinstance(v, dict) else None
            yield from _leaves(v, f"{path}[{tag or i}]")
    else:
        yield path, obj


def _rel(a, b):
    """Relative change from a to b, or None where it is not a number."""
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in (a, b)):
        return None
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0


def _files(d):
    return {str(p.relative_to(d)): p for p in sorted(Path(d).rglob("*"))
            if p.is_file()}


def compare(dir_a, dir_b):
    fa, fb = _files(dir_a), _files(dir_b)
    moved = {}   # field name -> (count, largest relative change or None)
    differ = 0
    for name in sorted(fa.keys() | fb.keys()):
        if name not in fa or name not in fb:
            print(f"only in {dir_a if name in fa else dir_b}: {name}")
            differ += 1
            continue
        a, b = fa[name].read_bytes(), fb[name].read_bytes()
        if a == b:
            continue
        differ += 1
        if not name.endswith(".json"):
            print(f"{name}: differs")
            continue
        la = dict(_leaves(json.loads(a)))
        lb = dict(_leaves(json.loads(b)))
        for path in sorted(la.keys() | lb.keys()):
            old, new = la.get(path, "<absent>"), lb.get(path, "<absent>")
            if old == new:
                continue
            rel = _rel(old, new)
            print(f"{name}: {path}: {old} -> {new}"
                  + ("" if rel is None else f" (relative {rel:.3g})"))
            field = re.sub(r"\[\d+\]", "[]", path)
            count, worst = moved.get(field, (0, 0.0))
            worst = None if rel is None or worst is None else max(worst, rel)
            moved[field] = (count + 1, worst)
    for field, (count, worst) in sorted(moved.items()):
        print(f"moved: {field}: {count} times, largest relative change "
              + ("non-numeric" if worst is None else f"{worst:.3g}"))
    print(f"{differ} of {len(fa.keys() | fb.keys())} files differ")
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="write every output of one workload run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="sets the number of rounds, as in perfbench/run.py")
    p.add_argument("--out", required=True)
    p.add_argument("--reverse", action="store_true",
                   help="run the ops last to first")
    p.add_argument("--root", type=Path, default=DEFAULT_ROOT)
    p = sub.add_parser("compare", help="list what differs between two runs")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return run(args.workload, args.seed, args.seconds, args.out,
                   args.root.resolve(), args.reverse)
    return compare(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())
