"""Seeded input generator for the bergspec benchmark.

`generate(workload, seed, seconds, workdir)` writes every config and suite
file an op needs into `workdir` and returns the ops.  An op is a list of
CLI steps (argv lists for `bergspec.cli.main`) plus what the benchmark needs
to check the outputs: the expected gamma profile of each config and the
exit codes that count as a pass.  The same (workload, seed, seconds) gives
byte-identical files; no two ops in a run share an input.

Inputs are stratified: every round of a workload holds the same mix of
models and lambda positions, each jittered by the seed, so the work per run
and the share of ops that hit a known defect hardly depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("verify-closed", "galerkin-closed", "newton")

# nominal seconds of one round at the time the benchmark was written; a
# run does max(1, round(seconds / ROUND_SECONDS)) rounds, so the work of a
# run is fixed by --seconds and a faster program finishes it sooner
ROUND_SECONDS = {"verify-closed": 16.0, "galerkin-closed": 5.0,
                 "newton": 55.0}

# models whose inverse has a closed form: Newton continuation must not run
CLOSED_FORM = ("verify-closed", "galerkin-closed")

NEG_INF = float("-inf")


@dataclass
class Step:
    argv: list
    kind: str                  # classify | verify | truncate | report
    json: str | None = None    # JSON the step writes (report: its --out)
    svg: str | None = None
    gammas: tuple = ()         # expected (gamma0, gamma1, gamma2)
    t: float = 1.0
    nmax: int = 24
    n_lambda: int = 0
    suite: tuple = ()          # (stem, gammas) per report entry

    @property
    def pass_codes(self):
        # exit 3 is the documented theorem-coverage outcome of classify
        # (report runs classify on every suite entry)
        return (0, 3) if self.kind in ("classify", "report") else (0,)


@dataclass
class Op:
    label: str
    steps: list = field(default_factory=list)


# -- gamma profiles (p = 2, a = 1), computed independently of bergspec ------

def strip_gammas(c, s, d=0.0):
    return (1.0 + c - s, -1.0 + c + s + d, NEG_INF)


def half_strip_gammas(c, s):
    return (1.0 + c - s, NEG_INF, NEG_INF)


_CLOSED_GAMMAS = {"strip_flow": strip_gammas, "half_strip": half_strip_gammas}


def trident_gammas(c, s, d):
    reps = sorted((-2.0 + c + 2.0 * (s + d), -2.0 + c + 2.0 * s), reverse=True)
    return (1.0 + c - s, reps[0], reps[1])


def _num(x):
    return format(x, ".6f")


def _u(rng, lo, hi):
    """A uniform draw, rounded to the digits written into the configs."""
    return float(_num(rng.uniform(lo, hi)))


def _complex(z):
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _builtin_text(model, c, s, d=0.0):
    text = f"p = 2\nmodel = {model}\nc = {_num(c)}\ns = {_num(s)}\n"
    if d:
        text += f"d = {_num(d)}\n"
    return text


# expression twins of the built-ins: the same h, v and fixed-point data, so
# every inversion goes through Newton continuation
_TWIN_H = {
    "strip_flow": ("log(1+z) - log(1-z)", "2/(1-z^2)", "1+z"),
    "trident": ("0.5*log(1+z^2) - log(1+z)", "z/(1+z^2) - 1/(1+z)", "z - i"),
}


def _twin_text(model, c, s, d, anchors):
    h, hprime, d_factor = _TWIN_H[model]
    v = (f"exp({_num(c)}*({h})) * pow({hprime}, -{_num(s)})"
         f" * pow({d_factor}, {_num(d)})")
    if model == "strip_flow":
        fps = [("1", 1.0, c - s, "dw"), ("-1", -1.0, c + s + d, "rep")]
    else:
        fps = [("-1", 1.0, c - s, "dw"), ("i", -2.0, c + 2 * (s + d), "rep"),
               ("-i", -2.0, c + 2 * s, "rep")]
    lines = ["p = 2", "model = expression", f"h_expr = {h}", f"v_expr = {v}"]
    lines += [f"fp = ({z}, {a:g}, {_num(b)}, {role})" for z, a, b, role in fps]
    lines += [f"petal_anchor = {_complex(a)}" for a in anchors]
    return "\n".join(lines) + "\n"


def _petal_anchors(model, c, s, d):
    from bergspec.scenario import make_builtin
    scn = make_builtin(model, 2.0, c=c, s=s, d=d)
    return [scn.petal_anchor(fp) for fp in scn.repelling_points()]


class _Writer:
    """Writes input files under one directory and refuses duplicates."""

    def __init__(self, workdir):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.seen = set()

    def path(self, stem, suffix):
        return str(self.dir / f"{stem}{suffix}")

    def config(self, stem, text):
        if text in self.seen:
            raise ValueError(f"duplicate generated input {stem}")
        self.seen.add(text)
        p = self.dir / f"{stem}.cfg"
        p.write_text(text)
        return str(p)


def _lams(*values):
    # plain reals: argparse takes '-1.5' as a value, never as an option
    return [_num(x) for x in values]


# -- workloads --------------------------------------------------------------

# Every op is drawn from a fixed stratum: a centre for each parameter and
# lambda offset, jittered by the seed within a narrow band.  The band keeps
# every op's input distinct while the adaptive quadratures do about the same
# work on every seed, so run-to-run spread comes from the machine, not from
# the draw.  The bands sit well inside the ranges where each stratum's
# outcome (pass, or the known defect it hits, NOTES.md) holds.
_JITTER = 0.02   # half-width of the band around c, s, d and t
_LAM_JITTER = 0.05  # half-width of the band around each lambda offset


def _near(rng, centre, half=_JITTER):
    return _u(rng, centre - half, centre + half)


# verify-closed strata: (model, c, s, right offset past gamma0, left offset
# below gamma1).  On strip_flow a right offset below about 0.82 and a left
# offset below about 0.4 make the closed-form orbit collapse onto the fixed
# point (defect 2); 0.55 and 0.20 sit inside those bands, 1.10 and 1.00
# outside them.  half_strip fails the resolvent residual right of gamma0
# (defect 1) at any offset.
_VERIFY_STRATA = (
    ("strip_flow", 0.40, 0.70, 0.55, 1.00),   # defect 2, forward orbit
    ("half_strip", 0.45, 0.75, 0.85, None),   # defect 1
    ("strip_flow", 0.30, 0.60, 1.10, 1.00),   # passes
    ("half_strip", 0.30, 0.60, 0.85, None),   # defect 1
    ("strip_flow", 0.50, 0.80, 1.10, 0.20),   # defect 2, backward orbit
    ("strip_flow", 0.35, 0.55, 1.10, 1.00),   # passes
)


def _verify_closed(rng, w, rounds):
    """Each op is one user session on a closed-form built-in: classify
    --svg, then verify at three lambdas (right of gamma0, between gamma1 and
    gamma0, left of gamma1), one op per stratum of _VERIFY_STRATA."""
    ops = []
    for r in range(rounds):
        for k, (model, c0, s0, right_off, left_off) in enumerate(_VERIFY_STRATA):
            stem = f"vc{r:02d}{k}"
            c, s = _near(rng, c0), _near(rng, s0)
            right_off = _near(rng, right_off, _LAM_JITTER)
            if model == "strip_flow":
                g = strip_gammas(c, s)
                mid = g[1] + _near(rng, 0.5, 0.1) * (g[0] - g[1])
                left = g[1] - _near(rng, left_off, _LAM_JITTER)
            else:
                # gamma1 = -inf: both remaining lambdas sit left of gamma0
                g = half_strip_gammas(c, s)
                mid = g[0] - _near(rng, 0.6, _LAM_JITTER)
                left = g[0] - _near(rng, 1.8, _LAM_JITTER)
            cfg = w.config(stem, _builtin_text(model, c, s))
            lams = _lams(g[0] + right_off, mid, left)
            ops.append(Op(f"{stem} {model} c={c:.3f} s={s:.3f} "
                          f"lambda={','.join(lams)}", [
                Step(["classify", "-c", cfg, "--json", w.path(stem, ".classify.json"),
                      "--svg", w.path(stem, ".svg")], "classify",
                     json=w.path(stem, ".classify.json"),
                     svg=w.path(stem, ".svg"), gammas=g),
                Step(["verify", "-c", cfg, "--lambda", *lams,
                      "--json", w.path(stem, ".verify.json")], "verify",
                     json=w.path(stem, ".verify.json"), gammas=g,
                     n_lambda=len(lams)),
            ]))
    return ops


# galerkin-closed strata: (truncate model, c, s, t, report t); each report
# suite holds one strip_flow (c, s = 0.35, 0.65) and one half_strip
# (c, s = 0.45, 0.75), jittered
_GALERKIN_STRATA = (
    ("strip_flow", 0.40, 0.70, 1.00, 0.80),
    ("half_strip", 0.30, 0.60, 0.80, 1.20),
)


def _galerkin_closed(rng, w, rounds):
    """Each op is truncate at the CLI defaults (N = 60, nmax = 24) on one
    built-in, then report at N = 24 on a fresh strip + half_strip suite."""
    ops = []
    for r in range(rounds):
        for k, (model, c0, s0, t0, rt0) in enumerate(_GALERKIN_STRATA):
            stem = f"gc{r:02d}{k}"
            c, s, t = _near(rng, c0), _near(rng, s0), _near(rng, t0)
            g = _CLOSED_GAMMAS[model](c, s)
            cfg = w.config(stem, _builtin_text(model, c, s))
            suite, entries = [], []
            for j, (smodel, sc0, ss0) in enumerate((
                    ("strip_flow", 0.35, 0.65), ("half_strip", 0.45, 0.75))):
                sstem = f"{stem}r{j}"
                sc, ss = _near(rng, sc0), _near(rng, ss0)
                sg = _CLOSED_GAMMAS[smodel](sc, ss)
                w.config(sstem, _builtin_text(smodel, sc, ss))
                suite.append(f"{sstem}.cfg")
                entries.append((sstem, sg))
            suite_path = w.dir / f"{stem}.suite"
            suite_path.write_text("\n".join(suite) + "\n")
            rt = _near(rng, rt0)
            out = w.path(stem, ".report")
            ops.append(Op(f"{stem} {model} c={c:.3f} s={s:.3f} t={t:.3f}; "
                          f"report t={rt:.3f}", [
                Step(["truncate", "-c", cfg, "--t", _num(t),
                      "--json", w.path(stem, ".truncate.json")], "truncate",
                     json=w.path(stem, ".truncate.json"), gammas=g, t=t),
                Step(["report", "--suite", str(suite_path), "--out", out,
                      "--N", "24", "--t", _num(rt)], "report", json=out,
                     suite=tuple(entries)),
            ]))
    return ops


def _verify_op(w, stem, cfg, g, lam, label):
    return Op(f"{stem} {label} lambda={lam}", [
        Step(["verify", "-c", cfg, "--lambda", lam,
              "--json", w.path(stem, ".verify.json")], "verify",
             json=w.path(stem, ".verify.json"), gammas=g, n_lambda=1)])


def _truncate_op(w, stem, cfg, g, label):
    return Op(f"{stem} {label} truncate --N 24", [
        Step(["truncate", "-c", cfg, "--N", "24",
              "--json", w.path(stem, ".truncate.json")], "truncate",
             json=w.path(stem, ".truncate.json"), gammas=g)])


# newton strata: (model, c, s, d, built-in or expression twin).  s > 0 on
# the trident hits defect 4, and the expression trident's truncate hits
# defect 3 (NOTES.md).
_NEWTON_STRATA = (
    ("trident", 0.00, 0.10, 0.50, "builtin"),
    ("strip_flow", 0.40, 0.70, 0.15, "expression"),
    ("trident", 0.00, 0.10, 0.50, "expression"),
)


def _newton(rng, w, rounds):
    """Per model of _NEWTON_STRATA: verify at a lambda left of the lowest
    gamma (on a trident this computes the pair-of-petals witness; on a twin
    it runs backward orbits from the copied petal anchors) and, on the
    built-in, at a lambda right of gamma0; then truncate --N 24.  Each CLI
    call is its own op, so the median op is one of the four verify ops of a
    few seconds and does not ride on one long truncate."""
    ops = []
    for r in range(rounds):
        for model, c0, s0, d0, form in _NEWTON_STRATA:
            c, s, d = _near(rng, c0), _near(rng, s0), _near(rng, d0)
            if model == "trident":
                g = trident_gammas(c, s, d)
                low = g[2]
            else:
                g = strip_gammas(c, s, d)
                low = g[1]
            label = f"{model} c={c:.3f} s={s:.3f} d={d:.3f}"
            if form == "builtin":
                stem = f"nt{r:02d}"
                cfg = w.config(stem, _builtin_text(model, c, s, d))
            else:
                stem = f"ne{r:02d}{model[0]}"
                anchors = _petal_anchors(model, c, s, d)
                cfg = w.config(stem, _twin_text(model, c, s, d, anchors))
                label = "expression " + label
            ops.append(_verify_op(w, f"{stem}l", cfg, g, _lams(
                low - _near(rng, 1.0, _LAM_JITTER))[0], label))
            if form == "builtin":
                ops.append(_verify_op(w, f"{stem}r", cfg, g, _lams(
                    g[0] + _near(rng, 1.1, _LAM_JITTER))[0], label))
            ops.append(_truncate_op(w, stem, cfg, g, label))
    return ops


_BUILDERS = {"verify-closed": _verify_closed,
             "galerkin-closed": _galerkin_closed,
             "newton": _newton}


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload, seed, seconds, workdir):
    """Write the inputs of one run into workdir and return its ops."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, _Writer(workdir),
                               rounds_for(workload, seconds))
