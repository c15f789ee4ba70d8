"""Command-line front end.

Subcommands: classify | verify | truncate | plot | report.  JSON output uses
12-significant-digit floats with a "-inf" sentinel and fixed key order, so
identical inputs produce byte-identical files; wall time goes to stderr only.
Exit codes: 0 ok, 1 verification failure, 2 config error or bad argument,
3 theorem-coverage error, 4 numerical failure (Newton inversion or orbit
integral did not succeed, numpy raised LinAlgError, the flow rounded a
point onto the unit circle, or float arithmetic overflowed or divided by
zero, or the membership circle saw the eigenfunction wind).  Codes 2 to 4 come with a short message on stderr
instead of a traceback.  `report` keeps its entries' most severe code,
ranked 0 < 3 < 1 < 4.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import numerics, regions, truncation
from .errors import (BergspecError, ConfigError, CoverageError,
                     EvaluationError, OrbitIntegralError)
from .regions import fixed_point_gamma, gammas_from
from .scenario import parse_complex, parse_scenario
from .svgplot import Viewport, render_svg

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_COVERAGE = 3
EXIT_NUMERICAL = 4
# `report` keeps the most severe code of its entries, in this order: a failed
# check or a numerical failure outranks a coverage exit
_SEVERITY = (EXIT_OK, EXIT_COVERAGE, EXIT_VERIFY, EXIT_NUMERICAL, EXIT_CONFIG)


# -- deterministic JSON -----------------------------------------------------

def _jnum(x):
    x = float(x)
    if x == float("-inf"):
        return "-inf"
    if x == float("inf"):
        return "inf"
    if x != x:
        return "nan"
    return float(format(x, ".12g"))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": _jnum(obj.real), "im": _jnum(obj.imag)}
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        return _jnum(obj)
    if isinstance(obj, np.floating):
        return _jnum(float(obj))
    if isinstance(obj, np.complexfloating):
        return _jsonable(complex(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _dump(report, path):
    text = json.dumps(_jsonable(report), indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# -- shared plumbing --------------------------------------------------------

def _load_scenario(path):
    return parse_scenario(Path(path).read_text())


def _scenario_echo(s):
    return {
        "kind": s.kind,
        "p": s.p,
        "weights": list(s.weights),
        "params": {k: _jnum(v) for k, v in sorted(s.params.items())},
        "fixed_points": [
            {"zeta": complex(fp.zeta), "alpha": fp.alpha,
             "beta_re": fp.beta_re, "beta_im": fp.beta_im, "role": fp.role}
            for fp in s.fixed_points
        ],
    }


def _gamma_json(g):
    return {"p": g.p, "gamma0": g.gamma0, "gammas": list(g.gammas)}


# -- classify ---------------------------------------------------------------

def cmd_classify(args):
    s = _load_scenario(args.config)
    g = gammas_from(s.fixed_points, s.p)
    report = {"command": "classify",
              "scenario": _scenario_echo(s),
              "gamma_profile": _gamma_json(g)}
    exit_code = EXIT_OK
    coverage = []

    reg = {}
    try:
        generator_region = regions.generator_spectrum(g)
        reg["generator_spectrum"] = generator_region.to_json()
    except CoverageError as e:
        generator_region = None
        reg["generator_spectrum"] = {"error": str(e)}
        coverage.append("generator_spectrum")
    try:
        reg["essential_spectrum"] = regions.essential_spectrum(g).to_json()
    except CoverageError as e:
        reg["essential_spectrum"] = {"error": str(e)}
        coverage.append("essential_spectrum")
    reg["generator_point_spectrum"] = \
        regions.generator_point_spectrum(g).to_json()
    report["regions"] = reg

    ops = []
    for t in args.t:
        entry = {"t": t, "radius": regions.operator_radius(g, t)}
        try:
            entry["spectrum"] = regions.operator_spectrum(g, t).to_json()
        except (CoverageError, ValueError) as e:
            entry["spectrum"] = {"error": str(e)}
            if isinstance(e, CoverageError):
                coverage.append("operator_spectrum")
        entry["point_spectrum"] = \
            regions.operator_point_spectrum(g, t).to_json()
        ops.append(entry)
    report["operator"] = ops
    if coverage:
        report["coverage_errors"] = coverage
        exit_code = EXIT_COVERAGE

    _dump(report, args.json)
    if args.svg:
        region = generator_region if generator_region is not None \
            else regions.generator_point_spectrum(g)
        Path(args.svg).write_text(render_svg(region, args.viewport))
    return exit_code


# -- verify -----------------------------------------------------------------

def _check(name, value, tol, passed):
    return {"check": name, "value": value, "tolerance": tol,
            "status": "pass" if passed else "fail"}


def _membership_expectation(g, lam_re):
    margin = 0.2
    if g.gamma1 < lam_re < g.gamma0 and min(lam_re - g.gamma1,
                                            g.gamma0 - lam_re) >= margin:
        return "convergent"
    if (lam_re >= g.gamma0 + margin) or (lam_re <= g.gamma1 - margin):
        return "divergent"
    return None  # too close to a threshold; inconclusive allowed


def cmd_verify(args):
    s = _load_scenario(args.config)
    g = gammas_from(s.fixed_points, s.p)
    lams = [parse_complex(x) for x in args.lam]
    report = {"command": "verify",
              "scenario": _scenario_echo(s),
              "gamma_profile": _gamma_json(g),
              "results": []}
    one = lambda z: np.ones_like(z)
    failed = False

    # lambda-independent growth exponents; one that cannot be read is
    # skipped, as a resolvent check is, and never reads as a pass
    growth = []
    for fp in s.fixed_points:
        if fp.beta_re == float("-inf"):
            continue
        try:
            slope = numerics.coboundary_growth_exponent(s, fp)
        except BergspecError as e:
            growth.append({"zeta": complex(fp.zeta), "status": "skipped",
                           "reason": str(e)})
            continue
        ok = abs(slope - fp.beta_re) <= args.tol_slope * abs(fp.beta_re) + 0.02
        failed |= not ok
        growth.append({"zeta": complex(fp.zeta), "slope": slope,
                       "declared": fp.beta_re, "tolerance": args.tol_slope,
                       "status": "pass" if ok else "fail"})
    report["growth_exponents"] = growth

    # one pass over the Taylor circle gives every lambda its membership verdict
    verdicts = numerics.ap_norm_rings(s, numerics.eigenfunction(s, lams))
    for lam, verdict in zip(lams, verdicts):
        entry = {"lambda": lam, "checks": []}
        expect = _membership_expectation(g, lam.real)
        ok = expect is None or verdict.status in (expect, "inconclusive")
        failed |= not ok
        entry["checks"].append({
            "check": "eigenfunction_membership", "verdict": verdict.status,
            "expected": expect if expect else "near_threshold",
            "fitted_exponent": verdict.fitted_exponent,
            "status": "pass" if ok else "fail"})

        for t in args.t:
            res = numerics.eigen_identity_residual(s, lam, t)
            ok = res <= args.tol_identity
            failed |= not ok
            entry["checks"].append(_check(f"eigen_identity_t_{t:g}", res,
                                          args.tol_identity, ok))

        anchor = None
        if lam.real > g.gamma0 + numerics._TAIL_EPS:
            anchor = s.dw_point()
        else:
            cands = [fp for fp in s.repelling_points()
                     if fixed_point_gamma(fp, s.p) > lam.real + numerics._TAIL_EPS]
            if cands:
                anchor = max(cands, key=lambda fp: fixed_point_gamma(fp, s.p))
        if anchor is not None:
            try:
                cert = numerics.orbit_integral_K(s, lam, one, anchor,
                                                 tol=args.tol_orbit)
                res = numerics.residual_check(
                    s, lam, one,
                    lambda z: numerics.resolvent_apply(s, lam, one, cert, z))
                ok = res <= args.tol_residual
                failed |= not ok
                entry["checks"].append({
                    "check": "resolvent_residual", "anchor": cert.anchor,
                    "K": cert.K, "tail_bound": cert.tail_bound,
                    "value": res, "tolerance": args.tol_residual,
                    "status": "pass" if ok else "fail"})
            except OrbitIntegralError as e:
                entry["checks"].append({"check": "resolvent_residual",
                                        "status": "skipped", "reason": str(e)})

        if (len(s.repelling_points()) >= 2
                and lam.real < g.gamma2 - numerics._TAIL_EPS):
            try:
                w = numerics.nonsurjectivity_witness(s, lam, one,
                                                     tol=args.tol_orbit)
                entry["checks"].append({"check": "nonsurjectivity_witness",
                                        "value": w, "magnitude": abs(w),
                                        "status": "recorded"})
            except OrbitIntegralError as e:
                entry["checks"].append({"check": "nonsurjectivity_witness",
                                        "status": "skipped", "reason": str(e)})
        report["results"].append(entry)

    _dump(report, args.json)
    return EXIT_VERIFY if failed else EXIT_OK


# -- truncate ---------------------------------------------------------------

def cmd_truncate(args):
    s = _load_scenario(args.config)
    g = gammas_from(s.fixed_points, s.p)
    M = truncation.build_matrix(s, args.t, args.N)
    radius, seq = truncation.gelfand_radius(M, args.nmax)
    theory = regions.operator_radius(g, args.t)
    cloud = truncation.eigen_cloud(M)
    report = {
        "command": "truncate",
        "scenario": _scenario_echo(s),
        "t": args.t, "N": args.N, "n_max": args.nmax,
        "gelfand_radius": radius,
        "gelfand_sequence": list(seq),
        "resolution_horizon": truncation.resolution_horizon(M),
        "operator_radius_theory": theory,
        "estimate_over_bound_ratio": (radius / (1.05 * theory)
                                      if theory > 0 else float("inf")),
        "radius_bound_ok": bool(radius <= 1.05 * theory),
        "eigenvalue_max_modulus": abs(cloud[-1]) if cloud else 0.0,
    }
    _dump(report, args.json)
    return EXIT_OK if report["radius_bound_ok"] else EXIT_VERIFY


# -- plot -------------------------------------------------------------------

def cmd_plot(args):
    s = _load_scenario(args.config)
    g = gammas_from(s.fixed_points, s.p)
    try:
        if args.what == "generator":
            region = regions.generator_spectrum(g)
        elif args.what == "essential":
            region = regions.essential_spectrum(g)
        elif args.what == "point":
            region = regions.generator_point_spectrum(g)
        elif not args.t > 0:
            raise ConfigError("--what operator needs --t > 0")
        else:
            region = regions.operator_spectrum(g, args.t)
    except CoverageError as e:
        sys.stderr.write(f"coverage error: {e}\n")
        return EXIT_COVERAGE
    Path(args.svg).write_text(render_svg(region, args.viewport))
    return EXIT_OK


# -- report -----------------------------------------------------------------

def cmd_report(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    code = EXIT_OK
    suite = [ln.strip() for ln in Path(args.suite).read_text().splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    for entry in suite:
        cfg = Path(entry)
        if not cfg.is_absolute():
            cfg = Path(args.suite).parent / cfg
        stem = cfg.stem
        ns = argparse.Namespace(config=str(cfg), t=args.t,
                                json=str(out / f"{stem}.classify.json"),
                                svg=str(out / f"{stem}.svg"), viewport=None)
        code = max(code, cmd_classify(ns), key=_SEVERITY.index)
        tns = argparse.Namespace(config=str(cfg), t=args.t[0], N=args.N,
                                 nmax=args.nmax,
                                 json=str(out / f"{stem}.truncate.json"))
        try:
            code = max(code, cmd_truncate(tns), key=_SEVERITY.index)
        except EvaluationError as e:
            Path(out / f"{stem}.truncate.json").write_text(
                json.dumps({"command": "truncate", "error": str(e)},
                           indent=2) + "\n")
    return code


# -- entry point ------------------------------------------------------------

def _at_least(cast, low):
    """argparse type: a finite number parsed by cast that is at least low."""
    def parse(text):
        try:
            x = cast(text)
        except ValueError:
            x = None
        if x is None or not (math.isfinite(x) and x >= low):
            raise argparse.ArgumentTypeError(
                f"expected finite {cast.__name__} >= {low}, got {text!r}")
        return x
    return parse


def _viewport(text):
    """argparse type: xmin,xmax,ymin,ymax, four finite numbers bounding a
    window of positive width and height."""
    try:
        box = [float(x) for x in text.split(",")]
    except ValueError:
        box = []
    if not (len(box) == 4 and all(map(math.isfinite, box))
            and box[0] < box[1] and box[2] < box[3]):
        raise argparse.ArgumentTypeError(
            f"expected xmin,xmax,ymin,ymax with xmin < xmax and ymin < ymax, "
            f"got {text!r}")
    return Viewport(*box)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="bergspec",
        description="Spectral regions and numerical cross-checks for "
                    "hyperbolic weighted composition semigroups on Bergman "
                    "spaces")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("-c", "--config", required=True)
        p.add_argument("--json", default=None, help="output path (default stdout)")

    def times(p):
        # every --t adds its times; the default [1.0] is set in main, since
        # extend would keep it in front of the given ones
        p.add_argument("--t", type=_at_least(float, 0), nargs="+",
                       action="extend")

    p = sub.add_parser("classify", help="exact spectral regions from the "
                                        "gamma profile")
    common(p)
    times(p)
    p.add_argument("--svg", default=None)
    p.add_argument("--viewport", type=_viewport, default=None,
                   help="xmin,xmax,ymin,ymax (default -4,4,-3,3)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="numerical verification at given lambdas")
    common(p)
    p.add_argument("--lambda", dest="lam", nargs="+", action="extend",
                   required=True)
    times(p)
    p.add_argument("--tol-identity", type=_at_least(float, 0), default=1e-9)
    p.add_argument("--tol-residual", type=_at_least(float, 0), default=1e-5)
    p.add_argument("--tol-orbit", type=_at_least(float, 0), default=1e-8)
    p.add_argument("--tol-slope", type=_at_least(float, 0), default=0.05)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("truncate", help="Galerkin oracle radius estimate")
    common(p)
    p.add_argument("--t", type=_at_least(float, 0), default=1.0)
    p.add_argument("--N", type=_at_least(int, 1), default=60)
    p.add_argument("--nmax", type=_at_least(int, 8), default=24)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("plot", help="render a spectral region as SVG")
    common(p)
    p.add_argument("--what", choices=["generator", "essential", "point",
                                      "operator"], default="generator")
    p.add_argument("--t", type=_at_least(float, 0), default=1.0)
    p.add_argument("--svg", required=True)
    p.add_argument("--viewport", type=_viewport, default=None,
                   help="xmin,xmax,ymin,ymax (default -4,4,-3,3)")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("report", help="run classify + truncate over a suite "
                                      "file of scenario configs")
    p.add_argument("--suite", required=True)
    p.add_argument("--out", required=True)
    times(p)
    p.add_argument("--N", type=_at_least(int, 1), default=24)
    p.add_argument("--nmax", type=_at_least(int, 8), default=8)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    started = time.perf_counter()
    ap = _build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "t", 0.0) is None:
        args.t = [1.0]
    try:
        code = args.func(args)
    except (ConfigError, EvaluationError, OSError) as e:
        sys.stderr.write(f"config error: {e}\n")
        code = EXIT_CONFIG
    except CoverageError as e:
        sys.stderr.write(f"coverage error: {e}\n")
        code = EXIT_COVERAGE
    except (BergspecError, np.linalg.LinAlgError, ArithmeticError) as e:
        sys.stderr.write(f"numerical failure: {type(e).__name__}: {e}\n")
        code = EXIT_NUMERICAL
    finally:
        sys.stderr.write(
            f"wall time: {time.perf_counter() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
