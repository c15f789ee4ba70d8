"""Command-line front end.

Subcommands: classify | verify | truncate | plot | report.  JSON output uses
12-significant-digit floats with a "-inf" sentinel and fixed key order, so
identical inputs produce byte-identical files; wall time goes to stderr only.
Exit codes: 0 ok, 1 verification failure, 2 config error or bad argument,
3 theorem-coverage error or a truncate time its section cannot resolve,
4 numerical failure (Newton inversion or orbit integral failed,
LinAlgError, a flow rounded onto the unit circle, float overflow or
division by zero, or a winding eigenfunction); codes 2 to 4 come with a
one-line message on stderr, never a traceback.  `report` ranks its
entries' codes 0 < 3 < 1 < 4 and keeps the worst; a truncate that exits 3
or 4 writes its error to the entry's JSON, and the next runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import numbers
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import numerics, regions, truncation
from ._lazy import np
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

# numpy's scalars other than float64 and complex128, which are float and
# complex, through the numbers ABCs that numpy registers them with
_NUMBERS = ((numbers.Integral, int), (numbers.Real, float),
            (numbers.Complex, complex))


def _jnum(x):
    x = float(x)
    if math.isfinite(x):
        return float(format(x, ".12g"))
    return "nan" if x != x else "inf" if x > 0 else "-inf"


def _json(obj, pad="\n"):
    """JSON text of obj in one pass, as json.dumps(obj, indent=2) writes it,
    floats through _jnum, complex numbers as {"re", "im"}, keys strings only;
    pad is the newline and indent of obj's line.  (Python's C encoder cannot
    indent, and its pure-Python one costs more than this.)  Concrete types
    are matched first, since an ABC check costs more; np.bool_ and arrays
    raise TypeError."""
    if isinstance(obj, float):
        x = _jnum(obj)
        return _quote(x) if isinstance(x, str) else repr(x)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    inner, ends = pad + "  ", "{}" if isinstance(obj, dict) else "[]"
    if isinstance(obj, dict):
        items = [_quote(k) + ": " + _json(v, inner) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        items = [_json(v, inner) for v in obj]
    else:
        for abc, cast in _NUMBERS:
            if isinstance(obj, abc):
                return _json(cast(obj), pad)
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return (ends[0] + inner + ("," + inner).join(items) + pad + ends[1]
            if items else ends)


def _dump(report, path):
    text = _json(report) + "\n"
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
    return _classify(_load_scenario(args.config), args.t, args.json, args.svg,
                     args.viewport)


def _classify(s, ts, json_path, svg, viewport):
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
    for t in ts:
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

    _dump(report, json_path)
    if svg:
        region = generator_region if generator_region is not None \
            else regions.generator_point_spectrum(g)
        Path(svg).write_text(render_svg(region, viewport))
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
        growth.append({"zeta": complex(fp.zeta), "slope": slope,
                       "declared": fp.beta_re, "tolerance": args.tol_slope,
                       "status": "pass" if ok else "fail"})
    report["growth_exponents"] = growth

    # one pass over the Taylor circle and one flow per t serve every lambda
    verdicts = numerics.ap_norm_rings(s, numerics.eigenfunction(s, lams))
    identity = [numerics.eigen_identity_residual(s, lams, t) for t in args.t]
    for i, (lam, verdict) in enumerate(zip(lams, verdicts)):
        entry = {"lambda": lam, "checks": []}
        expect = _membership_expectation(g, lam.real)
        ok = expect is None or verdict.status in (expect, "inconclusive")
        entry["checks"].append({
            "check": "eigenfunction_membership", "verdict": verdict.status,
            "expected": expect if expect else "near_threshold",
            "fitted_exponent": verdict.fitted_exponent,
            "status": "pass" if ok else "fail"})

        for t, residuals in zip(args.t, identity):
            res = residuals[i]
            ok = res <= args.tol_identity
            entry["checks"].append(_check(f"eigen_identity_t_{t:g}", res,
                                          args.tol_identity, ok))

        anchor, held = None, []
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
                held.append(cert)
                res = numerics.residual_check(
                    s, lam, one,
                    lambda z: numerics.resolvent_apply(s, lam, one, cert, z))
                ok = res <= args.tol_residual
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
                w = numerics.nonsurjectivity_witness(s, lam, one, held,
                                                     tol=args.tol_orbit)
                entry["checks"].append({"check": "nonsurjectivity_witness",
                                        "value": w, "magnitude": abs(w),
                                        "status": "recorded"})
            except OrbitIntegralError as e:
                entry["checks"].append({"check": "nonsurjectivity_witness",
                                        "status": "skipped", "reason": str(e)})
        report["results"].append(entry)

    _dump(report, args.json)
    checks = growth + [c for e in report["results"] for c in e["checks"]]
    failed = any(c["status"] == "fail" for c in checks)
    return EXIT_VERIFY if failed else EXIT_OK


# -- truncate ---------------------------------------------------------------

def cmd_truncate(args):
    return _truncate(_load_scenario(args.config), args.t, args.N, args.nmax,
                     args.json)


def _truncate(s, t, N, nmax, json_path):
    g = gammas_from(s.fixed_points, s.p)
    M = truncation.build_matrix(s, t, N)
    radius, seq = truncation.gelfand_radius(M, nmax)
    theory = regions.operator_radius(g, t)
    cloud = truncation.eigen_cloud(M)
    report = {
        "command": "truncate",
        "scenario": _scenario_echo(s),
        "t": t, "N": N, "n_max": nmax,
        "gelfand_radius": radius,
        "gelfand_sequence": list(seq),
        "resolution_horizon": truncation.resolution_horizon(M),
        "operator_radius_theory": theory,
        "estimate_over_bound_ratio": (radius / (1.05 * theory)
                                      if theory > 0 else float("inf")),
        "radius_bound_ok": bool(radius <= 1.05 * theory),
        "eigenvalue_max_modulus": abs(cloud[-1]) if cloud else 0.0,
    }
    _dump(report, json_path)
    return EXIT_OK if report["radius_bound_ok"] else EXIT_VERIFY


# -- plot -------------------------------------------------------------------

def cmd_plot(args):
    s = _load_scenario(args.config)
    g = gammas_from(s.fixed_points, s.p)
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
    Path(args.svg).write_text(render_svg(region, args.viewport))
    return EXIT_OK


# -- report -----------------------------------------------------------------

def cmd_report(args):
    # an absolute entry stays as it is under the suite's directory
    suite = [Path(args.suite).parent / ln.strip()
             for ln in Path(args.suite).read_text().splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    stems = [cfg.stem for cfg in suite]
    for stem in stems:
        if stems.count(stem) > 1:
            raise ConfigError(f"suite entries share the file stem {stem!r}, "
                              "so their outputs would overwrite each other")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    code = EXIT_OK
    for cfg, stem in zip(suite, stems):
        s = _load_scenario(cfg)     # one parse serves both commands
        code = max(code, _classify(s, args.t, out / f"{stem}.classify.json",
                                   out / f"{stem}.svg", None),
                   key=_SEVERITY.index)
        tjson = out / f"{stem}.truncate.json"
        # a coverage or numerical failure ends this entry only
        try:
            code = max(code, _truncate(s, args.t[0], args.N, args.nmax, tjson),
                       key=_SEVERITY.index)
            continue
        except EvaluationError as e:
            error = e
        except ConfigError:     # a built-in's round trip, checked on first use
            raise
        except CoverageError as e:
            error = e
            sys.stderr.write(f"coverage error in {stem}: {e}\n")
            code = max(code, EXIT_COVERAGE, key=_SEVERITY.index)
        except (BergspecError, np.linalg.LinAlgError, ArithmeticError) as e:
            error = e
            sys.stderr.write(f"numerical failure in {stem}: "
                             f"{type(e).__name__}: {e}\n")
            code = max(code, EXIT_NUMERICAL, key=_SEVERITY.index)
        _dump({"command": "truncate", "error": str(error)}, tjson)
    return code


# -- entry point ------------------------------------------------------------

def _at_least(cast, low, high=math.inf):
    """argparse type: a finite number parsed by cast in [low, high]."""
    def parse(text):
        try:
            x = cast(text)
        except ValueError:
            x = None
        if x is None or not (math.isfinite(x) and low <= x <= high):
            cap = f" and <= {high}" if high < math.inf else ""
            raise argparse.ArgumentTypeError(
                f"expected finite {cast.__name__} >= {low}{cap}, got {text!r}")
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


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser as it found it,
    # and every default is immutable ("--t" gets its list in main)
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
    p.add_argument("--N", type=_at_least(int, 1, truncation.N_MAX), default=60)
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
    p.add_argument("--N", type=_at_least(int, 1, truncation.N_MAX), default=24)
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
    except (ConfigError, EvaluationError, OSError, UnicodeDecodeError) as e:
        sys.stderr.write(f"config error: {e}\n")
        code = EXIT_CONFIG
    except CoverageError as e:
        sys.stderr.write(f"coverage error: {e}\n")
        code = EXIT_COVERAGE
    # exit 4: an except clause reads np only when an exception reaches it
    except (BergspecError, np.linalg.LinAlgError, ArithmeticError) as e:
        sys.stderr.write(f"numerical failure: {type(e).__name__}: {e}\n")
        code = EXIT_NUMERICAL
    finally:
        sys.stderr.write(
            f"wall time: {time.perf_counter() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
