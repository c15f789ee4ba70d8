"""Outside-in span tracing of bergspec's layers for the benchmark.

`Tracer.install()` wraps the public functions of each layer, at every module
attribute a name was imported into, so every call records a span (name,
start, end, parent) in flat in-memory arrays.  Nothing in bergspec changes;
`uninstall()` restores the originals.  A span's self time is its duration
minus the durations of its direct children; counts are calls, plus array
points for functions that take a `z`-like argument.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from bergspec import cli, expr, numerics, regions, scenario, truncation

# (module, attribute, span name, index of the point argument or None)
_SITES = [
    (numerics, "ap_norm_rings", "numerics.ring", None),
    (numerics, "orbit_integral_K", "numerics.orbit", None),
    (numerics, "residual_check", "numerics.residual", None),
    (numerics, "eigen_identity_residual", "numerics.identity", None),
    (numerics, "nonsurjectivity_witness", "numerics.witness", None),
    (numerics, "coboundary_growth_exponent", "numerics.growth", None),
    (scenario, "_continuation_invert", "scenario.continuation", 1),
    (numerics, "_continuation_invert", "scenario.continuation", 1),
    (scenario, "flow", "scenario.flow", 2),
    (truncation, "flow", "scenario.flow", 2),
    (scenario, "cocycle", "scenario.cocycle", 2),
    (truncation, "cocycle", "scenario.cocycle", 2),
    (scenario, "eval_h_inverse", "scenario.inverse", 1),
    (cli, "parse_scenario", "scenario.parse", None),
    (numerics, "eval_h", "scenario.eval", 1),
    (numerics, "eval_h_prime", "scenario.eval", 1),
    (numerics, "eval_v", "scenario.eval", 1),
    (numerics, "generator_g", "scenario.eval", 1),
    (truncation, "build_matrix", "truncation.build", None),
    (truncation, "gelfand_radius", "truncation.gelfand", None),
    (truncation, "eigen_cloud", "truncation.eigen", None),
    (cli, "gammas_from", "regions", None),
    (regions, "generator_spectrum", "regions", None),
    (regions, "essential_spectrum", "regions", None),
    (regions, "generator_point_spectrum", "regions", None),
    (regions, "operator_radius", "regions", None),
    (regions, "operator_spectrum", "regions", None),
    (regions, "operator_point_spectrum", "regions", None),
    (cli, "render_svg", "svgplot", None),
    (expr.AnalyticExpr, "jet", "expr", 1),
]

# calls counted without a span, so their time stays with the caller
_COUNTED = [(numerics, "resolvent_apply", "numerics.resolvent")]

# per-layer metrics the benchmark reports: (metric, span name, field)
METRICS = [
    ("cli.self_s", "cli", "self_s"),
    ("regions.calls", "regions", "calls"),
    ("regions.self_s", "regions", "self_s"),
    ("svgplot.self_s", "svgplot", "self_s"),
    ("scenario.parse.self_s", "scenario.parse", "self_s"),
    ("scenario.eval.self_s", "scenario.eval", "self_s"),
    ("scenario.continuation.calls", "scenario.continuation", "calls"),
    ("scenario.continuation.points", "scenario.continuation", "points"),
    ("scenario.continuation.self_s", "scenario.continuation", "self_s"),
    ("scenario.continuation.failures", "scenario.continuation", "failures"),
    ("scenario.flow.points", "scenario.flow", "points"),
    ("scenario.flow.self_s", "scenario.flow", "self_s"),
    ("scenario.cocycle.self_s", "scenario.cocycle", "self_s"),
    ("scenario.inverse.points", "scenario.inverse", "points"),
    ("scenario.inverse.self_s", "scenario.inverse", "self_s"),
    ("expr.calls", "expr", "calls"),
    ("expr.points", "expr", "points"),
    ("expr.self_s", "expr", "self_s"),
    ("numerics.ring.self_s", "numerics.ring", "self_s"),
    ("numerics.orbit.self_s", "numerics.orbit", "self_s"),
    ("numerics.orbit.failures", "numerics.orbit", "failures"),
    ("numerics.residual.self_s", "numerics.residual", "self_s"),
    ("numerics.identity.self_s", "numerics.identity", "self_s"),
    ("numerics.witness.self_s", "numerics.witness", "self_s"),
    ("numerics.growth.self_s", "numerics.growth", "self_s"),
    ("numerics.resolvent.calls", "numerics.resolvent", "calls"),
    ("truncation.build.calls", "truncation.build", "calls"),
    ("truncation.build.self_s", "truncation.build", "self_s"),
    ("truncation.gelfand.self_s", "truncation.gelfand", "self_s"),
    ("truncation.eigen.self_s", "truncation.eigen", "self_s"),
]


def _points(x):
    return int(np.size(x)) if isinstance(x, (np.ndarray, list)) else 1


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = {}
        self.calls = {}
        self.failures = {}
        self._stack = [-1]
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name, fn, *args, point_arg=None, **kwargs):
        """Run fn inside a span called name."""
        nid = self._id(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.calls[name] = self.calls.get(name, 0) + 1
        if point_arg is not None and len(args) > point_arg:
            self.points[name] = self.points.get(name, 0) + _points(args[point_arg])
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failures[name] = self.failures.get(name, 0) + 1
            raise
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, point_arg):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, point_arg=point_arg, **kwargs)
        return wrapper

    def _count(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for owner, attr, name, point_arg in _SITES:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, point_arg))
        for owner, attr, name in _COUNTED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._count(fn, name))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        return (np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def self_times(self):
        """Self time per span name: duration minus direct children."""
        name, parent, start, end = self.arrays()
        dur = end - start
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        totals = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: float(totals[i]) for i, n in enumerate(self.names)}

    def top_level(self, since=0):
        """Total duration of the root spans recorded from index `since`."""
        name, parent, start, end = self.arrays()
        roots = parent[since:] < 0
        return float(np.sum((end[since:] - start[since:])[roots]))

    def counts(self):
        return {"calls": dict(sorted(self.calls.items())),
                "points": dict(sorted(self.points.items())),
                "failures": dict(sorted(self.failures.items()))}

    def metrics(self):
        self_s = self.self_times()
        fields = {"self_s": self_s, "calls": self.calls, "points": self.points,
                  "failures": self.failures}
        return {metric: fields[field].get(span, 0)
                for metric, span, field in METRICS}

    def dump(self, path):
        """Write every span as name, parent index, start and end."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)
