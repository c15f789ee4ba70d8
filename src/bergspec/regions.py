"""Exact spectral-region algebra driven by the invariants gamma_j.

Everything here is pure value-level computation on extended reals.  A region
is a union of components, and each component kind is an interval, closed or
open, of one coordinate: Re lambda (vertical strips, lines, left half-planes)
or |lambda| (disks, annuli, circles); see `_KINDS`.  The generator
classifiers turn a profile (gamma_0; gamma_1 >= gamma_2 >= ...) into regions
of the first sort; the operator spectra at time t are their images under
lambda -> e^{lambda t}, plus the annulus the theorem leaves undecided.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import CoverageError

__all__ = [
    "NEG_INF",
    "GammaProfile",
    "Component",
    "SpectralRegion",
    "fixed_point_gamma",
    "gammas_from",
    "generator_spectrum",
    "essential_spectrum",
    "generator_point_spectrum",
    "operator_radius",
    "operator_spectrum",
    "operator_point_spectrum",
]

NEG_INF = float("-inf")

CERTIFIED = "certified"
BOUNDARY_UNRESOLVED = "boundary_unresolved"
UNKNOWN_QUESTION2 = "unknown_question2"


@dataclass(frozen=True)
class GammaProfile:
    """Spectral invariants: gamma0 at the attracting point, then the
    repelling-point values sorted non-increasing and padded with -inf."""

    p: float
    gamma0: float
    gammas: tuple = ()

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        gs = tuple(sorted((float(g) for g in self.gammas), reverse=True))
        while len(gs) < 2:
            gs = gs + (NEG_INF,)
        object.__setattr__(self, "gammas", gs)
        object.__setattr__(self, "gamma0", float(self.gamma0))

    @property
    def gamma1(self):
        return self.gammas[0]

    @property
    def gamma2(self):
        return self.gammas[1]

    def all_gammas(self):
        return (self.gamma0,) + self.gammas

    def shifted(self, c):
        return GammaProfile(self.p, self.gamma0 + c,
                            tuple(g + c for g in self.gammas))


def fixed_point_gamma(fp, p) -> float:
    """Combine flow and weight exponents: gamma = 2*alpha/p + Re(beta)."""
    return 2.0 * fp.alpha / p + fp.beta_re   # -inf when beta_re is -inf


def gammas_from(fixed_points, p) -> GammaProfile:
    """The gamma of every fixed point, Denjoy-Wolff point first."""
    dw = [f for f in fixed_points if f.role == "denjoy_wolff"]
    if len(dw) != 1:
        raise ValueError("need exactly one Denjoy-Wolff datum")
    reps = [fixed_point_gamma(f, p) for f in fixed_points
            if f.role == "repelling"]
    return GammaProfile(p, fixed_point_gamma(dw[0], p), tuple(reps))


# Each kind is the set of lambda whose Re lambda (axis "v") or |lambda|
# (axis "r") lies in [lo, hi], or in (lo, hi) when not closed.  Two-parameter
# kinds give (lo, hi); one-parameter kinds give hi with lo = -inf ("upto") or
# lo = hi ("at").
_KINDS = {
    "empty": None,
    "half_plane_left": ("v", True, "upto"),
    "vstrip": ("v", True, "between"),
    "vline": ("v", True, "at"),
    "open_vstrip_interior": ("v", False, "between"),
    "disk": ("r", True, "upto"),
    "closed_annulus": ("r", True, "between"),
    "open_annulus_interior": ("r", False, "between"),
    "circle": ("r", True, "at"),
}
_KIND_OF = {view: k for k, view in _KINDS.items() if view is not None}


@dataclass(frozen=True)
class Component:
    kind: str
    params: tuple
    certainty: str = CERTIFIED

    def interval(self):
        """(axis, closed, lo, hi) by the kind table above; None when empty."""
        if self.kind not in _KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        view, pr = _KINDS[self.kind], self.params
        if view is None:
            return None
        axis, closed, shape = view
        lo, hi = {"upto": (NEG_INF, pr[0]), "at": (pr[0], pr[0])}.get(shape, pr)
        return axis, closed, lo, hi

    def contains(self, lam: complex) -> bool:
        view = self.interval()
        if view is None:
            return False
        axis, closed, lo, hi = view
        x = lam.real if axis == "v" else abs(lam)
        return lo <= x <= hi if closed else lo < x < hi


def _from_interval(axis, closed, lo, hi, certainty):
    """The canonical component of the set that (axis, closed, lo, hi) reads:
    a closed point interval is a line or circle, and a closed interval from
    -inf (or from <= 0 in |lambda|) a half-plane or disk."""
    if closed and lo == hi:
        return Component(_KIND_OF[axis, True, "at"], (lo,), certainty)
    if closed and (lo == NEG_INF or axis == "r" and lo <= 0.0):
        return Component(_KIND_OF[axis, True, "upto"], (hi,), certainty)
    return Component(_KIND_OF[axis, closed, "between"], (lo, hi), certainty)


def _normalize_component(c: Component):
    """The canonical component of the same set, or None when it is empty.
    A disk of radius 0 is dropped although it holds the origin (ROADMAP
    item 21); a circle of radius 0 is kept."""
    view = c.interval()
    if view is None:
        return None
    axis, closed, lo, hi = view
    if (hi < lo or hi == NEG_INF or not closed and hi == lo
            or closed and axis == "r" and (hi < 0.0 or lo < hi == 0.0)):
        return None
    return _from_interval(axis, closed, lo, hi, c.certainty)


def _merge_touching(components):
    """Fuse closed components of equal axis and certainty whose intervals
    overlap or touch, so HalfPlaneLeft(a) + VStrip(a, b) collapses to
    HalfPlaneLeft(b)."""
    comps = list(components)
    while True:
        for j, k in itertools.combinations(range(len(comps)), 2):
            a, ca, lo1, hi1 = comps[j].interval()
            b, cb, lo2, hi2 = comps[k].interval()
            if (a == b and ca and cb and max(lo1, lo2) <= min(hi1, hi2)
                    and comps[j].certainty == comps[k].certainty):
                comps[j] = _from_interval(a, True, min(lo1, lo2),
                                          max(hi1, hi2), comps[j].certainty)
                del comps[k]
                break
        else:
            return comps


@dataclass(frozen=True)
class SpectralRegion:
    components: tuple = field(default_factory=tuple)

    @staticmethod
    def of(*components):
        return SpectralRegion(tuple(components)).normalized()

    def normalized(self) -> "SpectralRegion":
        out = []
        for c in self.components:
            n = _normalize_component(c)
            if n is not None and n not in out:
                out.append(n)
        return SpectralRegion(tuple(_merge_touching(out)))

    def contains(self, lam: complex) -> bool:
        return any(c.contains(lam) for c in self.components)

    def restrict(self, certainty) -> "SpectralRegion":
        return SpectralRegion(tuple(c for c in self.components if c.certainty == certainty))

    def translated(self, c_shift: float) -> "SpectralRegion":
        """Horizontal translation; defined for the vertical-geometry kinds."""
        out = []
        for c in self.components:
            pr = tuple(x + c_shift if x != NEG_INF else NEG_INF for x in c.params)
            out.append(Component(c.kind, pr, c.certainty))
        return SpectralRegion(tuple(out)).normalized()

    def to_json(self):
        def num(x):
            return "-inf" if x == NEG_INF else x

        return [{"kind": c.kind, "params": [num(x) for x in c.params],
                 "certainty": c.certainty} for c in self.components]


EMPTY = SpectralRegion(())


def _require_covered(g: GammaProfile):
    if g.gamma0 == NEG_INF:
        raise CoverageError("gamma0 = -inf lies outside theorem coverage "
                            "(only the point spectrum is known to be empty)")


def generator_spectrum(g: GammaProfile) -> SpectralRegion:
    """Full spectrum of the semigroup generator (three-case classification)."""
    _require_covered(g)
    g0, g1, g2 = g.gamma0, g.gamma1, g.gamma2
    if g0 >= g1:
        return SpectralRegion.of(Component("vstrip", (NEG_INF, g2)),
                                 Component("vstrip", (g1, g0)))
    if g2 < g0 < g1:
        return SpectralRegion.of(Component("vstrip", (NEG_INF, g2)),
                                 Component("vstrip", (g0, g1)))
    return SpectralRegion.of(Component("vstrip", (NEG_INF, g1)))


def essential_spectrum(g: GammaProfile) -> SpectralRegion:
    """Union of the vertical lines at every gamma (vline(-inf) is empty)."""
    if g.gamma0 == NEG_INF or g.gamma1 == NEG_INF:
        raise CoverageError("essential spectrum unsupported when gamma0 or "
                            "gamma1 is -inf")
    return SpectralRegion.of(*(Component("vline", (x,)) for x in g.all_gammas()))


def generator_point_spectrum(g: GammaProfile) -> SpectralRegion:
    g0, g1 = g.gamma0, g.gamma1
    if g1 < g0:
        return SpectralRegion.of(
            Component("open_vstrip_interior", (g1, g0)),
            Component("vline", (g0,), BOUNDARY_UNRESOLVED),
            Component("vline", (g1,), BOUNDARY_UNRESOLVED))
    if g1 > g0:
        return EMPTY
    return SpectralRegion.of(Component("vline", (g0,), BOUNDARY_UNRESOLVED))


def operator_radius(g: GammaProfile, t):
    """Spectral radius of the time-t operator; exact by the radius theorem."""
    if t < 0:
        raise ValueError("t must be >= 0")
    gmax = max(g.all_gammas())
    if gmax == NEG_INF:
        return 0.0
    return math.exp(gmax * t)


def _exp_image(region: SpectralRegion, t):
    """The components' images under lambda -> e^{lambda t}: Re lambda in
    [lo, hi] maps onto |mu| in [e^{lo t}, e^{hi t}].  Re lambda -> -inf maps
    to mu -> 0, which a closed image holds (lo stays -inf, as a disk reads)
    and an open one does not (lo = 0)."""
    out = []
    for c in region.components:
        _, closed, lo, hi = c.interval()
        lo = (NEG_INF if closed else 0.0) if lo == NEG_INF else math.exp(lo * t)
        out.append(_from_interval("r", closed, lo, math.exp(hi * t),
                                  c.certainty))
    return out


def operator_spectrum(g: GammaProfile, t) -> SpectralRegion:
    """The image of the generator spectrum, plus the open annulus between its
    inner disk (radius 0 when it has none) and its outer annulus, which the
    theorem leaves undecided (unknown_question2)."""
    if not t > 0:
        raise ValueError("operator_spectrum requires t > 0")
    *inner, outer = image = _exp_image(generator_spectrum(g), t)
    r_in = inner[0].interval()[3] if inner else 0.0
    gap = _from_interval("r", False, r_in, outer.interval()[2],
                         UNKNOWN_QUESTION2)
    return SpectralRegion.of(*image, gap)


def operator_point_spectrum(g: GammaProfile, t) -> SpectralRegion:
    """The image of the generator point spectrum (spectral mapping for the
    point spectrum: Engel and Nagel, One-Parameter Semigroups, IV.3.7)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return SpectralRegion.of(*_exp_image(generator_point_spectrum(g), t))
