"""Exact spectral-region algebra driven by the invariants gamma_j.

Everything here is pure value-level computation on extended reals: the
classifiers turn a profile (gamma_0; gamma_1 >= gamma_2 >= ...) into closed
subsets of the plane described as unions of vertical strips / lines /
half-planes (generator side) or disks / annuli / circles (operator side).
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Component:
    kind: str
    params: tuple
    certainty: str = CERTIFIED

    def contains(self, lam: complex) -> bool:
        x, r = lam.real, abs(lam)
        k, pr = self.kind, self.params
        if k == "empty":
            return False
        if k == "half_plane_left":
            return x <= pr[0]
        if k == "vstrip":
            return pr[0] <= x <= pr[1]
        if k == "vline":
            return x == pr[0]
        if k == "open_vstrip_interior":
            return pr[0] < x < pr[1]
        if k == "disk":
            return r <= pr[0]
        if k == "closed_annulus":
            return pr[0] <= r <= pr[1]
        if k == "open_annulus_interior":
            return pr[0] < r < pr[1]
        if k == "circle":
            return r == pr[0]
        raise ValueError(f"unknown component kind {k!r}")


def _normalize_component(c: Component):
    k, pr = c.kind, c.params
    if k == "vstrip":
        a, b = pr
        if b < a or b == NEG_INF:
            return None
        if a == NEG_INF:
            return Component("half_plane_left", (b,), c.certainty)
        if a == b:
            return Component("vline", (a,), c.certainty)
    if k == "open_vstrip_interior":
        a, b = pr
        if b <= a:
            return None
    if k == "half_plane_left" and pr[0] == NEG_INF:
        return None
    if k in ("disk", "circle") and pr[0] <= 0.0:
        return None if pr[0] < 0 or k == "disk" and pr[0] == 0 else c
    if k == "closed_annulus":
        r1, r2 = pr
        if r2 < r1:
            return None
        # the circle or disk it reduces to is normalized in turn, so a
        # second pass changes nothing
        if r1 == r2:
            return _normalize_component(Component("circle", (r1,), c.certainty))
        if r1 <= 0.0:
            return _normalize_component(Component("disk", (r2,), c.certainty))
    if k == "open_annulus_interior":
        r1, r2 = pr
        if r2 <= r1:
            return None
    if k == "empty":
        return None
    return c


_CLOSED_INTERVAL_KINDS = {
    "half_plane_left": "v", "vstrip": "v", "vline": "v",
    "disk": "r", "closed_annulus": "r", "circle": "r",
}


def _interval_view(c: Component):
    """(axis, lo, hi) for components that are closed intervals of Re or |.|."""
    k, pr = c.kind, c.params
    if k == "half_plane_left":
        return "v", NEG_INF, pr[0]
    if k in ("vstrip", "closed_annulus"):
        return _CLOSED_INTERVAL_KINDS[k], pr[0], pr[1]
    if k in ("vline", "circle"):
        return _CLOSED_INTERVAL_KINDS[k], pr[0], pr[0]
    if k == "disk":
        return "r", 0.0, pr[0]
    return None


def _from_interval(axis, lo, hi, certainty):
    if axis == "v":
        if lo == NEG_INF:
            return Component("half_plane_left", (hi,), certainty)
        if lo == hi:
            return Component("vline", (lo,), certainty)
        return Component("vstrip", (lo, hi), certainty)
    if lo <= 0.0:
        return Component("disk", (hi,), certainty)
    if lo == hi:
        return Component("circle", (lo,), certainty)
    return Component("closed_annulus", (lo, hi), certainty)


def _merge_touching(components):
    """Fuse closed components of equal certainty whose intervals overlap or
    touch, so HalfPlaneLeft(a) + VStrip(a, b) collapses to HalfPlaneLeft(b)."""
    comps = list(components)
    changed = True
    while changed:
        changed = False
        for j in range(len(comps)):
            vj = _interval_view(comps[j])
            if vj is None:
                continue
            for k in range(j + 1, len(comps)):
                if comps[k].certainty != comps[j].certainty:
                    continue
                vk = _interval_view(comps[k])
                if vk is None or vk[0] != vj[0]:
                    continue
                if max(vj[1], vk[1]) <= min(vj[2], vk[2]):
                    comps[j] = _from_interval(vj[0], min(vj[1], vk[1]),
                                              max(vj[2], vk[2]),
                                              comps[j].certainty)
                    del comps[k]
                    changed = True
                    break
            if changed:
                break
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
    """Union of the vertical lines at every finite gamma."""
    if g.gamma0 == NEG_INF or g.gamma1 == NEG_INF:
        raise CoverageError("essential spectrum unsupported when gamma0 or "
                            "gamma1 is -inf")
    lines = []
    for x in g.all_gammas():
        if x != NEG_INF:
            lines.append(Component("vline", (x,)))
    return SpectralRegion.of(*lines)


def generator_point_spectrum(g: GammaProfile) -> SpectralRegion:
    g0, g1 = g.gamma0, g.gamma1
    if g0 == NEG_INF:
        return EMPTY
    if g1 < g0:
        comps = [Component("open_vstrip_interior", (g1, g0))]
        comps.append(Component("vline", (g0,), BOUNDARY_UNRESOLVED))
        if g1 != NEG_INF:
            comps.append(Component("vline", (g1,), BOUNDARY_UNRESOLVED))
        return SpectralRegion.of(*comps)
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


def operator_spectrum(g: GammaProfile, t) -> SpectralRegion:
    if not t > 0:
        raise ValueError("operator_spectrum requires t > 0")
    _require_covered(g)
    g0, g1, g2 = g.gamma0, g.gamma1, g.gamma2
    rmax = operator_radius(g, t)
    if g2 >= g0 or g2 == g1:
        return SpectralRegion.of(Component("disk", (rmax,)))
    r2 = 0.0 if g2 == NEG_INF else math.exp(g2 * t)
    rlo = math.exp(min(g0, g1) * t) if g1 != NEG_INF else math.exp(g0 * t)
    rhi = rmax
    comps = [Component("disk", (r2,)),
             Component("closed_annulus", (rlo, rhi))]
    if r2 < rlo:
        comps.append(Component("open_annulus_interior", (r2, rlo), UNKNOWN_QUESTION2))
    return SpectralRegion.of(*comps)


def operator_point_spectrum(g: GammaProfile, t) -> SpectralRegion:
    if t < 0:
        raise ValueError("t must be >= 0")
    g0, g1 = g.gamma0, g.gamma1
    if g0 == NEG_INF:
        return EMPTY
    if g1 < g0:
        r0 = math.exp(g0 * t)
        r1 = 0.0 if g1 == NEG_INF else math.exp(g1 * t)
        comps = [Component("open_annulus_interior", (r1, r0)),
                 Component("circle", (r0,), BOUNDARY_UNRESOLVED)]
        if g1 != NEG_INF:
            comps.append(Component("circle", (r1,), BOUNDARY_UNRESOLVED))
        return SpectralRegion.of(*comps)
    if g1 > g0:
        return EMPTY
    return SpectralRegion.of(Component("circle", (math.exp(g0 * t),), BOUNDARY_UNRESOLVED))
