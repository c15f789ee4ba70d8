"""Hyperbolic semiflow / semicocycle models on the unit disk.

A scenario bundles the conformal representation of the flow (the univalent
map conjugating the flow to a unit-speed translation), a weight function,
and the declared boundary fixed-point data.  Every built-in model inverts
its map in closed form, carries petal anchors computed from it, and builds
its weight from the logs in its map's own tree, so the weight is one
analytic branch on the disk and shares the map's nodes in a tape;
`model = expression` inverts by damped Newton continuation along straight
paths in the image domain, walking in along an orbit from near its limit
point zeta (the Denjoy-Wolff point, or a repelling point for a backward
orbit), in steps of log(zeta - z); every point converges, and retries a
failing leg in quarters, on its own.  A flow steps in u = -i log z, where
the unit circle is the flat line Im u = 0.  Everything is immutable after
construction and safe to evaluate concurrently; the only state filled in
later is the cache of compiled evaluation tapes, where a race merely
compiles a tape twice.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import (
    ConfigError,
    EvaluationError,
    InversionError,
    ModelInconsistencyError,
    OutsideOmegaError,
    PetalExitError,
)

__all__ = [
    "FixedPointDatum",
    "Scenario",
    "parse_scenario",
    "make_builtin",
    "make_parametric",
    "eval_h",
    "eval_h_jet",
    "eval_hl_jets",
    "eval_h_prime",
    "eval_v",
    "eval_h_inverse",
    "flow",
    "orbit",
    "cocycle",
    "generator_G",
    "generator_g",
    "alpha_at",
    "beta_at",
    "quasi_random_grid",
    "parse_complex",
    "richardson",
]

DENJOY_WOLFF = "denjoy_wolff"
REPELLING = "repelling"

_LOG_SQRT2P1 = math.log(1.0 + math.sqrt(2.0))
_TRIDENT_SLIT_RE = -0.5 * math.log(2.0)


@dataclass(frozen=True)
class FixedPointDatum:
    """Boundary fixed point with its flow and cocycle exponents.

    beta_re may be -inf (the weight vanishes faster than any exponential
    along the approach); only the real part feeds the spectral invariants.
    """

    zeta: complex
    alpha: float
    beta_re: float
    beta_im: float = 0.0
    role: str = REPELLING

    def __post_init__(self):
        if self.role not in (DENJOY_WOLFF, REPELLING):
            raise ConfigError(f"unknown fixed point role {self.role!r}")
        if self.role == DENJOY_WOLFF and not self.alpha > 0:
            raise ConfigError("the Denjoy-Wolff point must have alpha > 0")
        if self.role == REPELLING and not self.alpha < 0:
            raise ConfigError("repelling fixed points must have alpha < 0")
        if abs(abs(self.zeta) - 1.0) > 1e-12:
            raise ConfigError("fixed points must lie on the unit circle")


def _validate_fixed_points(fps):
    n_dw = sum(1 for f in fps if f.role == DENJOY_WOLFF)
    if n_dw != 1:
        raise ConfigError(f"exactly one Denjoy-Wolff point required, got {n_dw}")


class Scenario:
    """Immutable model: exponent p, conformal map, weight, fixed points."""

    def __init__(self, p, kind, h=None, v=None, fixed_points=(), weights=(0.0, 0.0, 0.0),
                 closed_inverse=None, in_omega=None, petal_anchors=(), params=None):
        if p < 1:
            raise ConfigError(f"p must be >= 1, got {p}")
        _validate_fixed_points(fixed_points)
        self.p = float(p)
        self.kind = kind
        self._h = h
        self._v = v
        # l = log v on no fixed branch (expr.log_of), read only through
        # exp(... +- l) and l' = v'/v
        self._l = ex.log_of(v) if v is not None else None
        self._tapes = {}   # (h order, l order) -> joint Tape, compiled on first use
        self.fixed_points = tuple(fixed_points)
        self.weights = tuple(float(x) for x in weights)
        self._closed_inverse = closed_inverse
        self._in_omega = in_omega
        self.params = dict(params or {})
        self._petal_anchors = _key_anchors(self.fixed_points, petal_anchors)
        if h is not None:
            self._smoke_test()

    # -- plumbing ----------------------------------------------------------

    @property
    def evaluable(self):
        return self._h is not None

    def _require_evaluable(self):
        if not self.evaluable:
            raise EvaluationError("parametric scenarios support only classification")

    def _smoke_test(self):
        pts = quasi_random_grid(200, 0.9)
        back = eval_h_inverse(self, self._h(pts))
        err = np.max(np.abs(back - pts))
        if err > 1e-9:
            raise ConfigError(f"round-trip smoke test failed (max error {err:.2e}); "
                              "check branch cuts of the supplied expressions")

    def in_omega(self, w):
        """Membership in the image domain, where known."""
        if self._in_omega is None:
            return np.ones(np.shape(w), dtype=bool)
        return self._in_omega(w)

    def dw_point(self) -> FixedPointDatum:
        return next(f for f in self.fixed_points if f.role == DENJOY_WOLFF)

    def repelling_points(self):
        return [f for f in self.fixed_points if f.role == REPELLING]

    def petal_anchor(self, fp: FixedPointDatum) -> complex:
        """Base point on the backward orbit into the petal attached to fp."""
        key = _fp_key(fp.zeta)
        if key not in self._petal_anchors:
            raise EvaluationError(f"no petal anchor available for fixed point {fp.zeta}")
        return self._petal_anchors[key]


def _fp_key(zeta):
    return (round(zeta.real, 9), round(zeta.imag, 9))


def _key_anchors(fixed_points, anchors):
    """Petal anchors keyed by their nearest repelling fixed point."""
    reps = [f for f in fixed_points if f.role == REPELLING]
    if anchors and not reps:
        raise ConfigError("petal anchors need a repelling fixed point")
    keyed = {}
    for a in anchors:
        fp = min(reps, key=lambda f: abs(complex(a) - f.zeta))
        keyed[_fp_key(fp.zeta)] = complex(a)
    return keyed


# -- built-in models --------------------------------------------------------

def _clamp_re(u, bound=700.0):
    """u with Re u clamped to [-bound, bound]: far out the closed-form inverses
    in e^u have rounded onto their boundary limits, and e^{+-700} is finite."""
    u = np.array(u, dtype=complex)
    np.clip(u.real, -bound, bound, out=u.real)
    return u


def _weight_exprs(h, log_dh, d_factor, c, s, d):
    """v = e^{c h} (+-h')^{-s} d_factor^d, the middle factor as exp(-s L)
    with L = log_dh an analytic log of +-h' on the disk: a principal-branch
    pow(h', -s) jumps where h' is negative real.  The sign of +-h' scales v
    by a constant, which cancels in the cocycle, in g = v'/(v h') and in the
    resolvent."""
    v = None

    def mul(acc, f):
        return f if acc is None else acc * f

    if c != 0.0:
        v = mul(v, ex.apply_fn("exp", h * c))
    if s != 0.0:
        v = mul(v, ex.apply_fn("exp", log_dh * -s))
    if d != 0.0:
        v = mul(v, ex.apply_fn("pow", d_factor, d))
    return v if v is not None else ex.const(1.0)


def make_builtin(name, p, a=1.0, c=0.0, s=0.0, d=0.0):
    z = ex.var()
    log = functools.partial(ex.apply_fn, "log")
    params = None
    midlines = ()   # heights of the petal anchors, placed at Re w = -8
    if name == "strip_flow":
        if a <= 0:
            raise ConfigError("strip_flow parameter a must be positive")
        zp = 1 + z
        log_p, log_m = log(zp), log(1 - z)
        h = (log_p - log_m) * (1.0 / a)
        # h' = 2 / (a (1-z)(1+z))
        v = _weight_exprs(h, math.log(2.0 / a) - log_m - log_p, zp, c, s, d)
        fps = (
            FixedPointDatum(1.0 + 0j, a, c - s * a, role=DENJOY_WOLFF),
            FixedPointDatum(-1.0 + 0j, -a, c + a * (s + d), role=REPELLING),
        )

        def inverse(w):
            e = np.exp(_clamp_re(a * np.asarray(w, dtype=complex)))
            return (e - 1) / (e + 1)

        half_height = math.pi / (2 * a)

        def inside(w):
            return np.abs(np.imag(w)) < half_height

        midlines = (0.0,)
        params = {"a": a}

    elif name == "half_strip":
        zp, zm = 1 + z, 1 - z
        u = zm / zp
        root = ex.apply_fn("sqrt", 1 + u * u)
        h = log(u + root) - _LOG_SQRT2P1
        # -h' = 2 / ((1+z)^2 root), and (1+z)^2 root = sqrt2 (1+z) sqrt(1+z^2)
        # has its argument in (-3pi/4, 3pi/4), so one principal log serves.
        # No repelling point here: the d factor anchors at the regular
        # boundary point z = 1, where it stays bounded and leaves the
        # invariants untouched
        v = _weight_exprs(h, math.log(2.0) - log(zp * zp * root), zm, c, s, d)
        fps = (FixedPointDatum(-1.0 + 0j, 1.0, c - s, role=DENJOY_WOLFF),)

        def inverse(w):
            sh = np.sinh(_clamp_re(np.asarray(w, dtype=complex) + _LOG_SQRT2P1))
            return (1 - sh) / (1 + sh)

        def inside(w):
            return (np.abs(np.imag(w)) < math.pi / 2) & (np.real(w) > -_LOG_SQRT2P1)

    elif name == "trident":
        log_sq, log_p = log(1 + z * z), log(1 + z)
        h = log_sq * 0.5 - log_p
        # -h' = (1-z) / ((1+z^2)(1+z))
        v = _weight_exprs(h, log(1 - z) - log_sq - log_p, z - 1j, c, s, d)
        fps = (
            FixedPointDatum(-1.0 + 0j, 1.0, c - s, role=DENJOY_WOLFF),
            FixedPointDatum(1j, -2.0, c + 2 * (s + d), role=REPELLING),
            FixedPointDatum(-1j, -2.0, c + 2 * s, role=REPELLING),
        )

        def inverse(w):
            # W = e^{2w} gives (W-1) z^2 + 2W z + (W-1) = 0, whose roots
            # multiply to 1: z = (W-1)/q, with q the one of -W +- r of larger
            # modulus, is the root inside the disk, free of cancellation
            W = np.exp(_clamp_re(2.0 * np.asarray(w, dtype=complex)))
            r = np.sqrt(2.0 * W - 1.0)
            q = np.where(np.abs(r - W) > np.abs(r + W), r - W, -r - W)
            zw = (W - 1.0) / q
            # far along an orbit z rounds onto a boundary fixed point
            return np.where(np.abs(zw) < 1.0, zw, zw * (1.0 - 2.0 ** -53))

        def inside(w):
            w = np.asarray(w, dtype=complex)
            on_slit = (np.abs(np.imag(w)) < 1e-13) & (np.real(w) <= _TRIDENT_SLIT_RE)
            return (np.abs(np.imag(w)) < math.pi / 2) & ~on_slit

        midlines = (math.pi / 4, -math.pi / 4)

    else:
        raise ConfigError(f"unknown built-in model {name!r}")
    if a != 1.0 and name != "strip_flow":
        raise ConfigError(f"model {name} does not read parameter a")
    anchors = [inverse(complex(-8.0, m)) for m in midlines]
    return Scenario(p, name, h=h, v=v, fixed_points=fps, weights=(c, s, d),
                    closed_inverse=inverse, in_omega=inside,
                    petal_anchors=anchors, params=params)


def make_parametric(p, fixed_points):
    return Scenario(p, "parametric", fixed_points=tuple(fixed_points))


def make_expression(p, h_expr, v_expr, fixed_points, petal_anchors=()):
    return Scenario(p, "expression", h=h_expr, v=v_expr,
                    fixed_points=tuple(fixed_points), petal_anchors=petal_anchors)


# -- config parsing ---------------------------------------------------------

def parse_complex(text: str) -> complex:
    """Parse 're+im i' complex literals such as '0.3+0.2i', '-1', 'i'."""
    s = text.strip().replace("−", "-").replace(" ", "")
    if not s:
        raise ConfigError("empty complex literal")
    s = s.replace("i", "j")
    if s in ("j", "+j"):
        s = "1j"
    if s == "-j":
        s = "-1j"
    try:
        z = complex(s)
    except ValueError as e:
        raise ConfigError(f"malformed complex literal {text!r}") from e
    if not cmath.isfinite(z):
        raise ConfigError(f"complex literal {text!r} is not finite")
    return z


def _real(text, what):
    """A finite float config value; nan and inf are config errors."""
    try:
        x = float(text.replace("−", "-"))
    except ValueError as e:
        raise ConfigError(f"malformed {what} value {text!r}") from e
    if not math.isfinite(x):
        raise ConfigError(f"{what} value {text!r} is not finite")
    return x


_ROLES = {"dw": DENJOY_WOLFF, "denjoy_wolff": DENJOY_WOLFF,
          "rep": REPELLING, "repelling": REPELLING}

# the keys each model reads besides p and model; any other is a config error
_MODEL_KEYS = {
    "strip_flow": ("a", "c", "s", "d"),
    "half_strip": ("c", "s", "d"),
    "trident": ("c", "s", "d"),
    "parametric": ("fp",),
    "expression": ("h_expr", "v_expr", "fp", "petal_anchor"),
}


def _parse_fp(text, lineno):
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ConfigError(f"line {lineno}: fp value must be '(zeta, alpha, beta_re, role)'")
    parts = [p.strip() for p in body[1:-1].split(",")]
    if len(parts) != 4:
        raise ConfigError(f"line {lineno}: fp needs 4 fields, got {len(parts)}")
    zeta = parse_complex(parts[0])
    alpha = _real(parts[1], f"line {lineno}: fp alpha")
    beta_text = parts[2].replace("−", "-")
    # -inf is the sentinel for a weight vanishing faster than any exponential
    if beta_text.lower() in ("-inf", "-infinity", "-oo"):
        beta_re = float("-inf")
    else:
        beta_re = _real(beta_text, f"line {lineno}: fp beta_re")
    role = _ROLES.get(parts[3])
    if role is None:
        raise ConfigError(f"line {lineno}: unknown role {parts[3]!r}")
    return FixedPointDatum(zeta, alpha, beta_re, role=role)


def parse_scenario(config_text: str) -> Scenario:
    """Parse the line-oriented 'key = value' scenario config format."""
    values = {}
    fps = []
    anchors = []
    first_line = {}
    for lineno, raw in enumerate(config_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "fp":
            fps.append(_parse_fp(value, lineno))
        elif key == "petal_anchor":
            anchor = parse_complex(value)
            if not abs(anchor) < 1.0:
                raise ConfigError(f"line {lineno}: petal_anchor {value!r} "
                                  "must lie inside the unit disk")
            anchors.append(anchor)
        elif key in ("p", "model", "a", "c", "s", "d", "h_expr", "v_expr"):
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        first_line.setdefault(key, lineno)

    if "p" not in values:
        raise ConfigError("missing required key 'p'")
    if "model" not in values:
        raise ConfigError("missing required key 'model'")
    p = _real(values["p"], "p")
    model = values["model"]
    if model not in _MODEL_KEYS:
        raise ConfigError(f"unknown model {model!r}")
    for key, lineno in first_line.items():
        if key not in ("p", "model") + _MODEL_KEYS[model]:
            raise ConfigError(f"line {lineno}: model {model} does not read "
                              f"key {key!r}")

    def num(key, default=0.0):
        return _real(values[key], key) if key in values else default

    if model == "parametric":
        if not fps:
            raise ConfigError("parametric model requires at least one fp line")
        return make_parametric(p, fps)
    if model == "expression":
        if "h_expr" not in values:
            raise ConfigError("expression model requires h_expr")
        if not fps:
            raise ConfigError("expression model requires fp lines")
        h = ex.parse_expr(values["h_expr"])
        v = ex.parse_expr(values.get("v_expr", "1"))
        return make_expression(p, h, v, fps, petal_anchors=anchors)
    return make_builtin(model, p, a=num("a", 1.0), c=num("c"), s=num("s"), d=num("d"))


# -- point evaluation -------------------------------------------------------

def _check_in_disk(z, allow_radius=1.0):
    r = np.abs(np.asarray(z))
    if np.any(r >= allow_radius):
        raise EvaluationError("evaluation requested on or outside the unit disk")


def eval_h_jet(s: Scenario, z, order):
    """Jet of the conformal map at z with derivatives up to `order`."""
    s._require_evaluable()
    _check_in_disk(z)
    return s._h.jet(z, order)


def eval_hl_jets(s: Scenario, z, h_order, l_order):
    """Jets of the conformal map and of l = log v (on no fixed branch) at z,
    from one pass over their shared tape; for a built-in, l reuses the logs
    inside h, and at d = 0 needs no transcendental function of its own."""
    s._require_evaluable()
    _check_in_disk(z)
    key = (h_order, l_order)
    tape = s._tapes.get(key)
    if tape is None:
        tape = s._tapes[key] = ex.Tape((s._h, s._l), key)
    return tape(z)


def eval_h(s: Scenario, z):
    return eval_h_jet(s, z, 0).f


def eval_h_prime(s: Scenario, z):
    return eval_h_jet(s, z, 1).d1


def eval_v(s: Scenario, z):
    s._require_evaluable()
    _check_in_disk(z)
    return s._v(z)


def generator_G(s: Scenario, z):
    return 1.0 / eval_h_prime(s, z)


def generator_g(s: Scenario, z):
    """g = v'/(v h') = l'/h'."""
    hj, lj = eval_hl_jets(s, z, 1, 1)
    return lj.d1 / hj.d1


# -- inversion and flow -----------------------------------------------------

_NEWTON_BUDGET = 16         # corrector iterations per leg
_NEWTON_TOL = 1e-13
_LEG = 0.25                 # longest leg of a continuation path, in w
_ORBIT_LEG = 2.0            # longest leg of an orbit walk toward its limit
_PROBE_EPS = 2.0 ** -6      # expression inverses start from zeta (1 - this)
# times a failing leg may be quartered: the truncate of an expression trident
# needs 3 where a flow starts 1e-11 from the critical value at the slit tip
_LEG_DEPTH = 16
_LEG_UNITS = 4 ** _LEG_DEPTH    # finest legs in one longest leg


def _converged(hj, target):
    """Condition-aware acceptance: near boundary fixed points the map value
    loses digits to cancellation while the preimage itself stays accurate,
    so the residual floor scales with |h'|."""
    tol = np.maximum(_NEWTON_TOL * np.maximum(1.0, np.abs(target)),
                     50 * np.finfo(float).eps * (1.0 + np.abs(hj.d1)))
    return np.abs(hj.f - target) < tol


def _newton_step_batch(s, z, target, center):
    """Damped Newton toward h(z) = target on 1-D complex arrays, stepping in
    log(c - z) for the center c: z -> c - (c - z) exp(delta / ((c - z) h')),
    with delta = h(z) - target.  Near a boundary fixed point c, h is
    -log(c - z)/alpha plus a bounded part, so a long leg of an orbit into c
    converges in a few steps.  At c = 0 this is the step in u = -i log z,
    where the unit circle is the flat line Im u = 0, so a step along an
    orbit that hugs the circle stays inside; nearer 0 than 1/2, where that
    coordinate is singular, the step is the plain z - delta / h'.  A point
    stops once it has converged, after the step its converged jet already
    gives.  Returns z and the converged mask."""
    z = np.array(z, dtype=complex)
    done = np.zeros(z.shape, dtype=bool)
    live = np.arange(z.size)
    for _ in range(_NEWTON_BUDGET + 1):
        zl = z[live]
        hj = s._h.jet(zl, 1)
        ok = _converged(hj, target[live])
        done[live[ok]] = True
        step = (hj.f - target[live]) / hj.d1
        polar = (np.abs(zl) > 0.5) | (center != 0)
        step[polar] /= center - zl[polar]

        def move(factor):
            cand = zl - factor * step
            with np.errstate(over="ignore", invalid="ignore"):
                cand[polar] = center - (center - zl[polar]) * np.exp(
                    factor[polar] * step[polar])
            return cand

        factor = np.ones(zl.shape)
        cand = move(factor)
        for _ in range(40):
            bad = ~(np.abs(cand) < 1.0)     # an overflowed exp gives nan
            if not np.any(bad):
                break
            factor = np.where(bad, factor / 2, factor)
            cand = move(factor)
        z[live] = cand
        live = live[~ok]
        if not live.size:
            break
    return z, done


def _continuation_invert(s, w, z0, w0, center=0j, longest=_LEG):
    """Follow straight paths in the image domain from w0 to w, one per point,
    in legs of its own length: equal legs of at most `longest`, except that a
    leg whose corrector fails is retried from its start in quarters, down to
    longest / 4**_LEG_DEPTH, and after the quarters the longer legs resume.
    The corrector steps in log(center - z)."""
    shape = np.shape(w)
    w, w0, z = (np.array(a, dtype=complex).ravel() for a in (w, w0, z0))
    # progress along each path counts finest legs, so every leg end is exact
    end = _LEG_UNITS * np.ceil(np.abs(w - w0) / longest).clip(1).astype(np.int64)
    pos = np.zeros(w.shape, dtype=np.int64)
    depth = np.zeros(w.shape, dtype=np.int64)
    live = np.arange(w.size)
    while live.size:
        leg = _LEG_UNITS >> 2 * depth
        nxt = pos[live] + leg[live]
        target = w0[live] + (w[live] - w0[live]) * (nxt / end[live])
        zl, ok = _newton_step_batch(s, z[live], target, center)
        good, bad = live[ok], live[~ok]
        z[good], pos[good] = zl[ok], nxt[ok]
        # a point that has finished the quarters of a failed leg goes back up
        up = good
        while (up := up[(depth[up] > 0) & (pos[up] % (4 * leg[up]) == 0)]).size:
            depth[up] -= 1
            leg[up] *= 4
        depth[bad] += 1
        lost = depth[live] > _LEG_DEPTH
        if lost.any():
            res = float(np.max(np.abs(s._h(zl[lost]) - target[lost])))
            raise InversionError(
                f"Newton inversion failed to converge (residual {res:.1e})")
        live = live[pos[live] < end[live]]
    return z.reshape(shape)


def _invert_near(s, w, fp):
    """h^-1(w) on the orbit that tends to the boundary fixed point fp: start
    at W = Re w or Re w_p, whichever lies further toward fp, plus i Im w,
    with w_p = h(z_p) at the probe z_p = zeta (1 - _PROBE_EPS), correct
    there, and walk to w in legs of _ORBIT_LEG centered at zeta.  [w, W]
    lies on the orbit through w: forward since Omega + t lies in Omega for
    t >= 0, backward since W lies further along w's orbit into the petal.
    Near zeta h is -log(zeta - z)/alpha plus a bounded part, so the start is
    near h^-1(W); one that rounds onto zeta, where h is singular, stays there
    (W = w for it), on the circle."""
    zeta = complex(fp.zeta)
    zp = zeta * (1.0 - _PROBE_EPS)
    wp = complex(s._h(zp))
    edge = np.maximum if fp.alpha > 0 else np.minimum
    W = edge(w.real, wp.real) + 1j * w.imag
    z = np.array(zeta - (zeta - zp) * np.exp(-fp.alpha * (W - wp)))
    go = z != zeta
    z0 = _continuation_invert(s, W[go], z[go], W[go], zeta, _ORBIT_LEG)
    z[go] = _continuation_invert(s, w[go], z0, W[go], zeta, _ORBIT_LEG)
    return z


def eval_h_inverse(s: Scenario, w):
    """Invert the conformal map; Newton continuation when no closed form."""
    s._require_evaluable()
    w_arr = np.asarray(w, dtype=complex)
    inside = s.in_omega(w_arr)
    if not np.all(inside):
        raise OutsideOmegaError("target point outside the image domain")
    if s._closed_inverse is not None:
        z = s._closed_inverse(w_arr)
    else:
        z = _invert_near(s, w_arr, s.dw_point())
    return complex(z) if np.ndim(z) == 0 else z


def orbit(s: Scenario, base, fp: FixedPointDatum, t):
    """phi_{+-t}(base) for an array of t >= 0: forward when fp is the
    Denjoy-Wolff point, else backward into the petal of the repelling point
    fp.  Each point is inverted from next to fp, not walked from base."""
    sign = 1.0 if fp.role == DENJOY_WOLFF else -1.0
    w = complex(eval_h(s, base)) + sign * np.asarray(t, dtype=float)
    if sign < 0 and not np.all(s.in_omega(w)):
        raise PetalExitError("backward orbit leaves the image domain")
    if s._closed_inverse is not None:
        return np.asarray(s._closed_inverse(w), dtype=complex)
    return _invert_near(s, w, fp)


def flow(s: Scenario, t, z):
    """Time-t image of z under the semiflow; t < 0 allowed inside a petal."""
    s._require_evaluable()
    _check_in_disk(z)
    if t == 0:
        return z
    z_arr = np.asarray(z, dtype=complex)
    w0 = np.asarray(s._h(z_arr), dtype=complex)
    w1 = w0 + t
    if t < 0 and not np.all(s.in_omega(w1)):
        raise PetalExitError("backward flow leaves the image domain")
    if s._closed_inverse is not None:
        out = s._closed_inverse(w1)
    else:
        # the horizontal path from w0 to w0 + t stays in the image domain
        out = _continuation_invert(s, w1, z_arr, w0)
    return complex(out) if np.ndim(out) == 0 else out


def _weight_ratio(s, t, z, zt):
    """v(zt) / v(z) = exp(l(zt) - l(z)) for zt = flow(s, t, z).  A point
    that the flow rounded onto the unit circle has lost its image, and v may
    have a branch point or a pole there, so that is a numerical failure, not
    a config error."""
    if np.any(np.abs(zt) >= 1.0):
        raise FloatingPointError(
            f"the time-{t:g} flow rounded a point onto the unit circle")
    return np.exp(s._l(zt) - s._l(z))


def cocycle(s: Scenario, t, z):
    """Weight transported along the flow: v(flow(t, z)) / v(z)."""
    s._require_evaluable()
    return _weight_ratio(s, t, z, flow(s, t, z))


# -- boundary exponents -----------------------------------------------------

def richardson(values):
    """Limit of a sequence with error expansion in powers of 2**-k."""
    v = np.asarray(values, dtype=complex)
    for m in range(1, len(v)):
        r = 2.0 ** m
        v = (r * v[1:] - v[:-1]) / (r - 1)
    return complex(v[0])


_RADII_K = range(4, 15)


def alpha_at(s: Scenario, fp: FixedPointDatum) -> float:
    """Flow exponent at a declared fixed point, computed two ways; both must
    agree with each other and with fp.alpha to within 1e-4.  Every radius
    is flowed in one call, each point on its own path."""
    s._require_evaluable()
    zeta = complex(fp.zeta)
    z = (1.0 - 2.0 ** -np.array(_RADII_K)) * zeta
    quot = -np.log((zeta - flow(s, 1.0, z)) / (zeta - z))
    hj = s._h.jet(z, 2)
    gprime = hj.d2 / hj.d1 ** 2  # -G'(z) for G = 1/h'
    a_quot = richardson(quot[-4:]).real
    a_gp = richardson(gprime[-4:]).real
    if abs(a_quot - a_gp) > 1e-4 or abs(a_quot - fp.alpha) > 1e-4:
        raise ModelInconsistencyError(
            f"alpha mismatch at {zeta}: quotient {a_quot:.6g}, "
            f"generator {a_gp:.6g}, declared {fp.alpha:.6g}")
    return a_quot


def beta_at(s: Scenario, fp: FixedPointDatum) -> complex:
    """Cocycle exponent at a fixed point by radial extrapolation of the
    weight generator; returns complex(-inf, 0) for the degenerate case."""
    s._require_evaluable()
    zeta = complex(fp.zeta)
    samples = generator_g(s, (1.0 - 2.0 ** -np.array(_RADII_K)) * zeta)
    if samples[-1].real < -1e3 and np.all(np.diff(samples[-4:].real) < 0):
        return complex(float("-inf"), 0.0)
    est_full = richardson(samples[-4:])
    est_prev = richardson(samples[-5:-1])
    if abs(est_full - est_prev) > 1e-3 * (1.0 + abs(est_full)):
        raise EvaluationError("no boundary limit for the weight generator "
                              f"at {zeta} (oscillatory samples)")
    return est_full


# -- helpers ----------------------------------------------------------------

def quasi_random_grid(n, radius):
    """Deterministic low-discrepancy point set in a centered disk."""
    i = np.arange(n)
    r = radius * np.sqrt((i + 0.5) / n)
    golden = (1 + math.sqrt(5)) / 2
    theta = 2 * np.pi * ((i / golden) % 1.0)
    return r * np.exp(1j * theta)
