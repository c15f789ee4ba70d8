"""Deterministic SVG rendering of spectral regions.

Each component is drawn from its interval view (`Component.interval()`):
a closed point interval is a 1-px rule (line or circle), any other interval
of Re lambda a rectangle clipped to the viewport, and one of |lambda| a disk
or an even-odd annulus path.  Certainty is rendered by fill opacity
(certified 0.8, boundary_unresolved 0.4) and the unknown_question2 tag by a
hatch pattern.  Output is byte-stable: fixed float formatting and fixed
element order.
"""

from __future__ import annotations

from .regions import NEG_INF, SpectralRegion

__all__ = ["Viewport", "render_svg"]

_WIDTH = 800
_HEIGHT = 600

_OPACITY = {"certified": 0.8, "boundary_unresolved": 0.4}
_FILL = "#3465a4"
_HATCH_ID = "hatch-unknown"


class Viewport:
    """Axis-aligned window of the complex plane mapped onto the canvas."""

    def __init__(self, xmin=-4.0, xmax=4.0, ymin=-3.0, ymax=3.0):
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("degenerate viewport")
        self.xmin, self.xmax = float(xmin), float(xmax)
        self.ymin, self.ymax = float(ymin), float(ymax)

    def sx(self, x):
        return (x - self.xmin) / (self.xmax - self.xmin) * _WIDTH

    def sy(self, y):
        return (self.ymax - y) / (self.ymax - self.ymin) * _HEIGHT

    def scale_r(self, r):
        return r / (self.xmax - self.xmin) * _WIDTH


def _fmt(x):
    return format(float(x), ".4f")


def _style(component):
    if component.certainty == "unknown_question2":
        return f'fill="url(#{_HATCH_ID})" class="unknown_question2"'
    op = _OPACITY.get(component.certainty, 0.8)
    return (f'fill="{_FILL}" fill-opacity="{_fmt(op)}" '
            f'class="{component.certainty}"')


def _rect(vp, x0, x1, style):
    x0 = max(x0, vp.xmin)
    x1 = min(x1, vp.xmax)
    if x1 <= x0:
        return []
    return [f'<rect x="{_fmt(vp.sx(x0))}" y="0.0000" '
            f'width="{_fmt(vp.sx(x1) - vp.sx(x0))}" '
            f'height="{_fmt(_HEIGHT)}" {style}/>']

def _vline(vp, x, style):
    if not vp.xmin <= x <= vp.xmax:
        return []
    return [f'<rect x="{_fmt(vp.sx(x) - 0.5)}" y="0.0000" width="1.0000" '
            f'height="{_fmt(_HEIGHT)}" {style}/>']


def _circle_path(vp, r, clockwise=False):
    cx, cy = vp.sx(0.0), vp.sy(0.0)
    rr = vp.scale_r(r)
    sweep = "0" if clockwise else "1"
    return (f"M {_fmt(cx - rr)} {_fmt(cy)} "
            f"A {_fmt(rr)} {_fmt(rr)} 0 1 {sweep} {_fmt(cx + rr)} {_fmt(cy)} "
            f"A {_fmt(rr)} {_fmt(rr)} 0 1 {sweep} {_fmt(cx - rr)} {_fmt(cy)} Z")


def _disk(vp, r, style):
    if r <= 0:
        return []
    return [f'<path d="{_circle_path(vp, r)}" {style}/>']


def _annulus(vp, r1, r2, style):
    if r2 <= 0:
        return []
    d = _circle_path(vp, r2) + " " + _circle_path(vp, max(r1, 0.0), clockwise=True)
    return [f'<path d="{d}" fill-rule="evenodd" {style}/>']


def _circle_rule(vp, r, style):
    cx, cy = vp.sx(0.0), vp.sy(0.0)
    return [f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(vp.scale_r(r))}" '
            f'fill="none" stroke="{_FILL}" stroke-width="1" '
            f'{style.replace("fill=", "data-fill=")}/>']


def _component_svg(vp, c):
    view = c.interval()
    if view is None:
        return []
    axis, closed, lo, hi = view
    style = _style(c)
    if axis == "v":     # _rect clips to the viewport, so lo = -inf is fine
        return (_vline(vp, lo, style) if closed and lo == hi
                else _rect(vp, lo, hi, style))
    if closed and lo == NEG_INF:
        return _disk(vp, hi, style)
    if closed and lo == hi:
        return _circle_rule(vp, lo, style)
    return _annulus(vp, lo, hi, style)


def _axes(vp):
    out = []
    if vp.xmin <= 0.0 <= vp.xmax:
        out.append(f'<line x1="{_fmt(vp.sx(0.0))}" y1="0.0000" '
                   f'x2="{_fmt(vp.sx(0.0))}" y2="{_fmt(_HEIGHT)}" '
                   'stroke="#888888" stroke-width="1"/>')
    if vp.ymin <= 0.0 <= vp.ymax:
        out.append(f'<line x1="0.0000" y1="{_fmt(vp.sy(0.0))}" '
                   f'x2="{_fmt(_WIDTH)}" y2="{_fmt(vp.sy(0.0))}" '
                   'stroke="#888888" stroke-width="1"/>')
    return out


def render_svg(region: SpectralRegion, viewport: Viewport = None) -> str:
    """Render a spectral region to standalone SVG 1.1 text."""
    vp = viewport if viewport is not None else Viewport()
    body = []
    for c in region.components:
        body.extend(_component_svg(vp, c))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        "<defs>",
        f'<pattern id="{_HATCH_ID}" width="8" height="8" '
        'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
        f'<rect width="8" height="8" fill="#ffffff"/>'
        f'<line x1="0" y1="0" x2="0" y2="8" stroke="{_FILL}" '
        'stroke-width="2"/></pattern>',
        "</defs>",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    lines.extend(_axes(vp))
    lines.extend(body)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
