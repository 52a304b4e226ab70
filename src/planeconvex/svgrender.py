"""Deterministic SVG rendering of instances and results.

Coordinates are rounded to 1e-6 so identical inputs yield identical bytes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from . import serial
from .bodies import (
    ConvexBody,
    Disk,
    Polygon,
    boundary_samples,
    hull_of_union,
)
from .geom import Point


def _r(x: float) -> str:
    v = round(float(x), 6)
    if v == int(v):
        return str(int(v))
    return f"{v:.6f}".rstrip("0").rstrip(".")


def _poly_path(pts: List[Point], close: bool = True) -> str:
    parts = [f"{'M' if i == 0 else 'L'} {_r(p.x)} {_r(p.y)}" for i, p in enumerate(pts)]
    return " ".join(parts) + (" Z" if close else "")


def _body_element(u: ConvexBody, style: str) -> str:
    if isinstance(u, Disk):
        return (
            f'<circle cx="{_r(u.center.x)}" cy="{_r(u.center.y)}" '
            f'r="{_r(u.radius)}" {style}/>'
        )
    if isinstance(u, Polygon):
        return f'<path d="{_poly_path(list(u.vertices))}" {style}/>'
    samples = boundary_samples(u, 128)
    return f'<path d="{_poly_path(samples)}" {style}/>'


def render_svg(instance: Dict[str, Any], results: Optional[Dict[str, Any]] = None) -> str:
    """An SVG scene: triangle outline, bodies filled, optional witness hull
    dashed, optional comet tangent rays and front arc."""
    elements: List[str] = []
    xs: List[float] = []
    ys: List[float] = []

    def track(pts):
        for p in pts:
            xs.append(float(p.x))
            ys.append(float(p.y))

    tri = None
    if "triangle" in instance:
        tri = serial.triangle_from_json(instance["triangle"])
        pts = [p.to_float() for p in tri.points]
        track(pts)
        elements.append(
            f'<path class="triangle" d="{_poly_path(pts)}" '
            'fill="none" stroke="black" stroke-width="0.02"/>'
        )
    bodies = []
    for key, color in (("body0", "#4477aa"), ("body1", "#aa4444")):
        if key in instance:
            u = serial.body_from_json(instance[key])
            bodies.append(u)
            track(boundary_samples(u, 64))
            elements.append(
                _body_element(u, f'class="{key}" fill="{color}" fill-opacity="0.45" '
                              'stroke="none"')
            )
    if results and "witness" in results and tri is not None and bodies:
        j = int(results["witness"]["j"])
        k = int(results["witness"]["k"])
        kept = [tri.points[i] for i in (0, 1, 2) if i != j]
        seed_body = bodies[min(k, len(bodies) - 1)]
        hull = hull_of_union(seed_body, kept)
        samples = boundary_samples(hull, 128)
        track(samples)
        elements.append(
            f'<path class="witness-hull" d="{_poly_path(samples)}" fill="none" '
            'stroke="#228833" stroke-width="0.02" stroke-dasharray="0.1,0.06"/>'
        )
    if "comet" in instance:
        f = serial.point_from_json(instance["comet"]["focus"])
        u = serial.body_from_json(instance["comet"]["nucleus"])
        from .theorem import comet_build

        comet = comet_build(f, u)
        track([f])
        track(boundary_samples(u, 64))
        elements.append(_body_element(u, 'class="nucleus" fill="#999999" stroke="none"'))
        for name, psl in zip(("ray-right", "ray-left"), comet.tangents):
            t = psl.support
            ex = float(t.x) + 3.0 * (float(t.x) - float(f.x))
            ey = float(t.y) + 3.0 * (float(t.y) - float(f.y))
            track([Point(ex, ey)])
            elements.append(
                f'<line class="{name}" x1="{_r(f.x)}" y1="{_r(f.y)}" '
                f'x2="{_r(ex)}" y2="{_r(ey)}" stroke="#cc6677" stroke-width="0.02"/>'
            )
        p0, p1 = comet.front_arc
        elements.append(
            f'<path class="front-arc" d="M {_r(p0.x)} {_r(p0.y)} '
            f'L {_r(p1.x)} {_r(p1.y)}" fill="none" stroke="#332288" '
            'stroke-width="0.03"/>'
        )
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    pad = 0.5
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_r(x0)} {_r(y0)} {_r(w)} {_r(h)}" width="640" height="640">'
        f'<g transform="translate(0 {_r(2 * y0 + h)}) scale(1 -1)">'
    )
    return header + "".join(elements) + "</g></svg>\n"
