"""Planar primitives on a dual numeric track.

Coordinates are either exact (``int`` / ``fractions.Fraction``) or floating.
Predicates stay exact as long as every input is exact; anything involving a
square root (distances, disk boundaries) lives on the floating track and is
compared against a :class:`Tolerance`.

Exact predicates are decided in float wherever a static error bound allows:
when every coordinate converts to float exactly (``_converts_exactly``),
``orient_filter`` returns the orientation's sign or, too close to call, None,
and only then does ``orient2d`` form the determinant on the input
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

Scalar = Union[int, Fraction, float]


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction))


class Point(NamedTuple):
    x: Scalar
    y: Scalar

    def __add__(self, other):  # type: ignore[override]
        return Point(self.x + other[0], self.y + other[1])

    def __sub__(self, other):
        return Point(self.x - other[0], self.y - other[1])

    def scaled(self, s: Scalar) -> "Point":
        return Point(self.x * s, self.y * s)

    def to_float(self) -> "Point":
        return Point(float(self.x), float(self.y))

    @property
    def exact(self) -> bool:
        return is_exact(self.x) and is_exact(self.y)


def dot(a, b) -> Scalar:
    return a[0] * b[0] + a[1] * b[1]


def cross(a, b) -> Scalar:
    return a[0] * b[1] - a[1] * b[0]


def midpoint(a: Point, b: Point) -> Point:
    half = Fraction(1, 2) if is_exact(a.x) and is_exact(b.x) else 0.5
    return Point((a.x + b.x) * half, (a.y + b.y) * half)


class Direction(NamedTuple):
    """Unnormalized ray direction; equality is positive proportionality."""

    dx: Scalar
    dy: Scalar

    def reversed(self) -> "Direction":
        return Direction(-self.dx, -self.dy)

    def left_normal(self) -> "Direction":
        """Normal pointing into the left halfplane of this direction."""
        return Direction(-self.dy, self.dx)

    def right_normal(self) -> "Direction":
        return Direction(self.dy, -self.dx)

    def norm(self) -> float:
        return math.hypot(float(self.dx), float(self.dy))

    def unit(self) -> tuple:
        n = self.norm()
        return (float(self.dx) / n, float(self.dy) / n)

    def angle(self) -> float:
        return math.atan2(float(self.dy), float(self.dx))

    def same_as(self, other: "Direction") -> bool:
        return cross(self, other) == 0 and dot(self, other) > 0


def direction(dx: Scalar, dy: Scalar) -> Direction:
    if dx == 0 and dy == 0:
        raise ValueError("zero direction")
    return Direction(dx, dy)


@dataclass(frozen=True)
class Tolerance:
    """Absolute geometric slack for floating-track tests.

    ``eps == 0`` is meaningful only when every coordinate involved is exact.
    """

    eps: float = 1e-9

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")


DEFAULT_TOL = Tolerance()
EXACT_TOL = Tolerance(0.0)


class DirectedLine(NamedTuple):
    anchor: Point
    d: Direction

    def point_at(self, t: float) -> Point:
        ux, uy = self.d.unit()
        return Point(float(self.anchor.x) + t * ux, float(self.anchor.y) + t * uy)

    def param_of(self, p: Point) -> float:
        ux, uy = self.d.unit()
        return (float(p.x) - float(self.anchor.x)) * ux + (float(p.y) - float(self.anchor.y)) * uy

    def signed_offset(self, p: Point) -> float:
        """Perpendicular distance of p, positive on the left."""
        c = cross(self.d, p - self.anchor)
        return float(c) / self.d.norm()

    def cross_value(self, p: Point) -> Scalar:
        """Unnormalized left-side value; exact on the rational track."""
        return cross(self.d, p - self.anchor)


def _converts_exactly(x: Scalar) -> bool:
    """True when float(x) is x, a multiple of 2**-252 below 2**200 in size.

    Differences and products of such values neither overflow nor underflow,
    so a float cross product of them has a relative error bound.
    """
    if isinstance(x, float):
        return x == 0.0 or 2.0**-200 <= abs(x) < 2.0**200
    if isinstance(x, int):
        return -(1 << 53) < x < 1 << 53
    if isinstance(x, Fraction):
        d = x.denominator
        return d & (d - 1) == 0 and d <= 1 << 200 and -(1 << 53) < x.numerator < 1 << 53
    return False


# Shewchuk's static bound for orient2d (DCG 1997, ccwerrboundA): on float
# input free of overflow and underflow, the float l - r is within
# (3u + 16u²)(|l| + |r|) of the exact determinant, u = 2**-53.
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def orient_filter(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> Optional[int]:
    """Sign of the determinant of (a, b, c) as +1 or -1, exact for
    coordinates that convert exactly, or None when the float determinant is
    too close to 0 to call."""
    l = (bx - ax) * (cy - ay)
    r = (by - ay) * (cx - ax)
    det = l - r
    if abs(det) > _ORIENT_ERR * (abs(l) + abs(r)):
        return 1 if det > 0 else -1
    return None


def orient2d(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of (a, b, c): +1 iff c strictly left of a->b."""
    coords = (a.x, a.y, b.x, b.y, c.x, c.y)
    if all(map(_converts_exactly, coords)):
        s = orient_filter(*map(float, coords))
        if s is not None:
            return s
    det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def side_of_line(l: DirectedLine, p: Point, tol: Tolerance = DEFAULT_TOL) -> str:
    """Classify p against l as 'left', 'on', or 'right'.

    With eps == 0 and exact coordinates the decision is exact; otherwise
    points within eps of the line count as 'on'.
    """
    c = l.cross_value(p)
    if tol.eps == 0 and is_exact(c):
        if c > 0:
            return "left"
        if c < 0:
            return "right"
        return "on"
    off = float(c) / l.d.norm()
    if off > tol.eps:
        return "left"
    if off < -tol.eps:
        return "right"
    return "on"


def dist2(p: Point, q: Point) -> Scalar:
    """Squared distance; exact on the rational track."""
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def dist(p: Point, q: Point) -> float:
    return math.hypot(float(p.x) - float(q.x), float(p.y) - float(q.y))


def project_to_segment(a: Point, b: Point, p: Point) -> Point:
    """The point of the segment [a, b] nearest to p (float track)."""
    ax, ay = float(a.x), float(a.y)
    bx, by = float(b.x), float(b.y)
    px, py = float(p.x), float(p.y)
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return Point(ax, ay)
    t = ((px - ax) * vx + (py - ay) * vy) / L2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return Point(ax + t * vx, ay + t * vy)


def seg_point_dist(a: Point, b: Point, p: Point) -> float:
    """Distance from p to the segment [a, b]."""
    return dist(p, project_to_segment(a, b, p))
