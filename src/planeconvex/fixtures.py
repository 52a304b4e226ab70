"""Frozen reference configurations used by tests and the CLI.

Includes the equilateral reference triangle with 50-digit rational
approximations of its irrational coordinates, the rectangle pair showing that
internal-tangency classification genuinely needs edge-free bodies, the exact
disk tangency pair, the plus-sign crossing pair, and the committed
triangle-configuration that violates anti-exchange.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .bodies import Disk, Polygon, Triangle
from .geom import Point
from .transforms import Translation, homothety

# sqrt(3) to 50 decimal digits, as an exact rational
_D = 10 ** 50
SQRT3_50 = Fraction(isqrt(3 * _D * _D), _D)


def equilateral_triangle() -> Triangle:
    """Vertices (6,0), (-3, 3*sqrt3), (-3, -3*sqrt3) at 50-digit precision."""
    return Triangle(
        Point(Fraction(6), Fraction(0)),
        Point(Fraction(-3), 3 * SQRT3_50),
        Point(Fraction(-3), -3 * SQRT3_50),
    )


def rectangle() -> Polygon:
    """[-2,2] x [0,2], the edge-bearing body of the tangency counterexample."""
    return Polygon(
        (Point(-2, 0), Point(2, 0), Point(2, 2), Point(-2, 2))
    )


def rectangle_pair_maps():
    """The two maps under which the rectangle defeats tangency classification."""
    return homothety(Point(4, 2), Fraction(1, 2)), Translation((1, 0))


def disk_tangency_pair():
    """u0 = Disk((1,0),1) with H((2,0),2); contact (2,0), u0 inside the image."""
    return Disk(Point(1, 0), 1), homothety(Point(2, 0), 2)


def plus_sign_rectangles():
    """Two rectangles overlapping in a plus sign; the canonical crossing pair."""
    r0 = Polygon((Point(-3, -1), Point(3, -1), Point(3, 1), Point(-3, 1)))
    r1 = Polygon((Point(-1, -3), Point(1, -3), Point(1, 3), Point(-1, 3)))
    return r0, r1


# ---------------------------------------------------------------------------
# Committed anti-exchange violation for triangle shapes.
#
# First hit of the randomized search convexgeo.search_triangle_anti_exchange
# (seed=0), frozen verbatim; that search is no longer in the package and can
# be read at commit 630c38d.  Two near-equilateral triangles share the
# protruding vertex PIVOT outside the base triangle, so each lies in the
# hull of the base together with the other, while neither is in the closure
# of the base alone.  (A shared protruding vertex is forced: mutual coverage
# makes the two support functions agree on the whole protrusion cone.)

ANTI_EXCHANGE_PIVOT = Point(Fraction(191, 64), Fraction(33, 8))

ANTI_EXCHANGE_SHAPES = (
    # base triangle
    Polygon((
        Point(Fraction(0), Fraction(0)),
        Point(Fraction(4721836, 666979), Fraction(-1479343, 883009)),
        Point(Fraction(5118827, 1025692), Fraction(1724531, 325795)),
    )),
    # two triangles pivoting about the shared outside vertex
    Polygon((
        Point(Fraction(1458462, 633407), Fraction(2054177, 815983)),
        Point(Fraction(3920759, 971526), Fraction(1478966, 541597)),
        ANTI_EXCHANGE_PIVOT,
    )),
    Polygon((
        Point(Fraction(148721, 71675), Fraction(1774803, 860194)),
        Point(Fraction(2518017, 583526), Fraction(230697, 100019)),
        ANTI_EXCHANGE_PIVOT,
    )),
)

ANTI_EXCHANGE_WITNESS = (1, 2, 0b001)  # (p, q, X): X = {base}
