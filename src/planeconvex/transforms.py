"""The group generated by positive homotheties and translations.

A map is stored in affine normal form x |-> s*x + t with s != 0; s == 1 gives
a translation and any other s a homothety with center t/(1-s). Composition,
inversion, and the conjugation/six-point identities are exact on rational
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import DegenerateRatio
from .geom import Point, Scalar, is_exact


class PlaneMap:
    """Base for Homothety and Translation; use the factory helpers below."""

    scale: Scalar
    offset: Tuple[Scalar, Scalar]

    def apply(self, p: Point) -> Point:
        s = self.scale
        ox, oy = self.offset
        return Point(s * p.x + ox, s * p.y + oy)

    def __call__(self, p: Point) -> Point:
        return self.apply(p)

    def is_identity(self) -> bool:
        return self.scale == 1 and self.offset[0] == 0 and self.offset[1] == 0

    def __eq__(self, other):
        return (
            isinstance(other, PlaneMap)
            and self.scale == other.scale
            and self.offset[0] == other.offset[0]
            and self.offset[1] == other.offset[1]
        )

    def __hash__(self):
        return hash((self.scale, self.offset))


@dataclass(frozen=True, eq=False)
class Translation(PlaneMap):
    vector: Tuple[Scalar, Scalar]

    @property
    def scale(self) -> Scalar:  # type: ignore[override]
        return 1

    @property
    def offset(self) -> Tuple[Scalar, Scalar]:  # type: ignore[override]
        return self.vector

    def __repr__(self):
        return f"Translation({self.vector[0]}, {self.vector[1]})"


@dataclass(frozen=True, eq=False)
class Homothety(PlaneMap):
    """x |-> center + ratio*(x - center).

    Group elements carry ratio > 0; ratios from R \\ {0, 1} are tolerated so
    the conjugation and six-point identities can be exercised on the full
    range the algebra allows.
    """

    center: Point
    ratio: Scalar

    def __post_init__(self):
        if self.ratio == 0:
            raise DegenerateRatio("homothety ratio must be nonzero")
        if self.ratio == 1:
            raise ValueError("ratio 1 normalizes to a Translation; use homothety()")

    @property
    def scale(self) -> Scalar:  # type: ignore[override]
        return self.ratio

    @property
    def offset(self) -> Tuple[Scalar, Scalar]:  # type: ignore[override]
        r = self.ratio
        return ((1 - r) * self.center.x, (1 - r) * self.center.y)

    @property
    def positive(self) -> bool:
        return self.ratio > 0

    def __repr__(self):
        return f"Homothety(({self.center.x}, {self.center.y}), {self.ratio})"


IDENTITY = Translation((0, 0))


def homothety(center: Point, ratio: Scalar) -> PlaneMap:
    """Canonical constructor: ratio 1 collapses to the identity translation."""
    if ratio == 0:
        raise DegenerateRatio("homothety ratio must be nonzero")
    if ratio == 1:
        return IDENTITY
    return Homothety(center, ratio)


def translation(dx: Scalar, dy: Scalar) -> Translation:
    return Translation((dx, dy))


def _from_affine(s: Scalar, tx: Scalar, ty: Scalar) -> PlaneMap:
    if s == 1:
        return Translation((tx, ty))
    inv = Fraction(1, 1) / (1 - s) if is_exact(s) and is_exact(tx) and is_exact(ty) else 1.0 / (1 - s)
    return Homothety(Point(tx * inv, ty * inv), s)


def compose(g1: PlaneMap, g2: PlaneMap) -> PlaneMap:
    """g1 after g2 (apply g2 first)."""
    s1, (a1, b1) = g1.scale, g1.offset
    s2, (a2, b2) = g2.scale, g2.offset
    return _from_affine(s1 * s2, s1 * a2 + a1, s1 * b2 + b1)


def inverse(m: PlaneMap) -> PlaneMap:
    s, (a, b) = m.scale, m.offset
    if is_exact(s) and is_exact(a) and is_exact(b):
        si = Fraction(1, 1) / s
    else:
        si = 1.0 / s
    return _from_affine(si, -a * si, -b * si)


def conjugate_homothety(phi: PlaneMap, p0: Point, xi: Scalar) -> PlaneMap:
    """The map psi with phi o H(p0, xi) = psi o phi, namely H(phi(p0), xi)."""
    if xi == 0:
        raise DegenerateRatio("xi must be nonzero")
    return homothety(phi.apply(p0), xi)


def _hom(center: Point, ratio: Scalar, p: Point) -> Point:
    return Point(center.x + ratio * (p.x - center.x), center.y + ratio * (p.y - center.y))


def six_point_identity(e1: Point, p0: Point, x0: Point, lam: Scalar, xi: Scalar):
    """Chain the six homothety images and test the closing identity.

    Returns ((x1, x2, x3, x4, x5), verdict) where the verdict checks that the
    ratio-1/lam homothety centered at x1 sends x5 back to x0.
    """
    if lam == 0 or xi == 0:
        raise DegenerateRatio("lambda and xi must be nonzero")
    one = Fraction(1) if all(
        is_exact(v) for v in (e1.x, e1.y, p0.x, p0.y, x0.x, x0.y, lam, xi)
    ) else 1.0
    lam = lam * one
    xi = xi * one
    p1 = _hom(e1, lam, p0)
    x1 = _hom(p0, xi, x0)
    x2 = _hom(p1, one / xi, x1)
    x3 = _hom(e1, lam, x1)
    x4 = _hom(p1, one / xi, x3)
    x5 = _hom(x4, xi, x2)
    back = _hom(x1, one / lam, x5)
    if isinstance(one, Fraction):
        verdict = back.x == x0.x and back.y == x0.y
    else:
        scale = max(1.0, abs(float(x0.x)), abs(float(x0.y)))
        verdict = math.isclose(back.x, x0.x, abs_tol=1e-9 * scale) and math.isclose(
            back.y, x0.y, abs_tol=1e-9 * scale
        )
    return (x1, x2, x3, x4, x5), verdict
