"""Exact predicates, points, directions, and directed lines."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planeconvex.fixtures import SQRT3_50
from planeconvex.geom import (
    DEFAULT_TOL,
    DirectedLine,
    Direction,
    Point,
    Tolerance,
    _converts_exactly,
    dist,
    dist2,
    midpoint,
    orient2d,
    orient_filter,
    side_of_line,
    seg_point_dist,
)
from planeconvex.rng import SplitMix64
from tests.conftest import brute_force_orient2d, raw_orient2d

F = Fraction


def _typed(v: Fraction, kind: str):
    """v as an int, a Fraction or a float, where that type holds v exactly."""
    if kind == "int" and v.denominator == 1:
        return int(v)
    if kind == "float":
        try:
            if F(float(v)) == v:
                return float(v)
        except OverflowError:
            pass
    return v


@st.composite
def degenerate_triples(draw):
    """Three points near or on one line: a and b with random 50-bit
    coordinates and c on the line through them, rounded to floats (so the
    determinant is tiny and its float products round), or a repeated point,
    or three free points.  Then maybe one coordinate moves by one ulp, the
    whole is scaled by a power of two that reaches or passes the filter's
    range (2**-200 to 2**200) or by 1/3 or 1/97, or replaced by ints at and
    just past 2**53, and typed all int or Fraction, all float, or mixed
    coordinate by coordinate."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))

    def coord():
        return F(rng.randint(-(2**50), 2**50), rng.choice([1, 2**20, 2**50]))

    a, b = [coord(), coord()], [coord(), coord()]
    shape = draw(st.sampled_from(["line", "line", "line", "repeat", "free"]))
    if shape == "line":
        t = F(draw(st.integers(-64, 64)), 16)
        c = [F(float(a[0] + t * (b[0] - a[0]))), F(float(a[1] + t * (b[1] - a[1])))]
    elif shape == "repeat":
        c = list(draw(st.sampled_from([a, b])))
    else:
        c = [coord(), coord()]
    coords = a + b + c
    if draw(st.booleans()):
        k = draw(st.integers(0, 5))
        coords[k] = F(math.nextafter(float(coords[k]), draw(st.sampled_from([-math.inf, math.inf]))))
    scale = draw(st.sampled_from([F(1), F(1), F(1), F(2**150), F(1, 2**150), F(1, 2**230), F(1, 3), F(1, 97)]))
    coords = [v * scale for v in coords]
    if draw(st.integers(0, 5)) == 0:  # ints at and just past 2**53
        coords = [round(v) % 8 + 2**53 - 4 for v in coords]
    mode = draw(st.sampled_from(["exact", "float", "mixed"]))
    kinds = {"exact": ["int", "fraction"], "float": ["float"], "mixed": ["int", "fraction", "float"]}[mode]
    typed = [_typed(F(v), draw(st.sampled_from(kinds))) for v in coords]
    return Point(*typed[:2]), Point(*typed[2:4]), Point(*typed[4:])


class TestOrient2d:
    def test_left_turn(self):
        assert orient2d(Point(0, 0), Point(1, 0), Point(0, 1)) == 1

    def test_collinear(self):
        assert orient2d(Point(0, 0), Point(1, 1), Point(2, 2)) == 0

    def test_right_turn(self):
        assert orient2d(Point(0, 0), Point(1, 0), Point(0, -1)) == -1

    def test_exact_on_tiny_rational_perturbation(self):
        eps = F(1, 10**40)
        a, b = Point(F(0), F(0)), Point(F(1), F(0))
        assert orient2d(a, b, Point(F(2), eps)) == 1
        assert orient2d(a, b, Point(F(2), -eps)) == -1
        assert orient2d(a, b, Point(F(2), F(0))) == 0

    coords = st.fractions(
        min_value=-100, max_value=100, max_denominator=64
    )

    @given(coords, coords, coords, coords, coords, coords)
    def test_antisymmetry_and_cyclic_invariance(self, ax, ay, bx, by, cx, cy):
        a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
        s = orient2d(a, b, c)
        assert orient2d(b, c, a) == s
        assert orient2d(c, a, b) == s
        assert orient2d(a, c, b) == -s


class TestFilteredOrient2d:
    @settings(max_examples=150, deadline=None)
    @given(degenerate_triples())
    @example((Point(0, F(0)), Point(1.0, F(1)), Point(F(2), 2.0)))
    def test_matches_reference(self, abc):
        """Exact on exact input; on float input today's float determinant's
        sign; on mixed input the exact sign or that of today's expression.
        Wherever every coordinate converts exactly, a sign the filter
        decides is the exact one."""
        a, b, c = abc
        got = orient2d(a, b, c)
        values = [*a, *b, *c]
        if not any(isinstance(v, float) for v in values):
            assert got == brute_force_orient2d(a, b, c)
        if all(isinstance(v, float) for v in values):
            assert got == raw_orient2d(a, b, c)
        if got != brute_force_orient2d(a, b, c):
            assert got == raw_orient2d(a, b, c)
        if all(map(_converts_exactly, values)):
            s = orient_filter(*map(float, values))
            assert s is None or s == brute_force_orient2d(a, b, c)

    def test_float_rounding_to_zero_takes_the_exact_fallback(self):
        """(2**27 + 1)(2**27 - 1) - 2**27 * 2**27 is -1, but both products
        round to 2**54, so the filter must leave it to the exact expression."""
        a, b, c = Point(0, 0), Point(2**27 + 1, 2**27), Point(2**27, 2**27 - 1)
        floats = [float(v) for v in (*a, *b, *c)]
        assert orient_filter(*floats) is None
        assert raw_orient2d(*(Point(*floats[i : i + 2]) for i in (0, 2, 4))) == 0
        assert orient2d(a, b, c) == -1
        assert orient2d(Point(F(0), F(0)), Point(F(2**27 + 1), F(2**27)), Point(F(2**27), F(2**27 - 1))) == -1


class TestSideOfLine:
    def test_upper_halfplane(self):
        l = DirectedLine(Point(0, 0), Direction(1, 0))
        assert side_of_line(l, Point(0, 1)) == "left"

    def test_on_line(self):
        l = DirectedLine(Point(0, 0), Direction(1, 0))
        assert side_of_line(l, Point(5, 0)) == "on"

    def test_downward_line_left(self):
        l = DirectedLine(Point(0, 0), Direction(0, -1))
        assert side_of_line(l, Point(1, 0)) == "left"

    def test_exact_mode_zero_eps(self):
        l = DirectedLine(Point(F(0), F(0)), Direction(F(1), F(0)))
        tiny = Point(F(7), F(1, 10**30))
        assert side_of_line(l, tiny, Tolerance(0.0)) == "left"
        assert side_of_line(l, tiny, DEFAULT_TOL) == "on"


class TestDistances:
    def test_3_4_5(self):
        assert dist(Point(0, 0), Point(3, 4)) == 5.0

    def test_identical(self):
        assert dist(Point(1, 1), Point(1, 1)) == 0.0

    def test_equilateral_side(self):
        # side of the triangle with vertices (6,0), (-3, 3*sqrt3)
        d = dist(Point(6, 0), Point(-3, 3 * SQRT3_50))
        assert abs(d - 6 * math.sqrt(3)) < 1e-12

    def test_dist2_exact_rational(self):
        assert dist2(Point(F(0), F(0)), Point(F(1, 3), F(1, 7))) == F(1, 9) + F(1, 49)

    def test_seg_point_dist(self):
        assert seg_point_dist(Point(0, 0), Point(2, 0), Point(1, 3)) == 3.0
        assert seg_point_dist(Point(0, 0), Point(2, 0), Point(5, 0)) == 3.0

    coords = st.fractions(min_value=-50, max_value=50, max_denominator=32)

    @given(coords, coords, coords, coords)
    def test_dist2_symmetric_nonnegative(self, ax, ay, bx, by):
        p, q = Point(ax, ay), Point(bx, by)
        assert dist2(p, q) == dist2(q, p)
        assert dist2(p, q) >= 0
        assert (dist2(p, q) == 0) == (p == q)


class TestDirection:
    def test_normals(self):
        d = Direction(1, 0)
        assert d.left_normal() == Direction(0, 1)
        assert d.right_normal() == Direction(0, -1)
        assert d.reversed() == Direction(-1, 0)

    def test_same_as_ignores_magnitude(self):
        assert Direction(2, 4).same_as(Direction(1, 2))
        assert not Direction(2, 4).same_as(Direction(-1, -2))

    def test_unit(self):
        ux, uy = Direction(3, 4).unit()
        assert abs(ux - 0.6) < 1e-15 and abs(uy - 0.8) < 1e-15


class TestDirectedLine:
    def test_param_point_roundtrip(self):
        l = DirectedLine(Point(1, 1), Direction(3, 4))
        p = l.point_at(2.5)
        assert abs(l.param_of(p) - 2.5) < 1e-12

    def test_signed_offset_sign(self):
        l = DirectedLine(Point(0, 0), Direction(1, 0))
        assert l.signed_offset(Point(0, 2)) > 0
        assert l.signed_offset(Point(0, -2)) < 0


class TestPointAlgebra:
    def test_add_sub_scale(self):
        p = Point(F(1), F(2)) + Point(F(3), F(4))
        assert p == Point(F(4), F(6))
        assert p - Point(F(4), F(6)) == Point(F(0), F(0))
        assert Point(F(1), F(2)).scaled(F(1, 2)) == Point(F(1, 2), F(1))

    def test_exact_flag(self):
        assert Point(F(1), F(2)).exact
        assert Point(1, 2).exact
        assert not Point(1.0, 2).exact

    def test_midpoint_exact(self):
        assert midpoint(Point(F(0), F(0)), Point(F(1), F(1))) == Point(F(1, 2), F(1, 2))


class TestTolerance:
    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(-1e-9)

    def test_zero_eps_allowed(self):
        assert Tolerance(0.0).eps == 0.0
