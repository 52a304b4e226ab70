"""Convex bodies: hulls, membership, inclusion, support machinery, chords."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from planeconvex import bodies, serial
from planeconvex.bodies import (
    _circle_pair_points,
    _converts_exactly,
    _di_boundary,
    _DiskFloats,
    _disks_feasible_point,
    _edge_margin,
    _least_violation,
    Disk,
    DiskIntersection,
    HullOfUnion,
    Polygon,
    Triangle,
    abundance,
    boundary_samples,
    chord_interval,
    contains_point,
    convex_hull,
    dist_to_body,
    farthest_dist,
    hull_of_union,
    includes,
    interior_point,
    is_edge_free,
    line_boundary_intersections,
    loosely_includes,
    nearest_point,
    open_extension,
    point_margins,
    polygonize,
    separating_support_line,
    support_grid,
    support_margin,
    support_point,
    support_value,
    supporting_line,
    tangents_from_external_point,
    transform_body,
    unit_directions,
)
from planeconvex.errors import (
    BadRadius,
    DegenerateNucleus,
    EmptyInput,
    NotExternal,
    NotSeparable,
    PreconditionViolated,
)
from planeconvex.fixtures import SQRT3_50, equilateral_triangle
from planeconvex.geom import DirectedLine, Direction, Point, Tolerance, cross, dist
from planeconvex.harness import _approx_bodies, _incircle, _random_triangle, generate_instance
from planeconvex.rng import SplitMix64, trial_seed
from planeconvex.theorem import rational_disk_enumeration
from planeconvex.transforms import Translation, homothety
from tests.conftest import (
    brute_force_convex_hull,
    brute_force_di_boundary,
    brute_force_feasible_point,
    brute_force_pair_points,
    brute_force_polygon_contains,
    dense_directions,
    random_disk_intersection,
    rational_point,
)

F = Fraction
EXACT = Tolerance(0.0)


def square(a=0, b=2) -> Polygon:
    return Polygon((Point(a, a), Point(b, a), Point(b, b), Point(a, b)))


class TestConstruction:
    def test_triangle_auto_ccw(self):
        t = Triangle(Point(F(0), F(0)), Point(F(0), F(1)), Point(F(1), F(0)))
        a, b, c = t.points
        from planeconvex.geom import orient2d

        assert orient2d(a, b, c) == 1

    def test_triangle_collinear_rejected(self):
        with pytest.raises(PreconditionViolated):
            Triangle(Point(0, 0), Point(1, 1), Point(2, 2))

    def test_disk_negative_radius_rejected(self):
        with pytest.raises(Exception):
            Disk(Point(0, 0), -1)

    def test_empty_disk_intersection_rejected(self):
        with pytest.raises(EmptyInput):
            DiskIntersection((Disk(Point(0, 0), 1), Disk(Point(5, 0), 1)))


class TestConvexHull:
    def test_already_convex(self):
        h = convex_hull([Point(F(0), F(0)), Point(F(1), F(0)), Point(F(0), F(1))])
        assert set(h.vertices) == {Point(F(0), F(0)), Point(F(1), F(0)), Point(F(0), F(1))}

    def test_collinear_point_absorbed(self):
        h = convex_hull(
            [Point(F(0), F(0)), Point(F(2), F(0)), Point(F(1), F(0)), Point(F(1), F(1))]
        )
        assert set(h.vertices) == {Point(F(0), F(0)), Point(F(2), F(0)), Point(F(1), F(1))}

    def test_singleton(self):
        h = convex_hull([Point(5, 5)])
        assert h.vertices == (Point(5, 5),)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            convex_hull([])

    @settings(max_examples=60)
    @given(st.lists(st.tuples(
        st.fractions(min_value=-20, max_value=20, max_denominator=16),
        st.fractions(min_value=-20, max_value=20, max_denominator=16),
    ), min_size=1, max_size=10))
    def test_idempotent_and_contains_inputs(self, coords):
        pts = [Point(x, y) for x, y in coords]
        h = convex_hull(pts)
        assert convex_hull(list(h.vertices)).vertices == h.vertices
        for p in pts:
            assert contains_point(h, p, "closed", EXACT)


@st.composite
def hull_inputs(draw):
    """1-8 points, free or on one line, some repeated with another type
    (1, Fraction(1), 1.0), typed all int and Fraction (dyadic, or with
    1/3 and 1/97), all float (maybe one ulp off a grid), or mixed on a grid
    of sixteenths, where no arithmetic rounds."""
    mode = draw(st.sampled_from(["exact", "nondyadic", "float", "mixed"]))
    grid = st.builds(F, st.integers(-64, 64), st.just(16))
    if mode == "nondyadic":
        grid = st.builds(F, st.integers(-64, 64), st.sampled_from([16, 3, 97]))
    if draw(st.booleans()):
        a = (draw(grid), draw(grid))
        d = (draw(grid), draw(grid))
        vals = [(a[0] + t * d[0], a[1] + t * d[1]) for t in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))]
    else:
        vals = draw(st.lists(st.tuples(grid, grid), min_size=1, max_size=8))
    vals += draw(st.lists(st.sampled_from(vals), max_size=3))
    kinds = {"exact": [int, F], "nondyadic": [int, F], "float": [float], "mixed": [int, F, float]}[mode]

    def typed(v):
        kind = draw(st.sampled_from(kinds))
        if kind is float and mode == "float" and draw(st.integers(0, 9)) == 0:
            return math.nextafter(float(v), draw(st.sampled_from([-1.0, 1.0])))
        if kind is float and F(float(v)) == v or kind is int and v.denominator == 1:
            return kind(v)
        return v

    return [Point(typed(x), typed(y)) for x, y in vals]


class TestFilteredConvexHull:
    @settings(max_examples=120, deadline=None)
    @given(hull_inputs())
    @example([Point(1, 1), Point(F(1), F(1)), Point(1.0, 1.0)])
    @example([Point(1.0, 0), Point(0, 0), Point(1, 0.0), Point(F(1, 2), 0)])
    def test_matches_reference(self, pts):
        got = convex_hull(pts)
        ref = brute_force_convex_hull(pts)
        assert got.vertices == ref.vertices
        assert [type(v) for p in got.vertices for v in p] == [type(v) for p in ref.vertices for v in p]
        fresh = Polygon(got.vertices).floats()
        assert (got.floats().edges, got.floats().dyadic) == (fresh.edges, fresh.dyadic)

    def test_float_rounding_to_zero_takes_the_exact_fallback(self, monkeypatch):
        """Both products of the turn at (2**27, 2**27 - 1) round to 2**54:
        the float chain would see three collinear points."""
        calls = []
        exact = bodies.orient2d

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(bodies, "orient2d", counted)
        pts = [Point(0, 0), Point(2**27 + 1, 2**27), Point(2**27, 2**27 - 1)]
        assert convex_hull(pts).vertices == (pts[0], pts[2], pts[1])
        assert len(calls) >= 1
        calls.clear()
        assert len(convex_hull([Point(F(1, 2), 0), Point(3, 1), Point(0, 2)]).vertices) == 3
        assert calls == []


class TestHullOfUnion:
    def test_empty_extra_is_same_body(self):
        d = Disk(Point(0, 0), 1)
        assert hull_of_union(d, []) is d

    def test_two_point_segment(self):
        h = hull_of_union(Polygon((Point(F(0), F(0)),)), [Point(F(1), F(0))])
        assert isinstance(h, Polygon)
        assert set(h.vertices) == {Point(F(0), F(0)), Point(F(1), F(0))}

    def test_comet_shaped_hull_membership(self):
        h = hull_of_union(Disk(Point(0.0, 0.0), 1.0), [Point(3.0, 0.0)])
        y = 2 * math.sqrt(2) / 3  # tangent from (3,0) touches at (1/3, 2*sqrt2/3)
        assert contains_point(h, Point(1 / 3, y - 1e-6))
        assert not contains_point(h, Point(1 / 3, y + 1e-3))

    def test_support_is_max_of_parts(self):
        d = Disk(Point(0.0, 0.0), 1.0)
        extra = [Point(3.0, 0.0), Point(0.0, -4.0)]
        h = hull_of_union(d, extra)
        for k in range(16):
            a = 2 * math.pi * k / 16
            nx, ny = math.cos(a), math.sin(a)
            expect = max(
                support_value(d, nx, ny), *(float(p.x) * nx + float(p.y) * ny for p in extra)
            )
            assert abs(support_value(h, nx, ny) - expect) < 1e-9


class TestContainsPoint:
    def test_disk_center_strict(self):
        assert contains_point(Disk(Point(0, 0), 1), Point(0, 0), "strict")

    def test_triangle_boundary_closed_vs_strict(self):
        t = Polygon((Point(F(0), F(0)), Point(F(1), F(0)), Point(F(0), F(1))))
        mid = Point(F(1, 2), F(1, 2))
        assert contains_point(t, mid, "closed", EXACT)
        assert not contains_point(t, mid, "strict", EXACT)

    def test_lens_interior(self):
        di = DiskIntersection((Disk(Point(0, 0), 2), Disk(Point(2, 0), 2)))
        assert contains_point(di, Point(1, 0), "strict")


# Polygon coordinates of every kind the filtered containment test meets:
# ints, the generator's dyadic Fractions and floats, which convert to float
# exactly, and non-dyadic Fractions, which do not.
DYADIC_COORD = st.one_of(
    st.integers(-12, 12),
    st.builds(F, st.integers(-3072, 3072), st.sampled_from([16, 256])),
    st.floats(-12, 12, allow_nan=False, allow_subnormal=False),
)
MIXED_COORD = st.one_of(DYADIC_COORD, st.builds(F, st.integers(-1200, 1200), st.sampled_from([3, 97])))


def _reference_offset(a: Point, b: Point, p: Point) -> float:
    """The offset ``brute_force_polygon_contains`` compares against eps."""
    return float(cross(b - a, p - a)) / max(dist(a, b), 1e-300)


def _threshold_points(a: Point, b: Point, thr: float, exact: bool):
    """Points where the reference offset from edge a -> b crosses thr: from
    near the edge's midpoint at offset thr, a walk one ulp at a time along
    the coordinate that moves the offset most, to the first pair of
    neighbours on either side of thr, plus one more ulp each way.  The
    coordinates are floats, or with ``exact`` the same values as Fractions,
    whose cross product the reference forms exactly."""
    ax, ay, bx, by = float(a.x), float(a.y), float(b.x), float(b.y)
    length = math.hypot(bx - ax, by - ay)
    if length == 0.0:
        return []
    nl = (-(by - ay) / length, (bx - ax) / length)
    p = [(ax + bx) / 2 + thr * nl[0], (ay + by) / 2 + thr * nl[1]]
    k = 0 if abs(nl[0]) > abs(nl[1]) else 1

    def at(q):
        return Point(F(q[0]), F(q[1])) if exact else Point(q[0], q[1])

    below = _reference_offset(a, b, at(p)) < thr
    toward = math.inf if (nl[k] > 0) == below else -math.inf
    for _ in range(200):
        q = list(p)
        q[k] = math.nextafter(p[k], toward)
        if (_reference_offset(a, b, at(q)) < thr) != below:
            before, after = list(p), list(q)
            before[k] = math.nextafter(p[k], -toward)
            after[k] = math.nextafter(q[k], toward)
            return [at(before), at(p), at(q), at(after)]
        p = q
    return [at(p)]


@st.composite
def polygons_and_points(draw):
    """A convex polygon of 3-5 drawn vertices, optionally shifted by an int
    near 2**52 (or just below 2**53, where ints stop converting exactly),
    and test points: free ones, points on an edge, and points around
    offsets +-1e-9 and +-1e-6 from an edge."""
    base = draw(st.sampled_from([0, 0, 0, 0, 2**52, -(2**52), 2**53 - 8]))
    coord = draw(st.sampled_from([DYADIC_COORD, DYADIC_COORD, MIXED_COORD])).map(lambda c: base + c)
    poly = convex_hull([Point(draw(coord), draw(coord)) for _ in range(draw(st.integers(3, 5)))])
    assume(len(poly.vertices) >= 3)
    vs = poly.vertices
    pts = [Point(draw(coord), draw(coord)) for _ in range(3)]
    i = draw(st.integers(0, len(vs) - 1))
    a, b = vs[i], vs[(i + 1) % len(vs)]
    pts += [a + (b - a).scaled(F(k, 4)) for k in range(5)]
    for thr in (-1e-9, 1e-9, -1e-6, 1e-6):
        pts += _threshold_points(a, b, thr, draw(st.booleans()))
    return poly, pts


class TestFilteredPolygonContains:
    @settings(max_examples=200, deadline=None)
    @given(polygons_and_points())
    def test_matches_reference(self, case):
        poly, pts = case
        for p in pts:
            for mode in ("closed", "strict"):
                for eps in (1e-9, 1e-6):
                    got = contains_point(poly, p, mode, Tolerance(eps))
                    assert got == brute_force_polygon_contains(poly, p, mode, eps), (p, mode, eps)

    def test_offset_at_minus_eps_takes_the_fallback(self, monkeypatch):
        """(1, -1e-9) lies exactly 1e-9 outside the edge y = 0: the float
        offset cannot decide it, so the Fraction path must."""
        calls = []
        exact_offset = bodies._cross_offset

        def counted(*args):
            calls.append(args)
            return exact_offset(*args)

        monkeypatch.setattr(bodies, "_cross_offset", counted)
        tri = Polygon((Point(F(0), F(0)), Point(F(4), F(0)), Point(F(0), F(4))))
        tol = Tolerance(1e-9)
        y = -1e-9
        assert contains_point(tri, Point(F(1), y), "closed", tol)
        assert len(calls) == 1
        assert not contains_point(tri, Point(F(1), math.nextafter(y, -1.0)), "closed", tol)
        assert contains_point(tri, Point(F(1), math.nextafter(y, 1.0)), "closed", tol)
        assert not contains_point(tri, Point(F(1), -y), "strict", tol)
        assert contains_point(tri, Point(F(1), math.nextafter(-y, 1.0)), "strict", tol)
        calls.clear()
        assert contains_point(tri, Point(F(1, 2), F(1, 2)), "closed", tol)
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(polygons_and_points(), st.integers(1, 4), st.sampled_from([1e-9, 1e-6]))
    def test_polygon_in_polygon_matches_per_vertex_form(self, case, k, eps):
        poly, pts = case
        tol = Tolerance(eps)
        for body in (convex_hull(pts[:k]), convex_hull(pts[-k:]), Polygon((pts[k],))):
            want = all(brute_force_polygon_contains(poly, v, "closed", eps) for v in body.vertices)
            assert includes(poly, body, tol) == want
            assert all(contains_point(poly, v, "closed", tol) for v in body.vertices) == want

    def test_exact_conversion_rule(self):
        assert all(_converts_exactly(x) for x in (0, -(2**53) + 1, F(-3, 256), F(2**53 - 1, 2**200), 0.1, -0.0))
        assert not any(_converts_exactly(x) for x in (2**53, F(1, 3), F(2**53 + 1, 16), F(1, 2**201), 1e-300, 1e300))


class TestEdgeMargin:
    @staticmethod
    def triangle_and_body(rng):
        """A generator triangle, and a disk or a disk intersection near its
        incircle that it may or may not hold."""
        tri = _random_triangle(rng)
        inc, r_in = _incircle(tri)
        cx = inc.x + (rng.random() - 0.5) * r_in
        cy = inc.y + (rng.random() - 0.5) * r_in
        size = r_in * (0.3 + 0.9 * rng.random())
        if rng.randint(0, 1):
            return tri.as_polygon(), Disk(Point(cx, cy), size)
        disks = tuple(
            # each disk holds (cx, cy), so the intersection is not empty
            Disk(Point(cx + (rng.random() - 0.5) * size, cy + (rng.random() - 0.5) * size), size * (0.8 + 0.4 * rng.random()))
            for _ in range(rng.randint(2, 3))
        )
        return tri.as_polygon(), DiskIntersection(disks)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_dense_directions(self, seed):
        tri, body = self.triangle_and_body(SplitMix64(seed))
        V = bodies._pieces(tri).array
        # The triangle's support function has its kinks at the edge normals;
        # elsewhere the difference is smooth and the dense grid is within
        # about 4e-7 of its minimum.
        normals = unit_directions(np.roll(V, -1, axis=0) - V) @ np.array([[0.0, -1.0], [1.0, 0.0]])
        dirs = np.concatenate([dense_directions()[0], normals])
        ref = float((support_grid(tri, dirs) - support_grid(body, dirs)).min())
        m = _edge_margin(tri, body)
        if ref >= 0:
            assert abs(m - ref) <= 1e-6
        else:  # not included: the edge rule is looser, but still negative
            assert ref - 1e-6 <= m < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([1e-9, 1e-6]))
    def test_verdict_matches_grid_margin(self, seed, eps):
        tri, body = self.triangle_and_body(SplitMix64(seed))
        grid = support_margin(tri, body)
        assume(abs(grid) > 0.02)
        assert includes(tri, body, Tolerance(eps)) == (grid >= -eps)

    def test_sweep_trial_694(self, monkeypatch):
        """The image body of trial 694 of test 01's sweep lies in the triangle
        with margin 0.86488, where the grid search read 0.87902; neither
        precondition check needs the grid."""
        inst = generate_instance("theorem-sweep", trial_seed(20260823, 694))
        tri = serial.triangle_from_json(inst["triangle"]).as_polygon()
        u0 = serial.body_from_json(inst["body0"])
        u1 = transform_body(serial.map_from_json(inst["map"]), u0)
        assert isinstance(u1, DiskIntersection)
        assert _edge_margin(tri, u1) == pytest.approx(0.8648824, abs=1e-6)

        def no_grid(*args):
            raise AssertionError("support_margin called")

        monkeypatch.setattr(bodies, "support_margin", no_grid)
        assert includes(tri, u0) and includes(tri, u1)

    def test_polygon_of_one_repeated_point(self):
        p = Point(F(1), F(1))
        assert not includes(Polygon((p, p, p)), Disk(p, F(1)))


class TestIncludes:
    def test_internally_tangent_disks(self):
        assert includes(Disk(Point(F(0), F(0)), F(2)), Disk(Point(F(1), F(0)), F(1)))

    def test_incircle_in_equilateral_triangle(self):
        tri = equilateral_triangle().as_polygon()
        assert includes(tri, Disk(Point(F(0), F(0)), F(3)))

    def test_overlapping_disks_not_included(self):
        a = Disk(Point(F(0), F(0)), F(1))
        b = Disk(Point(F(1), F(0)), F(1))
        assert not includes(a, b)
        assert contains_point(b, Point(F(2), F(0)), "closed", EXACT)
        assert not contains_point(a, Point(F(2), F(0)), "closed", EXACT)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32))
    def test_transitive_with_hulls(self, seed):
        rng = SplitMix64(seed)
        pts = [rational_point(rng, -5, 5) for _ in range(6)]
        inner = convex_hull(pts[:3])
        outer = convex_hull(pts)
        assert includes(outer, inner, EXACT)


class TestSupportingLines:
    def test_disk_horizontal(self):
        psl = supporting_line(Disk(Point(0, 0), 1), Direction(1, 0))
        assert abs(float(psl.support.x)) < 1e-12
        assert abs(float(psl.support.y) + 1) < 1e-12

    def test_square_vertical_canonical_support(self):
        psl = supporting_line(square(), Direction(0, 1))
        assert psl.support == Point(2, 0)

    def test_singleton(self):
        psl = supporting_line(Polygon((Point(3, 3),)), Direction(1, 1))
        assert psl.support == Point(3, 3)


class TestSeparatingSupportLine:
    def test_disk_from_external_point(self):
        psl = separating_support_line(Disk(Point(0, 0), 1), Point(3, 0))
        assert abs(float(psl.support.x) - 1) < 1e-9
        assert abs(float(psl.support.y)) < 1e-9

    def test_singleton_canonical(self):
        psl = separating_support_line(Polygon((Point(0, 0),)), Point(0, 5))
        assert psl.support == Point(0, 0)
        assert psl.line.d == Direction(-1, 0)

    def test_interior_point_not_separable(self):
        with pytest.raises(NotSeparable):
            separating_support_line(Disk(Point(0, 0), 1), Point(0, 0))


class TestTangentsFromExternalPoint:
    def test_far_focus(self):
        r, l = tangents_from_external_point(Disk(Point(0, 0), 1), Point(3, 0))
        y = 2 * math.sqrt(2) / 3
        assert abs(float(r.support.x) - 1 / 3) < 1e-9
        assert abs(float(l.support.x) - 1 / 3) < 1e-9
        assert abs(abs(float(r.support.y)) - y) < 1e-9
        assert abs(abs(float(l.support.y)) - y) < 1e-9
        # right tangent (as seen from the focus) comes first
        assert float(r.support.y) > 0 > float(l.support.y)

    def test_near_focus(self):
        r, l = tangents_from_external_point(Disk(Point(0, 0), 1), Point(2, 0))
        assert abs(float(r.support.x) - 0.5) < 1e-9
        assert abs(abs(float(r.support.y)) - math.sqrt(3) / 2) < 1e-9

    def test_interior_focus_rejected(self):
        with pytest.raises(NotExternal):
            tangents_from_external_point(Disk(Point(0, 0), 1), Point(0.5, 0))

    def test_singleton_rejected(self):
        with pytest.raises(DegenerateNucleus):
            tangents_from_external_point(Polygon((Point(0, 0),)), Point(1, 0))


class TestLineBoundaryIntersections:
    def test_diameter_chord(self):
        hits = line_boundary_intersections(
            Disk(Point(0, 0), 1), DirectedLine(Point(-5, 0), Direction(1, 0))
        )
        assert not hits.segment
        got = sorted((round(float(p.x), 9), round(float(p.y), 9)) for p in hits.points)
        assert got == [(-1.0, 0.0), (1.0, 0.0)]

    def test_tangent_line_single_point(self):
        hits = line_boundary_intersections(
            Disk(Point(0, 0), 1), DirectedLine(Point(-5, 1), Direction(1, 0))
        )
        assert not hits.segment
        assert len(hits.points) == 1
        assert abs(float(hits.points[0].y) - 1) < 1e-9

    def test_square_edge_segment(self):
        hits = line_boundary_intersections(
            square(), DirectedLine(Point(-5, 0), Direction(1, 0))
        )
        assert hits.segment
        got = sorted((round(float(p.x), 9), round(float(p.y), 9)) for p in hits.points)
        assert got == [(0.0, 0.0), (2.0, 0.0)]

    def test_secant_through_lens(self):
        di = DiskIntersection((Disk(Point(0, 0), 2), Disk(Point(3, 0), 2)))
        hits = line_boundary_intersections(di, DirectedLine(Point(1.5, -5), Direction(0, 1)))
        assert not hits.segment
        assert len(hits.points) == 2


class TestIsEdgeFree:
    def test_disk(self):
        assert is_edge_free(Disk(Point(1, 1), 2))

    def test_square(self):
        assert not is_edge_free(square())

    def test_lens(self):
        assert is_edge_free(DiskIntersection((Disk(Point(0, 0), 2), Disk(Point(3, 0), 2))))

    def test_singleton(self):
        assert is_edge_free(Polygon((Point(0, 0),)))


class TestOpenExtension:
    def test_disk_dilation(self):
        oe = open_extension(Disk(Point(0, 0), 1), 0.5)
        assert oe.contains(Point(1.49, 0))
        assert not oe.contains(Point(1.5, 0))

    def test_singleton(self):
        oe = open_extension(Polygon((Point(0, 0),)), 1)
        assert oe.contains(Point(0.99, 0))
        assert not oe.contains(Point(1, 0))

    def test_square_corner_metric(self):
        oe = open_extension(square(), 0.1)
        assert oe.contains(Point(2.05, 1))
        assert not oe.contains(Point(2.1, 1))
        assert not oe.contains(Point(2.08, 2.08))  # corner distance ~0.113 > 0.1

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(BadRadius):
            open_extension(Disk(Point(0, 0), 1), 0)


class TestAbundance:
    def test_concentric_disks(self):
        assert abs(abundance(Disk(Point(0, 0), 1), Disk(Point(0, 0), 2)) - 1) < 1e-9

    def test_equal_bodies(self):
        d = Disk(Point(0, 0), 1)
        assert abs(abundance(d, d)) < 1e-9

    def test_disk_in_square(self):
        v = square(-2, 2)
        a = abundance(Disk(Point(0, 0), 1), v)
        assert abs(a - (2 * math.sqrt(2) - 1)) < 1e-6

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            abundance(Disk(Point(0, 0), 2), Disk(Point(0, 0), 1))

    @staticmethod
    def random_pair(rng):
        """u, and a curved v holding it: a disk, a disk intersection, or
        either with extra hull points."""
        kind = rng.randint(0, 2)
        if kind == 0:
            u = convex_hull([rational_point(rng, -3, 3, 4) for _ in range(3)])
        elif kind == 1:
            u = Disk(rational_point(rng, -3, 3, 4), F(rng.randint(1, 8), 4))
        else:
            u = random_disk_intersection(rng)
        disks = []
        for _ in range(rng.randint(1, 3)):
            c = rational_point(rng, -4, 4, 4)
            disks.append(Disk(c, farthest_dist(u, c) + rng.randint(1, 8) / 8))
        v = disks[0] if len(disks) == 1 else DiskIntersection(tuple(disks))
        if rng.randint(0, 1):
            v = HullOfUnion(v, tuple(rational_point(rng, -8, 8, 4) for _ in range(rng.randint(1, 2))))
        return u, v

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_agrees_with_dense_directions(self, seed):
        u, v = self.random_pair(SplitMix64(seed))
        dirs, step = dense_directions()
        hu, hv = support_grid(u, dirs), support_grid(v, dirs)
        dense = max(0.0, float((hv - hu).max()))
        # h_v - h_u changes with the angle no faster than the sum of the
        # bodies' largest distances from the origin
        bound = (np.abs(hu).max() + np.abs(hv).max()) * step
        a = abundance(u, v)
        assert dense - 1e-12 <= a <= dense + bound


# Rational directions (a, b)/c on the unit circle, for exact distances.
PYTHAGOREAN = ((3, 4, 5), (4, 3, 5), (5, 12, 13), (8, 15, 17), (0, 1, 1), (1, 0, 1))


@st.composite
def disk_sets(draw, min_size: int = 1, max_size: int = 8):
    """Rational disk sets in which each disk after the first may be forced
    into a relation with an earlier one: concentric, internally or externally
    tangent, a zero-radius disk on its circle or at its centre, or disjoint
    from it (an empty intersection)."""
    den = draw(st.sampled_from([1, 2, 4, 8, 3]))
    length = st.integers(0, 8 * den).map(lambda k: F(k, den))
    coord = st.integers(-6 * den, 6 * den).map(lambda k: F(k, den))
    disks = [Disk(Point(draw(coord), draw(coord)), draw(length))]
    for _ in range(draw(st.integers(min_size, max_size)) - 1):
        kind = draw(st.sampled_from(["free", "concentric", "internal", "external", "zero", "far"]))
        base = draw(st.sampled_from(disks))
        a, b, c = draw(st.sampled_from(PYTHAGOREAN))
        a, b = a * draw(st.sampled_from([1, -1])), b * draw(st.sampled_from([1, -1]))
        r = draw(length)
        if kind == "free":
            disks.append(Disk(Point(draw(coord), draw(coord)), r))
            continue
        if kind == "zero":
            gap, r = draw(st.sampled_from([F(0), base.radius])), F(0)
        else:
            gap = {
                "concentric": F(0),
                "internal": abs(base.radius - r),
                "external": base.radius + r,
                "far": base.radius + r + F(1, den),
            }[kind]
        disks.append(Disk(Point(base.center.x + a * gap / c, base.center.y + b * gap / c), r))
    return disks


def _bits(p):
    return None if p is None else (float(p.x).hex(), float(p.y).hex())


def _boundary_bits(arcs, corners):
    return (
        [(i, [(s.hex(), e.hex()) for s, e in ivs]) for i, ivs in arcs],
        [_bits(p) for p in corners],
    )


def _approx_pool():
    """The bodies of the benchmark's approx workload: test 05's square and
    triangle, and the triangles of the trial seeds 1 and 2 of seed 0."""
    return [u for _, u in _approx_bodies(0)] + [_approx_bodies(trial_seed(0, i))[1][1] for i in (1, 2)]


class TestDiskIntersectionInternals:
    @settings(max_examples=300, deadline=None)
    @given(disk_sets())
    def test_feasible_point_matches_full_matrix(self, disks):
        got = _disks_feasible_point(_DiskFloats(disks))
        assert _bits(got) == _bits(brute_force_feasible_point(disks))

    def test_feasible_point_takes_the_first_of_tied_candidates(self):
        # The circles cross at (3, 4) and (3, -4), both exactly on both
        # circles; the first-listed point wins the tie.
        disks = [Disk(Point(0, 0), 5), Disk(Point(6, 0), 5)]
        assert _disks_feasible_point(_DiskFloats(disks)) == Point(3.0, 4.0)
        assert brute_force_feasible_point(disks) == Point(3.0, 4.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(9, 40))
    def test_feasible_point_matches_full_matrix_beyond_one_block(self, seed, n):
        # Disks through or around a common rational point: nonempty sets large
        # enough for the block-wise pruning, some with the point on a circle.
        rng = SplitMix64(seed)
        p = rational_point(rng, -4, 4, 4)
        disks = []
        for _ in range(n):
            a, b, c = rng.choice(PYTHAGOREAN)
            length = F(rng.randint(0, 32), 4)
            center = Point(p.x + rng.choice([1, -1]) * a * length / c, p.y + rng.choice([1, -1]) * b * length / c)
            disks.append(Disk(center, length + F(rng.randint(0, 3), 8)))
        got = _disks_feasible_point(_DiskFloats(disks))
        assert got is not None
        assert _bits(got) == _bits(brute_force_feasible_point(disks))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 40))
    def test_least_violation_matches_full_matrix(self, seed, n):
        # A coarse grid makes many rows tie, so the first-row rule is tested.
        rng = np.random.default_rng(seed)
        C = rng.integers(-8, 9, (n, 2)) / 2
        R = rng.integers(0, 12, n) / 2
        P = rng.integers(-8, 9, (4 * n + 3, 2)) / 2
        full = (np.hypot(P[:, None, 0] - C[None, :, 0], P[:, None, 1] - C[None, :, 1]) - R).max(axis=1)
        k = int(np.argmin(full))
        v, p = _least_violation(P, C, R)
        assert v == full[k]
        assert p.tolist() == P[k].tolist()

    @settings(max_examples=300, deadline=None)
    @given(disk_sets(max_size=20))
    def test_pair_points_match_scalar_list(self, disks):
        # Both branches: Python floats up to one block of disks, arrays beyond.
        got = [tuple(map(float.hex, p)) for p in _circle_pair_points(_DiskFloats(disks)).tolist()]
        assert got == [tuple(map(float.hex, p)) for p in brute_force_pair_points(disks)]

    @settings(max_examples=400, deadline=None)
    @given(disk_sets(max_size=40))
    # Circle 0's arc runs past angle 0 and is split there.
    @example([Disk(Point(F(0), F(0)), F(1)), Disk(Point(F(2), F(0)), F(3, 2))])
    # Past one block: nearly equal, nearly concentric circles that the
    # 1e-12 tangency allowance keeps whole, and a circle inside a disk it
    # touches, where t rounds just above -1 and leaves a gap of 4e-8.
    @example([Disk(Point(F(0), F(0)), 1 + F(1, 2**44)), Disk(Point(F(1, 2**46), F(0)), F(1))]
             + [Disk(Point(F(k, 8), F(0)), F(3)) for k in range(8)])
    @example([Disk(Point(F(0), F(0)), F(1)), Disk(Point(F(1, 3), F(0)), F(4, 3))]
             + [Disk(Point(F(k, 8), F(0)), F(3)) for k in range(8)])
    def test_boundary_matches_reference(self, disks):
        got = _di_boundary(_DiskFloats(disks))
        assert _boundary_bits(got.arcs, got.corners) == _boundary_bits(*brute_force_di_boundary(disks))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.integers(9, 200))
    def test_boundary_and_feasible_point_match_reference_on_enumerated_disks(self, seed, n):
        # Nonempty sets past one block: the array filter of the boundary, and
        # the feasible-point search led by the boundary's disks.
        disks = tuple(rational_disk_enumeration(_approx_bodies(seed)[1][1], n))
        di = DiskIntersection(disks)
        b = di.boundary()
        assert _boundary_bits(b.arcs, b.corners) == _boundary_bits(*brute_force_di_boundary(disks))
        assert _bits(di._feasible) == _bits(brute_force_feasible_point(disks))

    def test_feasible_point_matches_reference_on_approx_pool(self):
        for u in _approx_pool():
            for n in (1, 2, 5, 10, 20, 50, 100, 150, 200):
                disks = tuple(rational_disk_enumeration(u, n))
                assert _bits(DiskIntersection(disks)._feasible) == _bits(brute_force_feasible_point(disks)), n

    @settings(max_examples=300, deadline=None)
    @given(disk_sets())
    # A zero-radius disk on the other circle, off the float grid: acos of a t
    # rounded just below 1 once left a sliver arc with corners 1.2e-7 away.
    @example([Disk(Point(F(0), F(-8, 3)), F(17, 3)), Disk(Point(F(85, 39), F(-308, 39)), F(0))])
    # Circle 0's arc runs past angle 0; the split point (1, 0) is no corner.
    @example([Disk(Point(F(0), F(0)), F(1)), Disk(Point(F(2), F(0)), F(3, 2))])
    def test_boundary_corners_and_arcs_lie_on_the_body(self, disks):
        try:
            di = DiskIntersection(tuple(disks))
        except EmptyInput:
            assume(False)
        fd = di.float_disks()
        X, Y, R = fd.x, fd.y, fd.r

        def gaps(x, y):
            return [math.hypot(x - cx, y - cy) - r for cx, cy, r in zip(X, Y, R)]

        b = di.boundary()
        for p in b.corners:
            g = gaps(p.x, p.y)
            assert max(g) <= 1e-9
            assert sum(abs(x) <= 1e-9 for x in g) >= 2
        for i, ivs in b.arcs:
            for s, e in ivs:
                m = 0.5 * (s + e)
                assert max(gaps(X[i] + R[i] * math.cos(m), Y[i] + R[i] * math.sin(m))) <= 1e-9


class TestLooselyIncludes:
    def test_concentric(self):
        assert loosely_includes(Disk(Point(0, 0), 2), Disk(Point(0, 0), 1))

    def test_boundary_contact_fails(self):
        assert not loosely_includes(Disk(Point(0, 0), 2), Disk(Point(1, 0), 1))

    def test_incircle_margin(self):
        tri = equilateral_triangle().as_polygon()
        assert loosely_includes(tri, Disk(Point(F(0), F(0)), F(29, 10)))


class TestTransformBody:
    def test_disk_homothety(self):
        img = transform_body(homothety(Point(F(0), F(0)), F(1, 2)), Disk(Point(F(2), F(0)), F(2)))
        assert isinstance(img, Disk)
        assert img.center == Point(F(1), F(0)) and img.radius == F(1)

    def test_square_translation(self):
        img = transform_body(Translation((1, 0)), square())
        assert isinstance(img, Polygon)
        assert set(img.vertices) == {Point(1, 0), Point(3, 0), Point(3, 2), Point(1, 2)}

    def test_rectangle_counterexample_image(self):
        rect = Polygon((Point(F(-2), F(0)), Point(F(2), F(0)), Point(F(2), F(2)), Point(F(-2), F(2))))
        img = transform_body(homothety(Point(F(4), F(2)), F(1, 2)), rect)
        assert set(img.vertices) == {
            Point(F(1), F(1)), Point(F(3), F(1)), Point(F(3), F(2)), Point(F(1), F(2))
        }

    def test_disk_intersection_stays_in_class(self):
        di = DiskIntersection((Disk(Point(F(0), F(0)), F(2)), Disk(Point(F(2), F(0)), F(2))))
        img = transform_body(homothety(Point(F(0), F(0)), F(2)), di)
        assert isinstance(img, DiskIntersection)
        assert img.disks[1].center == Point(F(4), F(0)) and img.disks[1].radius == F(4)


class TestChordInterval:
    def test_disk_diameter(self):
        iv = chord_interval(Disk(Point(0, 0), 1), DirectedLine(Point(-3, 0), Direction(1, 0)))
        assert iv is not None
        assert abs(iv[0] - 2) < 1e-12 and abs(iv[1] - 4) < 1e-12

    def test_miss(self):
        iv = chord_interval(Disk(Point(0, 0), 1), DirectedLine(Point(-3, 5), Direction(1, 0)))
        assert iv is None

    def test_square_chord(self):
        iv = chord_interval(square(), DirectedLine(Point(-1, 1), Direction(1, 0)))
        assert iv is not None
        assert abs(iv[0] - 1) < 1e-9 and abs(iv[1] - 3) < 1e-9

    def test_thin_chord_of_curved_hull(self):
        """A line 1e-4 below the top of the disk crosses the hull along the
        disk's arc, 30 +- sqrt(1 - 0.9999^2) from the anchor."""
        u = hull_of_union(Disk(Point(0, 0), 1), [Point(20, 0), Point(0, -20)])
        y = F(9999, 10000)
        line = DirectedLine(Point(-30, y), Direction(1, 0))
        assert contains_point(u, Point(0, y))
        half = math.sqrt(1 - float(y) ** 2)
        iv = chord_interval(u, line)
        assert iv is not None
        assert abs(iv[0] - (30 - half)) <= 1e-9 and abs(iv[1] - (30 + half)) <= 1e-9
        assert len(line_boundary_intersections(u, line).points) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["disk", "disk_intersection"]))
    def test_curved_hull_chord_ends_on_the_boundary(self, seed, kind):
        """A line at offset h(n) - delta meets the hull in a chord whose ends
        have point margin 0; a line at h(n) + 1e-6 misses it."""
        rng = SplitMix64(seed)
        u = curved_hull(rng, kind)
        scale = margin_scale(u)
        a = rng.random() * 2 * math.pi
        nx, ny = math.cos(a), math.sin(a)
        h = support_value(u, nx, ny)
        width = h + support_value(u, -nx, -ny)
        for delta in (1e-4, 1e-2, 1.0):
            if delta >= width:
                continue
            q = h - delta
            line = DirectedLine(Point(q * nx + 50 * ny, q * ny - 50 * nx), Direction(-ny, nx))
            iv = chord_interval(u, line)
            assert iv is not None
            ends = [line.point_at(t) for t in iv]
            m, _ = point_margins(u, [(p.x, p.y) for p in ends])
            assert np.abs(m).max() <= 1e-9 * scale
        q = h + 1e-6
        assert chord_interval(u, DirectedLine(Point(q * nx, q * ny), Direction(-ny, nx))) is None


class TestMiscQueries:
    def test_nearest_point_disk(self):
        np_ = nearest_point(Disk(Point(0, 0), 1), Point(3, 0))
        assert abs(float(np_.x) - 1) < 1e-9

    def test_dist_to_body(self):
        assert abs(dist_to_body(Disk(Point(0, 0), 1), Point(3, 0)) - 2) < 1e-9
        assert dist_to_body(Disk(Point(0, 0), 1), Point(0.5, 0)) == 0.0

    def test_farthest_dist_square(self):
        assert abs(farthest_dist(square(-2, 2), Point(0, 0)) - 2 * math.sqrt(2)) < 1e-9

    def test_interior_point_is_strict(self):
        for u in (
            Disk(Point(0, 0), 1),
            square(),
            DiskIntersection((Disk(Point(0, 0), 2), Disk(Point(3, 0), 2))),
        ):
            assert contains_point(u, interior_point(u), "strict")

    def test_polygonize_exact_hull_of_union(self):
        h = hull_of_union(square(), [Point(3, 1)])
        poly = polygonize(h)
        assert poly is not None
        assert Point(3, 1) in poly.vertices


def curved_hull(rng: SplitMix64, kind: str) -> HullOfUnion:
    """conv(base ∪ {a, b}) for a rational disk or disk-intersection base."""
    if kind == "disk":
        base = Disk(rational_point(rng, -2, 2, 4), F(rng.randint(2, 8), 4))
    else:
        base = random_disk_intersection(rng)
    return HullOfUnion(base, (rational_point(rng, -6, 6, 4), rational_point(rng, -6, 6, 4)))


def margin_scale(u) -> float:
    """The scale of u's support pieces, max(1, max |c| + max r)."""
    C, R, _ = bodies._support_pieces(u)
    return max(1.0, float(np.abs(C).max() + R.max()))


def hull_segment_normals(u: HullOfUnion) -> np.ndarray:
    """The normals of every segment u may have: the tangents from each extra
    point to each disk of the base, and the normals of each pair of points
    (the extra points and the base's point pieces: a disk intersection's
    corners, or its feasible point when no circle bounds it)."""
    disks = u.base.disks if isinstance(u.base, DiskIntersection) else (u.base,)
    pts = list(u.extra) + list(bodies._pieces(u.base).points)
    angles = []
    for a in u.extra:
        for d in disks:
            vx, vy = float(a.x - d.center.x), float(a.y - d.center.y)
            length = math.hypot(vx, vy)
            if length > d.radius:
                phi = math.acos(float(d.radius) / length)
                angles += [math.atan2(vy, vx) + phi, math.atan2(vy, vx) - phi]
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            t = math.atan2(float(b.y) - float(a.y), float(b.x) - float(a.x))
            angles += [t + math.pi / 2, t - math.pi / 2]
    return np.stack([np.cos(angles), np.sin(angles)], axis=1).reshape(-1, 2)


class TestPointMarginOracle:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["disk", "disk_intersection"]))
    def test_matches_dense_directions(self, seed, kind):
        rng = SplitMix64(seed)
        u = curved_hull(rng, kind)
        self.check(u, [(float(p.x), float(p.y)) for p in (rational_point(rng, -9, 9, 4) for _ in range(8))])

    def test_point_the_grid_misses(self):
        """The grid search read 1.52116 here, 2.5e-3 above the margin."""
        base = DiskIntersection((Disk(Point(F(-3, 4), F(1, 4)), 1), Disk(Point(F(-1, 4), F(1, 4)), 1)))
        u = HullOfUnion(base, (Point(F(7, 2), F(-7, 4)), Point(F(-3, 4), F(-21, 4))))
        assert self.check(u, [(0.5, -2.25)])[0] == pytest.approx(1.51865, abs=1e-5)

    @staticmethod
    def check(u: HullOfUnion, xy) -> np.ndarray:
        """Any direction bounds the margin from above, so it is at most the
        dense minimum; over a disk base's dense grid plus segment normals,
        where the margin's function has its kinks, it is within 1e-6 of it.
        The margin is attained at the returned direction."""
        X, scale = np.array(xy), margin_scale(u)
        m, n = point_margins(u, X)
        dirs = np.concatenate([dense_directions()[0], hull_segment_normals(u)])
        ref = (support_grid(u, dirs)[None, :] - X @ dirs.T).min(axis=1)
        assert np.all(m <= ref + 1e-12 * scale)
        if isinstance(u.base, Disk):
            assert np.all(m >= ref - 1e-6 * scale)
        for x, mi, (nx, ny) in zip(X.tolist(), m.tolist(), n.tolist()):
            assert abs(support_value(u, nx, ny) - x[0] * nx - x[1] * ny - mi) <= 1e-12 * scale
        return m


class TestNearestPointOracle:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["disk", "disk_intersection"]))
    @example(22587, "disk_intersection")  # a one-point base: no corners, one point piece
    def test_hull_of_curved_base_and_two_points(self, seed, kind):
        """From an external p, the distance to a hull is the max over
        directions n of <p, n> - h(n).  Over a dense grid plus the segment
        normals, where that difference has its kinks, the max is within 3e-7
        of it; the nearest point is that far from p and in the hull."""
        rng = SplitMix64(seed)
        u = curved_hull(rng, kind)
        p = rational_point(rng, -9, 9, 4)
        dirs = np.concatenate([dense_directions()[0], hull_segment_normals(u)])
        hu = support_grid(u, dirs)
        d = float((dirs @ [float(p.x), float(p.y)] - hu).max())
        assume(d > 1e-3)
        q = nearest_point(u, p)
        assert abs(dist(p, q) - d) <= 1e-6
        assert float((dirs @ [float(q.x), float(q.y)] - hu).max()) <= 1e-6


def piece_table_bodies(seed: int):
    """One body of each kind: a rational polygon, a disk, a disk
    intersection, and a HullOfUnion of each curved kind with two points."""
    rng = SplitMix64(seed)
    polygon = convex_hull([rational_point(rng, -4, 4, 4) for _ in range(5)])
    disk = Disk(rational_point(rng, -4, 4, 4), F(rng.randint(1, 12), 4))
    di = random_disk_intersection(rng)
    extra = [tuple(rational_point(rng, -6, 6, 4) for _ in range(2)) for _ in range(2)]
    return [polygon, disk, di, HullOfUnion(disk, extra[0]), HullOfUnion(di, extra[1])]


class TestPieceTableOracle:
    """Every support and boundary query of a body against another one."""

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32))
    def test_queries_agree(self, seed):
        """The grid and the value agree bit for bit, also at the critical
        directions, where pieces tie."""
        angles = np.arange(64) * (2 * math.pi / 64) + 0.01 * (seed % 7)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        table = piece_table_bodies(seed)
        crit = [bodies._critical_directions(u, v) for u, v in itertools.combinations(table, 2)]
        all_dirs = np.concatenate([dirs] + crit)
        for u in table:
            c = interior_point(u)
            R = farthest_dist(u, c)
            scale = max(1.0, R + abs(float(c.x)) + abs(float(c.y)))
            for (nx, ny), h in zip(all_dirs.tolist(), support_grid(u, all_dirs).tolist()):
                assert h == support_value(u, nx, ny)
            for nx, ny in dirs[::8].tolist():
                p = support_point(u, nx, ny)
                assert abs(float(p.x) * nx + float(p.y) * ny - support_value(u, nx, ny)) <= 1e-9 * scale
                assert contains_point(u, p, "closed", Tolerance(1e-9 * scale))
            # The farthest point is an extreme point, which the samples come
            # within 1e-5 of the scale of.
            samples = boundary_samples(u, 2048)
            far = max(dist(c, q) for q in samples)
            assert far - 1e-9 * scale <= R <= far + 1e-5 * scale
            if bodies._is_singleton(u):
                continue
            f = Point(float(c.x) + 2 * R + 1, float(c.y))
            for psl in tangents_from_external_point(u, f):
                nx, ny = psl.line.d.right_normal().unit()
                t = psl.support
                assert abs(support_value(u, nx, ny) - (float(t.x) * nx + float(t.y) * ny)) <= 1e-9 * scale


def _ref_value(u: HullOfUnion, nx: float, ny: float) -> float:
    """A hull's support value, converting its extra points on every call."""
    best = support_value(u.base, nx, ny)
    for p in u.extra:
        best = max(best, float(p.x) * nx + float(p.y) * ny)
    return best


def _ref_grid(u: HullOfUnion, dirs: np.ndarray) -> np.ndarray:
    return np.array([_ref_value(u, nx, ny) for nx, ny in dirs.tolist()])


def _ref_pieces(u: HullOfUnion):
    C, R, B = bodies._support_pieces(u.base)
    P = np.array([(float(p.x), float(p.y)) for p in u.extra]).reshape(-1, 2)
    C = np.concatenate([C, P])
    R = np.concatenate([R, np.zeros(len(P))])
    i, j = np.divmod(np.arange(len(P) * len(C)), len(C))
    return C, R, np.concatenate([B, bodies.tie_directions(P[i], np.zeros(len(i)), C[j], R[j])])


def _ref_margin(a, b, value_a, value_b, grid_a, grid_b) -> float:
    """``support_margin`` with the given support functions."""
    m = grid_a(a, bodies.GRID_DIRS) - grid_b(b, bodies.GRID_DIRS)
    k = int(np.argmin(m))
    step = 2 * math.pi / bodies.GRID_N

    def f(theta):
        nx, ny = math.cos(theta), math.sin(theta)
        return value_a(a, nx, ny) - value_b(b, nx, ny)

    lo, hi = bodies._GRID_ANGLES[k] - step, bodies._GRID_ANGLES[k] + step
    return min(float(m[k]), bodies._golden_min(f, lo, hi))


def _ref_farthest(u: HullOfUnion, c: Point) -> float:
    return max([farthest_dist(u.base, c)] + [dist(c, p) for p in u.extra])


def _ref_support_point(u, nx: float, ny: float) -> Point:
    """The canonical maximizer from the base's and the extra points."""
    if not isinstance(u, HullOfUnion):
        return support_point(u, nx, ny)
    return bodies._lex_min_maximizer([_ref_support_point(u.base, nx, ny)] + list(u.extra), nx, ny)


_tangent_candidates = bodies._tangent_candidates


def _ref_tangent_candidates(u, f: Point):
    """The base's tangent candidates from f and the extra points."""
    if not isinstance(u, HullOfUnion):
        return _tangent_candidates(u, f)
    return _ref_tangent_candidates(u.base, f) + list(u.extra)


_coords = st.one_of(
    st.integers(-6, 6),
    st.fractions(-6, 6, max_denominator=12),
    st.floats(-6, 6, allow_nan=False, allow_infinity=False),
)


class TestHullPieceTable:
    """A hull's piece table is its base's with the extra points added: each
    of its support queries must equal, bit for bit, the formula that
    recurses into the base and converts the extra points on every call, and
    caching the table must leave the hull's value semantics alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(["polygon", "disk", "disk_intersection", "hull"]),
        st.lists(st.builds(Point, _coords, _coords), max_size=3),
    )
    @example(0, "disk", [Point(F(1, 3), F(-5, 7)), Point(4, 0.1), Point(F(-17, 6), 5)])
    @example(1, "disk_intersection", [])
    @example(2, "polygon", [Point(5, 5)])
    @example(3, "hull", [Point(-5, 1), Point(F(1, 3), -5)])
    def test_matches_recursive_formulas(self, seed, kind, extra):
        rng = SplitMix64(seed)
        if kind == "polygon":
            base = convex_hull([rational_point(rng, -4, 4, 3) for _ in range(6)])
            assume(len(base.vertices) >= 3)
        elif kind == "disk":
            base = Disk(rational_point(rng, -2, 2, 4), F(rng.randint(1, 12), 4))
        elif kind == "disk_intersection":
            base = random_disk_intersection(rng)
        else:  # a hull as base
            base = HullOfUnion(random_disk_intersection(rng), (rational_point(rng, -6, 6, 4),))
        u = HullOfUnion(base, tuple(extra))
        fresh = HullOfUnion(base, tuple(extra))
        angles = np.array([rng.uniform(0, 2 * math.pi) for _ in range(32)])
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for nx, ny in dirs.tolist():
            assert support_value(u, nx, ny) == _ref_value(u, nx, ny)
            assert support_point(u, nx, ny) == _ref_support_point(u, nx, ny)
        for d in (dirs, bodies.GRID_DIRS):
            assert np.array_equal(support_grid(u, d), _ref_grid(u, d))
        for got, ref in zip(bodies._support_pieces(u), _ref_pieces(u)):
            assert np.array_equal(got, ref)
        other = Disk(rational_point(rng, -2, 2, 4), F(rng.randint(1, 8), 4))
        assert support_margin(u, other) == _ref_margin(u, other, _ref_value, support_value, _ref_grid, support_grid)
        assert support_margin(other, u) == _ref_margin(other, u, support_value, _ref_value, support_grid, _ref_grid)
        c = interior_point(u)
        for q in (c, rational_point(rng, -9, 9, 4)):
            assert farthest_dist(u, q) == _ref_farthest(u, q)
        if not bodies._is_singleton(u):
            f = Point(float(c.x) + 2 * farthest_dist(u, c) + 1, float(c.y))
            assert Counter(bodies._tangent_candidates(u, f)) == Counter(_ref_tangent_candidates(u, f))
            with mock.patch.object(bodies, "_tangent_candidates", _ref_tangent_candidates):
                ref = tangents_from_external_point(u, f)
            assert tangents_from_external_point(u, f) == ref
        assert u == fresh and hash(u) == hash(fresh)
        assert repr(u) == repr(fresh)
        assert serial.body_to_json(u) == serial.body_to_json(fresh)


class TestBoundarySamples:
    @settings(max_examples=25)
    @given(st.integers(0, 2**32))
    def test_samples_lie_on_disk_intersection_boundary(self, seed):
        rng = SplitMix64(seed)
        di = random_disk_intersection(rng)
        for p in boundary_samples(di, 64):
            assert dist_to_body(di, p) < 1e-7
            assert not contains_point(di, p, "strict", Tolerance(1e-7))

    def test_polygon_samples_cover_vertices(self):
        sq = square()
        samples = boundary_samples(sq, 64)
        for v in sq.vertices:
            assert any(abs(float(p.x - v.x)) + abs(float(p.y - v.y)) < 1e-9 for p in samples)
