"""Finite convex geometries: closures, anti-exchange, closed-set lattices."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planeconvex.bodies import Disk, convex_hull
from planeconvex.convexgeo import (
    ClosureSystem,
    GroundSet,
    closed_set_lattice,
    closure_points,
    closure_shapes,
    is_join_distributive,
    join_irreducibles,
    m3_lattice,
    points_closure_system,
    circles_closure_system,
    closure_circles,
    shapes_closure_system,
    verify_anti_exchange,
    verify_closure_axioms,
)
from planeconvex.errors import IndeterminateGeometry, SizeLimit
from planeconvex.fixtures import (
    ANTI_EXCHANGE_SHAPES,
    ANTI_EXCHANGE_WITNESS,
)
from planeconvex.geom import Point
from planeconvex.rng import SplitMix64
from tests.conftest import brute_force_closure_points, dense_directions, rational_point

F = Fraction


def collinear_points_system():
    return points_closure_system([Point(F(0), F(0)), Point(F(1), F(0)), Point(F(2), F(0))])


class TestPointClosure:
    def test_midpoint_absorbed(self):
        cs = collinear_points_system()
        assert cs.closure(0b101) == 0b111  # {a, c} closes over the midpoint b

    def test_empty_set_closed(self):
        cs = collinear_points_system()
        assert cs.closure(0) == 0

    def test_square_edge_closed(self):
        cs = points_closure_system(
            [Point(F(0), F(0)), Point(F(1), F(0)), Point(F(1), F(1)), Point(F(0), F(1))]
        )
        assert cs.closure(0b0011) == 0b0011  # two adjacent corners stay closed


# Coordinates mix ints with Fractions of unrelated denominators.
COORD = st.one_of(
    st.integers(-6, 6),
    st.builds(F, st.integers(-60, 60), st.sampled_from([2, 3, 7, 11, 97, 1009])),
)


@st.composite
def point_configs(draw, free=(1, 6), forced=(0, 3)):
    """Rational points (their number in the range ``free``), then more (in
    the range ``forced``), each forced onto the line through two earlier
    points (on or off their segment, or onto one of them) or onto an edge of
    the hull of the earlier points."""
    pts = draw(st.lists(st.builds(Point, COORD, COORD), min_size=free[0], max_size=free[1]))
    for _ in range(draw(st.integers(*forced))):
        if draw(st.booleans()):
            a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            t = draw(st.builds(F, st.integers(-3, 6), st.sampled_from([1, 2, 3, 5])))
        else:
            vs = convex_hull(pts).vertices
            i = draw(st.integers(0, len(vs) - 1))
            a, b = vs[i], vs[(i + 1) % len(vs)]
            t = draw(st.builds(F, st.integers(0, 7), st.just(7)))
        pts.append(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    return pts


# Scaled to integers, these points (two of them on the segments of the first
# three) have orientation determinants far beyond 64 bits.
_A, _B, _C = Point(F(1, 999983), F(2, 999979)), Point(F(10**6, 7), F(-3, 999961)), Point(F(-5, 999953), F(10**6, 11))
HUGE_SCALE_POINTS = [_A, _B, _C, _B + (_C - _B).scaled(F(1, 3)), _A + (_B - _A).scaled(F(2, 5))]


def brute_force_closure_shapes(shapes, mask: int) -> int:
    """Shape i is in the closure iff all its vertices are in the points
    closure of the chosen shapes' vertices."""
    verts = [v for s in shapes for v in s.vertices]
    owned, k = [], 0
    for s in shapes:
        owned.append(range(k, k + len(s.vertices)))
        k += len(s.vertices)
    covered = brute_force_closure_points(
        verts, sum(1 << v for i, vs in enumerate(owned) if mask >> i & 1 for v in vs)
    )
    return sum(1 << i for i, vs in enumerate(owned) if all(covered >> v & 1 for v in vs))


class TestPointClosureOracle:
    """The cover table against the hull of every subset."""

    @settings(max_examples=60, deadline=None)
    @given(point_configs())
    @example([Point(F(1, 3), 2)])
    @example([Point(0, 0), Point(F(1, 2), 0), Point(1, 0), Point(F(1, 2), 0)])
    @example([Point(0, 0), Point(4, 0), Point(0, F(4, 7)), Point(2, F(2, 7)), Point(1, 0)])
    @example(HUGE_SCALE_POINTS)
    def test_every_mask_matches_hull_reference(self, pts):
        ground = GroundSet(tuple(pts))
        ref = [brute_force_closure_points(pts, m) for m in range(1 << len(pts))]
        assert [closure_points(ground, m) for m in range(1 << len(pts))] == ref
        closed = [m for m, c in enumerate(ref) if c == m]
        assert points_closure_system(pts).closed_sets() == closed

    @settings(max_examples=15, deadline=None)
    @given(
        point_configs(free=(17, 17), forced=(3, 3)),
        st.lists(st.sets(st.integers(0, 19), min_size=1, max_size=10), min_size=40, max_size=40),
    )
    def test_twenty_points_on_sampled_masks(self, pts, subsets):
        ground = GroundSet(tuple(pts))
        for chosen in subsets:
            mask = sum(1 << i for i in chosen)
            assert closure_points(ground, mask) == brute_force_closure_points(pts, mask)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(point_configs(free=(1, 3), forced=(0, 1)), min_size=1, max_size=4))
    def test_shapes_match_vertex_reference(self, groups):
        shapes = [convex_hull(g) for g in groups]
        ground = GroundSet(tuple(shapes))
        for mask in range(1 << len(shapes)):
            assert closure_shapes(ground, mask) == brute_force_closure_shapes(shapes, mask)

    def test_twenty_decagons(self):
        # 200 vertices in all: the hull path's cost grows with the vertices
        # of the chosen shapes only, never with all triples of vertices
        rng = SplitMix64(4)
        ring = [
            Point(F(x, 4), F(y, 4))
            for x, y in [(8, 0), (6, 5), (2, 8), (-2, 8), (-6, 5), (-8, 0), (-6, -5), (-2, -8), (2, -8), (6, -5)]
        ]
        shapes = []
        for _ in range(20):
            d = Point(F(rng.randint(-40, 40), 4), F(rng.randint(-40, 40), 4))
            shapes.append(convex_hull([v + d for v in ring]))
        assert all(len(s.vertices) == 10 for s in shapes)
        ground = GroundSet(tuple(shapes))
        for _ in range(20):
            mask = rng.randint(1, (1 << 20) - 1) & rng.randint(1, (1 << 20) - 1) or 1
            assert closure_shapes(ground, mask) == brute_force_closure_shapes(shapes, mask)

    def test_float_point_near_an_edge_is_inside_within_tolerance(self):
        # (1/2, -1e-10) lies 1e-10 outside the edge from (0, 0) to (1, 0):
        # the float ground set keeps the hull path and counts it inside
        # under DEFAULT_TOL (1e-9); the exact ground set does not.
        floats = GroundSet((Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0), Point(0.5, -1e-10)))
        assert floats.cover_table is None
        assert closure_points(floats, 0b0111) == 0b1111
        assert closure_points(floats, 0b0011) == 0b1011
        exact = GroundSet((Point(0, 0), Point(1, 0), Point(0, 1), Point(F(1, 2), F(-1, 10**10))))
        assert closure_points(exact, 0b0111) == 0b0111

    def test_shape_vertex_near_an_edge_is_inside_only_for_floats(self):
        # The second triangle has a vertex 1e-10 below the edge from (0, 0)
        # to (4, 0) of the first: inside within DEFAULT_TOL for float
        # vertices, outside for exact ones.
        def ground(x):
            big = convex_hull([Point(x(0), x(0)), Point(x(4), x(0)), Point(x(0), x(4))])
            small = convex_hull([Point(x(1), x(1)), Point(x(2), x(1)), Point(x(2), -x(F(1, 10**10)))])
            return GroundSet((big, small))

        assert closure_shapes(ground(float), 0b01) == 0b11
        assert closure_shapes(ground(F), 0b01) == 0b01


class TestCircleClosure:
    def test_stadium_absorbs_middle_disk(self):
        cs = circles_closure_system(
            [Disk(Point(F(0), F(0)), F(1)), Disk(Point(F(4), F(0)), F(1)), Disk(Point(F(2), F(0)), F(1, 2))]
        )
        assert cs.closure(0b011) == 0b111

    def test_single_disk_closed(self):
        cs = circles_closure_system(
            [Disk(Point(F(0), F(0)), F(1)), Disk(Point(F(4), F(0)), F(1))]
        )
        assert cs.closure(0b01) == 0b01

    def test_empty(self):
        cs = circles_closure_system([Disk(Point(F(0), F(0)), F(1))])
        assert cs.closure(0) == 0

    def tangent_stadium(self):
        # disk 2 touches both sides of the stadium of disks 0 and 1 (margin
        # exactly 0); disk 3 touches disk 0 from inside
        return circles_closure_system(
            [
                Disk(Point(F(0), F(0)), F(1)),
                Disk(Point(F(4), F(0)), F(1)),
                Disk(Point(F(2), F(0)), F(1)),
                Disk(Point(F(1, 2), F(0)), F(1, 2)),
            ]
        )

    def test_zero_margin_is_indeterminate(self):
        with pytest.raises(IndeterminateGeometry, match="element 2 in subset 11 "):
            self.tangent_stadium().closure(0b0011)

    def test_inside_single_disk_wins_over_zero_margin(self):
        assert self.tangent_stadium().closure(0b0001) == 0b1001


DENSE_DIRS, DENSE_STEP = dense_directions()


def dense_margin(c, subset):
    """min over dense directions of h_hull - h_c, and the bound on how far
    above the true minimum it can lie (the slope of h_hull - h_c times the
    direction step)."""
    C = np.array([(float(d.center.x), float(d.center.y)) for d in subset])
    R = np.array([float(d.radius) for d in subset])
    cc = np.array([float(c.center.x), float(c.center.y)])
    h_hull = (C @ DENSE_DIRS.T + R[:, None]).max(axis=0)
    m = float((h_hull - DENSE_DIRS @ cc - float(c.radius)).min())
    return m, float(np.hypot(*(C - cc).T).max()) * DENSE_STEP


class TestCircleClosureOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32))
    @example(178634)  # draws disk 4 equal to disk 0 when repeats are allowed
    def test_agrees_with_dense_directions(self, seed):
        # Two equal disks have a margin of float noise (-4.4e-16 against a
        # bound of 0), which is no verdict, so the disks are distinct.
        rng = SplitMix64(seed)
        n = rng.randint(2, 5)
        disks = []
        while len(disks) < n:
            d = Disk(Point(F(rng.randint(-24, 24), 4), F(rng.randint(-24, 24), 4)), F(rng.randint(2, 16), 4))
            if d not in disks:
                disks.append(d)
        ground = GroundSet(tuple(disks))
        for mask in range(1, 1 << len(disks)):
            subset = [d for i, d in enumerate(disks) if mask >> i & 1]
            dense = {i: dense_margin(d, subset) for i, d in enumerate(disks) if not mask >> i & 1}
            try:
                got = closure_circles(ground, mask)
            except IndeterminateGeometry as e:
                m, bound = dense[int(str(e).split()[4])]
                assert -1e-6 <= m <= bound + 1e-6
                continue
            for i, (m, bound) in dense.items():
                if abs(m) > bound:
                    assert bool(got >> i & 1) == (m > 0), (mask, i, m)


class TestClosureAxioms:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32))
    def test_random_point_configs(self, seed):
        rng = SplitMix64(seed)
        pts = [rational_point(rng, -6, 6) for _ in range(5)]
        ok, bad = verify_closure_axioms(points_closure_system(pts))
        assert ok and bad is None

    def test_corrupted_table_detected(self):
        ground = GroundSet(("a", "b"))
        # idempotence broken: closure({a}) = {a,b} but closure({a,b}) = ... fine;
        # here closure({a}) = {b} is not even extensive
        table = {0: 0, 0b01: 0b10, 0b10: 0b10, 0b11: 0b11}
        cs = ClosureSystem.from_table(ground, table)
        ok, bad = verify_closure_axioms(cs)
        assert not ok and bad == 0b01


class TestAntiExchange:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32))
    @example(353428)  # draws (-1, -5/8) twice when repeats are allowed
    def test_point_configs_satisfy_anti_exchange(self, seed):
        # Anti-exchange is defined for distinct elements: two equal points
        # close each other, so the five points are drawn without repeats.
        rng = SplitMix64(seed)
        pts = []
        while len(pts) < 5:
            p = rational_point(rng, -6, 6)
            if p not in pts:
                pts.append(p)
        ok, wit = verify_anti_exchange(points_closure_system(pts))
        assert ok and wit is None

    def test_disjoint_circle_config(self):
        cs = circles_closure_system(
            [Disk(Point(F(0), F(0)), F(1)), Disk(Point(F(5), F(0)), F(1)), Disk(Point(F(0), F(5)), F(2))]
        )
        ok, _ = verify_anti_exchange(cs)
        assert ok

    @pytest.mark.parametrize("disks, witness", [("AAB", (0, 1, 0)), ("BCAC", (1, 3, 0))], ids=["AAB", "BCAC"])
    def test_first_violation_is_pinned(self, disks, witness):
        # Two equal disks close each other, so anti-exchange fails on them;
        # the first violation (p, q, X) follows the loops over X, p and q.
        named = {
            "A": Disk(Point(F(0), F(0)), F(1)),
            "B": Disk(Point(F(6), F(0)), F(1)),
            "C": Disk(Point(F(0), F(6)), F(2)),
        }
        cs = circles_closure_system([named[k] for k in disks])
        assert verify_anti_exchange(cs) == (False, witness)

    def test_frozen_triangle_fixture_violates(self):
        cs = shapes_closure_system(ANTI_EXCHANGE_SHAPES)
        ok_ax, _ = verify_closure_axioms(cs)
        assert ok_ax
        ok_ae, wit = verify_anti_exchange(cs)
        assert not ok_ae
        assert wit == ANTI_EXCHANGE_WITNESS


class TestClosedSetLattice:
    def test_single_point_chain(self):
        lat = closed_set_lattice(points_closure_system([Point(F(0), F(0))]))
        assert len(lat) == 2

    def test_three_collinear_points(self):
        lat = closed_set_lattice(collinear_points_system())
        # brute force gives 7 closed sets for 3 collinear points:
        # {}, {a}, {b}, {c}, {a,b}, {b,c}, {a,b,c}
        assert len(lat) == 7
        assert is_join_distributive(lat)

    def test_join_irreducibles_collinear(self):
        lat = closed_set_lattice(collinear_points_system())
        got = join_irreducibles(lat)
        # oracle: elements with exactly one lower cover, by brute force
        expect = [x for x in range(len(lat)) if len(lat.lower_covers_of(x)) == 1]
        assert got == expect
        assert len(got) == 4

    def test_boolean_two_points(self):
        lat = closed_set_lattice(points_closure_system([Point(F(0), F(0)), Point(F(1), F(0))]))
        assert len(lat) == 4
        assert len(join_irreducibles(lat)) == 2
        assert is_join_distributive(lat)

    def test_two_element_chain_distributive(self):
        lat = closed_set_lattice(points_closure_system([Point(F(0), F(0))]))
        assert is_join_distributive(lat)

    def test_m3_not_join_distributive(self):
        assert not is_join_distributive(m3_lattice())

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32))
    def test_random_small_disk_lattices_join_distributive(self, seed):
        rng = SplitMix64(seed)
        disks = []
        for _ in range(rng.randint(2, 5)):
            c = Point(F(rng.randint(-12, 12), 4), F(rng.randint(-12, 12), 4))
            disks.append(Disk(c, F(rng.randint(2, 10), 4)))
        try:
            cs = circles_closure_system(disks)
            lat = closed_set_lattice(cs)
        except IndeterminateGeometry:
            return  # indeterminate borderline configuration: skip
        assert is_join_distributive(lat)


class TestSizeLimits:
    def test_ground_set_cap(self):
        rng = SplitMix64(1)
        pts = [rational_point(rng, -100, 100, den=64) for _ in range(21)]
        with pytest.raises(SizeLimit):
            verify_closure_axioms(points_closure_system(pts))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GroundSet((Point(F(0), F(0)), Point(F(1), F(0))), ("a", "a"))
