"""Convex-body representations and their geometric queries.

Four representations: Polygon (possibly degenerate: a point or a segment),
Disk, DiskIntersection (nonempty, edge-free), and HullOfUnion (lazy hull of a
body with finitely many extra points).  Queries follow a dual strategy:
exact rational predicates wherever the data allows, support-function
comparison for curved pairs.  Every support function is an upper envelope of
pieces c·n + r (a disk, or a point with r = 0), so the extremum of a
difference of two of them lies at a finite set of critical directions: the
envelopes' breakpoints and one stationary direction per pair of pieces.
``abundance`` takes its maximum there in closed form.  A polygon of at
least 3 vertices holds a curved body iff no edge normal n_e has the body's
support value above the edge's offset (``_edge_margin``).  Only
``support_margin`` still searches a direction grid with local refinement,
for HullOfUnion containers and ``point_margin``.

Each primitive body (Polygon, Disk, DiskIntersection) builds its pieces once,
as a table (``_pieces``): its points (a polygon's vertices, a disk
intersection's corners) and its disks, each with the arcs of normal angles at
which it bounds the body (a Disk's one disk at every angle).  Every support
and boundary query of a primitive body is one loop over that table:
``support_value``, ``support_grid``, ``_support_pieces``, ``support_point``,
``farthest_dist``, ``_tangent_candidates`` and, but for a polygon's segment
projection, ``nearest_point``.  A HullOfUnion has no table: each query
combines its base body's answer with the extra points.

Exact predicates stay exact, and are decided in float wherever a static
error bound allows.  Point-in-polygon tests read each polygon's float
vertices and edges, converted once; a polygon inside a polygon reads its own
vertex floats once for all of them.  When every coordinate converts to float
exactly, a float cross product with an a-priori error bound decides each
edge, and only an edge too close to call re-forms the cross product on the
input coordinates.  ``convex_hull`` likewise sorts such input on its floats
and decides each turn with ``geom.orient_filter``, reaching the exact
``orient2d`` only for a turn too close to call; the hull keeps those floats
as its ``floats()``.

A DiskIntersection converts its disks to floats once, and its feasible point
and boundary both read that conversion.  Its boundary clips each circle by
the other disks, one exact interval intersection at a time; beyond
``_VIOLATION_BLOCK`` disks, array passes over all pairs first drop the dead
circles and, for each live one, the disks that cannot change its arc, with a
float filter whose slack bounds numpy's angles against ``math``'s.  The
feasible point is the first candidate (disk centres, then every pairwise
circle point) of least violation max_i(|p - c_i| - r_i);
``_least_violation`` finds it exactly without the full candidate x disk
matrix, by taking the disks a block at a time, the boundary's own disks
first, and dropping every candidate whose partial max already exceeds the
full violation of the best candidate so far.  All outputs have the bits of
the scalar formulas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadRadius,
    EmptyInput,
    NotSeparable,
    PreconditionViolated,
)
from .geom import (
    DEFAULT_TOL,
    DirectedLine,
    Direction,
    Point,
    Scalar,
    Tolerance,
    _converts_exactly,
    cross,
    dist,
    dist2,
    dot,
    is_exact,
    orient2d,
    orient_filter,
    project_to_segment,
    seg_point_dist,
)
from .transforms import PlaneMap

TWO_PI = 2.0 * math.pi

# Direction grid shared by all support-function comparisons.
GRID_N = 720
_GRID_ANGLES = np.arange(GRID_N) * (TWO_PI / GRID_N)
GRID_DIRS = np.stack([np.cos(_GRID_ANGLES), np.sin(_GRID_ANGLES)], axis=1)


class PointedSupportLine(NamedTuple):
    support: Point
    line: DirectedLine


class ConvexBody:
    """Base class; all bodies are immutable values."""

    _pieces_cache: Optional["_Pieces"] = None  # set by ``_pieces``, not a field


@dataclass(frozen=True)
class Polygon(ConvexBody):
    """CCW vertex list; 1 vertex = singleton, 2 vertices = segment."""

    vertices: Tuple[Point, ...]
    _floats: Optional["_PolygonFloats"] = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if not self.vertices:
            raise EmptyInput("polygon needs at least one vertex")

    def floats(self) -> "_PolygonFloats":
        """The vertices and edges as floats, converted once."""
        if self._floats is None:
            vs = self.vertices
            xy = [(float(p.x), float(p.y)) for p in vs]
            dyadic = all(_converts_exactly(p.x) and _converts_exactly(p.y) for p in vs)
            object.__setattr__(self, "_floats", _PolygonFloats(xy, dyadic))
        return self._floats


@dataclass(frozen=True)
class Disk(ConvexBody):
    center: Point
    radius: Scalar

    def __post_init__(self):
        if self.radius < 0:
            raise BadRadius("disk radius must be >= 0")


@dataclass(frozen=True)
class DiskIntersection(ConvexBody):
    """Intersection of finitely many disks; must be nonempty."""

    disks: Tuple[Disk, ...]
    _feasible: Point = field(compare=False, repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.disks:
            raise EmptyInput("disk intersection needs at least one disk")
        if self._feasible is None:
            first: Sequence[int] = ()
            if len(self.disks) > _VIOLATION_BLOCK:
                # The boundary's arc disks lead the pruned search; abundance
                # and the support queries need the boundary anyway.
                b = _di_boundary(self.float_disks())
                object.__setattr__(self, "_boundary_cache", b)
                first = [i for i, _ in b.arcs]
            p = _disks_feasible_point(self.float_disks(), first)
            if p is None:
                raise EmptyInput("empty disk intersection")
            object.__setattr__(self, "_feasible", p)

    def float_disks(self) -> "_DiskFloats":
        """The disks' centres and radii as floats, converted once."""
        cached = getattr(self, "_float_cache", None)
        if cached is None:
            cached = _DiskFloats(self.disks)
            object.__setattr__(self, "_float_cache", cached)
        return cached

    def boundary(self) -> "_DIBoundary":
        cached = getattr(self, "_boundary_cache", None)
        if cached is None:
            cached = _di_boundary(self.float_disks())
            object.__setattr__(self, "_boundary_cache", cached)
        return cached


@dataclass(frozen=True)
class HullOfUnion(ConvexBody):
    """Lazy conv(base U extra); membership equals hull membership."""

    base: ConvexBody
    extra: Tuple[Point, ...]


@dataclass(frozen=True)
class Triangle:
    a0: Point
    a1: Point
    a2: Point

    def __post_init__(self):
        s = orient2d(self.a0, self.a1, self.a2)
        if s == 0:
            raise PreconditionViolated("degenerate (collinear) triangle")
        if s < 0:
            a1, a2 = self.a1, self.a2
            object.__setattr__(self, "a1", a2)
            object.__setattr__(self, "a2", a1)

    @property
    def points(self) -> Tuple[Point, Point, Point]:
        return (self.a0, self.a1, self.a2)

    def as_polygon(self) -> Polygon:
        """The triangle as a Polygon, built once, so its edge data is too."""
        cached = getattr(self, "_polygon", None)
        if cached is None:
            cached = Polygon(self.points)
            object.__setattr__(self, "_polygon", cached)
        return cached


# ---------------------------------------------------------------------------
# Hulls


def convex_hull(points: Sequence[Point]) -> Polygon:
    """Andrew monotone chain with exact orientation tests.

    When every coordinate converts to float exactly, the points are sorted
    and deduplicated on their floats, which order and equate them as their
    values do, each turn is decided by ``orient_filter`` and only a turn too
    close to call by ``orient2d``, and the hull's ``floats()`` are the same
    floats.
    """
    if not points:
        raise EmptyInput("convex_hull of empty set")
    dyadic = all(_converts_exactly(p.x) and _converts_exactly(p.y) for p in points)
    first = {}
    for p in points:  # keep the first of equal points
        first.setdefault((float(p.x), float(p.y)) if dyadic else (p.x, p.y), p)
    keys = sorted(first)
    pts = [Point(first[k].x, first[k].y) for k in keys]

    def half(order):
        out: List[int] = []
        for i in order:
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                s = orient_filter(*keys[a], *keys[b], *keys[i]) if dyadic else None
                if s is None:
                    s = orient2d(pts[a], pts[b], pts[i])
                if s > 0:
                    break
                out.pop()
            out.append(i)
        return out

    n = len(pts)
    hull = list(range(n))
    if n > 2:
        hull = half(hull)[:-1] + half(reversed(hull))[:-1]
        if len(hull) < 3:  # collinear input
            hull = [0, n - 1]
    floats = _PolygonFloats([keys[i] for i in hull], True) if dyadic else None
    return Polygon(tuple(pts[i] for i in hull), floats)


def polygonize(u: ConvexBody) -> Optional[Polygon]:
    """Exact polygon form of u, or None if u has curved boundary."""
    if isinstance(u, Polygon):
        return u
    if isinstance(u, Disk) and u.radius == 0:
        return Polygon((u.center,))
    if isinstance(u, HullOfUnion):
        base = polygonize(u.base)
        if base is not None:
            return convex_hull(list(base.vertices) + list(u.extra))
    return None


def hull_of_union(u: ConvexBody, extra: Sequence[Point]) -> ConvexBody:
    if not extra:
        return u
    poly = polygonize(u)
    if poly is not None:
        return convex_hull(list(poly.vertices) + list(extra))
    return HullOfUnion(u, tuple(extra))


# ---------------------------------------------------------------------------
# Polygon internals


class _PolygonFloats:
    """A polygon's vertices as floats, and per edge a -> b the tuple
    (a.x, a.y, b.x - a.x, b.y - a.y, max(dist(a, b), 1e-300)).

    ``dyadic`` says whether every vertex coordinate converts exactly.
    """

    __slots__ = ("edges", "dyadic")

    def __init__(self, xy: List[Tuple[float, float]], dyadic: bool):
        self.edges = [
            (ax, ay, bx - ax, by - ay, max(math.hypot(ax - bx, ay - by), 1e-300))
            for (ax, ay), (bx, by) in zip(xy, xy[1:] + xy[:1])
        ]
        self.dyadic = dyadic


# ---------------------------------------------------------------------------
# DiskIntersection internals


class _DiskFloats:
    """A disk set's centres and radii as floats, converted from Fractions
    once: lists ``x``, ``y`` and ``r`` for scalar loops, arrays ``c`` (n x 2)
    and ``radii``, and the centre distances of all pairs on first use."""

    def __init__(self, disks: Sequence[Disk]):
        self.x = [float(d.center.x) for d in disks]
        self.y = [float(d.center.y) for d in disks]
        self.r = [float(d.radius) for d in disks]
        self.c = np.array([self.x, self.y]).T
        self.radii = np.array(self.r)
        self._pairs: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The index pairs (i, j), i < j, in lexicographic order, and each
        pair's centre distance from ``math.hypot`` (``np.hypot`` may differ
        in the last bit)."""
        if self._pairs is None:
            n = len(self.r)
            i, j = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))
            dx, dy = self.c.T.take(j, axis=1) - self.c.T.take(i, axis=1)
            self._pairs = i, j, np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(i))
        return self._pairs


# Disks per step of the pruned least-violation search; beyond this many
# disks a DiskIntersection takes the array paths.
_VIOLATION_BLOCK = 8


def _disks_feasible_point(fd: _DiskFloats, first: Sequence[int] = (), slack: float = 1e-9) -> Optional[Point]:
    """A point in every disk, or None.

    Candidates: disk centers, then pairwise circle intersections (including
    tangency points); for disks this candidate set is complete whenever the
    intersection is nonempty.  Of each candidate list the first one of least
    violation max_i(|p - c_i| - r_i) is taken, found by the pruned exact
    search of ``_least_violation``, which takes the disks ``first`` (the
    boundary's arc disks) before the others.
    """
    C = fd.c
    tol = slack * max(1.0, max(fd.r) + 1.0)
    viol, pt = _least_violation(C, C, fd.radii, first)
    if viol <= tol:
        return Point(float(pt[0]), float(pt[1]))
    pair_pts = _circle_pair_points(fd)
    if len(pair_pts):
        viol2, pt2 = _least_violation(pair_pts, C, fd.radii, first)
        if viol2 < viol:
            viol, pt = viol2, pt2
    if viol <= tol:
        return Point(float(pt[0]), float(pt[1]))
    return None


def _least_violation(
    P: np.ndarray, C: np.ndarray, R: np.ndarray, first: Sequence[int] = ()
) -> Tuple[float, np.ndarray]:
    """The first row p of P with the least max_i(|p - c_i| - r_i), and that value.

    The same row and value as ``np.argmin`` over the full |P| x |C| matrix
    (distances from ``np.hypot``), without building it.  The disks are taken
    in blocks of 1, 2, 4, ... and then ``_VIOLATION_BLOCK`` at a time: those
    listed in ``first``, then the others, each group smallest radius first
    (the boundary's disks and the tightest ones reject most rows early, each
    about half of them).  After each block the row of least
    partial max gets its full value, an upper bound on the least one, and
    every row whose partial max exceeds that bound is dropped; once one block
    of rows is left, those rows get their full values.  A max is exact in any
    order, so no dropped row is a least one, and survivors keep their order,
    so ties still go to the first row.

    The partial maxima only decide drops, so they are taken as
    sqrt(dx^2 + dy^2) - r, within a few ulps of the ``np.hypot`` values at a
    fraction of the cost, and a row is dropped only when its partial max
    exceeds the bound by 1e-12 of the coordinates' scale.  Up to one block of
    disks this is a single evaluation of the full matrix.
    """
    px, py, cx, cy = P[:, 0], P[:, 1], C[:, 0], C[:, 1]

    def viol(rows, cols) -> np.ndarray:
        d = np.hypot(px[rows, None] - cx[None, cols], py[rows, None] - cy[None, cols])
        return (d - R[None, cols]).max(axis=1)

    if len(R) <= _VIOLATION_BLOCK:
        v = viol(slice(None), slice(None))
        k = int(np.argmin(v))
        return float(v[k]), P[k]
    later = np.ones(len(R), dtype=bool)
    later[list(first)] = False
    order = np.lexsort((R, later))
    slack = 1e-12 * (2 * float(np.abs(P).max() + np.abs(C).max()) + float(R.max()))
    rows = np.arange(len(P))
    qx, qy = px.copy(), py.copy()  # the rows still in the search
    part = np.full(len(P), -np.inf)
    bound = np.inf
    s, size = 0, 1
    while s < len(R) and len(rows) > _VIOLATION_BLOCK:
        cols = order[s : s + size]
        s, size = s + size, min(2 * size, _VIOLATION_BLOCK)
        dx, dy = cx[cols, None] - qx, cy[cols, None] - qy
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        dx -= R[cols, None]
        part = np.maximum(part, dx.max(axis=0))
        k = int(np.argmin(part))
        bound = min(bound, float(viol(rows[k : k + 1], slice(None))[0]))
        keep = np.flatnonzero(part <= bound + slack)
        rows, part, qx, qy = rows.take(keep), part.take(keep), qx.take(keep), qy.take(keep)
    v = viol(rows, slice(None))
    k = int(np.argmin(v))
    return float(v[k]), P[rows[k]]


_QUARTER_TURN = np.array([[-1.0], [1.0]])


def _circle_pair_points(fd: _DiskFloats) -> np.ndarray:
    """Every pairwise circle point, one row each: pairs (i, j), i < j, in
    lexicographic order, each with its + point before its - point, one point
    at a tangency and none for concentric or separate circles.  Beyond
    ``math.hypot`` for the distance this is plain IEEE arithmetic in the
    order of the scalar formula, so every point has its bits."""
    if len(fd.r) <= _VIOLATION_BLOCK:
        # A few pairs cost less as Python floats than as array passes.
        X, Y, R = fd.x, fd.y, fd.r
        pts = []
        for i, j in itertools.combinations(range(len(R)), 2):
            dx, dy = X[j] - X[i], Y[j] - Y[i]
            d = math.hypot(dx, dy)
            if d == 0.0:
                continue
            a = (d * d + R[i] * R[i] - R[j] * R[j]) / (2 * d)
            h2 = R[i] * R[i] - a * a
            mx, my = X[i] + a * dx / d, Y[i] + a * dy / d
            if h2 > 0:
                h = math.sqrt(h2)
                ox, oy = -dy / d * h, dx / d * h
                pts += [(mx + ox, my + oy), (mx - ox, my - oy)]
            elif h2 > -1e-12 * max(1.0, R[i] * R[i]):
                pts.append((mx, my))
        return np.array(pts).reshape(-1, 2)
    i, j, d = fd.pairs()
    c1 = fd.c.T.take(i, axis=1)
    dc = fd.c.T.take(j, axis=1) - c1
    r1, r2 = fd.radii[i], fd.radii[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (d * d + r1 * r1 - r2 * r2) / (2 * d)
        h2 = r1 * r1 - a * a
        mid = c1 + a * dc / d
        # (-dy / d * h, dx / d * h): negation is exact
        off = (dc / d * np.sqrt(h2))[::-1] * _QUARTER_TURN
    two = (d != 0.0) & (h2 > 0)  # crossing: both points
    some = (d != 0.0) & (h2 > -1e-12 * np.maximum(1.0, r1 * r1))  # crossing or touching
    plus, minus = np.where(two, mid + off, mid), mid - off
    pts = np.stack([plus[0], plus[1], minus[0], minus[1]], axis=1).reshape(-1, 2)
    return pts.take(np.flatnonzero(np.stack([some, two], axis=1)), axis=0)


@dataclass
class _DIBoundary:
    # per contributing circle: (disk index, list of (angle_start, angle_end))
    arcs: List[Tuple[int, List[Tuple[float, float]]]]
    corners: List[Point]


def _di_boundary(fd: _DiskFloats) -> _DIBoundary:
    """The arcs of the circles that bound the intersection, and its corners.

    Circle i keeps the angles inside every other disk j, [beta - gamma, beta
    + gamma] with beta = atan2(c_j - c_i) and gamma = acos(t), t = (r_i^2 +
    d^2 - r_j^2) / (2 r_i d), intersected with [0, 2 pi]; an arc past angle 0
    is split there.  Disk j kills circle i when j is a point (it holds no
    arc of positive length, and acos of a t rounded just below 1 would leave
    a sliver off the point) or when circle i lies outside it (t >= 1 and not
    tangent from inside, or the same centre and a larger radius), and cuts
    nothing when t <= -1.

    As a set the arc does not depend on the order of the disks, and each
    endpoint is one of the floats beta +- gamma (+- 2 pi), 0 or 2 pi, so
    the arc is the same when built from only the disks that can change it.
    Up to ``_VIOLATION_BLOCK`` disks every circle meets every other disk;
    beyond, ``_arc_filter`` drops the dead circles and the disks that cannot
    change an arc in array passes.  Corners are the arc endpoints of circles
    that are not whole, in circle order, less the two ends 0 and 2 pi of an
    arc split at angle 0; a corner within 1e-9 of an earlier one is dropped.
    """
    n = len(fd.r)
    if n > _VIOLATION_BLOCK:
        circles, clippers = _arc_filter(fd)
    else:
        circles, clippers = range(n), [range(n)] * n
    X, Y, R = fd.x, fd.y, fd.r
    arcs: List[Tuple[int, List[Tuple[float, float]]]] = []
    corners: List[Point] = []
    for i, others in zip(circles, clippers):
        xi, yi, ri = X[i], Y[i], R[i]
        if ri == 0.0:
            continue
        intervals: List[Tuple[float, float]] = [(0.0, TWO_PI)]
        for j in others:
            if j == i:
                continue
            rj = R[j]
            if rj == 0.0:
                # A point disk holds no arc of positive length; acos of a t
                # rounded just below 1 would leave a sliver off the point.
                intervals = []
                break
            dx, dy = X[j] - xi, Y[j] - yi
            dij = math.hypot(dx, dy)
            if dij == 0.0:
                if ri <= rj:
                    continue
                intervals = []
                break
            t = (ri * ri + dij * dij - rj * rj) / (2 * ri * dij)
            if t <= -1.0:
                continue
            if t >= 1.0:
                if dij <= rj - ri + 1e-12 * max(1.0, rj):
                    continue  # tangent from inside; circle survives
                intervals = []
                break
            beta = math.atan2(dy, dx)
            gamma = math.acos(t)
            lo, hi = beta - gamma, beta + gamma
            pieces = ((lo - TWO_PI, hi - TWO_PI), (lo, hi), (lo + TWO_PI, hi + TWO_PI))
            clipped = []
            for a, b in intervals:
                for lo2, hi2 in pieces:
                    s = lo2 if lo2 > a else a
                    e = hi2 if hi2 < b else b
                    if s < e:
                        clipped.append((s, e))
            intervals = clipped
            if not intervals:
                break
        if not intervals:
            continue
        intervals.sort()
        arcs.append((i, intervals))
        full = sum(e - s for s, e in intervals) >= TWO_PI - 1e-12
        if not full:
            ends = [a for iv in intervals for a in iv]
            if ends[0] == 0.0 and ends[-1] == TWO_PI:  # an arc split at angle 0
                ends = ends[1:-1]
            for a in ends:
                corners.append(Point(xi + ri * math.cos(a), yi + ri * math.sin(a)))
    uniq: List[Point] = []
    for p in corners:
        if all(dist(p, q) > 1e-9 for q in uniq):
            uniq.append(p)
    return _DIBoundary(arcs, uniq)


# Bound on the difference between numpy's and math's atan2 and acos (a few
# ulps), with room to spare.
_ANGLE_SLACK = 1e-9


def _arc_filter(fd: _DiskFloats) -> Tuple[List[int], List[List[int]]]:
    """The circles of ``_di_boundary`` that may keep an arc, and for each the
    other disks that may change it, from array passes over all pairs.

    A point disk kills every circle, and the other kill rules are evaluated
    exactly, with the same t.  The arcs are then taken in float
    (``np.arctan2``, ``np.arccos``), each within ``_ANGLE_SLACK`` of its
    exact arc.  Around a reference arc shorter than a half circle every other
    such arc unwraps without ambiguity, so their intersection is [L, H], the
    max of their starts against the min of their ends, and the exact arc
    lies in [L - 2 slack, H + 2 slack].  Widened once more, this is an arc A
    of centre m and half-width w.  A circle is dead when some arc, widened by
    the slack, misses A.  Otherwise its arc is clipped by the reference disk,
    which keeps it near [L, H], and by every disk whose arc, narrowed by the
    slack, does not hold A (those of L and H among them), which leaves it in
    A; the disks whose arcs hold A cannot change it.  A circle without short
    arcs is clipped by every disk that cuts it.
    """
    x, y, r = fd.c[:, 0], fd.c[:, 1], fd.radii
    if not r.all():
        return [], []
    i, j, dij = fd.pairs()
    d = np.zeros((len(r), len(r)))
    d[i, j] = d[j, i] = dij
    rows = np.arange(len(r))
    ri, rj = r[:, None], r[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ri * ri + d * d - rj * rj) / (2 * ri * d)
        gamma = np.arccos(t)  # nan where |t| > 1
    outside = (t >= 1.0) & (d > rj - ri + 1e-12 * np.maximum(1.0, rj))
    kill = ((d == 0.0) & (ri > rj)) | outside
    cut = np.abs(t) < 1.0
    short = cut & (gamma < 0.5 * math.pi - 2 * _ANGLE_SLACK)
    beta = np.arctan2(y[None, :] - y[:, None], x[None, :] - x[:, None])  # direction of c_j - c_i
    ref = np.argmin(np.where(short, gamma, np.inf), axis=1)
    rel = beta - beta[rows, ref][:, None]
    rel = np.where(rel > math.pi, rel - TWO_PI, np.where(rel <= -math.pi, rel + TWO_PI, rel))
    a = np.where(short, rel - gamma, -np.inf).max(axis=1) - 3 * _ANGLE_SLACK
    b = np.where(short, rel + gamma, np.inf).min(axis=1) + 3 * _ANGLE_SLACK
    with np.errstate(invalid="ignore"):
        m, w = (0.5 * (a + b))[:, None], (0.5 * (b - a))[:, None]  # nan without short arcs
    e = np.abs(rel - m)
    e = np.where(e > math.pi, TWO_PI - e, e)  # circular distance of the centres
    held = e + w + _ANGLE_SLACK <= gamma
    held[rows, ref] = False
    misses = e > gamma + _ANGLE_SLACK + w
    alive = ~(kill | (cut & misses)).any(axis=1)
    circles = np.flatnonzero(alive)
    keep = cut[circles] & ~held[circles]
    return circles.tolist(), [np.flatnonzero(k).tolist() for k in keep]


# An angle within this of an arc's ends counts as on the arc.
_ARC_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Piece tables


class _Pieces(NamedTuple):
    """A primitive body's support function h(n) = max c·n + r as pieces.

    ``points`` are the pieces with r = 0, as given (``xy`` their floats,
    ``array`` the same as an (n, 2) array).  ``disks`` are the curved pieces
    (x, y, r, arcs): a disk counts at the normal angles of ``arcs`` (a list of
    intervals in [0, 2 pi]), or at every angle where ``arcs`` is None.
    """

    points: Sequence[Point]
    xy: List[Tuple[float, float]]
    array: np.ndarray
    disks: List[Tuple[float, float, float, Optional[List[Tuple[float, float]]]]]


def _pieces(u: ConvexBody) -> _Pieces:
    """u's piece table, built once: a polygon's vertices; a disk whole; a
    disk intersection's arc disks with their arcs and its corners (its
    feasible point when no circle bounds it)."""
    cached = u._pieces_cache
    if cached is not None:
        return cached
    if isinstance(u, Polygon):
        pts, xy, disks = u.vertices, [e[:2] for e in u.floats().edges], []
    elif isinstance(u, Disk):
        pts, xy, disks = (), [], [(float(u.center.x), float(u.center.y), float(u.radius), None)]
    elif isinstance(u, DiskIntersection):
        b, fd = u.boundary(), u.float_disks()
        pts = b.corners if b.arcs else [u._feasible]
        xy = [(float(p.x), float(p.y)) for p in pts]
        disks = [(fd.x[i], fd.y[i], fd.r[i], ivs) for i, ivs in b.arcs]
    else:
        raise TypeError(f"unknown body {type(u)}")
    cached = _Pieces(pts, xy, np.array(xy).reshape(-1, 2), disks)
    object.__setattr__(u, "_pieces_cache", cached)
    return cached


def _on_arcs(arcs: Optional[List[Tuple[float, float]]], y: float, x: float) -> bool:
    """Whether a disk piece counts at the angle of (x, y): always without
    arcs, else within ``_ARC_SLACK`` of one of them."""
    if arcs is None:
        return True
    a = math.atan2(y, x) % TWO_PI
    for s, e in arcs:
        for k in (-1, 0, 1):
            if s - _ARC_SLACK <= a + k * TWO_PI <= e + _ARC_SLACK:
                return True
    return False


def _arc_mask(angles: np.ndarray, arcs: List[Tuple[float, float]]) -> np.ndarray:
    """Which of ``angles`` (in [0, 2 pi)) lie on ``arcs``, with ``_ARC_SLACK``."""
    mask = np.zeros(len(angles), dtype=bool)
    for s, e in arcs:
        s2, e2 = s % TWO_PI, e % TWO_PI
        if e - s >= TWO_PI - 1e-12:
            mask[:] = True
        elif s2 <= e2:
            mask |= (angles >= s2 - _ARC_SLACK) & (angles <= e2 + _ARC_SLACK)
        else:
            mask |= (angles >= s2 - _ARC_SLACK) | (angles <= e2 + _ARC_SLACK)
    return mask


# ---------------------------------------------------------------------------
# Support functions


def support_value(u: ConvexBody, nx: float, ny: float) -> float:
    """max over u of <x, n> for a unit direction n (float track)."""
    if isinstance(u, HullOfUnion):
        best = support_value(u.base, nx, ny)
        for p in u.extra:
            best = max(best, float(p.x) * nx + float(p.y) * ny)
        return best
    t = u._pieces_cache or _pieces(u)  # the hot path of the grid refinement
    best = -math.inf
    for x, y, r, arcs in t.disks:
        v = x * nx + y * ny + r
        if v > best and _on_arcs(arcs, ny, nx):
            best = v
    for x, y in t.xy:
        v = x * nx + y * ny
        if v > best:
            best = v
    return best


def support_grid(u: ConvexBody, dirs: np.ndarray = GRID_DIRS) -> np.ndarray:
    """Vectorized support values over a direction grid."""
    if isinstance(u, HullOfUnion):
        out = support_grid(u.base, dirs)
        if u.extra:
            P = np.array([(float(p.x), float(p.y)) for p in u.extra])
            out = np.maximum(out, (P @ dirs.T).max(axis=0))
        return out
    t = _pieces(u)
    out = (t.array @ dirs.T).max(axis=0) if t.xy else np.full(len(dirs), -np.inf)
    angles = None
    for x, y, r, arcs in t.disks:
        vals = np.maximum(out, dirs @ np.array([x, y]) + r)
        if arcs is not None:
            angles = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), TWO_PI) if angles is None else angles
            vals = np.where(_arc_mask(angles, arcs), vals, out)
        out = vals
    return out


def tie_directions(c1: np.ndarray, r1: np.ndarray, c2: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Unit directions n with c1·n + r1 = c2·n + r2, for each row pair.

    The ties of two support pieces are the normals of the common outer
    tangents of their disks: two per pair, one where the disks touch
    internally, none where one disk holds the other or the centres coincide.
    Returns an (m, 2) array.
    """
    d = c1 - c2
    length = np.hypot(d[:, 0], d[:, 1])
    t = np.divide(r2 - r1, length, out=np.full_like(length, np.inf), where=length > 0)
    ok = np.abs(t) <= 1.0 + 1e-12  # rounding may push a touching pair past 1
    u = d[ok] / length[ok, None]
    t = np.clip(t[ok], -1.0, 1.0)[:, None]
    s = np.sqrt(1.0 - t * t)
    perp = np.stack([-u[:, 1], u[:, 0]], axis=1)
    return np.concatenate([t * u + s * perp, t * u - s * perp])


def unit_directions(d: np.ndarray) -> np.ndarray:
    """The nonzero rows of d, scaled to unit length."""
    length = np.hypot(d[:, 0], d[:, 1])
    keep = length > 0
    return d[keep] / length[keep, None]


def _support_pieces(u: ConvexBody) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u's support function as pieces (centres, radii) and breakpoints.

    h_u(n) is the largest c·n + r among the pieces active at n, and the active
    piece changes only at one of the returned breakpoint directions (a
    superset: arc endpoints, edge normals, ties of extra points).
    """
    if isinstance(u, HullOfUnion):
        C, R, B = _support_pieces(u.base)
        P = np.array([(float(p.x), float(p.y)) for p in u.extra]).reshape(-1, 2)
        C = np.concatenate([C, P])
        R = np.concatenate([R, np.zeros(len(P))])
        i, j = np.divmod(np.arange(len(P) * len(C)), len(C))
        ties = tie_directions(P[i], np.zeros(len(i)), C[j], R[j])
        return C, R, np.concatenate([B, ties])
    t = _pieces(u)
    P, zero = t.array, np.zeros(len(t.xy))
    C = np.concatenate([np.array([d[:2] for d in t.disks]).reshape(-1, 2), P])
    R = np.concatenate([[d[2] for d in t.disks], zero])
    if not t.disks:  # a polygon: its edge normals
        return C, R, tie_directions(P, zero, np.roll(P, -1, axis=0), zero)
    ends = np.array([a for *_, arcs in t.disks if arcs is not None for iv in arcs for a in iv])
    return C, R, np.stack([np.cos(ends), np.sin(ends)], axis=1)


def _golden_min(f, lo: float, hi: float, iters: int = 48) -> Tuple[float, float]:
    """Golden-section minimum of f on [lo, hi], as (argmin, value)."""
    invphi = (math.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def support_margin(a: ConvexBody, b: ConvexBody) -> float:
    """min over directions of h_a - h_b; >= 0 iff b is included in a."""
    m = support_grid(a) - support_grid(b)
    k = int(np.argmin(m))
    grid_min = float(m[k])
    lo = _GRID_ANGLES[k] - TWO_PI / GRID_N
    hi = _GRID_ANGLES[k] + TWO_PI / GRID_N

    def f(theta: float) -> float:
        nx, ny = math.cos(theta), math.sin(theta)
        return support_value(a, nx, ny) - support_value(b, nx, ny)

    return min(grid_min, _golden_min(f, lo, hi)[1])


def point_margin(u: ConvexBody, p: Point) -> float:
    """min over directions of h_u - <p, n>; >= 0 iff p in u."""
    return support_margin(u, Polygon((p,)))


# ---------------------------------------------------------------------------
# Membership


def contains_point(u: ConvexBody, p: Point, mode: str = "closed", tol: Tolerance = DEFAULT_TOL) -> bool:
    if mode not in ("closed", "strict"):
        raise ValueError("mode must be 'closed' or 'strict'")
    eps = tol.eps
    if isinstance(u, Polygon):
        return _polygon_contains(u, p, mode, eps)
    if isinstance(u, Disk):
        if eps == 0 and p.exact and u.center.exact and is_exact(u.radius):
            d2 = dist2(p, u.center)
            r2 = u.radius * u.radius
            return d2 <= r2 if mode == "closed" else d2 < r2
        d = dist(p, u.center)
        r = float(u.radius)
        return d <= r + eps if mode == "closed" else d < r - eps
    if isinstance(u, DiskIntersection):
        return all(contains_point(d, p, mode, tol) for d in u.disks)
    if isinstance(u, HullOfUnion):
        poly = polygonize(u)
        if poly is not None:
            return _polygon_contains(poly, p, mode, eps)
        m = point_margin(u, p)
        return m >= -eps if mode == "closed" else m > eps
    raise TypeError(f"unknown body {type(u)}")


# With every coordinate converting exactly (``_converts_exactly``), the float
# cross product t1 - t2 of an edge is within (3u + 16u²)(|t1| + |t2|) of the
# exact one (u = 2**-53; Shewchuk, DCG 1997).  ``_cross_offset``'s, whose
# products mix exact and rounded factors, is within 5u(|t1| + |t2|) of it
# after the conversion to float, to first order.  The two divisions by the
# edge length add 2u(|t1| + |t2|)/length, so the two offsets differ by at
# most about 10u(|t1| + |t2|)/length; the rest of 16u covers the rounding of
# the filter's own tests.  The float offset decides an edge when the verdict
# is the same at both ends of that interval.
_OFFSET_ERR = 16 * 2.0**-53


def _cross_offset(a: Point, b: Point, p: Point, length: float) -> float:
    """Signed offset of p from the edge a -> b (left positive), from the cross
    product on the input coordinates, exact where they are exact."""
    return float(cross(b - a, p - a)) / length


def _polygon_contains(u: Polygon, p: Point, mode: str, eps: float) -> bool:
    vs = u.vertices
    if len(vs) == 1:
        if mode == "strict":
            return False
        if eps == 0 and p.exact and vs[0].exact:
            return p.x == vs[0].x and p.y == vs[0].y
        return dist(p, vs[0]) <= eps
    if len(vs) == 2:
        if mode == "strict":
            return False
        a, b = vs
        if eps == 0 and p.exact and a.exact and b.exact:
            if cross(b - a, p - a) != 0:
                return False
            t = dot(p - a, b - a)
            return 0 <= t <= dot(b - a, b - a)
        return seg_point_dist(a, b, p) <= eps
    strict = mode == "strict"
    if eps == 0 and p.exact and all(v.exact for v in vs):
        for a, b in zip(vs, vs[1:] + (vs[0],)):
            c = cross(b - a, p - a)
            if c < 0 or strict and c == 0:
                return False
        return True
    exact_floats = _converts_exactly(p.x) and _converts_exactly(p.y)
    return _edges_hold(u, p, (float(p.x), float(p.y)) if exact_floats else None, strict, eps)


def _edges_hold(u: Polygon, p: Point, pxy: Optional[Tuple[float, float]], strict: bool, eps: float) -> bool:
    """Whether p is within eps of every edge of u (a polygon of at least 3
    vertices), or more than eps inside with ``strict``.  ``pxy`` is p as
    floats when both coordinates convert exactly, else None."""
    vs = u.vertices
    pf = u.floats()
    filtered = pf.dyadic and pxy is not None
    if filtered:
        px, py = pxy
    for i, (ax, ay, ex, ey, length) in enumerate(pf.edges):
        if filtered:
            t1 = ex * (py - ay)
            t2 = ey * (px - ax)
            off = (t1 - t2) / length
            err = _OFFSET_ERR * (abs(t1) + abs(t2)) / length
            if (off - err > eps) if strict else (off - err >= -eps):
                continue
            if (off + err <= eps) if strict else (off + err < -eps):
                return False
        off = _cross_offset(vs[i], vs[(i + 1) % len(vs)], p, length)
        if (off <= eps) if strict else (off < -eps):
            return False
    return True


# ---------------------------------------------------------------------------
# Inclusion


def includes(a: ConvexBody, b: ConvexBody, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff b is a subset of a (up to tol.eps slack)."""
    eps = tol.eps
    bp = polygonize(b)
    if bp is not None:
        if isinstance(a, Polygon) and len(a.vertices) >= 3 and eps > 0:
            bf = bp.floats()
            return all(
                _edges_hold(a, v, e[:2] if bf.dyadic else None, False, eps) for v, e in zip(bp.vertices, bf.edges)
            )
        return all(contains_point(a, v, "closed", tol) for v in bp.vertices)
    if isinstance(a, Polygon) and len(a.vertices) >= 3 and isinstance(b, (Disk, DiskIntersection)):
        return _edge_margin(a, b) >= -eps
    if isinstance(b, Disk):
        return _includes_disk(a, b, eps)
    if isinstance(b, DiskIntersection):
        if isinstance(a, Disk):
            return farthest_dist(b, a.center) <= float(a.radius) + eps
        if isinstance(a, DiskIntersection):
            return all(farthest_dist(b, d.center) <= float(d.radius) + eps for d in a.disks)
        return support_margin(a, b) >= -eps
    if isinstance(b, HullOfUnion):
        return includes(a, b.base, tol) and all(contains_point(a, p, "closed", tol) for p in b.extra)
    raise TypeError(f"unknown body {type(b)}")


def _edge_margin(a: Polygon, b: ConvexBody) -> float:
    """min over the edges e of a of <a_e, n_e> - h_b(n_e), with a_e the
    edge's start vertex and n_e its outward unit normal.

    ``a`` is a CCW polygon of at least 3 vertices.  The value is >= 0 iff b
    is included in a, and when it is, it is the largest t with b + tB in a,
    the true support margin.  Edges of zero length have no normal and are
    skipped; a polygon with no other edge is one point, for the grid search.
    """
    m = math.inf
    for ax, ay, ex, ey, length in a.floats().edges:
        if ex == 0.0 and ey == 0.0:
            continue
        nx, ny = ey / length, -ex / length
        m = min(m, ax * nx + ay * ny - support_value(b, nx, ny))
    return m if m < math.inf else support_margin(a, b)


def _includes_disk(a: ConvexBody, b: Disk, eps: float) -> bool:
    if isinstance(a, Disk):
        if a.center.exact and b.center.exact and is_exact(a.radius) and is_exact(b.radius) and eps == 0:
            if b.radius > a.radius:
                return False
            gap = a.radius - b.radius
            return dist2(a.center, b.center) <= gap * gap
        return dist(a.center, b.center) <= float(a.radius) - float(b.radius) + eps
    if isinstance(a, DiskIntersection):
        return all(_includes_disk(d, b, eps) for d in a.disks)
    if isinstance(a, Polygon):  # a point or a segment
        return float(b.radius) <= eps and contains_point(a, b.center, "closed", Tolerance(max(eps, 0.0)))
    if isinstance(a, HullOfUnion):
        return support_margin(a, b) >= -eps
    raise TypeError(f"unknown body {type(a)}")


def loosely_includes(v2: ConvexBody, v1: ConvexBody, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every point of v1 is interior to v2 with margin > eps."""
    eps = tol.eps
    p1 = polygonize(v1)
    if p1 is not None:
        return all(contains_point(v2, v, "strict", tol) for v in p1.vertices)
    return support_margin(v2, v1) > eps


# ---------------------------------------------------------------------------
# Supporting lines


def support_point(u: ConvexBody, nx: float, ny: float) -> Point:
    """Canonical maximizer of <x, n>: lexicographic minimum among ties."""
    return _lex_min_maximizer(_support_candidates(u, nx, ny), nx, ny)


def _support_candidates(u: ConvexBody, nx: float, ny: float) -> List[Point]:
    """Points of u among which its maximizers of <x, n> lie: the extreme
    point of each disk piece that counts at n, then the point pieces; for a
    HullOfUnion, the base's support point and the extra points."""
    if isinstance(u, HullOfUnion):
        return [support_point(u.base, nx, ny)] + list(u.extra)
    t = _pieces(u)
    n = math.hypot(nx, ny)
    out = [Point(x + r * nx / n, y + r * ny / n) for x, y, r, arcs in t.disks if _on_arcs(arcs, ny, nx)]
    return out + list(t.points)


def _lex_min_maximizer(pts, nx: float, ny: float) -> Point:
    """Among the points maximizing <x, n> (within relative 1e-12), the
    lexicographically least one."""
    best = None
    best_val = 0.0
    for p in pts:
        v = float(p.x) * nx + float(p.y) * ny
        if best is None or v > best_val + 1e-12 * max(1.0, abs(best_val)):
            best, best_val = p, v
        elif abs(v - best_val) <= 1e-12 * max(1.0, abs(best_val)) and (
            (float(p.x), float(p.y)) < (float(best.x), float(best.y))
        ):
            best = p
    return best


def supporting_line(u: ConvexBody, d: Direction) -> PointedSupportLine:
    """The unique directed supporting line of direction d, body on its left."""
    n = d.right_normal()
    nf = n.unit()
    sp = support_point(u, nf[0], nf[1])
    return PointedSupportLine(sp, DirectedLine(sp, d))


def nearest_point(u: ConvexBody, p: Point) -> Point:
    """Closest point of u to p (p itself if inside)."""
    if contains_point(u, p, "closed", Tolerance(0.0) if p.exact else DEFAULT_TOL):
        return p
    if isinstance(u, Polygon):
        vs = u.vertices
        if len(vs) == 1:
            return vs[0]
        best, bd = None, math.inf
        pairs = list(zip(vs, vs[1:] + (vs[0],))) if len(vs) > 2 else [(vs[0], vs[1])]
        for a, b in pairs:
            q = project_to_segment(a, b, p)
            dq = dist(p, q)
            if dq < bd:
                best, bd = q, dq
        return best
    if isinstance(u, HullOfUnion):
        # maximize <p,n> - h(n) over the direction grid, then refine
        hp = GRID_DIRS @ np.array([float(p.x), float(p.y)])
        m = hp - support_grid(u)
        k = int(np.argmax(m))

        def f(theta):
            nx, ny = math.cos(theta), math.sin(theta)
            return -(float(p.x) * nx + float(p.y) * ny - support_value(u, nx, ny))

        lo = _GRID_ANGLES[k] - TWO_PI / GRID_N
        hi = _GRID_ANGLES[k] + TWO_PI / GRID_N
        t, neg = _golden_min(f, lo, hi)
        dbest = -neg
        if m[k] > dbest:
            t, dbest = _GRID_ANGLES[k], float(m[k])
        nx, ny = math.cos(t), math.sin(t)
        return Point(float(p.x) - dbest * nx, float(p.y) - dbest * ny)
    t = _pieces(u)
    px, py = float(p.x), float(p.y)
    cands = []
    for x, y, r, arcs in t.disks:
        dx, dy = px - x, py - y
        n = math.hypot(dx, dy)
        if n == 0:
            dx, n = 1.0, 1.0
        if _on_arcs(arcs, dy, dx):
            cands.append(Point(x + r * dx / n, y + r * dy / n))
    return min(cands + list(t.points), key=lambda q: dist(p, q))


def dist_to_body(u: ConvexBody, p: Point, tol: Tolerance = DEFAULT_TOL) -> float:
    if contains_point(u, p, "closed", tol):
        return 0.0
    return dist(p, nearest_point(u, p))


def farthest_dist(u: ConvexBody, c: Point) -> float:
    """Covering radius of u from c: max over u of the distance to c."""
    if isinstance(u, HullOfUnion):
        best = farthest_dist(u.base, c)
        for p in u.extra:
            best = max(best, dist(c, p))
        return best
    t = _pieces(u)
    cx, cy = float(c.x), float(c.y)
    # A circle's farthest point from c lies on the ray from c through its centre.
    far = [math.hypot(x - cx, y - cy) + r for x, y, r, arcs in t.disks if _on_arcs(arcs, y - cy, x - cx)]
    return max(far + [dist(c, q) for q in t.points])


def separating_support_line(u: ConvexBody, p: Point, tol: Tolerance = DEFAULT_TOL) -> PointedSupportLine:
    """A directed supporting line of u with p strictly on its right."""
    if contains_point(u, p, "closed", tol):
        raise NotSeparable("point lies in the body")
    q = nearest_point(u, p)
    nx, ny = float(p.x) - float(q.x), float(p.y) - float(q.y)
    nn = math.hypot(nx, ny)
    nx, ny = nx / nn, ny / nn
    d = Direction(-ny, nx)
    return PointedSupportLine(q, DirectedLine(q, d))


def interior_point(u: ConvexBody) -> Point:
    """A representative interior point (the point itself for singletons)."""
    if isinstance(u, Polygon):
        n = len(u.vertices)
        sx = sum(v.x for v in u.vertices)
        sy = sum(v.y for v in u.vertices)
        if all(v.exact for v in u.vertices):
            return Point(Fraction(sx, n), Fraction(sy, n))
        return Point(float(sx) / n, float(sy) / n)
    if isinstance(u, Disk):
        return u.center
    if isinstance(u, DiskIntersection):
        b = u.boundary()
        pts = b.corners
        if len(pts) >= 2:
            sx = sum(float(p.x) for p in pts) / len(pts)
            sy = sum(float(p.y) for p in pts) / len(pts)
            cand = Point(sx, sy)
            if contains_point(u, cand, "closed", DEFAULT_TOL):
                return cand
        return u._feasible
    if isinstance(u, HullOfUnion):
        pts = [interior_point(u.base)] + list(u.extra)
        sx = sum(float(p.x) for p in pts) / len(pts)
        sy = sum(float(p.y) for p in pts) / len(pts)
        return Point(sx, sy)
    raise TypeError(f"unknown body {type(u)}")


# ---------------------------------------------------------------------------
# Tangents from an external point


def tangents_from_external_point(
    u: ConvexBody, f: Point, tol: Tolerance = DEFAULT_TOL
) -> Tuple[PointedSupportLine, PointedSupportLine]:
    """The two supporting lines of u through f; right tangent (seen from f) first."""
    from .errors import DegenerateNucleus, NotExternal

    if contains_point(u, f, "closed", tol):
        raise NotExternal("focus lies in the body")
    if _is_singleton(u):
        raise DegenerateNucleus("tangents from a point to a singleton are ill-defined")
    ip = interior_point(u)
    ref = math.atan2(float(ip.y) - float(f.y), float(ip.x) - float(f.x))

    def rel_angle(p: Point) -> float:
        a = math.atan2(float(p.y) - float(f.y), float(p.x) - float(f.x)) - ref
        while a > math.pi:
            a -= TWO_PI
        while a < -math.pi:
            a += TWO_PI
        return a

    cands = _tangent_candidates(u, f)
    lo = min(cands, key=rel_angle)
    hi = max(cands, key=rel_angle)

    def make_line(t: Point) -> PointedSupportLine:
        dx, dy = float(t.x) - float(f.x), float(t.y) - float(f.y)
        d = Direction(dx, dy)
        if cross(d, ip - t) < 0:
            d = d.reversed()
        return PointedSupportLine(t, DirectedLine(t, d))

    return make_line(lo), make_line(hi)


def _is_singleton(u: ConvexBody) -> bool:
    if isinstance(u, HullOfUnion):
        return _is_singleton(u.base) and all(dist(p, interior_point(u.base)) < 1e-12 for p in u.extra)
    t = _pieces(u)
    return len(t.points) <= 1 and all(r == 0.0 for _, _, r, _ in t.disks)


def _tangent_candidates(u: ConvexBody, f: Point) -> List[Point]:
    """The points of u that a tangent from f can touch: the point pieces,
    and each disk piece's two tangent points from f that lie on its arcs."""
    if isinstance(u, HullOfUnion):
        return _tangent_candidates(u.base, f) + list(u.extra)
    t = _pieces(u)
    fx, fy = float(f.x), float(f.y)
    out = list(t.points)
    for x, y, r, arcs in t.disks:
        d = math.hypot(fx - x, fy - y)
        if d <= r:
            continue
        beta = math.atan2(fy - y, fx - x)
        alpha = math.acos(r / d)
        for a in (beta + alpha, beta - alpha):
            ca, sa = math.cos(a), math.sin(a)
            if _on_arcs(arcs, sa, ca):
                out.append(Point(x + r * ca, y + r * sa))
    return out


# ---------------------------------------------------------------------------
# Line / boundary intersection


@dataclass(frozen=True)
class BoundaryHits:
    points: Tuple[Point, ...]
    segment: bool


def chord_interval(
    u: ConvexBody, l: DirectedLine, tol: Tolerance = DEFAULT_TOL
) -> Optional[Tuple[float, float]]:
    """Parameter interval (unit-speed along l) of the chord l cap u, or None."""
    ax, ay = float(l.anchor.x), float(l.anchor.y)
    ux, uy = l.d.unit()

    if isinstance(u, Disk):
        cx, cy, r = float(u.center.x), float(u.center.y), float(u.radius)
        mx, my = ax - cx, ay - cy
        b = mx * ux + my * uy
        c = mx * mx + my * my - r * r
        disc = b * b - c
        if disc < 0:
            if disc > -max(tol.eps, 1e-12) * max(1.0, r):
                return (-b, -b)
            return None
        s = math.sqrt(disc)
        return (-b - s, -b + s)
    if isinstance(u, DiskIntersection):
        lo, hi = -math.inf, math.inf
        for d in u.disks:
            iv = chord_interval(d, l, tol)
            if iv is None:
                return None
            lo, hi = max(lo, iv[0]), min(hi, iv[1])
        if lo > hi + max(tol.eps, 1e-12):
            return None
        return (lo, min(hi, max(lo, hi)))
    if isinstance(u, Polygon):
        vs = u.vertices
        if len(vs) == 1:
            p = vs[0]
            if abs(l.signed_offset(p)) <= max(tol.eps, 1e-12):
                t = l.param_of(p)
                return (t, t)
            return None
        lo, hi = -math.inf, math.inf
        edges = list(zip(vs, vs[1:] + (vs[0],))) if len(vs) > 2 else [(vs[0], vs[1]), (vs[1], vs[0])]
        for a, b in edges:
            ex, ey = float(b.x) - float(a.x), float(b.y) - float(a.y)
            # halfplane: cross(e, x - a) >= 0
            c0 = ex * (ay - float(a.y)) - ey * (ax - float(a.x))
            c1 = ex * uy - ey * ux
            if abs(c1) < 1e-14 * max(1.0, abs(ex) + abs(ey)):
                if c0 < -max(tol.eps, 1e-12) * math.hypot(ex, ey):
                    return None
                continue
            t = -c0 / c1
            if c1 > 0:
                lo = max(lo, t)
            else:
                hi = min(hi, t)
        if len(vs) == 2:
            # clip to the segment extent as well
            t0, t1 = l.param_of(vs[0]), l.param_of(vs[1])
            lo, hi = max(lo, min(t0, t1)), min(hi, max(t0, t1))
        if lo > hi + max(tol.eps, 1e-12):
            return None
        return (lo, hi) if lo <= hi else (lo, lo)
    if isinstance(u, HullOfUnion):
        # bracket via support, then sample and bisect membership
        pa = np.array([ax, ay])
        uu = np.array([ux, uy])
        t_hi = support_value(u, ux, uy) - float(pa @ uu)
        t_lo = -(support_value(u, -ux, -uy) + float(pa @ uu))
        if t_hi < t_lo:
            return None
        ts = np.linspace(t_lo, t_hi, 129)
        inside = [
            contains_point(u, Point(ax + t * ux, ay + t * uy), "closed", tol) for t in ts
        ]
        idx = [i for i, v in enumerate(inside) if v]
        if not idx:
            return None
        i0, i1 = idx[0], idx[-1]

        def bisect(t_in, t_out):
            for _ in range(50):
                tm = 0.5 * (t_in + t_out)
                if contains_point(u, Point(ax + tm * ux, ay + tm * uy), "closed", tol):
                    t_in = tm
                else:
                    t_out = tm
            return t_in

        lo = ts[i0] if i0 == 0 else bisect(ts[i0], ts[i0 - 1])
        hi = ts[i1] if i1 == len(ts) - 1 else bisect(ts[i1], ts[i1 + 1])
        return (float(lo), float(hi))
    raise TypeError(f"unknown body {type(u)}")


def line_boundary_intersections(
    u: ConvexBody, l: DirectedLine, tol: Tolerance = DEFAULT_TOL
) -> BoundaryHits:
    """l cap boundary(u): 0-2 points, or two endpoints with a segment flag."""
    iv = chord_interval(u, l, tol)
    if iv is None:
        return BoundaryHits((), False)
    t0, t1 = iv
    scale = max(1.0, abs(t0), abs(t1))
    if t1 - t0 <= max(tol.eps, 1e-9) * scale:
        return BoundaryHits((l.point_at(0.5 * (t0 + t1)),), False)
    p0, p1 = l.point_at(t0), l.point_at(t1)
    mid = l.point_at(0.5 * (t0 + t1))
    if contains_point(u, mid, "strict", tol):
        return BoundaryHits((p0, p1), False)
    return BoundaryHits((p0, p1), True)


# ---------------------------------------------------------------------------
# Edge-freeness, open extension, abundance


def is_edge_free(u: ConvexBody, tol: Tolerance = DEFAULT_TOL) -> bool:
    if isinstance(u, Polygon):
        return len(u.vertices) == 1
    if isinstance(u, (Disk, DiskIntersection)):
        return True
    if isinstance(u, HullOfUnion):
        outside = [p for p in u.extra if not contains_point(u.base, p, "closed", tol)]
        if outside:
            return False
        return is_edge_free(u.base, tol)
    raise TypeError(f"unknown body {type(u)}")


@dataclass(frozen=True)
class OpenExtension:
    """Membership-testable open region {X : dist(X, body) < d}."""

    body: ConvexBody
    d: float

    def contains(self, p: Point) -> bool:
        return dist_to_body(self.body, p) < self.d


def open_extension(u: ConvexBody, d: Scalar) -> OpenExtension:
    if d <= 0:
        raise BadRadius("extension distance must be positive")
    return OpenExtension(u, float(d))


def abundance(u: ConvexBody, v: ConvexBody, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest d with v inside the open d-extension of u (u must lie in v)."""
    if not includes(v, u, Tolerance(max(tol.eps, 1e-9))):
        raise PreconditionViolated("abundance requires u to be a subset of v")
    vp = polygonize(v)
    if vp is not None:
        return max(dist_to_body(u, w, tol) for w in vp.vertices)
    # Between breakpoints h_v - h_u = (c_i - c_j)·n + r_i - r_j for one piece
    # of each body, which peaks only at the ends or at n = (c_i - c_j)/|..|.
    Cv, _, Bv = _support_pieces(v)
    Cu, _, Bu = _support_pieces(u)
    peaks = unit_directions((Cv[:, None, :] - Cu[None, :, :]).reshape(-1, 2))
    dirs = np.concatenate([Bv, Bu, peaks, [(1.0, 0.0)]])
    return max(0.0, float((support_grid(v, dirs) - support_grid(u, dirs)).max()))


# ---------------------------------------------------------------------------
# Transforms and sampling


def transform_body(m: PlaneMap, u: ConvexBody) -> ConvexBody:
    if isinstance(u, Polygon):
        mapped = [m.apply(v) for v in u.vertices]
        if m.scale > 0 or len(mapped) <= 2:
            return Polygon(tuple(mapped))
        return convex_hull(mapped)
    if isinstance(u, Disk):
        s = m.scale
        return Disk(m.apply(u.center), abs(s) * u.radius)
    if isinstance(u, DiskIntersection):
        return DiskIntersection(tuple(transform_body(m, d) for d in u.disks))
    if isinstance(u, HullOfUnion):
        return HullOfUnion(transform_body(m, u.base), tuple(m.apply(p) for p in u.extra))
    raise TypeError(f"unknown body {type(u)}")


def boundary_samples(u: ConvexBody, n: int = 256) -> List[Point]:
    """Roughly uniform CCW walk of the boundary of u."""
    if isinstance(u, Polygon):
        vs = u.vertices
        if len(vs) == 1:
            return [vs[0]]
        closed = list(vs) + [vs[0]]
        lens = [dist(a, b) for a, b in zip(closed, closed[1:])]
        total = sum(lens) or 1.0
        out = []
        for (a, b), L in zip(zip(closed, closed[1:]), lens):
            k = max(1, int(round(n * L / total)))
            for i in range(k):
                t = i / k
                out.append(Point(float(a.x) + t * (float(b.x) - float(a.x)), float(a.y) + t * (float(b.y) - float(a.y))))
        return out
    if isinstance(u, Disk):
        c, r = u.center, float(u.radius)
        return [
            Point(float(c.x) + r * math.cos(a), float(c.y) + r * math.sin(a))
            for a in np.linspace(0, TWO_PI, n, endpoint=False)
        ]
    if isinstance(u, DiskIntersection):
        b = u.boundary()
        total = sum(
            float(u.disks[i].radius) * (e - s) for i, ivs in b.arcs for s, e in ivs
        )
        out: List[Point] = list(b.corners)
        if total == 0:
            return out or [u._feasible]
        for i, ivs in b.arcs:
            d = u.disks[i]
            r = float(d.radius)
            for s, e in ivs:
                k = max(2, int(round(n * r * (e - s) / total)))
                for a in np.linspace(s, e, k):
                    out.append(
                        Point(float(d.center.x) + r * math.cos(a), float(d.center.y) + r * math.sin(a))
                    )
        ip = interior_point(u)
        out.sort(key=lambda p: math.atan2(float(p.y) - float(ip.y), float(p.x) - float(ip.x)))
        return out
    if isinstance(u, HullOfUnion):
        # support points over the grid trace the boundary (corners repeat)
        out = []
        for a in np.linspace(0, TWO_PI, n, endpoint=False):
            out.append(support_point(u, math.cos(a), math.sin(a)))
        return out
    raise TypeError(f"unknown body {type(u)}")
