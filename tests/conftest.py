"""Shared generators for randomized tests (deterministic, seed-based)."""

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from planeconvex.bodies import Disk, DiskIntersection, Polygon, contains_point, convex_hull
from planeconvex.errors import EmptyInput
from planeconvex.geom import DEFAULT_TOL, EXACT_TOL, Point, cross, dist, dot, seg_point_dist
from planeconvex.rng import SplitMix64

TWO_PI = 2.0 * math.pi


def rational_point(rng: SplitMix64, lo: int = -10, hi: int = 10, den: int = 8) -> Point:
    return Point(
        Fraction(rng.randint(lo * den, hi * den), den),
        Fraction(rng.randint(lo * den, hi * den), den),
    )


def random_disk_intersection(rng: SplitMix64, max_disks: int = 4) -> DiskIntersection:
    """A nonempty intersection of 2..max_disks rational disks."""
    while True:
        nd = rng.randint(2, max_disks)
        disks = []
        for _ in range(nd):
            c = Point(Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
            r = Fraction(rng.randint(4, 12), 4)
            disks.append(Disk(c, r))
        try:
            return DiskIntersection(tuple(disks))
        except EmptyInput:
            continue


def dense_directions(n: int = 1 << 14):
    """n unit directions evenly spaced in angle (rows), and the angle step:
    the brute-force reference for closed-form extrema over directions."""
    step = 2 * math.pi / n
    a = np.arange(n) * step
    return np.stack([np.cos(a), np.sin(a)], axis=1), step


def brute_force_feasible_point(disks: Sequence[Disk], slack: float = 1e-9) -> Optional[Point]:
    """Reference for ``bodies._disks_feasible_point``: the first candidate of
    least violation max_i(|p - c_i| - r_i), read off the full candidate x
    disk matrix (disk centres first, then pairwise circle points)."""
    C = np.array([(float(d.center.x), float(d.center.y)) for d in disks])
    R = np.array([float(d.radius) for d in disks])
    tol = slack * max(1.0, float(R.max()) + 1.0)

    def best_of(cands: np.ndarray):
        # The matrix in slices of rows, to keep 200-disk sets small in memory.
        viol = np.concatenate([
            (np.hypot(rows[:, None, 0] - C[None, :, 0], rows[:, None, 1] - C[None, :, 1]) - R[None, :]).max(axis=1)
            for rows in np.array_split(cands, -(-len(cands) // 2048))
        ])
        k = int(np.argmin(viol))
        return float(viol[k]), cands[k]

    viol, pt = best_of(C)
    if viol <= tol:
        return Point(float(pt[0]), float(pt[1]))
    pair_pts = brute_force_pair_points(disks)
    if pair_pts:
        viol2, pt2 = best_of(np.array(pair_pts))
        if viol2 < viol:
            viol, pt = viol2, pt2
    if viol <= tol:
        return Point(float(pt[0]), float(pt[1]))
    return None


def brute_force_pair_points(disks: Sequence[Disk]):
    """Every pairwise circle point of the disks, pair by pair (i < j in
    lexicographic order), from the scalar formula."""
    return [p for i, a in enumerate(disks) for b in disks[i + 1 :] for p in _circle_circle_points(a, b)]


def brute_force_di_boundary(disks: Sequence[Disk]):
    """Reference for ``bodies._di_boundary``, as (arcs, corners): every
    circle clipped by every other disk in index order, one interval
    intersection at a time."""
    X = [float(d.center.x) for d in disks]
    Y = [float(d.center.y) for d in disks]
    R = [float(d.radius) for d in disks]
    arcs = []
    corners = []
    for i, ri in enumerate(R):
        if ri == 0.0:
            continue
        xi, yi = X[i], Y[i]
        intervals = [(0.0, TWO_PI)]
        dead = False
        for j, rj in enumerate(R):
            if i == j:
                continue
            if rj == 0.0:
                # A point disk holds no arc of positive length; acos of a t
                # rounded just below 1 would leave a sliver off the point.
                dead = True
                break
            dx = X[j] - xi
            dy = Y[j] - yi
            d = math.hypot(dx, dy)
            if d == 0.0:
                if ri <= rj:
                    continue
                dead = True
                break
            t = (ri * ri + d * d - rj * rj) / (2 * ri * d)
            if t <= -1.0:
                continue
            if t >= 1.0:
                if d <= rj - ri + 1e-12 * max(1.0, rj):
                    continue  # tangent from inside; circle survives
                dead = True
                break
            beta = math.atan2(dy, dx)
            gamma = math.acos(t)
            intervals = _interval_intersect(intervals, beta - gamma, beta + gamma)
            if not intervals:
                dead = True
                break
        if dead or not intervals:
            continue
        intervals = sorted(intervals)
        arcs.append((i, intervals))
        full = sum(e - s for s, e in intervals) >= TWO_PI - 1e-12
        if not full:
            ends = [a for iv in intervals for a in iv]
            if ends[0] == 0.0 and ends[-1] == TWO_PI:  # an arc split at angle 0
                ends = ends[1:-1]
            for a in ends:
                corners.append(Point(xi + ri * math.cos(a), yi + ri * math.sin(a)))
    uniq = []
    for p in corners:
        if all(dist(p, q) > 1e-9 for q in uniq):
            uniq.append(p)
    return arcs, uniq


def _interval_intersect(intervals, lo: float, hi: float):
    """Intersect a set of angular intervals with [lo, hi] (mod 2*pi)."""
    pieces = ((lo - TWO_PI, hi - TWO_PI), (lo, hi), (lo + TWO_PI, hi + TWO_PI))
    out = []
    for a, b in intervals:
        for lo2, hi2 in pieces:
            s = lo2 if lo2 > a else a
            e = hi2 if hi2 < b else b
            if s < e:
                out.append((s, e))
    return out


def brute_force_closure_points(points: Sequence[Point], mask: int) -> int:
    """Reference for ``convexgeo.closure_points``: build the hull of the
    chosen points and test every point against it, exactly when every
    coordinate is exact and within ``DEFAULT_TOL`` otherwise."""
    if mask == 0:
        return 0
    hull = convex_hull([p for i, p in enumerate(points) if mask >> i & 1])
    tol = EXACT_TOL if all(p.exact for p in points) else DEFAULT_TOL
    out = 0
    for i, p in enumerate(points):
        if mask >> i & 1 or contains_point(hull, p, "closed", tol):
            out |= 1 << i
    return out


def raw_orient2d(a: Point, b: Point, c: Point) -> int:
    """The orientation determinant's sign formed on the input coordinates as
    they are: exact on ints and Fractions, rounded wherever a float enters."""
    det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (det > 0) - (det < 0)


def brute_force_orient2d(a: Point, b: Point, c: Point) -> int:
    """Reference for ``geom.orient2d``: the exact sign, from the determinant
    on ``Fraction(x)`` of each coordinate."""
    F = Fraction
    return raw_orient2d(Point(F(a.x), F(a.y)), Point(F(b.x), F(b.y)), Point(F(c.x), F(c.y)))


def brute_force_convex_hull(points: Sequence[Point]) -> Polygon:
    """Reference for ``bodies.convex_hull``: Andrew's monotone chain on the
    input values, deduplicated by a set, with ``raw_orient2d`` turns."""
    if not points:
        raise EmptyInput("convex_hull of empty set")
    pts = sorted(set((p.x, p.y) for p in points))
    pts = [Point(x, y) for x, y in pts]
    if len(pts) <= 2:
        return Polygon(tuple(pts))

    def half(points_iter):
        out = []
        for p in points_iter:
            while len(out) >= 2 and raw_orient2d(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(reversed(pts))[:-1]
    if len(hull) < 3:  # collinear input
        return Polygon((pts[0], pts[-1]))
    return Polygon(tuple(hull))


def brute_force_polygon_contains(u, p: Point, mode: str, eps: float) -> bool:
    """Reference for ``bodies._polygon_contains``: with eps == 0 and exact
    input, the exact sign of each edge's cross product; otherwise that cross
    product on the input coordinates, converted to float and divided by the
    edge length, against -eps (closed) or eps (strict)."""
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
    exact = eps == 0 and p.exact and all(v.exact for v in vs)
    for a, b in zip(vs, vs[1:] + (vs[0],)):
        c = cross(b - a, p - a)
        if exact:
            if mode == "closed" and c < 0:
                return False
            if mode == "strict" and c <= 0:
                return False
        else:
            off = float(c) / max(dist(a, b), 1e-300)
            if mode == "closed" and off < -eps:
                return False
            if mode == "strict" and off <= eps:
                return False
    return True


def _circle_circle_points(d1: Disk, d2: Disk):
    x1, y1, r1 = float(d1.center.x), float(d1.center.y), float(d1.radius)
    x2, y2, r2 = float(d2.center.x), float(d2.center.y), float(d2.radius)
    dx, dy = x2 - x1, y2 - y1
    d = math.hypot(dx, dy)
    if d == 0.0:
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2 * d)
    h2 = r1 * r1 - a * a
    mx, my = x1 + a * dx / d, y1 + a * dy / d
    if h2 <= 0:
        if h2 > -1e-12 * max(1.0, r1 * r1):
            return [(mx, my)]
        return []
    h = math.sqrt(h2)
    ox, oy = -dy / d * h, dx / d * h
    return [(mx + ox, my + oy), (mx - ox, my - oy)]
