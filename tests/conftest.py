"""Shared generators for randomized tests (deterministic, seed-based)."""

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from planeconvex.bodies import Disk, DiskIntersection, contains_point, convex_hull
from planeconvex.errors import EmptyInput
from planeconvex.geom import DEFAULT_TOL, EXACT_TOL, Point
from planeconvex.rng import SplitMix64


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
        dists = np.hypot(
            cands[:, None, 0] - C[None, :, 0], cands[:, None, 1] - C[None, :, 1]
        )
        viol = (dists - R[None, :]).max(axis=1)
        k = int(np.argmin(viol))
        return float(viol[k]), cands[k]

    viol, pt = best_of(C)
    if viol <= tol:
        return Point(float(pt[0]), float(pt[1]))
    pair_pts = []
    n = len(disks)
    for i in range(n):
        for j in range(i + 1, n):
            pair_pts.extend(_circle_circle_points(disks[i], disks[j]))
    if pair_pts:
        viol2, pt2 = best_of(np.array(pair_pts))
        if viol2 < viol:
            viol, pt = viol2, pt2
    if viol <= tol:
        return Point(float(pt[0]), float(pt[1]))
    return None


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
