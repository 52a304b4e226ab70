"""Executable forms of the main planar constructions.

Carousel witnesses for point pairs in a triangle, the (j, k) witness search
for body pairs, comets and their loose-inclusion check, internal tangency and
its classification, shrinking a pair toward anchors with the
maximal-parameter bisection, rational-disk edge-free approximation,
Caratheodory-style decomposition over a hull of a body with two anchors, and
the boundary-crossing predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .bodies import (
    ConvexBody,
    Disk,
    DiskIntersection,
    PointedSupportLine,
    Polygon,
    Triangle,
    boundary_samples,
    chord_interval,
    contains_point,
    dist_to_body,
    farthest_dist,
    hull_of_union,
    includes,
    interior_point,
    is_edge_free,
    polygonize,
    support_grid,
    support_point,
    support_value,
    tangents_from_external_point,
    transform_body,
    GRID_N,
    _GRID_ANGLES,
    _golden_min,
    _is_singleton,
    _support_candidates,
)
from .errors import (
    DegenerateNucleus,
    EdgeFreeRequired,
    GeometryError,
    IndeterminateGeometry,
    NoInitialWitness,
    NotExternal,
    PreconditionViolated,
)
from .geom import (
    DEFAULT_TOL,
    DirectedLine,
    Direction,
    Point,
    Scalar,
    Tolerance,
    dist,
    orient2d,
)
from .transforms import PlaneMap, Translation, homothety

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Witness:
    """Which triangle vertex is dropped (j) and which body seeds the hull (k)."""

    j: int
    k: int

    def __post_init__(self):
        if self.j not in (0, 1, 2) or self.k not in (0, 1):
            raise ValueError("witness indices out of range")


# ---------------------------------------------------------------------------
# Carousel rule for point pairs


def _strictly_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    s = orient2d(a, b, c)
    if s == 0:
        return False
    return (
        orient2d(a, b, p) == s
        and orient2d(b, c, p) == s
        and orient2d(c, a, p) == s
    )


def carousel_witness(b0: Point, b1: Point, tri: Triangle) -> Witness:
    """For distinct interior points, one lies in the hull of the other with
    two of the triangle's vertices; returns the smallest such (k, j)."""
    if b0.x == b1.x and b0.y == b1.y:
        raise PreconditionViolated("carousel points must be distinct")
    A = tri.points
    for p in (b0, b1):
        if not _strictly_in_triangle(p, *A):
            raise PreconditionViolated("carousel points must be strictly interior")
    pts = (b0, b1)
    for k in (0, 1):
        seed, other = pts[k], pts[1 - k]
        for j in (0, 1, 2):
            kept = [A[i] for i in (0, 1, 2) if i != j]
            if _strictly_in_triangle(other, seed, kept[0], kept[1]):
                return Witness(j, k)
    raise GeometryError("no carousel witness found")


# ---------------------------------------------------------------------------
# Witness search for body pairs


def witness_search(
    u0: ConvexBody,
    u1: ConvexBody,
    tri: Triangle,
    tol: Tolerance = DEFAULT_TOL,
    stop_at_first: bool = False,
) -> List[Witness]:
    """All (j, k) with u_{1-k} inside conv(u_k union the two kept vertices)."""
    tri_poly = tri.as_polygon()
    for u in (u0, u1):
        if not includes(tri_poly, u, tol):
            raise PreconditionViolated("body escapes the triangle")
    A = tri.points
    bodies = (u0, u1)
    out: List[Witness] = []
    for k in (0, 1):
        seed, other = bodies[k], bodies[1 - k]
        for j in (0, 1, 2):
            kept = [A[i] for i in (0, 1, 2) if i != j]
            hull = hull_of_union(seed, kept)
            if includes(hull, other, tol):
                out.append(Witness(j, k))
                if stop_at_first:
                    return out
    return out


# ---------------------------------------------------------------------------
# Comets


@dataclass(frozen=True)
class Comet:
    """Closed shadow region of an edge-free nucleus lit from the focus."""

    focus: Point
    nucleus: ConvexBody
    tangents: Tuple[PointedSupportLine, PointedSupportLine]
    front_arc: Tuple[Point, Point]

    def contains(self, p: Point, mode: str = "closed", tol: Tolerance = DEFAULT_TOL) -> bool:
        f = self.focus
        dx, dy = float(p.x) - float(f.x), float(p.y) - float(f.y)
        r = math.hypot(dx, dy)
        eps = max(tol.eps, 1e-12)
        if r <= eps:
            return False
        line = DirectedLine(f, Direction(dx, dy))
        iv = chord_interval(self.nucleus, line, tol)
        if iv is None or iv[1] <= 0:
            return False
        t0, t1 = iv
        if mode == "closed":
            return r >= t0 - eps
        return (t1 - t0) > eps and r > t0 + eps

    def dist_to_focus(self) -> float:
        return dist_to_body(self.nucleus, self.focus)


def comet_build(f: Point, u: ConvexBody, tol: Tolerance = DEFAULT_TOL) -> Comet:
    if contains_point(u, f, "closed", tol):
        raise NotExternal("focus lies in the nucleus")
    if not is_edge_free(u, tol):
        raise EdgeFreeRequired("comet nucleus must be edge-free")
    if _is_singleton(u):
        raise DegenerateNucleus("comet nucleus must not be a singleton")
    t_right, t_left = tangents_from_external_point(u, f, tol)
    return Comet(f, u, (t_right, t_left), (t_right.support, t_left.support))


def comet_loose_inclusion_check(
    u1: ConvexBody,
    f: Point,
    lam: Scalar,
    g: Point,
    tol: Tolerance = DEFAULT_TOL,
    samples: int = 1000,
) -> bool:
    """Check that the comet of u1 from f sits loosely inside the comet of
    u2 := H_f^lam(u1) from g, for g strictly inside the focus-side lens."""
    if not (0 < lam < 1):
        raise PreconditionViolated("lambda must lie strictly between 0 and 1")
    u2 = transform_body(homothety(f, lam), u1)
    comet1 = comet_build(f, u1, tol)
    # lens test: the ray from f through g must pierce u2's interior with g
    # strictly between the focus and the entry point
    gx, gy = float(g.x) - float(f.x), float(g.y) - float(f.y)
    rg = math.hypot(gx, gy)
    eps = max(tol.eps, 1e-12)
    if rg <= eps:
        raise PreconditionViolated("lens apex is excluded")
    iv = chord_interval(u2, DirectedLine(f, Direction(gx, gy)), tol)
    if iv is None or iv[1] - iv[0] <= eps or not (eps < rg < iv[0] - eps):
        raise PreconditionViolated("g must be strictly interior to the lens")
    comet2 = comet_build(g, u2, tol)

    fringe = boundary_samples(u1, max(64, samples // 4))
    count = 0
    for b in fringe:
        for t in (1.0, 1.35, 2.0, 4.0):
            p = Point(
                float(f.x) + t * (float(b.x) - float(f.x)),
                float(f.y) + t * (float(b.y) - float(f.y)),
            )
            if not comet1.contains(p, "closed", tol):
                continue
            count += 1
            if not comet2.contains(p, "strict", tol):
                return False
            if count >= samples:
                return True
    return count > 0


# ---------------------------------------------------------------------------
# Internal tangency


def _support_face(u: ConvexBody, nx: float, ny: float, slack: float) -> Tuple[float, float]:
    """Extreme face of u in direction n, as the interval (lo, hi) of the
    projections on the tangent direction (-ny, nx) of u's support candidates
    within slack of h_u(n)."""
    h = support_value(u, nx, ny)
    face = [p for p in _support_candidates(u, nx, ny) if float(p.x) * nx + float(p.y) * ny >= h - slack]
    proj = [float(p.x) * -ny + float(p.y) * nx for p in face or [support_point(u, nx, ny)]]
    return min(proj), max(proj)


def internally_tangent(
    u0: ConvexBody, u1: ConvexBody, tol: Tolerance = DEFAULT_TOL
) -> Optional[PointedSupportLine]:
    """A common pointed supporting line of u0 and u1, if one exists."""
    h0 = support_grid(u0)
    h1 = support_grid(u1)
    gap = np.abs(h0 - h1)
    scale = max(1.0, float(np.abs(h0).max()), float(np.abs(h1).max()))
    tol_eff = max(tol.eps, 1e-7) * scale
    coarse = 2e-2 * scale
    cand = np.nonzero(gap <= coarse)[0]
    if len(cand) == 0:
        return None
    # group consecutive candidate directions into clusters
    clusters: List[List[int]] = []
    prev = None
    for i in cand:
        if prev is not None and (i - prev) % GRID_N == 1:
            clusters[-1].append(int(i))
        else:
            clusters.append([int(i)])
        prev = i
    if len(clusters) > 1 and (clusters[0][0] - clusters[-1][-1]) % GRID_N == 1:
        clusters[-1].extend(clusters[0])
        clusters.pop(0)

    def gap_at(theta: float) -> float:
        nx, ny = math.cos(theta), math.sin(theta)
        return abs(support_value(u0, nx, ny) - support_value(u1, nx, ny))

    step = TWO_PI / GRID_N
    for cl in clusters:
        k = min(cl, key=lambda i: gap[i])
        theta, g = _golden_min(gap_at, _GRID_ANGLES[k] - step, _GRID_ANGLES[k] + step, 60)
        if g > tol_eff:
            continue
        nx, ny = math.cos(theta), math.sin(theta)
        slack = tol_eff
        lo0, hi0 = _support_face(u0, nx, ny, slack)
        lo1, hi1 = _support_face(u1, nx, ny, slack)
        olo, ohi = max(lo0, lo1), min(hi0, hi1)
        if ohi < olo - tol_eff:
            continue
        tmid = 0.5 * (olo + ohi)
        # place the contact point on the supporting line at tangent offset tmid
        h = 0.5 * (support_value(u0, nx, ny) + support_value(u1, nx, ny))
        px = h * nx + tmid * (-ny)
        py = h * ny + tmid * nx
        p = Point(px, py)
        d_line = Direction(-ny, nx)
        return PointedSupportLine(p, DirectedLine(p, d_line))
    return None


@dataclass(frozen=True)
class TangencyClass:
    kind: str  # "Equal" | "CenterContact" | "TranslationIdentity"
    contact: Optional[Point] = None
    inclusion: Optional[str] = None  # "U0_in_U1" | "U1_in_U0"


def tangency_classify(
    u0: ConvexBody, m: PlaneMap, tol: Tolerance = DEFAULT_TOL
) -> TangencyClass:
    """Classify an internally tangent edge-free pair (u0, m(u0))."""
    u1 = transform_body(m, u0)
    for u in (u0, u1):
        if not is_edge_free(u, tol):
            raise EdgeFreeRequired("tangency classification needs edge-free bodies")
        if _is_singleton(u):
            raise PreconditionViolated("singleton bodies are excluded")
    contact = internally_tangent(u0, u1, tol)
    if contact is None:
        raise PreconditionViolated("bodies are not internally tangent")
    if isinstance(m, Translation):
        if not m.is_identity():
            raise PreconditionViolated(
                "a non-identity translation of an edge-free body cannot be internally tangent"
            )
        return TangencyClass("TranslationIdentity")
    lam = m.ratio
    if includes(u0, u1, tol) and includes(u1, u0, tol):
        return TangencyClass("Equal", contact=m.center)
    if lam > 1:
        if not includes(u1, u0, tol):
            raise IndeterminateGeometry("ratio > 1 but inclusion u0 in u1 fails")
        return TangencyClass("CenterContact", contact=m.center, inclusion="U0_in_U1")
    if not includes(u0, u1, tol):
        raise IndeterminateGeometry("ratio < 1 but inclusion u1 in u0 fails")
    return TangencyClass("CenterContact", contact=m.center, inclusion="U1_in_U0")


# ---------------------------------------------------------------------------
# Shrinking toward an anchor, the maximal parameter


def shrink_toward(u: ConvexBody, anchor: Point, xi: Scalar) -> ConvexBody:
    if xi == 0:
        return Polygon((anchor,))
    if xi == 1:
        return u
    return transform_body(homothety(anchor, xi), u)


def max_shrink_parameter(
    u0: ConvexBody,
    tri: Triangle,
    p0: Point,
    m: PlaneMap,
    tol: Tolerance = DEFAULT_TOL,
    u1: Optional[ConvexBody] = None,
    iterations: int = 50,
) -> Tuple[float, Witness]:
    """sup of xi in [0,1] whose shrunken pair still has a witness, by bisection."""
    if u1 is None:
        u1 = transform_body(m, u0)
    p1 = m.apply(p0)

    def has_witness(xi: float) -> bool:
        a = shrink_toward(u0, p0, xi)
        b = shrink_toward(u1, p1, xi)
        try:
            return bool(witness_search(a, b, tri, tol, stop_at_first=True))
        except PreconditionViolated:
            return False

    xi_lo = max(tol.eps, 1e-9)
    if not has_witness(xi_lo):
        raise NoInitialWitness("no witness even for the nearly collapsed pair")
    if has_witness(1.0):
        lo = 1.0
    else:
        lo, hi = xi_lo, 1.0
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            if has_witness(mid):
                lo = mid
            else:
                hi = mid
    probe = max(xi_lo, lo - max(tol.eps, 1e-9))
    ws = witness_search(
        shrink_toward(u0, p0, probe), shrink_toward(u1, p1, probe), tri, tol, stop_at_first=True
    )
    if not ws:
        ws = witness_search(
            shrink_toward(u0, p0, probe),
            shrink_toward(u1, p1, probe),
            tri,
            Tolerance(1e-6),
            stop_at_first=True,
        )
    if not ws:
        raise NoInitialWitness("witness vanished just below the maximal parameter")
    return lo, ws[0]


# ---------------------------------------------------------------------------
# Edge-free approximation by rational disks


def _dyadic_ceil(x: float, bits: int = 16) -> Fraction:
    q = 1 << bits
    return Fraction(math.ceil(x * q), q)


def rational_disk_enumeration(u: ConvexBody, n: int) -> List[Disk]:
    """The first n disks of a deterministic enumeration of rational disks
    containing u: dyadic centers on level-by-level grids (spacing halves and
    the box widens per level; within a level, centers round-robin over 64
    angular sectors, farthest first, so every direction gets flat far disks
    early), dyadic radii rounded up from the covering radius; the first disk
    is inflated so u is strictly interior to it."""
    c = interior_point(u)
    cx, cy = float(c.x), float(c.y)
    R = max(farthest_dist(u, Point(cx, cy)), 1e-6)
    S = Fraction(2) ** math.ceil(math.log2(R))  # dyadic step >= R
    # snap the reference center to the level-0 grid
    bx = Fraction(round(cx / S)) * S
    by = Fraction(round(cy / S)) * S
    fbx, fby = float(bx), float(by)
    out: List[Disk] = []
    seen = set()
    level = 0
    while len(out) < n and level <= 6:
        half = 12 * (1 << (2 * level))  # in units of step: box half-width 12*S*2^level
        # Cell (i, j) has centre (bx + i * step, by + j * step), step =
        # S / 2^level.  The grid is dyadic, so fbx + i * float(step) is that
        # number exactly, as a float: it keys the cell, and the disks taken
        # get it back as a Fraction.
        offsets = np.arange(-half, half + 1) * float(S / (1 << level))
        fx = np.repeat(fbx + offsets, len(offsets))
        fy = np.tile(fby + offsets, len(offsets))
        dx, dy = fx - cx, fy - cy
        angle = np.fromiter(map(math.atan2, dy.tolist(), dx.tolist()), float, len(fx))
        sector = ((angle % TWO_PI) / (TWO_PI / 64)).astype(int) % 64
        # 64 angular sectors, each farthest first (ties by y, then x); cells
        # are taken round-robin over the sectors, one per sector and depth.
        order = np.lexsort((fx, fy, -(dx * dx + dy * dy), sector))
        by_sector = sector[order]
        depth = np.arange(len(order)) - np.searchsorted(by_sector, by_sector)
        cells = order[np.lexsort((by_sector, depth))]
        fxs, fys = fx.tolist(), fy.tolist()
        for cell in cells.tolist():
            gx, gy = fxs[cell], fys[cell]
            r = _dyadic_ceil(farthest_dist(u, Point(gx, gy)) * (1.0 + 1e-12))
            key = (gx, gy, r)
            if key in seen:
                continue
            seen.add(key)
            if not out:
                r = r * Fraction(9, 8)  # strict containment for the first disk
            out.append(Disk(Point(Fraction(gx), Fraction(gy)), r))
            if len(out) >= n:
                break
        level += 1
    return out


def edge_free_approx(u: ConvexBody, n: int) -> DiskIntersection:
    """Intersection of the first n enumerated rational disks containing u."""
    if n < 1:
        raise PreconditionViolated("need at least one disk")
    return DiskIntersection(tuple(rational_disk_enumeration(u, n)))


# ---------------------------------------------------------------------------
# Caratheodory-style decomposition


@dataclass(frozen=True)
class BarycentricDecomposition:
    lambdas: Tuple[Scalar, Scalar, Scalar]
    base: Point  # the point X of the body

    def reconstruct(self, a1: Point, a2: Point) -> Point:
        l0, l1, l2 = self.lambdas
        return Point(
            l0 * self.base.x + l1 * a1.x + l2 * a2.x,
            l0 * self.base.y + l1 * a1.y + l2 * a2.y,
        )


def _solve_barycentric(p: Point, x: Point, a1: Point, a2: Point):
    """Exact barycentric coordinates of p w.r.t. triangle (x, a1, a2), or None."""
    d = (a1.x - x.x) * (a2.y - x.y) - (a2.x - x.x) * (a1.y - x.y)
    if d == 0:
        return None
    l1 = ((p.x - x.x) * (a2.y - x.y) - (a2.x - x.x) * (p.y - x.y)) / d
    l2 = ((a1.x - x.x) * (p.y - x.y) - (p.x - x.x) * (a1.y - x.y)) / d
    l0 = 1 - l1 - l2
    return (l0, l1, l2)


def caratheodory_decompose(
    p: Point, u: ConvexBody, a1: Point, a2: Point, tol: Tolerance = DEFAULT_TOL
) -> BarycentricDecomposition:
    """Write p = l0*X + l1*a1 + l2*a2 with X in u and (l0,l1,l2) in the simplex."""
    one = Fraction(1) if p.exact else 1.0
    if contains_point(u, p, "closed", tol):
        return BarycentricDecomposition((one, 0 * one, 0 * one), p)
    if dist(p, a1) <= tol.eps:
        return BarycentricDecomposition((0 * one, one, 0 * one), interior_point(u))
    if dist(p, a2) <= tol.eps:
        return BarycentricDecomposition((0 * one, 0 * one, one), interior_point(u))
    hull = hull_of_union(u, [a1, a2])
    if not contains_point(hull, p, "closed", Tolerance(max(tol.eps, 1e-9))):
        raise PreconditionViolated("point lies outside the hull")

    poly = polygonize(u)
    if poly is not None and len(poly.vertices) == 1 and p.exact and poly.vertices[0].exact:
        lams = _solve_barycentric(p, poly.vertices[0], a1, a2)
        if lams is not None:
            return BarycentricDecomposition(lams, poly.vertices[0])

    ax1, ay1 = float(a1.x), float(a1.y)
    ax2, ay2 = float(a2.x), float(a2.y)
    px, py = float(p.x), float(p.y)
    best = None  # (margin, lambdas, X)
    for s in np.linspace(0.0, 1.0, 129):
        qx = ax1 + s * (ax2 - ax1)
        qy = ay1 + s * (ay2 - ay1)
        dx, dy = px - qx, py - qy
        rp = math.hypot(dx, dy)
        if rp <= 1e-12:
            lams = (0.0, 1.0 - float(s), float(s))
            return BarycentricDecomposition(lams, interior_point(u))
        iv = chord_interval(u, DirectedLine(Point(qx, qy), Direction(dx, dy)), tol)
        if iv is None:
            continue
        t0, t1 = iv
        if t1 < rp - 1e-9:
            continue
        tX = max(t0, rp)
        if tX > t1:
            tX = t1
        X = Point(qx + tX * dx / rp, qy + tX * dy / rp)
        l0 = rp / tX if tX > 0 else 1.0
        lam1 = (1.0 - l0) * (1.0 - float(s))
        lam2 = (1.0 - l0) * float(s)
        margin = min(l0, lam1, lam2, 1.0 - l0, t1 - rp)
        if best is None or margin > best[0]:
            best = (margin, (l0, lam1, lam2), X)
    if best is None:
        raise PreconditionViolated("no admissible decomposition found")
    return BarycentricDecomposition(best[1], best[2])


# ---------------------------------------------------------------------------
# Crossing predicate


def fejes_toth_crossing(
    u0: ConvexBody, u1: ConvexBody, tol: Tolerance = DEFAULT_TOL, samples: int = 720
) -> bool:
    """True iff each body's boundary leaves the other in at least two arcs
    (equivalently both set differences are disconnected)."""

    def outside_runs(a: ConvexBody, b: ConvexBody) -> int:
        pts = boundary_samples(a, samples)
        if len(pts) < 3:
            return 0
        scale = max(1.0, max(abs(float(p.x)) for p in pts), max(abs(float(p.y)) for p in pts))
        delta = max(tol.eps, 1e-7) * scale
        flags = [dist_to_body(b, p, tol) > delta for p in pts]
        if not any(flags):
            return 0
        runs = 0
        m = len(flags)
        for i in range(m):
            if flags[i] and not flags[i - 1]:
                runs += 1
        if runs == 0:
            runs = 1  # everything outside: one circular run
        return runs

    return outside_runs(u0, u1) >= 2 and outside_runs(u1, u0) >= 2
