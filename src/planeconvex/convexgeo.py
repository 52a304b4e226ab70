"""Finite convex geometries from planar configurations.

Closure operators over labeled points, disks, or triangle shapes; exhaustive
axiom and anti-exchange verification on bitmask subsets; the (dualized)
lattice of closed sets; join-distributivity and join-irreducibles.

Point and shape closures are exact on rational data.  An exact point ground
set is scaled to integers once, and its cover table holds, for every subset of
at most three of its points, the points in that subset's closed hull.  By
Carathéodory's theorem in the plane a point lies in the hull of a set iff it
lies in the hull of at most three of its members, so a point closure is one
pass over the table, with no hull built per subset.  Float point ground sets,
and all shape ground sets, build the hull of the chosen elements and test
containment (exactly for rational shapes, within ``DEFAULT_TOL`` for floats).
Disk closures take each containment margin in closed form, at the critical
directions of the hull's support function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bodies import (
    Disk,
    Polygon,
    contains_point,
    convex_hull,
    tie_directions,
    unit_directions,
)
from .errors import IndeterminateGeometry, SizeLimit
from .geom import EXACT_TOL, DEFAULT_TOL, Point, Tolerance

MAX_GROUND = 20
MAX_LATTICE_GROUND = 16


@dataclass(frozen=True)
class GroundSet:
    """Labeled geometric elements (points, disks, or polygons)."""

    elements: tuple
    labels: Tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.elements) > MAX_GROUND:
            raise SizeLimit(f"ground set capped at {MAX_GROUND} elements")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"e{i}" for i in range(len(self.elements)))
            )
        if len(self.labels) != len(set(self.labels)):
            raise ValueError("labels must be unique")

    def __len__(self):
        return len(self.elements)

    @cached_property
    def disk_support(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For a ground set of disks: each disk's support value (a row) at
        every critical direction of every subset, whether disk a lies in disk
        b (entry ``[a, b]``), and each disk's support radius |c| + r."""
        C = np.array([(float(d.center.x), float(d.center.y)) for d in self.elements]).reshape(-1, 2)
        R = np.array([float(d.radius) for d in self.elements])
        i, j = np.divmod(np.arange(len(R) ** 2), len(R))  # ordered pairs
        dirs = np.concatenate(
            [tie_directions(C[i], R[i], C[j], R[j]), unit_directions(C[i] - C[j]), [(1.0, 0.0)]]
        )
        gap = (R[j] - R[i]).reshape(len(R), len(R))
        dist = np.hypot(*(C[i] - C[j]).T).reshape(len(R), len(R))
        return C @ dirs.T + R[:, None], (gap >= 0) & (dist <= gap), np.hypot(*C.T) + R

    @cached_property
    def cover_table(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """For a ground set of points with exact coordinates: the bitmask of
        every subset of one to three points, and the bitmask of the points in
        that subset's closed hull.  None when some coordinate is a float."""
        if not all(p.exact for p in self.elements):
            return None
        return _cover_table(self.elements)


def _cover_table(pts: Sequence[Point]) -> Tuple[np.ndarray, np.ndarray]:
    """Bitmasks over at most ``MAX_GROUND`` exact points: every 1-, 2- and
    3-subset, and the points in its closed hull, from integer orientation
    signs.  Each subset is a triple (i, j, k), with repeats for the smaller
    ones.  A collinear triple covers the closed segments [i, j] and [j, k],
    whose union is its hull since they share an end; any other triple covers
    its closed triangle."""
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    xy = [c.numerator * (scale // c.denominator) for p in pts for c in p]
    n = len(pts)
    # int64 holds every product below; else Python ints
    dtype = np.int64 if max(map(abs, xy)) < 1 << 29 else object
    X, Y = np.array(xy, dtype=dtype).reshape(n, 2).T
    dx, dy = X[None, :] - X[:, None], Y[None, :] - Y[:, None]  # [a, b]: b - a
    # orient[a, b, p] = cross(b - a, p - a); p on segment [a, b] iff
    # orient is 0 and (a - p)·(b - p) <= 0
    orient = dx[:, :, None] * dy[:, None, :] - dy[:, :, None] * dx[:, None, :]
    seg = (orient == 0) & (dx.T[:, None, :] * dx.T[None, :, :] + dy.T[:, None, :] * dy.T[None, :, :] <= 0)
    trip = (
        [(i, i, i) for i in range(n)]
        + [(i, j, j) for i, j in combinations(range(n), 2)]
        + list(combinations(range(n), 3))
    )
    I, J, K = np.array(trip).reshape(-1, 3).T
    o1, o2, o3 = orient[I, J], orient[J, K], orient[K, I]
    tri = ((o1 >= 0) & (o2 >= 0) & (o3 >= 0)) | ((o1 <= 0) & (o2 <= 0) & (o3 <= 0))
    cover = np.where((orient[I, J, K] == 0)[:, None], seg[I, J] | seg[J, K], tri)
    bit = 1 << np.arange(n, dtype=np.int64)
    return bit[I] | bit[J] | bit[K], (cover * bit).sum(axis=1)


class ClosureSystem:
    """A closure operator over subsets-as-bitmasks of a ground set."""

    def __init__(self, ground: GroundSet, closure_fn: Callable[[int], int]):
        self.ground = ground
        self._fn = closure_fn
        self._table: Dict[int, int] = {}

    @classmethod
    def from_table(cls, ground: GroundSet, table: Dict[int, int]) -> "ClosureSystem":
        cs = cls(ground, lambda m: table[m])
        cs._table = dict(table)
        return cs

    def closure(self, mask: int) -> int:
        out = self._table.get(mask)
        if out is None:
            out = self._fn(mask)
            self._table[mask] = out
        return out

    def is_closed(self, mask: int) -> bool:
        return self.closure(mask) == mask

    def closed_sets(self) -> List[int]:
        n = len(self.ground)
        return [m for m in range(1 << n) if self.is_closed(m)]


# ---------------------------------------------------------------------------
# Closure operators


def closure_points(ground: GroundSet, mask: int) -> int:
    """Closure of a point subset: ground points inside its convex hull."""
    if mask == 0:
        return 0
    table = ground.cover_table
    if table is None:
        return _closure_within_tol(ground, mask, DEFAULT_TOL)
    sets, covers = table
    return int(np.bitwise_or.reduce(covers[(sets & mask) == sets]))


def closure_circles(
    ground: GroundSet, mask: int, eps: float = 1e-9
) -> int:
    """Closure of a disk subset: ground disks inside the hull of its union.

    A disk c lies in the hull iff min_n (max_i (c_i·n + r_i) - c·n - r_c) >= 0
    over the subset's disks i.  The minimum is reached at a tie of two subset
    disks or at a stationary direction -(c_i - c)/|c_i - c|; the ground set
    holds every disk's support value at all such directions of all its pairs,
    so every outside disk is classified at once.  A disk inside a single
    subset disk is inside regardless of its margin.

    Raises IndeterminateGeometry when some containment margin is too close to
    zero to classify.
    """
    if mask == 0:
        return 0
    H, inside, radius = ground.disk_support
    chosen = (mask >> np.arange(len(ground))) & 1 == 1
    rest = np.flatnonzero(~chosen)
    held = inside[rest][:, chosen].any(axis=1)
    margin = (H[chosen].max(axis=0) - H[rest]).min(axis=1)
    scale = max(1.0, float(radius[chosen].max()))
    borderline = ~held & (np.abs(margin) <= eps * scale)
    if borderline.any():
        raise IndeterminateGeometry(
            f"containment margin of element {rest[borderline][0]} in subset {mask:b} is borderline"
        )
    for k in rest[held | (margin > 0)]:
        mask |= 1 << int(k)
    return mask


def closure_shapes(ground: GroundSet, mask: int) -> int:
    """Closure for polygonal shapes: shapes inside the hull of the union.

    Exact on rational vertex data; this is the operator under which triangle
    configurations can violate anti-exchange.
    """
    if mask == 0:
        return 0
    exact = all(v.exact for p in ground.elements for v in p.vertices)
    return _closure_within_tol(ground, mask, EXACT_TOL if exact else DEFAULT_TOL)


def _closure_within_tol(ground: GroundSet, mask: int, tol: Tolerance) -> int:
    """Hull closure of points or shapes: the elements whose vertices all lie
    in the chosen elements' hull, within ``tol``."""
    parts = [(e,) if isinstance(e, Point) else e.vertices for e in ground.elements]
    hull = convex_hull([v for i, vs in enumerate(parts) if mask >> i & 1 for v in vs])
    out = 0
    for i, vs in enumerate(parts):
        if mask >> i & 1 or all(contains_point(hull, v, "closed", tol) for v in vs):
            out |= 1 << i
    return out


def points_closure_system(points: Sequence[Point], labels: Tuple[str, ...] = ()) -> ClosureSystem:
    g = GroundSet(tuple(points), labels)
    return ClosureSystem(g, lambda m: closure_points(g, m))


def circles_closure_system(
    disks: Sequence[Disk], labels: Tuple[str, ...] = (), eps: float = 1e-9
) -> ClosureSystem:
    g = GroundSet(tuple(disks), labels)
    return ClosureSystem(g, lambda m: closure_circles(g, m, eps))


def shapes_closure_system(
    shapes: Sequence[Polygon], labels: Tuple[str, ...] = ()
) -> ClosureSystem:
    g = GroundSet(tuple(shapes), labels)
    return ClosureSystem(g, lambda m: closure_shapes(g, m))


# ---------------------------------------------------------------------------
# Axiom verification


def verify_closure_axioms(cs: ClosureSystem) -> Tuple[bool, Optional[int]]:
    """Extensive + idempotent for every subset; monotone over one-element
    steps (which chains to full monotonicity).  Returns (ok, bad_mask)."""
    n = len(cs.ground)
    if n > MAX_GROUND:
        raise SizeLimit(f"ground set capped at {MAX_GROUND}")
    if cs.closure(0) != 0:
        return False, 0
    for m in range(1 << n):
        c = cs.closure(m)
        if c & m != m:  # extensive
            return False, m
        if cs.closure(c) != c:  # idempotent
            return False, m
        for q in range(n):
            bigger = m | (1 << q)
            if bigger != m and cs.closure(bigger) & c != c:  # monotone
                return False, m
    return True, None


def verify_anti_exchange(
    cs: ClosureSystem,
) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """p in Phi(X|q) forbids q in Phi(X|p) for closed X and distinct p,q
    outside X.  Returns (ok, (p, q, X)) with the first violation."""
    n = len(cs.ground)
    if n > MAX_GROUND:
        raise SizeLimit(f"ground set capped at {MAX_GROUND}")
    for X in cs.closed_sets():
        outside = [i for i in range(n) if not (X >> i & 1)]
        # Phi(X | q) once per q, asked for in the order of the first pass.
        closed: List[int] = []
        for a, p in enumerate(outside):
            for b, q in enumerate(outside):
                if b == len(closed):
                    closed.append(cs.closure(X | 1 << q))
                if a != b and (closed[b] >> p & 1) and (closed[a] >> q & 1):
                    return False, (p, q, X)
    return True, None


# ---------------------------------------------------------------------------
# Lattices


class FiniteLattice:
    """Bounded lattice given by an explicit order; join/meet precomputed."""

    def __init__(self, elements: Sequence, leq: np.ndarray):
        self.elements = list(elements)
        m = len(self.elements)
        self.leq = np.asarray(leq, dtype=bool)
        if self.leq.shape != (m, m):
            raise ValueError("order matrix shape mismatch")
        self.join = np.full((m, m), -1, dtype=int)
        self.meet = np.full((m, m), -1, dtype=int)
        for i in range(m):
            for j in range(m):
                up = np.nonzero(self.leq[i] & self.leq[j])[0]
                lub = [c for c in up if all(self.leq[c, d] for d in up)]
                dn = np.nonzero(self.leq[:, i] & self.leq[:, j])[0]
                glb = [c for c in dn if all(self.leq[d, c] for d in dn)]
                if len(lub) != 1 or len(glb) != 1:
                    raise ValueError("not a lattice: missing unique bound")
                self.join[i, j] = lub[0]
                self.meet[i, j] = glb[0]
        bottoms = [i for i in range(m) if self.leq[i].all()]
        tops = [i for i in range(m) if self.leq[:, i].all()]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("lattice must be bounded")
        self.bottom = bottoms[0]
        self.top = tops[0]

    def __len__(self):
        return len(self.elements)

    def covers_of(self, x: int) -> List[int]:
        """Elements y with x < y and nothing strictly between."""
        m = len(self.elements)
        above = [y for y in range(m) if y != x and self.leq[x, y]]
        return [
            y
            for y in above
            if not any(z != y and z != x and self.leq[x, z] and self.leq[z, y] for z in above)
        ]

    def lower_covers_of(self, x: int) -> List[int]:
        m = len(self.elements)
        below = [y for y in range(m) if y != x and self.leq[y, x]]
        return [
            y
            for y in below
            if not any(z != y and z != x and self.leq[y, z] and self.leq[z, x] for z in below)
        ]


def closed_set_lattice(cs: ClosureSystem) -> FiniteLattice:
    """The dual of the inclusion lattice of closed sets (top = empty set)."""
    n = len(cs.ground)
    if n > MAX_LATTICE_GROUND:
        raise SizeLimit(f"lattice enumeration capped at {MAX_LATTICE_GROUND}")
    closed = cs.closed_sets()
    m = len(closed)
    leq = np.zeros((m, m), dtype=bool)
    for i, a in enumerate(closed):
        for j, b in enumerate(closed):
            # dual order: a <= b iff b is a subset of a
            leq[i, j] = (a & b) == b
    return FiniteLattice(closed, leq)


def is_join_distributive(l: FiniteLattice) -> bool:
    """Each interval [x, join of covers of x] must be distributive."""
    m = len(l)
    if m > 1 << 16:
        raise SizeLimit("lattice too large")
    for x in range(m):
        if x == l.top:
            continue
        covers = l.covers_of(x)
        xs = x
        for c in covers:
            xs = l.join[xs, c]
        interval = [y for y in range(m) if l.leq[x, y] and l.leq[y, xs]]
        for a in interval:
            for b in interval:
                for c in interval:
                    if l.meet[a, l.join[b, c]] != l.join[l.meet[a, b], l.meet[a, c]]:
                        return False
    return True


def join_irreducibles(l: FiniteLattice) -> List[int]:
    """Elements with exactly one lower cover."""
    return [x for x in range(len(l)) if len(l.lower_covers_of(x)) == 1]


def m3_lattice() -> FiniteLattice:
    """The five-element modular, non-distributive lattice."""
    # 0=bottom, 1..3 = atoms, 4 = top
    leq = np.zeros((5, 5), dtype=bool)
    for i in range(5):
        leq[i, i] = True
        leq[0, i] = True
        leq[i, 4] = True
    return FiniteLattice(["0", "a", "b", "c", "1"], leq)
