"""Shared generators for randomized tests (deterministic, seed-based)."""

import math
from fractions import Fraction

import numpy as np

from planeconvex.bodies import Disk, DiskIntersection
from planeconvex.errors import EmptyInput
from planeconvex.geom import Point
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
