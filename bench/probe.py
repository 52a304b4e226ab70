#!/usr/bin/env python3
"""A fixed pure-Python probe that reads the machine's speed, and the
speed-normalized import time of the package.

    python3 bench/probe.py SRC

imports ``planeconvex`` from ``SRC`` in this fresh interpreter and prints two
numbers: the import time scaled to the nominal probe time, and the unscaled
import time.  The probe runs ``IMPORT_PROBES`` times just before the import
and as many times just after it, in the same process, and the scale is
``PROBE_NOMINAL_S`` over the median of those probes.  This module imports
nothing of the package, so that it can time the package's import.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from fractions import Fraction
from typing import List

PROBE_NOMINAL_S = 0.92e-3  # the probe's median on the box of README.md
IMPORT_PROBES = 15


def _probe_work():
    s, f, d = Fraction(0), 0.0, {}
    for i in range(1, 120):
        s += Fraction(i, 7) * Fraction(3, i + 1)
        f += math.hypot(i, 0.5)
        d[i % 13] = d.get(i % 13, 0) + 1
    return s, f, d


def probe() -> float:
    """Seconds the fixed probe takes now: a reading of the machine's speed."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def speed_factor(probes: List[float]) -> float:
    """Scale from measured seconds to seconds at the nominal probe time."""
    return PROBE_NOMINAL_S / statistics.median(probes)


def main(src: str) -> None:
    sys.path.insert(0, src)
    probes = [probe() for _ in range(IMPORT_PROBES)]
    t0 = time.perf_counter()
    import planeconvex  # noqa: F401

    raw = time.perf_counter() - t0
    probes += [probe() for _ in range(IMPORT_PROBES)]
    print(repr(raw * speed_factor(probes)), repr(raw))


if __name__ == "__main__":
    main(sys.argv[1])
