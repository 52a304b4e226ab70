#!/usr/bin/env python3
"""planeconvex benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload sweep|closure|approx [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same numbers for a reader.  With ``--trace 0`` the metrics are the
end-to-end ones, measured with no wrappers installed; with ``--trace 1`` they
are the per-layer ones.  The exit code is 0 only when every output check
passed.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: numpy's OpenBLAS would otherwise start up to 64 of them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("sweep", "closure", "approx")
DEFAULT_SECONDS = 25


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None, help="default: the acceptance-test seed")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def use_checkout() -> bool:
    """Put this checkout's ``src/`` and the benchmark's modules on the path."""
    if not (SRC / "planeconvex" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout():
        print("error: run from a planeconvex checkout (src/planeconvex is missing)", file=sys.stderr)
        return 2
    import measure
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    result = measure.run_benchmark(args.workload, seed, args.seconds, bool(args.trace))
    print("\n".join(result.lines))
    print(result.json())
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
