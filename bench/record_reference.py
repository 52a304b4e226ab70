#!/usr/bin/env python3
"""Record bench/reference.json: each workload's outputs on its default seed.

    python3 bench/record_reference.py

Run it only when a change is meant to alter outputs, and say which outputs
changed and why.  It refuses to record an item that fails its own checks.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    if not run.use_checkout():
        print("error: src/planeconvex is missing", file=sys.stderr)
        return 2
    import measure
    import workloads

    reference = {}
    for name in run.WORKLOADS:
        w = workloads.build(name, workloads.DEFAULT_SEEDS[name])
        outs = [w.run(it) for it in w.items]
        bad = [it.key for it, o in zip(w.items, outs) if not o.ok]
        if w.check_pass is not None:
            bad += w.check_pass(w.items, outs)
        if bad:
            print(f"{name}: refusing to record, checks failed: {bad[:20]}", file=sys.stderr)
            return 1
        reference[name] = {
            "seed": w.seed,
            "items": {it.key: o.digest for it, o in zip(w.items, outs)},
        }
        print(f"{name}: {len(outs)} items, {sum(o.indeterminate for o in outs)} indeterminate")
    with open(measure.REFERENCE, "w") as f:
        json.dump(reference, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
