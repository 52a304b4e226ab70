#!/usr/bin/env python3
"""Run a workload on several seeds and report each metric's spread.

    python3 bench/spread.py --workload sweep --seeds 1-10 [--out runs.jsonl]
    python3 bench/spread.py --workload sweep --runs 10     # default seed

For every end-to-end metric it prints the median of the runs, the distance
between their first and third quartiles as a share of that median (Python's
``statistics.quantiles(values, n=4)``), and the metric's bound from
BENCHMARK.json.  A spread above a third of its bound is flagged.  Runs are
made one after another, each as ``bench/run.py`` would be run by hand.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--seeds", type=seed_list, help="a range such as 1-10")
    how.add_argument("--runs", type=int, help="this many runs on the workload's default seed")
    p.add_argument("--out", help="append the raw results to this JSON-lines file")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    seeds = args.seeds or [None] * args.runs
    for seed in seeds:
        label = "default" if seed is None else seed
        cmd = spec["command"] + ["--workload", args.workload]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if not out.stdout.strip():
            print(out.stderr[-3000:], file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            # A failed output check is a finding to report, not a reason to
            # drop the run: its timings stay in the figures.
            print(f"seed {label}: INCORRECT, exit code {out.returncode}")
            print("\n".join(l for l in out.stdout.splitlines() if l.startswith("!")))
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": label, **result}) + "\n")
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print(f"seed {label}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                                           if k in bounds), flush=True)
    if len(seeds) < 2:
        return 0
    for k, vals in values.items():
        if k not in bounds:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        flag = "  <-- above a third of its bound" if spread > bounds[k] / 3 else ""
        print(f"{args.workload:8s} {k:14s} median {statistics.median(vals):12.6g}  "
              f"spread {spread:7.4f}  bound {bounds[k]:.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
