"""Command-line front end.

One verb per scenario kind of ``harness.SCENARIOS`` (verify-theorem,
carousel, approx, convexgeo, crossing, fixtures), plus render.  Only the
kinds with a trial count take ``--trials``; approx and fixtures run a fixed
set of bodies.  Exit code 0 when every trial passes, 1 when failures are
present, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .harness import SCENARIOS, Scenario, SweepReport, report_to_csv, run_scenario
from .svgrender import render_svg


def _add_common(p: argparse.ArgumentParser, trials: bool):
    p.add_argument("--seed", type=int, default=0, help="64-bit scenario seed")
    if trials:
        p.add_argument("--trials", type=int, default=None, help="number of trials")
    p.add_argument("--eps", type=float, default=1e-9, help="geometric tolerance")
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=["csv", "txt"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planeconvex",
        description="Randomized verification sweeps for planar convexity claims",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for kind in SCENARIOS.values():
        p = sub.add_parser(kind.verb)
        _add_common(p, kind.trials is not None)
        for name, default in kind.params.items():
            p.add_argument(f"--{name}", type=int, default=default)
    pr = sub.add_parser("render", help="render an instance file to SVG")
    pr.add_argument("instance", type=str, help="JSON instance file")
    pr.add_argument("--results", type=str, default=None, help="JSON results file")
    pr.add_argument("--out", type=str, default=None)
    return ap


def _report_txt(report: SweepReport) -> str:
    lines = [
        f"trials: {report.trials}",
        f"passes: {report.passes}",
        f"failures: {' '.join(map(str, report.failures)) if report.failures else '-'}",
        f"indeterminate: {report.indeterminate}",
        f"millis: {report.millis:.1f}",
    ]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    if args.verb == "render":
        with open(args.instance) as fh:
            instance = json.load(fh)
        results = None
        if args.results:
            with open(args.results) as fh:
                results = json.load(fh)
        _emit(render_svg(instance, results), args.out)
        return 0

    name, kind = next((name, kind) for name, kind in SCENARIOS.items() if kind.verb == args.verb)
    params = {p: getattr(args, p) for p in kind.params}
    if getattr(args, "trials", None) is not None:
        params["trials"] = args.trials
    report = run_scenario(Scenario(kind=name, params=params, seed=args.seed, eps=args.eps))
    text = report_to_csv(report) if args.format == "csv" else _report_txt(report)
    _emit(text, args.out)
    return 0 if not report.failures else 1


if __name__ == "__main__":
    sys.exit(main())
