"""Timing, output checks and metrics for one benchmark run.

Untraced runs (``--trace 0``) set the pool up ``SETUP_REPS`` times, then run
passes over it until the time is up, with no wrappers installed.

Times are speed-normalized, the import time in ``setup_s`` too.  On the
shared 2-core box this benchmark was written on, one fixed pure-Python loop
takes anywhere from 1.1 to 2.4 times its fastest time, drifting within
seconds and over minutes as other tenants come and go; no statistic taken
within a run of tens of seconds removes that.  So a fixed probe
(``probe.probe``, ~1 ms) runs every ``PROBE_EVERY_S`` between items, and each
item's time is scaled by ``probe.PROBE_NOMINAL_S`` over the median of the
probes nearest it: a time reads as it would on that box when the probe
takes its nominal time.  The unscaled figures are printed alongside.  Each
item's time is then the median over passes, and throughput is the pool size
over the sum of item times.

Traced runs (``--trace 1``) alternate an unwrapped pass with a wrapped one and
report per-layer counts and self times per pass, some ratios, and the tracing
overhead.  Both kinds of run check every output.
"""

from __future__ import annotations

import bisect
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

import workloads
from probe import probe, speed_factor
from tracer import KIND_SPLIT, KINDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "out"

SETUP_REPS = 3
SETUP_IMPORTS = 5
PASS_IMPORTS = 2
PROBE_EVERY_S = 0.05
PROBE_NEAREST = 7

Metrics = Dict[str, Tuple[float, str]]


def import_seconds() -> Tuple[float, float]:
    """Import time of the package in a fresh interpreter: scaled by probes
    run in that interpreter (``probe.py``), and unscaled."""
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    scaled, raw = out.stdout.strip().splitlines()[-1].split()
    return float(scaled), float(raw)


class Ticker:
    """Probes the machine's speed at most every ``PROBE_EVERY_S`` when called.

    Call it between units of work.  ``stop`` returns the seconds since the
    ticker was made, less the time its probes took, and the speed factor of
    the whole span; ``factor_at`` gives the factor from the ``PROBE_NEAREST``
    probes nearest a moment, to follow the machine's speed as it drifts.
    """

    def __init__(self):
        self.at: List[float] = []
        self.probes: List[float] = []
        self._probe()
        self.start = self.last

    def _probe(self) -> None:
        t = probe()
        self.last = time.perf_counter()
        self.at.append(self.last)
        self.probes.append(t)

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self._probe()

    def stop(self) -> Tuple[float, float]:
        wall = time.perf_counter() - self.start - sum(self.probes[1:])
        self._probe()
        return wall, speed_factor(self.probes)

    def factor_at(self, t: float) -> float:
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - PROBE_NEAREST // 2, len(self.at) - PROBE_NEAREST))
        return speed_factor(self.probes[lo:lo + PROBE_NEAREST])


def percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest rank: for q = 0.99 and 1,000 values, ten lie above it."""
    return sorted_vals[max(1, math.ceil(q * len(sorted_vals))) - 1]


def load_reference() -> Dict[str, Dict]:
    with open(REFERENCE) as f:
        return json.load(f)


class Run:
    """Outcomes and timings of the passes over one pool."""

    def __init__(self, w: workloads.Workload):
        self.w = w
        # Per item, one entry per pass: normalized seconds, unscaled seconds,
        # and normalized seconds of each part's phase.
        self.times: List[List[float]] = [[] for _ in w.items]
        self.raw_times: List[List[float]] = [[] for _ in w.items]
        self.phases: List[Dict[int, List[float]]] = [{} for _ in w.items]
        self.passes: List[List[workloads.Outcome]] = []  # the last may be partial
        self.rates: List[float] = []  # normalized items per second of each full pass
        self.factors: List[float] = []  # speed factor of each pass

    def run_pass(self, deadline: Optional[float] = None, tracer: Optional[Tracer] = None) -> None:
        """One pass over the pool, in order; stops early at ``deadline``."""
        outs: List[workloads.Outcome] = []
        self.passes.append(outs)
        ends: List[float] = []
        tick = Ticker()
        complete = True
        for it in self.w.items:
            if deadline is not None and time.perf_counter() >= deadline:
                complete = False
                break
            if tracer is not None:
                tracer.begin_item(it.key, it.kind)
            outs.append(self.w.run(it))
            ends.append(time.perf_counter())
            if tracer is not None:
                tracer.end_item(f"item.{self.w.name}")
            tick()
        wall, k = tick.stop()
        self.factors.append(k)
        for i, (out, end) in enumerate(zip(outs, ends)):
            raw = sum(out.phases.values())
            ki = tick.factor_at(end - raw / 2)
            self.raw_times[i].append(raw)
            self.times[i].append(raw * ki)
            for part, dt in out.phases.items():
                self.phases[i].setdefault(part, []).append(dt * ki)
        if complete:
            self.rates.append(len(outs) / (wall * k))

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    def item_times(self) -> List[float]:
        return [statistics.median(t) for t in self.times]

    def raw_items_per_s(self) -> float:
        return len(self.raw_times) / sum(statistics.median(t) for t in self.raw_times)

    def part_gmean(self, part: int) -> float:
        return statistics.geometric_mean(statistics.median(p[part]) for p in self.phases if part in p)


@dataclass
class Checks:
    """Failed checks, keyed by the item (or reference item) that failed."""

    failed: Set[str] = field(default_factory=set)
    messages: List[str] = field(default_factory=list)

    def fail(self, key: str, msg: str) -> None:
        self.failed.add(key)
        self.messages.append(msg)


def check_run(run: Run, reference: Dict[str, Dict], checks: Checks) -> None:
    """Item checks, pass checks, equal digests in every pass, and the reference."""
    w = run.w
    first = run.passes[0]
    for n, outs in enumerate(run.passes):
        for it, a, b in zip(w.items, first, outs):
            if not b.ok:
                checks.fail(it.key, f"pass {n}: {it.key}: output check failed")
            if a.digest != b.digest:
                checks.fail(it.key, f"pass {n}: {it.key}: output differs from pass 0")
        if w.check_pass is not None:
            for msg in w.check_pass(w.items, outs):
                checks.fail(msg.split(":", 1)[0], f"pass {n}: {msg}")
    ref = reference.get(w.name)
    if ref is None:
        checks.fail("reference", f"no reference recorded for {w.name}")
        return
    items, outs = w.items, first
    if w.seed != ref["seed"]:
        # The seeded pool has no reference: run the head of the recorded one.
        rw = workloads.reference_pool(w.name)
        items = rw.items
        outs = [rw.run(it) for it in items]
        for it, o in zip(items, outs):
            if not o.ok:
                checks.fail("ref:" + it.key, f"reference pool: {it.key}: output check failed")
        if rw.check_pass is not None:
            for msg in rw.check_pass(items, outs):
                checks.fail("ref:" + msg.split(":", 1)[0], f"reference pool: {msg}")
    for msg in workloads.compare_reference(w.name, items, outs, ref["items"]):
        checks.fail("ref:" + msg.split(":", 1)[0], f"reference: {msg}")


def setup(build: Callable[..., workloads.Workload]) -> Tuple[workloads.Workload, List[Tuple[float, float]], float]:
    """The pool, the first import times, and the median normalized generation time.

    The import is timed in fresh interpreters (``import_seconds``),
    ``SETUP_IMPORTS`` times here and ``PASS_IMPORTS`` times after every pass
    (``measure``), and ``setup_s`` takes the median of the normalized times.
    Each import is scaled by probes run in its own interpreter just before
    and after it; probes in the parent, or the fastest unscaled import of a
    run, follow the import's speed less closely: on the box of README.md the
    median of 25 unscaled imports read 0.167 to 0.221 s in three sets a few
    seconds apart, the median of 25 scaled ones 0.191 to 0.203 s.  Generation
    is timed ``SETUP_REPS`` times, with probes between instances.
    """
    imports = [import_seconds() for _ in range(SETUP_IMPORTS)]
    gens = []
    for _ in range(SETUP_REPS):
        tick = Ticker()
        w = build(tick=tick)
        wall, k = tick.stop()
        gens.append(wall * k)
    return w, imports, statistics.median(gens)


def measure(w: workloads.Workload, seconds: float, imports: Optional[List[Tuple[float, float]]] = None) -> Run:
    """Closed loop over the pool until ``seconds`` pass; at least one pass.

    With ``imports``, the import is timed ``PASS_IMPORTS`` more times after
    every pass and appended to it; that time does not count toward ``seconds``.
    """
    run = Run(w)
    start = time.perf_counter()
    run.run_pass()
    while True:
        if imports is not None:
            t = time.perf_counter()
            imports += [import_seconds() for _ in range(PASS_IMPORTS)]
            start += time.perf_counter() - t
        if time.perf_counter() - start >= seconds:
            return run
        run.run_pass(deadline=start + seconds)


def end_to_end(run: Run, setup_s: float) -> Metrics:
    med = run.item_times()
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(med) / sum(med), "1/s"),
        "item_p50_ms": (statistics.median(med) * 1e3, "ms"),
        "item_p99_ms": (percentile(sorted(med), 0.99) * 1e3, "ms"),
        "part1_gmean_ms": (run.part_gmean(1) * 1e3, "ms"),
        "part2_gmean_ms": (run.part_gmean(2) * 1e3, "ms"),
        "part3_gmean_ms": (run.part_gmean(3) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    build: Callable[[], workloads.Workload], seconds: float
) -> Tuple[Run, Run, Tracer, Metrics, Dict[str, str]]:
    """Alternate unwrapped and wrapped passes until ``seconds`` pass.

    Returns both runs, the tracer, the per-layer metrics and each ratio's base.
    Counts and self times are per wrapped pass; ``generate_instance`` is
    measured once, on a wrapped set-up.
    """
    tr = Tracer()
    with tr.installed():
        w = build()
    gi = tr.index("harness.generate_instance")
    gen_calls, gen_self = tr.calls[gi], tr.self_s[gi]
    tr.reset()

    plain, wrapped = Run(w), Run(w)
    start = time.perf_counter()
    while not wrapped.rates or time.perf_counter() - start < seconds:
        # Alternate which side goes first, so neither always runs cold.
        plain_first = len(wrapped.rates) % 2 == 0
        if plain_first:
            plain.run_pass()
        tr.record_spans = not wrapped.rates  # spans of the first wrapped pass only
        with tr.installed():
            wrapped.run_pass(tracer=tr)
        if not plain_first:
            plain.run_pass()
    tr.record_spans = False

    passes = len(wrapped.rates)
    metrics: Metrics = {}
    for i, name in enumerate(tr.names):
        calls, own = tr.calls[i] / passes, tr.self_s[i] / passes
        if i == gi:
            calls, own = gen_calls, gen_self
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (own, "s")
        if name in KIND_SPLIT:
            for kind in KINDS:
                metrics[f"{name}.{kind}.calls"] = (tr.kind_calls.get((i, kind), 0) / passes, "count")
                metrics[f"{name}.{kind}.self_s"] = (tr.kind_self.get((i, kind), 0.0) / passes, "s")

    outs = wrapped.passes[0]
    sweep = outs if w.name == "sweep" else []
    circles = [o for it, o in zip(w.items, outs) if it.payload[0] == "circles"] if w.name == "closure" else []
    closure_calls = tr.calls[tr.index("convexgeo.ClosureSystem.closure")]
    closure_misses = tr.calls_under("convexgeo.closure_points", "convexgeo.ClosureSystem.closure") + tr.calls_under(
        "convexgeo.closure_circles", "convexgeo.ClosureSystem.closure"
    )
    ratios = {
        "theorem.witness_search.retry_ratio": (
            _ratio(sum(o.retried for o in sweep), len(sweep)), "ratio", "trials"),
        "theorem.witness_search.candidates_per_call": (
            _ratio(tr.calls_under("bodies.hull_of_union", "theorem.witness_search"),
                   tr.calls[tr.index("theorem.witness_search")]),
            "count/call", "witness_search calls; a candidate is one hull_of_union + includes"),
        "convexgeo.closure.hit_ratio": (
            _ratio(closure_calls - closure_misses, closure_calls), "ratio",
            "ClosureSystem.closure calls; a miss calls closure_points or closure_circles"),
        "convexgeo.closure_circles.indeterminate_ratio": (
            _ratio(sum(o.indeterminate for o in circles), len(circles)), "ratio", "circle configs"),
        "trace.overhead_ratio": (
            statistics.median(wrapped.rates) / statistics.median(plain.rates), "ratio",
            "unwrapped items_per_s, medians of normalized pass rates"),
    }
    for k, (v, unit, _) in ratios.items():
        metrics[k] = (v, unit)
    return plain, wrapped, tr, metrics, {k: base for k, (_, _, base) in ratios.items()}


@dataclass
class Result:
    lines: List[str]
    attempted: int
    failed: int
    metrics: Metrics

    def json(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def run_benchmark(
    name: str, seed: int, seconds: float, trace: bool,
    build: Optional[Callable[[str, int], workloads.Workload]] = None,
) -> Result:
    """One run of workload ``name``; ``build`` defaults to ``workloads.build``."""
    build = build or workloads.build
    reference = load_reference()
    checks = Checks()
    lines = [f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    if trace:
        plain, wrapped, tr, metrics, bases = per_layer(lambda: build(name, seed), seconds)
        check_run(plain, reference, checks)
        for n, outs in enumerate(wrapped.passes):
            for it, a, b in zip(plain.w.items, plain.passes[0], outs):
                if a.digest != b.digest:
                    checks.fail(it.key, f"wrapped pass {n}: {it.key}: output differs from unwrapped")
        SPANS_DIR.mkdir(exist_ok=True)
        span_file = SPANS_DIR / f"spans-{name}-{seed}.jsonl"
        tr.write_spans(span_file)
        attempted = plain.attempted + wrapped.attempted
        lines.append(
            f"# {len(plain.w.items)} items; {len(wrapped.passes)} wrapped and {len(plain.passes)} "
            f"unwrapped passes; {len(tr.spans)} spans written to {span_file.relative_to(ROOT)}"
        )
        for k, (v, u) in metrics.items():
            base = f"  (base: {bases[k]})" if k in bases else ""
            lines.append(f"{k:50s} {v:14.6g} {u}{base}")
    else:
        w, imports, gen_s = setup(lambda tick: build(name, seed, tick=tick))
        run = measure(w, seconds, imports)
        setup_s = statistics.median(t for t, _ in imports) + gen_s
        check_run(run, reference, checks)
        metrics = end_to_end(run, setup_s)
        attempted = run.attempted
        counts = [len(t) for t in run.times]
        parts = workloads.PART_NAMES[name]
        labels = {
            "setup_s": f"median of {len(imports)} imports over the run (unscaled "
                       f"{statistics.median(r for _, r in imports):.4g} s) + median of {SETUP_REPS} generations",
            "items_per_s": f"{len(w.items)} items / sum of item times",
            "item_p99_ms": f"over {len(w.items)} item times",
            "part1_gmean_ms": parts[0], "part2_gmean_ms": parts[1], "part3_gmean_ms": parts[2],
        }
        lines.append(f"# {len(w.items)} items, each timed {min(counts)}-{max(counts)} times; {w.info}")
        lines.append(
            f"# speed factor {min(run.factors):.3f}-{max(run.factors):.3f} over {len(run.factors)} passes; "
            f"unscaled items_per_s {run.raw_items_per_s():.6g}"
        )
        for k, (v, u) in metrics.items():
            label = f"  ({labels[k]})" if k in labels else ""
            lines.append(f"{k:16s} {v:14.6g} {u}{label}")
        indet = sum(o.indeterminate for o in run.passes[0])
        lines.append(
            f"fail_ratio       {(len(checks.failed) + indet) / len(w.items):14.6g} "
            f"({len(checks.failed)} failed checks + {indet} indeterminate, over {len(w.items)} items)"
        )
    lines += [f"! {msg}" for msg in checks.messages[:50]]
    return Result(lines, attempted, len(checks.failed), metrics)
