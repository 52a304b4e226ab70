"""Scenario generation, randomized sweeps, and CSV reporting.

Every instance is a deterministic function of a 64-bit seed; per-trial seeds
derive from the scenario seed and the trial index, so any failing trial can be
replayed standalone.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

from . import serial
from .bodies import (
    Disk,
    DiskIntersection,
    Polygon,
    Triangle,
    abundance,
    contains_point,
    convex_hull,
    includes,
    transform_body,
)
from .convexgeo import (
    circles_closure_system,
    points_closure_system,
    verify_anti_exchange,
    verify_closure_axioms,
)
from .errors import GenerationFailed, IndeterminateGeometry
from .geom import DEFAULT_TOL, Point, Tolerance, dist
from .rng import SplitMix64, trial_seed
from .theorem import (
    carousel_witness,
    edge_free_approx,
    fejes_toth_crossing,
    witness_search,
)
from .transforms import PlaneMap, Translation, homothety


@dataclass(frozen=True)
class Scenario:
    kind: str
    params: Dict[str, Any]
    seed: int
    eps: float = 1e-9


@dataclass
class TrialRecord:
    trial: int
    kind: str
    seed: int
    verdict: str  # pass | fail | indeterminate
    witness_j: Optional[int] = None
    witness_k: Optional[int] = None
    xi_max: Optional[float] = None
    eps_used: float = 1e-9
    millis: float = 0.0


@dataclass
class SweepReport:
    trials: int
    passes: int
    failures: List[int]
    indeterminate: int
    millis: float
    records: List[TrialRecord] = field(default_factory=list)

    def __post_init__(self):
        assert self.passes + len(self.failures) + self.indeterminate == self.trials


CSV_COLUMNS = ["trial", "kind", "seed", "verdict", "witness_j", "witness_k", "xi_max", "eps_used", "millis"]


def report_to_csv(report: SweepReport, with_timing: bool = True) -> str:
    buf = io.StringIO()
    cols = CSV_COLUMNS if with_timing else CSV_COLUMNS[:-1]
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    for r in sorted(report.records, key=lambda r: r.trial):
        row = [
            r.trial,
            r.kind,
            r.seed,
            r.verdict,
            "" if r.witness_j is None else r.witness_j,
            "" if r.witness_k is None else r.witness_k,
            "" if r.xi_max is None else f"{r.xi_max:.9f}",
            f"{r.eps_used:g}",
        ]
        if with_timing:
            row.append(f"{r.millis:.3f}")
        w.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Instance generation


def _rational(rng: SplitMix64, lo: float, hi: float, den: int = 16) -> Fraction:
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def _random_triangle(rng: SplitMix64) -> Triangle:
    """Vertices k/16 with k in [-96, 96], drawn x0, y0, x1, y1, x2, y2, until
    the triangle has area at least 4."""
    for _ in range(100):
        x0, y0, x1, y1, x2, y2 = (rng.randint(-96, 96) for _ in range(6))
        d = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)  # 256 times twice the area
        if abs(d) >= 8 * 256:  # area at least 4
            pts = [Point(Fraction(x, 16), Fraction(y, 16)) for x, y in ((x0, y0), (x1, y1), (x2, y2))]
            if d < 0:
                pts[1], pts[2] = pts[2], pts[1]
            return Triangle(*pts)
    raise GenerationFailed("could not draw a fat triangle")


def _incircle(tri: Triangle):
    a0, a1, a2 = (p.to_float() for p in tri.points)
    l0 = dist(a1, a2)
    l1 = dist(a2, a0)
    l2 = dist(a0, a1)
    per = l0 + l1 + l2
    cx = (l0 * a0.x + l1 * a1.x + l2 * a2.x) / per
    cy = (l0 * a0.y + l1 * a1.y + l2 * a2.y) / per
    area = abs(
        (a1.x - a0.x) * (a2.y - a0.y) - (a1.y - a0.y) * (a2.x - a0.x)
    ) / 2.0
    return Point(cx, cy), 2.0 * area / per


def _random_body(rng: SplitMix64, center: Point, rho: float):
    kind = rng.choice(["disk", "disk_intersection", "polygon", "singleton"])
    cx, cy = float(center.x), float(center.y)
    if kind == "disk":
        return Disk(Point(cx, cy), rho * (0.4 + 0.6 * rng.random()))
    if kind == "disk_intersection":
        disks = []
        for _ in range(3):
            ox = (rng.random() - 0.5) * rho
            oy = (rng.random() - 0.5) * rho
            c = Point(cx + ox, cy + oy)
            r = rho * (0.6 + 0.4 * rng.random())
            # keep the common center inside every disk
            r = max(r, dist(c, Point(cx, cy)) + 0.2 * rho)
            disks.append(Disk(c, min(r, rho)))
        return DiskIntersection(tuple(disks))
    if kind == "polygon":
        k = rng.randint(3, 8)
        pts = []
        for _ in range(k):
            ang = rng.random() * 6.283185307179586
            rr = rho * (0.3 + 0.7 * rng.random())
            pts.append(
                Point(
                    Fraction(round((cx + rr * math.cos(ang)) * 256), 256),
                    Fraction(round((cy + rr * math.sin(ang)) * 256), 256),
                )
            )
        return convex_hull(pts)
    return Polygon((Point(Fraction(round(cx * 256), 256), Fraction(round(cy * 256), 256)),))


def generate_instance(kind: str, seed: int) -> Dict[str, Any]:
    rng = SplitMix64(seed)
    if kind == "theorem-sweep":
        tri = _random_triangle(rng)
        tri_poly = tri.as_polygon()
        inc, r_in = _incircle(tri)
        for _ in range(100):
            off = 0.3 * r_in
            c = Point(
                float(inc.x) + (rng.random() - 0.5) * off,
                float(inc.y) + (rng.random() - 0.5) * off,
            )
            rho = r_in * (0.1 + 0.2 * rng.random())
            body = _random_body(rng, c, rho)
            # target placement for the image
            c2 = Point(
                float(inc.x) + (rng.random() - 0.5) * off,
                float(inc.y) + (rng.random() - 0.5) * off,
            )
            if rng.random() < 0.5:
                m: PlaneMap = Translation((c2.x - c.x, c2.y - c.y))
            else:
                lam = 0.4 + 1.2 * rng.random()
                # homothety center sending c to c2 with ratio lam
                px = (float(c2.x) - lam * float(c.x)) / (1 - lam)
                py = (float(c2.y) - lam * float(c.y)) / (1 - lam)
                m = homothety(Point(px, py), lam)
            image = transform_body(m, body)
            if includes(tri_poly, body, DEFAULT_TOL) and includes(tri_poly, image, DEFAULT_TOL):
                return {
                    "kind": kind,
                    "seed": seed,
                    "triangle": serial.triangle_to_json(tri),
                    "body0": serial.body_to_json(body),
                    "map": serial.map_to_json(m),
                }
        raise GenerationFailed("no admissible placement after 100 attempts")
    if kind == "carousel-grid":
        tri = _random_triangle(rng)
        b0 = _interior_rational_point(rng, tri)
        return {
            "kind": kind,
            "seed": seed,
            "triangle": serial.triangle_to_json(tri),
            "b0": serial.point_to_json(b0),
        }
    if kind == "crossing-study":
        d0 = Disk(Point(rng.uniform(-4, 4), rng.uniform(-4, 4)), rng.uniform(0.2, 3.0))
        d1 = Disk(Point(rng.uniform(-4, 4), rng.uniform(-4, 4)), rng.uniform(0.2, 3.0))
        return {
            "kind": kind,
            "seed": seed,
            "body0": serial.body_to_json(d0),
            "body1": serial.body_to_json(d1),
        }
    if kind == "convexgeo-check":
        flavor = rng.choice(["points", "circles"])
        if flavor == "points":
            n = rng.randint(3, 8)
            pts = [Point(_rational(rng, -8, 8, 32), _rational(rng, -8, 8, 32)) for _ in range(n)]
            return {"kind": kind, "seed": seed, "flavor": flavor, "points": [serial.point_to_json(p) for p in pts]}
        n = rng.randint(2, 6)
        disks = [
            Disk(Point(rng.uniform(-6, 6), rng.uniform(-6, 6)), rng.uniform(0.3, 2.5))
            for _ in range(n)
        ]
        return {"kind": kind, "seed": seed, "flavor": flavor, "disks": [serial.body_to_json(d) for d in disks]}
    raise ValueError(f"unknown instance kind {kind!r}")


def _interior_rational_point(rng: SplitMix64, tri: Triangle) -> Point:
    a0, a1, a2 = tri.points
    w0 = rng.randint(1, 61)
    w1 = rng.randint(1, 61)
    w2 = rng.randint(1, 61)
    s = w0 + w1 + w2
    return Point(
        Fraction(w0 * a0.x + w1 * a1.x + w2 * a2.x, 1) / s,
        Fraction(w0 * a0.y + w1 * a1.y + w2 * a2.y, 1) / s,
    )


# ---------------------------------------------------------------------------
# One trial of each kind


def run_theorem_instance(inst: Dict[str, Any], eps: float) -> TrialRecord:
    tri = serial.triangle_from_json(inst["triangle"])
    u0 = serial.body_from_json(inst["body0"])
    m = serial.map_from_json(inst["map"])
    u1 = transform_body(m, u0)
    eps_used = eps
    ws = witness_search(u0, u1, tri, Tolerance(eps), stop_at_first=True)
    if not ws and eps < 1e-6:
        eps_used = 1e-6
        ws = witness_search(u0, u1, tri, Tolerance(1e-6), stop_at_first=True)
    if ws:
        return TrialRecord(
            0, inst["kind"], inst["seed"], "pass", witness_j=ws[0].j, witness_k=ws[0].k, eps_used=eps_used
        )
    return TrialRecord(0, inst["kind"], inst["seed"], "fail", eps_used=eps_used)


def run_carousel_instance(inst: Dict[str, Any], grid: int) -> bool:
    tri = serial.triangle_from_json(inst["triangle"])
    b0 = serial.point_from_json(inst["b0"])
    a0, a1, a2 = tri.points
    den = grid + 1
    for gi in range(1, grid + 1):
        s = Fraction(gi, den)
        for gj in range(1, grid + 1):
            t = (1 - s) * Fraction(gj, den)
            b1 = Point(
                a0.x + s * (a1.x - a0.x) + t * (a2.x - a0.x),
                a0.y + s * (a1.y - a0.y) + t * (a2.y - a0.y),
            )
            if b1.x == b0.x and b1.y == b0.y:
                continue
            w = carousel_witness(b0, b1, tri)
            # re-verify the defining loose inclusion
            pts = (b0, b1)
            seed_pt, other = pts[w.k], pts[1 - w.k]
            kept = [tri.points[i2] for i2 in (0, 1, 2) if i2 != w.j]
            hull = convex_hull([seed_pt] + kept)
            if not contains_point(hull, other, "strict", Tolerance(0.0)):
                return False
    return True


def run_convexgeo_instance(inst: Dict[str, Any]) -> str:
    try:
        if inst["flavor"] == "points":
            pts = [serial.point_from_json(p) for p in inst["points"]]
            cs = points_closure_system(pts)
        else:
            disks = [serial.body_from_json(d) for d in inst["disks"]]
            cs = circles_closure_system(disks)
        ok1, _ = verify_closure_axioms(cs)
        ok2, _ = verify_anti_exchange(cs)
        return "pass" if (ok1 and ok2) else "fail"
    except IndeterminateGeometry:
        return "indeterminate"


def _approx_bodies(seed: int):
    rng = SplitMix64(seed)
    square = Polygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
    tri = _random_triangle(rng)
    # scale the random triangle to roughly unit size
    pts = [p.to_float() for p in tri.points]
    cx = sum(p.x for p in pts) / 3
    cy = sum(p.y for p in pts) / 3
    r = max(dist(p, Point(cx, cy)) for p in pts)
    pts = [Point((p.x - cx) / r, (p.y - cy) / r) for p in pts]
    return [("square", square), ("triangle", Polygon(tuple(pts)))]


def run_approx_instance(u, budget: int):
    """Nonincreasing abundance dropping below 0.05 within the budget, checked
    at the checkpoints below the budget and at the budget."""
    checkpoints = [n for n in (1, 2, 5, 10, 20, 50, 100, 150) if n < budget] + [budget]
    prev = None
    final = None
    for n in checkpoints:
        a = abundance(u, edge_free_approx(u, n))
        if prev is not None and a > prev + 1e-9:
            return False, a
        prev = a
        final = a
    return final < 0.05, final


# ---------------------------------------------------------------------------
# Scenario execution: each kind yields its trials' records, and one loop
# numbers and times them.


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _seeded(sc: Scenario, trials: int):
    """Each trial's seed and generated instance."""
    for t in range(trials):
        seed = trial_seed(sc.seed, t)
        yield seed, generate_instance(sc.kind, seed)


def _theorem_trials(sc: Scenario, trials: int) -> Iterator[TrialRecord]:
    for _, inst in _seeded(sc, trials):
        yield run_theorem_instance(inst, sc.eps)


def _carousel_trials(sc: Scenario, trials: int, grid: int) -> Iterator[TrialRecord]:
    for seed, inst in _seeded(sc, trials):
        yield TrialRecord(0, sc.kind, seed, _verdict(run_carousel_instance(inst, grid)))


def _crossing_trials(sc: Scenario, trials: int) -> Iterator[TrialRecord]:
    for seed, inst in _seeded(sc, trials):
        d0 = serial.body_from_json(inst["body0"])
        d1 = serial.body_from_json(inst["body1"])
        ok = not fejes_toth_crossing(d0, d1, Tolerance(sc.eps))
        yield TrialRecord(0, sc.kind, seed, _verdict(ok), eps_used=sc.eps)


def _convexgeo_trials(sc: Scenario, trials: int) -> Iterator[TrialRecord]:
    for seed, inst in _seeded(sc, trials):
        yield TrialRecord(0, sc.kind, seed, run_convexgeo_instance(inst))


def _approx_trials(sc: Scenario, disks: int) -> Iterator[TrialRecord]:
    """The square and the seed's triangle."""
    for _, u in _approx_bodies(sc.seed):
        ok, final = run_approx_instance(u, disks)
        yield TrialRecord(0, sc.kind, sc.seed, _verdict(ok), xi_max=final)


def _fixture_trials(sc: Scenario) -> Iterator[TrialRecord]:
    """The five committed fixtures."""
    from . import fixtures
    from .convexgeo import shapes_closure_system, m3_lattice, is_join_distributive
    from .errors import EdgeFreeRequired
    from .theorem import internally_tangent, tangency_classify

    def record(ok: bool) -> TrialRecord:
        return TrialRecord(0, sc.kind, sc.seed, _verdict(ok), eps_used=sc.eps)

    # rectangle pair: internally tangent, yet classification must refuse
    rect = fixtures.rectangle()
    h, tr = fixtures.rectangle_pair_maps()
    ok = True
    for m in (h, tr):
        img = transform_body(m, rect)
        if internally_tangent(rect, img, Tolerance(sc.eps)) is None:
            ok = False
        try:
            tangency_classify(rect, m, Tolerance(sc.eps))
            ok = False
        except EdgeFreeRequired:
            pass
    yield record(ok)

    # exact disk tangency
    d0, m = fixtures.disk_tangency_pair()
    cls = tangency_classify(d0, m, Tolerance(sc.eps))
    yield record(cls.kind == "CenterContact" and cls.inclusion == "U0_in_U1")

    # plus-sign crossing
    r0, r1 = fixtures.plus_sign_rectangles()
    yield record(fejes_toth_crossing(r0, r1, Tolerance(sc.eps)))

    # committed anti-exchange violation
    cs = shapes_closure_system(fixtures.ANTI_EXCHANGE_SHAPES)
    ok_ax, _ = verify_closure_axioms(cs)
    ok_ae, wit = verify_anti_exchange(cs)
    yield record(ok_ax and not ok_ae and wit == fixtures.ANTI_EXCHANGE_WITNESS)

    # M3 fails join-distributivity
    yield record(not is_join_distributive(m3_lattice()))


class ScenarioKind(NamedTuple):
    """A sweep kind: its CLI verb, default trial count (None for a kind
    whose trials are fixed), extra integer parameters with their defaults,
    and ``run(sc, [trials,] **params)``, which yields one record per trial."""

    verb: str
    trials: Optional[int]
    params: Dict[str, int]
    run: Callable[..., Iterator[TrialRecord]]


SCENARIOS: Dict[str, ScenarioKind] = {
    "theorem-sweep": ScenarioKind("verify-theorem", 100, {}, _theorem_trials),
    "carousel-grid": ScenarioKind("carousel", 5, {"grid": 50}, _carousel_trials),
    "approx-study": ScenarioKind("approx", None, {"disks": 200}, _approx_trials),
    "convexgeo-check": ScenarioKind("convexgeo", 50, {}, _convexgeo_trials),
    "crossing-study": ScenarioKind("crossing", 500, {}, _crossing_trials),
    "fixture": ScenarioKind("fixtures", None, {}, _fixture_trials),
}


def run_scenario(sc: Scenario) -> SweepReport:
    """Run sc's trials, numbered in order, each timed from the end of the
    one before; parameters missing from sc.params take the kind's defaults."""
    kind = SCENARIOS.get(sc.kind)
    if kind is None:
        raise ValueError(f"unknown scenario kind {sc.kind!r}")
    params = {name: int(sc.params.get(name, default)) for name, default in kind.params.items()}
    if kind.trials is not None:
        params["trials"] = int(sc.params.get("trials", kind.trials))
    records: List[TrialRecord] = []
    t_start = t0 = time.perf_counter()
    for t, rec in enumerate(kind.run(sc, **params)):
        now = time.perf_counter()
        rec.trial, rec.millis = t, (now - t0) * 1000.0
        records.append(rec)
        t0 = now
    return SweepReport(
        trials=len(records),
        passes=sum(1 for r in records if r.verdict == "pass"),
        failures=[r.trial for r in records if r.verdict == "fail"],
        indeterminate=sum(1 for r in records if r.verdict == "indeterminate"),
        millis=(time.perf_counter() - t_start) * 1000.0,
        records=records,
    )
