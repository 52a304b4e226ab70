"""Harness, serialization, RNG, CLI, and SVG rendering."""

import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest

from planeconvex import serial
from planeconvex.bodies import Disk, DiskIntersection, Polygon, Triangle
from planeconvex.cli import build_parser, main
from planeconvex.geom import Point
from planeconvex.harness import (
    SCENARIOS,
    Scenario,
    _approx_bodies,
    generate_instance,
    report_to_csv,
    run_approx_instance,
    run_scenario,
)
from planeconvex.rng import SplitMix64, trial_rng
from planeconvex.svgrender import render_svg
from planeconvex.transforms import Translation, homothety

F = Fraction


class TestRng:
    def test_determinism(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_distinct_streams(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_trial_rng_depends_on_trial(self):
        assert trial_rng(5, 0).next_u64() != trial_rng(5, 1).next_u64()

    def test_randint_bounds(self):
        rng = SplitMix64(9)
        vals = [rng.randint(-3, 3) for _ in range(200)]
        assert min(vals) >= -3 and max(vals) <= 3
        assert len(set(vals)) == 7


class TestSerial:
    def test_fraction_roundtrip(self):
        p = Point(F(1, 3), F(-7, 2))
        assert serial.point_from_json(serial.point_to_json(p)) == p

    def test_body_roundtrips(self):
        bodies = [
            Disk(Point(F(1), F(2)), F(3, 2)),
            Polygon((Point(F(0), F(0)), Point(F(1), F(0)), Point(F(0), F(1)))),
            DiskIntersection((Disk(Point(F(0), F(0)), F(2)), Disk(Point(F(1), F(0)), F(2)))),
        ]
        for u in bodies:
            assert serial.body_from_json(serial.body_to_json(u)) == u

    def test_map_roundtrips(self):
        for m in (homothety(Point(F(1), F(2)), F(3)), Translation((F(1), F(0)))):
            assert serial.map_from_json(serial.map_to_json(m)) == m

    def test_triangle_roundtrip(self):
        t = Triangle(Point(F(0), F(0)), Point(F(4), F(0)), Point(F(0), F(4)))
        assert serial.triangle_from_json(serial.triangle_to_json(t)).points == t.points

    def test_dumps_is_canonical(self):
        d = {"b": 1, "a": [1, 2]}
        assert serial.dumps(d) == serial.dumps(dict(reversed(list(d.items()))))


class TestGenerateInstance:
    def test_deterministic_bytes(self):
        a = serial.dumps(generate_instance("theorem-sweep", 1))
        b = serial.dumps(generate_instance("theorem-sweep", 1))
        assert a == b

    def test_distinct_seeds_distinct_instances(self):
        a = serial.dumps(generate_instance("theorem-sweep", 1))
        b = serial.dumps(generate_instance("theorem-sweep", 2))
        assert a != b

    def test_carousel_instance_shape(self):
        inst = generate_instance("carousel-grid", 7)
        assert "triangle" in inst

    def test_all_body_kinds_appear(self):
        kinds = set()
        for seed in range(60):
            inst = generate_instance("theorem-sweep", seed)
            kinds.add(inst["body0"]["kind"])
        assert {"disk", "disk_intersection", "polygon"} <= kinds


class TestRunScenario:
    def test_small_theorem_sweep_passes(self):
        rep = run_scenario(Scenario("theorem-sweep", {"trials": 50}, seed=11))
        assert rep.trials == 50 and rep.failures == [] and rep.indeterminate == 0

    def test_carousel_grid_passes(self):
        rep = run_scenario(Scenario("carousel-grid", {"trials": 3, "grid": 20}, seed=3))
        assert rep.failures == []

    def test_crossing_study_no_crossings(self):
        rep = run_scenario(Scenario("crossing-study", {"trials": 40}, seed=5))
        assert rep.failures == []

    def test_convexgeo_check_passes(self):
        rep = run_scenario(Scenario("convexgeo-check", {"trials": 20}, seed=8))
        assert rep.failures == []

    def test_fixture_battery_all_pass(self):
        rep = run_scenario(Scenario("fixture", {}, seed=0))
        assert rep.trials == 5 and rep.passes == 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(Scenario("nope", {}, seed=0))

    def test_approx_budget_below_150_is_the_last_checkpoint(self):
        """Seed 105's triangle has abundance 0.049784 < 0.05 at 100 disks; the
        abundance at 150 disks is no checkpoint of a 100-disk budget."""
        ok, final = run_approx_instance(_approx_bodies(105)[1][1], 100)
        assert ok and final == pytest.approx(0.049784495, abs=1e-9)


class TestCsvReport:
    def test_columns_and_determinism(self):
        sc = Scenario("theorem-sweep", {"trials": 10}, seed=21)
        r1 = report_to_csv(run_scenario(sc), with_timing=False)
        r2 = report_to_csv(run_scenario(sc), with_timing=False)
        assert r1 == r2
        rows = list(csv.reader(io.StringIO(r1)))
        assert rows[0] == [
            "trial", "kind", "seed", "verdict", "witness_j", "witness_k", "xi_max", "eps_used",
        ]
        assert len(rows) == 11

    def test_theorem_sweep_csv_is_pinned(self):
        """sha1 of seed 101's 300-trial CSV: any change in instance generation
        or in a verdict or witness changes it."""
        sc = Scenario("theorem-sweep", {"trials": 300}, seed=101)
        csv_text = report_to_csv(run_scenario(sc), with_timing=False)
        assert hashlib.sha1(csv_text.encode()).hexdigest() == "6a2f63c4b166bac56eee62caa07e9e26ab4107d8"

    @pytest.mark.parametrize(
        "kind, params, seed, sha1",
        [
            ("carousel-grid", {"trials": 3, "grid": 8}, 102, "a1c642a852aa230289a52a29188340abf8093442"),
            ("crossing-study", {"trials": 50}, 103, "9519bc8afdcc643e8c6479902b05792aa8dd5848"),
            ("convexgeo-check", {"trials": 20}, 104, "ad3804e1b6e5c773ddecf1fd6b2fe9ea04f73034"),
            ("approx-study", {"disks": 200}, 105, "1757b0030982c36d9840e0da1cebf352756423e6"),
            ("approx-study", {"disks": 50}, 105, "1403a76794235bd64c75201990d21eecc5c53984"),
            ("fixture", {}, 106, "19e23a35a2a8be8b27c02ba2362eae7ba5ab1ac3"),
        ],
    )
    def test_other_kinds_csv_is_pinned(self, kind, params, seed, sha1):
        """sha1 of each other kind's CSV in test 10's configuration (a
        smaller carousel grid, which changes no byte)."""
        csv_text = report_to_csv(run_scenario(Scenario(kind, params, seed)), with_timing=False)
        assert hashlib.sha1(csv_text.encode()).hexdigest() == sha1

    def test_timing_column_present_by_default(self):
        sc = Scenario("theorem-sweep", {"trials": 2}, seed=21)
        rows = list(csv.reader(io.StringIO(report_to_csv(run_scenario(sc)))))
        assert rows[0][-1] == "millis"


class TestCli:
    def test_verify_theorem_exit_zero(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["verify-theorem", "--seed", "5", "--trials", "10", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert len(rows) == 11
        assert all(r[3] == "pass" for r in rows[1:])

    def test_txt_format(self, capsys):
        code = main(["fixtures", "--format", "txt"])
        assert code == 0
        text = capsys.readouterr().out
        assert "trials: 5" in text and "passes: 5" in text

    def test_crossing_rows_record_eps(self, capsys):
        assert main(["crossing", "--trials", "2", "--eps", "1e-6"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [r[7] for r in rows[1:]] == ["1e-06", "1e-06"]

    def test_usage_error_exit_two(self):
        assert main(["no-such-verb"]) == 2

    def test_render_comet(self, tmp_path):
        inst = {"comet": {"focus": [3, 0], "nucleus": {"kind": "disk", "center": [0, 0], "radius": 1}}}
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(inst))
        out = tmp_path / "scene.svg"
        assert main(["render", str(f), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("ray-") == 2 and svg.count("front-arc") == 1


class TestScenarioTable:
    # Each sweep verb's parsed defaults: the common flags and its kind's own
    # integer parameters.  A kind with a trial count takes --trials, and a
    # missing --trials takes that count; approx and fixtures take none.
    COMMON = {"seed": 0, "eps": 1e-9, "out": None, "format": "csv"}
    VERBS = {
        "verify-theorem": (100, {}),
        "carousel": (5, {"grid": 50}),
        "approx": (None, {"disks": 200}),
        "convexgeo": (50, {}),
        "crossing": (500, {}),
        "fixtures": (None, {}),
    }

    def test_verbs_and_defaults(self):
        assert {k.verb: (k.trials, k.params) for k in SCENARIOS.values()} == self.VERBS
        ap = build_parser()
        for verb, (trials, params) in self.VERBS.items():
            flags = {**self.COMMON, **params} if trials is None else {**self.COMMON, "trials": None, **params}
            assert vars(ap.parse_args([verb])) == {"verb": verb, **flags}

    @pytest.mark.parametrize("verb", ["approx", "fixtures"])
    def test_fixed_kinds_refuse_trials(self, verb, capsys):
        assert main([verb, "--trials", "7"]) == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["verify-theorem", "--trials", "3"], 3),
            (["carousel", "--grid", "3"], 5),
            (["approx", "--seed", "105", "--disks", "100"], 2),
            (["convexgeo"], 50),
            (["crossing", "--trials", "3"], 3),
            (["fixtures"], 5),
        ],
    )
    def test_every_verb_runs(self, argv, rows, tmp_path):
        out = tmp_path / "r.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == rows + 1


class TestSvgRender:
    def test_witness_overlay(self):
        inst = generate_instance("theorem-sweep", 123)
        svg = render_svg(inst, {"witness": {"j": 0, "k": 1}})
        assert "witness-hull" in svg and "triangle" in svg

    def test_empty_results_no_overlay(self):
        inst = generate_instance("theorem-sweep", 123)
        svg = render_svg(inst)
        assert "witness-hull" not in svg

    def test_deterministic_bytes(self):
        inst = generate_instance("theorem-sweep", 9)
        assert render_svg(inst) == render_svg(inst)
