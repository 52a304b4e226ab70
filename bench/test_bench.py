"""Tests of the benchmark itself, on small pools of each workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str, seed: int, tick=workloads._no_tick) -> workloads.Workload:
    """A few items of each class; one approx checkpoint per part."""
    if name == "sweep":
        return workloads.build_sweep(seed, quota=3, tick=tick)
    if name == "closure":
        return workloads.build_closure(seed, tick=tick, point_quota=1, circle_quota=1)
    w = workloads.build_approx(seed, tick=tick)
    w.items = [it for it in w.items if it.payload[2] in (1, 20, 100)]
    return w


@pytest.mark.parametrize("name", workloads.BUILDERS)
def test_wrappers_change_no_output(name):
    seed = workloads.DEFAULT_SEEDS[name]
    plain, wrapped, tr, _, _ = measure.per_layer(lambda tick=None: small(name, seed), 0.0)
    assert [o.digest for o in plain.passes[0]] == [o.digest for o in wrapped.passes[0]]
    assert sum(tr.calls) > 0


def test_uninstall_restores_every_binding():
    from planeconvex import bodies, harness, theorem, transforms

    before = (bodies.includes, theorem.includes, harness.includes, transforms.PlaneMap.apply)
    tr = Tracer()
    with tr.installed():
        assert theorem.includes is not before[1] and harness.includes is not before[2]
        assert transforms.Homothety.apply is transforms.Translation.apply is not before[3]
    assert (bodies.includes, theorem.includes, harness.includes, transforms.PlaneMap.apply) == before


@pytest.mark.parametrize("name", workloads.BUILDERS)
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(name, trace):
    seed = workloads.DEFAULT_SEEDS[name]
    result = measure.run_benchmark(name, seed, 0.0, trace, build=small)
    assert result.failed == 0, result.lines
    printed = json.loads(result.json())
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in printed["metrics"].items()} == declared
    assert printed["correct"] and printed["attempted"] >= 1


@pytest.mark.parametrize("name", workloads.BUILDERS)
def test_seed_fixes_the_inputs(name):
    a = workloads.input_digest(small(name, 5))
    assert a == workloads.input_digest(small(name, 5))
    assert a != workloads.input_digest(small(name, 6))


@pytest.mark.parametrize("name", workloads.BUILDERS)
def test_other_seed_runs_clean(name):
    result = measure.run_benchmark(name, 987654321, 0.0, False, build=small)
    assert result.failed == 0, result.lines


def test_closure_keeps_no_config_that_repeats_a_disk():
    # Seed 110 draws c16, a 5-disk config with two equal disks.
    w = workloads.build_closure(110)
    assert "c16" not in {it.key for it in w.items}
    assert all(len(set(it.payload[1])) == len(it.payload[1]) for it in w.items)


def test_reference_mismatch_is_listed_by_item():
    w = small("sweep", workloads.DEFAULT_SEEDS["sweep"])
    outs = [w.run(it) for it in w.items]
    ref = dict(measure.load_reference()["sweep"]["items"])
    ref[w.items[1].key] = "0" * 12
    errors = workloads.compare_reference("sweep", w.items, outs, ref)
    assert len(errors) == 1 and errors[0].startswith(w.items[1].key + ":")


def test_config_resolved_since_the_reference_is_a_mismatch():
    w = small("closure", workloads.DEFAULT_SEEDS["closure"])
    outs = [w.run(it) for it in w.items]
    ref = dict(measure.load_reference()["closure"]["items"])
    key = w.items[-1].key
    ref[key] = workloads._digest((key, "indeterminate"))
    errors = workloads.compare_reference("closure", w.items, outs, ref)
    assert [e.split(":")[0] for e in errors] == [key]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = SPEC["command"] + ["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
