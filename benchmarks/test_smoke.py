"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that every metric is printed with its unit, that the traced run's
outputs are bit-identical to the untraced run's, that a failing op is counted
once, however many passes the run makes, without ending the run, that changed
inputs are reported, that a set-up probe makes the same inputs in a fresh
process, and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run._import_package()
import quadplan.bench as B  # noqa: E402
import quadplan.grid as G  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

TINY = {
    "pipeline": lambda: W.Pipeline(n_maps=2),
    "uniform_budget": lambda: W.UniformBudget(n_maps=2),
    "backend": lambda: W.Backend(n_maps=2, planner_seeds=1),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(W, "WORKLOADS", dict(TINY))
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "input_digests.json")
    monkeypatch.setattr(run, "RECORDED_SEEDS", range(1))
    # A probe is a fresh process, which sees the full-size workloads.
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    run.record_digests()
    return tmp_path


def _run(capsys, workload, trace, seed=0, seconds=0.01):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)]) == 0
    cap = capsys.readouterr()
    lines = cap.out.strip().splitlines()
    report = json.loads((run.RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(lines[-1]), "\n".join(lines[:-1]), cap.err, report


def _printed(text, name, unit):
    return any(line.split()[:1] == [name] and line.split()[-1] == unit for line in text.splitlines())


def test_workload_names_match_benchmark_json():
    assert sorted(NAMES) == sorted(W.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_printed_with_units(tiny, capsys, workload):
    last, text, err, _ = _run(capsys, workload, 0)
    assert last["correct"], err
    assert last["attempted"] >= 1 and last["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    for name, unit in want.items():
        assert last["metrics"][name]["value"] > 0
        assert _printed(text, name, unit), name
    assert _printed(text, "fail_ratio", "ratio")
    assert _printed(text, "cost_mean", "m")
    assert _printed(text, "effort_mean", "effort")
    assert "op_ms_tail percentile" in text


@pytest.mark.parametrize("workload", NAMES)
def test_traced_outputs_identical_and_layers_printed(tiny, capsys, workload):
    _, _, _, untraced = _run(capsys, workload, 0)
    last, text, err, report = _run(capsys, workload, 1)
    assert last["correct"], err
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    for name, unit in want.items():
        assert _printed(text, name, unit), name
    assert report["traced_output_digest"] == report["output_digest"] == untraced["output_digest"]
    assert last["metrics"]["trace.overhead_ratio"]["value"] > 0


def _walled_input():
    """Start and goal on either side of a solid wall: no path exists."""
    occ = np.zeros((12, 12, 12), dtype=bool)
    occ[6, :, :] = True
    grid = G.OccupancyGrid(occ, 1.0)
    case = B.BenchCase("walled", grid, grid.index_to_world((1, 1, 1)),
                       G.GoalRegion(grid.index_to_world((10, 10, 10)), 1.5))
    return W.PlanInput(case, 0)


def test_failing_op_is_counted_not_fatal(tiny, capsys, monkeypatch):
    good = W.Pipeline.inputs
    monkeypatch.setattr(W.Pipeline, "inputs", lambda self, seed: good(self, seed) + [_walled_input()])
    run.record_digests()
    # Long enough for several passes: attempted and failed count each input once.
    last, text, err, report = _run(capsys, "pipeline", 0, seconds=1.0)
    assert last["correct"], err
    assert len(report["pass_seconds"]) > 1 and report["timed_ops"] > 3
    assert last["failed"] == 1 and last["attempted"] == 3
    assert report["failures"] == {"NoPathError": 1}
    assert report["fail_ratio"] == pytest.approx(1 / 3)


def test_changed_inputs_are_reported(tiny, capsys):
    digests = json.loads(run.DIGESTS.read_text())
    digests["pipeline"]["0"] = "0" * 64
    run.DIGESTS.write_text(json.dumps(digests))
    last, _, err, _ = _run(capsys, "pipeline", 0)
    assert not last["correct"]
    assert "workload changed" in err


def test_setup_probe_makes_same_inputs():
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pipeline", "--seed", "0",
         "--setup-probe"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode == 0, res.stderr
    probe = json.loads(res.stdout.strip().splitlines()[-1])
    assert probe["setup_s"] > 0
    assert probe["input_digest"] == W.inputs_digest(W.Pipeline().inputs(0))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode != 0
    assert not any(line.startswith("{") for line in res.stdout.splitlines())
