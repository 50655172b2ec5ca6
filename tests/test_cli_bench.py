"""Benchmark harness aggregation/report schema and the command-line entry
point's subcommands and exit codes."""

import csv
import math

import numpy as np
import pytest

from quadplan.bench import (
    CSV_COLUMNS,
    AggregateReport,
    TrialRecord,
    paperlike_maps,
    run_benchmark,
    run_trial,
    write_report,
)
from quadplan.cli import main
from quadplan.grid import GoalRegion, load_grid
from quadplan.pipeline import PipelineConfig, plan_front_end, plan_trajectory, prune_collinear
from quadplan.planner import PlannerConfig
from quadplan.regions import load_region, oracle_region
from quadplan.trajectory import (
    BivpSpec,
    control_effort,
    load_trajectory,
    save_trajectory,
    solve_bivp,
    trapezoidal_time_allocation,
)


# ----------------------------------------------------------------------- bench


def test_csv_schema_is_stable():
    assert CSV_COLUMNS == [
        "map", "mode", "seed", "success",
        "init_iter", "init_nodes", "init_cost", "init_time_ms",
        "opt_iter", "opt_nodes", "opt_time_ms",
        "jerk_solve_ms", "snap_solve_ms", "final_cost", "effort",
    ]
    rec = TrialRecord("m", "uniform", 3, True, init_iter=7, final_cost=1.5)
    row = rec.row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[:4] == ["m", "uniform", 3, 1]
    assert row[CSV_COLUMNS.index("init_iter")] == 7
    assert row[CSV_COLUMNS.index("opt_iter")] == ""  # stage never completed


def test_paperlike_maps_deterministic():
    a = paperlike_maps(3, seed=5)
    b = paperlike_maps(3, seed=5)
    assert [c.name for c in a] == ["paperlike-000", "paperlike-001", "paperlike-002"]
    for ca, cb in zip(a, b):
        assert ca.grid == cb.grid
        assert np.array_equal(ca.start, cb.start)
        assert np.array_equal(ca.goal.center, cb.goal.center)
        assert not ca.grid.occupancy[ca.grid.world_to_index(ca.start)]
        assert not ca.grid.occupancy[ca.grid.world_to_index(ca.goal.center)]


def test_run_benchmark_report_equals_trials(tmp_path):
    cases = paperlike_maps(1, seed=2)
    report_path = tmp_path / "report.csv"
    report = run_benchmark(
        cases, ["heuristic"], trials=2, seed_base=100,
        report_path=report_path, target_cost=1e18,
    )
    # The aggregate is exactly the two runs' stats.
    singles = [run_trial(cases[0], "heuristic", seed=100 + t, target_cost=1e18) for t in (0, 1)]
    agg = report.summary[(cases[0].name, "heuristic")]
    assert agg["trials"] == 2
    vals = [r.init_iter for r in singles]
    assert agg["mean_init_iter"] == pytest.approx(np.mean(vals))
    assert agg["median_init_iter"] == pytest.approx(np.median(vals))
    vals = [r.final_cost for r in singles]
    assert agg["mean_final_cost"] == pytest.approx(np.mean(vals))

    with open(report_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    # Deterministic numeric cells (wall-clock columns aside).
    time_cols = {i for i, c in enumerate(CSV_COLUMNS) if c.endswith("_ms")}
    for row, rec in zip(rows[1:], singles):
        for i, cell in enumerate(row):
            if i in time_cols:
                continue
            assert cell == str(rec.row()[i])

    with pytest.raises(ValueError):
        run_benchmark(cases, ["heuristic"], trials=0)


def test_run_benchmark_process_pool_matches_serial():
    """workers > 1 (quadplan bench --workers) runs the trials in a process
    pool; the records equal the serial run's apart from wall-clock columns."""
    cases = paperlike_maps(2, seed=5)
    kwargs = {"trials": 2, "seed_base": 40, "target_cost": 1e18}
    modes = ["heuristic", "uniform"]
    serial = run_benchmark(cases, modes, workers=1, **kwargs).records
    pooled = run_benchmark(cases, modes, workers=2, **kwargs).records
    assert len(pooled) == len(serial) == 8
    assert all(r.success for r in serial)
    time_cols = [i for i, c in enumerate(CSV_COLUMNS) if c.endswith("_ms")]
    for a, b in zip(serial, pooled):
        ra, rb = a.row(), b.row()
        for i in time_cols:
            ra[i] = rb[i] = None
        assert ra == rb


def test_aggregate_report_success_rate():
    recs = [
        TrialRecord("m", "uniform", 0, True, init_iter=10, final_cost=5.0),
        TrialRecord("m", "uniform", 1, False),
        TrialRecord("m", "uniform", 2, True, init_iter=30, final_cost=7.0),
    ]
    agg = AggregateReport(recs).summary[("m", "uniform")]
    assert agg["success_rate"] == pytest.approx(2 / 3)
    # Aggregates cover successful trials only.
    assert agg["mean_init_iter"] == pytest.approx(20.0)
    assert agg["median_final_cost"] == pytest.approx(6.0)


def test_aggregate_report_computes_its_summary():
    """summary is no constructor argument: a dict passed in used to be
    filled in place, kept its stale keys and was returned as the summary."""
    recs = [TrialRecord("m", "uniform", 0, True, init_iter=10)]
    with pytest.raises(TypeError):
        AggregateReport(recs, summary={("stale", "uniform"): {}})
    a, b = AggregateReport(recs), AggregateReport(recs)
    assert list(a.summary) == [("m", "uniform")] and a.summary is not b.summary


@pytest.mark.parametrize("kwargs", [
    {"workers": 0}, {"workers": -3}, {"workers": 2.0}, {"trials": 0}, {"trials": 2.5},
])
def test_run_benchmark_rejects_non_positive_integer_counts(kwargs):
    """workers=0 or -3 used to run serially without a word, and trials=2.5
    was a bare TypeError from range."""
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        run_benchmark([], ["uniform"], **{"trials": 1, **kwargs})


def test_write_report_round_trip(tmp_path):
    recs = [TrialRecord("a", "uniform", 1, True, init_iter=5)]
    path = tmp_path / "r.csv"
    write_report(recs, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS
    assert rows[1][0] == "a"


def test_run_trial_solve_timings():
    case = paperlike_maps(1, seed=4)[0]
    rec = run_trial(case, "heuristic", seed=1, target_cost=1e18)
    assert rec.success
    assert rec.init_iter >= rec.init_nodes >= 1
    assert rec.jerk_solve_ms >= 0.0 and rec.snap_solve_ms >= 0.0
    assert rec.effort > 0.0
    assert math.isfinite(rec.final_cost)
    # The effort comes from the timed s=3 solve, and equals that of the
    # pipeline's own solve of the same waypoints.
    cfg = PlannerConfig(step=2.0, goal=case.goal, max_iterations=30000, target_cost=1e18,
                        rng_seed=1)
    waypoints = prune_collinear(plan_front_end(case.grid, case.start, cfg).path)
    spec = BivpSpec.rest_to_rest(waypoints, trapezoidal_time_allocation(waypoints, 2.0, 1.0), 3)
    assert repr(rec.effort) == repr(control_effort(solve_bivp(spec)))


# ------------------------------------------------------------------------- CLI


def test_cli_genmap_plan_export(tmp_path, capsys):
    map_path = tmp_path / "m.grid"
    rc = main([
        "genmap", "--dims", "12,12,12", "--count", "8", "--seed", "3",
        "--keep-free", "1,1,1", "--keep-free", "10,10,4", "--out", str(map_path),
    ])
    assert rc == 0
    grid = load_grid(map_path)
    assert grid.dims == (12, 12, 12)

    traj_path = tmp_path / "t.txt"
    path_path = tmp_path / "p.txt"
    rc = main([
        "plan", "--map", str(map_path), "--start", "1.5,1.5,1.5",
        "--goal", "10.5,10.5,4.5", "--goal-radius", "1.5", "--mode", "heuristic",
        "--seed", "7", "--out", str(traj_path), "--path-out", str(path_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "success" in out
    traj = load_trajectory(traj_path)
    assert traj.m == 3
    assert path_path.read_text().startswith("# cost=")

    csv_path = tmp_path / "t.csv"
    rc = main(["traj-export", "--traj", str(traj_path), "--dt", "0.1", "--out", str(csv_path)])
    assert rc == 0
    assert csv_path.read_text().startswith("t,x,y,z,")


def _cli_map(tmp_path):
    map_path = tmp_path / "m.grid"
    assert main([
        "genmap", "--dims", "12,12,12", "--count", "8", "--seed", "3",
        "--keep-free", "1,1,1", "--keep-free", "10,10,4", "--out", str(map_path),
    ]) == 0
    return map_path


# The plan command's arguments below and the library call they must equal.
_PLAN_ARGS = ["--start", "1.5,1.5,1.5", "--goal", "10.5,10.5,4.5", "--goal-radius", "1.5",
              "--seed", "5", "--max-iter", "5000", "--target-cost", "30"]


def _library_trajectory(map_path, out, mode="heuristic", region=None):
    goal = GoalRegion(np.array([10.5, 10.5, 4.5]), 1.5)
    cfg = PipelineConfig(planner=PlannerConfig(
        step=2.0, goal=goal, max_iterations=5000, target_cost=30.0, rng_seed=5))
    result = plan_trajectory(load_grid(map_path), np.array([1.5, 1.5, 1.5]), goal, cfg,
                             mode, region)
    save_trajectory(result.trajectory, out)
    return out.read_text()


def test_cli_plan_uniform_matches_pipeline(tmp_path):
    map_path = _cli_map(tmp_path)
    traj_path = tmp_path / "t.txt"
    rc = main(["plan", "--map", str(map_path), "--mode", "uniform", *_PLAN_ARGS,
               "--out", str(traj_path)])
    assert rc == 0
    want = _library_trajectory(map_path, tmp_path / "want.txt", mode="uniform")
    assert traj_path.read_text() == want


def test_cli_plan_region_file_matches_pipeline(tmp_path, capsys):
    map_path = _cli_map(tmp_path)
    region_path = tmp_path / "r.region"
    assert main(["region", "--map", str(map_path), "--start", "1,1,1", "--goal", "10,10,4",
                 "--out", str(region_path)]) == 0
    traj_path = tmp_path / "t.txt"
    rc = main(["plan", "--map", str(map_path), "--region", str(region_path), *_PLAN_ARGS,
               "--out", str(traj_path)])
    assert rc == 0
    want = _library_trajectory(map_path, tmp_path / "want.txt",
                               region=load_region(region_path))
    assert traj_path.read_text() == want

    capsys.readouterr()
    rc = main(["plan", "--map", str(map_path), "--region", str(region_path), "--mode", "uniform",
               *_PLAN_ARGS, "--out", str(tmp_path / "u.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "u.txt").exists()


def test_cli_region_command(tmp_path, capsys):
    map_path = tmp_path / "m.grid"
    main(["genmap", "--dims", "10,10,10", "--count", "5", "--seed", "1",
          "--keep-free", "0,0,0", "--keep-free", "9,9,9", "--out", str(map_path)])
    region_path = tmp_path / "r.region"
    rc = main(["region", "--map", str(map_path), "--start", "0,0,0",
               "--goal", "9,9,9", "--out", str(region_path)])
    assert rc == 0
    assert "member voxels" in capsys.readouterr().out
    assert load_region(region_path) == oracle_region(load_grid(map_path), (0, 0, 0), (9, 9, 9))
    # The oracle's region is written unfiltered; there is no filter switch.
    assert main(["region", "--map", str(map_path), "--start", "0,0,0", "--goal", "9,9,9",
                 "--no-filter", "--out", str(region_path)]) == 2


def test_cli_bench_command(tmp_path, capsys):
    report_path = tmp_path / "report.csv"
    rc = main([
        "bench", "--n-maps", "1", "--trials", "2", "--modes", "heuristic",
        "--seed", "0", "--report", str(report_path),
    ])
    assert rc == 0
    assert "paperlike-000 heuristic" in capsys.readouterr().out
    with open(report_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS and len(rows) == 3


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["plan", "--bogus-flag"]) == 2  # usage error
    rc = main([
        "plan", "--map", str(tmp_path / "missing.grid"), "--start", "1,1,1",
        "--goal", "2,2,2", "--out", str(tmp_path / "t.txt"),
    ])
    assert rc == 1  # runtime error
    assert "error:" in capsys.readouterr().err
    assert main(["genmap", "--dims", "1,2", "--out", "x"]) == 2  # bad triple
    report = tmp_path / "r.csv"
    assert main(["bench", "--n-maps", "1", "--workers", "0", "--report", str(report)]) == 1
    assert "workers must be an integer >= 1" in capsys.readouterr().err
    assert not report.exists()
