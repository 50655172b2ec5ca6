"""Monte Carlo benchmark harness: seeded trials of each planner mode over a
map set, with per-trial CSV records and per-(map, mode) aggregates."""

from __future__ import annotations

import csv
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .grid import GoalRegion, OccupancyGrid, ObstacleSpec, random_cluttered_map
from .pipeline import PipelineConfig, plan_back_end, plan_front_end
from .planner import PlannerConfig
from .regions import NoPathError
from .trajectory import RepairExhaustedError, SingularSystemError, control_effort


@dataclass
class BenchCase:
    """One benchmark environment: a map plus its start point and goal region."""

    name: str
    grid: OccupancyGrid
    start: np.ndarray
    goal: GoalRegion


@dataclass
class TrialRecord:
    map: str
    mode: str
    seed: int
    success: bool
    init_iter: int | None = None
    init_nodes: int | None = None
    init_cost: float | None = None
    init_time_ms: float | None = None
    opt_iter: int | None = None
    opt_nodes: int | None = None
    opt_time_ms: float | None = None
    jerk_solve_ms: float | None = None
    snap_solve_ms: float | None = None
    final_cost: float | None = None
    effort: float | None = None

    def row(self) -> list:
        vals = [getattr(self, name) for name in CSV_COLUMNS]
        vals[3] = int(self.success)
        return ["" if v is None else v for v in vals]


# The CSV columns are the record's fields in order; the ones after success
# are aggregated over successful trials.
CSV_COLUMNS = [f.name for f in fields(TrialRecord)]
_AGG_FIELDS = CSV_COLUMNS[4:]


@dataclass
class AggregateReport:
    """Mean/median per numeric field over successful trials, per (map, mode);
    success rate reported separately over all trials. summary is computed
    from records, never passed in."""

    records: list
    summary: dict = field(init=False)

    def __post_init__(self):
        self.summary = {}
        groups: dict[tuple[str, str], list[TrialRecord]] = {}
        for r in self.records:
            groups.setdefault((r.map, r.mode), []).append(r)
        for key, recs in groups.items():
            ok = [r for r in recs if r.success]
            entry = {"trials": len(recs), "success_rate": len(ok) / len(recs)}
            for name in _AGG_FIELDS:
                vals = [getattr(r, name) for r in ok if getattr(r, name) is not None]
                entry[f"mean_{name}"] = float(np.mean(vals)) if vals else math.nan
                entry[f"median_{name}"] = float(np.median(vals)) if vals else math.nan
            self.summary[key] = entry


def paperlike_maps(n: int, seed: int = 0) -> list[BenchCase]:
    """Seeded preset: 20^3..40^3 voxel maps with 15-20 cuboid obstacles,
    opposite-corner start/goal kept free. Methodology reproduction only; the
    original evaluation maps are not published."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        side = int(rng.integers(20, 41))
        dims = (side, side, side)
        start_voxel = (1, 1, 1)
        goal_voxel = (side - 2, side - 2, side - 2)
        spec = ObstacleSpec(
            count=(15, 20), size_min=(2, 2, 2), size_max=(4, 4, 6), max_retries=200
        )
        grid = random_cluttered_map(
            dims, 1.0, spec, seed=int(rng.integers(0, 2**31)),
            keep_free=(start_voxel, goal_voxel),
        )
        start = grid.index_to_world(start_voxel)
        goal = GoalRegion(grid.index_to_world(goal_voxel), radius=2.0)
        cases.append(BenchCase(f"paperlike-{i:03d}", grid, start, goal))
    return cases


def run_trial(
    case: BenchCase,
    mode: str,
    seed: int,
    step: float = 2.0,
    max_iterations: int = 30000,
    target_cost: float | None = None,
) -> TrialRecord:
    """Single seeded planning run plus plan_back_end's timings at s=3 and
    s=4, and the control effort of the repaired s=3 trajectory; a back end
    that fails makes the trial unsuccessful. Region sampling, v_max and
    a_max take the defaults of PlannerConfig and PipelineConfig."""
    planner = PlannerConfig(step=step, goal=case.goal, max_iterations=max_iterations,
                            target_cost=target_cost, rng_seed=seed)
    try:
        result = plan_front_end(case.grid, case.start, planner, mode)
    except NoPathError:
        return TrialRecord(case.name, mode, seed, success=False)
    rec = TrialRecord(case.name, mode, seed, success=result.stats.success)
    st = result.stats
    if not st.success:
        return rec
    rec.init_iter = st.initial_iterations
    rec.init_nodes = st.initial_nodes
    rec.init_cost = st.initial_cost
    rec.init_time_ms = 1e3 * st.initial_time
    if st.optimal_iterations is not None:
        rec.opt_iter = st.optimal_iterations
        rec.opt_nodes = st.optimal_nodes
        rec.opt_time_ms = 1e3 * st.optimal_time
    rec.final_cost = result.cost

    try:
        for s, attr in ((3, "jerk_solve_ms"), (4, "snap_solve_ms")):
            t0 = time.perf_counter()
            _, traj = plan_back_end(case.grid, result.path, PipelineConfig(planner, s=s))
            setattr(rec, attr, 1e3 * (time.perf_counter() - t0))
            if s == 3:
                rec.effort = control_effort(traj)
    except (RepairExhaustedError, SingularSystemError):
        rec.success = False
    return rec


def run_benchmark(
    cases,
    modes,
    trials: int,
    seed_base: int = 0,
    report_path=None,
    workers: int = 1,
    **trial_kwargs,
) -> AggregateReport:
    """Execute trials x modes x maps runs, seeded seed_base + trial index.

    Per-trial failures are recorded, never abort the sweep. The per-trial CSV
    report has a fixed column order; aggregates are deterministic for fixed
    seeds (wall-clock columns aside).
    """
    for name, value in (("trials", trials), ("workers", workers)):
        if not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, not {value!r}")
    jobs = [(case, mode, seed_base + t) for case in cases for mode in modes for t in range(trials)]
    trial = partial(run_trial, **trial_kwargs)
    if workers > 1:
        # Imported here: concurrent.futures costs every `import quadplan`
        # about 21 ms and 2 MB, and only a pool uses it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(trial, *zip(*jobs), chunksize=4))
    else:
        records = [trial(*job) for job in jobs]
    records.sort(key=lambda r: (r.map, r.mode, r.seed))
    if report_path is not None:
        write_report(records, report_path)
    return AggregateReport(records)


def write_report(records, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow(r.row())
