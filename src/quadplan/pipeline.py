"""End-to-end hierarchical planner, the one place the hierarchy is composed:
region-biased (or uniform/informed) RRT* front end, minimum jerk/snap back end
with collision repair, plus flat-flag queries and yaw profiling on the result."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import GoalRegion, OccupancyGrid, inflate, segment_collision_free
from .planner import PlannerConfig, PlanResult, PlanStats, plan
from .regions import HeuristicRegion, filter_region, oracle_region
from .trajectory import (
    BivpSpec,
    PiecewisePolynomial,
    collision_repair,
    solve_bivp,
    trapezoidal_time_allocation,
)


# prune_collinear merges waypoints that turn by less than 1 degree.
_COS_COLLINEAR = math.cos(math.radians(1.0))


class PlanningFailure(Exception):
    """Front end exhausted its iteration budget without reaching the goal."""


@dataclass(frozen=True)
class PipelineConfig:
    planner: PlannerConfig
    s: int = 3
    v_max: float = 2.0
    a_max: float = 1.0
    inflate_radius: int = 0

    def __post_init__(self):
        # Each of these otherwise fails only after the whole front end has
        # run: v_max=inf makes repair's sample step 0, a float s or radius a
        # TypeError in the solve or the dilation.
        if not isinstance(self.s, numbers.Integral) or self.s < 1:
            raise ValueError("s must be an integer >= 1")
        if not (self.v_max > 0 and math.isfinite(self.v_max)):
            raise ValueError("v_max must be positive and finite")
        if not self.a_max > 0:
            raise ValueError("a_max must be positive")
        if not isinstance(self.inflate_radius, numbers.Integral) or self.inflate_radius < 0:
            raise ValueError("inflate_radius must be an integer >= 0")


@dataclass
class PipelineResult:
    trajectory: PiecewisePolynomial
    stats: PlanStats
    path: np.ndarray  # front-end waypoints: pruned, unless that polyline collides
    cost: float


def prune_collinear(waypoints: np.ndarray) -> np.ndarray:
    """Merge consecutive waypoints whose directions differ by less than 1
    degree; near-zero segments would otherwise destabilize time allocation."""
    pts = np.asarray(waypoints, dtype=float)
    if len(pts) <= 2:
        return pts
    keep = [0]
    for i in range(1, len(pts) - 1):
        a = pts[i] - pts[keep[-1]]
        b = pts[i + 1] - pts[i]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na < 1e-9 or nb < 1e-9:
            continue
        if float(np.dot(a, b) / (na * nb)) < _COS_COLLINEAR:
            keep.append(i)
    keep.append(len(pts) - 1)
    return pts[keep]


def plan_front_end(
    grid: OccupancyGrid,
    start,
    planner_cfg: PlannerConfig,
    mode: str = "heuristic",
    region: HeuristicRegion | None = None,
) -> PlanResult:
    """Front end of the hierarchy: check that start and the centre of
    planner_cfg.goal lie in free space; in heuristic mode filter the given
    region, or else build the oracle's, which needs no filtering (binary,
    obstacle-free and one component around the A* path from start to goal);
    then run RRT* toward the goal.

    A region passed with a mode that does not sample one, or one whose dims
    differ from the grid's, is a ValueError from plan.
    """
    start = np.asarray(start, dtype=float)
    start_voxel = grid.world_to_index(start)
    goal_voxel = grid.world_to_index(planner_cfg.goal.center)
    if start_voxel is None or grid.occupancy[start_voxel]:
        raise ValueError("start does not lie in free space")
    if goal_voxel is None or grid.occupancy[goal_voxel]:
        raise ValueError("goal center does not lie in free space")
    if mode == "heuristic":
        if region is None:
            region = oracle_region(grid, start_voxel, goal_voxel)
        else:
            region = filter_region(region, grid, start_voxel, goal_voxel)
    return plan(grid, start, planner_cfg, mode=mode, region=region)


def plan_back_end(grid: OccupancyGrid, path: np.ndarray,
                  cfg: PipelineConfig) -> tuple[BivpSpec, PiecewisePolynomial]:
    """Back end of the hierarchy: the rest-to-rest spec of order cfg.s on the
    front-end path pruned of collinear waypoints, timed by trapezoidal
    allocation, and its repaired solve. Repair converges only from a
    collision-free polyline; where a pruned chord cuts a corner the front
    end's edges went around, the unpruned path is timed instead."""
    waypoints = prune_collinear(path)
    pts = waypoints.tolist()
    if not all(segment_collision_free(grid, a, b) for a, b in zip(pts, pts[1:])):
        waypoints = path
    durations = trapezoidal_time_allocation(waypoints, cfg.v_max, cfg.a_max)
    spec = BivpSpec.rest_to_rest(waypoints, durations, cfg.s)
    return spec, collision_repair(solve_bivp(spec), spec, grid, cfg.v_max, cfg.a_max)


def plan_trajectory(
    grid: OccupancyGrid,
    start,
    goal: GoalRegion,
    cfg: PipelineConfig,
    mode: str = "heuristic",
    region: HeuristicRegion | None = None,
) -> PipelineResult:
    """Full pipeline: inflation -> front end (region, RRT* in the given
    mode) -> plan_back_end on the uninflated grid. The returned trajectory
    reproduces the rest-to-rest boundary flags and passes repair's check:
    samples at most resolution / (2 v_max) s apart, joined by exact-walk
    chords, are free. A graze between samples can pass it (ROADMAP item 1).

    goal must equal cfg.planner.goal; a different one is a ValueError."""
    if goal != cfg.planner.goal:
        raise ValueError(f"goal {goal} differs from cfg.planner.goal {cfg.planner.goal}")
    planning_grid = inflate(grid, cfg.inflate_radius)
    result = plan_front_end(planning_grid, start, cfg.planner, mode, region)
    if result.path is None:
        raise PlanningFailure(f"no path within {cfg.planner.max_iterations} iterations")

    spec, traj = plan_back_end(grid, result.path, cfg)
    return PipelineResult(traj, result.stats, spec.waypoints, result.cost)


def flat_flag_at(traj: PiecewisePolynomial, t: float) -> np.ndarray:
    """Stacked output and derivatives up to order traj.s-1 at time t, a
    C-contiguous (m, s) array: column k is the k-th derivative, equal bit
    for bit to traj.eval(t, k). This is the read of one time, one
    derivatives call, as a controller makes each tick; the flags at many
    times ts are traj.sample(ts, traj.s).transpose(0, 2, 1), with equal
    values."""
    return traj.derivatives(t, traj.s).T.copy()


def yaw_samples(traj: PiecewisePolynomial, times) -> np.ndarray:
    """Velocity-aligned yaw atan2(vy, vx) at each of the sorted times; where
    the horizontal speed is at most 1e-6 (nearly hovering) the previous
    sample's yaw is held, 0.0 before the first."""
    out = []
    last = 0.0
    for vx, vy in traj.sample(times, 2)[:, 1, :2].tolist():
        if not np.hypot(vx, vy) <= 1e-6:  # a NaN speed gives a NaN yaw
            last = math.atan2(vy, vx)
        out.append(last)
    return np.array(out, dtype=float)
