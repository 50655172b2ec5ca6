"""End-to-end hierarchical planner, the one place the hierarchy is composed:
region-biased (or uniform/informed) RRT* front end, minimum jerk/snap back end
with collision repair, plus flat-flag queries and yaw profiling on the result."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GoalRegion, OccupancyGrid, inflate
from .planner import PlannerConfig, PlanResult, PlanStats, plan
from .regions import HeuristicRegion, filter_region, oracle_region
from .trajectory import (
    BivpSpec,
    PiecewisePolynomial,
    collision_repair,
    solve_bivp,
    trapezoidal_time_allocation,
)


class PlanningFailure(Exception):
    """Front end exhausted its iteration budget without reaching the goal."""


@dataclass
class PipelineConfig:
    planner: PlannerConfig
    s: int = 3
    v_max: float = 2.0
    a_max: float = 1.0
    inflate_radius: int = 0


@dataclass
class PipelineResult:
    trajectory: PiecewisePolynomial
    stats: PlanStats
    path: np.ndarray  # front-end waypoints after pruning
    cost: float


def prune_collinear(waypoints: np.ndarray, angle_tol_deg: float = 1.0) -> np.ndarray:
    """Merge consecutive nearly-collinear waypoints; near-zero segments would
    otherwise destabilize time allocation."""
    pts = np.asarray(waypoints, dtype=float)
    if len(pts) <= 2:
        return pts
    cos_tol = math.cos(math.radians(angle_tol_deg))
    keep = [0]
    for i in range(1, len(pts) - 1):
        a = pts[i] - pts[keep[-1]]
        b = pts[i + 1] - pts[i]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na < 1e-9 or nb < 1e-9:
            continue
        if float(np.dot(a, b) / (na * nb)) < cos_tol:
            keep.append(i)
    keep.append(len(pts) - 1)
    return pts[keep]


def plan_front_end(
    grid: OccupancyGrid,
    start,
    goal: GoalRegion,
    planner_cfg: PlannerConfig,
    mode: str = "heuristic",
    region: HeuristicRegion | None = None,
) -> PlanResult:
    """Front end of the hierarchy: check that start and goal centre lie in
    free space; in heuristic mode filter the given region, or else build the
    oracle's, which needs no filtering (binary, obstacle-free and one
    component around the A* path from start to goal); then run RRT* toward
    goal.

    A region passed with a mode that does not sample one is a ValueError.
    """
    if region is not None and mode != "heuristic":
        raise ValueError(f"a region is only used in heuristic mode, not {mode!r}")
    start = np.asarray(start, dtype=float)
    start_voxel = grid.world_to_index(start)
    goal_voxel = grid.world_to_index(goal.center)
    if start_voxel is None or grid.occupancy[start_voxel]:
        raise ValueError("start does not lie in free space")
    if goal_voxel is None or grid.occupancy[goal_voxel]:
        raise ValueError("goal center does not lie in free space")
    if mode == "heuristic":
        if region is None:
            region = oracle_region(grid, start_voxel, goal_voxel)
        else:
            region = filter_region(region, grid, start_voxel, goal_voxel)
    return plan(grid, start, replace(planner_cfg, goal=goal), mode=mode, region=region)


def plan_trajectory(
    grid: OccupancyGrid,
    start,
    goal: GoalRegion,
    cfg: PipelineConfig,
    mode: str = "heuristic",
    region: HeuristicRegion | None = None,
) -> PipelineResult:
    """Full pipeline: inflation -> front end (region, RRT* in the given
    mode) -> waypoint pruning -> trapezoidal time allocation -> spline
    solve -> collision repair. The returned trajectory passes the exact
    collision checker and reproduces the rest-to-rest boundary flags."""
    planning_grid = inflate(grid, cfg.inflate_radius) if cfg.inflate_radius else grid
    result = plan_front_end(planning_grid, start, goal, cfg.planner, mode, region)
    if result.path is None:
        raise PlanningFailure(f"no path within {cfg.planner.max_iterations} iterations")

    waypoints = prune_collinear(result.path)
    if len(waypoints) < 2:
        waypoints = np.array([result.path[0], result.path[-1]])
    durations = trapezoidal_time_allocation(waypoints, cfg.v_max, cfg.a_max)
    spec = BivpSpec.rest_to_rest(waypoints, durations, cfg.s)
    traj = collision_repair(solve_bivp(spec), spec, grid, cfg.v_max, cfg.a_max)
    return PipelineResult(traj, result.stats, waypoints, result.cost)


def flat_flag_at(traj: PiecewisePolynomial, t: float, s: int | None = None) -> np.ndarray:
    """Stacked output and derivatives up to order s-1 at time t, shape (m, s):
    column k is the k-th derivative."""
    s = traj.s if s is None else s
    return np.ascontiguousarray(traj.derivatives(t, s).T)


def yaw_profile(
    traj: PiecewisePolynomial,
    t: float,
    mode: str = "velocity",
    last_yaw: float = 0.0,
    speed_eps: float = 1e-6,
) -> float:
    """Yaw at time t: atan2(vy, vx) in velocity-aligned mode, holding
    last_yaw when nearly hovering; 0 in mode 'none'."""
    if mode == "none":
        return 0.0
    v = traj.eval(t, 1)
    if float(np.hypot(v[0], v[1])) <= speed_eps:
        return last_yaw
    return float(math.atan2(v[1], v[0]))


def yaw_samples(traj: PiecewisePolynomial, times, mode: str = "velocity") -> np.ndarray:
    """Sequential yaw profile over sorted sample times with hold-last fallback."""
    out = np.zeros(len(times))
    last = 0.0
    for i, t in enumerate(times):
        last = yaw_profile(traj, t, mode=mode, last_yaw=last)
        out[i] = last
    return out
