"""The benchmark's three workloads.

Each workload makes its inputs from a seed (``inputs``), runs one op on one
input (``op``, the timed call), and outside the timed region hashes an op's
output (``digest``) and checks it (``check``). Ops call quadplan through
module attributes looked up at call time (``P.plan_trajectory``, ``T.solve_bivp`` ...), so the traced run's
wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

import quadplan.bench as B
import quadplan.grid as G
import quadplan.pipeline as P
import quadplan.planner as PL
import quadplan.regions as R
import quadplan.trajectory as T

# Planner step and back-end limits of the README quick start and the tests.
STEP = 2.0
MAX_ITERATIONS = 30_000
V_MAX = 2.0
A_MAX = 1.0
# backend samples flat flags at this rate: there reading and writing
# trajectories take comparable shares of an op (see NOTES.md).
FLAG_RATE_HZ = 3.0
# Criterion 9's dense check: consecutive samples of the trajectory are joined
# by segments that must pass the exact voxel-walk checker.
CHECK_SAMPLES = 1500
FLAG_TOL = 1e-6


class VerificationError(Exception):
    """An op returned without error but its output failed a check."""


def _sha(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.digest()


def _case_digest(case: B.BenchCase) -> bytes:
    g = case.grid
    return _sha(case.name, g.dims, g.resolution, g.origin, np.packbits(g.occupancy),
                case.start, case.goal.center, case.goal.radius)


def _eval(traj: T.PiecewisePolynomial, ts: np.ndarray, k: int = 0) -> np.ndarray:
    """k-th derivative at sorted times ts, straight from the coefficients, so
    checks do not go through (or time) PiecewisePolynomial.eval."""
    knots = traj.knots
    seg = np.minimum(np.searchsorted(knots, ts, side="right") - 1, traj.M - 1)
    tau = ts - knots[seg]
    n = 2 * traj.s
    out = np.zeros((len(ts), traj.m))
    for j in range(k, n):
        out += (math.perm(j, k) * tau ** (j - k))[:, None] * traj.coeffs[seg, j]
    return out


def check_trajectory(traj: T.PiecewisePolynomial, grid: G.OccupancyGrid,
                     first: np.ndarray, last: np.ndarray) -> float:
    """Dense collision check, rest-to-rest boundary flags and finite effort.
    Returns the control effort."""
    ts = np.linspace(0.0, traj.total_duration, CHECK_SAMPLES)
    pts = _eval(traj, ts)
    if not np.all(np.isfinite(pts)):
        raise VerificationError("non-finite trajectory samples")
    for a, b in zip(pts[:-1], pts[1:]):
        if not G.segment_collision_free(grid, a, b):
            raise VerificationError("trajectory collides between dense samples")
    ends = np.array([0.0, traj.total_duration])
    for k in range(traj.s):
        flags = _eval(traj, ends, k)
        want = np.array([first, last]) if k == 0 else np.zeros_like(flags)
        if not np.allclose(flags, want, rtol=0.0, atol=FLAG_TOL * max(1.0, float(np.abs(want).max()))):
            raise VerificationError(f"boundary flag of order {k} not at rest")
    effort = T.control_effort(traj)
    if not (math.isfinite(effort) and effort >= 0.0):
        raise VerificationError(f"control effort {effort!r} not finite")
    return effort


def check_path(path: np.ndarray, cost: float, grid: G.OccupancyGrid, start, goal) -> None:
    """Front-end path: starts at start, ends in the goal ball, every edge
    collision-free, finite cost equal to its length."""
    if not np.array_equal(path[0], start) or not goal.contains(path[-1]):
        raise VerificationError("path does not join start to the goal region")
    for a, b in zip(path[:-1], path[1:]):
        if not G.segment_collision_free(grid, a, b):
            raise VerificationError("front-end path edge collides")
    length = float(np.sum(np.linalg.norm(np.diff(path, axis=0), axis=1)))
    if not (math.isfinite(cost) and abs(cost - length) <= 1e-9 * max(1.0, length)):
        raise VerificationError(f"path cost {cost!r} is not its length {length!r}")


def _planner_seeds(seed: int, tag: int, count: int) -> list[int]:
    rng = np.random.default_rng([tag, seed, 1])
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


# paperlike_maps' population: cubic maps of side 20-40 with 15-20 cuboid
# obstacles of 2-4 x 2-4 x 2-6 voxels, start and goal kept free in opposite
# corners.
PAPERLIKE_SIDES = range(20, 41)
PAPERLIKE_SPEC = G.ObstacleSpec(count=(15, 20), size_min=(2, 2, 2), size_max=(4, 4, 6),
                                max_retries=200)


def cube_maps(sides, seed: int, tag: int) -> list[B.BenchCase]:
    """One map per entry of sides, drawn like paperlike_maps' maps but with
    the side given rather than drawn. paperlike_maps draws each side at
    random, and op cost grows steeply with side, so with drawn sides the mean
    op time of a run moved with its mix of sizes; fixing the mix (every side
    equally often) removes that spread between seeds."""
    rng = np.random.default_rng([tag, seed, 0])
    out = []
    for i, n in enumerate(sides):
        grid = G.random_cluttered_map((n, n, n), 1.0, PAPERLIKE_SPEC,
                                      seed=int(rng.integers(0, 2**31)),
                                      keep_free=((1, 1, 1), (n - 2, n - 2, n - 2)))
        out.append(B.BenchCase(f"cube{n}-{i:03d}", grid, grid.index_to_world((1, 1, 1)),
                               G.GoalRegion(grid.index_to_world((n - 2, n - 2, n - 2)), radius=2.0)))
    return out


def stratified_sides(n_maps: int) -> list[int]:
    return [PAPERLIKE_SIDES[i % len(PAPERLIKE_SIDES)] for i in range(n_maps)]


@dataclass
class PlanInput:
    case: B.BenchCase
    planner_seed: int

    def digest(self) -> bytes:
        return _sha(_case_digest(self.case), self.planner_seed)


class Pipeline:
    """One plan_trajectory call (heuristic mode, s=3, default target cost)."""

    name = "pipeline"

    def __init__(self, n_maps: int = 420):
        self.n_maps = n_maps

    def inputs(self, seed: int) -> list[PlanInput]:
        """One planner seed per map: a distinct map adds more independent
        variation to the run's median and tail than a second planner seed
        on the same map."""
        cases = cube_maps(stratified_sides(self.n_maps), seed, 1)
        return [PlanInput(c, s) for c, s in zip(cases, _planner_seeds(seed, 1, self.n_maps))]

    @staticmethod
    def config(inp: PlanInput) -> P.PipelineConfig:
        return P.PipelineConfig(
            planner=PL.PlannerConfig(step=STEP, goal=inp.case.goal,
                                     max_iterations=MAX_ITERATIONS, rng_seed=inp.planner_seed),
            s=3, v_max=V_MAX, a_max=A_MAX,
        )

    def op(self, inp: PlanInput):
        c = inp.case
        return P.plan_trajectory(c.grid, c.start, c.goal, self.config(inp))

    def digest(self, out: P.PipelineResult) -> bytes:
        return _sha(out.trajectory.coeffs, out.trajectory.durations, out.path, out.cost)

    def check(self, inp: PlanInput, out: P.PipelineResult) -> tuple[float, float]:
        """Raises VerificationError; returns (path cost, control effort)."""
        c = inp.case
        if not np.array_equal(out.path[0], c.start) or not c.goal.contains(out.path[-1]):
            raise VerificationError("waypoints do not join start to the goal region")
        if not (math.isfinite(out.cost) and out.cost > 0.0):
            raise VerificationError(f"path cost {out.cost!r} not finite")
        return out.cost, check_trajectory(out.trajectory, c.grid, out.path[0], out.path[-1])


# uniform_budget runs uniform RRT* on maps of side UNIFORM_SIDE for a fixed
# UNIFORM_ITERATIONS: trees reach about 1.9k vertices, where the O(n) nearest
# and near scans weigh most, and every op does about the same work.
UNIFORM_SIDE = 22
UNIFORM_ITERATIONS = 2000


class UniformBudget:
    """One uniform RRT* call that runs its whole iteration budget: the target
    cost is 0, which no path reaches, so it never stops early. A call whose
    tree never reaches the goal returns success=False, as plan does for any
    caller; here that is a result, not a failure (about one map in 60)."""

    name = "uniform_budget"

    def __init__(self, n_maps: int = 120):
        self.n_maps = n_maps

    def inputs(self, seed: int) -> list[PlanInput]:
        """Maps of one side, one planner seed each."""
        cases = cube_maps([UNIFORM_SIDE] * self.n_maps, seed, 2)
        seeds = _planner_seeds(seed, 2, self.n_maps)
        return [PlanInput(c, s) for c, s in zip(cases, seeds)]

    def op(self, inp: PlanInput):
        c = inp.case
        cfg = PL.PlannerConfig(step=STEP, goal=c.goal, max_iterations=UNIFORM_ITERATIONS,
                               target_cost=0.0, rng_seed=inp.planner_seed)
        return PL.plan(c.grid, c.start, cfg, mode="uniform")

    def digest(self, out: PL.PlanResult) -> bytes:
        return _sha(out.path, out.cost, out.tree.n)

    def check(self, inp: PlanInput, out: PL.PlanResult) -> tuple[float | None, None]:
        """Returns (path cost or None, None). With no path, no tree vertex
        may lie in the goal region."""
        c = inp.case
        if out.path is None:
            if any(c.goal.contains(x) for x in out.tree.points):
                raise VerificationError("a vertex reached the goal but no path was returned")
            return None, None
        check_path(out.path, out.cost, c.grid, c.start, c.goal)
        return out.cost, None


def front_end_paths(cases, planner_seeds) -> list[PathInput]:
    """Front-end paths from the heuristic planner, one region per map and one
    path per entry of planner_seeds[map index], pruned as plan_trajectory
    prunes them. A path
    with a colliding edge after pruning is skipped: collision repair only
    converges on a collision-free polyline (see NOTES.md)."""
    out = []
    for c, seeds in zip(cases, planner_seeds):
        sv = c.grid.world_to_index(c.start)
        gv = c.grid.world_to_index(c.goal.center)
        try:
            region = R.filter_region(R.oracle_region(c.grid, sv, gv), c.grid, sv, gv)
        except (R.NoPathError, R.EmptyRegionError):
            continue
        for seed in seeds:
            cfg = PL.PlannerConfig(step=STEP, goal=c.goal, max_iterations=MAX_ITERATIONS,
                                   rng_seed=seed)
            result = PL.plan(c.grid, c.start, cfg, mode="heuristic", region=region)
            if result.path is None:
                continue
            wp = P.prune_collinear(result.path)
            if all(G.segment_collision_free(c.grid, a, b) for a, b in zip(wp[:-1], wp[1:])):
                out.append(PathInput(c, wp))
    return out


@dataclass
class PathInput:
    """A collision-checked front-end path on a map."""

    case: B.BenchCase
    waypoints: np.ndarray

    def digest(self) -> bytes:
        return _sha(_case_digest(self.case), self.waypoints)


class Backend:
    """On one front-end path: trapezoidal time allocation, then for s=3 and
    s=4 solve, repair and effort, then flat flags sampled at a fixed rate."""

    name = "backend"

    def __init__(self, n_maps: int = 42, planner_seeds: int = 3):
        self.n_maps = n_maps
        self.planner_seeds = planner_seeds

    def inputs(self, seed: int) -> list[PathInput]:
        seeds = np.reshape(_planner_seeds(seed, 3, self.n_maps * self.planner_seeds),
                           (self.n_maps, self.planner_seeds))
        return front_end_paths(cube_maps(stratified_sides(self.n_maps), seed, 3), seeds.tolist())

    def op(self, inp: PathInput):
        wp = inp.waypoints
        durations = T.trapezoidal_time_allocation(wp, V_MAX, A_MAX)
        out = []
        for s in (3, 4):
            spec = T.BivpSpec.rest_to_rest(wp, durations, s)
            traj = T.collision_repair(T.solve_bivp(spec), spec, inp.case.grid, V_MAX, A_MAX)
            effort = T.control_effort(traj)
            times = np.arange(0.0, traj.total_duration, 1.0 / FLAG_RATE_HZ)
            flags = np.array([P.flat_flag_at(traj, t) for t in times])
            out.append((traj, effort, flags))
        return out

    def digest(self, out) -> bytes:
        return _sha(*[p for traj, effort, flags in out
                      for p in (traj.coeffs, traj.durations, effort, flags)])

    def check(self, inp: PathInput, out) -> tuple[float, float]:
        """Returns (input path length, mean control effort over s=3 and s=4)."""
        wp = inp.waypoints
        efforts = []
        for s, (traj, effort, flags) in zip((3, 4), out):
            if traj.s != s:
                raise VerificationError(f"trajectory order {traj.s} != {s}")
            want = check_trajectory(traj, inp.case.grid, wp[0], wp[-1])
            if effort != want:
                raise VerificationError("reported effort differs from a fresh evaluation")
            times = np.arange(0.0, traj.total_duration, 1.0 / FLAG_RATE_HZ)
            if flags.shape != (len(times), traj.m, s) or not np.all(np.isfinite(flags)):
                raise VerificationError("flat-flag samples malformed or non-finite")
            for k in range(s):
                if not np.allclose(flags[:, :, k], _eval(traj, times, k), rtol=1e-9, atol=1e-9):
                    raise VerificationError(f"flat-flag column {k} disagrees with the coefficients")
            efforts.append(effort)
        return float(np.sum(np.linalg.norm(np.diff(wp, axis=0), axis=1))), float(np.mean(efforts))


WORKLOADS = {w.name: w for w in (Pipeline, UniformBudget, Backend)}

# Expected failure types; anything else is counted under its own class name.
FAILURE_TYPES = (
    P.PlanningFailure,
    R.NoPathError,
    R.EmptyRegionError,
    T.RepairExhaustedError,
    T.SingularSystemError,
    VerificationError,
)


def inputs_digest(inputs) -> str:
    return _sha(*[i.digest() for i in inputs]).hex()


def warmup_inputs(workload) -> list:
    """A fixed small input, the same for every seed, run untimed before the
    first timed op so lazy set-up in numpy/scipy is paid in set-up time."""
    spec = G.ObstacleSpec(count=(4, 4), size_min=(2, 2, 2), size_max=(3, 3, 3))
    grid = G.random_cluttered_map((12, 12, 12), 1.0, spec, seed=0,
                                  keep_free=[(1, 1, 1), (10, 10, 10)])
    case = B.BenchCase("warmup", grid, grid.index_to_world((1, 1, 1)),
                       G.GoalRegion(grid.index_to_world((10, 10, 10)), 1.5))
    if isinstance(workload, Backend):
        return front_end_paths([case], [[0]])
    return [PlanInput(case, 0)]
