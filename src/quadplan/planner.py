"""Sampling-based front end: RRT* with uniform, informed-set and
heuristic-region-biased sampling, shrinking rewire radius, and two-phase
(initial / refinement) statistics."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import GoalRegion, OccupancyGrid, segment_collision_free
from .regions import HeuristicRegion, RegionSampler

_DUPLICATE_EPS = 1e-9

MODES = ("uniform", "informed", "heuristic")


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def rewire_radius_bound(m: int, free_measure: float) -> float:
    """Lower bound on the rewire-radius constant that guarantees asymptotic
    optimality: (2(1+1/m))^(1/m) * (free_measure / unit_ball_volume)^(1/m)."""
    if m < 2:
        raise ValueError("dimension must be >= 2")
    if not free_measure > 0:
        raise ValueError("free measure must be positive")
    return (2.0 * (1.0 + 1.0 / m)) ** (1.0 / m) * (
        free_measure / unit_ball_volume(m)
    ) ** (1.0 / m)


def shrinking_radius(n: int, step: float, gamma_rrt: float, m: int = 3) -> float:
    """r(n) = min(step, gamma * (log n / n)^(1/m)); r(1) = step since
    log 1 = 0 would collapse the radius to zero."""
    if n < 2:
        return step
    return min(step, gamma_rrt * (math.log(n) / n) ** (1.0 / m))


def steer(x_near, x_rand, step: float) -> np.ndarray:
    """x_rand if within step of x_near, else the point at distance step
    from x_near toward x_rand."""
    x_near = np.asarray(x_near, dtype=float)
    x_rand = np.asarray(x_rand, dtype=float)
    d = x_rand - x_near
    dist = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    if dist <= step:
        return x_rand.copy()
    return x_near + (step / dist) * d


def informed_sample(start, goal, c_best: float, bounds, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the prolate hyperspheroid with foci start/goal and
    transverse diameter c_best, rejected to the (lower, upper) map bounds.

    c_best = inf falls back to uniform over the bounds; c_best within 1e-12
    of the focal distance degenerates to the start-goal segment.
    """
    lower, upper = (np.asarray(b, dtype=float) for b in bounds)
    if not np.isfinite(c_best):
        return lower + rng.random(3) * (upper - lower)
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    c_min = float(np.linalg.norm(goal - start))
    if c_best < c_min - 1e-12:
        raise ValueError("c_best below the focal distance")
    center = 0.5 * (start + goal)
    if c_min < 1e-12 or c_best - c_min < 1e-12:
        # Degenerate ellipsoid: points on the segment.
        return start + rng.random() * (goal - start)
    a1 = (goal - start) / c_min
    # Any orthonormal completion works; the sampled distribution is
    # rotation-invariant about the transverse axis.
    h = np.eye(3)[np.argmin(np.abs(a1))]
    a2 = np.cross(a1, h)
    a2 /= np.linalg.norm(a2)
    a3 = np.cross(a1, a2)
    rot = np.column_stack([a1, a2, a3])
    r1 = c_best / 2.0
    r2 = math.sqrt(c_best**2 - c_min**2) / 2.0
    scale = np.array([r1, r2, r2])
    for _ in range(1000):
        z = rng.normal(size=3)
        z /= np.linalg.norm(z)
        z *= rng.random() ** (1.0 / 3.0)
        p = center + rot @ (scale * z)
        if np.all(p >= lower) and np.all(p <= upper):
            return p
    # Bounds clip the whole rejection budget away; the segment is always valid.
    return start + rng.random() * (goal - start)


class SearchTree:
    """RRT* tree over world points with parent links, cost-from-start, and
    child lists for cost propagation after rewiring. sq_dists scans every
    vertex on each call; plan hands its scan on to extend_and_rewire.
    """

    def __init__(self, root, capacity: int = 1024):
        self._pts = np.empty((capacity, 3), dtype=float)
        self._pts[0] = np.asarray(root, dtype=float)
        self.parent = [-1]
        self.cost = np.zeros(capacity, dtype=float)
        self.children: list[list[int]] = [[]]
        self.n = 1

    @property
    def points(self) -> np.ndarray:
        return self._pts[: self.n]

    def _grow(self):
        cap = 2 * len(self._pts)
        pts = np.empty((cap, 3), dtype=float)
        pts[: self.n] = self.points
        self._pts = pts
        cost = np.zeros(cap, dtype=float)
        cost[: self.n] = self.cost[: self.n]
        self.cost = cost

    def add(self, p, parent: int, cost: float) -> int:
        if self.n == len(self._pts):
            self._grow()
        i = self.n
        self._pts[i] = p
        self.cost[i] = cost
        self.parent.append(parent)
        self.children.append([])
        self.children[parent].append(i)
        self.n = i + 1
        return i

    def sq_dists(self, p) -> np.ndarray:
        """Squared distances from p to every vertex, in index order."""
        diff = self.points - np.asarray(p, dtype=float)
        return np.einsum("ij,ij->i", diff, diff)

    def nearest(self, p) -> int:
        return int(np.argmin(self.sq_dists(p)))

    def set_parent(self, v: int, new_parent: int, new_cost: float) -> None:
        """Rewire v under new_parent and propagate the cost change to all
        descendants so cost[u] == cost[parent[u]] + ||u - parent[u]|| holds."""
        self.children[self.parent[v]].remove(v)
        self.parent[v] = new_parent
        self.children[new_parent].append(v)
        delta = new_cost - self.cost[v]
        stack = [v]
        while stack:
            u = stack.pop()
            self.cost[u] += delta
            stack.extend(self.children[u])

    def path_to(self, v: int) -> np.ndarray:
        out = []
        while v != -1:
            out.append(self._pts[v].copy())
            v = self.parent[v]
        return np.array(out[::-1])


@dataclass
class PlannerConfig:
    step: float
    goal: GoalRegion
    max_iterations: int
    mu1: float = 0.5
    mu2: float = 0.9
    target_cost: float | None = None
    gamma_rrt: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.mu1 <= 1.0 and 0.0 <= self.mu2 <= 1.0):
            raise ValueError("mu1, mu2 must lie in [0, 1]")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class PlanStats:
    """Two-phase run statistics: the initial stage ends at the first goal
    connection, the refinement stage when the best cost drops to target."""

    success: bool = False
    initial_iterations: int | None = None
    initial_nodes: int | None = None
    initial_cost: float | None = None
    initial_time: float | None = None
    optimal_iterations: int | None = None
    optimal_nodes: int | None = None
    optimal_time: float | None = None


@dataclass
class PlanResult:
    tree: SearchTree
    path: np.ndarray | None
    cost: float
    stats: PlanStats


def extend_and_rewire(
    tree: SearchTree, x_new, grid: OccupancyGrid, radius: float, d2: np.ndarray
) -> int:
    """RRT* extension: connect x_new to the cost-minimizing collision-free
    neighbor within radius (nearest vertex as fallback), then rewire
    neighbors through x_new whenever that strictly lowers their cost.

    d2 holds the squared distances from x_new to every vertex, as
    tree.sq_dists(x_new) returns them; plan passes the scan its nearest
    query already made, so an iteration scans the tree once unless steer
    truncates. Caller guarantees x_new is collision-free from its nearest
    vertex. Duplicates of existing vertices (distance < 1e-9) are rejected
    by returning the existing index.
    """
    x_new = np.asarray(x_new, dtype=float)
    pts = tree.points
    nearest = int(np.argmin(d2))
    d_nearest = math.sqrt(d2[nearest])
    if d_nearest < _DUPLICATE_EPS:
        return nearest
    near = np.flatnonzero(d2 <= radius * radius)
    dists = np.sqrt(d2[near])
    near_costs = tree.cost[near]

    parent = nearest
    best_cost = tree.cost[nearest] + d_nearest
    if len(near):
        through = near_costs + dists
        for k in np.argsort(through):
            if through[k] >= best_cost:
                break
            v = int(near[k])
            if segment_collision_free(grid, pts[v], x_new):
                parent, best_cost = v, float(through[k])
                break
    new_idx = tree.add(x_new, parent, best_cost)

    if len(near):
        improvable = np.flatnonzero(best_cost + dists < near_costs - 1e-12)
        for k in improvable:
            v = int(near[k])
            if v == parent:
                continue
            c_through = best_cost + dists[k]
            # Rewiring above may already have lowered cost[v]; recheck.
            if c_through < tree.cost[v] - 1e-12 and segment_collision_free(
                grid, x_new, pts[v]
            ):
                tree.set_parent(v, new_idx, c_through)
    return new_idx


def plan(
    grid: OccupancyGrid,
    start,
    cfg: PlannerConfig,
    mode: str = "uniform",
    region: HeuristicRegion | None = None,
) -> PlanResult:
    """Run RRT* for up to cfg.max_iterations.

    Modes:
      uniform   - baseline RRT* with uniform samples over the map bounds.
      informed  - uniform until the first solution, then samples from the
                  prolate hyperspheroid of the current best cost, with the
                  start and the best goal vertex as foci.
      heuristic - draws from the region with probability mu2 before the first
                  goal connection and mu1 after, uniform otherwise.

    Iteration continues after the first solution until the best cost drops to
    cfg.target_cost (default: 1.05x the straight-line start-goal distance) or
    iterations run out. A run that never reaches the goal region returns
    success=False with path=None.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    start = np.asarray(start, dtype=float)
    if not grid.is_free_world(start):
        raise ValueError("start must lie in free space")
    if mode == "heuristic":
        if region is None:
            raise ValueError("heuristic mode requires a region")
        region_sampler = RegionSampler(region, grid.origin, grid.resolution)
    goal = cfg.goal
    straight = float(np.linalg.norm(goal.center - start))
    target = cfg.target_cost if cfg.target_cost is not None else 1.05 * straight
    gamma = cfg.gamma_rrt
    if gamma is None:
        gamma = 1.01 * rewire_radius_bound(3, grid.free_measure())
    lower, upper = grid.lower, grid.upper
    span = upper - lower
    rng = np.random.default_rng(cfg.rng_seed)

    tree = SearchTree(start)
    goal_vertices: list[int] = []
    best_cost = math.inf
    stats = PlanStats()
    t0 = time.perf_counter()

    for it in range(1, cfg.max_iterations + 1):
        if mode == "heuristic":
            mu = cfg.mu1 if stats.success else cfg.mu2
            if rng.random() < mu:
                x_rand = region_sampler.sample(rng)
            else:
                x_rand = lower + rng.random(3) * span
        elif mode == "informed" and stats.success:
            x_rand = informed_sample(start, tree.points[best], best_cost, (lower, upper), rng)
        else:
            x_rand = lower + rng.random(3) * span

        d2 = tree.sq_dists(x_rand)
        x_near = tree.points[int(np.argmin(d2))]
        x_new = steer(x_near, x_rand, cfg.step)
        d = x_new - x_near
        if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < _DUPLICATE_EPS**2:
            continue
        if not segment_collision_free(grid, x_near, x_new):
            continue
        if x_new.tolist() != x_rand.tolist():
            d2 = tree.sq_dists(x_new)  # steer truncated toward x_rand
        radius = shrinking_radius(tree.n, cfg.step, gamma)
        before = tree.n
        idx = extend_and_rewire(tree, x_new, grid, radius, d2)
        if tree.n == before:
            continue  # duplicate rejected
        if goal.contains(x_new):
            goal_vertices.append(idx)

        if goal_vertices:
            best = goal_vertices[int(np.argmin(tree.cost[goal_vertices]))]
            best_cost = float(tree.cost[best])
            if not stats.success:
                stats.success = True
                stats.initial_iterations = it
                stats.initial_nodes = tree.n - 1
                stats.initial_cost = best_cost
                stats.initial_time = time.perf_counter() - t0
            if best_cost <= target:
                stats.optimal_iterations = it
                stats.optimal_nodes = tree.n - 1
                stats.optimal_time = time.perf_counter() - t0
                break

    if not goal_vertices:
        return PlanResult(tree, None, math.inf, stats)
    return PlanResult(tree, tree.path_to(best), best_cost, stats)


def save_path(path_points, cost: float, iterations: int, fname) -> None:
    """Plain-text path: header line with cost/iterations, one x y z per line."""
    with open(fname, "w") as f:
        f.write(f"# cost={cost:.9g} iterations={iterations}\n")
        for p in np.asarray(path_points, dtype=float):
            f.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
