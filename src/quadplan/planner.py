"""Sampling-based front end: RRT* with uniform, informed-set and
heuristic-region-biased sampling, shrinking rewire radius, and two-phase
(initial / refinement) statistics."""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import dataclass

import numpy as np

from .grid import GoalRegion, OccupancyGrid, _read_only_copy, segment_collision_free
from .regions import HeuristicRegion, RegionSampler

_DUPLICATE_EPS = 1e-9
# Relative rounding margin of _extend_truncated's sole-nearest test.
_SOLE_MARGIN = 1e-9
# Initial vertex capacity of a SearchTree; it doubles when full.
_TREE_CAPACITY = 1024
# Tree size from which sq_dists reuses the tree's difference array: a fresh
# one is cheaper below it, and the two forms meet between 384 and 512.
_SCAN_CROSSOVER = 512
# Doubles drawn per generator call in uniform and heuristic modes.
_DRAW_BLOCK = 1024

MODES = ("uniform", "informed", "heuristic")


# Volume of the unit ball in R^3; the same double as pi^1.5 / Gamma(2.5).
_UNIT_BALL_VOLUME = 4.0 * math.pi / 3.0


def rewire_radius_bound(free_measure: float) -> float:
    """Lower bound on the rewire-radius constant that guarantees asymptotic
    optimality in three dimensions:
    (2(1+1/3))^(1/3) * (free_measure / unit_ball_volume)^(1/3)."""
    if not free_measure > 0:
        raise ValueError("free measure must be positive")
    return (2.0 * (1.0 + 1.0 / 3)) ** (1.0 / 3) * (free_measure / _UNIT_BALL_VOLUME) ** (1.0 / 3)


def _steer(nx, ny, nz, rx, ry, rz, step: float):
    """RRT*'s steer on scalars: (x, y, z, truncated). The sample r itself,
    truncated=False, when it lies within step of the near point n, else the
    point at distance step from n toward r, truncated=True."""
    dx = rx - nx
    dy = ry - ny
    dz = rz - nz
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist <= step:
        return rx, ry, rz, False
    f = step / dist
    return nx + f * dx, ny + f * dy, nz + f * dz, True


def informed_sample(start, goal, c_best: float, bounds, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the prolate hyperspheroid with foci start/goal and
    transverse diameter c_best, rejected to the (lower, upper) map bounds.

    This is informed RRT*'s sampler once a solution of cost c_best exists.
    plan calls it only then, with a generator of its own, so its normal and
    uniform draws leave the block stream of every other sample unshifted.

    A non-finite c_best is a ValueError; c_best within 1e-12 of the focal
    distance degenerates to the start-goal segment.
    """
    if not math.isfinite(c_best):
        raise ValueError(f"c_best must be finite, got {c_best}")
    lower, upper = (np.asarray(b, dtype=float) for b in bounds)
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
    vertex on each call, and plan makes one scan per iteration: it hands the
    scan from its sample on to extend_and_rewire, and when steer truncates
    it joins x_new to the nearest vertex from that same scan, since no other
    vertex can lie within the rewire radius of x_new (_extend_truncated).

    Each vertex is stored twice. _xyz, a (3, capacity) array with one
    contiguous row per axis, serves the scan: four whole-row operations
    rather than numpy loops over rows three doubles long; points is the
    read-only (n, 3) transposed view. _pts holds the same coordinates as a
    list of float tuples, and _cost the costs as a list of floats, because
    the iteration reads and updates single vertices, which Python does far
    faster than numpy's scalar indexing. cost is a read-only array copy of
    _cost.

    The scan adds (dx^2 + dz^2) + dy^2, the order einsum("ij,ij->i") uses
    on a C-contiguous (n, 3) array, so distances, and with them trees, are
    bit for bit those of that formula; adding x^2 + y^2 first differs in the
    last bit on about a quarter of distances. From _SCAN_CROSSOVER vertices
    on, it writes the differences into _diff, a (3, capacity) array the tree
    keeps, rather than into a fresh one.

    rewires counts set_parent calls. Costs change nowhere else once a vertex
    is added, so a caller that saw the count unchanged knows every cost is
    as it last read it.
    """

    def __init__(self, root):
        self._xyz = np.empty((3, _TREE_CAPACITY), dtype=float)
        self._xyz[:, 0] = np.asarray(root, dtype=float)
        self._diff = np.empty_like(self._xyz)
        self._pts = [tuple(self._xyz[:, 0].tolist())]
        self._cost = [0.0]
        self.parent = [-1]
        self.children: list[list[int]] = [[]]
        self.n = 1
        self.rewires = 0

    @property
    def points(self) -> np.ndarray:
        """(n, 3) view of _xyz, read-only: a write through it would miss _pts."""
        points = self._xyz[:, : self.n].T
        points.flags.writeable = False
        return points

    @property
    def cost(self) -> np.ndarray:
        """Costs from the start, in vertex order: a read-only copy."""
        return _read_only_copy(self._cost, float)

    def _grow(self):
        cap = 2 * self._xyz.shape[1]
        xyz = np.empty((3, cap), dtype=float)
        xyz[:, : self.n] = self._xyz[:, : self.n]
        self._xyz = xyz
        self._diff = np.empty_like(xyz)

    def add(self, p, parent: int, cost: float) -> int:
        i = self.n
        if not 0 <= parent < i:
            raise ValueError(f"parent {parent} is not a vertex of a {i}-vertex tree")
        if i == self._xyz.shape[1]:
            self._grow()
        x, y, z = p
        x, y, z = float(x), float(y), float(z)
        # Three scalar stores cost less than one column store from a tuple.
        xyz = self._xyz
        xyz[0, i] = x
        xyz[1, i] = y
        xyz[2, i] = z
        self._pts.append((x, y, z))
        self._cost.append(float(cost))
        self.parent.append(parent)
        self.children.append([])
        self.children[parent].append(i)
        self.n = i + 1
        return i

    def sq_dists(self, p) -> np.ndarray:
        """Squared distances from p to every vertex, in index order, as a
        new array."""
        n = self.n
        q = np.asarray(p, dtype=float)[:, None]
        if n < _SCAN_CROSSOVER:
            d = self._xyz[:, :n] - q
        else:
            d = np.subtract(self._xyz[:, :n], q, out=self._diff[:, :n])
        d *= d
        # x and z first, then y: einsum's order on a C-contiguous (n, 3)
        # array, which keeps every distance bit-identical to it.
        out = d[0] + d[2]
        out += d[1]
        return out

    def nearest(self, p) -> int:
        return int(np.argmin(self.sq_dists(p)))

    def set_parent(self, v: int, new_parent: int, new_cost: float) -> None:
        """Rewire v under new_parent and propagate the cost change to all
        descendants so cost[u] == cost[parent[u]] + ||u - parent[u]|| holds."""
        self.rewires += 1
        self.children[self.parent[v]].remove(v)
        self.parent[v] = new_parent
        self.children[new_parent].append(v)
        cost, children = self._cost, self.children
        delta = new_cost - cost[v]
        stack = [v]
        while stack:
            u = stack.pop()
            cost[u] += delta
            stack.extend(children[u])

    def path_to(self, v: int) -> np.ndarray:
        idx = []
        while v != -1:
            idx.append(v)
            v = self.parent[v]
        return self._xyz[:, idx[::-1]].T.copy()


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
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("step must be positive and finite")
        # range() in plan takes only integers: fail here, not there.
        if not isinstance(self.max_iterations, numbers.Integral) or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer >= 1")
        # gamma 0 makes the rewire radius 0 (plain RRT), a negative one lets
        # |r| bound the near set uncapped by step, and NaN makes it step. A
        # NaN target never compares <= to a cost, so refinement never stops.
        if self.gamma_rrt is not None and not (
            self.gamma_rrt > 0 and math.isfinite(self.gamma_rrt)
        ):
            raise ValueError("gamma_rrt must be positive and finite")
        if self.target_cost is not None and math.isnan(self.target_cost):
            raise ValueError("target_cost must not be NaN")


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
    query already made when x_new is the sample itself. When steer
    truncates, plan calls _extend_truncated instead, which joins x_new to
    its nearest vertex from the sample's scan and comes here with a second
    scan only on a near-tie, so an iteration scans the tree once. Caller
    guarantees x_new is collision-free from its nearest vertex. Duplicates
    of existing vertices (distance < 1e-9) are rejected by returning the
    existing index.

    Numpy does only the O(n) work: the one mask that picks the near set.
    The near set averages about three vertices, so its nearest vertex,
    distances, costs, candidate order and rewire tests run on Python floats,
    which round as numpy's float64 does (math.sqrt is correctly rounded like
    np.sqrt), and candidates of equal cost keep index order. A non-empty
    near set holds every vertex at the smallest distance, so its first
    nearest vertex in index order is d2's argmin; only an empty one makes
    the argmin scan the whole tree.
    """
    near = (d2 <= radius * radius).nonzero()[0]
    near_idx = near.tolist()
    if near_idx:
        near_d2 = d2[near].tolist()
        d2_nearest = min(near_d2)
        nearest = near_idx[near_d2.index(d2_nearest)]
    else:
        nearest = int(d2.argmin())
        d2_nearest = d2.item(nearest)
        near_d2 = []
    d_nearest = math.sqrt(d2_nearest)
    if d_nearest < _DUPLICATE_EPS:
        return nearest
    cost, pts = tree._cost, tree._pts
    dists = list(map(math.sqrt, near_d2))
    near_costs = list(map(cost.__getitem__, near_idx))
    through = list(map(operator.add, near_costs, dists))

    parent = nearest
    best_cost = cost[nearest] + d_nearest
    for k in sorted(range(len(through)), key=through.__getitem__):
        if through[k] >= best_cost:
            break
        v = near_idx[k]
        if segment_collision_free(grid, pts[v], x_new):
            parent, best_cost = v, through[k]
            break
    new_idx = tree.add(x_new, parent, best_cost)

    for v, d, c in zip(near_idx, dists, near_costs):
        c_through = best_cost + d
        if c_through < c - 1e-12 and v != parent:
            # Rewiring above may already have lowered cost[v]; recheck.
            if c_through < cost[v] - 1e-12 and segment_collision_free(grid, x_new, pts[v]):
                tree.set_parent(v, new_idx, c_through)
    return new_idx


def _extend_truncated(
    tree: SearchTree, x_new, grid: OccupancyGrid, radius: float, d2: np.ndarray,
    nearest: int, x_rand,
) -> int:
    """extend_and_rewire for an x_new that steer truncated, given the scan
    from x_rand rather than from x_new: d2 holds the squared distances from
    x_rand, nearest is their argmin n, x_new lies step from n on the way to
    x_rand, and radius <= step.

    Geometry settles this extension without a scan from x_new. Let d be n's
    distance from x_rand. A vertex v within radius of x_new has
    |v - x_rand| <= |v - x_new| + |x_new - x_rand| <= step + (d - step) = d,
    and no vertex lies nearer x_rand than d, so equality holds throughout:
    v lies on the ray from x_rand through x_new at distance d, which makes
    it n. Every other vertex is farther than step from x_new, where n lies
    at step, so n is x_new's nearest vertex, the near set is {n} or empty,
    n is the parent, and nothing is rewired. x_new then joins n at cost(n)
    + |n - x_new|, the squared distance summed in the scan's order, or n is
    returned for a duplicate, as extend_and_rewire would do.

    Rounding is why the test keeps a margin. The coordinates, d and x_new
    carry errors of a few ulps of s = |x_rand|_1 + 2d, which bounds |n|_1
    and |x_new|_1 too. If every vertex but n lies beyond d + m in the scan,
    with m = 1e-9 s, each lies beyond step + m/2 from x_new in exact terms:
    about a million times the rounding of a scan from x_new, so that scan
    would leave it out of the near set and above n in the argmin. A tie or
    near-tie within m falls back to that scan and extend_and_rewire.
    """
    rx, ry, rz = x_rand
    d = math.sqrt(d2.item(nearest))
    lim = d + _SOLE_MARGIN * (abs(rx) + abs(ry) + abs(rz) + 2.0 * d)
    if np.count_nonzero(d2 <= lim * lim) != 1:
        return extend_and_rewire(tree, x_new, grid, radius, tree.sq_dists(x_new))
    nx, ny, nz = tree._pts[nearest]
    xx, xy, xz = x_new
    dx = nx - xx
    dy = ny - xy
    dz = nz - xz
    dist = math.sqrt((dx * dx + dz * dz) + dy * dy)
    if dist < _DUPLICATE_EPS:
        return nearest
    return tree.add(x_new, nearest, tree._cost[nearest] + dist)


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

    A region is required in heuristic mode and a ValueError in the others.

    Every mode draws its doubles from the generator of cfg.rng_seed in
    blocks and uses them in the order per-call draws would: three per uniform
    sample; in heuristic mode one for the region test, then a voxel pick and
    three offsets, or three uniform ones. On PCG64 consecutive draws equal
    one larger draw, so the trees are those of per-call drawing, bit for bit.
    Informed mode takes uniform's draws until its first solution, so up to
    then it builds uniform's tree, as informed RRT* is defined to; after it,
    informed_sample draws from a second generator, spawned once per call
    from SeedSequence(cfg.rng_seed), and the block stream is not read again.

    Iteration continues after the first solution until the best cost drops to
    cfg.target_cost (default: 1.05x the straight-line start-goal distance) or
    iterations run out. The best goal vertex is recomputed only when a goal
    vertex is added or a rewire changed costs. A run that never reaches the
    goal region returns success=False with path=None.

    Each iteration scans the tree once, from the sample. When steer
    truncates, x_new lies step from the nearest vertex on the way to the
    sample, so no other vertex can lie within the rewire radius (at most
    step) of x_new: x_new joins the nearest vertex with no second scan and
    no rewire pass (_extend_truncated, which also proves the rounding margin
    of that test safe and falls back to a scan from x_new on a near-tie).
    The trees are those of a rescan plus extend_and_rewire, bit for bit.

    Numpy does only an iteration's O(n) work: the scan, its argmin and
    extend_and_rewire's near-set mask. The rest reads and writes the tree's
    Python lists of coordinate tuples and costs. The shrinking radius
    r(n) = min(step, gamma * (log n / n)^(1/3)), r(1) = step since log 1 = 0
    would collapse it to zero, and the goal test are inlined, the latter
    with GoalRegion.contains's float expression, so every value is the one
    that gives.

    A sample whose steered point duplicates a vertex (within 1e-9) is
    rejected by extend_and_rewire or _extend_truncated alone, and the
    iteration adds nothing.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if region is not None and mode != "heuristic":
        raise ValueError(f"a region is only used in heuristic mode, not {mode!r}")
    start = np.asarray(start, dtype=float)
    if not grid.is_free_world(start):
        raise ValueError("start must lie in free space")
    heuristic = mode == "heuristic"
    if heuristic:
        if region is None:
            raise ValueError("heuristic mode requires a region")
        region_point = RegionSampler(region, grid).point
    goal = cfg.goal
    straight = float(np.linalg.norm(goal.center - start))
    target = cfg.target_cost if cfg.target_cost is not None else 1.05 * straight
    gamma = cfg.gamma_rrt
    if gamma is None:
        gamma = 1.01 * rewire_radius_bound(grid.free_measure())
    step = cfg.step
    lower, upper = grid.lower, grid.upper
    span = upper - lower
    lx, ly, lz = lower.tolist()
    sx, sy, sz = span.tolist()
    rng = np.random.default_rng(cfg.rng_seed)
    informed = mode == "informed"
    if informed:
        ellipse_rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed).spawn(1)[0])
    draws: list[float] = []
    pos = 0

    tree = SearchTree(start)
    # Both lists only grow, so these names stay the tree's own.
    pts, cost = tree._pts, tree._cost
    gx, gy, gz = goal.center.tolist()
    goal_r2 = goal.radius * goal.radius
    goal_vertices: list[int] = []
    best_cost = math.inf
    rewires = 0
    stats = PlanStats()
    t0 = time.perf_counter()

    for it in range(1, cfg.max_iterations + 1):
        if informed and stats.success:
            x_rand = informed_sample(start, tree.points[best], best_cost, (lower, upper), ellipse_rng)
            rx, ry, rz = x_rand.tolist()
        else:
            if pos > len(draws) - 5:  # an iteration takes at most five
                draws = draws[pos:] + rng.random(_DRAW_BLOCK).tolist()
                pos = 0
            in_region = False
            if heuristic:
                in_region = draws[pos] < (cfg.mu1 if stats.success else cfg.mu2)
                pos += 1
            if in_region:
                rx, ry, rz = region_point(*draws[pos : pos + 4])
                pos += 4
            else:
                rx = lx + draws[pos] * sx
                ry = ly + draws[pos + 1] * sy
                rz = lz + draws[pos + 2] * sz
                pos += 3

        d2 = tree.sq_dists((rx, ry, rz))
        nearest = int(d2.argmin())
        p_near = pts[nearest]
        nx, ny, nz = p_near
        xx, xy, xz, truncated = _steer(nx, ny, nz, rx, ry, rz, step)
        x_new = (xx, xy, xz)
        if not segment_collision_free(grid, p_near, x_new):
            continue
        # The shrinking radius r(n), inline.
        n = tree.n
        radius = step if n < 2 else min(step, gamma * (math.log(n) / n) ** (1.0 / 3))
        if truncated:
            idx = _extend_truncated(tree, x_new, grid, radius, d2, nearest, (rx, ry, rz))
        else:
            idx = extend_and_rewire(tree, x_new, grid, radius, d2)
        if tree.n == n:
            continue  # duplicate rejected
        # goal.contains(x_new), inline.
        dx = xx - gx
        dy = xy - gy
        dz = xz - gz
        if dx * dx + dy * dy + dz * dz < goal_r2:
            goal_vertices.append(idx)
        elif not goal_vertices or tree.rewires == rewires:
            continue  # no goal vertex cost has changed

        rewires = tree.rewires
        # The first of equal costs, as argmin takes.
        best = min(goal_vertices, key=cost.__getitem__)
        best_cost = cost[best]
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
