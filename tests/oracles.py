"""Independent reference implementations used by the unit and acceptance
tests. Everything here is deliberately written along a different route than
the library code: dense matrices instead of band storage, numpy polynomial
calculus instead of closed-form sums, natural row ordering instead of the
bandwidth-minimizing one. The tests' shared helpers live here too: random
BIVP specs and a fresh-interpreter runner."""

import bisect
import functools
import heapq
import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import ndimage

from quadplan.grid import segment_collision_free
from quadplan.planner import (
    PlanResult,
    PlanStats,
    SearchTree,
    informed_sample,
    rewire_radius_bound,
)
from quadplan.trajectory import BandedSystem


def run_fresh_python(lines):
    """Standard output of the lines run in a fresh interpreter that imports
    quadplan from this checkout, split into words."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


@functools.lru_cache(maxsize=None)
def _derived_monomials(n, k):
    """Descending coefficients of d^k/dtau^k tau^j via np.polyder, one column
    per j < n, zero-padded at the top to a common degree n-1."""
    out = np.zeros((n, n))
    for j in range(n):
        c = np.zeros(j + 1)
        c[0] = 1.0
        d = np.polyder(c, k) if k else c
        out[n - len(d) :, j] = d
    return out


@functools.lru_cache(maxsize=4096)
def monomial_derivative(tau, n, k):
    """Row of d^k/dtau^k of (1, tau, ..., tau^(n-1)), read-only.

    np.polyval runs Horner's scheme over the rows of the padded coefficient
    matrix, so all n columns are evaluated in one pass; the leading zero
    padding adds exact zeros only. Rows are cached: half of them are at tau=0
    and each joint asks for its duration several times."""
    row = np.polyval(_derived_monomials(n, k), tau)
    row.setflags(write=False)
    return row


def dense_bivp_system(spec):
    """Assemble the full 2Ms x 2Ms constraint system as a dense matrix with
    rows in natural order: start boundary, then per joint the waypoint rows
    followed by all continuity rows, then the end boundary."""
    s, M, m = spec.s, spec.M, spec.m
    n = 2 * s
    N = 2 * M * s
    A = np.zeros((N, N))
    b = np.zeros((N, m))
    r = 0
    for k in range(s):
        A[r, :n] = monomial_derivative(0.0, n, k)
        b[r] = spec.boundary_start[:, k]
        r += 1
    for i in range(1, M):
        T = spec.durations[i - 1]
        g = spec.intermediate[i - 1]
        d_i = g.shape[1]
        cp = (i - 1) * n
        cn = i * n
        for k in range(d_i):
            A[r, cp : cp + n] = monomial_derivative(T, n, k)
            b[r] = g[:, k]
            r += 1
        for k in range(2 * s - d_i):
            A[r, cp : cp + n] = monomial_derivative(T, n, k)
            A[r, cn : cn + n] -= monomial_derivative(0.0, n, k)
            r += 1
    T = spec.durations[-1]
    cl = (M - 1) * n
    for k in range(s):
        A[r, cl : cl + n] = monomial_derivative(T, n, k)
        b[r] = spec.boundary_end[:, k]
        r += 1
    assert r == N
    return A, b


def band_to_dense(sys):
    """Dense n x n view of a BandedSystem, read entry by entry from the LAPACK
    band storage (band[kl + ku + i - j, j] holds A[i, j])."""
    A = np.zeros((sys.n, sys.n))
    for j in range(sys.n):
        for i in range(max(0, j - sys.ku), min(sys.n - 1, j + sys.kl) + 1):
            A[i, j] = sys.band[sys.kl + sys.ku + i - j, j]
    return A


def dense_solve_bivp(spec):
    """Dense elimination oracle: (M, 2s, m) coefficient stack."""
    A, b = dense_bivp_system(spec)
    c = np.linalg.solve(A, b)
    return c.reshape(spec.M, 2 * spec.s, spec.m)


def effort_of_coeffs(coeffs, durations, s):
    """Control effort by numpy polynomial calculus on each segment/axis."""
    total = 0.0
    for i, T in enumerate(durations):
        for ax in range(coeffs.shape[2]):
            desc = coeffs[i, ::-1, ax]  # descending for np.poly* routines
            deriv = np.polyder(desc, s)
            sq = np.polymul(deriv, deriv)
            total += np.polyval(np.polyint(sq), T)
    return float(total)


def reference_control_effort(traj):
    """control_effort as a scalar triple loop: one np.dot per segment and
    pair of scaled coefficients, added to a running total in (segment, j, k)
    order. The library's whole-array version must match it bit for bit."""
    s = traj.s
    n = 2 * s
    total = 0.0
    fac = np.array([math.perm(j, s) for j in range(s, n)], dtype=float)
    for i in range(traj.M):
        T = traj.durations[i]
        a = traj.coeffs[i, s:, :] * fac[:, None]  # (s, m) scaled coefficients
        for j in range(s):
            for k in range(s):
                p = j + k + 1
                total += float(np.dot(a[j], a[k])) * T**p / p
    return total


def random_bivp_spec(rng, bivp_cls, s=None, max_segments=50, M=None):
    """Random well-posed problem: random waypoints, positive durations,
    random intermediate orders d_i in [1, s], random boundary flags. M
    segments if given, else between 1 and max_segments."""
    s = int(rng.integers(3, 5)) if s is None else s
    M = int(rng.integers(1, max_segments + 1)) if M is None else M
    m = 3
    waypoints = rng.normal(size=(M + 1, m)) * 5.0
    durations = rng.uniform(0.4, 2.5, M)
    bs = rng.normal(size=(m, s))
    be = rng.normal(size=(m, s))
    bs[:, 0] = waypoints[0]
    be[:, 0] = waypoints[-1]
    intermediate = []
    for i in range(1, M):
        d_i = int(rng.integers(1, s + 1))
        g = rng.normal(size=(m, d_i))
        g[:, 0] = waypoints[i]
        intermediate.append(g)
    return bivp_cls(
        s=s,
        waypoints=waypoints,
        durations=durations,
        boundary_start=bs,
        boundary_end=be,
        intermediate=intermediate,
    )


def reference_poly_basis(tau, s, k):
    """k-th derivative of (1, tau, ..., tau^(2s-1)), one scalar power per
    entry: perm(j, k) * tau ** (j - k) for j >= k."""
    out = np.zeros(2 * s)
    for j in range(k, 2 * s):
        out[j] = math.perm(j, k) * tau ** (j - k)
    return out


def reference_eval(traj, t, k):
    """PiecewisePolynomial.eval as it was before the basis table: segment by
    np.searchsorted on freshly summed knots (right-open, last closed, ending
    at the last knot), then one vector-matrix product with a
    reference_poly_basis row."""
    knots = np.concatenate([[0.0], np.cumsum(traj.durations)])
    if not 0.0 <= t <= knots[-1]:
        raise ValueError(f"t={t} outside [0, {knots[-1]}]")
    i = min(int(np.searchsorted(knots, t, side="right")) - 1, traj.M - 1)
    return reference_poly_basis(t - knots[i], traj.s, k) @ traj.coeffs[i]


def reference_derivatives(traj, t, orders):
    """PiecewisePolynomial.derivatives as it was before its per-call costs
    were cut: t used as given, the segment by bisect_right on the knot list
    clamped with min to the last, a 2-D basis table taken to np.float_power
    and multiplied, then a stack of vector-matrix products with coeffs[i]."""
    knots = np.concatenate([[0.0], np.cumsum(traj.durations)]).tolist()
    if not 0.0 <= t <= knots[-1]:
        raise ValueError(f"t={t} outside [0, {knots[-1]}]")
    n = 2 * traj.s
    i = min(bisect.bisect_right(knots, t) - 1, traj.M - 1)
    factors = np.array([[math.perm(j, k) for j in range(n)] for k in range(orders)], dtype=float)
    exponents = np.maximum(np.arange(n)[None, :] - np.arange(orders)[:, None], 0).astype(float)
    basis = factors * np.float_power(t - knots[i], exponents)
    return np.matmul(basis[:, None, :], traj.coeffs[i])[:, 0, :]


def reference_yaw_samples(traj, times):
    """yaw_samples as it was before the batched read: the former yaw_profile
    at each time in turn, one eval each, holding the previous yaw (0.0 at
    first) where the horizontal speed is at most 1e-6."""

    def yaw_profile(t, last_yaw):
        v = traj.eval(t, 1)
        if float(np.hypot(v[0], v[1])) <= 1e-6:
            return last_yaw
        return float(math.atan2(v[1], v[0]))

    out = np.zeros(len(times))
    last = 0.0
    for i, t in enumerate(times):
        last = yaw_profile(t, last)
        out[i] = last
    return out


def reference_build_banded_system(spec):
    """trajectory.build_banded_system as it was before the basis table: the
    same row layout built one row and one band entry at a time, from
    reference_poly_basis rows. Must give the identical band and rhs."""
    s, M, m = spec.s, spec.M, spec.m
    n = 2 * M * s
    kl = ku = 2 * s
    sys = BandedSystem(n, kl, ku, np.zeros((2 * kl + ku + 1, n)), np.zeros((n, m)))

    def put(i, j, v):
        assert -kl <= i - j <= ku, f"entry ({i},{j}) outside the band"
        sys.band[kl + ku + i - j, j] = v

    def put_row(r, col, T, k):
        basis = reference_poly_basis(T, s, k)
        for j in range(2 * s):
            if basis[j] != 0.0:
                put(r, col + j, basis[j])

    for k in range(s):
        put_row(k, 0, 0.0, k)
        sys.rhs[k] = spec.boundary_start[:, k]
    for i in range(1, M):
        T = spec.durations[i - 1]
        g = spec.intermediate[i - 1]
        d_i = g.shape[1]
        c_prev = (i - 1) * 2 * s
        c_next = i * 2 * s
        r = s + (i - 1) * 2 * s
        for k in range(s, 2 * s - d_i):
            put_row(r, c_prev, T, k)
            put(r, c_next + k, -math.factorial(k))
            r += 1
        for k in range(d_i):
            put_row(r, c_prev, T, k)
            sys.rhs[r] = g[:, k]
            r += 1
        for k in range(s):
            put_row(r, c_prev, T, k)
            put(r, c_next + k, -math.factorial(k))
            r += 1
    T = spec.durations[-1]
    for k in range(s):
        put_row(n - s + k, (M - 1) * 2 * s, T, k)
        sys.rhs[n - s + k] = spec.boundary_end[:, k]
    return sys


def reference_segment_voxels(grid, a, b):
    """Voxel indices traversed by segment a->b, as an (K,3) int array: a
    second traversal beside grid.segment_collision_free's walk. Indices may
    fall outside the grid; callers decide how to treat them. Computed from the sorted face-crossing parameters of the segment,
    evaluating the containing voxel at each inter-crossing midpoint (no
    step-size dependence). The set is exact up to the rounding of those
    parameters: where the segment passes through a voxel edge or corner,
    crossings that are equal in exact arithmetic can round apart, and the
    result then also lists a voxel the segment only touches (seen at
    resolution 0.3).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    ts = [np.array([0.0, 1.0])]
    for ax in range(3):
        if d[ax] != 0.0:
            lo = (min(a[ax], b[ax]) - grid.origin[ax]) / grid.resolution
            hi = (max(a[ax], b[ax]) - grid.origin[ax]) / grid.resolution
            ks = np.arange(np.floor(lo) + 1.0, np.floor(hi) + 1.0)
            if ks.size:
                ts.append((grid.origin[ax] + ks * grid.resolution - a[ax]) / d[ax])
    t = np.unique(np.concatenate(ts))
    t = t[(t >= 0.0) & (t <= 1.0)]
    if t.size < 2:
        t = np.array([0.0, 1.0])
    mids = 0.5 * (t[:-1] + t[1:])
    pts = a[None, :] + mids[:, None] * d[None, :]
    idx = np.floor((pts - grid.origin) / grid.resolution).astype(int)
    return np.unique(idx, axis=0)


_ASTAR_OFFSETS = np.array(
    [o for o in itertools.product((-1, 0, 1), repeat=3) if o != (0, 0, 0)], dtype=int
)
_ASTAR_STEP_COSTS = np.linalg.norm(_ASTAR_OFFSETS, axis=1)


def reference_astar_path(grid, start, goal, no_path_error):
    """The straightforward A* over voxel tuples, with numpy bounds checks per
    expansion: same heuristic, step costs and (f, h, voxel) tie-break as
    regions.astar_path, which must return the identical path. Raises
    no_path_error (the library's NoPathError) when start and goal are not
    connected, and ValueError for an invalid start or goal."""
    start = tuple(int(c) for c in np.asarray(start))
    goal = tuple(int(c) for c in np.asarray(goal))
    for name, v in (("start", start), ("goal", goal)):
        if not all(0 <= c < d for c, d in zip(v, grid.dims)):
            raise ValueError(f"{name} voxel {v} out of bounds")
        if grid.occupancy[v]:
            raise ValueError(f"{name} voxel {v} is occupied")
    if start == goal:
        return np.array([start], dtype=int)

    dims = np.asarray(grid.dims)
    occ = grid.occupancy
    goal_arr = np.asarray(goal, dtype=float)

    g = {start: 0.0}
    parent = {}
    h0 = float(np.linalg.norm(np.asarray(start, dtype=float) - goal_arr))
    open_heap = [(h0, h0, start)]
    closed = set()
    while open_heap:
        _f, _h, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        if cur == goal:
            path = [cur]
            while cur in parent:
                cur = parent[cur]
                path.append(cur)
            return np.array(path[::-1], dtype=int)
        closed.add(cur)
        gc = g[cur]
        nbrs = np.asarray(cur) + _ASTAR_OFFSETS
        ok = np.all(nbrs >= 0, axis=1) & np.all(nbrs < dims, axis=1)
        for nbr, cost, valid in zip(nbrs, _ASTAR_STEP_COSTS, ok):
            if not valid:
                continue
            nt = (int(nbr[0]), int(nbr[1]), int(nbr[2]))
            if occ[nt] or nt in closed:
                continue
            ng = gc + cost
            if ng < g.get(nt, np.inf) - 1e-12:
                g[nt] = ng
                parent[nt] = cur
                h = float(np.linalg.norm(nbr - goal_arr))
                heapq.heappush(open_heap, (ng + h, h, nt))
    raise no_path_error(f"no free 26-connected path from {start} to {goal}")


def reference_dilate_path(path, dims):
    """regions._dilated_values as a morphological dilation of the whole grid by
    a 3x3x3 cube, which must mark the identical voxels; returns the boolean
    mask."""
    path = np.asarray(path, dtype=int)
    mask = np.zeros(tuple(int(d) for d in dims), dtype=bool)
    mask[path[:, 0], path[:, 1], path[:, 2]] = True
    return ndimage.binary_dilation(mask, structure=np.ones((3, 3, 3), dtype=bool))


def reference_inflate(occupancy, radius_voxels):
    """grid.inflate's occupancy as scipy.ndimage's binary dilation by a
    (2r+1)^3 cube, everything outside the grid free."""
    size = 2 * radius_voxels + 1
    return ndimage.binary_dilation(occupancy, structure=np.ones((size,) * 3, dtype=bool))


def reference_filter_region_mask(values, occupancy, start, goal, empty_region_error):
    """regions.filter_region's member mask from scipy.ndimage.label's
    26-connected components of the thresholded, obstacle-free values.
    Raises ValueError for an occupied start or goal and empty_region_error
    (the library's EmptyRegionError) when neither lies in a component."""
    for name, v in (("start", start), ("goal", goal)):
        if occupancy[v]:
            raise ValueError(f"{name} voxel {v} is occupied")
    labels, _ = ndimage.label((values >= 0.5) & ~occupancy, structure=np.ones((3, 3, 3), dtype=bool))
    keep = {labels[start], labels[goal]} - {0}
    if not keep:
        raise empty_region_error("no component holds start or goal")
    mask = np.isin(labels, list(keep))
    mask[start] = mask[goal] = True
    return mask


def reference_is_connected(mask, start, goal):
    """regions.is_connected from scipy.ndimage.label's 26-connected
    components of the member mask."""
    if not (mask[start] and mask[goal]):
        return False
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3, 3), dtype=bool))
    return bool(labels[start] == labels[goal])


def reference_extend_and_rewire(tree, x_new, grid, radius, d2):
    """planner.extend_and_rewire with an independent distance pass: it
    ignores the caller's d2 and scans every vertex from x_new itself. Must
    build the identical tree (points, parents, costs) when swapped in for
    the library function."""
    del d2
    x_new = np.asarray(x_new, dtype=float)
    # einsum sums a C-contiguous (n, 3) array's rows as (dx^2 + dz^2) + dy^2
    # but a transposed view's as (dx^2 + dy^2) + dz^2; scan a C-contiguous
    # copy so the formula stays the one the planner must match.
    pts = np.ascontiguousarray(tree.points)
    diff = pts - x_new
    d2 = np.einsum("ij,ij->i", diff, diff)
    nearest = int(np.argmin(d2))
    d_nearest = math.sqrt(d2[nearest])
    if d_nearest < 1e-9:
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
            if c_through < tree.cost[v] - 1e-12 and segment_collision_free(
                grid, x_new, pts[v]
            ):
                tree.set_parent(v, new_idx, c_through)
    return new_idx


def shrinking_radius(n, step, gamma_rrt):
    """RRT*'s shrinking rewire radius r(n) = min(step, gamma * (log n /
    n)^(1/3)); r(1) = step since log 1 = 0 would collapse the radius to
    zero. plan inlines it; the reference planner and the tests call it."""
    if n < 2:
        return step
    return min(step, gamma_rrt * (math.log(n) / n) ** (1.0 / 3))


def reference_steer(x_near, x_rand, step):
    """planner._steer's point as array arithmetic on 3-vectors."""
    x_near = np.asarray(x_near, dtype=float)
    x_rand = np.asarray(x_rand, dtype=float)
    d = x_rand - x_near
    dist = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    if dist <= step:
        return x_rand.copy()
    return x_near + (step / dist) * d


class ReferenceRegionSampler:
    """regions.RegionSampler as array arithmetic: searchsorted on an array of
    cumulative weights, then one vector offset inside the voxel."""

    def __init__(self, region, origin=(0.0, 0.0, 0.0), resolution=1.0):
        idx = region.member_indices()
        w = region.values[idx[:, 0], idx[:, 1], idx[:, 2]].astype(float)
        self._idx = idx
        self._cum = np.cumsum(w / w.sum())
        self._origin = np.asarray(origin, dtype=float)
        self._res = resolution

    def sample(self, rng):
        k = int(np.searchsorted(self._cum, rng.random(), side="right"))
        k = min(k, len(self._idx) - 1)
        return self._origin + (self._idx[k] + rng.random(3)) * self._res


def reference_plan(grid, start, cfg, mode="uniform", region=None):
    """planner.plan drawing from the generator once per sample in every
    mode (informed samples after the first solution from a second generator
    spawned from the seed, as plan does), finding the nearest vertex with
    einsum on a C-contiguous copy of the points, steering with
    reference_steer, extending with reference_extend_and_rewire and
    recomputing the best goal vertex after every vertex added. Must build
    the identical tree, path, cost and statistics for the same inputs."""
    start = np.asarray(start, dtype=float)
    if mode == "heuristic":
        region_sampler = ReferenceRegionSampler(region, grid.origin, grid.resolution)
    goal = cfg.goal
    straight = float(np.linalg.norm(goal.center - start))
    target = cfg.target_cost if cfg.target_cost is not None else 1.05 * straight
    gamma = cfg.gamma_rrt
    if gamma is None:
        gamma = 1.01 * rewire_radius_bound(grid.free_measure())
    lower, upper = grid.lower, grid.upper
    span = upper - lower
    rng = np.random.default_rng(cfg.rng_seed)
    ellipse_rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed).spawn(1)[0])

    tree = SearchTree(start)
    goal_vertices = []
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
            x_rand = informed_sample(
                start, tree.points[best], best_cost, (lower, upper), ellipse_rng
            )
        else:
            x_rand = lower + rng.random(3) * span

        diff = np.ascontiguousarray(tree.points) - x_rand
        d2 = np.einsum("ij,ij->i", diff, diff)
        x_near = tree.points[int(np.argmin(d2))]
        x_new = reference_steer(x_near, x_rand, cfg.step)
        d = x_new - x_near
        if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < 1e-9**2:
            continue
        if not segment_collision_free(grid, x_near, x_new):
            continue
        radius = shrinking_radius(tree.n, cfg.step, gamma)
        before = tree.n
        idx = reference_extend_and_rewire(tree, x_new, grid, radius, None)
        if tree.n == before:
            continue
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
