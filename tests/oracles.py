"""Independent reference implementations used by the unit and acceptance
tests. Everything here is deliberately written along a different route than
the library code: dense matrices instead of band storage, numpy polynomial
calculus instead of closed-form sums, natural row ordering instead of the
bandwidth-minimizing one."""

import functools
import heapq
import itertools

import numpy as np


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


def random_bivp_spec(rng, bivp_cls, s=None, max_segments=50):
    """Random well-posed problem: random waypoints, positive durations,
    random intermediate orders d_i in [1, s], random boundary flags."""
    s = int(rng.integers(3, 5)) if s is None else s
    M = int(rng.integers(1, max_segments + 1))
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
        if not grid.in_bounds_index(v):
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
