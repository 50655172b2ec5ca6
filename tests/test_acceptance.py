"""Acceptance gate: the ten package-level criteria, one test each, each
printing a single PASS/FAIL line. Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete."""

import heapq
import itertools
import math
import time

import numpy as np

from quadplan.bench import paperlike_maps, run_benchmark
from quadplan.grid import (
    GoalRegion,
    ObstacleSpec,
    OccupancyGrid,
    random_cluttered_map,
    segment_collision_free,
)
from quadplan.pipeline import PipelineConfig, plan_trajectory
from quadplan.planner import PlannerConfig, plan
from quadplan.regions import (
    NoPathError,
    astar_path,
    filter_region,
    is_connected,
    is_safe,
    oracle_region,
)
from quadplan.trajectory import (
    BivpSpec,
    banded_plu_solve,
    build_banded_system,
    control_effort,
    solve_bivp,
    trapezoidal_time_allocation,
)

from oracles import dense_solve_bivp, random_bivp_spec, reference_poly_basis


def report(num, description, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}")
    assert ok, f"criterion {num} failed: {description}"


# --------------------------------------------------------------------------- 1


def test_criterion_01_solver_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        spec = random_bivp_spec(rng, BivpSpec)
        got = solve_bivp(spec).coeffs
        want = dense_solve_bivp(spec)
        scale = np.abs(want).max() + 1.0
        worst = max(worst, float(np.abs(got - want).max() / scale))
    elapsed = time.perf_counter() - t0
    report(
        1,
        f"banded PLU matches dense oracle on 200 random BIVPs "
        f"(worst rel err {worst:.2e} <= 1e-8, {elapsed:.1f}s < 10s)",
        worst <= 1e-8 and elapsed < 10.0,
    )


# --------------------------------------------------------------------------- 2


def test_criterion_02_analytic_minimizers():
    quintic = solve_bivp(BivpSpec.rest_to_rest(np.array([[0.0], [1.0]]), [1.0], 3))
    septic = solve_bivp(BivpSpec.rest_to_rest(np.array([[0.0], [1.0]]), [1.0], 4))
    err5 = np.abs(quintic.coeffs[0, :, 0] - [0, 0, 0, 10, -15, 6]).max()
    err7 = np.abs(septic.coeffs[0, :, 0] - [0, 0, 0, 0, 35, -84, 70, -20]).max()
    effort = control_effort(quintic)
    ok = err5 <= 1e-9 and err7 <= 1e-9 and abs(effort - 720.0) <= 1e-6 * 720.0
    report(
        2,
        f"rest-to-rest minimizers are the classic quintic/septic "
        f"(coeff errs {err5:.1e}/{err7:.1e}, effort {effort:.9f} ~ 720)",
        ok,
    )


# --------------------------------------------------------------------------- 3


def _effort_of_polys(polys_desc, durations):
    """Effort from per-segment/axis descending s-th-derivative polynomials."""
    total = 0.0
    for i, T in enumerate(durations):
        for d in polys_desc[i]:
            sq = np.polymul(d, d)
            total += np.polyval(np.polyint(sq), T)
    return total


def test_criterion_03_continuity_and_optimality():
    rng = np.random.default_rng(103)
    max_jump = 0.0
    min_gain = math.inf
    for _ in range(10):
        s = int(rng.integers(3, 5))
        M = int(rng.integers(2, 7))
        wp = rng.normal(size=(M + 1, 3)) * 4.0
        durations = rng.uniform(0.5, 2.0, M)
        spec = BivpSpec.rest_to_rest(wp, durations, s)
        traj = solve_bivp(spec)

        # Joint continuity up to order 2s-2 for d_i = 1.
        for i in range(1, M):
            T = durations[i - 1]
            for k in range(2 * s - 1):
                left = reference_poly_basis(T, s, k) @ traj.coeffs[i - 1]
                right = reference_poly_basis(0.0, s, k) @ traj.coeffs[i]
                mag = 1.0 + max(np.abs(left).max(), np.abs(right).max())
                max_jump = max(max_jump, float(np.abs(left - right).max() / mag))

        # Optimality: feasible perturbations never decrease effort. Each
        # perturbation is per-segment (tau (T - tau))^s q(tau), which vanishes
        # with its first s-1 derivatives at both segment ends, so boundary
        # flags, waypoints, and C^(s-1) continuity are all preserved.
        base = control_effort(traj)
        for _ in range(100):
            polys = []
            for i in range(M):
                T = durations[i]
                bump = np.array([1.0])
                for _p in range(s):
                    bump = np.polymul(bump, np.array([-1.0, T, 0.0]))
                segment = []
                for ax in range(3):
                    q = rng.normal(size=3) * 0.3
                    pert = np.polymul(bump, q)
                    traj_desc = traj.coeffs[i, ::-1, ax]
                    total_poly = np.polyadd(traj_desc, pert)
                    segment.append(np.polyder(total_poly, s))
                polys.append(segment)
            perturbed = _effort_of_polys(polys, durations)
            min_gain = min(min_gain, (perturbed - base) / (1.0 + base))
    ok = max_jump <= 1e-6 and min_gain >= -1e-9
    report(
        3,
        f"joint continuity (worst jump {max_jump:.1e} <= 1e-6) and strict "
        f"optimality under 1000 feasible perturbations (worst gain {min_gain:.2e})",
        ok,
    )


# --------------------------------------------------------------------------- 4


def _best_solve_time(spec, reps=25):
    sys = build_banded_system(spec)
    banded_plu_solve(sys)
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        banded_plu_solve(sys)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_04_linear_complexity():
    rng = np.random.default_rng(104)
    t_start = time.perf_counter()

    def spec_of(M):
        wp = rng.normal(size=(M + 1, 3))
        return BivpSpec.rest_to_rest(wp, rng.uniform(0.5, 1.5, M), 4)

    t100 = _best_solve_time(spec_of(100))
    t2000 = _best_solve_time(spec_of(2000))
    elapsed = time.perf_counter() - t_start
    ratio = t2000 / t100
    report(
        4,
        f"O(M) solve: t(M=2000)/t(M=100) = {ratio:.1f} <= 30 "
        f"({1e3 * t100:.2f} ms vs {1e3 * t2000:.2f} ms, total {elapsed:.1f}s < 5s)",
        ratio <= 30.0 and elapsed < 5.0,
    )


# --------------------------------------------------------------------------- 5


def test_criterion_05_asymptotic_optimality_proxy():
    grid = OccupancyGrid(np.zeros((50, 50, 50), dtype=bool), 1.0)
    start = np.array([5.0, 25.0, 25.0])
    goal = GoalRegion(np.array([45.0, 25.0, 25.0]), 2.0)
    straight = 40.0
    t0 = time.perf_counter()
    costs = []
    for seed in range(50):
        cfg = PlannerConfig(
            step=50.0,
            goal=goal,
            max_iterations=5000,
            target_cost=1.05 * straight,
            gamma_rrt=80.0,
            rng_seed=seed,
        )
        costs.append(plan(grid, start, cfg).cost)
    elapsed = time.perf_counter() - t0
    median = float(np.median(costs))
    ok = abs(median - straight) / straight <= 0.05 and elapsed < 60.0
    report(
        5,
        f"uniform RRT*, empty 50 m map, 5000 iters x 50 seeds: median best "
        f"cost {median:.2f} within 5% of {straight:.0f} m ({elapsed:.0f}s < 60s)",
        ok,
    )


# --------------------------------------------------------------------------- 6


def test_criterion_06_heuristic_speedup_trend():
    cases = paperlike_maps(20, seed=600)
    # Initial-stage comparison only: a non-binding target cost stops each run
    # right after the first goal connection.
    rep = run_benchmark(cases, ["heuristic", "uniform"], trials=50, seed_base=0,
                        target_cost=1e18)
    iters = {"heuristic": [], "uniform": []}
    costs = {"heuristic": [], "uniform": []}
    for r in rep.records:
        if r.success:
            iters[r.mode].append(r.init_iter)
            costs[r.mode].append(r.init_cost)
    mi_h, mi_u = np.median(iters["heuristic"]), np.median(iters["uniform"])
    mc_h, mc_u = np.median(costs["heuristic"]), np.median(costs["uniform"])
    ok = mi_h <= 0.5 * mi_u and mc_h < mc_u
    report(
        6,
        f"heuristic vs uniform on 20 maps x 50 trials: median initial "
        f"iterations {mi_h:.0f} <= 0.5 x {mi_u:.0f}, median initial cost "
        f"{mc_h:.2f} < {mc_u:.2f}",
        ok,
    )


# --------------------------------------------------------------------------- 7


def test_criterion_07_backend_speed():
    rng = np.random.default_rng(107)
    wp = np.cumsum(rng.uniform(0.5, 2.0, (16, 3)), axis=0)  # M = 15
    durations = trapezoidal_time_allocation(wp, 2.0, 1.0)
    times = {}
    for s in (3, 4):
        times[s] = _best_solve_time(BivpSpec.rest_to_rest(wp, durations, s), reps=10)
    ok = times[3] < 1e-3 and times[4] < 1e-3
    report(
        7,
        f"M=15 back-end solves: min jerk {1e6 * times[3]:.0f} us, "
        f"min snap {1e6 * times[4]:.0f} us, each < 1 ms",
        ok,
    )


# --------------------------------------------------------------------------- 8


def test_criterion_08_oracle_region_quality():
    spec = ObstacleSpec(count=(15, 20), size_min=(2, 2, 2), size_max=(4, 4, 6))
    connected = safe = feasible = 0
    seed = 0
    while feasible < 100:
        grid = random_cluttered_map(
            (20, 20, 20), 1.0, spec, seed=seed, keep_free=[(1, 1, 1), (18, 18, 18)]
        )
        seed += 1
        try:
            region = oracle_region(grid, (1, 1, 1), (18, 18, 18))
        except NoPathError:
            continue
        feasible += 1
        connected += is_connected(region, (1, 1, 1), (18, 18, 18))
        safe += is_safe(region, grid)
    ok = connected == 100 and safe == 100
    report(
        8,
        f"dilated-A* oracle regions: connected {connected}/100, safe "
        f"{safe}/100 on seeded feasible maps",
        ok,
    )


# --------------------------------------------------------------------------- 9


def test_criterion_09_end_to_end_safety():
    spec = ObstacleSpec(count=(10, 14), size_min=(2, 2, 2), size_max=(3, 3, 4))
    clean = 0
    for seed in range(50):
        grid = random_cluttered_map(
            (16, 16, 16), 1.0, spec, seed=seed, keep_free=[(1, 1, 1), (14, 14, 14)]
        )
        start = grid.index_to_world((1, 1, 1))
        goal = GoalRegion(grid.index_to_world((14, 14, 14)), 1.5)
        cfg = PipelineConfig(
            planner=PlannerConfig(step=2.0, goal=goal, max_iterations=30_000, rng_seed=seed)
        )
        result = plan_trajectory(grid, start, goal, cfg)  # raises if repair fails
        traj = result.trajectory
        ts = np.linspace(0.0, traj.total_duration, 1500)
        pts = np.array([traj.eval(t) for t in ts])
        clean += all(
            segment_collision_free(grid, a, b) for a, b in zip(pts[:-1], pts[1:])
        )
    report(
        9,
        f"end-to-end pipeline on 50 cluttered maps: {clean}/50 dense-sampled "
        f"trajectories collision-free, repair within 30 rounds in all cases",
        clean == 50,
    )


# -------------------------------------------------------------------------- 10


def _dijkstra_cost(occ, start, goal):
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=3) if o != (0, 0, 0)]
    costs = [float(np.linalg.norm(o)) for o in offsets]
    dims = occ.shape
    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in done:
            continue
        if cur == goal:
            return d
        done.add(cur)
        for o, c in zip(offsets, costs):
            nb = (cur[0] + o[0], cur[1] + o[1], cur[2] + o[2])
            if not all(0 <= nb[i] < dims[i] for i in range(3)):
                continue
            if occ[nb] or nb in done:
                continue
            nd = d + c
            if nd < dist.get(nb, np.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return None


def test_criterion_10_astar_oracle_equivalence():
    rng = np.random.default_rng(110)
    worst = 0.0
    cases = 0
    while cases < 500:
        occ = rng.random((8, 8, 8)) < 0.25
        free = np.argwhere(~occ)
        if len(free) < 2:
            continue
        s, g = (tuple(free[i]) for i in rng.choice(len(free), 2, replace=False))
        grid = OccupancyGrid(occ, 1.0)
        oracle = _dijkstra_cost(occ, s, g)
        if oracle is None:
            try:
                astar_path(grid, s, g)
                ok_case = False
            except NoPathError:
                ok_case = True
            assert ok_case, f"A* found a path Dijkstra ruled out: {s} -> {g}"
        else:
            path = astar_path(grid, s, g)
            cost = float(
                np.sum(np.linalg.norm(np.diff(path.astype(float), axis=0), axis=1))
            )
            worst = max(worst, abs(cost - oracle))
        cases += 1
    report(
        10,
        f"A* equals brute-force Dijkstra on 500 random 8^3 instances "
        f"(worst cost deviation {worst:.1e})",
        worst <= 1e-9,
    )
