"""RRT* front end: radius formulas, steering, informed sampling, tree
invariants, extension/rewiring semantics, and the three planning modes."""

import dataclasses
import math

import numpy as np
import pytest

from quadplan import planner
from quadplan.bench import paperlike_maps
from quadplan.grid import (
    GoalRegion,
    ObstacleSpec,
    OccupancyGrid,
    random_cluttered_map,
)
from quadplan.planner import (
    PlannerConfig,
    SearchTree,
    extend_and_rewire,
    informed_sample,
    plan,
    rewire_radius_bound,
    save_path,
    shrinking_radius,
    steer,
)
from quadplan.regions import filter_region, oracle_region

from oracles import reference_extend_and_rewire


def empty_grid(side=10, resolution=1.0):
    return OccupancyGrid(np.zeros((side,) * 3, dtype=bool), resolution)


def check_tree_invariants(tree):
    assert tree.parent[0] == -1
    assert tree.cost[0] == 0.0
    for v in range(1, tree.n):
        p = tree.parent[v]
        assert 0 <= p < tree.n
        edge = np.linalg.norm(tree.points[v] - tree.points[p])
        assert abs(tree.cost[v] - (tree.cost[p] + edge)) < 1e-9
        # Acyclic: every vertex reaches the root within n parent hops.
        hops = 0
        while v != -1:
            v = tree.parent[v]
            hops += 1
            assert hops <= tree.n


# --------------------------------------------------------------- radius bounds


def test_rewire_radius_bound_values():
    expect = (8.0 / 3.0) ** (1.0 / 3.0) * (1000.0 / (4.0 * math.pi / 3.0)) ** (1.0 / 3.0)
    assert rewire_radius_bound(3, 1000.0) == pytest.approx(expect)
    assert expect == pytest.approx(8.603, abs=5e-4)
    assert rewire_radius_bound(3, 4.0 * math.pi / 3.0) == pytest.approx(
        (8.0 / 3.0) ** (1.0 / 3.0)
    )
    # Cube-root homogeneity in the free measure.
    assert rewire_radius_bound(3, 8 * 123.0) == pytest.approx(
        2 * rewire_radius_bound(3, 123.0)
    )
    with pytest.raises(ValueError):
        rewire_radius_bound(1, 10.0)
    with pytest.raises(ValueError):
        rewire_radius_bound(3, 0.0)


def test_shrinking_radius():
    assert shrinking_radius(1, 2.5, 100.0) == 2.5
    expect = 10.0 * (math.log(1000.0) / 1000.0) ** (1.0 / 3.0)
    assert shrinking_radius(1000, 50.0, 10.0) == pytest.approx(expect)
    assert shrinking_radius(1000, 1.0, 10.0) == 1.0  # capped by the step
    radii = [shrinking_radius(n, 100.0, 10.0) for n in (10, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_steer():
    assert np.allclose(steer((0, 0, 0), (0.3, 0.4, 0.0), 1.0), (0.3, 0.4, 0.0))
    assert np.allclose(steer((0, 0, 0), (2, 0, 0), 1.0), (1, 0, 0))
    assert np.allclose(steer((1, 1, 1), (1, 1, 1), 1.0), (1, 1, 1))


# ------------------------------------------------------------- informed sample


def test_informed_sample_properties():
    rng = np.random.default_rng(0)
    start = np.array([1.0, 1.0, 1.0])
    goal = np.array([8.0, 5.0, 3.0])
    bounds = (np.zeros(3), np.full(3, 10.0))
    c_min = float(np.linalg.norm(goal - start))

    # Degenerate ellipsoid: samples on the segment.
    for _ in range(20):
        p = informed_sample(start, goal, c_min, bounds, rng)
        d = np.linalg.norm(p - start) + np.linalg.norm(p - goal)
        assert d == pytest.approx(c_min, abs=1e-9)

    # Infinite best cost: uniform over the bounds.
    for _ in range(200):
        p = informed_sample(start, goal, math.inf, bounds, rng)
        assert np.all(p >= bounds[0]) and np.all(p <= bounds[1])

    # Finite best cost: every sample satisfies the focal-sum inequality.
    c_best = c_min + 2.0
    for _ in range(10_000):
        p = informed_sample(start, goal, c_best, bounds, rng)
        d = np.linalg.norm(p - start) + np.linalg.norm(p - goal)
        assert d <= c_best + 1e-9
        assert np.all(p >= bounds[0]) and np.all(p <= bounds[1])

    with pytest.raises(ValueError):
        informed_sample(start, goal, c_min - 0.5, bounds, rng)


# ----------------------------------------------------------- extend and rewire


def test_extend_rewire_shortcut():
    """Hand-built instance: a dog-leg child gets rewired through the new
    vertex onto the straight-line cost."""
    g = empty_grid(20)
    tree = SearchTree(np.array([1.0, 1.0, 1.0]))
    a = tree.add(np.array([1.0, 5.0, 1.0]), 0, 4.0)
    b = tree.add(np.array([5.0, 5.0, 1.0]), a, 8.0)
    assert tree.cost[b] == 8.0
    # New vertex near the root-b diagonal with a large radius.
    p = np.array([3.0, 3.0, 1.0])
    new = extend_and_rewire(tree, p, g, 10.0, tree.sq_dists(p))
    check_tree_invariants(tree)
    d_root_new = math.sqrt(8.0)
    assert tree.parent[new] == 0
    assert tree.cost[new] == pytest.approx(d_root_new)
    # b is cheaper through the new vertex than through a.
    assert tree.parent[b] == new
    assert tree.cost[b] == pytest.approx(d_root_new + math.sqrt(8.0))


def test_extend_rewire_small_radius_and_duplicate():
    g = empty_grid(20)
    tree = SearchTree(np.array([1.0, 1.0, 1.0]))
    tree.add(np.array([4.0, 1.0, 1.0]), 0, 3.0)
    n_before = tree.n
    p = np.array([4.0, 2.0, 1.0])
    idx = extend_and_rewire(tree, p, g, 1e-6, tree.sq_dists(p))
    assert tree.n == n_before + 1
    assert tree.parent[idx] == 1  # plain nearest-parent extension
    check_tree_invariants(tree)
    # Exact duplicate is rejected: existing index returned, no growth.
    n_before = tree.n
    assert extend_and_rewire(tree, p, g, 1.0, tree.sq_dists(p)) == idx
    assert tree.n == n_before


def test_extend_rewire_respects_obstacles():
    occ = np.zeros((10, 10, 10), dtype=bool)
    occ[5, :, :] = True
    occ[5, 0, 0] = False  # pinhole
    g = OccupancyGrid(occ, 1.0)
    tree = SearchTree(np.array([2.0, 5.0, 5.0]))
    # Candidate parent on the far side of the wall is blocked; the near side
    # vertex must be chosen even at higher cost-through.
    far = tree.add(np.array([8.0, 5.0, 5.0]), 0, 100.0)
    p = np.array([4.0, 5.0, 5.0])
    new = extend_and_rewire(tree, p, g, 20.0, tree.sq_dists(p))
    assert tree.parent[new] == 0
    assert far != new


def test_tree_cost_propagation():
    rng = np.random.default_rng(3)
    g = empty_grid(10)
    tree = SearchTree(np.array([5.0, 5.0, 5.0]))
    for _ in range(300):
        p = rng.uniform(0.5, 9.5, 3)
        radius = shrinking_radius(tree.n, 2.0, 10.0)
        extend_and_rewire(tree, p, g, radius, tree.sq_dists(p))
    check_tree_invariants(tree)


def test_sq_dists_recomputed_after_add():
    tree = SearchTree(np.array([0.0, 0.0, 0.0]))
    p = np.array([1.0, 2.0, 2.0])
    assert np.array_equal(tree.sq_dists(p), [9.0])
    tree.add(np.array([1.0, 2.0, 3.0]), 0, 3.0)
    assert np.array_equal(tree.sq_dists(p), [9.0, 1.0])
    assert tree.nearest(p) == 1


def test_duplicate_after_nearest_returns_existing_index():
    """plan's order of calls: one scan from x finds its nearest vertex and
    is handed to extend_and_rewire, which rejects x as a duplicate of that
    vertex and returns the existing index without adding."""
    g = empty_grid(10)
    tree = SearchTree(np.array([1.0, 1.0, 1.0]))
    v = tree.add(np.array([3.0, 1.0, 1.0]), 0, 2.0)
    for x in (np.array([3.0, 1.0, 1.0]), np.array([3.0 + 1e-10, 1.0, 1.0])):
        d2 = tree.sq_dists(x)
        assert int(np.argmin(d2)) == v
        assert extend_and_rewire(tree, x, g, 5.0, d2) == v
        assert tree.n == 2
    # Once a vertex is added, the next scan covers the new tree.
    x = np.array([5.0, 1.0, 1.0])
    w = extend_and_rewire(tree, x, g, 5.0, tree.sq_dists(x))
    assert w == 2 and tree.nearest(x) == w


def _identity_cases():
    """(grid, start voxel, goal voxel, step): two empty grids,
    eleven small cluttered maps with paperlike obstacles (some at
    resolution 0.5 off the origin) and eight paperlike maps."""
    cases = []
    for side, res, origin in ((12, 1.0, (0.0, 0.0, 0.0)), (10, 0.5, (-1.0, 2.0, 0.5))):
        grid = OccupancyGrid(np.zeros((side,) * 3, dtype=bool), res, origin)
        cases.append((grid, (1, 1, 1), (side - 2,) * 3, 2.0 * res))
    spec = ObstacleSpec(count=(6, 10), size_min=(2, 2, 2), size_max=(4, 4, 6), max_retries=200)
    for i in range(11):
        side = 12 + i % 5
        res, origin = ((0.5, (0.25, -1.5, 1.0)) if i % 3 == 2 else (1.0, (0.0, 0.0, 0.0)))
        keep = [(1, 1, 1), (side - 2,) * 3]
        grid = random_cluttered_map((side,) * 3, res, spec, seed=100 + i,
                                    origin=origin, keep_free=keep)
        cases.append((grid, keep[0], keep[1], 2.0 * res))
    for case in paperlike_maps(8, seed=5):
        cases.append((case.grid, case.grid.world_to_index(case.start),
                      case.grid.world_to_index(case.goal.center), 2.0))
    return cases


def _tree_state(result):
    tree = result.tree
    stats = dataclasses.asdict(result.stats)
    # Wall-clock fields differ between any two runs.
    del stats["initial_time"], stats["optimal_time"]
    return tree.points.copy(), list(tree.parent), tree.cost[: tree.n].copy(), stats


def test_plan_trees_match_reference_extend(monkeypatch):
    """plan hands its nearest scan to extend_and_rewire and rescans only
    when steer truncates; swapping in the reference extension, which
    ignores the scan it is given and makes its own from x_new, must leave
    every tree, cost and statistic unchanged."""
    cases = _identity_cases()
    assert len(cases) >= 20
    solved = {"uniform": 0, "informed": 0, "heuristic": 0}
    for n, (grid, s_vox, g_vox, step) in enumerate(cases):
        start = grid.index_to_world(s_vox)
        goal = goal_at(grid.index_to_world(g_vox), 1.5 * step)
        region = filter_region(oracle_region(grid, s_vox, g_vox), grid, s_vox, g_vox)
        for mode in solved:
            cfg = PlannerConfig(step=step, goal=goal, max_iterations=600,
                                target_cost=0.0, rng_seed=n)
            kwargs = {"mode": mode, "region": region if mode == "heuristic" else None}
            with monkeypatch.context() as m:
                m.setattr(planner, "extend_and_rewire", reference_extend_and_rewire)
                want = _tree_state(plan(grid, start, cfg, **kwargs))
            got = _tree_state(plan(grid, start, cfg, **kwargs))
            assert np.array_equal(got[0], want[0]), (n, mode)
            assert got[1] == want[1], (n, mode)
            assert np.array_equal(got[2], want[2]), (n, mode)
            assert got[3] == want[3], (n, mode)
            solved[mode] += got[3]["success"]
    # Most runs reach the goal, so informed sampling and refinement run too.
    assert min(solved.values()) >= 10, solved


# ------------------------------------------------------------------------ plan


def goal_at(center, radius=1.0):
    return GoalRegion(np.asarray(center, dtype=float), radius)


def test_plan_uniform_empty_map():
    cfg = PlannerConfig(step=2.0, goal=goal_at((8.5, 8.5, 8.5)), max_iterations=3000, rng_seed=4)
    result = plan(empty_grid(10), (1.5, 1.5, 1.5), cfg)
    assert result.stats.success
    assert result.path is not None
    straight = math.sqrt(3) * 7.0
    assert result.cost >= straight - cfg.goal.radius
    assert np.allclose(result.path[0], (1.5, 1.5, 1.5))
    assert cfg.goal.contains(result.path[-1])
    check_tree_invariants(result.tree)
    # Path cost bookkeeping is consistent with the waypoints.
    seg = np.linalg.norm(np.diff(result.path, axis=0), axis=1).sum()
    assert seg == pytest.approx(result.cost)


def test_plan_failure_and_stats_ordering():
    cfg = PlannerConfig(step=1.0, goal=goal_at((9, 9, 9), 0.5), max_iterations=1)
    result = plan(empty_grid(10), (0.5, 0.5, 0.5), cfg)
    assert not result.stats.success
    assert result.path is None
    assert result.cost == math.inf

    cfg = PlannerConfig(step=2.0, goal=goal_at((8.5, 8.5, 8.5)), max_iterations=5000, rng_seed=0)
    result = plan(empty_grid(10), (1.5, 1.5, 1.5), cfg)
    st = result.stats
    if st.success and st.optimal_iterations is not None:
        assert st.initial_iterations <= st.optimal_iterations
        assert st.initial_nodes <= st.optimal_nodes
        assert st.initial_cost >= result.cost - 1e-9
        assert st.initial_nodes <= st.initial_iterations


def test_plan_deterministic():
    cfg = PlannerConfig(step=2.0, goal=goal_at((8.5, 8.5, 8.5)), max_iterations=2000, rng_seed=11)
    r1 = plan(empty_grid(10), (1.5, 1.5, 1.5), cfg)
    r2 = plan(empty_grid(10), (1.5, 1.5, 1.5), cfg)
    assert r1.cost == r2.cost
    assert np.array_equal(r1.path, r2.path)


def test_plan_informed_mode():
    cfg = PlannerConfig(step=2.0, goal=goal_at((8.5, 8.5, 8.5)), max_iterations=4000, rng_seed=2)
    result = plan(empty_grid(10), (1.5, 1.5, 1.5), cfg, mode="informed")
    assert result.stats.success
    straight = math.sqrt(3) * 7.0
    assert result.cost <= 1.5 * straight


def test_plan_informed_target_below_straight_line():
    # target_cost = 0 keeps refining after the first solution, whose cost to
    # a vertex inside the goal ball is below the start-to-centre distance.
    start = np.array([1.5, 1.5, 1.5])
    goal = goal_at((8.5, 8.5, 8.5))
    for seed in range(3):
        cfg = PlannerConfig(step=2.0, goal=goal, max_iterations=1500,
                            target_cost=0.0, rng_seed=seed)
        result = plan(empty_grid(10), start, cfg, mode="informed")
        assert result.stats.success
        assert goal.contains(result.path[-1])
        assert result.cost < np.linalg.norm(goal.center - start)
        check_tree_invariants(result.tree)

    # A best cost within rounding of the focal distance is the segment case.
    rng = np.random.default_rng(0)
    a, b = np.zeros(3), np.array([3.0, 4.0, 0.0])
    p = informed_sample(a, b, 5.0 - 1e-13, ([-1.0] * 3, [5.0] * 3), rng)
    assert np.allclose(np.cross(p - a, b - a), 0.0)


def test_plan_heuristic_mode_and_validation():
    spec = ObstacleSpec(count=(8, 12), size_min=(1, 1, 1), size_max=(3, 3, 3))
    grid = random_cluttered_map(
        (15, 15, 15), 1.0, spec, seed=2, keep_free=[(1, 1, 1), (13, 13, 13)]
    )
    region = filter_region(
        oracle_region(grid, (1, 1, 1), (13, 13, 13)), grid, (1, 1, 1), (13, 13, 13)
    )
    start = grid.index_to_world((1, 1, 1))
    cfg = PlannerConfig(
        step=2.0, goal=goal_at(grid.index_to_world((13, 13, 13)), 1.5),
        max_iterations=10_000, rng_seed=1,
    )
    result = plan(grid, start, cfg, mode="heuristic", region=region)
    assert result.stats.success
    check_tree_invariants(result.tree)

    with pytest.raises(ValueError):
        plan(grid, start, cfg, mode="heuristic")  # region required
    with pytest.raises(ValueError):
        plan(grid, start, cfg, mode="bogus")
    with pytest.raises(ValueError):
        plan(grid, (-5.0, 0.0, 0.0), cfg)  # start outside the map


def test_planner_config_validation():
    goal = goal_at((1, 1, 1))
    with pytest.raises(ValueError):
        PlannerConfig(step=0.0, goal=goal, max_iterations=10)
    with pytest.raises(ValueError):
        PlannerConfig(step=1.0, goal=goal, max_iterations=0)
    with pytest.raises(ValueError):
        PlannerConfig(step=1.0, goal=goal, max_iterations=10, mu1=1.5)


def test_save_path(tmp_path):
    fname = tmp_path / "path.txt"
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    save_path(pts, cost=3.7416573867739413, iterations=42, fname=fname)
    lines = fname.read_text().splitlines()
    assert lines[0].startswith("# cost=3.74165739 iterations=42")
    assert len(lines) == 3
    assert [float(v) for v in lines[2].split()] == [1.0, 2.0, 3.0]
