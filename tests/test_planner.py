"""RRT* front end: radius formulas, steering, informed sampling, tree
invariants, extension/rewiring semantics, and the three planning modes."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

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
)
from quadplan.regions import HeuristicRegion, filter_region, oracle_region

from oracles import reference_extend_and_rewire, reference_plan, reference_steer, shrinking_radius


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
    assert rewire_radius_bound(1000.0) == pytest.approx(expect)
    assert expect == pytest.approx(8.603, abs=5e-4)
    assert rewire_radius_bound(4.0 * math.pi / 3.0) == pytest.approx((8.0 / 3.0) ** (1.0 / 3.0))
    # Cube-root homogeneity in the free measure.
    assert rewire_radius_bound(8 * 123.0) == pytest.approx(2 * rewire_radius_bound(123.0))
    with pytest.raises(ValueError):
        rewire_radius_bound(0.0)


def test_shrinking_radius():
    assert shrinking_radius(1, 2.5, 100.0) == 2.5
    expect = 10.0 * (math.log(1000.0) / 1000.0) ** (1.0 / 3.0)
    assert shrinking_radius(1000, 50.0, 10.0) == pytest.approx(expect)
    assert shrinking_radius(1000, 1.0, 10.0) == 1.0  # capped by the step
    radii = [shrinking_radius(n, 100.0, 10.0) for n in (10, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_steer():
    steer = planner._steer
    assert np.allclose(steer(0, 0, 0, 0.3, 0.4, 0.0, 1.0), (0.3, 0.4, 0.0, False))
    assert np.allclose(steer(0, 0, 0, 2, 0, 0, 1.0), (1, 0, 0, True))
    assert np.allclose(steer(1, 1, 1, 1, 1, 1, 1.0), (1, 1, 1, False))


def test_steer_bit_exact_against_reference():
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(2000):
        a = rng.uniform(-20.0, 20.0, 3)
        b = a + rng.normal(size=3) * rng.choice([1e-6, 0.1, 1.0, 10.0])
        cases.append((a, b, float(rng.uniform(0.1, 5.0))))
    for a, b, _ in cases[:200]:
        d = b - a
        # Exactly at the step: the sample itself comes back.
        cases.append((a, b, math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])))
        cases.append((a, a.copy(), 1.0))  # zero length
    for a, b, step in cases:
        *got, truncated = planner._steer(*a.tolist(), *b.tolist(), step)
        want = reference_steer(a, b, step)
        d = b - a
        assert got == want.tolist(), (a, b, step)
        assert truncated == (math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) > step)


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

    # No solution yet, or a corrupt cost: plan never samples then.
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            informed_sample(start, goal, bad, bounds, rng)

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


def test_pcg64_block_draws_equal_per_call_draws():
    """plan's block draws rest on this: on PCG64 any interleaving of
    random() and random(3) yields the doubles of one random(k) call, and a
    block split anywhere continues the same stream."""
    pattern = np.random.default_rng(5).integers(0, 2, 500)
    per_call = np.random.default_rng(9)
    got = []
    for three in pattern:
        got.extend(per_call.random(3).tolist() if three else [per_call.random()])
    assert got == np.random.default_rng(9).random(len(got)).tolist()
    blocks = np.random.default_rng(9)
    split = blocks.random(7).tolist() + blocks.random(len(got) - 7).tolist()
    assert split == got


def test_tree_rewires_counts_set_parent(monkeypatch):
    calls = []
    set_parent = SearchTree.set_parent

    def counted(self, *args):
        calls.append(self)
        set_parent(self, *args)

    monkeypatch.setattr(SearchTree, "set_parent", counted)
    cfg = PlannerConfig(step=2.0, goal=goal_at((8.5, 8.5, 8.5)), max_iterations=1500,
                        target_cost=0.0, rng_seed=3)
    tree = plan(empty_grid(10), (1.5, 1.5, 1.5), cfg).tree
    assert tree.rewires == len(calls) > 0
    assert SearchTree((0.0, 0.0, 0.0)).rewires == 0


def test_sq_dists_recomputed_after_add():
    tree = SearchTree(np.array([0.0, 0.0, 0.0]))
    p = np.array([1.0, 2.0, 2.0])
    assert np.array_equal(tree.sq_dists(p), [9.0])
    tree.add(np.array([1.0, 2.0, 3.0]), 0, 3.0)
    assert np.array_equal(tree.sq_dists(p), [9.0, 1.0])
    assert tree.nearest(p) == 1


def test_add_rejects_a_parent_outside_the_tree():
    """A parent of -1 used to make the new vertex its own child and a second
    root, and one past the last vertex raised IndexError only after the
    vertex was half written. Both are now ValueErrors that leave the tree as
    it was."""
    tree = SearchTree((0.0, 0.0, 0.0))
    tree.add((1.0, 0.0, 0.0), 0, 1.0)
    before = (tree.n, tree.points.copy(), tree.parent[:], [c[:] for c in tree.children],
              tree._pts[:], tree.cost, tree.rewires)
    for parent in (-1, 2, 5):
        with pytest.raises(ValueError, match="parent"):
            tree.add((2.0, 0.0, 0.0), parent, 2.0)
        n, points, parents, children, pts, cost, rewires = before
        assert tree.n == n and tree.rewires == rewires
        assert np.array_equal(tree.points, points) and np.array_equal(tree.cost, cost)
        assert tree.parent == parents and tree.children == children and tree._pts == pts
    assert tree.path_to(tree.add((2.0, 0.0, 0.0), 1, 2.0)).tolist()[0] == [0.0, 0.0, 0.0]


def test_sq_dists_matches_einsum_reference():
    """The per-axis scan equals einsum on a C-contiguous (n, 3) copy bit for
    bit, on trees grown past both capacity doublings (1024 and 2048) and
    either side of the size where the scan starts reusing the tree's
    difference array, for random and lattice queries given as tuple, list
    or ndarray; points keeps every vertex added, in order."""
    rng = np.random.default_rng(7)
    added = rng.uniform(-20.0, 30.0, (2500, 3))
    # Lattice vertices too: voxel centres at resolution 0.5 and integers.
    added[::7] = np.floor(added[::7]) + 0.5
    added[3::7] = np.round(added[3::7])
    crossover = planner._SCAN_CROSSOVER
    sizes = {2, 100, crossover - 1, crossover, crossover + 1, 1024, 1025, 2048, 2049, 2500}
    tree = SearchTree(added[0])
    checked = set()
    for k, p in enumerate(added[1:], start=1):
        tree.add(p, k - 1, float(k))
        if tree.n not in sizes:
            continue
        checked.add(tree.n)
        assert np.array_equal(tree.points, added[: tree.n])
        pts = np.ascontiguousarray(tree.points)
        queries = list(rng.uniform(-25.0, 35.0, (40, 3)))
        queries += list(rng.integers(-20, 30, (20, 3)).astype(float))
        queries += list(rng.integers(-40, 60, (20, 3)) * 0.5 + 0.25)
        for q in queries:
            diff = pts - q
            want = np.einsum("ij,ij->i", diff, diff)
            for given in (tuple(q.tolist()), q.tolist(), q):
                assert np.array_equal(tree.sq_dists(given), want)
    assert checked == sizes


def test_sq_dists_returns_an_array_the_caller_owns():
    """A scan's result survives the next scan, below and above the size
    from which the scan reuses the tree's difference array."""
    rng = np.random.default_rng(11)
    crossover = planner._SCAN_CROSSOVER
    tree = SearchTree(rng.uniform(0.0, 10.0, 3))
    for n in (crossover - 1, crossover + 1):
        while tree.n < n:
            tree.add(rng.uniform(0.0, 10.0, 3), tree.n - 1, float(tree.n))
        p, q = rng.uniform(0.0, 10.0, (2, 3))
        first = tree.sq_dists(p)
        kept = first.copy()
        second = tree.sq_dists(q)
        assert np.array_equal(first, kept), n
        assert not np.shares_memory(first, second), n
        assert not np.array_equal(first, second), n


def test_tree_cost_is_a_read_only_copy_of_the_live_costs():
    """tree.cost is a read-only array of the n costs as they are when read:
    a rewire that lowers b's cost, and with it its child c's, shows in the
    next read and leaves an earlier read as it was. tree.points is a
    read-only view, since a write through it would reach the scan's array
    but not the coordinate tuples that extend_and_rewire reads."""
    g = empty_grid(20)
    tree = SearchTree((1.0, 1.0, 1.0))
    a = tree.add((1.0, 5.0, 1.0), 0, 4.0)
    b = tree.add((5.0, 5.0, 1.0), a, 8.0)
    c = tree.add((5.0, 6.0, 1.0), b, 9.0)
    before = tree.cost
    assert before.shape == (tree.n,) and not before.flags.writeable
    with pytest.raises(ValueError):
        before[b] = 0.0
    points = tree.points
    assert points.shape == (tree.n, 3) and not points.flags.writeable
    with pytest.raises(ValueError):
        points[a, 0] = 5.0
    assert tree.path_to(a).tolist() == [[1.0, 1.0, 1.0], [1.0, 5.0, 1.0]]
    p = (3.0, 3.0, 1.0)
    # Radius 3 holds the root, a and b (all sqrt(8) away) but not c.
    new = extend_and_rewire(tree, p, g, 3.0, tree.sq_dists(p))
    assert tree.parent[b] == new and tree.parent[c] == b and tree.rewires == 1
    after = tree.cost
    assert before.tolist() == [0.0, 4.0, 8.0, 9.0]
    assert after.shape == (tree.n,) and not after.flags.writeable
    assert after[new] == math.sqrt(8.0)
    assert after[b] == math.sqrt(8.0) + math.sqrt(8.0)
    assert after[c] == 9.0 + (after[b] - 8.0)
    check_tree_invariants(tree)


def test_extend_ties_go_to_the_lower_index():
    """Two vertices at the same distance and cost from x_new: the lower
    index is the nearest vertex and the parent, whether the near set holds
    both or is empty (radius below the distance)."""
    g = empty_grid(20)
    for radius in (2.0, 1e-6):
        tree = SearchTree((1.0, 1.0, 1.0))
        a = tree.add((5.0, 5.0, 5.0), 0, 7.0)
        tree.add((7.0, 5.0, 5.0), 0, 7.0)
        x_new = (6.0, 6.0, 5.0)
        new = extend_and_rewire(tree, x_new, g, radius, tree.sq_dists(x_new))
        assert tree.parent[new] == a, radius
        assert tree.cost[new] == 7.0 + math.sqrt(2.0), radius


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
    """plan hands its nearest scan to extend_and_rewire when steer does not
    truncate; swapping in the reference extension, which ignores the scan
    it is given and makes its own from x_new, must leave every tree, cost
    and statistic unchanged. A truncated steer joins its nearest vertex in
    _extend_truncated without calling extend_and_rewire, so the reference
    sees only non-truncated iterations and that function's near-tie
    fallbacks; test_plan_trees_match_reference_plan, whose reference_plan
    always rescans from x_new and extends, is the identity gate for the
    truncated join."""
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


def _result_state(result):
    return (*_tree_state(result), result.cost,
            None if result.path is None else result.path.tolist())


def test_plan_trees_match_reference_plan():
    """plan's block-drawn samples, scalar steer and best-goal update only
    after a goal vertex is added or a rewire, against the per-call loop in
    reference_plan: every tree, path, cost and statistic is the same, in all
    three modes, with refinement to the end (target 0) and with the default
    target that stops it early."""
    solved = {"uniform": 0, "informed": 0, "heuristic": 0}
    for n, (grid, s_vox, g_vox, step) in enumerate(_identity_cases()):
        start = grid.index_to_world(s_vox)
        goal = goal_at(grid.index_to_world(g_vox), 1.5 * step)
        region = filter_region(oracle_region(grid, s_vox, g_vox), grid, s_vox, g_vox)
        for mode in solved:
            for target in (0.0, None):
                cfg = PlannerConfig(step=step, goal=goal, max_iterations=600,
                                    target_cost=target, rng_seed=n)
                kwargs = {"mode": mode, "region": region if mode == "heuristic" else None}
                want = _result_state(reference_plan(grid, start, cfg, **kwargs))
                got = _result_state(plan(grid, start, cfg, **kwargs))
                assert np.array_equal(got[0], want[0]), (n, mode, target)
                assert got[1] == want[1], (n, mode, target)
                assert np.array_equal(got[2], want[2]), (n, mode, target)
                assert got[3:] == want[3:], (n, mode, target)
                solved[mode] += got[3]["success"]
    assert min(solved.values()) >= 20, solved


def test_informed_matches_uniform_until_first_solution():
    """Informed RRT* is RRT* until it has a solution. With an infinite
    target both modes stop at their first solution, so on the tree-identity
    cases they build the same tree, path, cost and statistics, bit for bit;
    a run with no solution runs its whole budget the same way."""
    solved = 0
    for n, (grid, s_vox, g_vox, step) in enumerate(_identity_cases()):
        start = grid.index_to_world(s_vox)
        goal = goal_at(grid.index_to_world(g_vox), 1.5 * step)
        cfg = PlannerConfig(step=step, goal=goal, max_iterations=600,
                            target_cost=math.inf, rng_seed=n)
        want = _result_state(plan(grid, start, cfg, mode="uniform"))
        got = _result_state(plan(grid, start, cfg, mode="informed"))
        assert np.array_equal(got[0], want[0]), n
        assert got[1] == want[1], n
        assert np.array_equal(got[2], want[2]), n
        assert got[3:] == want[3:], n
        solved += got[3]["success"]
    assert solved >= 15, solved


def test_extend_across_capacity_doubling():
    """x_new joins a full tree, so add doubles the point store's capacity
    between choosing the parent and rewiring. Near x_new sit a and its
    child b on one line with it: rewiring a lowers b's cost to exactly what
    x_new offers b, so the recheck must read the live costs and keep b
    under a. The tree equals the one the reference extension builds."""
    grid = empty_grid(20)
    cap = planner._TREE_CAPACITY
    rng = np.random.default_rng(7)
    tree = SearchTree((10.0, 10.0, 10.0))
    prev = 0
    for _ in range(cap - 4):  # a chain of random hops far from x_new
        p = rng.uniform((13.0, 1.0, 1.0), (19.0, 19.0, 19.0))
        prev = tree.add(p, prev, tree.cost[prev] + np.linalg.norm(p - tree.points[prev]))
    d = tree.add((10.0, 12.0, 10.0), 0, 2.0)
    a = tree.add((11.0, 10.0, 10.0), d, 2.0 + math.sqrt(5.0))
    b = tree.add((11.5, 10.0, 10.0), a, 2.5 + math.sqrt(5.0))
    assert tree.n == cap == tree._xyz.shape[1]
    twin = copy.deepcopy(tree)
    x_new = (10.5, 10.0, 10.0)
    got = extend_and_rewire(tree, x_new, grid, 1.2, tree.sq_dists(x_new))
    want = reference_extend_and_rewire(twin, x_new, grid, 1.2, None)
    assert got == want == cap
    assert tree._xyz.shape[1] == 2 * cap
    assert tree.parent[cap] == 0 and tree.parent[a] == cap and tree.parent[b] == a
    assert tree.rewires == twin.rewires == 1
    assert np.array_equal(tree.points, twin.points)
    assert tree.parent == twin.parent
    assert tree.children == twin.children
    assert np.array_equal(tree.cost[: tree.n], twin.cost[: twin.n])
    check_tree_invariants(tree)


def test_plan_past_capacity_matches_reference_plan():
    """A uniform run that grows its tree past the initial capacity builds
    the tree, path and statistics reference_plan does."""
    spec = ObstacleSpec(count=(6, 10), size_min=(2, 2, 2), size_max=(4, 4, 6), max_retries=200)
    keep = [(1, 1, 1), (20, 20, 20)]
    grid = random_cluttered_map((22, 22, 22), 1.0, spec, seed=130, keep_free=keep)
    goal = goal_at(grid.index_to_world(keep[1]), 3.0)
    cfg = PlannerConfig(step=2.0, goal=goal, max_iterations=1400, target_cost=0.0, rng_seed=3)
    start = grid.index_to_world(keep[0])
    got = _result_state(plan(grid, start, cfg))
    want = _result_state(reference_plan(grid, start, cfg))
    assert len(got[1]) > planner._TREE_CAPACITY
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert np.array_equal(got[2], want[2])
    assert got[3:] == want[3:]


def _tree_of(points, parents):
    """A SearchTree of the points, each joined to its parent at the parent's
    cost plus the edge length."""
    tree = SearchTree(points[0])
    for p, parent in zip(points[1:], parents):
        tree.add(p, parent, tree.cost.item(parent) + math.dist(p, tree.points[parent]))
    return tree


def _unit(draw):
    u = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in u))
    return [c / norm for c in u] if norm > 1e-3 else [1.0, 0.0, 0.0]


@st.composite
def _truncating_extensions(draw):
    """(points, parents, x_rand, step, radius) with every vertex about step
    or farther from x_rand, so steer from the nearest one mostly truncates,
    and radius <= step. x_rand sits at an offset of up to 1e4 per axis, on
    a dyadic lattice of spacing h in (step/2, step] or off it. Vertices are
    lattice points (exact distances when x_rand is on the lattice), sign
    flips and axis swaps of earlier lattice offsets (exact ties), points at
    random distances, points just beyond step (x_new then lies within
    rounding of x_rand), and near copies of the nearest vertex so far or of
    any earlier one: the same distance from x_rand along a direction turned
    by 1e-16 to 0.1 rad, which ties or near-ties in rounding."""
    step = draw(st.floats(1e-3, 10.0))
    radius = step * draw(st.sampled_from((1.0, 0.5)) | st.floats(0.01, 1.0))
    h = 2.0 ** math.floor(math.log2(step))
    lattice = draw(st.booleans())
    x_rand = []
    for _ in range(3):
        o = draw(st.sampled_from((0.0, 1.5, -2048.0, 9999.0)) | st.floats(-1e4, 1e4))
        x_rand.append(round(o / h) * h if lattice else o)
    offsets, points = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.integers(0, 5)) if points else 0
        if kind == 0:
            k = draw(st.tuples(*[st.integers(-6, 6)] * 3))
            if k[0] ** 2 + k[1] ** 2 + k[2] ** 2 < 5:
                k = (3, *k[1:])
            offsets.append(k)
        elif kind == 1:
            k = list(draw(st.sampled_from(offsets)))
            k[draw(st.integers(0, 2))] *= -1
            k = draw(st.permutations(k))
        if kind <= 1:
            # |k| h >= sqrt(5) h > step.
            points.append([c + ki * h for c, ki in zip(x_rand, k)])
        elif kind <= 3:
            if kind == 2:
                dist = step * draw(st.floats(1.001, 6.0))
            else:
                dist = step * (1.0 + 10.0 ** draw(st.floats(-16.0, -3.0)))
            points.append([c + dist * u for c, u in zip(x_rand, _unit(draw))])
        else:
            if kind == 4:
                base = min(points, key=lambda p: math.dist(p, x_rand))
            else:
                base = draw(st.sampled_from(points))
            turn = 10.0 ** draw(st.floats(-16.0, -1.0))
            diff = [b - c for b, c in zip(base, x_rand)]
            dist = math.sqrt(sum(c * c for c in diff))
            w = [c / dist + turn * u for c, u in zip(diff, _unit(draw))]
            norm = math.sqrt(sum(c * c for c in w))
            points.append([c + dist * wi / norm for c, wi in zip(x_rand, w)])
    parents = [draw(st.integers(0, i)) for i in range(len(points) - 1)]
    return points, parents, tuple(x_rand), step, radius


def _truncated_extension(points, parents, x_rand, step, radius):
    """One RRT* iteration both ways, if steer from the nearest vertex
    truncates (else None): plan's _extend_truncated on the tree, and a full
    scan from x_new plus extend_and_rewire on a deep-copied twin. Returns
    the trees, both results and whether _extend_truncated fell back to a
    scan from x_new."""
    tree = _tree_of(np.array(points), parents)
    twin = copy.deepcopy(tree)
    lo = np.minimum(tree.points.min(axis=0), x_rand) - 1.0
    span = float((np.maximum(tree.points.max(axis=0), x_rand) + 1.0 - lo).max())
    grid = OccupancyGrid(np.zeros((2, 2, 2), dtype=bool), span / 2 + 1.0, lo)
    d2 = tree.sq_dists(x_rand)
    nearest = int(d2.argmin())
    nx, ny, nz = tree._xyz[:, nearest].tolist()
    *x_new, truncated = planner._steer(nx, ny, nz, *x_rand, step)
    if not truncated:
        return None
    x_new = tuple(x_new)
    scans = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tree, "sq_dists", lambda p: scans.append(p) or SearchTree.sq_dists(tree, p))
        got = planner._extend_truncated(tree, x_new, grid, radius, d2, nearest, x_rand)
    want = extend_and_rewire(twin, x_new, grid, radius, twin.sq_dists(x_new))
    return tree, twin, got, want, bool(scans)


def _assert_same_tree(tree, twin):
    assert np.array_equal(tree.points, twin.points)
    assert tree.parent == twin.parent
    assert tree.children == twin.children
    assert np.array_equal(tree.cost[: tree.n], twin.cost[: twin.n])
    assert tree.rewires == twin.rewires


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_truncating_extensions())
# Near-ties that only the fallback gets right: the first fails with no
# margin (m = 0), the second without the sole-nearest test.
@example(([[2051.0, 0.0, 0.0]] * 5
           + [[2049.0, 2.0, 0.0], [2048.999999910557, 2.0000000447213537, 0.0]],
           [0] * 6, (2048.0, 0.0, 0.0), 1.2600388362580262, 1.2600388362580262))
@example(([[3.0, 0.0, 0.0], [1.414213562373095, 0.0, 1.414213562373095]]
           + [[3.0, 0.0, 0.0]] * 4 + [[1.4142135723730949, 0.0, 1.4142135523730948]],
           [0] * 6, (0.0, 0.0, 0.0), 1.0, 1.0))
def test_truncated_steer_joins_nearest_as_a_rescan_would(case):
    """Whether _extend_truncated joins x_new to the nearest vertex from the
    scan from x_rand or falls back to a scan from x_new, it builds the tree
    a scan from x_new plus extend_and_rewire builds: points, parents,
    children, costs and rewires, bit for bit."""
    result = _truncated_extension(*case)
    assume(result is not None)
    tree, twin, got, want, fell_back = result
    event("fallback" if fell_back else "joined the nearest vertex")
    assert got == want
    _assert_same_tree(tree, twin)


def test_truncated_steer_falls_back_on_a_tie():
    """Two vertices mirror-symmetric about an axis through x_rand tie in
    distance from it, so the scan from x_rand cannot rule the second out
    and _extend_truncated scans from x_new, still building the twin's
    tree."""
    points = [[4.0, 1.0, 0.0], [4.0, -1.0, 0.0], [0.0, 6.0, 2.0]]
    tree, twin, got, want, fell_back = _truncated_extension(
        points, [0, 1], (0.0, 0.0, 0.0), 1.0, 1.0)
    assert fell_back
    assert got == want == 3 and tree.parent[3] == 0
    _assert_same_tree(tree, twin)


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
    # A small positive gamma and infinite targets are valid.
    PlannerConfig(step=1.0, goal=goal, max_iterations=10, gamma_rrt=1e-3, target_cost=-math.inf)
    PlannerConfig(step=1.0, goal=goal, max_iterations=10, target_cost=math.inf)


def test_planner_config_accepts_numpy_integer_max_iterations():
    runs = [
        plan(empty_grid(10), (1.5, 1.5, 1.5), PlannerConfig(
            step=2.0, goal=goal_at((8.5, 8.5, 8.5)), max_iterations=n, target_cost=0.0))
        for n in (np.int64(50), 50)
    ]
    assert np.array_equal(runs[0].tree.points, runs[1].tree.points)


@pytest.mark.parametrize("field, value", [
    ("gamma_rrt", -50.0),  # negative radius, then |r| uncapped by step
    ("gamma_rrt", 0.0),  # radius 0: RRT* silently becomes RRT
    ("gamma_rrt", math.nan),  # min(step, nan) reads as step
    ("gamma_rrt", math.inf),
    ("step", math.inf),
    ("step", math.nan),
    ("target_cost", math.nan),  # never compares <=, so refinement never stops
    ("max_iterations", 10.5),  # range() in plan raised TypeError
    ("max_iterations", 10.0),
])
def test_planner_config_rejects_values_that_break_rrt_star(field, value):
    kwargs = {"step": 1.0, "goal": goal_at((1, 1, 1)), "max_iterations": 10, field: value}
    with pytest.raises(ValueError, match=field):
        PlannerConfig(**kwargs)


def test_plan_rejects_region_outside_heuristic_mode():
    grid = empty_grid(10)
    region = oracle_region(grid, (1, 1, 1), (8, 8, 8))
    cfg = PlannerConfig(step=2.0, goal=goal_at((8.5, 8.5, 8.5)), max_iterations=10)
    for mode in ("uniform", "informed"):
        with pytest.raises(ValueError, match="only used in heuristic mode"):
            plan(grid, (1.5, 1.5, 1.5), cfg, mode=mode, region=region)


def test_heuristic_plan_rejects_a_region_of_other_dims():
    """A region is aligned to the grid it was built for: a (20, 20, 20) one
    on a (10, 10, 10) grid used to draw 90 % of the first samples off the
    map, and now fails before the first iteration."""
    region = HeuristicRegion(np.ones((20, 20, 20), dtype=np.float32))
    cfg = PlannerConfig(step=2.0, goal=goal_at((8.5, 8.5, 8.5)), max_iterations=10)
    with pytest.raises(ValueError, match="dims"):
        plan(empty_grid(10), (1.5, 1.5, 1.5), cfg, mode="heuristic", region=region)


def test_save_path(tmp_path):
    fname = tmp_path / "path.txt"
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    save_path(pts, cost=3.7416573867739413, iterations=42, fname=fname)
    lines = fname.read_text().splitlines()
    assert lines[0].startswith("# cost=3.74165739 iterations=42")
    assert len(lines) == 3
    assert [float(v) for v in lines[2].split()] == [1.0, 2.0, 3.0]
