"""End-to-end pipeline: pruning, planning-to-trajectory composition, flat
flags and yaw profiling."""

import math

import numpy as np
import pytest
import workloads as W

from quadplan.bench import run_trial
from quadplan.grid import (
    GoalRegion,
    ObstacleSpec,
    OccupancyGrid,
    random_cluttered_map,
    segment_collision_free,
)
from quadplan.pipeline import (
    PipelineConfig,
    PlanningFailure,
    flat_flag_at,
    plan_front_end,
    plan_trajectory,
    prune_collinear,
    yaw_profile,
    yaw_samples,
)
from quadplan.planner import PlannerConfig, plan
from quadplan.regions import HeuristicRegion, NoPathError, filter_region, oracle_region
from quadplan.trajectory import (
    BivpSpec,
    DomainError,
    collision_repair,
    control_effort,
    solve_bivp,
    trapezoidal_time_allocation,
)

from oracles import reference_eval


def empty_grid(side=10):
    return OccupancyGrid(np.zeros((side,) * 3, dtype=bool), 1.0)


def make_config(goal_center, radius=1.5, seed=0, **kw):
    planner = PlannerConfig(
        step=2.0,
        goal=GoalRegion(np.asarray(goal_center, dtype=float), radius),
        max_iterations=30_000,
        rng_seed=seed,
    )
    return PipelineConfig(planner=planner, **kw)


# --------------------------------------------------------------------- pruning


def test_prune_collinear():
    pts = np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [2.0, 1, 0], [2.0, 2, 0]]
    )
    out = prune_collinear(pts)
    assert np.array_equal(out, [[0.0, 0, 0], [2.0, 0, 0], [2.0, 2, 0]])
    # Two points and genuinely bent paths are untouched.
    assert np.array_equal(prune_collinear(pts[:2]), pts[:2])
    bent = np.array([[0.0, 0, 0], [1.0, 1, 0], [2.0, 0, 0]])
    assert np.array_equal(prune_collinear(bent), bent)


def test_prune_collinear_drops_zero_segments():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    out = prune_collinear(pts)
    assert len(out) == 2


# -------------------------------------------------------------------- pipeline


def test_pipeline_empty_map_near_straight():
    """On an empty map the planner converges to the straight segment (large
    rewire radius keeps the direct root edge reachable), the collinear
    waypoints prune away, and the effort matches the single-segment analytic
    solve over the same endpoints and total time."""
    grid = empty_grid(10)
    start = np.array([1.5, 1.5, 1.5])
    goal = GoalRegion(np.array([8.5, 8.5, 8.5]), 1.5)
    straight = float(np.linalg.norm(goal.center - start))
    cfg = PipelineConfig(
        planner=PlannerConfig(
            step=20.0,
            goal=goal,
            max_iterations=30_000,
            target_cost=straight - 0.5,
            gamma_rrt=1000.0,
            rng_seed=3,
        )
    )
    result = plan_trajectory(grid, start, cfg.planner.goal, cfg)
    traj = result.trajectory
    assert result.stats.success
    # Reference: single-segment analytic solve between the same endpoints
    # over the same total time.
    ref_spec = BivpSpec.rest_to_rest(
        np.array([traj.eval(0.0), traj.eval(traj.total_duration)]),
        [traj.total_duration],
        cfg.s,
    )
    ref = control_effort(solve_bivp(ref_spec))
    assert control_effort(traj) <= 1.10 * ref
    # Boundary flags: rest-to-rest.
    flag0 = flat_flag_at(traj, 0.0)
    assert np.allclose(flag0[:, 0], start, atol=1e-7)
    assert np.allclose(flag0[:, 1:], 0.0, atol=1e-7)


def test_pipeline_cluttered_maps_collision_free():
    spec = ObstacleSpec(count=(10, 14), size_min=(2, 2, 2), size_max=(3, 3, 4))
    for seed in range(8):
        grid = random_cluttered_map(
            (16, 16, 16), 1.0, spec, seed=seed, keep_free=[(1, 1, 1), (14, 14, 14)]
        )
        start = grid.index_to_world((1, 1, 1))
        cfg = make_config(grid.index_to_world((14, 14, 14)), radius=1.5, seed=seed)
        result = plan_trajectory(grid, start, cfg.planner.goal, cfg)
        traj = result.trajectory
        ts = np.linspace(0.0, traj.total_duration, 1500)
        pts = np.array([traj.eval(t) for t in ts])
        assert all(
            segment_collision_free(grid, a, b) for a, b in zip(pts[:-1], pts[1:])
        ), f"seed {seed} trajectory collides"
        # The front-end waypoints survive as a subsequence of the final knots.
        knots = np.array([traj.eval(t) for t in traj.knots])
        j = 0
        for w in result.path:
            while j < len(knots) and not np.allclose(knots[j], w, atol=1e-6):
                j += 1
            assert j < len(knots)
            j += 1


def test_pipeline_deterministic():
    grid = empty_grid(10)
    start = np.array([1.5, 1.5, 1.5])
    cfg = make_config((8.5, 8.5, 8.5), seed=9)
    r1 = plan_trajectory(grid, start, cfg.planner.goal, cfg)
    r2 = plan_trajectory(grid, start, cfg.planner.goal, cfg)
    assert np.array_equal(r1.trajectory.coeffs, r2.trajectory.coeffs)
    assert np.array_equal(r1.trajectory.durations, r2.trajectory.durations)
    assert r1.cost == r2.cost


def test_pipeline_failures():
    grid = empty_grid(10)
    cfg = make_config((8.5, 8.5, 8.5))
    with pytest.raises(ValueError):
        plan_trajectory(grid, (-1.0, 0.0, 0.0), cfg.planner.goal, cfg)

    occ = np.zeros((10, 10, 10), dtype=bool)
    occ[8, 8, 8] = True
    blocked = OccupancyGrid(occ, 1.0)
    with pytest.raises(ValueError):
        plan_trajectory(blocked, (1.5, 1.5, 1.5), cfg.planner.goal, cfg)

    starved = make_config((8.5, 8.5, 8.5))
    starved.planner = PlannerConfig(
        step=1.0, goal=starved.planner.goal, max_iterations=1
    )
    with pytest.raises(PlanningFailure):
        plan_trajectory(grid, (0.5, 0.5, 0.5), starved.planner.goal, starved)


def test_start_in_the_walks_occupied_voxel_is_rejected_up_front():
    """At resolution 0.1, x = 0.3 lies in voxel 3 by the walk's map (0.3 *
    10.0 rounds to 3.0), though 0.3 / 0.1 rounds to 2.9999999999999996. With voxel (3, 5, 5) occupied, the start is not free:
    the point query must say so before any planning, not leave every edge
    from the start to fail until the budget runs out."""
    occ = np.zeros((20, 20, 20), dtype=bool)
    occ[3, 5, 5] = True
    grid = OccupancyGrid(occ, 0.1)
    start = (0.3, 0.55, 0.55)
    planner = PlannerConfig(step=0.2, goal=GoalRegion(np.array([1.55, 1.55, 1.55]), 0.2),
                            max_iterations=200)
    with pytest.raises(ValueError, match="start does not lie in free space"):
        plan_trajectory(grid, start, planner.goal, PipelineConfig(planner=planner))
    assert grid.world_to_index(start) == (3, 5, 5)
    assert not grid.is_free_world(start)
    assert not segment_collision_free(grid, start, start)


@pytest.mark.parametrize("field, value", [
    ("s", 0), ("s", 2.5), ("s", 3.0), ("s", "3"),
    ("v_max", 0.0), ("v_max", -2.0), ("v_max", math.inf), ("v_max", math.nan),
    ("a_max", 0.0), ("a_max", -1.0), ("a_max", math.nan),
    ("inflate_radius", -1), ("inflate_radius", 1.5), ("inflate_radius", 1.0),
])
def test_pipeline_config_rejects_bad_limits(field, value):
    """Each of these once ran the whole front end before failing: v_max=inf
    with an OverflowError from repair's zero sample step, a float s or
    inflate_radius with a TypeError."""
    with pytest.raises(ValueError, match=field):
        make_config((8.5, 8.5, 8.5), **{field: value})


def test_pipeline_config_accepts_integral_and_unbounded_limits():
    cfg = make_config((8.5, 8.5, 8.5), s=np.int64(4), v_max=3, a_max=math.inf,
                      inflate_radius=np.int64(1))
    assert cfg.s == 4 and cfg.inflate_radius == 1


@pytest.mark.parametrize("v_max", [0.0, -1.0, math.inf, math.nan])
def test_collision_repair_rejects_bad_v_max(v_max):
    spec = BivpSpec.rest_to_rest(np.array([[1.5, 1.5, 1.5], [8.5, 8.5, 8.5]]), [8.0], 3)
    with pytest.raises(ValueError, match="v_max"):
        collision_repair(solve_bivp(spec), spec, empty_grid(10), v_max, 1.0)


def test_front_end_filters_only_external_regions():
    """plan_front_end runs on the oracle's region as built and on a filtered
    copy of a region passed in."""
    spec = ObstacleSpec(count=(10, 14), size_min=(2, 2, 2), size_max=(3, 3, 4))
    s_vox, g_vox = (1, 1, 1), (12, 12, 12)
    grid = random_cluttered_map((14, 14, 14), 1.0, spec, seed=4, keep_free=[s_vox, g_vox])
    start = grid.index_to_world(s_vox)
    goal = GoalRegion(grid.index_to_world(g_vox), 1.5)
    cfg = make_config(goal.center, seed=2).planner
    cfg.max_iterations = 400

    def tree(result):
        return result.tree.points.copy(), list(result.tree.parent)

    def same(a, b):
        return np.array_equal(a[0], b[0]) and a[1] == b[1]

    oracle = oracle_region(grid, s_vox, g_vox)
    want = tree(plan(grid, start, cfg, "heuristic", oracle))
    assert same(tree(plan_front_end(grid, start, goal, cfg)), want)

    # A raw prediction: below-threshold haze everywhere, obstacles marked.
    raw = np.where(grid.occupancy, np.float32(0.9), np.float32(0.3))
    raw = HeuristicRegion(np.maximum(raw, 0.8 * oracle.values))
    want = tree(plan(grid, start, cfg, "heuristic", filter_region(raw, grid, s_vox, g_vox)))
    got = tree(plan_front_end(grid, start, goal, cfg, region=raw))
    assert same(got, want)
    assert not same(got, tree(plan(grid, start, cfg, "heuristic", raw)))


def test_pipeline_inflation():
    # A 1-voxel gap is passable on the raw grid but closed after inflation.
    occ = np.zeros((12, 12, 12), dtype=bool)
    occ[5, :, :] = True
    occ[5, 5, 5] = False
    grid = OccupancyGrid(occ, 1.0)
    cfg = make_config((10.5, 5.5, 5.5), radius=1.0, seed=1, inflate_radius=1)
    with pytest.raises(NoPathError):
        plan_trajectory(grid, np.array([1.5, 5.5, 5.5]), cfg.planner.goal, cfg)
    # Without inflation the pinhole is usable.
    cfg2 = make_config((10.5, 5.5, 5.5), radius=1.0, seed=1)
    result = plan_trajectory(grid, np.array([1.5, 5.5, 5.5]), cfg2.planner.goal, cfg2)
    assert result.stats.success


# ------------------------------------------------------------ flat flags / yaw


def test_flat_flag_matches_eval():
    """Column k of the flag is eval(t, k) bit for bit: at 0, at every knot
    (where the next segment is read), at the total duration and in between,
    for the trajectory's order; the transposed derivatives rows give the
    flag of every order below it."""
    rng = np.random.default_rng(3)
    wp = np.cumsum(rng.normal(size=(7, 3)), axis=0)
    traj = solve_bivp(BivpSpec.rest_to_rest(wp, rng.uniform(0.5, 2.0, 6), 3))
    T = traj.total_duration
    for t in (0.0, *traj.knots[1:-1], T, *rng.uniform(0.0, T, 20)):
        flag = flat_flag_at(traj, t)
        assert flag.shape == (3, 3) and flag.flags.c_contiguous
        assert np.array_equal(flag, traj.derivatives(t, 3).T)
        for s in (1, 2, 3, 6):
            flag = traj.derivatives(t, s).T
            for k in range(s):
                assert np.array_equal(flag[:, k], traj.eval(t, k)), (t, s, k)
                assert np.array_equal(flag[:, k], reference_eval(traj, t, k)), (t, s, k)
    for t in (-1e-9, T * (1 + 1e-9)):
        with pytest.raises(DomainError):
            flat_flag_at(traj, t)
    with pytest.raises(ValueError):
        traj.derivatives(1.0, 7)  # beyond order 2s - 1


def test_yaw_profile():
    # Straight-line motion along +x, then a trajectory along +y.
    spec_x = BivpSpec.rest_to_rest(np.array([[0.0, 0, 0], [4.0, 0, 0]]), [2.0], 3)
    traj_x = solve_bivp(spec_x)
    assert yaw_profile(traj_x, 1.0) == pytest.approx(0.0, abs=1e-9)
    spec_y = BivpSpec.rest_to_rest(np.array([[0.0, 0, 0], [0.0, 4, 0]]), [2.0], 3)
    traj_y = solve_bivp(spec_y)
    assert yaw_profile(traj_y, 1.0) == pytest.approx(math.pi / 2)
    # Hover: velocity is zero at t=0; previous yaw held.
    assert yaw_profile(traj_y, 0.0, last_yaw=0.33) == 0.33


def test_yaw_samples_hold_last():
    spec = BivpSpec.rest_to_rest(np.array([[0.0, 0, 0], [4.0, 0, 0]]), [2.0], 3)
    traj = solve_bivp(spec)
    ts = np.linspace(0.0, 2.0, 21)
    ys = yaw_samples(traj, ts)
    # Endpoints have zero speed: the first sample falls back to 0, the last
    # holds the mid-flight heading.
    assert ys[0] == 0.0
    assert ys[-1] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(ys, 0.0, atol=1e-9)


def test_goal_other_than_the_config_goal_is_rejected():
    """The goal argument and planner_cfg.goal name one goal. One that
    differs used to replace the config's silently, and the run planned to
    it; an equal goal built anew is accepted."""
    cfg = make_config((8.5, 8.5, 8.5))
    start = np.array([1.5, 1.5, 1.5])
    other = GoalRegion(np.array([1.5, 8.5, 1.5]), 1.5)
    with pytest.raises(ValueError, match="goal"):
        plan_front_end(empty_grid(), start, other, cfg.planner)
    with pytest.raises(ValueError, match="goal"):
        plan_trajectory(empty_grid(), start, other, cfg)
    same = GoalRegion(np.array([8.5, 8.5, 8.5]), 1.5)
    assert plan_front_end(empty_grid(), start, same, cfg.planner).stats.success


@pytest.fixture(scope="module")
def cube38_375():
    """pipeline seed 24, input 375 (cube38-375), and plan_trajectory's output
    on it."""
    wl = W.Pipeline()
    inp = wl.inputs(24)[375]
    return wl, inp, wl.op(inp)


def test_colliding_pruned_polyline_falls_back_to_the_front_end_path(cube38_375):
    """Pruning replaces front-end vertices by a chord that cuts an obstacle,
    and repair, which converges only from a collision-free polyline, split
    segments until the banded solve went singular. The unpruned path
    repairs and passes the benchmark's dense check."""
    wl, inp, out = cube38_375
    c = inp.case
    front = plan_front_end(c.grid, c.start, c.goal, wl.config(inp).planner)
    pruned = prune_collinear(front.path)
    assert not all(segment_collision_free(c.grid, a, b) for a, b in zip(pruned[:-1], pruned[1:]))
    assert np.array_equal(out.path, front.path)
    wl.check(inp, out)


def test_run_trial_solves_the_waypoints_plan_trajectory_solves(cube38_375):
    """run_trial's effort is that of the s=3 solve of plan_trajectory's
    waypoints; it used to solve the colliding pruned polyline instead."""
    wl, inp, out = cube38_375
    rec = run_trial(inp.case, "heuristic", inp.planner_seed, step=W.STEP,
                    max_iterations=W.MAX_ITERATIONS)
    cfg = wl.config(inp)
    durations = trapezoidal_time_allocation(out.path, cfg.v_max, cfg.a_max)
    assert rec.effort == control_effort(solve_bivp(BivpSpec.rest_to_rest(out.path, durations, 3)))
