"""Occupancy grid: transforms, collision queries, inflation, generation, I/O."""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadplan.grid import (
    GoalRegion,
    MapFileError,
    ObstacleSpec,
    OccupancyGrid,
    PlacementError,
    inflate,
    load_grid,
    random_cluttered_map,
    save_grid,
    segment_collision_free,
)
from quadplan.planner import PlannerConfig

from oracles import reference_segment_voxels


def empty_grid(side=10, resolution=1.0, origin=(0.0, 0.0, 0.0)):
    return OccupancyGrid(np.zeros((side,) * 3, dtype=bool), resolution, origin)


def grid_with(voxels, side=10, resolution=1.0):
    occ = np.zeros((side,) * 3, dtype=bool)
    for v in voxels:
        occ[v] = True
    return OccupancyGrid(occ, resolution)


# ---------------------------------------------------------------- construction


def test_grid_validation():
    with pytest.raises(ValueError):
        OccupancyGrid(np.zeros((4, 4), dtype=bool), 1.0)
    with pytest.raises(ValueError):
        OccupancyGrid(np.zeros((4, 4, 4), dtype=bool), 0.0)
    with pytest.raises(ValueError):
        OccupancyGrid(np.zeros((4, 4, 4), dtype=bool), 1.0, origin=(0.0, np.nan, 0.0))
    # An infinite resolution maps every point to voxel (0, 0, 0).
    for bad in (np.inf, np.nan, -np.inf):
        with pytest.raises(ValueError, match="resolution"):
            OccupancyGrid(np.zeros((4, 4, 4), dtype=bool), bad)


def test_grid_immutable():
    """occupancy and origin are read-only copies: the caller's arrays stay
    writable, and a later write to them, or to a base the occupancy was
    sliced from, moves nothing in the grid or its voxel map."""
    g = empty_grid(4)
    with pytest.raises(ValueError):
        g.occupancy[0, 0, 0] = True
    with pytest.raises(ValueError):
        g.origin[0] = 1.0
    base = np.zeros((8, 4, 4), dtype=bool)
    origin = np.zeros(3)
    g = OccupancyGrid(base[:4], 1.0, origin)
    assert base.flags.writeable and origin.flags.writeable
    assert not np.shares_memory(g.occupancy, base)
    base[0, 0, 0] = True
    origin[0] = 10.0
    assert not g.occupancy.any()
    assert g.origin.tolist() == [0.0, 0.0, 0.0]
    assert g.upper.tolist() == [4.0, 4.0, 4.0]
    assert g.world_to_index(g.index_to_world((0, 0, 0))) == (0, 0, 0)
    assert g.is_free_world((0.5, 0.5, 0.5))


def test_goal_region():
    goal = GoalRegion(np.array([5.0, 5.0, 5.0]), 2.0)
    assert goal.contains((5.0, 5.0, 6.9))
    assert not goal.contains((5.0, 5.0, 7.0))  # strict inequality at the radius
    with pytest.raises(ValueError):
        GoalRegion(np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        GoalRegion(np.zeros(2), 1.0)
    # An infinite radius would put every point in the goal.
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="radius"):
            GoalRegion(np.zeros(3), bad)


def test_goal_region_copies_center():
    """A later write to the array passed in moves neither center nor the
    test contains makes, and center itself is read-only."""
    given = np.array([5.0, 5.0, 5.0])
    goal = GoalRegion(given, 1.0)
    given[:] = (0.0, 0.0, 0.0)
    assert goal.center.tolist() == [5.0, 5.0, 5.0]
    assert goal.contains((5.0, 5.0, 5.5))
    assert not goal.contains((0.0, 0.0, 0.0))
    assert not goal.center.flags.writeable
    with pytest.raises(ValueError):
        goal.center[0] = 0.0


def test_goal_region_equality_and_hash():
    """Goals compare and hash by centre and radius, so configs holding them
    compare too (an ndarray field made both raise)."""
    goal = GoalRegion(np.array([1.0, 2.0, 3.0]), 1.5)
    same = GoalRegion([1.0, 2.0, 3.0], 1.5)
    assert goal == same and hash(goal) == hash(same) and len({goal, same}) == 1
    assert goal != GoalRegion([1.0, 2.0, 3.5], 1.5)
    assert goal != GoalRegion([1.0, 2.0, 3.0], 2.0)
    assert goal != (1.0, 2.0, 3.0)
    cfg = PlannerConfig(step=1.0, goal=goal, max_iterations=10)
    assert cfg == dataclasses.replace(cfg, goal=same)
    assert cfg != dataclasses.replace(cfg, goal=GoalRegion([0.0, 2.0, 3.0], 1.5))


# ------------------------------------------------------------------ transforms


_OFF_FACE = (-1, 0, 1)  # ulps moved off a face point, toward -inf or +inf


@settings(max_examples=200, deadline=None)
@given(
    res=st.floats(0.01, 10.0),
    origin=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
    faces=st.lists(st.tuples(*[st.tuples(st.integers(-1, 5), st.sampled_from(_OFF_FACE))] * 3),
                   min_size=1, max_size=30),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    axis=st.integers(0, 2),
)
def test_point_query_agrees_with_zero_length_walk(res, origin, seed, faces, bad, axis):
    """is_free_world and the voxel walk read one voxel map: at points on
    voxel faces (origin + k * resolution, or an ulp off), where a different
    rounding of the map moves a point to the neighbouring voxel, a point's
    verdict is the zero-length segment's. A non-finite point maps to no
    voxel."""
    occ = np.random.default_rng(seed).random((4, 5, 3)) < 0.5
    grid = OccupancyGrid(occ, res, origin)
    for face in faces:
        p = [math.nextafter(o + k * res, ulps * math.inf) if ulps else o + k * res
             for o, (k, ulps) in zip(origin, face)]
        assert grid.is_free_world(p) == segment_collision_free(grid, p, p), p
        q = list(p)
        q[axis] = bad
        assert grid.world_to_index(q) is None and not grid.is_free_world(q)


def test_world_to_index_examples():
    g = empty_grid(10)
    assert g.world_to_index((0.5, 0.5, 0.5)) == (0, 0, 0)
    g2 = empty_grid(10, resolution=0.5)
    # Exact boundary maps to the next cell under the floor convention.
    assert g2.world_to_index((1.0, 1.0, 1.0)) == (2, 2, 2)
    assert g.world_to_index((-0.1, 5.0, 5.0)) is None
    assert g.world_to_index((10.0, 5.0, 5.0)) is None


def test_round_trip_voxel_center():
    rng = np.random.default_rng(0)
    g = empty_grid(12, resolution=0.37, origin=(-1.5, 2.0, 0.25))
    lo, hi = g.lower, g.upper
    for _ in range(500):
        p = lo + rng.random(3) * (hi - lo)
        idx = g.world_to_index(p)
        assert idx is not None
        center = g.index_to_world(idx)
        assert np.all(np.abs(center - p) < g.resolution / 2 + 1e-12)
        assert g.world_to_index(center) == idx


def test_is_free_world_out_of_bounds_is_occupied():
    g = grid_with([(1, 1, 1)], side=4)
    assert not g.is_free_world((-1.0, 0.0, 0.0))
    assert not g.is_free_world((1.5, 1.5, 1.5))
    assert g.is_free_world((0.5, 0.5, 0.5))


def test_free_measure():
    g = grid_with([(0, 0, 0), (1, 1, 1)], side=4, resolution=0.5)
    assert g.free_voxel_count() == 64 - 2
    assert g.free_measure() == pytest.approx(62 * 0.125)


# ------------------------------------------------------------------- collision


def test_segment_collision_free_examples():
    g = empty_grid(10)
    assert segment_collision_free(g, (1, 1, 1), (8, 8, 8))
    blocked = grid_with([(5, 5, 5)])
    assert not segment_collision_free(blocked, (5.5, 5.5, 0.5), (5.5, 5.5, 9.5))
    assert segment_collision_free(g, (2.5, 2.5, 2.5), (2.5, 2.5, 2.5))
    # Out-of-bounds endpoints count as collision.
    assert not segment_collision_free(g, (-1.0, 5.0, 5.0), (5.0, 5.0, 5.0))
    assert not segment_collision_free(blocked, (-1.0, 5.0, 5.0), (4.0, 5.0, 5.0))


@pytest.mark.parametrize("res,origin", [
    (1.0, (0.0, 0.0, 0.0)), (0.5, (-1.5, 0.25, 2.0)), (0.3, (-1.2, 0.7, 2.1)),
])
def test_segment_on_empty_grid_is_free_iff_both_endpoints_inside(res, origin):
    """The box of an empty grid is convex, so the walk's verdict is whether
    both endpoints map to a voxel, with world_to_index's floor convention."""
    g = OccupancyGrid(np.zeros((7, 5, 6), dtype=bool), res, origin)
    lo, hi = g.lower, g.upper
    rng = np.random.default_rng(11)
    span = hi - lo
    points = [lo + rng.uniform(-0.2, 1.2, 3) * span for _ in range(400)]
    # Endpoints exactly on the lower faces (inside) and upper faces (outside).
    for _ in range(100):
        p = lo + rng.random(3) * span
        ax = rng.integers(3)
        p[ax] = lo[ax] if rng.random() < 0.5 else hi[ax]
        points.append(p)
    points += [lo.copy(), hi.copy()]
    for _ in range(1500):
        a, b = (points[i] for i in rng.integers(len(points), size=2))
        want = g.world_to_index(a) is not None and g.world_to_index(b) is not None
        assert segment_collision_free(g, a, b) == want


def test_segment_collision_symmetry():
    rng = np.random.default_rng(1)
    g = grid_with([(3, 3, 3), (6, 2, 7), (1, 8, 4)], side=10)
    for _ in range(300):
        a = rng.uniform(-1, 11, 3)
        b = rng.uniform(-1, 11, 3)
        assert segment_collision_free(g, a, b) == segment_collision_free(g, b, a)


def test_segment_voxels_degenerate():
    g = empty_grid(10)
    idx = reference_segment_voxels(g, (2.5, 2.5, 2.5), (2.5, 2.5, 2.5))
    assert idx.shape == (1, 3)
    assert tuple(idx[0]) == (2, 2, 2)


def test_traversal_agrees_with_supersampling():
    """Dual route: exact traversal verdict vs 1e4-point dense sampling on
    1000 random segments. Sampling can only miss voxels, never add them, so
    the traversal verdict must match whenever sampling finds a collision and
    must be at least as conservative otherwise."""
    rng = np.random.default_rng(2)
    spec = ObstacleSpec(count=(10, 15), size_min=(1, 1, 1), size_max=(3, 3, 3))
    g = random_cluttered_map((15, 15, 15), 1.0, spec, seed=5)
    ts = np.linspace(0.0, 1.0, 10_000)[:, None]
    dims = np.asarray(g.dims)
    for _ in range(1000):
        a = rng.uniform(-1, 16, 3)
        b = a + rng.uniform(-5, 5, 3)
        pts = a + ts * (b - a)
        idx = np.floor((pts - g.origin) / g.resolution).astype(int)
        inb = np.all(idx >= 0, axis=1) & np.all(idx < dims, axis=1)
        sampled_free = bool(np.all(inb)) and not g.occupancy[
            idx[:, 0], idx[:, 1], idx[:, 2]
        ].any()
        assert segment_collision_free(g, a, b) == sampled_free


def test_walker_agrees_with_traversal_set():
    """The scalar walk used on the hot path must reach the same verdict as
    the face-crossing voxel enumeration."""
    rng = np.random.default_rng(3)
    spec = ObstacleSpec(count=(15, 20), size_min=(2, 2, 2), size_max=(4, 4, 6))
    g = random_cluttered_map((30, 30, 30), 1.0, spec, seed=3)
    dims = np.asarray(g.dims)
    for _ in range(2000):
        a = rng.uniform(-2, 32, 3)
        b = a + rng.uniform(-6, 6, 3)
        idx = reference_segment_voxels(g, a, b)
        ref = bool(
            np.all(idx >= 0)
            and np.all(idx < dims)
            and not g.occupancy[idx[:, 0], idx[:, 1], idx[:, 2]].any()
        )
        assert segment_collision_free(g, a, b) == ref


# -------------------------------------------------------- walker edge cases
#
# Endpoints on a half-voxel lattice strictly inside a 6^3 grid: an even
# lattice coordinate lies on a voxel face, an odd one at a voxel centre, so
# a point with one, two or three even coordinates sits on a face, an edge or
# a corner. The walk's checked voxels are found by probing (an obstacle at v
# alone blocks the segment iff the walk checks v) and compared with
# reference_segment_voxels and with the voxels the closed segment touches.

_EDGE_DIMS = (6, 6, 6)
_EDGE_GRIDS = [(0.5, (-1.5, 0.25, 2.0)), (0.3, (-1.2, 0.7, 2.1))]


def _walked(res, origin, a, b):
    out = set()
    for v in itertools.product(*(range(n) for n in _EDGE_DIMS)):
        occ = np.zeros(_EDGE_DIMS, dtype=bool)
        occ[v] = True
        if not segment_collision_free(OccupancyGrid(occ, res, origin), a, b):
            out.add(v)
    return out


def _touched(res, origin, a, b, margin):
    """Voxels whose box, grown by margin (shrunk if negative), meets the
    closed segment a->b (slab test)."""
    d = b - a
    out = set()
    for v in itertools.product(*(range(n) for n in _EDGE_DIMS)):
        lo = np.asarray(origin) + np.asarray(v) * res - margin
        hi = lo + res + 2 * margin
        t0, t1 = 0.0, 1.0
        for ax in range(3):
            if d[ax] != 0.0:
                s, e = sorted(((lo[ax] - a[ax]) / d[ax], (hi[ax] - a[ax]) / d[ax]))
                t0, t1 = max(t0, s), min(t1, e)
            elif not lo[ax] <= a[ax] <= hi[ax]:
                t1 = -1.0  # parallel to this slab and outside it
        if t0 <= t1:
            out.add(v)
    return out


def _edge_case_segments(rng, n):
    """(kind, a, b) in half-voxel lattice units 1..11."""
    cases = [("zero", k, k) for k in itertools.product((2, 3), repeat=3)]
    for _ in range(n):
        ka = rng.integers(1, 12, 3)
        kb = ka.copy()
        kb[rng.integers(3)] = rng.integers(1, 12)
        cases.append(("axis", ka, kb))
        cases.append(("any", ka, np.clip(ka + rng.integers(-5, 6, 3), 1, 11)))
    return cases


@pytest.mark.parametrize("res,origin", _EDGE_GRIDS)
def test_walker_edge_cases_against_segment_voxels(res, origin):
    rng = np.random.default_rng(17)
    origin_arr = np.asarray(origin)
    empty = OccupancyGrid(np.zeros(_EDGE_DIMS, dtype=bool), res, origin)
    eps = 1e-9 * res
    for kind, ka, kb in _edge_case_segments(rng, 60):
        a = origin_arr + np.asarray(ka) * (res / 2)
        b = origin_arr + np.asarray(kb) * (res / 2)
        walked = _walked(res, origin, a, b)
        sv = {tuple(int(c) for c in v) for v in reference_segment_voxels(empty, a, b)}
        fa, fb = empty.world_to_index(a), empty.world_to_index(b)
        msg = (kind, tuple(ka), tuple(kb))
        # Every voxel the segment passes through is checked. At 0.3 the
        # crossing parameters of reference_segment_voxels round, so a
        # segment through an edge may list a voxel it only touches; those
        # are left out.
        inside = _touched(res, origin, a, b, -eps)
        assert inside <= walked, msg
        if res == 0.5:
            assert sv <= walked, msg
        else:
            assert sv & inside <= walked, msg
        # Only voxels the closed segment touches are checked, and always the
        # start and end voxels named by the floor convention.
        assert walked <= _touched(res, origin, a, b, eps), msg
        assert fa in walked, msg
        assert fb in walked, msg
        if kind == "zero":
            assert walked == sv == {fa}, msg
        elif kind == "axis" and all(
            ka[i] % 2 for i in range(3) if ka[i] == kb[i]
        ):
            assert walked == sv | {fa, fb}, msg


def test_walker_tie_order_x_before_y_before_z():
    """Through a voxel edge the walk steps x before y, and through a corner
    x, then y, then z: it checks (1,0,0), not (0,1,0), on the way from
    (0,0,0) to (1,1,0)."""
    res, origin = 0.5, np.array([-1.5, 0.25, 2.0])
    a = origin + np.array([0.5, 0.5, 0.5]) * res
    walked = _walked(res, tuple(origin), a, origin + np.array([2.5, 2.5, 0.5]) * res)
    assert walked == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0)}
    walked = _walked(res, tuple(origin), a, origin + np.array([1.5, 1.5, 1.5]) * res)
    assert walked == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)}


def test_walker_stops_at_the_end_voxel():
    """The walk takes exactly as many steps per axis as the floor convention
    puts between the end voxels. A crossing that lands on t = 1 on an axis
    with no steps left is not taken, and one that rounds past 1 on an axis
    with a step left still is."""
    # One obstacle far from the segment, so the walk runs (a grid with no
    # obstacles only checks the endpoints' bounds).
    occ = np.zeros((6, 6, 6), dtype=bool)
    occ[0, 5, 0] = True
    free = OccupancyGrid(occ, 0.5)
    # y ends exactly on the face y = 0 while z crosses at t = 1 too: the
    # end voxel is (5, 0, 3), the walk must not step y to -1.
    a, b = (2.5, 0.25, 1.0), (2.5, 0.0, 1.5)
    assert free.world_to_index(b) == (5, 0, 3)
    assert segment_collision_free(free, a, b)
    assert segment_collision_free(free, b, a)
    # Here the accumulated z crossing rounds to just above 1, yet b lies in
    # the occupied voxel (3, 1, 3).
    occ = np.zeros((6, 6, 6), dtype=bool)
    occ[3, 1, 3] = True
    blocked = OccupancyGrid(occ, 0.5)
    a, b = (2.0, 0.75, 0.25), (1.5, 0.5, 1.5)
    assert blocked.world_to_index(b) == (3, 1, 3)
    assert not segment_collision_free(blocked, a, b)
    assert not segment_collision_free(blocked, b, a)


# ------------------------------------------------------------------- inflation


def test_inflate_identity_and_counts():
    g = grid_with([(5, 5, 5)])
    assert inflate(g, 0) is g
    assert np.count_nonzero(inflate(g, 1).occupancy) == 27
    corner = grid_with([(0, 0, 0)])
    assert np.count_nonzero(inflate(corner, 1).occupancy) == 8
    with pytest.raises(ValueError):
        inflate(g, -1)


def test_inflate_matches_brute_force():
    rng = np.random.default_rng(4)
    occ = rng.random((8, 8, 8)) < 0.1
    g = OccupancyGrid(occ, 1.0)
    r = 1
    expect = np.zeros_like(occ)
    for i, j, k in np.argwhere(occ):
        expect[
            max(i - r, 0) : i + r + 1,
            max(j - r, 0) : j + r + 1,
            max(k - r, 0) : k + r + 1,
        ] = True
    assert np.array_equal(inflate(g, r).occupancy, expect)


def test_inflate_monotone():
    rng = np.random.default_rng(5)
    g = OccupancyGrid(rng.random((10, 10, 10)) < 0.05, 1.0)
    prev = inflate(g, 1).occupancy
    for r in (2, 3):
        cur = inflate(g, r).occupancy
        assert np.all(cur[prev])  # occupied set only grows
        prev = cur


# ------------------------------------------------------------------ generation


def test_random_map_empty_and_deterministic():
    spec0 = ObstacleSpec(count=0, size_min=(1, 1, 1), size_max=(2, 2, 2))
    g0 = random_cluttered_map((8, 8, 8), 1.0, spec0, seed=1)
    assert not g0.occupancy.any()

    spec = ObstacleSpec(count=(5, 10), size_min=(1, 1, 1), size_max=(3, 3, 3))
    g1 = random_cluttered_map((12, 12, 12), 1.0, spec, seed=9)
    g2 = random_cluttered_map((12, 12, 12), 1.0, spec, seed=9)
    assert g1 == g2
    g3 = random_cluttered_map((12, 12, 12), 1.0, spec, seed=10)
    assert g1 != g3


def test_random_map_matches_reference_placement():
    """Independent reimplementation of the documented placement loop."""
    dims = np.array([20, 20, 20])
    spec = ObstacleSpec(count=15, size_min=(2, 2, 4), size_max=(2, 2, 4))
    seed = 7
    g = random_cluttered_map(tuple(dims), 1.0, spec, seed=seed)

    rng = np.random.default_rng(seed)
    occ = np.zeros(tuple(dims), dtype=bool)
    smin = np.array([2, 2, 4])
    for _ in range(15):
        size = np.minimum(rng.integers(smin, smin + 1), dims)
        corner = rng.integers(0, dims - size + 1)
        sl = tuple(slice(int(c), int(c + s)) for c, s in zip(corner, size))
        occ[sl] = True
    assert np.array_equal(g.occupancy, occ)
    frac = np.count_nonzero(occ) / occ.size
    assert 0.0 < frac < 1.0


def test_random_map_keep_free_and_placement_error():
    spec = ObstacleSpec(count=(8, 12), size_min=(2, 2, 2), size_max=(4, 4, 4))
    keep = [(1, 1, 1), (18, 18, 18)]
    g = random_cluttered_map((20, 20, 20), 1.0, spec, seed=3, keep_free=keep)
    for v in keep:
        assert not g.occupancy[v]
    # Obstacles as large as the whole grid always cover the kept voxel.
    dense = ObstacleSpec(count=1, size_min=(5, 5, 5), size_max=(5, 5, 5), max_retries=10)
    with pytest.raises(PlacementError):
        random_cluttered_map((5, 5, 5), 1.0, dense, seed=0, keep_free=[(2, 2, 2)])


def test_obstacle_spec_keeps_int_tuples():
    """The spec keeps tuples of ints. It used to keep the caller's lists, so
    a size_min checked as [1, 1, 1] and then set to [0, 0, 0] drew empty
    cuboids; and an np.int64 count was a bare TypeError."""
    size_min = [1, 1, 1]
    spec = ObstacleSpec(count=(6, 6), size_min=size_min, size_max=[1, 1, 1])
    size_min[:] = [0, 0, 0]
    assert spec.size_min == (1, 1, 1) and spec.size_max == (1, 1, 1)
    fresh = ObstacleSpec(count=(6, 6), size_min=(1, 1, 1), size_max=(1, 1, 1))
    assert random_cluttered_map((8, 8, 8), 1.0, spec, seed=3) == random_cluttered_map(
        (8, 8, 8), 1.0, fresh, seed=3)

    spec = ObstacleSpec(count=np.int64(3), size_min=np.array([2, 2, 2]), size_max=(np.int64(3), 3, 4))
    assert (spec.count, spec.size_min, spec.size_max) == ((3, 3), (2, 2, 2), (3, 3, 4))
    assert all(type(c) is int for c in spec.count + spec.size_min + spec.size_max)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.count = (1, 1)


@pytest.mark.parametrize("kwargs", [
    {"count": 2.0}, {"count": (1, 2, 3)}, {"count": (1.5, 2)},
    {"size_min": (1, 1)}, {"size_max": (2.0, 2, 2)}, {"size_min": 1},
])
def test_obstacle_spec_rejects_non_integer_ranges(kwargs):
    """Each range holds integers: a float size was truncated, and a float
    count reached rng.integers."""
    with pytest.raises(ValueError):
        ObstacleSpec(**{"count": (1, 2), "size_min": (1, 1, 1), "size_max": (2, 2, 2), **kwargs})


def test_obstacle_spec_validation():
    with pytest.raises(ValueError):
        ObstacleSpec(count=(3, 1), size_min=(1, 1, 1), size_max=(2, 2, 2))
    with pytest.raises(ValueError):
        ObstacleSpec(count=1, size_min=(0, 1, 1), size_max=(2, 2, 2))
    with pytest.raises(ValueError):
        ObstacleSpec(count=1, size_min=(3, 3, 3), size_max=(2, 2, 2))


# ------------------------------------------------------------------------- I/O


def test_grid_round_trip(tmp_path):
    spec = ObstacleSpec(count=(5, 10), size_min=(1, 1, 1), size_max=(3, 3, 3))
    g = random_cluttered_map((9, 11, 7), 0.25, spec, seed=13, origin=(1.0, -2.0, 0.5))
    path = tmp_path / "map.grid"
    save_grid(g, path)
    assert load_grid(path) == g


def test_grid_load_errors(tmp_path):
    path = tmp_path / "bad.grid"

    path.write_bytes(b"short")
    with pytest.raises(MapFileError):
        load_grid(path)

    header = struct.pack("<8s3id3d", b"XXXXXXXX", 2, 2, 2, 1.0, 0.0, 0.0, 0.0)
    path.write_bytes(header + b"\x00")
    with pytest.raises(MapFileError):
        load_grid(path)

    header = struct.pack("<8s3id3d", b"MNRGRID1", -1, 2, 2, 1.0, 0.0, 0.0, 0.0)
    path.write_bytes(header + b"\x00" * 8)
    with pytest.raises(MapFileError):
        load_grid(path)

    # Valid header for 4x4x4 = 64 bits = 8 bytes, but truncated payload.
    header = struct.pack("<8s3id3d", b"MNRGRID1", 4, 4, 4, 1.0, 0.0, 0.0, 0.0)
    path.write_bytes(header + b"\x00" * 4)
    with pytest.raises(MapFileError):
        load_grid(path)

    # A payload longer than the header's dims: with dims too small, a prefix
    # of the bits used to load as a different map.
    save_grid(grid_with([(1, 0, 0)], side=4), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 16)
    with pytest.raises(MapFileError, match="need 8"):
        load_grid(path)

    # Non-positive or non-finite geometry: a MapFileError, not a grid that
    # maps every point to one voxel or an untyped ValueError.
    for res, origin in [
        (np.inf, (0.0, 0.0, 0.0)),
        (np.nan, (0.0, 0.0, 0.0)),
        (0.0, (0.0, 0.0, 0.0)),
        (1.0, (0.0, np.nan, 0.0)),
        (1.0, (np.inf, 0.0, 0.0)),
    ]:
        header = struct.pack("<8s3id3d", b"MNRGRID1", 2, 2, 2, res, *origin)
        path.write_bytes(header + b"\x00")
        with pytest.raises(MapFileError):
            load_grid(path)


def test_grid_file_bit_order(tmp_path):
    """Voxel (1,0,0) is bit 1 of byte 0 (x-fastest, LSB-first)."""
    g = grid_with([(1, 0, 0)], side=2)
    path = tmp_path / "order.grid"
    save_grid(g, path)
    payload = path.read_bytes()[struct.calcsize("<8s3id3d") :]
    assert payload[0] == 0b10
