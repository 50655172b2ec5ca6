"""Heuristic regions: oracle construction, filtering, metrics, sampling, I/O."""

import heapq
import itertools
import struct

import numpy as np
import pytest

from quadplan.grid import ObstacleSpec, OccupancyGrid, random_cluttered_map
from quadplan.regions import (
    EmptyRegionError,
    HeuristicRegion,
    NoPathError,
    RegionFileError,
    RegionSampler,
    astar_path,
    _dilated_values,
    connectivity_penalty,
    filter_region,
    is_connected,
    is_safe,
    load_region,
    oracle_region,
    safety_penalty,
    save_region,
)

from oracles import (
    ReferenceRegionSampler,
    reference_astar_path,
    reference_dilate_path,
    run_fresh_python,
)


def empty_grid(side=8):
    return OccupancyGrid(np.zeros((side,) * 3, dtype=bool), 1.0)


def grid_with(voxels, side=8):
    occ = np.zeros((side,) * 3, dtype=bool)
    for v in voxels:
        occ[v] = True
    return OccupancyGrid(occ, 1.0)


def path_cost(path):
    return float(np.sum(np.linalg.norm(np.diff(np.asarray(path, float), axis=0), axis=1)))


def dijkstra_cost(occ, start, goal):
    """Brute-force oracle: plain Dijkstra over the 26-connected free graph."""
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


# ----------------------------------------------------------------- region type


def test_region_validation():
    with pytest.raises(ValueError):
        HeuristicRegion(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        HeuristicRegion(np.full((2, 2, 2), 1.5, dtype=np.float32))
    with pytest.raises(ValueError):
        HeuristicRegion(np.full((2, 2, 2), -0.1, dtype=np.float32))
    given = np.ones((2, 2, 2), dtype=np.float32)
    r = HeuristicRegion(given)
    assert r.dims == (2, 2, 2)
    assert r.member_indices().shape == (8, 3)
    # values is a read-only copy: the caller's float32 array is neither kept
    # nor frozen, and a later write to it leaves the region as it was.
    assert given.flags.writeable and not r.values.flags.writeable
    with pytest.raises(ValueError):
        r.values[0, 0, 0] = 0.0
    given[0, 0, 0] = 0.0
    assert r.values.min() == 1.0 and len(r.member_indices()) == 8


# -------------------------------------------------------------------------- A*


def test_astar_straight_corridor():
    path = astar_path(empty_grid(), (0, 0, 0), (5, 0, 0))
    assert path.shape == (6, 3)
    assert path_cost(path) == pytest.approx(5.0)


def test_astar_diagonal():
    path = astar_path(empty_grid(), (0, 0, 0), (3, 3, 3))
    assert path_cost(path) == pytest.approx(3 * np.sqrt(3.0))


def test_astar_trivial_and_errors():
    g = empty_grid()
    assert np.array_equal(astar_path(g, (2, 2, 2), (2, 2, 2)), [[2, 2, 2]])
    wall = grid_with([(3, j, k) for j in range(8) for k in range(8)])
    with pytest.raises(NoPathError):
        astar_path(wall, (0, 0, 0), (7, 0, 0))
    with pytest.raises(ValueError):
        astar_path(g, (0, 0, 0), (8, 0, 0))
    with pytest.raises(ValueError):
        astar_path(grid_with([(1, 1, 1)]), (1, 1, 1), (5, 5, 5))


@pytest.mark.parametrize("outside", [(-1, 0, 0), (8, 0, 0), (0, 0, 8)])
def test_voxel_arguments_outside_the_grid_are_rejected(outside):
    """Every function taking a start or goal voxel rejects one outside the
    grid with ValueError: a negative index would wrap to the far face (a
    full region made is_connected say True), and one at dims would raise a
    bare IndexError."""
    g = empty_grid()
    full = HeuristicRegion(np.ones(g.dims, dtype=np.float32))
    for start, goal in ((outside, (4, 4, 4)), ((4, 4, 4), outside)):
        with pytest.raises(ValueError, match="outside dims"):
            astar_path(g, start, goal)
        with pytest.raises(ValueError, match="outside dims"):
            filter_region(full, g, start, goal)
        with pytest.raises(ValueError, match="outside dims"):
            is_connected(full, start, goal)


def test_astar_matches_dijkstra():
    rng = np.random.default_rng(11)
    done = 0
    while done < 50:
        occ = rng.random((8, 8, 8)) < 0.25
        free = np.argwhere(~occ)
        if len(free) < 2:
            continue
        s, g_ = (tuple(free[i]) for i in rng.choice(len(free), 2, replace=False))
        grid = OccupancyGrid(occ, 1.0)
        oracle = dijkstra_cost(occ, s, g_)
        if oracle is None:
            with pytest.raises(NoPathError):
                astar_path(grid, s, g_)
        else:
            assert path_cost(astar_path(grid, s, g_)) == pytest.approx(oracle, abs=1e-9)
        done += 1


def test_astar_deterministic():
    g = grid_with([(3, 3, k) for k in range(8)])
    p1 = astar_path(g, (0, 0, 0), (7, 7, 7))
    p2 = astar_path(g, (0, 0, 0), (7, 7, 7))
    assert np.array_equal(p1, p2)


def astar_identity_cases():
    """(grid, start, goal) triples: criterion 10's seeded 8^3 maps at 25 %
    fill, an empty 10^3 grid (equal-cost paths everywhere, so ties decide),
    starts and goals on boundary faces and corners, and thin grids."""
    rng = np.random.default_rng(110)
    cases = []
    while len(cases) < 500:
        occ = rng.random((8, 8, 8)) < 0.25
        free = np.argwhere(~occ)
        if len(free) < 2:
            continue
        s, g_ = (tuple(free[i]) for i in rng.choice(len(free), 2, replace=False))
        cases.append((OccupancyGrid(occ, 1.0), s, g_))

    empty = empty_grid(10)
    corners = list(itertools.product((0, 9), repeat=3))
    faces = [(0, 4, 5), (9, 5, 4), (4, 0, 5), (5, 9, 4), (4, 5, 0), (5, 4, 9)]
    cases += [(empty, s, g_) for s, g_ in itertools.permutations(corners + faces, 2)]
    cases += [(empty, tuple(s), tuple(g_)) for s, g_ in rng.integers(0, 10, (40, 2, 3))]
    wall = [(4, j, k) for j in range(10) for k in range(10)]
    ends = list(itertools.product([(0, 0, 0), (0, 9, 0), (3, 0, 9)], [(9, 0, 0), (9, 9, 9), (5, 9, 9)]))
    for blocked in (wall, wall[:-1]):  # sealed, then with a hole in a corner
        cases += [(grid_with(blocked, side=10), s, g_) for s, g_ in ends]

    sheet = np.zeros((1, 9, 9), dtype=bool)
    sheet[0, 4, :8] = True
    line = np.zeros((12, 1, 1), dtype=bool)
    cut = line.copy()
    cut[6] = True
    for occ, pairs in (
        (sheet, [((0, 0, 0), (0, 8, 0)), ((0, 0, 8), (0, 8, 8)), ((0, 2, 2), (0, 6, 1))]),
        (np.zeros((1, 7, 7), dtype=bool), [((0, 0, 0), (0, 6, 6)), ((0, 0, 6), (0, 6, 0))]),
        (line, [((0, 0, 0), (11, 0, 0)), ((11, 0, 0), (3, 0, 0))]),
        (cut, [((0, 0, 0), (11, 0, 0)), ((1, 0, 0), (5, 0, 0))]),
    ):
        cases += [(OccupancyGrid(occ, 1.0), s, g_) for s, g_ in pairs]
    return cases


def test_astar_matches_reference_paths():
    """The flat-index A* returns the same path as the reference A* over voxel
    tuples, ties included, and fails with NoPathError where it does."""
    no_path = 0
    for grid, s, g_ in astar_identity_cases():
        try:
            ref = reference_astar_path(grid, s, g_, NoPathError)
        except NoPathError:
            no_path += 1
            with pytest.raises(NoPathError):
                astar_path(grid, s, g_)
            continue
        path = astar_path(grid, s, g_)
        assert path.dtype == ref.dtype
        assert np.array_equal(path, ref), (grid.dims, s, g_)
    assert no_path >= 10  # disconnected cases are covered too


# -------------------------------------------------------------------- dilation


def test_dilate_path_counts():
    assert np.count_nonzero(_dilated_values([(4, 4, 4)], (8, 8, 8))) == 27
    assert np.count_nonzero(_dilated_values([(0, 0, 0)], (8, 8, 8))) == 8
    # Union of six overlapping cubes along x: 8 x-slabs of 9 voxels.
    path = [(i, 4, 4) for i in range(1, 7)]
    values = _dilated_values(path, (8, 8, 8))
    expect = np.zeros((8, 8, 8), dtype=bool)
    for v in path:
        expect[
            v[0] - 1 : v[0] + 2, v[1] - 1 : v[1] + 2, v[2] - 1 : v[2] + 2
        ] = True
    assert np.count_nonzero(values) == 72
    assert np.array_equal(values > 0.0, expect)
    with pytest.raises(ValueError):
        _dilated_values(np.empty((0, 3), dtype=int), (8, 8, 8))
    with pytest.raises(ValueError, match="L, 3"):
        _dilated_values([(1, 1), (2, 2)], (8, 8, 8))


@pytest.mark.parametrize("voxel", [(-1, 2, 2), (2, 2, -1), (8, 2, 2), (2, 6, 2), (2, 2, 9)])
def test_dilate_path_rejects_voxels_outside_dims(voxel):
    """A negative index would wrap to the far face, and one at or past dims
    would write into the padding or past the mask: both raise ValueError."""
    with pytest.raises(ValueError, match="outside"):
        _dilated_values([(1, 1, 1), voxel], (8, 6, 9))


def test_dilate_path_matches_reference_dilation():
    """Scattering each path voxel's cube marks the voxels a whole-grid
    dilation does: random paths that touch faces, edges and corners, and
    grids with a side of 1 or 2, where every cube is clipped."""
    rng = np.random.default_rng(120)
    dims_list = [(8, 8, 8), (5, 7, 9), (1, 6, 6), (2, 2, 2), (1, 1, 1), (2, 9, 1), (1, 2, 12)]
    for dims in dims_list:
        corners = np.array(list(itertools.product(*[(0, d - 1) for d in dims])))
        for _ in range(20):
            length = int(rng.integers(1, 12))
            path = rng.integers(0, dims, (length, 3))
            # A voxel on a face: one coordinate pinned to 0 or the last index.
            axis = int(rng.integers(3))
            path[0, axis] = rng.choice([0, dims[axis] - 1])
            path = np.vstack([path, corners[rng.integers(len(corners))]])
            got = _dilated_values(path, dims)
            assert got.dtype == np.float32 and got.shape == dims
            assert set(np.unique(got)) <= {0.0, 1.0}
            assert np.array_equal(got > 0.0, reference_dilate_path(path, dims)), (dims, path)


def test_oracle_region_properties():
    """The oracle's region is connected, safe and a fixed point of
    filter_region, so the front end uses it without filtering."""
    spec = ObstacleSpec(count=(8, 12), size_min=(1, 1, 1), size_max=(3, 3, 3))
    s, g = (0, 0, 0), (11, 11, 11)
    for seed in range(10):
        res, origin = (0.5, (-1.25, 0.75, 2.0)) if seed % 2 else (1.0, (0.0, 0.0, 0.0))
        grid = random_cluttered_map(
            (12, 12, 12), res, spec, seed=seed, origin=origin, keep_free=[s, g]
        )
        region = oracle_region(grid, s, g)
        dilated = reference_dilate_path(astar_path(grid, s, g), grid.dims)
        assert np.array_equal(region.mask, dilated & ~grid.occupancy)
        assert is_connected(region, s, g)
        assert is_safe(region, grid)
        assert not np.any(region.mask & grid.occupancy)
        assert filter_region(region, grid, s, g) == region


def test_oracle_region_equals_two_step_build():
    """Zeroing obstacles inside the dilated mask gives the region that
    dilating first and zeroing with np.where afterwards gave, value for value."""
    spec = ObstacleSpec(count=(8, 12), size_min=(1, 1, 1), size_max=(3, 3, 3))
    s, g = (0, 0, 0), (11, 11, 11)
    for seed in range(10):
        grid = random_cluttered_map((12, 12, 12), 1.0, spec, seed=seed + 40, keep_free=[s, g])
        dilated = _dilated_values(astar_path(grid, s, g), grid.dims)
        two_step = np.where(grid.occupancy, np.float32(0.0), dilated)
        region = oracle_region(grid, s, g)
        assert region.values.dtype == np.float32 and not region.values.flags.writeable
        assert region.values.tobytes() == two_step.tobytes()
        assert region == HeuristicRegion(two_step)


# ------------------------------------------------------------------- filtering


def test_filter_region_threshold_and_components():
    g = empty_grid()
    vals = np.zeros((8, 8, 8), dtype=np.float32)
    vals[0:3, 0:3, 0:3] = 0.6
    vals[0, 1, 1] = 0.4  # below threshold, dropped
    vals[6, 6, 6] = 1.0  # isolated blob away from start/goal
    region = filter_region(HeuristicRegion(vals), g, (0, 0, 0), (2, 2, 2))
    assert not region.mask[0, 1, 1]
    assert not region.mask[6, 6, 6]
    assert region.mask[0, 0, 0] and region.mask[2, 2, 2]
    assert set(np.unique(region.values)) <= {0.0, 1.0}


def test_filter_region_idempotent_and_empty():
    g = empty_grid()
    vals = np.zeros((8, 8, 8), dtype=np.float32)
    vals[2:5, 2:5, 2:5] = 1.0
    once = filter_region(HeuristicRegion(vals), g, (2, 2, 2), (4, 4, 4))
    twice = filter_region(once, g, (2, 2, 2), (4, 4, 4))
    assert once == twice
    with pytest.raises(EmptyRegionError):
        filter_region(
            HeuristicRegion(np.zeros((8, 8, 8), dtype=np.float32)), g, (0, 0, 0), (7, 7, 7)
        )
    with pytest.raises(ValueError):
        filter_region(once, empty_grid(6), (0, 0, 0), (1, 1, 1))


def test_filter_zeroes_occupied():
    g = grid_with([(3, 3, 3)])
    vals = np.zeros((8, 8, 8), dtype=np.float32)
    vals[2:5, 2:5, 2:5] = 1.0
    region = filter_region(HeuristicRegion(vals), g, (2, 2, 2), (4, 4, 4))
    assert not region.mask[3, 3, 3]


# --------------------------------------------------------------------- metrics


def region_of(voxels, dims=(8, 8, 8)):
    vals = np.zeros(dims, dtype=np.float32)
    for v in voxels:
        vals[v] = 1.0
    return HeuristicRegion(vals)


def test_connectivity_penalty_cases():
    assert connectivity_penalty(region_of([(2, 2, 2), (3, 2, 2)]), 1.5) == 0.0
    # Two isolated voxels 4 apart: nearest-point fallback, both ordered pairs.
    assert connectivity_penalty(region_of([(1, 1, 1), (5, 1, 1)]), 1.5) == pytest.approx(5.0)
    assert connectivity_penalty(region_of([(4, 4, 4)]), 1.5) == 0.0
    # Every member has a 26-neighbor at distance <= delta: exactly zero.
    blob = region_of([(i, j, 2) for i in range(2, 5) for j in range(2, 5)])
    assert connectivity_penalty(blob, np.sqrt(3.0)) == 0.0


def test_connectivity_penalty_diagonal_neighbors():
    # Adjacent on the cube diagonal: distance sqrt(3) > delta=1.5, counted
    # once per ordered pair.
    r = region_of([(2, 2, 2), (3, 3, 3)])
    assert connectivity_penalty(r, 1.5) == pytest.approx(2 * (np.sqrt(3.0) - 1.5))


def test_import_leaves_scipy_spatial_unloaded():
    """scipy.spatial is imported by connectivity_penalty alone, on first
    call; importing the package does not pay for it."""
    assert run_fresh_python([
        "import sys",
        "import numpy as np",
        "import quadplan",
        "from quadplan.regions import HeuristicRegion, connectivity_penalty",
        "print('scipy.spatial' in sys.modules)",
        "connectivity_penalty(HeuristicRegion(np.ones((2, 1, 1), dtype=np.float32)), 1.5)",
        "print('scipy.spatial' in sys.modules)",
    ]) == ["False", "True"]


def test_default_pipeline_leaves_scipy_ndimage_unloaded():
    """scipy.ndimage is imported by inflate, filter_region and is_connected
    alone, on first call: importing the package and a default
    plan_trajectory (no region, no inflation) do not pay for it, and the
    three work once it is loaded."""
    assert run_fresh_python([
        "import sys",
        "import numpy as np",
        "import quadplan",
        "from quadplan.grid import GoalRegion, OccupancyGrid, inflate",
        "from quadplan.pipeline import PipelineConfig, plan_trajectory",
        "from quadplan.planner import PlannerConfig",
        "from quadplan.regions import filter_region, is_connected, oracle_region",
        "print('scipy.ndimage' in sys.modules)",
        "occ = np.zeros((10, 10, 10), dtype=bool)",
        "occ[4:6, :7, :] = True",
        "grid = OccupancyGrid(occ, 1.0)",
        "goal = GoalRegion(np.array([8.5, 1.5, 5.5]), 1.5)",
        "planner = PlannerConfig(step=2.0, goal=goal, max_iterations=5_000, target_cost=30.0)",
        "result = plan_trajectory(grid, (1.5, 1.5, 5.5), goal, PipelineConfig(planner=planner))",
        "print(result.stats.success, 'scipy.ndimage' in sys.modules)",
        # The 2 x 7 x 10 wall grows one voxel along x and y: 4 x 8 x 10.
        "print(int(inflate(grid, 1).occupancy.sum()))",
        "ends = (1, 1, 5), (8, 1, 5)",
        "region = filter_region(oracle_region(grid, *ends), grid, *ends)",
        "print(is_connected(region, *ends), 'scipy.ndimage' in sys.modules)",
    ]) == ["False", "True", "False", "320", "True", "True"]


def test_safety_penalty_cases():
    g = empty_grid()
    r8 = region_of([(i, 0, 0) for i in range(8)])
    assert safety_penalty(r8, g) == pytest.approx(4.0)  # 8 * sigmoid(0)
    gobs = grid_with([(3, 0, 0)])
    expect = 7 * 0.5 + 1.0 / (1.0 + np.exp(-1.0))
    assert safety_penalty(r8, gobs) == pytest.approx(expect)
    assert safety_penalty(region_of([]), g) == 0.0


def test_is_connected_cases():
    tube = region_of([(i, 2, 2) for i in range(8)])
    assert is_connected(tube, (0, 2, 2), (7, 2, 2))
    split = region_of([(i, 2, 2) for i in range(8) if i != 4])
    assert not is_connected(split, (0, 2, 2), (7, 2, 2))
    assert not is_connected(tube, (0, 0, 0), (7, 2, 2))  # start not a member


def test_is_safe_threshold():
    r = region_of([(1, 1, 1), (2, 2, 2), (3, 3, 3)])
    assert is_safe(r, empty_grid())
    assert is_safe(r, grid_with([(1, 1, 1)]))  # exactly one overlap allowed
    assert not is_safe(r, grid_with([(1, 1, 1), (2, 2, 2)]))


# -------------------------------------------------------------------- sampling


def test_sample_region_singleton_and_zero_mass():
    rng = np.random.default_rng(0)
    r = region_of([(3, 4, 5)])
    for _ in range(50):
        p = RegionSampler(r, empty_grid()).sample(rng)
        assert np.all((3, 4, 5) <= p) and np.all(p < (4, 5, 6))
    vals = np.zeros((8, 8, 8), dtype=np.float32)
    vals[1, 1, 1] = 1.0
    for _ in range(50):
        p = RegionSampler(HeuristicRegion(vals), empty_grid()).sample(rng)
        assert np.all((1, 1, 1) <= p) and np.all(p < (2, 2, 2))
    with pytest.raises(EmptyRegionError):
        RegionSampler(region_of([]), empty_grid())


def test_sample_region_weighting():
    vals = np.zeros((4, 4, 4), dtype=np.float32)
    vals[0, 0, 0] = 0.25
    vals[3, 3, 3] = 0.75
    r = HeuristicRegion(vals)
    rng = np.random.default_rng(42)
    sampler = RegionSampler(r, empty_grid(4))
    hits = sum(sampler.sample(rng)[0] >= 3.0 for _ in range(20_000))
    assert abs(hits / 20_000 - 0.75) < 0.75 * 0.05


def test_sample_region_matches_reference_sampler():
    """sample, and point on the same doubles, give the array formula's
    points bit for bit, on a weighted region with an offset origin and
    resolution 0.5, including u on a cumulative-weight boundary."""
    vals = np.random.default_rng(4).random((6, 7, 5)).astype(np.float32)
    vals[vals < 0.6] = 0.0
    vals[1, 2, 3] = 1.0
    region = HeuristicRegion(vals)
    origin, res = (-1.25, 3.5, 0.75), 0.5
    sampler = RegionSampler(region, OccupancyGrid(np.zeros(region.dims, dtype=bool), res, origin))
    ref = ReferenceRegionSampler(region, origin, res)
    got_rng, want_rng, draws = (np.random.default_rng(2) for _ in range(3))
    for _ in range(3000):
        want = ref.sample(want_rng).tolist()
        assert sampler.sample(got_rng).tolist() == want
        u, a, b, c = draws.random(4).tolist()
        assert list(sampler.point(u, a, b, c)) == want
    cum = ref._cum
    for u in (0.0, cum[0], cum[5], np.nextafter(cum[5], 0.0), cum[-1], np.nextafter(1.0, 0.0)):
        draws = [float(u), 0.5, 0.25, 0.75]
        assert list(sampler.point(*draws)) == ref.sample(_Replay(draws)).tolist()


class _Replay:
    """Stands in for a Generator: hands out the given doubles in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self, size=None):
        if size is None:
            return next(self._values)
        return np.array([next(self._values) for _ in range(size)])


def test_sample_region_origin_resolution():
    rng = np.random.default_rng(1)
    r = region_of([(2, 2, 2)], dims=(4, 4, 4))
    grid = OccupancyGrid(np.zeros((4, 4, 4), dtype=bool), 0.5, (10.0, 0.0, -5.0))
    p = RegionSampler(r, grid).sample(rng)
    assert np.all(p >= (11.0, 1.0, -4.0)) and np.all(p < (11.5, 1.5, -3.5))


def test_region_sampler_rejects_a_region_of_other_dims():
    with pytest.raises(ValueError, match="dims"):
        RegionSampler(region_of([(1, 1, 1)], dims=(20, 20, 20)), empty_grid(10))


# ------------------------------------------------------------------------- I/O


def test_region_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    vals = rng.random((5, 7, 3)).astype(np.float32)
    r = HeuristicRegion(vals)
    path = tmp_path / "r.region"
    save_region(r, path)
    assert load_region(path) == r


def test_region_load_errors(tmp_path):
    path = tmp_path / "bad.region"
    path.write_bytes(b"xx")
    with pytest.raises(RegionFileError):
        load_region(path)
    path.write_bytes(struct.pack("<8s3i", b"BADMAGIC", 2, 2, 2) + b"\x00" * 32)
    with pytest.raises(RegionFileError):
        load_region(path)
    path.write_bytes(struct.pack("<8s3i", b"MNRHEUR1", 2, 2, 2) + b"\x00" * 8)
    with pytest.raises(RegionFileError):
        load_region(path)
    # A payload longer than the header's dims, which used to load its prefix.
    save_region(HeuristicRegion(np.full((2, 2, 2), 0.5, dtype=np.float32)), path)
    path.write_bytes(path.read_bytes() + np.zeros(5, dtype="<f4").tobytes())
    with pytest.raises(RegionFileError, match="need 32"):
        load_region(path)
    bad = np.full(8, 2.0, dtype="<f4")  # values outside [0, 1]
    path.write_bytes(struct.pack("<8s3i", b"MNRHEUR1", 2, 2, 2) + bad.tobytes())
    with pytest.raises(RegionFileError):
        load_region(path)
