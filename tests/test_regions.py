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
    connectivity_penalty,
    dilate_path,
    filter_region,
    is_connected,
    is_safe,
    load_region,
    oracle_region,
    safety_penalty,
    save_region,
    state_map,
)

from oracles import reference_astar_path


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
    r = HeuristicRegion(np.ones((2, 2, 2), dtype=np.float32))
    assert r.dims == (2, 2, 2)
    assert r.member_indices().shape == (8, 3)


def test_state_map():
    sm = state_map((8, 8, 8), (3, 3, 3), (7, 7, 7))
    # Interior start cube has 27 ones; corner goal cube is clipped to 2^3 = 8.
    assert np.count_nonzero(sm) == 27 + 8
    assert sm[3, 3, 3] == 1.0 and sm[7, 7, 7] == 1.0
    assert sm[0, 0, 0] == 0.0


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
    assert np.count_nonzero(dilate_path([(4, 4, 4)], (8, 8, 8)).values) == 27
    assert np.count_nonzero(dilate_path([(0, 0, 0)], (8, 8, 8)).values) == 8
    # Union of six overlapping cubes along x: 8 x-slabs of 9 voxels.
    path = [(i, 4, 4) for i in range(1, 7)]
    region = dilate_path(path, (8, 8, 8))
    expect = np.zeros((8, 8, 8), dtype=bool)
    for v in path:
        expect[
            v[0] - 1 : v[0] + 2, v[1] - 1 : v[1] + 2, v[2] - 1 : v[2] + 2
        ] = True
    assert np.count_nonzero(region.values) == 72
    assert np.array_equal(region.mask, expect)
    with pytest.raises(ValueError):
        dilate_path(np.empty((0, 3), dtype=int), (8, 8, 8))


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
        assert is_connected(region, s, g)
        assert is_safe(region, grid)
        assert not np.any(region.mask & grid.occupancy)
        assert filter_region(region, grid, s, g) == region


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
        p = RegionSampler(r).sample(rng)
        assert np.all((3, 4, 5) <= p) and np.all(p < (4, 5, 6))
    vals = np.zeros((8, 8, 8), dtype=np.float32)
    vals[1, 1, 1] = 1.0
    for _ in range(50):
        p = RegionSampler(HeuristicRegion(vals)).sample(rng)
        assert np.all((1, 1, 1) <= p) and np.all(p < (2, 2, 2))
    with pytest.raises(EmptyRegionError):
        RegionSampler(region_of([]))


def test_sample_region_weighting():
    vals = np.zeros((4, 4, 4), dtype=np.float32)
    vals[0, 0, 0] = 0.25
    vals[3, 3, 3] = 0.75
    r = HeuristicRegion(vals)
    rng = np.random.default_rng(42)
    sampler = RegionSampler(r)
    hits = sum(sampler.sample(rng)[0] >= 3.0 for _ in range(20_000))
    assert abs(hits / 20_000 - 0.75) < 0.75 * 0.05


def test_sample_region_origin_resolution():
    rng = np.random.default_rng(1)
    r = region_of([(2, 2, 2)], dims=(4, 4, 4))
    p = RegionSampler(r, origin=(10.0, 0.0, -5.0), resolution=0.5).sample(rng)
    assert np.all(p >= (11.0, 1.0, -4.0)) and np.all(p < (11.5, 1.5, -3.5))


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
    bad = np.full(8, 2.0, dtype="<f4")  # values outside [0, 1]
    path.write_bytes(struct.pack("<8s3i", b"MNRHEUR1", 2, 2, 2) + bad.tobytes())
    with pytest.raises(RegionFileError):
        load_region(path)
