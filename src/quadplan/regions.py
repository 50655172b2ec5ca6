"""Heuristic promising regions over occupancy grids.

The region oracle (A* shortest grid path dilated into 3x3x3 cubes) stands in
for an externally trained predictor; predicted regions can also be loaded
from the binary region file format. Includes region filtering, the
connectivity/safety penalty metrics, and value-weighted sampling.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .grid import OccupancyGrid, _read_only_copy

REGION_MAGIC = b"MNRHEUR1"

_REGION_HEADER = struct.Struct("<8s3i")

_CUBE = np.ones((3, 3, 3), dtype=bool)
# The 27 voxel offsets of a 3x3x3 cube, centre included.
_CUBE_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=int)
# 26-connected neighborhood: offsets and Euclidean step costs (1, sqrt2, sqrt3).
_OFFSETS = _CUBE_OFFSETS[_CUBE_OFFSETS.any(axis=1)]
_STEP_COSTS = np.linalg.norm(_OFFSETS, axis=1)


class NoPathError(Exception):
    """Start and goal lie in different free components."""


class EmptyRegionError(Exception):
    """Region has no support (empty after filtering, or all-zero sampling mass)."""


class RegionFileError(ValueError):
    """Malformed header, a payload of another length than the header's dims
    need, or invalid values in a region file."""


def _voxel(v, dims, name) -> tuple[int, int, int]:
    """Voxel argument v as an int triple; ValueError unless 0 <= c < dims on
    every axis, since a negative index would wrap to the far face."""
    idx = tuple(int(c) for c in np.asarray(v))
    if len(idx) != 3 or not all(0 <= c < d for c, d in zip(idx, dims)):
        raise ValueError(f"{name} voxel {idx} outside dims {dims}")
    return idx


@dataclass(frozen=True, eq=False)
class HeuristicRegion:
    """Per-voxel probability field in [0, 1] aligned to a companion grid.

    Mask-style regions (the oracle's output) use exactly 0 or 1. values is a
    read-only float32 copy of the array given.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = _read_only_copy(self.values, np.float32)
        if vals.ndim != 3:
            raise ValueError("region values must be a 3D array")
        if np.any(vals < 0.0) or np.any(vals > 1.0) or not np.all(np.isfinite(vals)):
            raise ValueError("region values must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, HeuristicRegion):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    @property
    def mask(self) -> np.ndarray:
        return self.values > 0.0

    def member_indices(self) -> np.ndarray:
        return np.argwhere(self.values > 0.0)


def astar_path(grid: OccupancyGrid, start, goal) -> np.ndarray:
    """Cost-minimal 26-connected grid path from start to goal voxel under
    Euclidean step costs, as an (L,3) int array of voxel indices.

    Admissible heuristic: straight-line Euclidean distance in voxel units.
    Ties break on lower heuristic value, then lexicographic voxel index, so
    the returned path is deterministic.

    The search runs over flat indices into a bytearray: the occupancy grid
    padded with one blocked layer on every face, its C-order bytes copied in
    one call, so no neighbour needs a bounds check, no numpy call sits inside
    the loop and no Python object is made per voxel. Closed voxels are marked
    blocked (1) in the same bytes. On the padded grid the C-order flat index
    of a voxel increases with its lexicographic index, so the heap key
    (f, h, flat index) breaks ties as (f, h, voxel) would. The heuristic is
    math.sqrt of an integer sum of squares, which is exact before the root,
    so f and h equal those of a float norm bit for bit.
    """
    start = _voxel(start, grid.dims, "start")
    goal = _voxel(goal, grid.dims, "goal")
    for name, v in (("start", start), ("goal", goal)):
        if grid.occupancy[v]:
            raise ValueError(f"{name} voxel {v} is occupied")
    if start == goal:
        return np.array([start], dtype=int)

    _, ny, nz = grid.dims
    sy = nz + 2
    sx = (ny + 2) * sy
    blocked = bytearray(np.pad(grid.occupancy, 1, constant_values=True).tobytes())
    steps = [
        (dx * sx + dy * sy + dz, dx, dy, dz, cost)
        for (dx, dy, dz), cost in zip(_OFFSETS.tolist(), _STEP_COSTS.tolist())
    ]
    gx, gy, gz = (c + 1 for c in goal)
    src = (start[0] + 1) * sx + (start[1] + 1) * sy + start[2] + 1
    dst = gx * sx + gy * sy + gz

    g = [math.inf] * len(blocked)
    g[src] = 0.0
    parent = {}
    ex, ey, ez = start[0] + 1 - gx, start[1] + 1 - gy, start[2] + 1 - gz
    h0 = math.sqrt(ex * ex + ey * ey + ez * ez)
    open_heap = [(h0, h0, src)]
    pop, push, sqrt = heapq.heappop, heapq.heappush, math.sqrt
    while open_heap:
        _f, _h, cur = pop(open_heap)
        if blocked[cur]:
            continue
        if cur == dst:
            path = [cur]
            while cur in parent:
                cur = parent[cur]
                path.append(cur)
            x, rest = np.divmod(np.array(path[::-1]), sx)
            y, z = np.divmod(rest, sy)
            return np.column_stack([x, y, z]) - 1
        blocked[cur] = 1
        gc = g[cur]
        cx, rest = divmod(cur, sx)
        cy, cz = divmod(rest, sy)
        ex, ey, ez = cx - gx, cy - gy, cz - gz
        for step, dx, dy, dz, cost in steps:
            nb = cur + step
            if blocked[nb]:
                continue
            ng = gc + cost
            if ng < g[nb] - 1e-12:
                g[nb] = ng
                parent[nb] = cur
                hx, hy, hz = ex + dx, ey + dy, ez + dz
                h = sqrt(hx * hx + hy * hy + hz * hz)
                push(open_heap, (ng + h, h, nb))
    raise NoPathError(f"no free 26-connected path from {start} to {goal}")


def _dilated_values(path, dims) -> np.ndarray:
    """Writable (nx, ny, nz) float32 view with 1 iff within Chebyshev
    distance 1 of a path voxel, else 0.

    The path marks about thirty voxels of a grid of tens of thousands, so
    rather than dilate the whole grid this writes each voxel's 27-cube
    directly: flat indices of path + offset into a mask padded by one voxel
    on every face (no cube needs clipping), and the view is its interior. A
    path voxel outside dims raises ValueError, since a negative index would
    otherwise wrap to the far face.
    """
    path = np.asarray(path, dtype=int)
    if path.size == 0:
        raise ValueError("path must be nonempty")
    if path.ndim != 2 or path.shape[1] != 3:
        raise ValueError("path must be an (L, 3) array of voxel indices")
    nx, ny, nz = (int(d) for d in dims)
    if (path < 0).any() or (path >= (nx, ny, nz)).any():
        raise ValueError(f"path has voxels outside dims {(nx, ny, nz)}")
    strides = np.array([(ny + 2) * (nz + 2), nz + 2, 1])
    flat = (path + 1) @ strides
    offsets = _CUBE_OFFSETS @ strides
    padded = np.zeros((nx + 2) * (ny + 2) * (nz + 2), dtype=np.float32)
    padded[(flat[:, None] + offsets).ravel()] = 1.0
    return padded.reshape(nx + 2, ny + 2, nz + 2)[1:-1, 1:-1, 1:-1]


def oracle_region(grid: OccupancyGrid, start, goal) -> HeuristicRegion:
    """Ground-truth heuristic: dilated A* path with obstacle voxels zeroed.

    Connected by construction (the undilated path survives zeroing) and safe
    because no emitted voxel overlaps an obstacle. The obstacle voxels are
    zeroed in the dilated mask itself, so the region is built once.
    """
    path = astar_path(grid, start, goal)
    vals = _dilated_values(path, grid.dims)
    vals[grid.occupancy] = 0.0
    return HeuristicRegion(vals)


def filter_region(region: HeuristicRegion, grid: OccupancyGrid, start, goal) -> HeuristicRegion:
    """Turn a raw (possibly probabilistic) region into a usable sampling
    support: binarize at 0.5 (a value of at least 0.5 is a member), zero
    occupied voxels, keep only the 26-connected component(s) containing
    start and/or goal, and force-include the start and goal voxels."""
    if region.dims != grid.dims:
        raise ValueError(f"region dims {region.dims} != grid dims {grid.dims}")
    start = _voxel(start, grid.dims, "start")
    goal = _voxel(goal, grid.dims, "goal")
    # Imported here, as in grid.inflate: plan_front_end filters only a region
    # passed in, so the default pipeline never calls this.
    from scipy import ndimage

    mask = (region.values >= 0.5) & ~grid.occupancy
    labels, n = ndimage.label(mask, structure=_CUBE)
    keep = {labels[start], labels[goal]} - {0}
    if not keep:
        raise EmptyRegionError(
            "filtering removed everything except the forced start/goal voxels"
        )
    mask = np.isin(labels, list(keep))
    mask[start] = True
    mask[goal] = True
    return HeuristicRegion(mask)


def connectivity_penalty(region: HeuristicRegion, delta: float) -> float:
    """Fragmentation penalty: sum over ordered member pairs (i, j in
    Neighbours(i)) of max(0, |p_i - p_j| - delta), distances in voxel units.

    Neighbours(i) is the 26-neighborhood restricted to region members; a
    member with no such neighbor falls back to its nearest region point, so
    isolated fragments are penalized rather than ignored.
    """
    # Imported here: scipy.spatial would add about a sixth to the import
    # time of quadplan, and no other function needs it.
    from scipy.spatial import cKDTree

    pts = region.member_indices().astype(float)
    if len(pts) <= 1:
        return 0.0
    tree = cKDTree(pts)
    total = 0.0
    # The pairs within sqrt(3) are exactly the 26-neighbours: on integer
    # coordinates a squared distance of at most 3 is at most 1 per axis.
    pairs = tree.query_pairs(np.sqrt(3.0) + 1e-9, output_type="ndarray")
    has_neighbor = np.zeros(len(pts), dtype=bool)
    if len(pairs):
        d = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        total += 2.0 * float(np.sum(np.maximum(0.0, d - delta)))
        has_neighbor[pairs[:, 0]] = True
        has_neighbor[pairs[:, 1]] = True
    isolated = np.flatnonzero(~has_neighbor)
    if len(isolated):
        d, _ = tree.query(pts[isolated], k=2)
        total += float(np.sum(np.maximum(0.0, d[:, 1] - delta)))
    return total


def safety_penalty(region: HeuristicRegion, grid: OccupancyGrid) -> float:
    """Sum over region members of sigmoid(p_i * e_i), e_i the occupancy bit."""
    if region.dims != grid.dims:
        raise ValueError("region/grid dims mismatch")
    members = region.values > 0.0
    x = region.values[members] * grid.occupancy[members]
    return float(np.sum(1.0 / (1.0 + np.exp(-x))))


def is_connected(region: HeuristicRegion, start, goal) -> bool:
    """True iff a 26-connected path of region voxels joins start to goal.
    A start or goal outside the region's dims is a ValueError."""
    start = _voxel(start, region.dims, "start")
    goal = _voxel(goal, region.dims, "goal")
    mask = region.mask
    if not (mask[start] and mask[goal]):
        return False
    from scipy import ndimage

    labels, _ = ndimage.label(mask, structure=_CUBE)
    return labels[start] == labels[goal]


def is_safe(region: HeuristicRegion, grid: OccupancyGrid) -> bool:
    """True iff at most one voxel is both a region member and occupied."""
    if region.dims != grid.dims:
        raise ValueError("region/grid dims mismatch")
    return int(np.count_nonzero(region.mask & grid.occupancy)) <= 1


class RegionSampler:
    """Value-weighted draws from a region: a member voxel with probability
    proportional to its value, then a uniform point inside that voxel.

    The grid's origin and resolution place the region's voxels in the world;
    a region of other dims is a ValueError. Cumulative weights are built
    once, so each draw is one O(log K) search. point maps four uniform
    doubles to a world point; sample draws them.
    """

    def __init__(self, region: HeuristicRegion, grid: OccupancyGrid):
        if region.dims != grid.dims:
            raise ValueError(f"region dims {region.dims} != grid dims {grid.dims}")
        idx = region.member_indices()
        if len(idx) == 0:
            raise EmptyRegionError("cannot sample from an empty region")
        w = region.values[idx[:, 0], idx[:, 1], idx[:, 2]].astype(float)
        self._idx = idx.tolist()
        self._cum = np.cumsum(w / w.sum()).tolist()
        self._origin = grid.origin.tolist()
        self._res = grid.resolution

    def point(self, u: float, a: float, b: float, c: float) -> tuple[float, float, float]:
        """The voxel whose cumulative-weight interval holds u, offset by
        (a, b, c) voxel sides from its lower corner."""
        k = min(bisect.bisect_right(self._cum, u), len(self._idx) - 1)
        i, j, l = self._idx[k]
        ox, oy, oz = self._origin
        res = self._res
        return ox + (i + a) * res, oy + (j + b) * res, oz + (l + c) * res

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        u = rng.random()
        return np.array(self.point(u, *rng.random(3).tolist()))


def save_region(region: HeuristicRegion, path) -> None:
    nx, ny, nz = region.dims
    with open(path, "wb") as f:
        f.write(_REGION_HEADER.pack(REGION_MAGIC, nx, ny, nz))
        f.write(np.asfortranarray(region.values).tobytes(order="F"))


def load_region(path) -> HeuristicRegion:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _REGION_HEADER.size:
        raise RegionFileError("truncated region header")
    magic, nx, ny, nz = _REGION_HEADER.unpack_from(raw)
    if magic != REGION_MAGIC:
        raise RegionFileError(f"bad magic {magic!r}; expected {REGION_MAGIC!r}")
    if min(nx, ny, nz) < 1:
        raise RegionFileError("malformed header: nonpositive dims")
    ncells = nx * ny * nz
    payload = raw[_REGION_HEADER.size :]
    if len(payload) != 4 * ncells:
        raise RegionFileError(f"value payload of {len(payload)} bytes, dims need {4 * ncells}")
    vals = np.frombuffer(payload, dtype="<f4").reshape((nx, ny, nz), order="F")
    try:
        return HeuristicRegion(vals)
    except ValueError as e:
        raise RegionFileError(str(e)) from e
