"""Axis-aligned 3D occupancy grids.

Coordinate transforms, exact segment/voxel collision queries, obstacle
inflation, seeded random map generation and binary persistence.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

GRID_MAGIC = b"MNRGRID1"

# Dims are u32 on the wire; unpacked signed so corrupt negative values are
# rejected as malformed rather than misread as huge counts.
_GRID_HEADER = struct.Struct("<8s3id3d")


class MapFileError(ValueError):
    """Malformed header, wrong magic or a payload of another length than the
    header's dims need, in a grid file."""


class PlacementError(Exception):
    """Obstacle placement failed within the retry budget (over-dense spec)."""


def _read_only_copy(a, dtype) -> np.ndarray:
    """Read-only C-order copy of a as dtype: what a value object keeps of an
    array it is given, which no later write by the caller reaches."""
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GoalRegion:
    """Spherical goal set: reached when ||x - center|| < radius.

    center is a read-only copy of the array given, so a later write by the
    caller moves neither it nor the float tuple that contains reads. Two
    goals are equal, and hash alike, when that tuple and the radius are.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = _read_only_copy(self.center, float)
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise ValueError("goal center must be a finite 3-vector")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("goal radius must be positive and finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "_xyz", tuple(center.tolist()))

    def __eq__(self, other):
        if not isinstance(other, GoalRegion):
            return NotImplemented
        return (self._xyz, self.radius) == (other._xyz, other.radius)

    def __hash__(self):
        return hash((self._xyz, self.radius))

    def contains(self, p) -> bool:
        cx, cy, cz = self._xyz
        dx = float(p[0]) - cx
        dy = float(p[1]) - cy
        dz = float(p[2]) - cz
        return dx * dx + dy * dy + dz * dz < self.radius * self.radius


@dataclass(frozen=True, eq=False)
class OccupancyGrid:
    """Dense boolean voxel grid. True = obstacle. Immutable after construction:
    occupancy and origin are read-only copies of the arrays given.

    World/index convention: point p lies in voxel floor((p - origin) * inv)
    per axis, with inv = 1 / resolution, on Python floats. That is about the
    half-open box [origin + idx*resolution, origin + (idx+1)*resolution), so
    a point on a voxel's upper face lies in the next voxel. world_to_index,
    the voxel walk and collision repair all use this one map.
    """

    occupancy: np.ndarray
    resolution: float
    origin: np.ndarray = (0.0, 0.0, 0.0)

    def __post_init__(self):
        occ = _read_only_copy(self.occupancy, bool)
        if occ.ndim != 3 or min(occ.shape) < 1:
            raise ValueError("occupancy must be a 3D array with all dims >= 1")
        if not (self.resolution > 0 and math.isfinite(self.resolution)):
            raise ValueError("resolution must be positive and finite")
        origin = _read_only_copy(self.origin, float)
        if origin.shape != (3,) or not np.all(np.isfinite(origin)):
            raise ValueError("origin must be a finite 3-vector")
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "resolution", float(self.resolution))
        # Plain-float origin and inverse resolution: the voxel map's inputs.
        object.__setattr__(self, "_lo", tuple(origin.tolist()))
        object.__setattr__(self, "_inv", 1.0 / self.resolution)

    def __eq__(self, other):
        if not isinstance(other, OccupancyGrid):
            return NotImplemented
        return (
            self.resolution == other.resolution
            and np.array_equal(self.origin, other.origin)
            and np.array_equal(self.occupancy, other.occupancy)
        )

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.occupancy.shape

    @property
    def lower(self) -> np.ndarray:
        return self.origin

    @property
    def upper(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.resolution

    def world_to_index(self, p) -> tuple[int, int, int] | None:
        """Voxel index of world point p by the grid's voxel map, or None when
        out of bounds or not finite: bounds are tested before the cast (a NaN
        fails them), and int truncation is floor for u >= 0."""
        lx, ly, lz = self._lo
        inv = self._inv
        nx, ny, nz = self.occupancy.shape
        ux = (float(p[0]) - lx) * inv
        uy = (float(p[1]) - ly) * inv
        uz = (float(p[2]) - lz) * inv
        if not (0.0 <= ux < nx and 0.0 <= uy < ny and 0.0 <= uz < nz):
            return None
        return (int(ux), int(uy), int(uz))

    def index_to_world(self, idx) -> np.ndarray:
        """World coordinates of the voxel center."""
        return self.origin + (np.asarray(idx, dtype=float) + 0.5) * self.resolution

    def is_free_world(self, p) -> bool:
        """Point query; out of bounds counts as occupied."""
        idx = self.world_to_index(p)
        if idx is None:
            return False
        return not self.occupancy[idx]

    def free_voxel_count(self) -> int:
        return int(self.occupancy.size - np.count_nonzero(self.occupancy))

    def free_measure(self) -> float:
        """Lebesgue measure of free space, estimated voxel-wise (m^3)."""
        return self.free_voxel_count() * self.resolution**3


def segment_collision_free(grid: OccupancyGrid, a, b) -> bool:
    """True iff every voxel traversed by segment a->b is in-bounds and free.

    An Amanatides-Woo grid walk in scalar math (the hot path), with the voxel
    map of OccupancyGrid: it returns False when an end voxel is out of bounds
    or on the first occupied voxel, so on an empty grid (a convex box) the
    verdict is whether both endpoints lie inside. A NaN or infinite
    coordinate raises from math.floor. Unrolled per axis into plain locals:
    on ties the walk steps x before y before z."""
    occ = grid.occupancy
    nx, ny, nz = occ.shape
    lx, ly, lz = grid._lo
    inv = grid._inv
    # Voxel-space coordinates of both endpoints.
    ux = (float(a[0]) - lx) * inv
    uy = (float(a[1]) - ly) * inv
    uz = (float(a[2]) - lz) * inv
    vx = (float(b[0]) - lx) * inv
    vy = (float(b[1]) - ly) * inv
    vz = (float(b[2]) - lz) * inv
    ix = math.floor(ux)
    iy = math.floor(uy)
    iz = math.floor(uz)
    ex = math.floor(vx)
    ey = math.floor(vy)
    ez = math.floor(vz)
    if not (0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz
            and 0 <= ex < nx and 0 <= ey < ny and 0 <= ez < nz):
        return False
    if occ[ix, iy, iz]:
        return False
    # Per axis: voxel step, steps left to the end voxel, parameter t of the
    # next face crossing, and the t between crossings. An axis with no steps
    # left never crosses again (t = inf), so the walk ends in the end voxel
    # named by the floor convention even when a crossing parameter lands
    # exactly on 1 or rounds past it.
    d = vx - ux
    cx = abs(ex - ix)
    if cx == 0:
        sx, tdx, tmx = 0, math.inf, math.inf
    elif d > 0.0:
        sx, tdx, tmx = 1, 1.0 / d, (ix + 1.0 - ux) / d
    else:
        sx, tdx, tmx = -1, -1.0 / d, (ix - ux) / d
    d = vy - uy
    cy = abs(ey - iy)
    if cy == 0:
        sy, tdy, tmy = 0, math.inf, math.inf
    elif d > 0.0:
        sy, tdy, tmy = 1, 1.0 / d, (iy + 1.0 - uy) / d
    else:
        sy, tdy, tmy = -1, -1.0 / d, (iy - uy) / d
    d = vz - uz
    cz = abs(ez - iz)
    if cz == 0:
        sz, tdz, tmz = 0, math.inf, math.inf
    elif d > 0.0:
        sz, tdz, tmz = 1, 1.0 / d, (iz + 1.0 - uz) / d
    else:
        sz, tdz, tmz = -1, -1.0 / d, (iz - uz) / d
    # One step per remaining count. Each axis steps exactly its count toward
    # the end voxel, so every voxel visited lies between the two end voxels,
    # which both passed the bounds test above.
    for _ in range(cx + cy + cz):
        if tmx <= tmy and tmx <= tmz:
            ix += sx
            cx -= 1
            tmx = tmx + tdx if cx else math.inf
        elif tmy <= tmz:
            iy += sy
            cy -= 1
            tmy = tmy + tdy if cy else math.inf
        else:
            iz += sz
            cz -= 1
            tmz = tmz + tdz if cz else math.inf
        if occ[ix, iy, iz]:
            return False
    return True


def inflate(grid: OccupancyGrid, radius_voxels: int) -> OccupancyGrid:
    """Chebyshev (cube) dilation of the occupied set by radius_voxels."""
    if radius_voxels < 0:
        raise ValueError("radius_voxels must be nonnegative")
    if radius_voxels == 0 or not grid.occupancy.any():
        return grid
    # Imported here: scipy.ndimage costs about 100 ms and 5 MB on import,
    # and only inflation, region filtering and is_connected use it.
    from scipy import ndimage

    size = 2 * radius_voxels + 1
    occ = ndimage.binary_dilation(grid.occupancy, structure=np.ones((size,) * 3, dtype=bool))
    return OccupancyGrid(occ, grid.resolution, grid.origin)


@dataclass(frozen=True)
class ObstacleSpec:
    """Cuboid obstacle population for random map generation (voxel units).

    count, size_min and size_max are kept as tuples of ints, so no later
    write by the caller reaches a checked value; an integral count n is the
    range (n, n).
    """

    count: tuple[int, int]
    size_min: tuple[int, int, int]
    size_max: tuple[int, int, int]
    max_retries: int = 100

    def __post_init__(self):
        count = (self.count, self.count) if isinstance(self.count, numbers.Integral) else self.count
        ranges = (("count", count, 2), ("size_min", self.size_min, 3), ("size_max", self.size_max, 3))
        for name, value, n in ranges:
            ints = np.ndim(value) == 1 and all(isinstance(c, numbers.Integral) for c in value)
            if not ints or len(value) != n:
                raise ValueError(f"{name} must hold {n} integers, got {value!r}")
            object.__setattr__(self, name, tuple(map(int, value)))
        lo, hi = self.count
        if not (0 <= lo <= hi):
            raise ValueError("bad obstacle count range")
        if min(self.size_min) < 1 or any(a < b for a, b in zip(self.size_max, self.size_min)):
            raise ValueError("bad cuboid size range")


def random_cluttered_map(
    dims,
    resolution: float,
    spec: ObstacleSpec,
    seed: int,
    origin=(0.0, 0.0, 0.0),
    keep_free=(),
) -> OccupancyGrid:
    """Seeded random map of axis-aligned cuboid obstacles.

    Voxels listed in keep_free (index triples) are guaranteed unoccupied:
    an obstacle overlapping one is re-rolled, up to spec.max_retries times
    before PlacementError. Identical seeds give bit-identical maps.
    """
    dims = np.asarray(dims, dtype=int)
    occ = np.zeros(tuple(dims), dtype=bool)
    keep = [tuple(int(c) for c in v) for v in keep_free]
    rng = np.random.default_rng(seed)
    lo, hi = spec.count
    n = lo if lo == hi else int(rng.integers(lo, hi + 1))
    smin = np.asarray(spec.size_min, dtype=int)
    smax = np.asarray(spec.size_max, dtype=int)
    for _ in range(n):
        for _attempt in range(spec.max_retries):
            size = rng.integers(smin, smax + 1)
            size = np.minimum(size, dims)
            corner = rng.integers(0, dims - size + 1)
            sl = tuple(slice(int(c), int(c + s)) for c, s in zip(corner, size))
            if any(
                all(sl[ax].start <= v[ax] < sl[ax].stop for ax in range(3)) for v in keep
            ):
                continue
            occ[sl] = True
            break
        else:
            raise PlacementError(
                f"could not place obstacle after {spec.max_retries} retries"
            )
    return OccupancyGrid(occ, resolution, origin)


def save_grid(grid: OccupancyGrid, path) -> None:
    """Binary format: magic, u32 dims, f64 resolution, f64 origin, then the
    occupancy bits x-fastest, LSB-first (see load_grid for validation)."""
    nx, ny, nz = grid.dims
    header = _GRID_HEADER.pack(GRID_MAGIC, nx, ny, nz, grid.resolution, *grid.origin)
    bits = np.packbits(grid.occupancy.ravel(order="F"), bitorder="little")
    with open(path, "wb") as f:
        f.write(header)
        f.write(bits.tobytes())


def load_grid(path) -> OccupancyGrid:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _GRID_HEADER.size:
        raise MapFileError("truncated grid header")
    magic, nx, ny, nz, res, ox, oy, oz = _GRID_HEADER.unpack_from(raw)
    if magic != GRID_MAGIC:
        raise MapFileError(f"bad magic {magic!r}; expected {GRID_MAGIC!r}")
    if min(nx, ny, nz) < 1:
        raise MapFileError("malformed header: nonpositive dims")
    ncells = nx * ny * nz
    payload = raw[_GRID_HEADER.size :]
    nbytes = (ncells + 7) // 8
    if len(payload) != nbytes:
        raise MapFileError(f"occupancy payload of {len(payload)} bytes, dims need {nbytes}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")[:ncells]
    occ = bits.astype(bool).reshape((nx, ny, nz), order="F")
    try:
        return OccupancyGrid(occ, res, (ox, oy, oz))
    except ValueError as e:
        raise MapFileError(f"malformed header: {e}") from e
