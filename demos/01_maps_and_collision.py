"""Occupancy grids: generation, exact collision queries, inflation, and the
binary map file format.

Run:  python3 demos/01_maps_and_collision.py
"""

import tempfile
from pathlib import Path

import numpy as np

from quadplan import (
    ObstacleSpec,
    inflate,
    load_grid,
    random_cluttered_map,
    save_grid,
    segment_collision_free,
)

# A seeded 20^3 map with 15-20 cuboid obstacles; the two corners we will fly
# between are guaranteed free.
spec = ObstacleSpec(count=(15, 20), size_min=(2, 2, 2), size_max=(4, 4, 6))
grid = random_cluttered_map(
    (20, 20, 20), resolution=1.0, spec=spec, seed=42,
    keep_free=[(1, 1, 1), (18, 18, 18)],
)
occupied = grid.occupancy.sum()
print(f"map: dims={grid.dims}, {occupied} occupied voxels "
      f"({100 * occupied / grid.occupancy.size:.1f}%)")

# Collision queries are exact grid walks, not point sampling: the verdict
# cannot miss a clipped voxel corner no matter how thin the crossing is.
a = grid.index_to_world((1, 1, 1))
b = grid.index_to_world((18, 18, 18))
print(f"straight flight {a} -> {b}: "
      f"{'free' if segment_collision_free(grid, a, b) else 'blocked'}")

# Obstacle inflation grows every obstacle by a Chebyshev radius, the usual
# cheap stand-in for vehicle radius in the front-end search.
fat = inflate(grid, 1)
print(f"after 1-voxel inflation: {fat.occupancy.sum()} occupied voxels")

# Maps round-trip bit-exactly through the binary format.
with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "demo.grid"
    save_grid(grid, path)
    back = load_grid(path)
    print(f"file round trip: {path.stat().st_size} bytes, "
          f"identical={back == grid}")
