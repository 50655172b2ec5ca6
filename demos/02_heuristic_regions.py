"""Heuristic promising regions: the A*-plus-dilation oracle, the region
quality metrics, and value-weighted sampling.

Run:  python3 demos/02_heuristic_regions.py
"""

import numpy as np

from quadplan import (
    ObstacleSpec,
    RegionSampler,
    connectivity_penalty,
    filter_region,
    is_connected,
    is_safe,
    oracle_region,
    random_cluttered_map,
    safety_penalty,
)

spec = ObstacleSpec(count=(15, 20), size_min=(2, 2, 2), size_max=(4, 4, 6))
grid = random_cluttered_map(
    (20, 20, 20), 1.0, spec, seed=7, keep_free=[(1, 1, 1), (18, 18, 18)]
)
start, goal = (1, 1, 1), (18, 18, 18)

# The oracle region is the shortest 26-connected grid path dilated into
# 3x3x3 cubes, with obstacle voxels zeroed out. It plays the role of a
# trained region predictor, which would be plugged in through the region
# file format instead.
region = oracle_region(grid, start, goal)
print(f"oracle region: {int(region.values.sum())} member voxels")
print(f"  is_connected = {is_connected(region, start, goal)}")
print(f"  is_safe      = {is_safe(region, grid)}")

# The two penalty metrics score fragmentation and obstacle overlap. For the
# oracle both are at their floor: no fragment is farther than the 26-neighbor
# distance and no member voxel sits on an obstacle (so each contributes the
# sigmoid-at-zero baseline of 0.5).
members = int(region.values.sum())
print(f"  connectivity_penalty(delta=sqrt(3)) = "
      f"{connectivity_penalty(region, np.sqrt(3.0)):.3f}")
print(f"  safety_penalty = {safety_penalty(region, grid):.1f} "
      f"(= {members}/2 exactly)")

# Filtering is what the planner actually consumes: binarized, obstacle-free,
# restricted to the start/goal components.
usable = filter_region(region, grid, start, goal)
print(f"filtered region: {int(usable.values.sum())} member voxels")

# Sampling draws voxels proportionally to value, then uniformly inside; the
# grid places the region's voxels in the world.
rng = np.random.default_rng(0)
sampler = RegionSampler(usable, grid)
pts = np.array([sampler.sample(rng) for _ in range(1000)])
inside = sum(usable.values[grid.world_to_index(p)] > 0 for p in pts)
print(f"1000 samples: {inside} landed in member voxels (expected: all)")
