"""The RRT* front end: uniform, informed-set, and heuristic-region-biased
sampling on the same cluttered map.

Run:  python3 demos/03_planner_modes.py
"""

import numpy as np

from quadplan import (
    GoalRegion,
    ObstacleSpec,
    PlannerConfig,
    oracle_region,
    plan,
    random_cluttered_map,
)

spec = ObstacleSpec(count=(15, 20), size_min=(2, 2, 2), size_max=(4, 4, 6))
grid = random_cluttered_map(
    (25, 25, 25), 1.0, spec, seed=11, keep_free=[(1, 1, 1), (23, 23, 23)]
)
start = grid.index_to_world((1, 1, 1))
goal = GoalRegion(grid.index_to_world((23, 23, 23)), radius=2.0)
# The oracle's region is already binary, obstacle-free and connected, so it
# needs no filter_region pass (a predicted region would).
region = oracle_region(grid, (1, 1, 1), (23, 23, 23))

print(f"{'mode':<10} {'init iter':>9} {'init cost':>9} {'final cost':>10} "
      f"{'nodes':>6}")
for mode in ("uniform", "informed", "heuristic"):
    cfg = PlannerConfig(step=2.0, goal=goal, max_iterations=30_000, rng_seed=1)
    result = plan(
        grid, start, cfg, mode=mode,
        region=region if mode == "heuristic" else None,
    )
    st = result.stats
    print(f"{mode:<10} {st.initial_iterations:>9} {st.initial_cost:>9.2f} "
          f"{result.cost:>10.2f} {result.tree.n:>6}")

print()
print("The heuristic mode reaches a first solution in a fraction of the")
print("iterations because 90% of its samples fall inside the promising")
print("region until the goal is connected (then 50%, to keep refining")
print("globally). Uniform sampling has to discover the corridor by chance.")
