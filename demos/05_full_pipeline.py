"""End to end: heuristic-biased RRT* front end, minimum-jerk back end with
collision repair, flat flags and yaw, CSV export.

Run:  python3 demos/05_full_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from quadplan import (
    GoalRegion,
    ObstacleSpec,
    PipelineConfig,
    PlannerConfig,
    export_csv,
    flat_flag_at,
    plan_trajectory,
    random_cluttered_map,
    segment_collision_free,
    yaw_samples,
)

spec = ObstacleSpec(count=(12, 16), size_min=(2, 2, 2), size_max=(4, 4, 5))
grid = random_cluttered_map(
    (20, 20, 20), 1.0, spec, seed=21, keep_free=[(1, 1, 1), (18, 18, 18)]
)
start = grid.index_to_world((1, 1, 1))
goal = GoalRegion(grid.index_to_world((18, 18, 18)), radius=1.5)

cfg = PipelineConfig(
    planner=PlannerConfig(step=2.0, goal=goal, max_iterations=30_000, rng_seed=5),
    s=3, v_max=2.0, a_max=1.0,
)
result = plan_trajectory(grid, start, goal, cfg)
traj = result.trajectory

st = result.stats
print(f"front end: first solution after {st.initial_iterations} iterations "
      f"(cost {st.initial_cost:.2f}), final cost {result.cost:.2f}")
print(f"back end: {traj.M} segments over {traj.total_duration:.1f} s "
      f"({len(result.path)} waypoints before repair)")

# Verify the result the same way the acceptance tests do: densely sample the
# curve (one sample call reads the positions at all times) and run every
# chord through the exact collision checker.
ts = np.linspace(0.0, traj.total_duration, 2000)
pts = traj.sample(ts, 1)[:, 0, :]
free = all(segment_collision_free(grid, a, b) for a, b in zip(pts[:-1], pts[1:]))
print(f"dense collision check over {len(ts)} samples: "
      f"{'clean' if free else 'COLLIDING'}")

# The flat flag stacks position and derivatives; at t=0 it reproduces the
# rest-to-rest boundary condition exactly.
flag = flat_flag_at(traj, 0.0)
print(f"flat flag at t=0: position {flag[:, 0]}, velocity {flag[:, 1]}")

# A yaw profile aligned with the velocity direction, holding through hover.
yaws = yaw_samples(traj, np.linspace(0.0, traj.total_duration, 9))
print("yaw profile (rad):", np.round(yaws, 2))

with tempfile.TemporaryDirectory() as d:
    csv_path = Path(d) / "trajectory.csv"
    export_csv(traj, csv_path, dt=0.02)
    n = len(csv_path.read_text().splitlines()) - 1
    print(f"exported {n} samples at 50 Hz to CSV")
