"""Hierarchical quadrotor trajectory planning on 3D occupancy grids.

Front end: RRT* with uniform, informed-set, or heuristic-region-biased
sampling. Back end: minimum jerk/snap piecewise polynomials from a
linear-time banded solve, with trapezoidal time allocation and iterative
collision repair.
"""

from .grid import (
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
from .regions import (
    EmptyRegionError,
    HeuristicRegion,
    NoPathError,
    RegionFileError,
    RegionSampler,
    astar_path,
    connectivity_penalty,
    filter_region,
    is_connected,
    is_safe,
    load_region,
    oracle_region,
    safety_penalty,
    save_region,
)
from .planner import (
    PlannerConfig,
    PlanResult,
    PlanStats,
    SearchTree,
    extend_and_rewire,
    informed_sample,
    plan,
    rewire_radius_bound,
    save_path,
    shrinking_radius,
)
from .trajectory import (
    BandedSystem,
    BivpSpec,
    DomainError,
    PiecewisePolynomial,
    RepairExhaustedError,
    SingularSystemError,
    TrajectoryFileError,
    banded_plu_solve,
    build_banded_system,
    collision_repair,
    control_effort,
    export_csv,
    load_trajectory,
    save_trajectory,
    solve_bivp,
    trapezoidal_time_allocation,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    PlanningFailure,
    flat_flag_at,
    plan_front_end,
    plan_trajectory,
    prune_collinear,
    yaw_samples,
)
from .bench import (
    AggregateReport,
    BenchCase,
    TrialRecord,
    paperlike_maps,
    run_benchmark,
    run_trial,
    write_report,
)

__version__ = "0.1.0"
