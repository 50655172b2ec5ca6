"""Options inventory: the settable values of the public API, pinned.

Every config field and keyword parameter is something a caller can set and
the library must keep working. A new one has to be added here on purpose,
and named in CHANGES.md; one that no caller sets should become a constant.
The package's public names are pinned the same way.
"""

import dataclasses
import inspect
import types

import numpy as np
import pytest

import quadplan
from quadplan.bench import AggregateReport, run_benchmark, run_trial
from quadplan.grid import GoalRegion, MapFileError, ObstacleSpec, OccupancyGrid, load_grid
from quadplan.pipeline import (
    PipelineConfig,
    flat_flag_at,
    plan_front_end,
    plan_trajectory,
    prune_collinear,
    yaw_samples,
)
from quadplan.planner import PlannerConfig, SearchTree, extend_and_rewire, plan
from quadplan.regions import HeuristicRegion, RegionFileError, astar_path, filter_region, load_region
from quadplan.trajectory import (
    BivpSpec,
    PiecewisePolynomial,
    TrajectoryFileError,
    collision_repair,
    load_trajectory,
)

REQUIRED = inspect.Parameter.empty


def _fields(cls):
    """The fields a caller sets: those the constructor takes."""
    return [
        (f.name, REQUIRED if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls) if f.init
    ]


def _params(fn):
    out = []
    for p in inspect.signature(fn).parameters.values():
        if p.name == "self":
            continue
        name = "**" + p.name if p.kind is p.VAR_KEYWORD else p.name
        out.append((name, p.default))
    return out


def test_config_fields_are_pinned():
    assert _fields(PlannerConfig) == [
        ("step", REQUIRED),
        ("goal", REQUIRED),
        ("max_iterations", REQUIRED),
        ("mu1", 0.5),
        ("mu2", 0.9),
        ("target_cost", None),
        ("gamma_rrt", None),
        ("rng_seed", 0),
    ]
    assert _fields(PipelineConfig) == [
        ("planner", REQUIRED),
        ("s", 3),
        ("v_max", 2.0),
        ("a_max", 1.0),
        ("inflate_radius", 0),
    ]
    assert _fields(GoalRegion) == [("center", REQUIRED), ("radius", REQUIRED)]
    assert _fields(AggregateReport) == [("records", REQUIRED)]


def test_back_end_fields_are_pinned():
    """A spec's waypoints own its positions (a flag's column 0 restates
    them), and a trajectory's order s is half its coefficient width, so s
    is no constructor argument of PiecewisePolynomial."""
    assert _fields(BivpSpec) == [
        ("s", REQUIRED),
        ("waypoints", REQUIRED),
        ("durations", REQUIRED),
        ("boundary_start", None),
        ("boundary_end", None),
        ("intermediate", None),
    ]
    assert _fields(PiecewisePolynomial) == [("coeffs", REQUIRED), ("durations", REQUIRED)]


def _checked_inputs():
    """Each checked input's class and constructor arguments, the arrays and
    lists among them still held by the caller."""
    goal = GoalRegion(np.array([1.0, 2.0, 3.0]), 1.0)
    planner = PlannerConfig(step=1.0, goal=goal, max_iterations=10)
    wp = np.array([[0.0, 0, 0], [1, 0, 0], [2, 1, 0]])
    return [
        (GoalRegion, {"center": np.array([1.0, 2.0, 3.0]), "radius": 1.0}),
        (OccupancyGrid, {"occupancy": np.zeros((2, 2, 2), dtype=bool), "resolution": 1.0,
                         "origin": np.zeros(3)}),
        (HeuristicRegion, {"values": np.ones((2, 2, 2), dtype=np.float32)}),
        (ObstacleSpec, {"count": [1, 2], "size_min": [1, 1, 1], "size_max": [2, 2, 2]}),
        (BivpSpec, {"s": 3, "waypoints": wp, "durations": np.ones(2),
                    "boundary_start": np.column_stack([wp[0], np.zeros((3, 2))]),
                    "boundary_end": np.column_stack([wp[2], np.zeros((3, 2))]),
                    "intermediate": [np.column_stack([wp[1], np.ones(3)])]}),
        (PiecewisePolynomial, {"coeffs": np.zeros((2, 6, 3)), "durations": np.ones(2)}),
        (PlannerConfig, {"step": 1.0, "goal": goal, "max_iterations": 10}),
        (PipelineConfig, {"planner": planner}),
    ]


def test_checked_inputs_are_frozen():
    """A checked input keeps what its check saw: the class is frozen, every
    field assignment is an error (dataclasses.replace is the way to change
    one), and an array or list given is kept as a read-only array or a
    tuple that is not the caller's object."""
    for cls, kwargs in _checked_inputs():
        obj = cls(**kwargs)
        assert cls.__dataclass_params__.frozen, cls
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
        for name, given in kwargs.items():
            pairs = zip(getattr(obj, name), given) if name == "intermediate" else [(getattr(obj, name), given)]
            for kept, mine in pairs:
                if isinstance(mine, np.ndarray):
                    assert not kept.flags.writeable, (cls, name)
                    assert not np.shares_memory(kept, mine), (cls, name)
                elif isinstance(mine, list):
                    assert type(kept) is tuple, (cls, name)
        if cls is BivpSpec:
            assert type(obj.intermediate) is tuple


def test_file_errors_are_value_errors(tmp_path):
    """One except ValueError catches a malformed file of each format."""
    bad = tmp_path / "bad"
    bad.write_bytes(b"not a quadplan file")
    for load, error in ((load_grid, MapFileError), (load_region, RegionFileError),
                        (load_trajectory, TrajectoryFileError)):
        assert issubclass(error, ValueError)
        with pytest.raises(ValueError) as info:
            load(bad)
        assert type(info.value) is error


_SIGNATURES = {
    plan: [("grid", REQUIRED), ("start", REQUIRED), ("cfg", REQUIRED),
           ("mode", "uniform"), ("region", None)],
    plan_front_end: [("grid", REQUIRED), ("start", REQUIRED), ("planner_cfg", REQUIRED),
                     ("mode", "heuristic"), ("region", None)],
    plan_trajectory: [("grid", REQUIRED), ("start", REQUIRED), ("goal", REQUIRED),
                      ("cfg", REQUIRED), ("mode", "heuristic"), ("region", None)],
    prune_collinear: [("waypoints", REQUIRED)],
    filter_region: [("region", REQUIRED), ("grid", REQUIRED), ("start", REQUIRED),
                    ("goal", REQUIRED)],
    yaw_samples: [("traj", REQUIRED), ("times", REQUIRED)],
    SearchTree: [("root", REQUIRED)],
    extend_and_rewire: [("tree", REQUIRED), ("x_new", REQUIRED), ("grid", REQUIRED),
                        ("radius", REQUIRED), ("d2", REQUIRED)],
    astar_path: [("grid", REQUIRED), ("start", REQUIRED), ("goal", REQUIRED)],
    run_trial: [("case", REQUIRED), ("mode", REQUIRED), ("seed", REQUIRED), ("step", 2.0),
                ("max_iterations", 30000), ("target_cost", None)],
    run_benchmark: [("cases", REQUIRED), ("modes", REQUIRED), ("trials", REQUIRED),
                    ("seed_base", 0), ("report_path", None), ("workers", 1),
                    ("**trial_kwargs", REQUIRED)],
    collision_repair: [("traj", REQUIRED), ("spec", REQUIRED), ("grid", REQUIRED),
                       ("v_max", REQUIRED), ("a_max", REQUIRED)],
    PiecewisePolynomial.sample: [("ts", REQUIRED), ("orders", REQUIRED)],
    PiecewisePolynomial.derivatives: [("t", REQUIRED), ("orders", REQUIRED)],
    PiecewisePolynomial.eval: [("t", REQUIRED), ("k", 0)],
    flat_flag_at: [("traj", REQUIRED), ("t", REQUIRED)],
}


@pytest.mark.parametrize("fn", list(_SIGNATURES), ids=lambda fn: fn.__name__)
def test_keyword_parameters_are_pinned(fn):
    assert _params(fn) == _SIGNATURES[fn]


PUBLIC_NAMES = [
    "AggregateReport", "BandedSystem", "BenchCase", "BivpSpec", "DomainError",
    "EmptyRegionError", "GoalRegion", "HeuristicRegion", "MapFileError", "NoPathError",
    "ObstacleSpec", "OccupancyGrid", "PiecewisePolynomial", "PipelineConfig",
    "PipelineResult", "PlacementError", "PlanResult", "PlanStats", "PlannerConfig",
    "PlanningFailure", "RegionFileError", "RegionSampler", "RepairExhaustedError",
    "SearchTree", "SingularSystemError", "TrajectoryFileError", "TrialRecord",
    "astar_path", "banded_plu_solve", "build_banded_system", "collision_repair",
    "connectivity_penalty", "control_effort", "export_csv", "extend_and_rewire",
    "filter_region", "flat_flag_at", "inflate", "informed_sample", "is_connected",
    "is_safe", "load_grid", "load_region", "load_trajectory", "oracle_region",
    "paperlike_maps", "plan", "plan_front_end", "plan_trajectory", "prune_collinear",
    "random_cluttered_map", "rewire_radius_bound", "run_benchmark", "run_trial",
    "safety_penalty", "save_grid", "save_path", "save_region", "save_trajectory",
    "segment_collision_free", "solve_bivp",
    "trapezoidal_time_allocation", "write_report", "yaw_samples",
]


def test_public_names_are_pinned():
    """The names quadplan exports, submodules aside: adding or removing one
    is a deliberate change to this list."""
    names = sorted(
        name for name, value in vars(quadplan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
