"""Options inventory: the settable values of the public API, pinned.

Every config field and keyword parameter is something a caller can set and
the library must keep working. A new one has to be added here on purpose,
and named in CHANGES.md; one that no caller sets should become a constant.
The package's public names are pinned the same way.
"""

import dataclasses
import inspect
import types

import pytest

import quadplan
from quadplan.bench import run_benchmark, run_trial
from quadplan.grid import GoalRegion
from quadplan.pipeline import (
    PipelineConfig,
    flat_flag_at,
    plan_front_end,
    plan_trajectory,
    prune_collinear,
    yaw_samples,
)
from quadplan.planner import PlannerConfig, SearchTree, extend_and_rewire, plan
from quadplan.regions import astar_path, filter_region
from quadplan.trajectory import BivpSpec, PiecewisePolynomial, collision_repair

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
