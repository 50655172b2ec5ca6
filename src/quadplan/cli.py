"""Command-line entry point: plan / bench / genmap / region / traj-export."""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from . import bench as bench_mod
from .grid import GoalRegion, ObstacleSpec, load_grid, random_cluttered_map, save_grid
from .pipeline import PipelineConfig, plan_trajectory
from .planner import MODES, PlannerConfig, save_path
from .regions import load_region, oracle_region, save_region
from .trajectory import control_effort, export_csv, load_trajectory, save_trajectory


def _triple(text: str, cast=float):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected X,Y,Z, got {text!r}")
    return tuple(cast(p) for p in parts)


def _default(fn, name: str):
    """The default that fn declares for its parameter name."""
    return inspect.signature(fn).parameters[name].default


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quadplan", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a trajectory on a stored map")
    p.add_argument("--map", required=True)
    p.add_argument("--region", help="external heuristic region file (heuristic mode only)")
    p.add_argument("--start", required=True, type=_triple)
    p.add_argument("--goal", required=True, type=_triple)
    p.add_argument("--goal-radius", type=float, default=1.0)
    p.add_argument("--mode", choices=MODES, default=_default(plan_trajectory, "mode"))
    p.add_argument("--mu1", type=float, default=PlannerConfig.mu1)
    p.add_argument("--mu2", type=float, default=PlannerConfig.mu2)
    p.add_argument("--step", type=float)
    p.add_argument("--max-iter", type=int, default=30000)
    p.add_argument("--target-cost", type=float)
    p.add_argument("--s", type=int, choices=(3, 4), default=PipelineConfig.s)
    p.add_argument("--vmax", type=float, default=PipelineConfig.v_max)
    p.add_argument("--amax", type=float, default=PipelineConfig.a_max)
    p.add_argument("--inflate", type=int, default=PipelineConfig.inflate_radius)
    p.add_argument("--seed", type=int, default=PlannerConfig.rng_seed)
    p.add_argument("--out", required=True, help="trajectory output file")
    p.add_argument("--path-out", help="optional waypoint path output file")

    b = sub.add_parser("bench", help="Monte Carlo planner comparison on paperlike maps")
    b.add_argument("--n-maps", type=int, default=20)
    b.add_argument("--modes", default="heuristic,uniform")
    b.add_argument("--trials", type=int, default=50)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--step", type=float, default=_default(bench_mod.run_trial, "step"))
    b.add_argument("--max-iter", type=int, default=_default(bench_mod.run_trial, "max_iterations"))
    b.add_argument("--workers", type=int, default=_default(bench_mod.run_benchmark, "workers"))
    b.add_argument("--report", required=True, help="per-trial CSV output")

    g = sub.add_parser("genmap", help="generate a random cluttered map")
    g.add_argument("--dims", required=True, type=lambda s: _triple(s, int))
    g.add_argument("--resolution", type=float, default=1.0)
    g.add_argument("--count", type=int, default=15)
    g.add_argument("--size-min", type=lambda s: _triple(s, int), default=(2, 2, 2))
    g.add_argument("--size-max", type=lambda s: _triple(s, int), default=(4, 4, 6))
    g.add_argument("--keep-free", type=lambda s: _triple(s, int), action="append", default=[])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    r = sub.add_parser("region", help="compute the oracle heuristic region")
    r.add_argument("--map", required=True)
    r.add_argument("--start", required=True, type=lambda s: _triple(s, int))
    r.add_argument("--goal", required=True, type=lambda s: _triple(s, int))
    r.add_argument("--out", required=True)

    t = sub.add_parser("traj-export", help="sample a trajectory file to CSV")
    t.add_argument("--traj", required=True)
    t.add_argument("--dt", type=float, default=0.02)
    t.add_argument("--out", required=True)
    return ap


def _cmd_plan(args) -> int:
    grid = load_grid(args.map)
    goal = GoalRegion(np.asarray(args.goal), args.goal_radius)
    step = args.step if args.step is not None else 2.0 * grid.resolution
    cfg = PipelineConfig(
        planner=PlannerConfig(
            step=step,
            goal=goal,
            max_iterations=args.max_iter,
            mu1=args.mu1,
            mu2=args.mu2,
            target_cost=args.target_cost,
            rng_seed=args.seed,
        ),
        s=args.s,
        v_max=args.vmax,
        a_max=args.amax,
        inflate_radius=args.inflate,
    )
    region = load_region(args.region) if args.region else None
    result = plan_trajectory(grid, np.asarray(args.start), goal, cfg, args.mode, region)
    traj, stats = result.trajectory, result.stats
    save_trajectory(traj, args.out)
    if args.path_out:
        save_path(result.path, result.cost, stats.initial_iterations or 0, args.path_out)
    print(
        f"success: cost={result.cost:.3f} init_iter={stats.initial_iterations} "
        f"init_time={1e3 * (stats.initial_time or 0):.2f}ms "
        f"effort={control_effort(traj):.3f}"
    )
    return 0


def _cmd_bench(args) -> int:
    cases = bench_mod.paperlike_maps(args.n_maps, seed=args.seed)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    report = bench_mod.run_benchmark(
        cases,
        modes,
        trials=args.trials,
        seed_base=args.seed,
        report_path=args.report,
        workers=args.workers,
        step=args.step,
        max_iterations=args.max_iter,
    )
    for (name, mode), agg in sorted(report.summary.items()):
        print(
            f"{name} {mode}: success={agg['success_rate']:.2f} "
            f"median_init_iter={agg['median_init_iter']:.1f} "
            f"median_init_cost={agg['median_init_cost']:.2f}"
        )
    return 0


def _cmd_genmap(args) -> int:
    spec = ObstacleSpec(count=args.count, size_min=args.size_min, size_max=args.size_max)
    grid = random_cluttered_map(
        args.dims, args.resolution, spec, seed=args.seed, keep_free=args.keep_free
    )
    save_grid(grid, args.out)
    frac = 1.0 - grid.free_voxel_count() / grid.occupancy.size
    print(f"wrote {args.out}: dims={grid.dims} occupied_fraction={frac:.3f}")
    return 0


def _cmd_region(args) -> int:
    grid = load_grid(args.map)
    region = oracle_region(grid, args.start, args.goal)
    save_region(region, args.out)
    print(f"wrote {args.out}: {int(np.count_nonzero(region.values))} member voxels")
    return 0


def _cmd_traj_export(args) -> int:
    traj = load_trajectory(args.traj)
    export_csv(traj, args.out, args.dt)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "bench": _cmd_bench,
    "genmap": _cmd_genmap,
    "region": _cmd_region,
    "traj-export": _cmd_traj_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
