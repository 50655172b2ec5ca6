"""Output pins: digests of small fixed runs, compared with golden_digests.json.

The runs are the benchmark's three workloads on a few inputs each, hashed
with each workload's own digest, and plan_trajectory in uniform and informed
mode (which no workload runs) on a few paperlike maps. The uniform_budget
digest pins only the path, its cost and the vertex count, so the trees of
its inputs are hashed whole as well: points, parents and costs. The reads
that no workload makes are pinned on the backend inputs' trajectories:
yaw_samples at the flag times and the export_csv file. A change that claims
bit-identical outputs must leave every digest as it is. A change that
alters outputs on purpose rewrites the file with

    PYTHONPATH=src:benchmarks python tests/test_golden_digests.py

and lists the old and new digests of what it changed. The file records the
Python, numpy and scipy versions it was made with; a mismatch prints both
environments, so that a platform difference (libm pow, LAPACK) can be told
apart from a regression.
"""

import hashlib
import json
from functools import partial
import platform
import tempfile
from pathlib import Path

import numpy as np
import scipy
import workloads as W

from quadplan.bench import paperlike_maps
from quadplan.pipeline import PipelineConfig, plan_trajectory, yaw_samples
from quadplan.planner import PlannerConfig
from quadplan.trajectory import export_csv

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEED = 1
PIPELINE = W.Pipeline(n_maps=12)
UNIFORM = W.UniformBudget(n_maps=2)
BACKEND = W.Backend(n_maps=3, planner_seeds=1)
WORKLOADS = (PIPELINE, UNIFORM, BACKEND)
MODE_MAPS = 3
MODE_ITERATIONS = 3000
CSV_DT = 0.05


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _outcome(digest, run) -> str:
    """The digest of run()'s output in hex, or the name of the expected
    failure it raised."""
    try:
        return digest(run()).hex()
    except W.FAILURE_TYPES as e:
        return type(e).__name__


def _tree_digest(result) -> bytes:
    tree = result.tree
    h = hashlib.sha256(np.ascontiguousarray(tree.points).tobytes())
    h.update(np.asarray(tree.parent, dtype=np.int64).tobytes())
    h.update(np.asarray(tree.cost[: tree.n], dtype=float).tobytes())
    return h.digest()


def _reads_digest(out) -> bytes:
    """Each backend trajectory's yaw_samples at the flag times and its
    export_csv file at CSV_DT."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        for traj, _, _ in out:
            times = np.arange(0.0, traj.total_duration, 1.0 / W.FLAG_RATE_HZ)
            h.update(yaw_samples(traj, times).tobytes())
            export_csv(traj, path, CSV_DT)
            h.update(path.read_bytes())
    return h.digest()


def _mode_run(case, mode, seed):
    cfg = PipelineConfig(PlannerConfig(step=W.STEP, goal=case.goal,
                                       max_iterations=MODE_ITERATIONS, target_cost=0.0,
                                       rng_seed=seed))
    return plan_trajectory(case.grid, case.start, case.goal, cfg, mode=mode)


def compute_digests() -> dict:
    out = {}
    for wl in WORKLOADS:
        out[wl.name] = [_outcome(wl.digest, partial(wl.op, inp)) for inp in wl.inputs(SEED)]
    out["uniform_budget_trees"] = [
        _outcome(_tree_digest, partial(UNIFORM.op, inp)) for inp in UNIFORM.inputs(SEED)
    ]
    out["reads"] = [_outcome(_reads_digest, partial(BACKEND.op, inp)) for inp in BACKEND.inputs(SEED)]
    cases = paperlike_maps(MODE_MAPS, seed=SEED)
    for mode in ("uniform", "informed"):
        out[f"plan_trajectory_{mode}"] = [
            _outcome(PIPELINE.digest, partial(_mode_run, case, mode, seed))
            for seed, case in enumerate(cases)
        ]
    return out


def test_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    got = compute_digests()
    changed = {
        name: [i for i, (a, b) in enumerate(zip(got[name], want)) if a != b]
        for name, want in golden["digests"].items()
        if got.get(name) != want
    }
    assert not changed and got.keys() == golden["digests"].keys(), (
        f"outputs differ from {GOLDEN.name}; changed input indices per run: {changed}\n"
        f"  recorded with {golden['environment']}\n"
        f"  running with  {_environment()}"
    )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {"environment": _environment(), "digests": compute_digests()}, indent=1) + "\n")
