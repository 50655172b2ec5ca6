"""Alternating parent/change pairs of the benchmark, written to BENCH_<name>.json.

    python3 tools/bench_pairs.py backend_writes --parent HEAD~1 --change HEAD \\
        --workload backend --seeds 81-92 --seconds 10 --why "the claim"

Each side runs from a clean copy of its commit's files (``git archive`` into a
temporary directory), so uncommitted edits and build leftovers reach neither.
Pair i runs ``python3 benchmarks/run.py --workload W --seed S --seconds N
--trace 0`` once on each side, the parent first on even pairs and the change
first on odd ones, so a drift of the host's speed favours neither side.

The file keeps, per workload, its ``--seconds``, each side's last JSON line
per pair and the ``load_warning`` of each run's report, and a summary per
end-to-end metric of BENCHMARK.json: each side's quartiles and the number of
pairs in which the change was better (ties count for neither). Running it
again with another workload and the same two commits adds that workload to
the file, at its own ``--seconds``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def checkout(sha: str, into: Path) -> Path:
    """The committed files of sha, unpacked into a new directory."""
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12+ and 3.11.4+
            tar.extractall(into, filter="data")
        else:  # an archive of the repository's own commit is trusted
            tar.extractall(into)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, bool]:
    """The run's last JSON line and its report's load warning."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {res.returncode}:\n{res.stderr[-2000:]}")
    line = json.loads(res.stdout.strip().splitlines()[-1])
    report = json.loads((tree / "benchmarks" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return line, bool(report["run"]["load_warning"])


def seed_list(text: str) -> list[int]:
    """'61-72' or '61,63,70' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values: list[float]) -> list[float]:
    """Q1, median and Q3 as numpy's default (linear) percentiles, to 3 places."""
    if len(values) < 2:
        return [round(values[0], 3)] * 3
    return [round(q, 3) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summary(pairs: list[dict], metrics: list[dict]) -> list[dict]:
    """Per metric of BENCHMARK.json's end_to_end list: both sides' quartiles
    and the pairs in which the change was better."""
    out = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        out.append({"metric": name, "pairs": len(pairs), "parent_q1_median_q3": quartiles(parent),
                    "change_q1_median_q3": quartiles(change), "change_better_pairs": better})
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("name", help="the file written is BENCH_<name>.json at the repository root")
    ap.add_argument("--parent", required=True, help="the commit measured as the parent")
    ap.add_argument("--change", required=True, help="the commit measured as the change")
    ap.add_argument("--workload", required=True, choices=("pipeline", "uniform_budget", "backend"))
    ap.add_argument("--seeds", required=True, type=seed_list, help="e.g. 61-72 or 61,64,70")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--why", default="", help="why this workload is measured")
    ap.add_argument("--claim", default="", help="the claim the pairs test")
    args = ap.parse_args(argv)

    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    path = ROOT / f"BENCH_{args.name}.json"
    doc = json.loads(path.read_text()) if path.is_file() else None
    if doc is not None and (doc["parent_sha"], doc["change_sha"]) != (shas["parent"], shas["change"]):
        sys.exit(f"error: {path.name} records other commits; choose another name")
    if doc is None:
        import numpy
        import scipy

        doc = {
            "what": ("Alternating parent/change pairs of `python3 benchmarks/run.py --workload W "
                     "--seed S --seconds N --trace 0` (N is each workload's `seconds`), each side run "
                     "from a clean copy of its commit's files (`git archive`), by `tools/bench_pairs.py`"),
            "claim": args.claim,
            "parent_sha": shas["parent"],
            "change_sha": shas["change"],
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "workloads": {},
        }
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: checkout(sha, Path(tmp) / side) for side, sha in shas.items()}
        for i, seed in enumerate(args.seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "order": order}
            warnings = {}
            for side in order:
                pair[side], warnings[side] = run_once(trees[side], args.workload, seed, args.seconds)
            pair["load_warning"] = {side: warnings[side] for side in ("parent", "change")}
            pairs.append(pair)
            p50 = {side: pair[side]["metrics"]["op_ms_p50"]["value"] for side in ("parent", "change")}
            print(f"{args.workload} seed {seed}: op_ms_p50 parent {p50['parent']:.3f} "
                  f"change {p50['change']:.3f}", flush=True)

    doc["workloads"][args.workload] = {"why": args.why, "seconds": args.seconds,
                                       "summary": summary(pairs, metrics), "pairs": pairs}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for row in doc["workloads"][args.workload]["summary"]:
        print(f"{row['metric']:12s} parent {row['parent_q1_median_q3']} change "
              f"{row['change_q1_median_q3']} better {row['change_better_pairs']}/{row['pairs']}")


if __name__ == "__main__":
    main()
