"""Span tracing for the benchmark's traced run.

Timing wrappers are installed on the module-level bindings that quadplan's
own callers look up (``quadplan.pipeline.oracle_region``,
``quadplan.planner.segment_collision_free``, ``SearchTree.nearest``,
``PiecewisePolynomial.eval`` ...), so the package itself is not edited. Each
wrapped call inside an op records one span: name, start, end, parent span and
op id. Spans stay in compact in-memory arrays and are written out when the run
ends. A span's self time is its duration minus the time its child spans cover;
calls nest strictly (one thread), so that is the sum of the children.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

import quadplan.pipeline as P
import quadplan.planner as PL
import quadplan.regions as R
import quadplan.trajectory as T


def _astar_observe(tr, args, kwargs, result, seconds):
    tr.count["regions.path_voxels"] += len(result)


def _filter_observe(tr, args, kwargs, result, seconds):
    tr.count["regions.region_voxels"] += int(np.count_nonzero(result.values))


def _plan_observe(tr, args, kwargs, result, seconds):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    st = result.stats
    iterations = st.optimal_iterations if st.optimal_iterations is not None else cfg.max_iterations
    tr.count["planner.iterations"] += iterations
    tr.count["planner.tree_nodes"] += result.tree.n
    tr.count["planner.vertices_added"] += result.tree.n - 1
    # Refinement: the loop from the first goal connection until the target
    # cost stops it. A call that runs out of iterations after a solution also
    # counts its path building here. The initial stage is the rest of the
    # call, its set-up (gamma bound, region sampler) and path building included.
    if st.initial_time is None:
        refine = 0.0
    elif st.optimal_time is not None:
        refine = st.optimal_time - st.initial_time
    else:
        refine = seconds - st.initial_time
    tr.count["planner.init_s"] += seconds - refine
    tr.count["planner.refine_s"] += refine


def _repair_observe(tr, args, kwargs, result, seconds):
    tr.count["trajectory.segments"] += result.M
    tr.count["trajectory.segments_added"] += result.M - args[0].M


def _prune_observe(tr, args, kwargs, result, seconds):
    tr.count["pipeline.prune_in"] += len(args[0])
    tr.count["pipeline.prune_out"] += len(result)


def _check_observe(tr, args, kwargs, result, seconds):
    tr.count["grid.free"] += bool(result)


# (owner, attribute, span name, observer). Every binding a caller looks up is
# listed, so e.g. repair's solves and the pipeline's solve share one span name.
BINDINGS = [
    (R, "astar_path", "regions.astar", _astar_observe),
    (P, "oracle_region", "regions.oracle", None),
    (P, "filter_region", "regions.filter", _filter_observe),
    (P, "plan", "planner.plan", _plan_observe),
    (PL, "plan", "planner.plan", _plan_observe),
    (PL, "extend_and_rewire", "planner.extend", None),
    (PL.SearchTree, "nearest", "planner.nearest", None),
    (PL, "segment_collision_free", "grid.check", _check_observe),
    (T, "segment_collision_free", "grid.check", _check_observe),
    (P, "prune_collinear", "pipeline.prune", _prune_observe),
    (P, "trapezoidal_time_allocation", "trajectory.alloc", None),
    (T, "trapezoidal_time_allocation", "trajectory.alloc", None),
    (P, "solve_bivp", "trajectory.solve", None),
    (T, "solve_bivp", "trajectory.solve", None),
    (T, "build_banded_system", "trajectory.assemble", None),
    (P, "collision_repair", "trajectory.repair", _repair_observe),
    (T, "collision_repair", "trajectory.repair", _repair_observe),
    (T, "control_effort", "trajectory.effort", None),
    (T.PiecewisePolynomial, "eval", "trajectory.eval", None),
    (P, "plan_trajectory", "pipeline.plan_trajectory", None),
    (P, "flat_flag_at", "pipeline.flat_flag", None),
]

# Per-layer metrics: name -> unit. All *_ms values are per-op self times,
# except planner.init_ms / planner.refine_ms, which split the whole plan call
# into its two stages.
PER_LAYER = {
    "regions.astar_ms": "ms",
    "regions.oracle_ms": "ms",
    "regions.filter_ms": "ms",
    "regions.path_voxels": "count",
    "regions.region_voxels": "count",
    "planner.plan_ms": "ms",
    "planner.init_ms": "ms",
    "planner.refine_ms": "ms",
    "planner.iterations": "count",
    "planner.tree_nodes": "count",
    "planner.accept_ratio": "ratio",
    "planner.nearest_ms": "ms",
    "planner.nearest_calls": "count",
    "planner.extend_ms": "ms",
    "planner.extend_calls": "count",
    "grid.checks": "count",
    "grid.check_ms": "ms",
    "grid.free_ratio": "ratio",
    "trajectory.alloc_ms": "ms",
    "trajectory.assemble_ms": "ms",
    "trajectory.solve_ms": "ms",
    "trajectory.repair_ms": "ms",
    "trajectory.repair_solves": "count",
    "trajectory.segments": "count",
    "trajectory.segments_added": "count",
    "trajectory.eval_calls": "count",
    "trajectory.eval_ms": "ms",
    "trajectory.effort_ms": "ms",
    "pipeline.self_ms": "ms",
    "pipeline.prune_ms": "ms",
    "pipeline.prune_ratio": "ratio",
    "pipeline.flatflag_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder. Spans are recorded only while an op is open,
    so checks run between ops pass through the wrappers untraced."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count: defaultdict[str, float] = defaultdict(float)
        self.ops = 0
        self._stack = [-1]
        self._op = -1
        self._saved: list = []

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self._op = -1
        self.ops += 1

    def _wrap(self, fn, span: str, observe):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            if op < 0:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(op)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result, self.end[i] - self.start[i])
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, span, observe in BINDINGS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def per_span(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for nid, span in enumerate(self.names):
            sel = name == nid
            out[span] = {
                "calls": int(np.count_nonzero(sel)),
                "total_s": float(dur[sel].sum()),
                "self_s": float((dur[sel] - child[sel]).sum()),
            }
        return out

    def children_of(self, child_span: str, parent_span: str) -> int:
        """Number of child_span spans whose direct parent is a parent_span span."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        if child_span not in self._ids or parent_span not in self._ids:
            return 0
        sel = (name == self._ids[child_span]) & (parent >= 0)
        return int(np.count_nonzero(name[parent[sel]] == self._ids[parent_span]))

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-op means of every per-layer metric; ratios are totals over totals."""
        spans = self.per_span()
        n = max(self.ops, 1)
        c = self.count

        def self_ms(span):
            return 1e3 * spans.get(span, {}).get("self_s", 0.0) / n

        def calls(span):
            return spans.get(span, {}).get("calls", 0) / n

        def ratio(num, den):
            return num / den if den else 0.0

        checks = spans.get("grid.check", {}).get("calls", 0)
        return {
            "regions.astar_ms": self_ms("regions.astar"),
            "regions.oracle_ms": self_ms("regions.oracle"),
            "regions.filter_ms": self_ms("regions.filter"),
            "regions.path_voxels": c["regions.path_voxels"] / n,
            "regions.region_voxels": c["regions.region_voxels"] / n,
            "planner.plan_ms": self_ms("planner.plan"),
            "planner.init_ms": 1e3 * c["planner.init_s"] / n,
            "planner.refine_ms": 1e3 * c["planner.refine_s"] / n,
            "planner.iterations": c["planner.iterations"] / n,
            "planner.tree_nodes": c["planner.tree_nodes"] / n,
            "planner.accept_ratio": ratio(c["planner.vertices_added"], c["planner.iterations"]),
            "planner.nearest_ms": self_ms("planner.nearest"),
            "planner.nearest_calls": calls("planner.nearest"),
            "planner.extend_ms": self_ms("planner.extend"),
            "planner.extend_calls": calls("planner.extend"),
            "grid.checks": checks / n,
            "grid.check_ms": self_ms("grid.check"),
            "grid.free_ratio": ratio(c["grid.free"], checks),
            "trajectory.alloc_ms": self_ms("trajectory.alloc"),
            "trajectory.assemble_ms": self_ms("trajectory.assemble"),
            "trajectory.solve_ms": self_ms("trajectory.solve"),
            "trajectory.repair_ms": self_ms("trajectory.repair"),
            "trajectory.repair_solves": self.children_of("trajectory.solve", "trajectory.repair") / n,
            "trajectory.segments": c["trajectory.segments"] / n,
            "trajectory.segments_added": c["trajectory.segments_added"] / n,
            "trajectory.eval_calls": calls("trajectory.eval"),
            "trajectory.eval_ms": self_ms("trajectory.eval"),
            "trajectory.effort_ms": self_ms("trajectory.effort"),
            "pipeline.self_ms": self_ms("pipeline.plan_trajectory"),
            "pipeline.prune_ms": self_ms("pipeline.prune"),
            "pipeline.prune_ratio": ratio(c["pipeline.prune_out"], c["pipeline.prune_in"]),
            "pipeline.flatflag_ms": self_ms("pipeline.flat_flag"),
            "trace.overhead_ratio": overhead_ratio,
        }

    def save(self, path) -> None:
        """Write every span (name, start, end, parent, op) to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
