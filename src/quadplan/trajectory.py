"""Minimum jerk/snap back end.

Trapezoidal time allocation, assembly of the 2Ms x 2Ms banded linear system
encoding boundary, waypoint and continuity conditions, a linear-time banded
PLU solve, closed-form control effort, and the midpoint-insertion collision
repair loop.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .grid import OccupancyGrid, segment_collision_free


class SingularSystemError(Exception):
    """A pivot fell below threshold; usually signals non-positive durations."""


class RepairExhaustedError(Exception):
    """Collision repair did not converge within the round budget."""


class TrajectoryFileError(ValueError):
    """Malformed header, truncated body or invalid values in a trajectory file."""


class DomainError(ValueError):
    """Evaluation time outside [0, total duration]."""


_PIVOT_TOL = 1e-12


def trapezoidal_time_allocation(waypoints, v_max: float, a_max: float) -> np.ndarray:
    """Per-segment durations from an accelerate/cruise/decelerate profile.

    A segment shorter than twice the acceleration distance d_acc =
    v_max^2 / (2 a_max) never reaches cruise speed (triangular profile);
    otherwise it accelerates to v_max, cruises, and decelerates.
    """
    if not (v_max > 0 and a_max > 0):
        raise ValueError("v_max and a_max must be positive")
    waypoints = np.asarray(waypoints, dtype=float)
    d = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
    if np.any(d <= 0):
        raise ValueError("consecutive waypoints must be distinct")
    d_acc = v_max**2 / (2.0 * a_max)
    t_ramp = v_max / a_max
    return np.where(
        d < 2.0 * d_acc,
        2.0 * np.sqrt(d / a_max),
        2.0 * t_ramp + (d - 2.0 * d_acc) / v_max,
    )


@functools.lru_cache(maxsize=None)
def _basis_table(n: int, orders: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only factor and exponent matrices of the derivative basis:
    C[k, j] = perm(j, k) = j! / (j-k)! (zero for j < k) and E[k, j] =
    max(j - k, 0), for derivative orders k < orders and monomials j < n."""
    factors = np.array([[math.perm(j, k) for j in range(n)] for k in range(orders)], dtype=float)
    exponents = np.maximum(np.arange(n)[None, :] - np.arange(orders)[:, None], 0).astype(float)
    factors.setflags(write=False)
    exponents.setflags(write=False)
    return factors, exponents


def _basis_rows(tau, n: int, orders: int) -> np.ndarray:
    """Rows k = 0..orders-1 of the derivative basis at tau, (orders, n); a
    column of times tau[:, None] with orders=1 gives one row 0 per time.

    np.float_power calls the C library's pow, as a scalar tau ** (j - k)
    does (np.power on float64 arrays may take a SIMD pow that differs in the
    last bit), so each entry equals perm(j, k) * tau ** (j - k)."""
    factors, exponents = _basis_table(n, orders)
    return factors * np.float_power(tau, exponents)


def poly_basis(tau: float, s: int, k: int = 0) -> np.ndarray:
    """k-th derivative of the monomial basis (1, x, ..., x^(2s-1)) at tau."""
    n = 2 * s
    if not 0 <= k <= n - 1:
        raise ValueError("derivative order out of range")
    return _basis_rows(tau, n, k + 1)[k]


@dataclass
class BivpSpec:
    """Boundary-intermediate value problem for an M-segment polynomial spline.

    boundary_start/boundary_end are full flags (m x s): columns are derivative
    orders 0..s-1. intermediate[i] is an (m x d_i) partial flag at interior
    waypoint i+1 (1 <= d_i <= s); the default pins position only (d_i = 1).
    """

    s: int
    waypoints: np.ndarray
    durations: np.ndarray
    boundary_start: np.ndarray | None = None
    boundary_end: np.ndarray | None = None
    intermediate: list | None = None

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("integrator order s must be >= 1")
        self.waypoints = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        self.durations = np.asarray(self.durations, dtype=float)
        M = len(self.durations)
        if self.waypoints.shape[0] != M + 1:
            raise ValueError("need exactly M+1 waypoints for M durations")
        if not np.all(np.isfinite(self.durations) & (self.durations > 0)):
            raise ValueError("segment durations must be positive and finite")
        m = self.waypoints.shape[1]
        if self.boundary_start is None:
            bs = np.zeros((m, self.s))
            bs[:, 0] = self.waypoints[0]
            self.boundary_start = bs
        if self.boundary_end is None:
            be = np.zeros((m, self.s))
            be[:, 0] = self.waypoints[-1]
            self.boundary_end = be
        self.boundary_start = np.asarray(self.boundary_start, dtype=float)
        self.boundary_end = np.asarray(self.boundary_end, dtype=float)
        for name, b in (("boundary_start", self.boundary_start), ("boundary_end", self.boundary_end)):
            if b.shape != (m, self.s):
                raise ValueError(f"{name} must have shape (m, s) = ({m}, {self.s})")
        if self.intermediate is None:
            self.intermediate = [self.waypoints[i].reshape(m, 1) for i in range(1, M)]
        if len(self.intermediate) != M - 1:
            raise ValueError("need exactly M-1 intermediate conditions")
        self.intermediate = [np.atleast_2d(np.asarray(g, dtype=float)) for g in self.intermediate]
        for g in self.intermediate:
            if g.shape[0] != m or not 1 <= g.shape[1] <= self.s:
                raise ValueError("intermediate condition orders must satisfy 1 <= d_i <= s")

    @property
    def M(self) -> int:
        return len(self.durations)

    @property
    def m(self) -> int:
        return self.waypoints.shape[1]

    @classmethod
    def rest_to_rest(cls, waypoints, durations, s: int) -> "BivpSpec":
        """Position-only waypoints, zero start/end derivatives."""
        return cls(s=s, waypoints=waypoints, durations=durations)


@dataclass
class BandedSystem:
    """The 2Ms x 2Ms system A c = b in LAPACK band storage.

    band[kl + ku + i - j, j] holds A[i, j]; the first kl rows are fill space
    for the pivoted factorization. Everything outside the band is
    structurally zero by construction.
    """

    n: int
    kl: int
    ku: int
    band: np.ndarray  # (2*kl + ku + 1, n)
    rhs: np.ndarray  # (n, m)

    def set(self, i: int, j: int, v: float) -> None:
        if not -self.kl <= i - j <= self.kl:  # ku == kl here
            raise ValueError(f"entry ({i},{j}) outside the band")
        self.band[self.kl + self.ku + i - j, j] = v


@functools.lru_cache(maxsize=None)
def _joint_rows(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-joint row templates indexed by d_i = 1..s (row 0 unused): the
    derivative order of each of the 2s rows, and whether the row is a
    continuity row (else a waypoint condition row)."""
    orders = np.zeros((s + 1, 2 * s), dtype=np.intp)
    continuity = np.zeros((s + 1, 2 * s), dtype=bool)
    for d in range(1, s + 1):
        orders[d] = [*range(s, 2 * s - d), *range(d), *range(s)]
        continuity[d] = [True] * (s - d) + [False] * d + [True] * s
    orders.setflags(write=False)
    continuity.setflags(write=False)
    return orders, continuity


def build_banded_system(spec: BivpSpec) -> BandedSystem:
    """Assemble the boundary/waypoint/continuity equations.

    Row layout keeps bandwidth <= 2s per side: s start rows; per interior
    joint i, continuity rows for derivative orders s..2s-d_i-1, then the d_i
    condition rows, then continuity rows for orders 0..s-1; finally s end
    rows. Row count is s + sum(2s per joint) + s = 2Ms exactly.

    Every row is the basis row of one derivative order at one time, placed
    from one first column: all rows come from one basis-table call, and
    their nonzeros and the -k! continuity entries are scattered into the
    band at once.
    """
    s, M, m = spec.s, spec.M, spec.m
    w = 2 * s
    n = w * M
    kl = ku = w
    sys = BandedSystem(n, kl, ku, np.zeros((2 * kl + ku + 1, n)), np.zeros((n, m)))

    # Per row: derivative order, evaluation time and first column. Start rows
    # read segment 1 at tau = 0, joint i's rows segment i at tau = T_i, end
    # rows segment M at tau = T_M.
    tmpl_orders, tmpl_continuity = _joint_rows(s)
    d = [g.shape[1] for g in spec.intermediate]
    joint_orders = tmpl_orders[d]  # (M-1, 2s)
    continuity = tmpl_continuity[d]
    first = np.arange(M) * w
    orders = np.concatenate([np.arange(s), joint_orders.ravel(), np.arange(s)])
    times = np.concatenate(
        [np.zeros(s), np.repeat(spec.durations[:-1], w), np.full(s, spec.durations[-1])]
    )
    cols = np.concatenate([np.zeros(s, np.intp), np.repeat(first[:-1], w), np.full(s, first[-1])])

    factors, exponents = _basis_table(w, w)
    basis = factors[orders] * np.float_power(times[:, None], exponents[orders])
    r, j = np.nonzero(basis)
    c = cols[r] + j
    sys.band[kl + ku + r - c, c] = basis[r, j]

    # Continuity rows also carry -k! on order k of the next segment.
    joint_row = np.arange(s, n - s).reshape(M - 1, w)
    r = joint_row[continuity]
    k = joint_orders[continuity]
    c = cols[r] + w + k
    neg_factorial = -np.array([math.factorial(i) for i in range(w)], dtype=float)
    sys.band[kl + ku + r - c, c] = neg_factorial[k]

    sys.rhs[:s] = spec.boundary_start.T
    if M > 1:
        sys.rhs[joint_row[~continuity]] = np.concatenate([g.T for g in spec.intermediate])
    sys.rhs[n - s :] = spec.boundary_end.T
    return sys


def banded_plu_solve(sys: BandedSystem) -> np.ndarray:
    """Solve A c = b by banded PLU with partial pivoting inside the band;
    O(M) work and storage for fixed s. Raises SingularSystemError when a
    pivot magnitude falls below 1e-12."""
    lu, ipiv, info = lapack.dgbtrf(sys.band, sys.kl, sys.ku)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded factorization")
    diag = lu[sys.kl + sys.ku, :]
    if info > 0 or np.any(np.abs(diag) < _PIVOT_TOL):
        raise SingularSystemError("pivot below 1e-12: check segment durations")
    x, info = lapack.dgbtrs(lu, sys.kl, sys.ku, sys.rhs, ipiv)
    if info != 0:
        raise SingularSystemError("banded back-substitution failed")
    return np.ascontiguousarray(x)


@dataclass(frozen=True)
class PiecewisePolynomial:
    """M segments of degree 2s-1 over local time tau in [0, T_i].

    coeffs[i, j, :] is the m-vector coefficient of tau^j on segment i.
    durations is a read-only copy of the given array, so the knots and total
    duration computed here stay valid.
    """

    coeffs: np.ndarray  # (M, 2s, m)
    durations: np.ndarray  # (M,)
    s: int

    def __post_init__(self):
        durations = np.array(self.durations, dtype=float)
        durations.setflags(write=False)
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "durations", durations)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] != 2 * self.s:
            raise ValueError("coefficient stack must have shape (M, 2s, m)")
        if durations.ndim != 1 or len(durations) != self.coeffs.shape[0]:
            raise ValueError("durations/segments mismatch")
        if not np.all(np.isfinite(durations) & (durations > 0)):
            raise ValueError("segment durations must be positive and finite")
        knots = np.concatenate([[0.0], np.cumsum(durations)])
        knots.setflags(write=False)
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_knot_list", knots.tolist())
        object.__setattr__(self, "_total", float(np.sum(durations)))

    @property
    def M(self) -> int:
        return self.coeffs.shape[0]

    @property
    def m(self) -> int:
        return self.coeffs.shape[2]

    @property
    def knots(self) -> np.ndarray:
        """Segment start times and the end of the last, (M+1,), read-only."""
        return self._knots

    @property
    def total_duration(self) -> float:
        return self._total

    def segment_of(self, t: float) -> tuple[int, float]:
        """Segment index and local time; right-open intervals, last closed."""
        total = self._total
        if not 0.0 <= t <= total:
            raise DomainError(f"t={t} outside [0, {total}]")
        i = min(bisect.bisect_right(self._knot_list, t) - 1, self.M - 1)
        return i, t - self._knots[i]

    def derivatives(self, t: float, orders: int) -> np.ndarray:
        """Derivatives 0..orders-1 of the trajectory at global time t, as an
        (orders, m) array whose row k is eval(t, k). Needs 1 <= orders <= 2s."""
        i, tau = self.segment_of(t)
        n = 2 * self.s
        if not 1 <= orders <= n:
            raise ValueError("derivative order out of range")
        basis = _basis_rows(tau, n, orders)
        # A stack of vector-matrix products sums each row as
        # poly_basis(tau, s, k) @ coeffs[i] does; a 2-D basis @ coeffs
        # product may sum in another order.
        return np.matmul(basis[:, None, :], self.coeffs[i])[:, 0, :]

    def eval(self, t: float, k: int = 0) -> np.ndarray:
        """k-th derivative of the trajectory at global time t (m-vector)."""
        return self.derivatives(t, k + 1)[k]

    def waypoints(self) -> np.ndarray:
        """Positions at the segment knots, (M+1, m)."""
        total = self._total
        return np.array([self.eval(min(t, total)) for t in self._knot_list])


def solve_bivp(spec: BivpSpec) -> PiecewisePolynomial:
    """Unique minimum-effort spline satisfying the boundary, waypoint and
    continuity conditions of the spec."""
    sys = build_banded_system(spec)
    c = banded_plu_solve(sys)
    coeffs = c.reshape(spec.M, 2 * spec.s, spec.m)
    return PiecewisePolynomial(coeffs, spec.durations, spec.s)


def control_effort(traj: PiecewisePolynomial) -> float:
    """Integral of the squared s-th derivative over the whole trajectory,
    by exact polynomial product integration (no quadrature)."""
    s = traj.s
    n = 2 * s
    total = 0.0
    # gamma^(s)(tau) = sum_{j>=s} c_j * perm(j, s) * tau^(j-s)
    fac = np.array([math.perm(j, s) for j in range(s, n)], dtype=float)
    for i in range(traj.M):
        T = traj.durations[i]
        a = traj.coeffs[i, s:, :] * fac[:, None]  # (s, m) scaled coefficients
        for j in range(s):
            for k in range(s):
                p = j + k + 1
                total += float(np.dot(a[j], a[k])) * T**p / p
    return total


def collision_repair(
    traj: PiecewisePolynomial,
    spec: BivpSpec,
    grid: OccupancyGrid,
    v_max: float,
    a_max: float,
    max_rounds: int = 30,
) -> PiecewisePolynomial:
    """Iteratively insert straight-line midpoints into colliding segments and
    re-solve until the densely sampled trajectory is collision-free.

    Sampling step resolution/(2 v_max) seconds guarantees consecutive samples
    are less than half a voxel apart; the sampled polyline is then verified
    with the exact voxel traversal so no voxel can be skipped.
    """
    dt = grid.resolution / (2.0 * v_max)
    for _ in range(max_rounds + 1):
        colliding = _colliding_segments(traj, grid, dt)
        if not colliding:
            return traj
        if _ == max_rounds:
            break
        # Original joints keep their conditions; midpoints pin position only.
        waypoints = [spec.waypoints[0]]
        intermediate = []
        for i in range(spec.M):
            if i in colliding:
                mid = 0.5 * (spec.waypoints[i] + spec.waypoints[i + 1])
                waypoints.append(mid)
                intermediate.append(mid.reshape(-1, 1))
            waypoints.append(spec.waypoints[i + 1])
            if i < spec.M - 1:
                intermediate.append(spec.intermediate[i])
        waypoints = np.array(waypoints)
        durations = trapezoidal_time_allocation(waypoints, v_max, a_max)
        spec = replace(spec, waypoints=waypoints, durations=durations, intermediate=intermediate)
        traj = solve_bivp(spec)
    raise RepairExhaustedError(f"segments still collide after {max_rounds} rounds")


def _colliding_segments(traj: PiecewisePolynomial, grid: OccupancyGrid, dt: float) -> set[int]:
    """Indices of segments whose samples, dt apart, are not joined by free
    straight lines.

    Each segment's samples are evaluated in one batch with the segment lookup
    of PiecewisePolynomial.segment_of: a sample on a knot belongs to the next
    segment. Row 0 of the basis table and the stacked matmul make the same
    basis and vector-matrix product per sample as eval, so the points equal
    eval's.
    """
    out = set()
    knots = traj.knots
    total = traj.total_duration
    n = 2 * traj.s
    for i in range(traj.M):
        t0, t1 = knots[i], knots[i + 1]
        ts = np.linspace(t0, t1, max(2, int(math.ceil((t1 - t0) / dt)) + 1))
        ts = np.minimum(ts, total)
        seg = np.minimum(np.searchsorted(knots, ts, side="right") - 1, traj.M - 1)
        basis = _basis_rows((ts - knots[seg])[:, None], n, 1)
        pts = np.matmul(basis[:, None, :], traj.coeffs[seg])[:, 0, :].tolist()
        for a, b in zip(pts[:-1], pts[1:]):
            if not segment_collision_free(grid, a, b):
                out.add(i)
                break
    return out


def save_trajectory(traj: PiecewisePolynomial, path) -> None:
    """Plain text: header '# s=.. m=.. M=..', then per segment a 'T=..' line
    followed by 2s coefficient lines (ascending monomial order)."""
    with open(path, "w") as f:
        f.write(f"# s={traj.s} m={traj.m} M={traj.M}\n")
        for i in range(traj.M):
            f.write(f"T={traj.durations[i]:.17g}\n")
            for j in range(2 * traj.s):
                f.write(" ".join(f"{v:.17g}" for v in traj.coeffs[i, j]) + "\n")


def load_trajectory(path) -> PiecewisePolynomial:
    """Read a file written by save_trajectory. A malformed header or segment,
    a wrong line count or a non-positive or non-finite duration raises
    TrajectoryFileError."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise TrajectoryFileError("missing trajectory header")
    try:
        fields = dict(kv.split("=", 1) for kv in lines[0].lstrip("# ").split())
        s, m, M = int(fields["s"]), int(fields["m"]), int(fields["M"])
    except (KeyError, ValueError) as e:
        raise TrajectoryFileError(f"malformed header {lines[0]!r}") from e
    if min(s, m, M) < 1:
        raise TrajectoryFileError("malformed header: s, m and M must be positive")
    per_segment = 2 * s + 1
    if len(lines) - 1 != M * per_segment:
        raise TrajectoryFileError(
            f"expected {M * per_segment} lines after the header, found {len(lines) - 1}"
        )
    coeffs = np.zeros((M, 2 * s, m))
    durations = np.zeros(M)
    for i in range(M):
        seg = lines[1 + i * per_segment : 1 + (i + 1) * per_segment]
        if not seg[0].startswith("T="):
            raise TrajectoryFileError(f"expected duration line for segment {i}")
        try:
            durations[i] = float(seg[0][2:])
            for j in range(2 * s):
                coeffs[i, j] = [float(v) for v in seg[1 + j].split()]
        except ValueError as e:
            raise TrajectoryFileError(f"malformed segment {i}: {e}") from e
    try:
        return PiecewisePolynomial(coeffs, durations, s)
    except ValueError as e:
        raise TrajectoryFileError(str(e)) from e


def export_csv(traj: PiecewisePolynomial, path, dt: float) -> None:
    """Sampled export: t,x,y,z,vx,vy,vz,ax,ay,az rows at the given step.
    Bad input raises ValueError before the file is opened."""
    if traj.m != 3:
        raise ValueError("CSV export expects a 3D trajectory")
    if 2 * traj.s < 3:
        raise ValueError(f"order s={traj.s} has no acceleration to export")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"sample step must be positive and finite, got {dt}")
    ts = np.arange(0.0, traj.total_duration + 0.5 * dt, dt)
    ts[-1] = min(ts[-1], traj.total_duration)
    with open(path, "w") as f:
        f.write("t,x,y,z,vx,vy,vz,ax,ay,az\n")
        for t in ts:
            p, v, a = traj.derivatives(t, 3)
            f.write(
                f"{t:.9g}," + ",".join(f"{c:.9g}" for c in (*p, *v, *a)) + "\n"
            )
