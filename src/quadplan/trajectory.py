"""Minimum jerk/snap back end.

Trapezoidal time allocation, assembly of the 2Ms x 2Ms banded linear system
encoding boundary, waypoint and continuity conditions, a linear-time banded
PLU solve, closed-form control effort, and the midpoint-insertion collision
repair loop.
"""

from __future__ import annotations

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


def poly_basis(tau: float, s: int, k: int = 0) -> np.ndarray:
    """k-th derivative of the monomial basis (1, x, ..., x^(2s-1)) at tau."""
    n = 2 * s
    if not 0 <= k <= n - 1:
        raise ValueError("derivative order out of range")
    out = np.zeros(n)
    for j in range(k, n):
        coeff = math.perm(j, k)  # j! / (j-k)!
        out[j] = coeff * tau ** (j - k)
    return out


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
        if np.any(self.durations <= 0):
            raise ValueError("segment durations must be strictly positive")
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


def build_banded_system(spec: BivpSpec) -> BandedSystem:
    """Assemble the boundary/waypoint/continuity equations.

    Row layout keeps bandwidth <= 2s per side: s start rows; per interior
    joint i, continuity rows for derivative orders s..2s-d_i-1, then the d_i
    condition rows, then continuity rows for orders 0..s-1; finally s end
    rows. Row count is s + sum(2s per joint) + s = 2Ms exactly.
    """
    s, M, m = spec.s, spec.M, spec.m
    n = 2 * M * s
    kl = ku = 2 * s
    sys = BandedSystem(n, kl, ku, np.zeros((2 * kl + ku + 1, n)), np.zeros((n, m)))

    # Start boundary: derivatives 0..s-1 of segment 1 at tau = 0.
    for k in range(s):
        basis = poly_basis(0.0, s, k)
        for j in range(2 * s):
            if basis[j] != 0.0:
                sys.set(k, j, basis[j])
        sys.rhs[k] = spec.boundary_start[:, k]

    for i in range(1, M):
        T = spec.durations[i - 1]
        g = spec.intermediate[i - 1]
        d_i = g.shape[1]
        r0 = s + (i - 1) * 2 * s
        c_prev = (i - 1) * 2 * s
        c_next = i * 2 * s
        r = r0
        # High-order continuity (orders s .. 2s - d_i - 1).
        for k in range(s, 2 * s - d_i):
            basis = poly_basis(T, s, k)
            for j in range(2 * s):
                if basis[j] != 0.0:
                    sys.set(r, c_prev + j, basis[j])
            sys.set(r, c_next + k, -math.factorial(k))
            r += 1
        # Waypoint condition rows (derivative orders 0 .. d_i - 1 at tau = T).
        for k in range(d_i):
            basis = poly_basis(T, s, k)
            for j in range(2 * s):
                if basis[j] != 0.0:
                    sys.set(r, c_prev + j, basis[j])
            sys.rhs[r] = g[:, k]
            r += 1
        # Low-order continuity (orders 0 .. s-1).
        for k in range(s):
            basis = poly_basis(T, s, k)
            for j in range(2 * s):
                if basis[j] != 0.0:
                    sys.set(r, c_prev + j, basis[j])
            sys.set(r, c_next + k, -math.factorial(k))
            r += 1

    # End boundary: derivatives 0..s-1 of segment M at tau = T_M.
    T = spec.durations[-1]
    c_last = (M - 1) * 2 * s
    for k in range(s):
        r = n - s + k
        basis = poly_basis(T, s, k)
        for j in range(2 * s):
            if basis[j] != 0.0:
                sys.set(r, c_last + j, basis[j])
        sys.rhs[r] = spec.boundary_end[:, k]
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
    """

    coeffs: np.ndarray  # (M, 2s, m)
    durations: np.ndarray  # (M,)
    s: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "durations", np.asarray(self.durations, dtype=float))
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] != 2 * self.s:
            raise ValueError("coefficient stack must have shape (M, 2s, m)")
        if len(self.durations) != self.coeffs.shape[0]:
            raise ValueError("durations/segments mismatch")
        if not np.all(np.isfinite(self.durations) & (self.durations > 0)):
            raise ValueError("segment durations must be positive and finite")

    @property
    def M(self) -> int:
        return self.coeffs.shape[0]

    @property
    def m(self) -> int:
        return self.coeffs.shape[2]

    @property
    def knots(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.durations)])

    @property
    def total_duration(self) -> float:
        return float(np.sum(self.durations))

    def segment_of(self, t: float) -> tuple[int, float]:
        """Segment index and local time; right-open intervals, last closed."""
        total = self.total_duration
        if not 0.0 <= t <= total:
            raise DomainError(f"t={t} outside [0, {total}]")
        knots = self.knots
        i = int(np.searchsorted(knots, t, side="right")) - 1
        i = min(i, self.M - 1)
        return i, t - knots[i]

    def eval(self, t: float, k: int = 0) -> np.ndarray:
        """k-th derivative of the trajectory at global time t (m-vector)."""
        i, tau = self.segment_of(t)
        basis = poly_basis(tau, self.s, k)
        return basis @ self.coeffs[i]

    def waypoints(self) -> np.ndarray:
        """Positions at the segment knots, (M+1, m)."""
        pts = [self.eval(0.0)]
        knots = self.knots
        for i in range(1, self.M + 1):
            pts.append(self.eval(min(knots[i], self.total_duration)))
        return np.array(pts)


def solve_bivp(spec: BivpSpec) -> PiecewisePolynomial:
    """Unique minimum-effort spline satisfying the boundary, waypoint and
    continuity conditions of the spec."""
    sys = build_banded_system(spec)
    c = banded_plu_solve(sys)
    coeffs = c.reshape(spec.M, 2 * spec.s, spec.m)
    return PiecewisePolynomial(coeffs, spec.durations.copy(), spec.s)


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
    segment. np.float_power calls the C library's pow, as eval's scalar power
    does (np.power on float64 arrays may take a SIMD pow that differs in the
    last bit), and the stacked matmul makes the same vector-matrix product
    per sample, so the points equal eval's.
    """
    out = set()
    knots = traj.knots
    total = traj.total_duration
    exponents = np.arange(2 * traj.s, dtype=float)
    for i in range(traj.M):
        t0, t1 = knots[i], knots[i + 1]
        ts = np.linspace(t0, t1, max(2, int(math.ceil((t1 - t0) / dt)) + 1))
        ts = np.minimum(ts, total)
        seg = np.minimum(np.searchsorted(knots, ts, side="right") - 1, traj.M - 1)
        basis = np.float_power((ts - knots[seg])[:, None], exponents)
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
    """Sampled export: t,x,y,z,vx,vy,vz,ax,ay,az rows at the given step."""
    if traj.m != 3:
        raise ValueError("CSV export expects a 3D trajectory")
    ts = np.arange(0.0, traj.total_duration + 0.5 * dt, dt)
    ts[-1] = min(ts[-1], traj.total_duration)
    with open(path, "w") as f:
        f.write("t,x,y,z,vx,vy,vz,ax,ay,az\n")
        for t in ts:
            p = traj.eval(t, 0)
            v = traj.eval(t, 1)
            a = traj.eval(t, 2)
            f.write(
                f"{t:.9g}," + ",".join(f"{c:.9g}" for c in (*p, *v, *a)) + "\n"
            )
