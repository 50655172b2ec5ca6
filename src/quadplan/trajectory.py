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
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import OccupancyGrid, _read_only_copy, segment_collision_free


class SingularSystemError(Exception):
    """A pivot fell below threshold; usually signals non-positive durations."""


class RepairExhaustedError(Exception):
    """Collision repair did not converge within the round budget."""


class TrajectoryFileError(ValueError):
    """Malformed header, truncated body or invalid values in a trajectory file."""


class DomainError(ValueError):
    """Evaluation time outside [0, total duration]."""


_PIVOT_TOL = 1e-12
# Re-solves collision_repair makes before RepairExhaustedError.
_MAX_REPAIR_ROUNDS = 30


def trapezoidal_time_allocation(waypoints, v_max: float, a_max: float) -> np.ndarray:
    """Per-segment durations from an accelerate/cruise/decelerate profile.

    A segment shorter than twice the acceleration distance d_acc =
    v_max^2 / (2 a_max) never reaches cruise speed (triangular profile);
    otherwise it accelerates to v_max, cruises, and decelerates.
    """
    if not (v_max > 0 and a_max > 0):
        raise ValueError("v_max and a_max must be positive")
    # np.where evaluates both branches: an infinite v_max would compute
    # inf - inf in the cruise one even where the triangular one is taken.
    if not math.isfinite(v_max):
        raise ValueError("v_max must be finite")
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
    """Read-only factor and exponent stacks of the derivative basis, each
    (orders, 1, n) so that row k is a 1 x n matrix ready for a stacked
    vector-matrix product: C[k, 0, j] = perm(j, k) = j! / (j-k)! (zero for
    j < k) and E[k, 0, j] = max(j - k, 0), for derivative orders k < orders
    and monomials j < n."""
    factors = np.array([[[math.perm(j, k) for j in range(n)]] for k in range(orders)], dtype=float)
    exponents = np.maximum(np.arange(n) - np.arange(orders)[:, None, None], 0).astype(float)
    factors.setflags(write=False)
    exponents.setflags(write=False)
    return factors, exponents


def _check_orders(orders, n: int) -> None:
    """A derivative count must be an integer in 1..n: a float one would
    match an integer's cached basis table (3.0 == 3) but fail uncached."""
    if not (isinstance(orders, numbers.Integral) and 1 <= orders <= n):
        raise ValueError(f"derivative order out of range: need an integer in 1..{n}, not {orders!r}")


@dataclass(frozen=True, eq=False)
class BivpSpec:
    """Boundary-intermediate value problem for an M-segment polynomial spline.

    boundary_start/boundary_end are full flags (m x s): columns are derivative
    orders 0..s-1. intermediate[i] is an (m x d_i) partial flag at interior
    waypoint i+1 (1 <= d_i <= s); the default pins position only (d_i = 1).
    Column 0 of a flag passed in must equal its waypoint, else ValueError.

    Every array is a read-only copy of the one given, so no later write by
    the caller reaches a checked value, and dataclasses.replace is the one
    way to change a spec. intermediate is a tuple; its default entries are
    (m, 1) views of the spec's own waypoints.
    """

    s: int
    waypoints: np.ndarray
    durations: np.ndarray
    boundary_start: np.ndarray | None = None
    boundary_end: np.ndarray | None = None
    intermediate: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.s, numbers.Integral) or self.s < 1:
            raise ValueError("integrator order s must be an integer >= 1")
        waypoints = np.atleast_2d(_read_only_copy(self.waypoints, float))
        durations = _read_only_copy(self.durations, float)
        M = len(durations)
        if M < 1:
            raise ValueError("need at least one segment (two waypoints)")
        if waypoints.shape[0] != M + 1:
            raise ValueError("need exactly M+1 waypoints for M durations")
        if not np.all(np.isfinite(durations) & (durations > 0)):
            raise ValueError("segment durations must be positive and finite")
        object.__setattr__(self, "waypoints", waypoints)
        object.__setattr__(self, "durations", durations)
        m = waypoints.shape[1]
        for name, position in (("boundary_start", waypoints[0]), ("boundary_end", waypoints[-1])):
            b = getattr(self, name)
            if b is None:  # at rest at its waypoint
                b = np.zeros((m, self.s))
                b[:, 0] = position
            b = _read_only_copy(b, float)
            if b.shape != (m, self.s):
                raise ValueError(f"{name} must have shape (m, s) = ({m}, {self.s})")
            object.__setattr__(self, name, b)
        if self.intermediate is None:  # position only: (m, 1) by construction
            intermediate = tuple(waypoints[1:-1, :, None])
        else:
            if len(self.intermediate) != M - 1:
                raise ValueError("need exactly M-1 intermediate conditions")
            intermediate = tuple(np.atleast_2d(_read_only_copy(g, float))
                                 for g in self.intermediate)
            for g in intermediate:
                if g.ndim != 2:
                    raise ValueError(f"intermediate conditions must be (m, d_i) arrays, got shape {g.shape}")
                if g.shape[0] != m or not 1 <= g.shape[1] <= self.s:
                    raise ValueError("intermediate condition orders must satisfy 1 <= d_i <= s")
        object.__setattr__(self, "intermediate", intermediate)
        # One check over every condition: collision_repair builds a spec per round.
        conditions = [waypoints.T, self.boundary_start, *intermediate, self.boundary_end]
        columns = np.concatenate(conditions, axis=1)
        if not np.isfinite(columns).all():
            raise ValueError("waypoints, boundary flags and intermediate conditions must be finite")
        # Column 0 of flag k restates waypoint k.
        firsts = np.cumsum([c.shape[1] for c in conditions[:-1]])
        if (columns[:, firsts] != columns[:, : M + 1]).any():
            raise ValueError("column 0 of a boundary or intermediate condition must equal its waypoint")

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
    structurally zero by construction. Either array may be in either memory
    order; build_banded_system makes both column-major, LAPACK's order.
    """

    n: int
    kl: int
    ku: int
    band: np.ndarray  # (2*kl + ku + 1, n)
    rhs: np.ndarray  # (n, m)


@functools.lru_cache(maxsize=None)
def _band_templates(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only scatter templates of the band's row blocks, for order s.

    The rows of block b = 0..M-1 all read segment b at tau = T_b: joint
    b+1's 2s rows, one template per d = 1..s, or for b = M-1 the s end
    rows, template 0. Per template entry: its index in the flat column-major
    band when the block is block 0, its factor, and the exponent of T_b it
    multiplies. An entry is a basis value perm(j, k) * T^(j-k) on order
    j >= k of segment b, or a continuity row's -k! on order k of segment
    b+1, the factor of T^0 = 1.0. Block b's rows and columns lie b * 2s
    further on than block 0's, so its flat indices lie b * 2s * (6s+1)
    further on. A template shorter than the longest repeats its last entry,
    which writes the same value twice.

    The factors and exponents are read from the derivative-basis table
    (_basis_table), the one source of the basis. Also returned: each joint
    template's condition rows as a (s+1, 2s) mask (row 0 unused), and the
    start rows' entries k! on the main diagonal, which depend on no duration.
    """
    w = 2 * s
    height = 3 * w + 1  # 2 kl + ku + 1 band rows, kl = ku = 2s
    factors, exponents = _basis_table(w, w)
    condition = np.zeros((s + 1, w), dtype=bool)

    def template(orders, continuity):
        entries = []
        for row, k in enumerate(orders):
            i = s + row  # block 0's rows follow the s start rows
            cols = [(j, factors[k, 0, j], exponents[k, 0, j]) for j in range(k, w)]
            if continuity[row]:
                cols.append((w + k, -factors[k, 0, k], 0.0))
            entries += [(j * height + 2 * w + i - j, f, e) for j, f, e in cols]
        return entries

    templates = [template(range(s), [False] * s)]
    for d in range(1, s + 1):
        condition[d, s - d : s] = True
        templates.append(template([*range(s, w - d), *range(d), *range(s)], ~condition[d]))
    width = max(map(len, templates))
    table = np.array([e + e[-1:] * (width - len(e)) for e in templates])  # (s+1, width, 3)
    pos = table[..., 0].astype(np.intp)
    factor = np.ascontiguousarray(table[..., 1])
    exponent = table[..., 2].astype(np.intp)
    start = factors[range(s), 0, range(s)]
    for a in (pos, factor, exponent, condition, start):
        a.setflags(write=False)
    return pos, factor, exponent, condition, start


def build_banded_system(spec: BivpSpec) -> BandedSystem:
    """Assemble the boundary/waypoint/continuity equations.

    Row layout keeps bandwidth <= 2s per side: s start rows; per interior
    joint i, continuity rows for derivative orders s..2s-d_i-1, then the d_i
    condition rows, then continuity rows for orders 0..s-1; finally s end
    rows. Row count is s + sum(2s per joint) + s = 2Ms exactly.

    Only what depends on the durations is computed per call: the powers
    T_b^e of the M x 2s distinct (duration, exponent) pairs, then every
    entry that reads them in one scatter, from each block's cached template
    (_band_templates) offset by its block index. Each value is perm(j, k) *
    np.float_power(T, j - k), the C library's pow as a scalar T ** (j - k)
    calls it, and the -k! entries are -k! * 1.0. The band is column-major,
    LAPACK's own order, where block b's entries lie a fixed stride from
    block 0's whatever M is. The start rows, k! on the diagonal, are
    constants.
    """
    s, M, m = spec.s, spec.M, spec.m
    w = 2 * s
    n = w * M
    kl = ku = w
    height = 2 * kl + ku + 1
    pos, factor, exponent, condition, start = _band_templates(s)
    kinds = np.array([g.shape[1] for g in spec.intermediate] + [0])  # each joint's d_i, then the end rows
    block = np.arange(M)[:, None]
    powers = np.float_power(spec.durations[:, None], np.arange(float(w)))
    flat = np.zeros(n * height)
    flat[pos[kinds] + block * (w * height)] = factor[kinds] * powers[block, exponent[kinds]]
    band = flat.reshape(n, height).T
    band[kl + ku, :s] = start

    # rhs, filled through its (m, n) transpose: the conditions are (m, d_i).
    rhs = np.zeros((m, n))
    rhs[:, :s] = spec.boundary_start
    if M > 1:
        joints = rhs[:, s : n - s].reshape(m, M - 1, w)
        joints[:, condition[kinds[:-1]]] = np.concatenate(spec.intermediate, axis=1)
    rhs[:, n - s :] = spec.boundary_end
    return BandedSystem(n, kl, ku, band, rhs.T)


def banded_plu_solve(sys: BandedSystem) -> np.ndarray:
    """Solve A c = b by banded PLU with partial pivoting inside the band;
    O(M) work and storage for fixed s. Raises SingularSystemError when a
    pivot magnitude falls below 1e-12.

    LAPACK factors and solves copies, so sys.band and sys.rhs are left as
    they were. The (n, m) solution is returned as LAPACK gives it, in
    column-major order."""
    # Imported here: scipy.linalg costs about 200 ms and 25 MB on import,
    # and a planner run that never solves should not pay for it.
    from scipy.linalg import lapack

    lu, ipiv, info = lapack.dgbtrf(sys.band, sys.kl, sys.ku)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded factorization")
    diag = lu[sys.kl + sys.ku, :]
    if info > 0 or np.any(np.abs(diag) < _PIVOT_TOL):
        raise SingularSystemError("pivot below 1e-12: check segment durations")
    x, info = lapack.dgbtrs(lu, sys.kl, sys.ku, sys.rhs, ipiv)
    if info != 0:
        raise SingularSystemError("banded back-substitution failed")
    return x


@dataclass(frozen=True)
class PiecewisePolynomial:
    """M segments of degree 2s-1 over local time tau in [0, T_i].

    coeffs[i, j, :] is the m-vector coefficient of tau^j on segment i; its
    even width 2s >= 2 gives s. coeffs and durations are read-only copies of
    the arrays given, so the knots computed here stay valid. The last knot,
    the durations' cumulative sum, is the end time: the domain is [0,
    knots[-1]], and segment i covers [knots[i], knots[i+1]), the last
    segment closed. A trajectory has at least one segment.
    """

    coeffs: np.ndarray  # (M, 2s, m)
    durations: np.ndarray  # (M,)
    s: int = field(init=False)

    def __post_init__(self):
        durations = _read_only_copy(self.durations, float)
        object.__setattr__(self, "coeffs", _read_only_copy(self.coeffs, float))
        object.__setattr__(self, "durations", durations)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] % 2 or not self.coeffs.shape[1]:
            raise ValueError("coefficient stack must have shape (M, 2s, m) with s >= 1")
        object.__setattr__(self, "s", self.coeffs.shape[1] // 2)
        if durations.ndim != 1 or len(durations) != self.coeffs.shape[0]:
            raise ValueError("durations/segments mismatch")
        if len(durations) < 1:
            raise ValueError("a trajectory needs at least one segment")
        if not np.all(np.isfinite(durations) & (durations > 0)):
            raise ValueError("segment durations must be positive and finite")
        knots = np.concatenate([[0.0], np.cumsum(durations)])
        knots.setflags(write=False)
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_knot_list", knots.tolist())
        # Read-only (2s, m) views of each segment's coefficients for derivatives.
        object.__setattr__(self, "_segments", list(self.coeffs))

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
        """The end time, knots[-1]."""
        return self._knot_list[-1]

    def derivatives(self, t: float, orders: int) -> np.ndarray:
        """Derivatives 0..orders-1 of the trajectory at global time t, as a
        C-contiguous (orders, m) array whose row k is eval(t, k). orders must
        be an integer in 1..2s (else ValueError), and t a real number in
        [0, knots[-1]] (else DomainError; a NaN is one too).

        The read of one time; sample reads many, with equal bits. What does
        not depend on t is prepared once per trajectory or table: the knots
        as a list, the basis as a cached (orders, 1, 2s) stack and the
        segments as a list of views. t is read as a Python float (exact for
        an np.float64 or an int), so the segment search and the domain test
        run on floats; what remains is one np.float_power, one multiply and
        one stacked matmul."""
        t = float(t)
        knots = self._knot_list
        if not 0.0 <= t <= knots[-1]:
            raise DomainError(f"t={t} outside [0, {knots[-1]}]")
        n = 2 * self.s
        if not (type(orders) is int and 1 <= orders <= n):  # the common case, without a call
            _check_orders(orders, n)
        i = bisect.bisect_right(knots, t) - 1
        if i == len(knots) - 1:  # the end time: the last segment is closed
            i -= 1
        factors, exponents = _basis_table(n, orders)
        # np.float_power is the C library's pow, which a scalar tau ** (j - k)
        # calls; np.power may take a SIMD pow that differs in the last bit.
        # A stack of vector-matrix products sums each row as one basis row
        # @ coeffs[i] does; a 2-D basis @ coeffs product may sum in another
        # order.
        return np.matmul(factors * np.float_power(t - knots[i], exponents), self._segments[i])[:, 0]

    def sample(self, ts, orders: int) -> np.ndarray:
        """derivatives(t, orders) for each t of the 1-D array ts, stacked
        (N, orders, m) with equal bits: the same segment rule, basis and
        per-row products, over all times at once. A ts of another dimension
        or an order outside 1..2s is a ValueError, a time outside
        [0, knots[-1]] or a NaN a DomainError."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError(f"sample times must be 1-D, got shape {ts.shape}")
        knots = self._knots
        if not ((ts >= 0.0) & (ts <= knots[-1])).all():
            raise DomainError(f"sample times outside [0, {knots[-1]}]")
        n = 2 * self.s
        _check_orders(orders, n)
        seg = np.minimum(np.searchsorted(knots, ts, side="right") - 1, self.M - 1)
        factors, exponents = _basis_table(n, orders)
        basis = factors * np.float_power((ts - knots[seg])[:, None, None, None], exponents)
        return np.matmul(basis, self.coeffs[seg][:, None])[:, :, 0, :]

    def eval(self, t: float, k: int = 0) -> np.ndarray:
        """k-th derivative of the trajectory at global time t (m-vector); k
        must be an integer in 0..2s-1."""
        return self.derivatives(t, k + 1)[k]


def solve_bivp(spec: BivpSpec) -> PiecewisePolynomial:
    """Unique minimum-effort spline satisfying the boundary, waypoint and
    continuity conditions of the spec."""
    c = banded_plu_solve(build_banded_system(spec))
    # c is column-major, as LAPACK returns it: its (m, n) transpose is a
    # C-order view, and PiecewisePolynomial's copy is the one copy made.
    coeffs = c.T.reshape(spec.m, spec.M, 2 * spec.s).transpose(1, 2, 0)
    return PiecewisePolynomial(coeffs, spec.durations)


def control_effort(traj: PiecewisePolynomial) -> np.float64:
    """Integral of the squared s-th derivative over the whole trajectory,
    by exact polynomial product integration (no quadrature).

    With a_j the s-th derivative's coefficient of tau^j on a segment of
    duration T, the segment adds sum_{j,k} (a_j . a_k) T^p / p, p = j + k + 1.
    All terms are formed in whole-array passes and summed one by one in
    (segment, j, k) order:
      - every a_j . a_k is a (1, m) @ (m, 1) product in one stacked matmul,
        which numpy evaluates with the BLAS dot of np.dot; a plain
        (a_j * a_k).sum() can differ in the last bit;
      - T^p comes from np.float_power, the C library's pow that a scalar
        T ** p calls;
      - np.cumsum adds left to right, as a running total does.
    The result is an np.float64 (the durations are), and its repr, which
    callers may record, is that of the scalar triple loop over np.dot."""
    s = traj.s
    n = 2 * s
    # gamma^(s)(tau) = sum_{j>=s} c_j * perm(j, s) * tau^(j-s); the factors
    # are row s of the basis table.
    fac = _basis_table(n, n)[0][s, 0, s:]
    a = traj.coeffs[:, s:, :] * fac[:, None]  # (M, s, m) scaled coefficients
    dots = np.matmul(a[:, :, None, None, :], a[:, None, :, :, None])[..., 0, 0]
    jk = np.add.outer(np.arange(s), np.arange(s))  # p - 1 for each (j, k)
    powers = np.float_power(traj.durations[:, None], np.arange(1.0, 2 * s))  # T^1 .. T^(2s-1)
    terms = dots * powers[:, jk] / (jk + 1.0)
    # 0.0 + makes an all-(-0.0) sum +0.0, as a running total from 0.0 does.
    return 0.0 + np.cumsum(terms)[-1]


def collision_repair(
    traj: PiecewisePolynomial,
    spec: BivpSpec,
    grid: OccupancyGrid,
    v_max: float,
    a_max: float,
) -> PiecewisePolynomial:
    """Iteratively insert straight-line midpoints into colliding segments and
    re-solve until the densely sampled trajectory is collision-free. Only
    the halves of a split segment are timed; the rest keep their durations.

    Sampling step resolution/(2 v_max) seconds guarantees consecutive samples
    are less than half a voxel apart; the sampled polyline is then verified
    with the exact voxel traversal's verdicts so no voxel can be skipped. Most
    chords get that verdict from their two endpoint voxels alone; only those
    between free voxels that cross two or more voxel faces run the walk (see
    _colliding_segments). A non-finite sample raises ValueError.
    RepairExhaustedError is raised before any re-solve when a colliding
    segment's straight chord, waypoint to waypoint, is not free (halving
    never frees the chord), and when segments still collide after
    _MAX_REPAIR_ROUNDS re-solves. The chord test is conservative: repair
    judges the sampled curve, which after more splits might pass around a
    voxel its chord clips, but such a segment is rejected at once.
    """
    # An infinite v_max makes the sample step 0, a NaN one makes it NaN.
    if not (v_max > 0 and math.isfinite(v_max)):
        raise ValueError("v_max must be positive and finite")
    dt = grid.resolution / (2.0 * v_max)
    for _ in range(_MAX_REPAIR_ROUNDS + 1):
        colliding = _colliding_segments(traj, grid, dt)
        if not colliding:
            return traj
        if _ == _MAX_REPAIR_ROUNDS:
            break
        # Original joints keep their conditions; midpoints pin position only.
        waypoints = [spec.waypoints[0]]
        durations = []
        intermediate = []
        for i, (a, b) in enumerate(zip(spec.waypoints[:-1], spec.waypoints[1:])):
            if i in colliding:
                if not segment_collision_free(grid, a.tolist(), b.tolist()):
                    raise RepairExhaustedError(f"segment {i}'s chord collides: midpoints cannot free it")
                mid = 0.5 * (a + b)
                waypoints.append(mid)
                intermediate.append(mid.reshape(-1, 1))
                durations.extend(trapezoidal_time_allocation([a, mid, b], v_max, a_max))
            else:
                durations.append(spec.durations[i])
            waypoints.append(b)
            if i < spec.M - 1:
                intermediate.append(spec.intermediate[i])
        spec = replace(spec, waypoints=waypoints, durations=durations, intermediate=intermediate)
        traj = solve_bivp(spec)
    raise RepairExhaustedError(f"segments still collide after {_MAX_REPAIR_ROUNDS} rounds")


def _colliding_segments(traj: PiecewisePolynomial, grid: OccupancyGrid, dt: float) -> set[int]:
    """Indices of segments whose samples, dt apart, are not joined by free
    straight lines (chords), as segment_collision_free judges them.

    All segments are sampled in one pass. Segment i's samples are those of
    np.linspace(t0, t1, c) with c = max(2, ceil((t1 - t0) / dt) + 1): the
    times k * step + t0 with step = (t1 - t0) / (c - 1), the last set to t1.
    Their positions are read through sample (a sample on a knot belongs to
    the next segment), so they equal eval's.

    Most chords are judged from their two endpoint voxels, computed with the
    walk's own operations: the walk visits both, so a chord with an endpoint
    voxel out of bounds or occupied is not free, and a chord between free
    voxels that crosses at most one voxel face is free. Only the chords
    between free voxels with two or more crossings call the walk. A
    non-finite sample raises ValueError.

    Every sample's voxel is computed once, with the bounds tested before the
    integer cast (a sample out of bounds reads voxel 0 and is not free), and
    its occupancy read through one flat index. The pair of samples across a
    knot, the last of one segment and the first of the next, is no chord: it
    is marked free with no crossing, so it neither flags nor walks.
    """
    knots = traj.knots
    t0 = knots[:-1]
    delta = knots[1:] - t0
    counts = np.maximum(2, np.ceil(delta / dt).astype(np.intp) + 1)
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(traj.M), counts)  # segment index of each sample
    k = np.arange(ends[-1]) - (ends - counts)[owner]
    ts = k * (delta / (counts - 1))[owner] + t0[owner]
    ts[ends - 1] = knots[1:]
    # Non-finite coefficients make inf * 0 or overflow here; the check below
    # reports them.
    with np.errstate(invalid="ignore", over="ignore"):
        pts = traj.sample(ts, 1)[:, 0, :]
        u = (pts - grid.origin) * grid._inv
    if not np.isfinite(u).all():
        raise ValueError("trajectory sample or its voxel coordinates not finite")

    occ = grid.occupancy
    _, ny, nz = occ.shape
    bounded = (u >= 0.0) & (u < occ.shape)
    inside = bounded[:, 0] & bounded[:, 1] & bounded[:, 2]
    cell = np.where(inside[:, None], u, 0.0).astype(np.intp)  # truncation is floor for u >= 0
    free = inside & ~occ.reshape(-1)[cell @ (ny * nz, nz, 1)]
    # Chord j joins samples j and j + 1.
    both_free = free[:-1] & free[1:]
    step = np.abs(cell[1:] - cell[:-1])
    crossings = step[:, 0] + step[:, 1] + step[:, 2]
    seams = ends[:-1] - 1
    both_free[seams] = True
    crossings[seams] = 0
    out = set(owner[:-1][~both_free].tolist())
    for j in np.flatnonzero(both_free & (crossings >= 2)).tolist():
        i = int(owner[j])
        if i not in out and not segment_collision_free(grid, pts[j].tolist(), pts[j + 1].tolist()):
            out.add(i)
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
    a wrong line count, a coefficient row of other than m values or a
    non-positive or non-finite duration raises TrajectoryFileError."""
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
                row = seg[1 + j].split()
                if len(row) != m:
                    raise ValueError(f"coefficient row {j} holds {len(row)} values, not m={m}")
                coeffs[i, j] = [float(v) for v in row]
        except ValueError as e:
            raise TrajectoryFileError(f"malformed segment {i}: {e}") from e
    try:
        return PiecewisePolynomial(coeffs, durations)
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
    rows = traj.sample(ts, 3).reshape(len(ts), 9).tolist()
    with open(path, "w") as f:
        f.write("t,x,y,z,vx,vy,vz,ax,ay,az\n")
        for t, row in zip(ts.tolist(), rows):
            f.write(f"{t:.9g}," + ",".join(f"{c:.9g}" for c in row) + "\n")
