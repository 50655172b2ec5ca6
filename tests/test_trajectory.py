"""Back end: time allocation, banded system assembly and solve, trajectory
evaluation, control effort, collision repair and file formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadplan.trajectory as trajectory_module
from quadplan.grid import ObstacleSpec, OccupancyGrid, random_cluttered_map, segment_collision_free
from quadplan.pipeline import flat_flag_at
from quadplan.trajectory import (
    BandedSystem,
    BivpSpec,
    DomainError,
    PiecewisePolynomial,
    RepairExhaustedError,
    SingularSystemError,
    TrajectoryFileError,
    _basis_table,
    _colliding_segments,
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

from oracles import (
    band_to_dense,
    dense_bivp_system,
    dense_solve_bivp,
    effort_of_coeffs,
    random_bivp_spec,
    reference_build_banded_system,
    reference_control_effort,
    reference_derivatives,
    reference_eval,
    reference_poly_basis,
    run_fresh_python,
)


def empty_grid(side=10):
    return OccupancyGrid(np.zeros((side,) * 3, dtype=bool), 1.0)


# ------------------------------------------------------------- time allocation


def test_trapezoidal_branches():
    wp = np.array([[0.0, 0, 0], [1.0, 0, 0], [11.0, 0, 0]])
    t = trapezoidal_time_allocation(wp, v_max=2.0, a_max=1.0)
    assert t[0] == pytest.approx(2.0)  # triangular: 2*sqrt(1/1)
    assert t[1] == pytest.approx(7.0)  # trapezoidal: 4 + 6/2


def test_trapezoidal_branch_boundary():
    # d = 2*d_acc = v^2/a: both formulas give 2v/a.
    v, a = 1.7, 0.6
    d = v * v / a
    wp = np.array([[0.0, 0, 0], [d, 0, 0]])
    t = trapezoidal_time_allocation(wp, v, a)
    assert t[0] == pytest.approx(2.0 * v / a)
    assert t[0] == pytest.approx(2.0 * math.sqrt(d / a))


def test_trapezoidal_errors():
    wp = np.array([[0.0, 0, 0], [0.0, 0, 0]])
    with pytest.raises(ValueError):
        trapezoidal_time_allocation(wp, 1.0, 1.0)
    with pytest.raises(ValueError):
        trapezoidal_time_allocation(np.array([[0.0, 0, 0], [1, 0, 0]]), 0.0, 1.0)


@pytest.mark.parametrize("v_max", [math.inf, math.nan])
def test_trapezoidal_rejects_non_finite_v_max(v_max):
    """Rejected before any arithmetic: np.where evaluates both branches, so
    an infinite v_max would compute inf - inf in the cruise one and warn."""
    wp = np.array([[0.0, 0, 0], [1.0, 0, 0], [11.0, 0, 0]])
    with pytest.raises(ValueError, match="v_max"):
        trapezoidal_time_allocation(wp, v_max, 1.0)


# ------------------------------------------------------------------ poly basis


def test_poly_basis():
    """The table holds one 1 x n row per derivative order."""
    factors, exponents = _basis_table(6, 3)
    assert factors.shape == exponents.shape == (3, 1, 6)
    assert np.array_equal((factors * np.float_power(0.0, exponents))[:, 0],
                          [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0]])
    factors, exponents = _basis_table(6, 2)
    assert np.array_equal((factors * np.float_power(2.0, exponents))[1, 0], [0, 1, 4, 12, 32, 80])


def test_poly_basis_matches_scalar_powers():
    """Rows of the basis table, taken to the powers of tau with
    np.float_power as every read does, equal perm(j, k) * tau ** (j - k)
    bit for bit, for Python and numpy float times."""
    rng = np.random.default_rng(11)
    taus = [0.0, 1.0, 0.5, 2.0, 1e-300, 1e10, *rng.uniform(0.0, 5.0, 200)]
    for s in (1, 2, 3, 4):
        factors, exponents = _basis_table(2 * s, 2 * s)
        for tau in taus:
            for t in (float(tau), np.float64(tau)):
                rows = (factors * np.float_power(t, exponents))[:, 0]
                for k in range(2 * s):
                    assert np.array_equal(rows[k], reference_poly_basis(t, s, k))


# ------------------------------------------------------------------- spec type


def test_bivp_spec_validation():
    wp = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(ValueError):
        BivpSpec(s=3, waypoints=wp, durations=[1.0])  # wrong count
    with pytest.raises(ValueError):
        BivpSpec(s=3, waypoints=wp, durations=[1.0, 0.0])  # nonpositive duration
    with pytest.raises(ValueError):
        BivpSpec(s=0, waypoints=wp, durations=[1.0, 1.0])
    with pytest.raises(ValueError):
        BivpSpec(
            s=3, waypoints=wp, durations=[1.0, 1.0],
            intermediate=[np.zeros((3, 4))],  # d_i > s
        )
    spec = BivpSpec.rest_to_rest(wp, [1.0, 1.0], 3)
    assert spec.M == 2 and spec.m == 3
    assert np.array_equal(spec.boundary_start[:, 0], wp[0])
    assert np.all(spec.boundary_start[:, 1:] == 0.0)
    assert len(spec.intermediate) == 1
    assert spec.intermediate[0].shape == (3, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_bivp_spec_rejects_non_finite_durations(bad):
    """nan slips past a `<= 0` test; the spec itself must refuse it, before
    any assembly or solve runs."""
    wp = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(ValueError, match="positive and finite"):
        BivpSpec.rest_to_rest(wp, [1.0, bad], 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["waypoints", "boundary_start", "boundary_end", "intermediate"])
def test_bivp_spec_rejects_non_finite_conditions(where, bad):
    """A non-finite waypoint or flag would solve, without an error, to
    non-finite coefficients; the spec refuses it instead."""
    wp = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    kwargs = {"s": 3, "waypoints": wp, "durations": [1.0, 1.0]}
    if where == "waypoints":
        kwargs["waypoints"] = wp.copy()
        kwargs["waypoints"][1, 2] = bad
    elif where == "intermediate":
        kwargs["intermediate"] = [np.array([[1.0, bad], [0.0, 0.0], [0.0, 0.0]])]
    else:
        flag = np.zeros((3, 3))
        flag[:, 0] = wp[0 if where == "boundary_start" else -1]
        flag[0, 1] = bad  # a velocity
        kwargs[where] = flag
    with pytest.raises(ValueError, match="finite"):
        BivpSpec(**kwargs)


def test_bivp_spec_rejects_intermediates_of_another_dimension():
    """An intermediate condition is an (m, d_i) array; a 3-D one is the
    spec's own ValueError, not numpy's from a later concatenation."""
    wp = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    for bad in (np.zeros((3, 1, 2)), np.zeros((3, 1, 1, 1))):
        with pytest.raises(ValueError, match=r"\(m, d_i\)"):
            BivpSpec(s=3, waypoints=wp, durations=[1.0, 1.0], intermediate=[bad])


def test_bivp_spec_intermediates_keep_values_shapes_and_dtype():
    """Every intermediate condition comes out as the per-entry
    np.atleast_2d(np.asarray(g, dtype=float)) made it: the default (each
    interior waypoint as an (m, 1) column), nested lists, integer and
    float32 arrays, 1-D rows for m = 1 and mixed d_i; a 2-D float64 array,
    as collision_repair passes, is kept without a copy."""

    def old_conversion(intermediate):
        return [np.atleast_2d(np.asarray(g, dtype=float)) for g in intermediate]

    wp = np.array([[0.0, 0, 0], [1, 0, 0], [2, 1, 0], [3, 1, 1]])
    kept = np.array([[2.0, 0.5], [1.0, 0.0], [0.0, -0.5]])
    line = np.array([[0.0], [1.0], [3.0]])
    cases = [
        (wp, 3, None, [wp[1].reshape(3, 1), wp[2].reshape(3, 1)]),
        (wp, 3, [wp[1].reshape(3, 1).tolist(), kept], None),
        (wp, 3, [np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), kept.astype(np.float32)], None),
        (wp, 3, [wp[1].reshape(3, 1), np.zeros((3, 3))], None),
        (line, 3, [[1.0, 0.5]], None),
        (line, 3, [np.array([1.0, 0.5, 0.25])], None),
        (line, 2, [np.array([1])], None),
    ]
    for waypoints, s, given, want in cases:
        M = len(waypoints) - 1
        spec = BivpSpec(s=s, waypoints=waypoints, durations=np.ones(M), intermediate=given)
        want = old_conversion(given) if want is None else want
        assert len(spec.intermediate) == len(want) == M - 1
        for got, w in zip(spec.intermediate, want):
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == w.shape and got.tobytes() == w.tobytes()
    spec = BivpSpec(s=3, waypoints=wp, durations=np.ones(3), intermediate=[kept, kept[:, :1]])
    assert spec.intermediate[0] is kept


def test_zero_segments_are_value_errors():
    """A trajectory or a problem needs at least one segment (two waypoints);
    with none, reads used to fail with a bare IndexError and a one-waypoint
    spec with a message about intermediate conditions."""
    with pytest.raises(ValueError, match="at least one segment"):
        PiecewisePolynomial(np.zeros((0, 6, 3)), np.zeros(0), 3)
    one = np.zeros((1, 3))
    for durations in ([], trapezoidal_time_allocation(one, 2.0, 1.0)):
        with pytest.raises(ValueError, match="at least one segment"):
            BivpSpec.rest_to_rest(one, durations, 3)


def test_non_integral_orders_are_value_errors():
    """A float derivative count is a ValueError whether or not the basis
    table of the equal integer is cached (its key 3.0 equals 3), from
    derivatives, sample and eval alike; so is a float s in either
    constructor. numpy integers are integers."""
    rng = np.random.default_rng(21)
    traj = PiecewisePolynomial(rng.normal(size=(2, 8, 3)), [1.0, 1.0], 4)
    _basis_table.cache_clear()
    for _ in ("uncached", "cached"):
        for bad in (3.0, np.float64(3.0), 2.5):
            with pytest.raises(ValueError, match="order"):
                traj.derivatives(0.5, bad)
            with pytest.raises(ValueError, match="order"):
                traj.sample([0.5], bad)
        with pytest.raises(ValueError, match="order"):
            traj.eval(0.5, 2.0)
        traj.derivatives(0.5, 3)  # caches the (8, 3) table
    want = traj.derivatives(0.5, 3)
    assert traj.derivatives(0.5, np.int64(3)).tobytes() == want.tobytes()
    assert traj.eval(0.5, np.int64(2)).tobytes() == want[2].tobytes()
    wp = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    for s in (3.0, np.float64(3.0), 2.5):
        with pytest.raises(ValueError, match="integer"):
            PiecewisePolynomial(np.zeros((2, 6, 3)), [1.0, 1.0], s)
        with pytest.raises(ValueError, match="integer"):
            BivpSpec.rest_to_rest(wp, [1.0, 1.0], s)


# ------------------------------------------------------------- system assembly


def test_system_shape_and_bandwidth():
    wp = np.array([[0.0], [1.0]])
    spec = BivpSpec.rest_to_rest(wp, [1.0], 3)
    sys = build_banded_system(spec)
    assert sys.n == 6 and sys.kl == 6 and sys.ku == 6

    wp3 = np.array([[0.0], [1.0], [3.0]])
    assert build_banded_system(BivpSpec.rest_to_rest(wp3, [1.0, 1.0], 3)).n == 12

    # Everything outside the band is structurally zero in the dense view.
    rng = np.random.default_rng(7)
    spec = random_bivp_spec(rng, BivpSpec, max_segments=6)
    sys = build_banded_system(spec)
    A = band_to_dense(sys)
    for i in range(sys.n):
        for j in range(sys.n):
            if abs(i - j) > 2 * spec.s:
                assert A[i, j] == 0.0


def test_banded_assembly_matches_reference_loop():
    """The table-driven assembly writes the same band and rhs, bit for bit,
    as the row-by-row loop, for every s, M up to 40, mixed d_i and non-zero
    boundary flags."""
    rng = np.random.default_rng(12)
    for s in (1, 2, 3, 4):
        for M in range(1, 41):
            spec = random_bivp_spec(rng, BivpSpec, s=s, M=M)
            assert np.any(spec.boundary_start[:, 1:]) or s == 1
            got = build_banded_system(spec)
            want = reference_build_banded_system(spec)
            assert (got.n, got.kl, got.ku) == (want.n, want.kl, want.ku)
            # Bytes in one memory order: np.array_equal would let -0.0 pass for 0.0.
            for a, b in ((got.band, want.band), (got.rhs, want.rhs)):
                assert a.shape == b.shape, (s, M)
                assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), (s, M)
    # Every order d_i = 1..s occurs at some joint.
    spec = random_bivp_spec(np.random.default_rng(13), BivpSpec, s=4, M=40)
    assert {g.shape[1] for g in spec.intermediate} == {1, 2, 3, 4}


def test_solve_matches_reference_assembly_bytes():
    """solve_bivp's coefficients are, byte for byte, those of the solve of
    the row-by-row reference assembly, for every s and mixed d_i: the
    template scatter and the copies between LAPACK and the trajectory
    change no bit."""
    rng = np.random.default_rng(14)
    for s in (1, 2, 3, 4):
        for M in (1, 2, 5, 17):
            spec = random_bivp_spec(rng, BivpSpec, s=s, M=M)
            want = banded_plu_solve(reference_build_banded_system(spec)).reshape(M, 2 * s, spec.m)
            assert solve_bivp(spec).coeffs.tobytes() == want.tobytes(), (s, M)


def test_banded_plu_solve_leaves_the_system_unchanged():
    """The factorization and the back-substitution work on copies: the
    band and rhs read the same after a solve, so a system can be solved
    twice with equal bits."""
    spec = random_bivp_spec(np.random.default_rng(15), BivpSpec, s=3, M=12)
    sys = build_banded_system(spec)
    band, rhs = sys.band.copy(), sys.rhs.copy()
    first = banded_plu_solve(sys)
    assert sys.band.tobytes() == band.tobytes() and sys.rhs.tobytes() == rhs.tobytes()
    assert banded_plu_solve(sys).tobytes() == first.tobytes()


def test_banded_solution_satisfies_dense_constraints():
    """Dual route: the banded solve must satisfy the independently assembled
    naturally-ordered dense constraint system."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        spec = random_bivp_spec(rng, BivpSpec, max_segments=12)
        c = banded_plu_solve(build_banded_system(spec))
        A, b = dense_bivp_system(spec)
        resid = np.abs(A @ c - b).max()
        assert resid <= 1e-7 * (1.0 + np.abs(b).max())


def test_banded_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        spec = random_bivp_spec(rng, BivpSpec)
        got = solve_bivp(spec).coeffs
        want = dense_solve_bivp(spec)
        scale = np.abs(want).max() + 1.0
        assert np.abs(got - want).max() <= 1e-8 * scale


def test_singular_system_error():
    band = np.zeros((3 * 2 + 1, 4))
    sys = BandedSystem(4, 2, 2, band, np.zeros((4, 1)))
    with pytest.raises(SingularSystemError):
        banded_plu_solve(sys)


# --------------------------------------------------------------------- solving


def test_minimum_jerk_quintic():
    spec = BivpSpec.rest_to_rest(np.array([[0.0], [1.0]]), [1.0], 3)
    traj = solve_bivp(spec)
    assert np.allclose(traj.coeffs[0, :, 0], [0, 0, 0, 10, -15, 6], atol=1e-9)
    assert traj.eval(0.5)[0] == pytest.approx(0.5)  # rest-to-rest symmetry


def test_minimum_snap_septic():
    spec = BivpSpec.rest_to_rest(np.array([[0.0], [1.0]]), [1.0], 4)
    traj = solve_bivp(spec)
    assert np.allclose(traj.coeffs[0, :, 0], [0, 0, 0, 0, 35, -84, 70, -20], atol=1e-9)


def test_constant_trajectory():
    spec = BivpSpec.rest_to_rest(np.array([[2.0, 3.0, 4.0], [2.0 + 1e-12, 3.0, 4.0]]), [1.0], 3)
    traj = solve_bivp(spec)
    assert control_effort(traj) == pytest.approx(0.0, abs=1e-12)


def test_boundary_and_waypoint_reproduction():
    rng = np.random.default_rng(3)
    spec = random_bivp_spec(rng, BivpSpec, s=3, max_segments=8)
    traj = solve_bivp(spec)
    T = traj.total_duration
    for k in range(spec.s):
        assert np.allclose(traj.eval(0.0, k), spec.boundary_start[:, k], atol=1e-7)
        assert np.allclose(traj.eval(T, k), spec.boundary_end[:, k], atol=1e-7)
    at_knots = np.array([traj.eval(t) for t in traj.knots])
    assert np.allclose(at_knots, spec.waypoints, atol=1e-7)


def test_joint_continuity():
    rng = np.random.default_rng(4)
    for s in (3, 4):
        wp = rng.normal(size=(9, 3)) * 4.0
        spec = BivpSpec.rest_to_rest(wp, rng.uniform(0.5, 2.0, 8), s)
        traj = solve_bivp(spec)
        knots = traj.knots
        for i in range(1, traj.M):
            t = knots[i]
            for k in range(2 * s - 1):  # orders 0 .. 2s-2 for d_i = 1
                left = reference_poly_basis(traj.durations[i - 1], s, k) @ traj.coeffs[i - 1]
                right = reference_poly_basis(0.0, s, k) @ traj.coeffs[i]
                mag = 1.0 + max(np.abs(left).max(), np.abs(right).max())
                assert np.abs(left - right).max() <= 1e-6 * mag, (s, i, k, t)


# ------------------------------------------------------------------ evaluation


def test_segment_lookup_conventions():
    """Segment i is read over [knots[i], knots[i+1]) in local time t -
    knots[i], and the last segment is closed at the end time."""
    coeffs = np.zeros((2, 6, 1))
    coeffs[:, 0, 0] = [10.0, 20.0]  # the segment's index, as an offset
    coeffs[:, 1, 0] = 1.0  # plus its local time
    traj = PiecewisePolynomial(coeffs, np.array([1.0, 2.0]), 3)
    assert traj.eval(0.0)[0] == 10.0
    assert traj.eval(0.5)[0] == 10.5
    assert traj.eval(1.0)[0] == 20.0  # right-open intervals
    assert traj.eval(3.0)[0] == 22.0  # last segment closed
    with pytest.raises(DomainError):
        traj.eval(3.0001)
    with pytest.raises(DomainError):
        traj.eval(-0.0001)


def test_durations_and_knots_are_read_only():
    """The knots are computed once, so the durations they come from must not
    change under them; the caller's arrays, coefficients included, are
    copied and left as they were."""
    given = np.array([1.0, 2.0, 0.5])
    coeffs = np.zeros((3, 6, 2))
    traj = PiecewisePolynomial(coeffs, given, 3)
    for arr in (traj.durations, traj.knots, traj.coeffs):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    assert given.flags.writeable and coeffs.flags.writeable
    given[0] = 9.0
    coeffs[0, 0] = 9.0
    assert np.array_equal(traj.durations, [1.0, 2.0, 0.5])
    assert not traj.coeffs.any() and traj.eval(0.0).tolist() == [0.0, 0.0]
    assert np.array_equal(traj.knots, [0.0, 1.0, 3.0, 3.5])
    assert traj.total_duration == 3.5
    # The end time is the last cumulative knot, not np.sum's pairwise sum,
    # which over many segments differs from it in the last bits.
    many = np.random.default_rng(0).uniform(0.1, 3.0, 200)
    traj = PiecewisePolynomial(np.zeros((200, 6, 1)), many, 3)
    assert traj.total_duration == traj.knots[-1] != float(np.sum(many))


def test_end_time_is_the_last_knot():
    """Every trajectory evaluates at its own last knot, which is its total
    duration, and not a bit past it: the domain check and the segment
    lookup read the same end time."""
    rng = np.random.default_rng(16)
    for _ in range(200):
        M = int(rng.integers(1, 60))
        traj = PiecewisePolynomial(rng.normal(size=(M, 6, 3)), rng.uniform(0.1, 3.0, M), 3)
        end = traj.knots[-1]
        assert traj.total_duration == end
        assert np.array_equal(traj.eval(end), reference_eval(traj, end, 0))
        with pytest.raises(DomainError):
            traj.eval(math.nextafter(end, math.inf))


def test_derivatives_rows_match_eval():
    """Row k of derivatives(t, orders) is eval(t, k), and both equal the
    scalar-power basis row times the segment's coefficients bit for bit."""
    rng = np.random.default_rng(14)
    for s in (1, 2, 3, 4):
        traj = solve_bivp(random_bivp_spec(rng, BivpSpec, s=s, max_segments=8))
        T = traj.total_duration
        ts = [0.0, T, *traj.knots[1:-1], *rng.uniform(0.0, T, 20)]
        for t in ts:
            for orders in range(1, 2 * s + 1):
                rows = traj.derivatives(t, orders)
                assert rows.shape == (orders, traj.m)
                for k in range(orders):
                    assert np.array_equal(rows[k], traj.eval(t, k)), (s, t, k)
                    assert np.array_equal(rows[k], reference_eval(traj, t, k)), (s, t, k)
        for bad in (0, 2 * s + 1):
            with pytest.raises(ValueError):
                traj.derivatives(0.5 * T, bad)
        with pytest.raises(DomainError):
            traj.derivatives(T * (1 + 1e-9), 1)
        with pytest.raises(ValueError):
            traj.eval(0.5 * T, -1)


@st.composite
def _trajectory_and_times(draw):
    """A random trajectory of order s in 1..4 and dimension m in 1..3, and
    times at 0, at every knot, a bit either side of the interior knots, at
    the end and in between, in random order."""
    s = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    M = draw(st.integers(1, 6))
    durations = draw(st.lists(st.floats(0.05, 3.0), min_size=M, max_size=M))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    traj = PiecewisePolynomial(rng.normal(size=(M, 2 * s, m)) * 3.0, durations, s)
    knots = traj.knots.tolist()
    near = [math.nextafter(k, d) for k in knots[1:-1] for d in (0.0, math.inf)]
    between = draw(st.lists(st.floats(0.0, knots[-1]), max_size=12))
    ts = np.array([0.0, *knots, *near, *between, knots[-1]])
    return traj, rng.permutation(ts)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_trajectory_and_times())
def test_sample_matches_derivatives(case):
    """sample(ts, orders)[i] is derivatives(ts[i], orders) bit for bit, for
    every order 1..2s."""
    traj, ts = case
    for orders in range(1, 2 * traj.s + 1):
        got = traj.sample(ts, orders)
        assert got.shape == (len(ts), orders, traj.m)
        want = np.array([traj.derivatives(t, orders) for t in ts.tolist()])
        assert got.tobytes() == want.tobytes(), orders


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_trajectory_and_times())
def test_one_time_reads_match_reference_derivatives(case):
    """derivatives, eval and flat_flag_at equal the reference body byte for
    byte, for every order 1..2s and times given as Python floats, np.float64
    and ints."""
    traj, ts = case
    s = traj.s
    times = [*ts.tolist(), *ts, *range(int(traj.total_duration) + 1)]
    for t in times:
        for orders in range(1, 2 * s + 1):
            want = reference_derivatives(traj, t, orders)
            got = traj.derivatives(t, orders)
            assert got.shape == (orders, traj.m) and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), (t, orders)
        for k in range(2 * s):
            assert traj.eval(t, k).tobytes() == want[k].tobytes(), (t, k)
        flag = flat_flag_at(traj, t)
        assert flag.shape == (traj.m, s) and flag.flags.c_contiguous
        assert flag.tobytes() == np.ascontiguousarray(want[:s].T).tobytes(), t


def test_sample_errors_and_empty_times():
    """A ts that is not 1-D or an order outside 1..2s is a plain ValueError;
    a time outside [0, end], infinite or NaN is a DomainError; no times give
    an (0, orders, m) array."""
    rng = np.random.default_rng(17)
    traj = solve_bivp(random_bivp_spec(rng, BivpSpec, s=3, max_segments=4))
    end = traj.total_duration
    for ts in (0.5, np.full((2, 2), 0.5)):
        with pytest.raises(ValueError, match="1-D") as err:
            traj.sample(ts, 1)
        assert type(err.value) is ValueError
    for bad in (-1e-300, math.nextafter(end, math.inf), math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            traj.sample(np.array([0.0, bad, end]), 1)
    for orders in (0, 7):
        with pytest.raises(ValueError, match="order") as err:
            traj.sample([0.0, end], orders)
        assert type(err.value) is ValueError
    for ts in ([], np.empty(0)):
        for orders in (1, 6):
            out = traj.sample(ts, orders)
            assert out.shape == (0, orders, 3) and out.dtype == float


def test_import_leaves_scipy_linalg_unloaded():
    """LAPACK is imported by banded_plu_solve alone, on its first solve:
    importing the package does not pay for scipy.linalg."""
    assert run_fresh_python([
        "import sys",
        "import numpy as np",
        "import quadplan",
        "from quadplan.trajectory import BivpSpec, solve_bivp",
        "print('scipy.linalg' in sys.modules)",
        "spec = BivpSpec.rest_to_rest(np.array([[0.0], [1.0]]), [1.0], 3)",
        "print(round(float(solve_bivp(spec).eval(0.5)[0]), 9), 'scipy.linalg' in sys.modules)",
    ]) == ["False", "0.5", "True"]


def test_piecewise_polynomial_rejects_bad_durations():
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            PiecewisePolynomial(np.zeros((2, 6, 3)), [1.0, bad], 3)


def test_eval_matches_finite_differences():
    rng = np.random.default_rng(5)
    spec = random_bivp_spec(rng, BivpSpec, s=4, max_segments=5)
    traj = solve_bivp(spec)
    T = traj.total_duration
    h = 1e-6
    for _ in range(100):
        t = rng.uniform(2 * h, T - 2 * h)
        for k in (1, 2, 3):
            fd = (traj.eval(t + h, k - 1) - traj.eval(t - h, k - 1)) / (2 * h)
            ex = traj.eval(t, k)
            assert np.abs(fd - ex).max() <= 1e-5 * (1.0 + np.abs(ex).max())


# ---------------------------------------------------------------------- effort


def test_control_effort_quintic():
    spec = BivpSpec.rest_to_rest(np.array([[0.0], [1.0]]), [1.0], 3)
    traj = solve_bivp(spec)
    assert control_effort(traj) == pytest.approx(720.0, rel=1e-9)


def test_control_effort_matches_polynomial_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        spec = random_bivp_spec(rng, BivpSpec, max_segments=10)
        traj = solve_bivp(spec)
        want = effort_of_coeffs(traj.coeffs, traj.durations, traj.s)
        assert control_effort(traj) == pytest.approx(want, rel=1e-9)


def test_control_effort_matches_reference_loop():
    """The whole-array effort equals the scalar triple loop over np.dot bit
    for bit, as an np.float64, for s = 1..4 and m = 1..3."""
    rng = np.random.default_rng(16)
    quintic = solve_bivp(BivpSpec.rest_to_rest(np.array([[0.0], [1.0]]), [1.0], 3))
    trajs = [quintic]
    for s in (1, 2, 3, 4):
        for m in (1, 2, 3):
            for _ in range(4):
                M = int(rng.integers(1, 12))
                wp = rng.normal(size=(M + 1, m)) * 5.0
                durations = rng.uniform(0.2, 3.0, M)
                trajs.append(solve_bivp(BivpSpec.rest_to_rest(wp, durations, s)))
        trajs.append(solve_bivp(random_bivp_spec(rng, BivpSpec, s=s, max_segments=20)))
    for traj in trajs:
        got = control_effort(traj)
        want = reference_control_effort(traj)
        assert type(got) is np.float64 and type(want) is np.float64
        assert repr(got) == repr(want), (traj.s, traj.m, traj.M)


def test_effort_time_scaling():
    rng = np.random.default_rng(7)
    for s in (3, 4):
        wp = rng.normal(size=(5, 3))
        durations = rng.uniform(0.5, 1.5, 4)
        e1 = control_effort(solve_bivp(BivpSpec.rest_to_rest(wp, durations, s)))
        e2 = control_effort(solve_bivp(BivpSpec.rest_to_rest(wp, 2.0 * durations, s)))
        assert e2 == pytest.approx(e1 * 2.0 ** (1 - 2 * s), rel=1e-6)


# ---------------------------------------------------------------------- repair


def test_repair_noop_on_free_map():
    spec = BivpSpec.rest_to_rest(
        np.array([[1.0, 1, 1], [8.0, 8, 8]]), [5.0], 3
    )
    traj = solve_bivp(spec)
    out = collision_repair(traj, spec, empty_grid(), v_max=2.0, a_max=1.0)
    assert out is traj


def corner_cut_instance():
    """L-shaped corridor: the smooth curve cuts the inside corner voxels
    that the straight waypoint polyline avoids."""
    occ = np.zeros((10, 10, 10), dtype=bool)
    occ[0:6, 0:6, :] = True
    occ[1:2, :, :] = False  # corridor along y at x in [1, 2)
    occ[:, 1:2, :] = False  # corridor along x at y in [1, 2)
    occ[0, :, :] = True  # outer walls: the smooth turn overshoots outward
    occ[:, 0, :] = True
    grid = OccupancyGrid(occ, 1.0)
    wp = np.array([[8.0, 1.5, 5.0], [1.5, 1.5, 5.0], [1.5, 8.0, 5.0]])
    durations = trapezoidal_time_allocation(wp, 2.0, 1.0)
    spec = BivpSpec.rest_to_rest(wp, durations, 3)
    return grid, spec


def test_repair_fixes_corner_cut():
    grid, spec = corner_cut_instance()
    traj = solve_bivp(spec)
    repaired = collision_repair(traj, spec, grid, v_max=2.0, a_max=1.0)
    # Densely sample the result and recheck with the exact checker.
    ts = np.linspace(0.0, repaired.total_duration, 2000)
    pts = np.array([repaired.eval(t) for t in ts])
    assert all(
        segment_collision_free(grid, a, b) for a, b in zip(pts[:-1], pts[1:])
    )
    # Repair only inserts waypoints: the originals survive as a subsequence.
    out_wp = np.array([repaired.eval(t) for t in repaired.knots])
    j = 0
    for w in spec.waypoints:
        while j < len(out_wp) and not np.allclose(out_wp[j], w, atol=1e-6):
            j += 1
        assert j < len(out_wp)
        j += 1


def test_repair_keeps_waypoint_conditions():
    # A velocity condition at the corner (d_i = 2) that makes the first solve
    # cut the corner, so repair must insert midpoints and re-solve.
    grid, rest = corner_cut_instance()
    corner = rest.waypoints[1]
    v_corner = np.array([-1.0, 1.0, 0.0])
    spec = BivpSpec(
        s=3,
        waypoints=rest.waypoints,
        durations=rest.durations,
        intermediate=[np.column_stack([corner, v_corner])],
    )
    repaired = collision_repair(solve_bivp(spec), spec, grid, v_max=2.0, a_max=1.0)
    assert repaired.M > spec.M  # at least one repair round ran
    out_wp = np.array([repaired.eval(t) for t in repaired.knots])
    j = int(np.argmin(np.linalg.norm(out_wp - corner, axis=1)))
    assert np.allclose(out_wp[j], corner, atol=1e-9)
    assert np.allclose(repaired.eval(repaired.knots[j], 1), v_corner, atol=1e-9)


def colliding_segments_by_eval(traj, grid, dt):
    """Reference for _colliding_segments: the same samples, one eval call each."""
    out = set()
    knots = traj.knots
    for i in range(traj.M):
        t0, t1 = knots[i], knots[i + 1]
        ts = np.linspace(t0, t1, max(2, int(math.ceil((t1 - t0) / dt)) + 1))
        pts = np.array([traj.eval(t) for t in ts])
        if not all(segment_collision_free(grid, a, b) for a, b in zip(pts[:-1], pts[1:])):
            out.add(i)
    return out


def test_colliding_segments_match_per_sample_eval():
    """Every segment's last sample lies on the next knot (an interior one for
    all but the last segment), where eval switches to the next segment."""
    # Constant segments on either side of a wall: only the knot sample, which
    # belongs to segment 1, joins segment 0's samples across the wall.
    wall = np.zeros((10, 10, 10), dtype=bool)
    wall[5] = True
    coeffs = np.zeros((2, 6, 3))
    coeffs[0, 0] = (2.5, 5.5, 5.5)
    coeffs[1, 0] = (7.5, 5.5, 5.5)
    jump = PiecewisePolynomial(coeffs, [1.0, 1.0], 3)
    walled = OccupancyGrid(wall, 1.0)
    assert _colliding_segments(jump, walled, 0.25) == {0}

    grid, spec = corner_cut_instance()
    cases = [(jump, walled), (solve_bivp(spec), grid)]
    obstacles = ObstacleSpec(count=(15, 20), size_min=(2, 2, 2), size_max=(4, 4, 6))
    cluttered = random_cluttered_map((20, 20, 20), 1.0, obstacles, seed=3)
    rng = np.random.default_rng(12)
    for _ in range(60):
        wp = rng.uniform(1.0, 19.0, size=(int(rng.integers(2, 9)), 3))
        durations = trapezoidal_time_allocation(wp, 2.0, 1.0)
        cases.append((solve_bivp(BivpSpec.rest_to_rest(wp, durations, int(rng.integers(3, 5)))), cluttered))
    some_collide = 0
    for traj, g in cases:
        for dt in (0.25, 0.1):
            got = _colliding_segments(traj, g, dt)
            assert got == colliding_segments_by_eval(traj, g, dt)
            some_collide += 0 < len(got) < traj.M
    assert some_collide >= 10


def test_colliding_segments_rejects_non_finite_samples():
    """A NaN or infinite coefficient, or one so large that a sample
    overflows, raises ValueError before any voxel lookup and without a
    numpy warning (warnings fail the tests)."""
    grid, spec = corner_cut_instance()
    base = solve_bivp(spec)
    for bad in (math.nan, math.inf, -math.inf, 1e308):
        coeffs = base.coeffs.copy()
        coeffs[1, 5, 0] = bad  # tau^5 on segment 1: 0 * bad at its first sample
        traj = PiecewisePolynomial(coeffs, base.durations, base.s)
        with pytest.raises(ValueError, match="not finite"):
            _colliding_segments(traj, grid, 0.25)
        with pytest.raises(ValueError, match="not finite"):
            collision_repair(traj, spec, grid, v_max=2.0, a_max=1.0)


def test_colliding_segments_far_off_samples():
    """Samples that map to finite but huge voxel coordinates are out of
    bounds, so their chords collide: the bounds test comes before any
    integer cast, which would wrap (and warn, failing the tests)."""
    grid = empty_grid()
    for far in (1e300, -1e300, 2.0**63 + 2.5e6, 2.0**64):
        coeffs = np.zeros((3, 2, 3))
        coeffs[:, 0] = (2.5, 2.5, 2.5)
        coeffs[1, 0, 1] = far  # segment 1 sits far off
        traj = PiecewisePolynomial(coeffs, [1.0, 1.0, 1.0], 1)
        # Segment 0's last sample lies on knot 1, in segment 1, so it is far
        # off; segment 2 and the last sample of segment 1 are in bounds.
        assert _colliding_segments(traj, grid, 0.25) == {0, 1}
        assert colliding_segments_by_eval(traj, grid, 0.25) == {0, 1}


_RESOLUTIONS = (0.3, 0.5, 1.0)
_ORIGINS = ((0.0, 0.0, 0.0), (-0.45, 0.15, 0.6))
_DIMS = (6, 5, 7)


@st.composite
def _grid_and_chords(draw):
    """A small grid (resolution 0.3, 0.5 or 1.0, origin at zero or offset)
    and a polyline. Vertex coordinates mix voxel faces (so vertices lie on
    faces, edges and corners) with arbitrary values, inside the grid and up
    to two voxels outside; a vertex is either anywhere or within about a
    voxel of the one before, so chords cross 0, 1 or many voxel faces."""
    res = draw(st.sampled_from(_RESOLUTIONS))
    origin = draw(st.sampled_from(_ORIGINS))
    seed = draw(st.integers(0, 2**16))
    occ = np.random.default_rng(seed).uniform(size=_DIMS) < draw(st.sampled_from((0.0, 0.05, 0.2)))
    grid = OccupancyGrid(occ, res, origin)

    def coordinate(ax, margin):
        lo, n = origin[ax], _DIMS[ax]
        return st.one_of(
            st.integers(-margin, n + margin).map(lambda k: lo + k * res),
            st.floats(lo - margin * res, lo + (n + margin) * res),
        )

    inside = st.tuples(*(coordinate(ax, 0) for ax in range(3)))
    anywhere = st.tuples(*(coordinate(ax, 2) for ax in range(3)))
    step = st.sampled_from((-res, 0.0, res)) | st.floats(-0.6 * res, 0.6 * res)
    vertices = [draw(inside)]
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            vertices.append(draw(anywhere))
        elif kind < 3:
            vertices.append(draw(inside))
        else:
            vertices.append(tuple(c + draw(step) for c in vertices[-1]))
    return grid, np.array(vertices)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_grid_and_chords())
def test_colliding_segments_chord_verdicts_match_walk(case):
    """On a piecewise-linear trajectory sampled once per segment, every
    segment is one chord between consecutive vertices, and its verdict from
    the endpoint voxels (or the walk) is segment_collision_free's."""
    grid, vertices = case
    coeffs = np.stack([vertices[:-1], vertices[1:] - vertices[:-1]], axis=1)
    traj = PiecewisePolynomial(coeffs, np.ones(len(vertices) - 1), 1)
    assert _colliding_segments(traj, grid, 1.0) == colliding_segments_by_eval(traj, grid, 1.0)


def test_repair_exhausted(monkeypatch):
    grid, spec = corner_cut_instance()
    traj = solve_bivp(spec)
    monkeypatch.setattr(trajectory_module, "_MAX_REPAIR_ROUNDS", 0)
    with pytest.raises(RepairExhaustedError):
        collision_repair(traj, spec, grid, v_max=2.0, a_max=1.0)


# ------------------------------------------------------------------------- I/O


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    spec = random_bivp_spec(rng, BivpSpec, max_segments=6)
    traj = solve_bivp(spec)
    path = tmp_path / "traj.txt"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert back.s == traj.s and back.M == traj.M and back.m == traj.m
    assert np.array_equal(back.coeffs, traj.coeffs)
    assert np.array_equal(back.durations, traj.durations)


def test_trajectory_load_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n")
    with pytest.raises(ValueError):
        load_trajectory(path)
    path.write_text("# s=3 m=1 M=1\n0 0 0\n")
    with pytest.raises(ValueError):
        load_trajectory(path)

    spec = BivpSpec.rest_to_rest(np.array([[0.0, 0, 0], [1.0, 1, 1], [2.0, 0, 1]]), [1.0, 1.5], 3)
    save_trajectory(solve_bivp(spec), path)
    good = path.read_text().splitlines()
    assert load_trajectory(path).M == 2
    bad_files = {
        "truncated": good[:-3],
        "missing header field": ["# s=3 m=3"] + good[1:],
        "non-integer header": ["# s=3 m=3 M=two"] + good[1:],
        "no segments": ["# s=3 m=3 M=0"],
        "short coefficient row": good[:3] + ["1.0 2.0"] + good[4:],
        "non-numeric coefficient": good[:3] + ["1.0 x 2.0"] + good[4:],
        "zero duration": good[:1] + ["T=0"] + good[2:],
        "negative duration": good[:1] + ["T=-1.5"] + good[2:],
        "nan duration": good[:1] + ["T=nan"] + good[2:],
        "infinite duration": good[:1] + ["T=inf"] + good[2:],
    }
    for name, lines in bad_files.items():
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFileError):
            load_trajectory(path)


def test_export_csv(tmp_path):
    spec = BivpSpec.rest_to_rest(
        np.array([[0.0, 0, 0], [1.0, 1, 1]]), [2.0], 3
    )
    traj = solve_bivp(spec)
    path = tmp_path / "traj.csv"
    export_csv(traj, path, dt=0.5)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,z,vx,vy,vz,ax,ay,az"
    assert len(lines) == 1 + 5  # t = 0, 0.5, 1.0, 1.5, 2.0
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(2.0)
    assert last[1:4] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
    assert last[4:] == pytest.approx([0.0] * 6, abs=1e-9)

    # Bad input fails before the file is opened: no header-only CSV is left.
    mono = PiecewisePolynomial(np.zeros((1, 6, 1)), [1.0], 3)
    linear = PiecewisePolynomial(np.ones((2, 2, 3)), [1.0, 1.5], 1)  # no acceleration
    bad_path = tmp_path / "bad.csv"
    for bad, dt in ((mono, 0.1), (linear, 0.1), (traj, 0.0), (traj, -0.1),
                    (traj, math.nan), (traj, math.inf)):
        with pytest.raises(ValueError):
            export_csv(bad, bad_path, dt)
        assert not bad_path.exists(), dt


def test_export_csv_matches_eval_writer(tmp_path):
    """export_csv reads every row in one sample call; the file is byte for
    byte the one a writer calling eval per time and order makes."""
    rng = np.random.default_rng(15)
    for s in (2, 3, 4):
        traj = solve_bivp(random_bivp_spec(rng, BivpSpec, s=s, max_segments=6))
        for dt in (0.05, 0.37, traj.durations[0]):
            path = tmp_path / "got.csv"
            export_csv(traj, path, dt)
            ts = np.arange(0.0, traj.total_duration + 0.5 * dt, dt)
            ts[-1] = min(ts[-1], traj.total_duration)
            want = ["t,x,y,z,vx,vy,vz,ax,ay,az\n"]
            for t in ts:
                vals = [*traj.eval(t, 0), *traj.eval(t, 1), *traj.eval(t, 2)]
                want.append(f"{t:.9g}," + ",".join(f"{c:.9g}" for c in vals) + "\n")
            assert path.read_bytes() == "".join(want).encode()
