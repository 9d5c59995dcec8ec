"""Geodesic integration, transport, Jacobi fields, exponential map."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from lightcone.charts import metric_at, minkowski, schwarzschild
from lightcone.errors import (
    EmptySolutionError,
    InvalidInputError,
    NotInExpDomainError,
    OutOfChartError,
)
from lightcone.geodesics import (
    ABS_TOL,
    CLIPPED,
    FAILED,
    LANDED,
    MAX_ATTEMPTS,
    REL_TOL,
    GeodesicIVP,
    _ray_rhs,
    detect_conjugate,
    exp_differential,
    exp_map,
    integrate_batch,
    integrate_geodesic,
    integrate_jacobi,
    parallel_transport,
)
from lightcone.lorentz import Event


MK = minkowski()
SW = schwarzschild(1.0)
ORIGIN = Event("minkowski", np.zeros(4))


def sw_event(r=10.0, th=np.pi / 2):
    return Event("schwarzschild", np.array([0.0, r, th, 0.0]))


def norm_along(chart, sol, s):
    g = metric_at(chart, sol.position(s))
    v = sol.velocity(s)
    return float(v @ g @ v)


class TestGeodesics:
    def test_flat_straight_line(self):
        sol = integrate_geodesic(MK, GeodesicIVP(ORIGIN, [1, 0.5, 0, 0]), 2.0)
        assert np.allclose(sol.position(2.0), [2, 1, 0, 0], atol=1e-12)

    def test_zero_parameter_returns_initial_data(self):
        ivp = GeodesicIVP(sw_event(), [1.2, 0.1, 0, 0.02])
        sol = integrate_geodesic(SW, ivp, 0.0)
        assert np.array_equal(sol.position(0.0), ivp.start.coords)
        assert np.array_equal(sol.velocity(0.0), ivp.velocity)

    def test_norm_conservation_schwarzschild(self):
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), [1.2, 0.0, 0.0, 0.04]), 10.0)
        n0 = norm_along(SW, sol, 0.0)
        for s in np.linspace(0.0, 10.0, 21):
            assert abs(norm_along(SW, sol, s) - n0) <= 1e-9 * (1.0 + abs(n0))

    def test_outside_domain_rejected(self):
        with pytest.raises(OutOfChartError):
            integrate_geodesic(SW, GeodesicIVP(
                Event("schwarzschild", np.array([0.0, 0.5, 1.0, 0.0])), [1, 0, 0, 0]), 1.0)

    def test_immediate_exit(self):
        start = Event("schwarzschild", np.array([0.0, 1.0 + 1e-13, np.pi / 2, 0.0]))
        with pytest.raises(EmptySolutionError):
            integrate_geodesic(SW, GeodesicIVP(start, [0.0, -1.0, 0.0, 0.0]), 1.0)

    def test_clipped_partial_solution(self):
        # radial infall crosses r = R before s reaches 12
        f = 1.0 - 1.0 / 10.0
        k = np.array([1.0 / f, -1.0, 0.0, 0.0])  # ingoing null
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), k), 12.0)
        assert sol.clipped
        assert 0.0 < sol.s1 < 12.0
        assert sol.position(sol.s1)[1] == pytest.approx(1.0, abs=2e-6)

    def test_zero_velocity_rejected(self):
        with pytest.raises(InvalidInputError):
            GeodesicIVP(ORIGIN, [0, 0, 0, 0])

    def test_backward_parameter(self):
        sol = integrate_geodesic(MK, GeodesicIVP(ORIGIN, [1, 0, 0, 0]), -3.0)
        assert np.allclose(sol.position(-3.0), [-3, 0, 0, 0], atol=1e-12)


class TestExpMap:
    def test_flat_translation(self):
        assert np.allclose(exp_map(MK, ORIGIN, [-1, 1, 0, 0]).coords, [-1, 1, 0, 0])

    def test_small_vector_limit(self):
        eps = 1e-8
        out = exp_map(SW, sw_event(), eps * np.array([1.0, 0.3, 0.0, 0.1]))
        assert np.max(np.abs(out.coords - sw_event().coords)) <= 1e-7

    def test_lightlike_norm_drift(self):
        f = 1.0 - 1.0 / 10.0
        # past-directed lightlike at r=10
        k = np.array([-1.0 / np.sqrt(f), -1.0 * np.sqrt(f), 0.0, 0.0])
        g0 = metric_at(SW, sw_event().coords)
        assert abs(float(k @ g0 @ k)) < 1e-12
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), k), 1.0)
        assert abs(norm_along(SW, sol, 1.0)) <= 1e-8

    def test_exit_raises(self):
        f = 1.0 - 1.0 / 10.0
        k = 20.0 * np.array([1.0 / f, -1.0, 0.0, 0.0])
        with pytest.raises(NotInExpDomainError):
            exp_map(SW, sw_event(), k)


class TestParallelTransport:
    def test_flat_constant(self):
        sol = integrate_geodesic(MK, GeodesicIVP(ORIGIN, [1, 0.2, 0, 0]), 5.0)
        tr = parallel_transport(MK, sol, [0.3, 1.0, -2.0, 0.7])
        for s in np.linspace(0, 5, 7):
            assert np.allclose(tr.vector(s), [0.3, 1.0, -2.0, 0.7], atol=1e-12)

    def test_norm_preserved(self):
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), [1.2, 0.0, 0.0, 0.04]), 8.0)
        v0 = np.array([0.5, 0.2, 0.01, -0.03])
        tr = parallel_transport(SW, sol, v0)
        g0 = metric_at(SW, sol.position(0.0))
        n0 = float(v0 @ g0 @ v0)
        for s in np.linspace(0, 8, 9):
            g = metric_at(SW, sol.position(s))
            v = tr.vector(s)
            assert abs(float(v @ g @ v) - n0) <= 1e-9 * (1.0 + abs(n0))

    def test_velocity_self_transport(self):
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), [1.2, 0.0, 0.0, 0.04]), 8.0)
        tr = parallel_transport(SW, sol, sol.velocity(0.0))
        for s in np.linspace(0, 8, 9):
            assert np.max(np.abs(tr.vector(s) - sol.velocity(s))) <= 1e-8

    def test_frame_products_preserved(self):
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), [1.2, 0.02, 0.0, 0.03]), 6.0)
        rng = np.random.default_rng(5)
        cols = [rng.normal(size=4) for _ in range(4)]
        transported = [parallel_transport(SW, sol, v) for v in cols]
        g0 = metric_at(SW, sol.position(0.0))
        for s in (2.0, 6.0):
            g = metric_at(SW, sol.position(s))
            for a in range(4):
                for b in range(4):
                    before = float(cols[a] @ g0 @ cols[b])
                    after = float(transported[a].vector(s) @ g @ transported[b].vector(s))
                    assert abs(after - before) <= 1e-9 * (1.0 + abs(before))


class TestJacobi:
    def test_flat_linear_growth(self):
        sol = integrate_geodesic(MK, GeodesicIVP(ORIGIN, [1, 0.1, 0, 0]), 4.0)
        j0, dj0 = np.array([0.1, 0, 0.2, 0]), np.array([0, 0.5, 0, -1.0])
        jac = integrate_jacobi(MK, sol, j0, dj0)
        for s in np.linspace(0, 4, 5):
            assert np.allclose(jac.value(s), j0 + s * dj0, atol=1e-10)

    def test_zero_data_stays_zero(self):
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), [1.2, 0.0, 0.0, 0.04]), 5.0)
        jac = integrate_jacobi(SW, sol, np.zeros(4), np.zeros(4))
        assert np.max(np.abs(jac.value(5.0))) == 0.0

    @pytest.mark.parametrize("chart,start,vel", [
        (MK, ORIGIN, np.array([1.0, 0.3, 0.0, 0.0])),
        (SW, sw_event(), np.array([1.2, 0.0, 0.0, 0.04])),
    ])
    def test_pairing_affinity(self, chart, start, vel):
        sol = integrate_geodesic(chart, GeodesicIVP(start, vel), 6.0)
        rng = np.random.default_rng(9)
        g0 = metric_at(chart, start.coords)
        for _ in range(4):
            j0, dj0 = rng.normal(size=4), rng.normal(size=4)
            jac = integrate_jacobi(chart, sol, j0, dj0)
            slope = float(dj0 @ g0 @ vel)
            offset = float(j0 @ g0 @ vel)
            for s in np.linspace(0, 6, 7):
                g = metric_at(chart, sol.position(s))
                pairing = float(jac.value(s) @ g @ sol.velocity(s))
                assert abs(pairing - (slope * s + offset)) <= 1e-7

    def test_derivative_is_covariant(self):
        # W = dJ/ds + Gamma(kappa', J), from a central difference of the
        # dense output
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), [1.2, -0.3, 0.0, 0.04]), 5.0)
        j0, dj0 = np.array([0.02, 0.1, -0.03, 0.05]), np.array([0.1, -0.2, 0.05, 0.3])
        jac = integrate_jacobi(SW, sol, j0, dj0)
        assert np.max(np.abs(jac.derivative(0.0) - dj0)) <= 1e-12
        h = 1e-4
        svals = np.array([0.5, 2.0, 3.5, 4.9])
        for s in svals:
            dj = (jac.value(s + h) - jac.value(s - h)) / (2 * h)
            vel = jac.state(s)[4:8]
            expected = dj + np.einsum("kij,i,j->k", SW.christoffels(jac.state(s)[:4]),
                                      vel, jac.value(s))
            assert np.max(np.abs(jac.derivative(s) - expected)) <= 1e-6
        stacked = jac.derivative(svals)
        assert stacked.shape == (4, len(svals))
        assert np.allclose(stacked[:, 1], jac.derivative(svals[1]), rtol=0, atol=1e-14)


class TestExpDifferential:
    def test_vertical_lift_inverse(self):
        for e in np.eye(4):
            out = exp_differential(MK, ORIGIN, [-2, 1, 1, 0], np.zeros(4), e)
            assert np.allclose(out, e, atol=1e-10)

    @pytest.mark.parametrize("chart,q,k", [
        (MK, ORIGIN, np.array([-2.0, 1.0, 1.0, 0.0])),
        (SW, sw_event(), np.array([-1.1, -0.9, 0.0, 0.02])),
    ])
    def test_matches_finite_differences(self, chart, q, k):
        h = 1e-5
        rng = np.random.default_rng(2)
        fiber = rng.normal(size=4)
        out = exp_differential(chart, q, k, np.zeros(4), fiber)
        plus = exp_map(chart, q, k + h * fiber).coords
        minus = exp_map(chart, q, k - h * fiber).coords
        fd = (plus - minus) / (2 * h)
        assert np.max(np.abs(out - fd)) <= 1e-5 * max(1.0, np.max(np.abs(out)))

    def test_base_direction_gives_transported_velocity(self):
        q, k = sw_event(), np.array([-1.1, -0.9, 0.0, 0.02])
        sol = integrate_geodesic(SW, GeodesicIVP(q, k), 1.0)
        out = exp_differential(SW, q, k, k, np.zeros(4))
        assert np.max(np.abs(out - sol.velocity(1.0))) <= 1e-8

    def test_linearity(self):
        q, k = sw_event(), np.array([-1.1, -0.9, 0.0, 0.02])
        rng = np.random.default_rng(8)
        for _ in range(3):
            b1, f1 = rng.normal(size=4), rng.normal(size=4)
            b2, f2 = rng.normal(size=4), rng.normal(size=4)
            lhs = exp_differential(SW, q, k, b1 + 2.0 * b2, f1 + 2.0 * f2)
            rhs = (exp_differential(SW, q, k, b1, f1)
                   + 2.0 * exp_differential(SW, q, k, b2, f2))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(lhs)))


class TestConjugateDetection:
    def test_flat_no_conjugate_points(self):
        scan = detect_conjugate(MK, ORIGIN, np.array([-1.0, 0.6, 0.5, 0.0]), 10.0, 50)
        assert scan.values == ()
        assert not scan.low_resolution

    def test_degenerate_grid_flagged(self):
        scan = detect_conjugate(MK, ORIGIN, np.array([-1.0, 0.6, 0.5, 0.0]), 10.0, 1)
        assert scan.values == ()
        assert scan.low_resolution

    def test_near_photon_sphere_caustic_stable(self):
        # null ray with impact parameter slightly above critical: it winds
        # past the photon sphere and refocuses; doubling the resolution
        # must not move the detected value
        r0, b = 20.0, 2.73
        f = 1.0 - 1.0 / r0
        k = np.array([1.0 / f, -np.sqrt(1.0 - f * b**2 / r0**2), 0.0, b / r0**2])
        scan1 = detect_conjugate(SW, sw_event(r0), k, 80.0, 100)
        scan2 = detect_conjugate(SW, sw_event(r0), k, 80.0, 200)
        assert len(scan1.values) == len(scan2.values) >= 1
        for v1, v2 in zip(scan1.values, scan2.values):
            assert abs(v1 - v2) < 1e-4


def test_batch_matches_single():
    q, vel = sw_event(), np.array([1.2, 0.0, 0.0, 0.04])
    dj0 = np.array([0.1, -0.2, 0.05, 0.3])
    sol = integrate_geodesic(SW, GeodesicIVP(q, vel), 1.0)
    jac = integrate_jacobi(SW, sol, np.zeros(4), dj0)
    y0 = np.concatenate([q.coords, vel, np.zeros(4), dj0])[None, :]
    interp, _ = integrate_batch(SW, y0, n_jac=1, s_end=1.0)
    state = interp(1.0)[0]
    assert np.max(np.abs(state[:4] - sol.position(1.0))) <= 1e-10
    assert np.max(np.abs(state[8:12] - jac.value(1.0))) <= 1e-9


def test_jacobi_is_the_batch_column():
    # both run one right-hand side from the same initial state, so the
    # field agrees bit for bit
    q, vel = sw_event(), np.array([1.2, 0.0, 0.0, 0.04])
    j0, dj0 = np.array([0.02, 0.1, -0.03, 0.0]), np.array([0.1, -0.2, 0.05, 0.3])
    sol = integrate_geodesic(SW, GeodesicIVP(q, vel), 1.0)
    jac = integrate_jacobi(SW, sol, j0, dj0)
    y0 = np.concatenate([q.coords, vel, j0, dj0])[None, :]
    interp, _ = integrate_batch(SW, y0, n_jac=1, s_end=1.0)
    assert np.array_equal(jac.value(1.0), interp(1.0)[0, 8:12])


def test_batch_members_outside_the_domain_end_alone():
    # a member that starts inside the horizon fails and one that falls
    # through the horizon margin clips; the inside member keeps its solo bits
    inside = np.concatenate([sw_event().coords, [1.2, -0.3, 0.0, 0.02]])
    fallen = np.concatenate([[0.0, 0.5, np.pi / 2, 0.0], [1.2, -0.3, 0.0, 0.02]])
    f = 1.0 - 1.0 / 10.0
    falling = np.concatenate([sw_event().coords, 20.0 * np.array([1.0 / f, -1.0, 0.0, 0.0])])
    alone, _ = integrate_batch(SW, inside[None, :])
    batch, _ = integrate_batch(SW, np.stack([fallen, inside, falling]))
    assert alone.outcome[0] == LANDED
    assert np.array_equal(batch(1.0)[1], alone(1.0)[0])
    assert np.array_equal(batch.states[1], alone.states[0])
    assert list(batch.outcome) == [FAILED, LANDED, CLIPPED]
    assert np.isnan(batch(1.0)[[0, 2]]).all()
    assert 0.0 < batch.s1[2] < 1.0
    assert batch.states[2, 1] == pytest.approx(1.0 + 1e-6, abs=1e-9)


def faller_ray(x, cols=()):
    """The ray seen in direction x from r = 10 R by an observer at rest there.

    Its initial velocity is the cone vector -|x| e_0 + x^a e_a in the
    static frame (e_1 radial, outward); the given Jacobi columns follow.
    """
    f = 1.0 - 1.0 / 10.0
    frame = np.diag([1.0 / np.sqrt(f), np.sqrt(f), 0.1, 0.1])
    k = frame @ np.concatenate([[-np.linalg.norm(x)], x])
    return np.concatenate([sw_event().coords, k, np.ravel(cols)])


HOLE = (-12.5, 0.0, 0.0)  # aimed at the hole: the ray clips at the horizon margin


def test_single_ray_follows_scipy_dop853():
    # one ray through the stepper against solve_ivp's DOP853 with the same
    # right-hand side, tolerances and chart-exit event; the interior
    # states check the dense output's power basis
    rhs = _ray_rhs(SW, 0)

    def leaves(s, y):
        return SW.boundary_distance(y[:4]) - 1e-6

    def rel(a, b):
        return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))

    leaves.terminal, leaves.direction = True, -1
    for x in [(1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (-2.0, 1.0, 0.5), (3.0, -3.0, 1.0),
              (-4.0, -1.0, -2.0), (0.3, 0.2, 5.0), HOLE]:
        y0 = faller_ray(x)
        ref = solve_ivp(lambda s, y: rhs(s, y[None])[0], (0.0, 1.0), y0, method="DOP853",
                        rtol=REL_TOL, atol=ABS_TOL, events=leaves, dense_output=True)
        sol = integrate_geodesic(SW, GeodesicIVP(Event("schwarzschild", y0[:4]), y0[4:]), 1.0)
        assert sol.steps == len(ref.t) - 1
        assert sol.clipped == (ref.status == 1)
        want = ref.sol(ref.t[-1])[:4]
        assert rel(sol.position(sol.s1), want) <= 1e-10
        inner = np.linspace(0.0, sol.s1, 23)[1:-1]
        assert rel(sol.state(inner), ref.sol(inner)) <= 1e-10
    assert sol.clipped


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([0, 4]), st.integers(0, 2**32 - 1), st.integers(0, 5),
       st.integers(0, 6))
def test_ray_bits_do_not_depend_on_its_batch(n_jac, seed, n_mates, where):
    # random faller rays land (|x| < 5); the mate aimed at the hole clips
    rng = np.random.default_rng(seed)

    def ray():
        return faller_ray(rng.uniform(-2.8, 2.8, 3), 0.1 * rng.normal(size=8 * n_jac))

    me = ray()
    mates = [ray() for _ in range(n_mates)]
    mates.insert(where % (n_mates + 1), faller_ray(HOLE, np.zeros(8 * n_jac)))
    i = where % (len(mates) + 1)
    alone, _ = integrate_batch(SW, me[None], n_jac)
    mixed, _ = integrate_batch(SW, np.array(mates[:i] + [me] + mates[i:]), n_jac)
    assert CLIPPED in mixed.outcome
    assert alone.outcome[0] == mixed.outcome[i] == LANDED
    assert alone.s1[0] == mixed.s1[i]
    assert np.array_equal(alone.states[0], mixed.states[i])


def test_attempt_budget_ends_a_runaway_ray():
    # in Schwarzschild coordinates the Jacobi columns of the ray aimed at
    # the hole grow like 1/f and it never reaches the exit margin; it ends
    # failed once it has spent its step attempts, and its batch mates keep
    # their bits
    rng = np.random.default_rng(7)
    hole = faller_ray(HOLE, 0.1 * rng.normal(size=32))
    mates = [faller_ray(rng.uniform(-2.8, 2.8, 3), 0.1 * rng.normal(size=32)) for _ in range(2)]
    mixed, steps = integrate_batch(SW, np.array([mates[0], hole, mates[1]]), 4)
    alone, _ = integrate_batch(SW, np.array(mates), 4)
    assert list(mixed.outcome) == [LANDED, FAILED, LANDED]
    assert f"no end after {MAX_ATTEMPTS} step attempts" in mixed.reasons[1]
    assert mixed.reasons[0] == mixed.reasons[2] == ""
    assert 0.0 < mixed.s1[1] < 1.0 and steps <= MAX_ATTEMPTS
    assert np.array_equal(mixed.states[[0, 2]], alone.states)
    assert np.array_equal(mixed.s1[[0, 2]], alone.s1)
