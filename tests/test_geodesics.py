"""Geodesic integration, Jacobi fields, conjugate scans and ray batches."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from lightcone import geodesics
from lightcone.charts import metric_at, minkowski, schwarzschild
from lightcone.errors import (
    EmptySolutionError,
    IntegrationError,
    InvalidInputError,
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
    integrate_batch,
    integrate_geodesic,
    integrate_jacobi,
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


class TestRayEnd:
    def test_flat_translation(self):
        batch, steps = integrate_batch(MK, np.array([[0, 0, 0, 0, -1, 1, 0, 0]], dtype=float))
        assert np.array_equal(batch.ends[0, :4], [-1, 1, 0, 0])
        assert steps == 0  # flat rays are exact

    def test_exit_is_clipped(self):
        # a future ingoing ray long enough to reach the horizon stops there
        f = 1.0 - 1.0 / 10.0
        k = 20.0 * np.array([1.0 / f, -1.0, 0.0, 0.0])
        batch, _ = integrate_batch(SW, np.concatenate([sw_event().coords, k])[None, :])
        assert batch.outcome[0] == CLIPPED
        assert 0.0 < batch.s1[0] < 1.0
        assert np.isnan(batch.ends[0]).all()

    def test_small_vector_limit(self):
        eps = 1e-8
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), eps * np.array([1.0, 0.3, 0.0, 0.1])),
                                 1.0)
        assert np.max(np.abs(sol.position(1.0) - sw_event().coords)) <= 1e-7

    def test_lightlike_norm_drift(self):
        f = 1.0 - 1.0 / 10.0
        # past-directed lightlike at r=10
        k = np.array([-1.0 / np.sqrt(f), -1.0 * np.sqrt(f), 0.0, 0.0])
        g0 = metric_at(SW, sw_event().coords)
        assert abs(float(k @ g0 @ k)) < 1e-12
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), k), 1.0)
        assert abs(norm_along(SW, sol, 1.0)) <= 1e-8

    @pytest.mark.parametrize("chart,q,k", [
        (MK, ORIGIN, np.array([-2.0, 1.0, 1.0, 0.0])),
        (SW, sw_event(), np.array([-1.1, -0.9, 0.0, 0.02])),
    ])
    def test_endpoint_is_the_geodesics(self, chart, q, k):
        # without dense output the end state is the dense run's, bit for bit
        sol = integrate_geodesic(chart, GeodesicIVP(q, k), 1.0)
        batch, _ = integrate_batch(chart, np.concatenate([q.coords, k])[None, :])
        assert np.array_equal(batch.ends[0, :4], sol.position(1.0))


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


def landed_jacobi_end(chart, q, k, j0, dj0):
    """J(1) along the ray from q with velocity k, which must land at s = 1."""
    sol = integrate_geodesic(chart, GeodesicIVP(q, k), 1.0)
    assert not sol.clipped
    return integrate_jacobi(chart, sol, j0, dj0).value(1.0)


class TestJacobiAtUnitParameter:
    def test_vertical_lift_inverse(self):
        # flat rays: J(1) of J(0) = 0, W(0) = e is e
        for e in np.eye(4):
            out = landed_jacobi_end(MK, ORIGIN, np.array([-2.0, 1.0, 1.0, 0.0]), np.zeros(4), e)
            assert np.allclose(out, e, atol=1e-10)

    @pytest.mark.parametrize("chart,q,k", [
        (MK, ORIGIN, np.array([-2.0, 1.0, 1.0, 0.0])),
        (SW, sw_event(), np.array([-1.1, -0.9, 0.0, 0.02])),
    ])
    def test_matches_finite_differences(self, chart, q, k):
        h = 1e-5
        rng = np.random.default_rng(2)
        fiber = rng.normal(size=4)
        out = landed_jacobi_end(chart, q, k, np.zeros(4), fiber)
        plus = integrate_geodesic(chart, GeodesicIVP(q, k + h * fiber), 1.0).position(1.0)
        minus = integrate_geodesic(chart, GeodesicIVP(q, k - h * fiber), 1.0).position(1.0)
        fd = (plus - minus) / (2 * h)
        assert np.max(np.abs(out - fd)) <= 1e-5 * max(1.0, np.max(np.abs(out)))

    def test_base_direction_gives_transported_velocity(self):
        q, k = sw_event(), np.array([-1.1, -0.9, 0.0, 0.02])
        sol = integrate_geodesic(SW, GeodesicIVP(q, k), 1.0)
        out = landed_jacobi_end(SW, q, k, k, np.zeros(4))
        assert np.max(np.abs(out - sol.velocity(1.0))) <= 1e-8

    def test_one_ray_run(self, monkeypatch):
        # the ray and its Jacobi column run once; nothing integrates the ray again
        sol = integrate_geodesic(SW, GeodesicIVP(sw_event(), np.array([-1.1, -0.9, 0.0, 0.02])),
                                 1.0)
        runs = []

        def counted(*args, **kwargs):
            runs.append(1)
            return rays(*args, **kwargs)

        rays = geodesics._rays
        monkeypatch.setattr(geodesics, "_rays", counted)
        integrate_jacobi(SW, sol, np.zeros(4), np.array([0.1, -0.2, 0.05, 0.3]))
        assert len(runs) == 1

    def test_linearity(self):
        q, k = sw_event(), np.array([-1.1, -0.9, 0.0, 0.02])
        rng = np.random.default_rng(8)
        for _ in range(3):
            b1, f1 = rng.normal(size=4), rng.normal(size=4)
            b2, f2 = rng.normal(size=4), rng.normal(size=4)
            lhs = landed_jacobi_end(SW, q, k, b1 + 2.0 * b2, f1 + 2.0 * f2)
            rhs = (landed_jacobi_end(SW, q, k, b1, f1)
                   + 2.0 * landed_jacobi_end(SW, q, k, b2, f2))
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

    def test_start_on_another_chart_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_conjugate(SW, ORIGIN, np.array([-1.0, 0.6, 0.5, 0.0]), 10.0, 50)

    def test_start_inside_the_horizon_rejected(self):
        k = np.array([-1.0, 0.3, 0.0, 0.0])
        with pytest.raises(OutOfChartError):
            detect_conjugate(SW, sw_event(0.5), k, 10.0, 50)

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

    def test_a_value_brent_cannot_locate_raises(self, monkeypatch):
        # with no iterations Brent's method locates no sign change
        r0, b = 20.0, 2.73
        f = 1.0 - 1.0 / r0
        k = np.array([1.0 / f, -np.sqrt(1.0 - f * b**2 / r0**2), 0.0, b / r0**2])
        monkeypatch.setattr(geodesics, "_BRENT_ITER", 0)
        with pytest.raises(IntegrationError, match="conjugate value not located"):
            detect_conjugate(SW, sw_event(r0), k, 80.0, 100)


def test_batch_matches_single():
    q, vel = sw_event(), np.array([1.2, 0.0, 0.0, 0.04])
    dj0 = np.array([0.1, -0.2, 0.05, 0.3])
    sol = integrate_geodesic(SW, GeodesicIVP(q, vel), 1.0)
    jac = integrate_jacobi(SW, sol, np.zeros(4), dj0)
    y0 = np.concatenate([q.coords, vel, np.zeros(4), dj0])[None, :]
    interp, _ = integrate_batch(SW, y0, n_jac=1)
    state = interp.ends[0]
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
    interp, _ = integrate_batch(SW, y0, n_jac=1)
    assert np.array_equal(jac.value(1.0), interp.ends[0, 8:12])


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
    assert np.array_equal(batch.ends[1], alone.ends[0])
    assert np.array_equal(batch.states[1], alone.states[0])
    assert list(batch.outcome) == [FAILED, LANDED, CLIPPED]
    assert np.isnan(batch.ends[[0, 2]]).all()
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


@pytest.mark.parametrize("name", ["A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"])
def test_tableau_is_scipys_dop853(name):
    mine = getattr(geodesics, "_" + name)
    assert mine.dtype == np.float64
    assert np.array_equal(mine, getattr(DOP853, name))
    assert geodesics._EXPONENT == -1 / (DOP853.error_estimator_order + 1)


def _brentq_or_raise(solver, f, a, b):
    try:
        return solver(f, a, b)
    except RuntimeError:
        return "no convergence"


def test_brent_returns_scipys_brentq_float():
    # the same float as scipy's brentq at xtol = rtol = 4 eps on seeded
    # brackets; at the triple root both fail to converge in 100 iterations
    tol = 4 * np.finfo(float).eps

    def scipy_brentq(f, a, b):
        return brentq(f, a, b, xtol=tol, rtol=tol)

    funcs = [lambda x: x**3 - 2.0 * x - 5.0, lambda x: x**5 - 0.3 * x + 0.01,
             lambda x: np.sin(x) - 0.3, lambda x: np.cos(3.0 * x) + 0.1 * x,
             lambda x: np.exp(x) - 2.5, lambda x: np.expm1(-4.0 * x) + 0.5,
             lambda x: (x - 0.7) ** 3]
    rng = np.random.default_rng(18)
    outcomes = []
    for f in funcs:
        for a, b in np.sort(rng.uniform(-3.0, 3.0, (300, 2)), axis=1):
            if f(a) * f(b) >= 0.0:
                continue
            want = _brentq_or_raise(scipy_brentq, f, a, b)
            got = _brentq_or_raise(geodesics._brent, f, a, b)
            assert got == want and type(got) is type(want), (a, b)
            outcomes.append(got)
    assert len(outcomes) > 900 and outcomes.count("no convergence") > 100
    # a zero at either end is returned at once
    for a, b in [(0.7, 2.0), (-1.0, 0.7), (2.0, 0.7)]:
        assert geodesics._brent(funcs[-1], a, b) == scipy_brentq(funcs[-1], a, b) == 0.7
    with pytest.raises(ValueError):
        geodesics._brent(funcs[0], 3.0, 4.0)


def test_brent_locates_a_clipped_rays_exit_as_brentq():
    # the exit event of the ray aimed at the hole, on its own last step's
    # interpolant: the crossing is brentq's, and it is where the ray ends
    y0 = faller_ray(HOLE)
    sol = integrate_geodesic(SW, GeodesicIVP(Event("schwarzschild", y0[:4]), y0[4:]), 1.0)
    assert sol.clipped
    event = geodesics._exit_event(SW)
    step = tuple(a[-1:] for a in (sol._t_old, sol._h, sol._q, sol._y_old))

    def g(t):
        return event(geodesics._interpolate(*step, np.array([t])))[0]

    a, b = sol._t_old[-1], sol._t_old[-1] + sol._h[-1]
    tol = 4 * np.finfo(float).eps
    assert g(a) > 0.0 > g(b)
    assert geodesics._brent(g, a, b) == brentq(g, a, b, xtol=tol, rtol=tol) == sol.s1


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


def test_map_rays_in_the_ray_chart_take_its_spray():
    # a map-only batch in the Eddington-Finkelstein ray chart never builds
    # the connection, and each ray keeps the bits of its one-row run
    def no_connection(pts):
        raise AssertionError("map rays evaluated the connection")

    rays = SW.ray_chart
    ef = dataclasses.replace(rays.chart, christoffel_fn=no_connection)
    rng = np.random.default_rng(21)
    y0 = rays.states_to_ray(np.array([faller_ray(rng.uniform(-2.8, 2.8, 3)) for _ in range(6)]
                                     + [faller_ray(HOLE)]))
    batch, _ = integrate_batch(ef, y0)
    assert list(batch.outcome) == [LANDED] * 6 + [CLIPPED]
    for i, row in enumerate(y0):
        alone, _ = integrate_batch(ef, row[None])
        assert alone.outcome[0] == batch.outcome[i] and alone.s1[0] == batch.s1[i]
        assert np.array_equal(alone.states[0], batch.states[i])


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


def test_an_exit_brent_cannot_locate_fails_that_ray_alone(monkeypatch):
    # with no iterations Brent's method locates no exit crossing: the ray
    # aimed at the hole ends failed where its crossing step began, outside
    # the exit margin, and its batch mates keep their bits
    rng = np.random.default_rng(11)
    rays = np.array([faller_ray(rng.uniform(-2.8, 2.8, 3)), faller_ray(HOLE),
                     faller_ray(rng.uniform(-2.8, 2.8, 3))])
    want, _ = integrate_batch(SW, rays)
    monkeypatch.setattr(geodesics, "_BRENT_ITER", 0)
    got, _ = integrate_batch(SW, rays)
    assert list(want.outcome) == [LANDED, CLIPPED, LANDED]
    assert list(got.outcome) == [LANDED, FAILED, LANDED]
    assert got.reasons[1].startswith("exit crossing not located: Failed to converge")
    assert 0.0 < got.s1[1] < want.s1[1] and got.states[1, 1] > 1.0 + 1e-6
    assert got.reasons[0] == got.reasons[2] == ""
    assert np.array_equal(got.states[[0, 2]], want.states[[0, 2]])
    assert np.array_equal(got.s1[[0, 2]], want.s1[[0, 2]])


def test_a_ray_whose_step_underflows_fails_alone():
    # a connection that is NaN inside r = 6 rejects every step that reaches
    # there, so the inward ray's step shrinks below the spacing of s: it
    # ends failed, and its outward batch mate lands with its solo bits
    def christoffel_fn(coords):
        inner = np.asarray(coords)[..., 1] < 6.0
        return np.where(inner[..., None, None, None], np.nan, SW.christoffel_fn(coords))

    chart = dataclasses.replace(SW, christoffel_fn=christoffel_fn)
    f = 1.0 - 1.0 / 10.0
    start = sw_event().coords
    inward = np.concatenate([start, 8.0 * np.array([1.0 / f, -1.0, 0.0, 0.0])])
    outward = np.concatenate([start, 8.0 * np.array([1.0 / f, 1.0, 0.0, 0.0])])
    batch, _ = integrate_batch(chart, np.array([inward, outward]))
    alone, _ = integrate_batch(chart, outward[None])
    assert list(batch.outcome) == [FAILED, LANDED]
    assert batch.reasons[0].startswith("required step size is less than spacing")
    assert batch.reasons[1] == ""
    assert 6.0 <= batch.states[0, 1] < 10.0 and 0.0 < batch.s1[0] < 1.0
    assert np.array_equal(batch.states[1], alone.states[0])


def _rows_keep_their_solo_bits(rhs, y0, ends, event):
    """Run the rows of y0 to their own ends in one run; each has its solo run's bits."""
    run = geodesics._dopri(rhs, y0, np.array(ends), event, dense=True)
    for i, end in enumerate(ends):
        solo = geodesics._dopri(rhs, y0[i:i + 1], end, event, dense=True)
        assert np.array_equal(run.y[i], solo.y[0])
        assert run.s1[i] == solo.s1[0]
        assert run.steps[i] == solo.steps[0]
        assert run.outcome[i] == solo.outcome[0]
        assert run.reasons[i] == solo.reasons[0]
        for got, want in zip(run.segments[i], solo.segments[0]):
            assert np.array_equal(got, want)
    return run


def test_rays_to_their_own_ends_keep_their_solo_bits():
    # rows ending at -3 and at 2 in one run, with the chart-exit event; the
    # ray aimed at the hole clips forward and lands backward
    rng = np.random.default_rng(3)
    a, b = faller_ray(rng.uniform(-2.8, 2.8, 3)), faller_ray(rng.uniform(-2.8, 2.8, 3))
    hole = faller_ray(HOLE)
    y0 = np.array([a, b, hole, hole, a])
    run = _rows_keep_their_solo_bits(_ray_rhs(SW, 0), y0, [-3.0, 2.0, 2.0, -3.0, 2.0],
                                     geodesics._exit_event(SW))
    assert list(run.outcome) == [LANDED, LANDED, CLIPPED, LANDED, LANDED]
    assert list(run.s1[[0, 1, 3, 4]]) == [-3.0, 2.0, -3.0, 2.0]
    assert 0.0 < run.s1[2] < 1.0


def test_transport_to_its_own_ends_keeps_the_solo_bits():
    # the transport law with an accelerometer reading: a frame at r = 10 R
    # to -3 and to 2, and one released at r = 1.5 R, which meets the
    # horizon margin at |tau| ~ 2 both ways and clips
    def reading(s):
        return np.column_stack([0.05 * np.sin(s), np.full(len(s), 0.02), 0.01 * s])

    rhs = geodesics._transport_rhs(SW, 4, reading)

    def start(r):
        q0 = np.array([0.0, r, np.pi / 2, 0.0])
        m0 = SW.reference_frame(q0)
        m0[:, 0] *= SW.c
        return np.concatenate([q0, m0.T.ravel()])

    y0 = np.array([start(10.0), start(10.0), start(1.5), start(1.5)])
    run = _rows_keep_their_solo_bits(rhs, y0, [-3.0, 2.0, -3.0, 3.0], geodesics._exit_event(SW))
    assert list(run.outcome) == [LANDED, LANDED, CLIPPED, CLIPPED]
    assert -3.0 < run.s1[2] < -1.0 and 1.0 < run.s1[3] < 3.0


def test_a_failing_row_ends_alone_among_rows_to_other_ends():
    # a connection that is NaN inside r = 6: the inward ray fails forward,
    # and the same ray run backward (outward) and an outward ray land
    def christoffel_fn(coords):
        inner = np.asarray(coords)[..., 1] < 6.0
        return np.where(inner[..., None, None, None], np.nan, SW.christoffel_fn(coords))

    chart = dataclasses.replace(SW, christoffel_fn=christoffel_fn)
    f = 1.0 - 1.0 / 10.0
    start = sw_event().coords
    inward = np.concatenate([start, 8.0 * np.array([1.0 / f, -1.0, 0.0, 0.0])])
    outward = np.concatenate([start, 8.0 * np.array([1.0 / f, 1.0, 0.0, 0.0])])
    run = _rows_keep_their_solo_bits(_ray_rhs(chart, 0), np.array([inward, inward, outward]),
                                     [1.0, -0.5, 1.0], None)
    assert list(run.outcome) == [FAILED, LANDED, LANDED]
    assert run.reasons[0].startswith("required step size is less than spacing")
