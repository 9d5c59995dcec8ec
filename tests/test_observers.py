"""Observer worldlines, Fermi-Walker transport, rotating frames."""

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.integrate import solve_ivp

from lightcone.charts import metric_at, minkowski, schwarzschild
from lightcone import geodesics, observers
from lightcone.errors import CausalDomainError, IntegrationError, InvalidInputError, LightconeError
from lightcone.lorentz import (CLASSIFY_TOL, ETA, Event, _check_metric, _check_vec, gram_matrix,
                               inner, validate_frame_of_reference)
from lightcone.observers import (
    ObserverCurve,
    fermi_walker_transport,
    make_inertial_observer,
    make_programmed_observer,
    make_uniformly_accelerated_observer,
    rotating_frame,
    standard_inertial_frame,
)
from lightcone.scenario import load_scenario

MK = minkowski()
SW = schwarzschild(1.0)
SCN_DIR = Path(__file__).resolve().parent.parent / "scenarios"


# -- the Fermi-Walker derivative, two ways: the oracles of the frame tests ----

class SingularProjectorError(LightconeError):
    """Projection along a lightlike or zero direction is undefined."""


def projectors(g, z, tol=CLASSIFY_TOL):
    """Parallel and orthogonal projection endomorphisms along z.

    Returns (P_par, P_perp) with P_par = z (z.g) / g(z,z) and
    P_perp = Id - P_par.  z must not be lightlike or zero.
    """
    g = _check_metric(g)
    z = _check_vec(z)
    q = inner(g, z, z)
    if abs(q) <= tol:
        raise SingularProjectorError("projection along a (near-)lightlike direction is singular")
    p_par = np.outer(z, g @ z) / q
    return p_par, np.eye(4) - p_par


# Central-difference step in tau of a field given without field_deriv: near
# eps^(1/3), where the difference's h^2 truncation and eps/h rounding balance
_FW_STEP = 1e-6


def fermi_walker_derivative(curve: ObserverCurve, field, tau, field_deriv=None):
    """Fermi-Walker derivative of a vector field along the observer.

    field(tau) gives chart components of Y; field_deriv(tau), when known
    analytically, gives dY/dtau and avoids the central-difference fallback
    of step _FW_STEP.
    """
    c = curve.c
    y = np.asarray(field(tau), dtype=float)
    if field_deriv is not None:
        ydot = np.asarray(field_deriv(tau), dtype=float)
    else:
        ydot = (np.asarray(field(tau + _FW_STEP))
                - np.asarray(field(tau - _FW_STEP))) / (2.0 * _FW_STEP)
    pos = curve.position(tau)
    vel = curve.velocity(tau)
    acc = curve.acceleration(tau)
    g = metric_at(curve.chart, pos)
    gam = curve.chart.christoffels(pos)
    nabla_y = ydot + np.einsum("kij,i,j->k", gam, vel, y)
    return nabla_y - (float(vel @ g @ y) * acc - float(acc @ g @ y) * vel) / c**2


def fermi_walker_derivative_projector_form(curve: ObserverCurve, field, tau):
    """Same derivative through the parallel/orthogonal projector split.

    An independent oracle: it evaluates the defining projector formula
    numerically instead of the observer-adapted expression, with central
    differences of step _FW_STEP.
    """
    pos = curve.position(tau)
    vel = curve.velocity(tau)
    g = metric_at(curve.chart, pos)
    gam = curve.chart.christoffels(pos)

    def nabla(fn):
        y = np.asarray(fn(tau), dtype=float)
        ydot = (np.asarray(fn(tau + _FW_STEP)) - np.asarray(fn(tau - _FW_STEP))) / (2.0 * _FW_STEP)
        return ydot + np.einsum("kij,i,j->k", gam, vel, y)

    def project(which):
        def fn(t):
            p_par, p_perp = projectors(metric_at(curve.chart, curve.position(t)),
                                       curve.velocity(t))
            p = p_par if which == "par" else p_perp
            return p @ np.asarray(field(t), dtype=float)

        return fn

    p_par, p_perp = projectors(g, vel)
    return p_par @ nabla(project("par")) + p_perp @ nabla(project("perp"))


class TestProjectors:
    def test_timelike_axis(self):
        p_par, p_perp = projectors(ETA, [1, 0, 0, 0])
        assert np.allclose(p_par, np.diag([1, 0, 0, 0]))
        assert np.allclose(p_perp, np.diag([0, 1, 1, 1]))

    def test_spacelike_axis(self):
        p_par, _ = projectors(ETA, [0, 1, 0, 0])
        assert np.allclose(p_par, np.diag([0, 1, 0, 0]))

    def test_skew_timelike(self):
        p_par, p_perp = projectors(ETA, [2, 1, 0, 0])
        assert np.trace(p_par) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(p_par @ p_par - p_par)) < 1e-12
        assert np.max(np.abs(p_perp @ p_perp - p_perp)) < 1e-12

    def test_lightlike_rejected(self):
        with pytest.raises(SingularProjectorError):
            projectors(ETA, [1, 1, 0, 0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=4, max_size=4),
           st.lists(st.floats(-3, 3), min_size=4, max_size=4))
    def test_projection_identities(self, z, v):
        z, v = np.array(z), np.array(v)
        q = inner(ETA, z, z)
        if abs(q) < 0.1:
            return
        p_par, p_perp = projectors(ETA, z)
        # complementary by construction, up to one rounding of each entry
        scale = 1.0 + np.max(np.abs(p_par))
        assert np.max(np.abs(p_par + p_perp - np.eye(4))) <= 4e-16 * scale
        assert np.max(np.abs(p_par @ p_perp)) < 1e-12 * scale
        assert abs(inner(ETA, p_perp @ v, z)) < 1e-12 * (1.0 + np.max(np.abs(v))) * scale


def boost_frame(tau):
    m = np.eye(4)
    m[0, 0] = m[1, 1] = math.cosh(tau)
    m[0, 1] = m[1, 0] = math.sinh(tau)
    return m


class TestInertialObserver:
    def test_standard_worldline(self):
        cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [1, 0, 0, 0])
        for tau in (-2.0, 0.0, 3.5):
            assert np.allclose(cur.position(tau), [tau, 0, 0, 0])

    def test_starts_at_q0(self):
        q0 = Event("minkowski", np.array([1.0, 2.0, 3.0, 4.0]))
        cur = make_inertial_observer(MK, q0, [2, 0.5, 0, 0])
        assert np.array_equal(cur.position(0.0), q0.coords)

    def test_velocity_normalized(self):
        cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [2, 0.5, 0, 0])
        u = cur.velocity(1.0)
        assert float(u @ ETA @ u) == pytest.approx(1.0, abs=1e-12)

    def test_spacelike_rejected(self):
        with pytest.raises(CausalDomainError):
            make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [0.5, 1, 0, 0])

    def test_past_directed_rejected(self):
        with pytest.raises(CausalDomainError):
            make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [-1, 0, 0, 0])

    def test_curved_worldline_ending_at_tau_zero(self):
        q0 = Event("schwarzschild", np.array([0.0, 10.0, math.pi / 2, 0.0]))
        cur = make_inertial_observer(SW, q0, [1, 0, 0, 0], interval=(-3.0, 0.0))
        assert np.array_equal(cur.position(0.0), q0.coords)
        assert cur.position(-1.0)[0] < 0.0  # the backward half

    def test_schwarzschild_free_fall_normalization(self):
        r0 = 10.0
        f = 1.0 - 1.0 / r0
        q0 = Event("schwarzschild", np.array([0.0, r0, np.pi / 2, 0.0]))
        cur = make_inertial_observer(SW, q0, [1.0 / math.sqrt(f), 0, 0, 0], interval=(-5, 5))
        for tau in np.linspace(-5, 5, 11):
            g = metric_at(SW, cur.position(tau))
            u = cur.velocity(tau)
            assert abs(float(u @ g @ u) - 1.0) <= 1e-9


class TestUniformAcceleration:
    def test_initial_condition(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0)
        assert np.allclose(cur.position(0.0), np.zeros(4))

    def test_closed_form_at_tau_one(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0)
        expect = [math.sinh(1.0), math.cosh(1.0) - 1.0, 0.0, 0.0]
        assert np.allclose(cur.position(1.0), expect, atol=1e-15)

    def test_constant_magnitude(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0)
        for tau in np.linspace(-3, 3, 13):
            acc = cur.acceleration(tau)
            assert math.sqrt(-(acc @ ETA @ acc)) == pytest.approx(1.0, abs=1e-10)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(CausalDomainError):
            make_uniformly_accelerated_observer(0.0)

    def test_other_speed_of_light(self):
        cur = make_uniformly_accelerated_observer(2.0, 3.0)
        g = MK.metric(cur.position(0.7))
        u = cur.velocity(0.7)
        assert float(u @ g @ u) == pytest.approx(9.0, abs=1e-12)
        acc = cur.acceleration(0.7)
        assert math.sqrt(-(acc @ g @ acc)) == pytest.approx(2.0, abs=1e-10)


class TestProperAcceleration:
    def test_inertial_vanishes(self):
        cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [1, 0.3, 0, 0])
        acc = cur.acceleration(1.0)
        assert not acc.any()

    def test_finite_difference_cross_check(self):
        cur = make_uniformly_accelerated_observer(1.3, 1.0)
        h = 1e-5
        for tau in (-1.0, 0.4):
            acc = cur.acceleration(tau)
            fd = (cur.velocity(tau + h) - cur.velocity(tau - h)) / (2 * h)
            # flat chart: covariant acceleration is the plain derivative
            assert np.max(np.abs(acc - fd)) <= 1e-6 * max(1.0, np.max(np.abs(acc)))

    def test_orthogonal_to_velocity(self):
        cur = make_uniformly_accelerated_observer(2.0, 1.0)
        for tau in (-0.8, 1.7):
            acc = cur.acceleration(tau)
            mag = math.sqrt(-(acc @ ETA @ acc))
            u = cur.velocity(tau)
            assert abs(float(acc @ ETA @ u)) <= 1e-8 * cur.c * max(mag, 1.0)


class TestFermiWalkerDerivative:
    def test_reduces_to_plain_derivative_for_inertial(self):
        cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [1, 0, 0, 0])
        field = lambda t: np.array([math.sin(t), t, 1.0, t**2])
        dfield = lambda t: np.array([math.cos(t), 1.0, 0.0, 2 * t])
        out = fermi_walker_derivative(cur, field, 0.9, field_deriv=dfield)
        assert np.allclose(out, dfield(0.9), atol=1e-12)

    def test_tangent_annihilated(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0)
        out = fermi_walker_derivative(cur, cur.velocity, 0.5,
                                      field_deriv=cur.acceleration)
        assert np.max(np.abs(out)) <= 1e-12

    def test_projector_form_oracle(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0)
        field = lambda t: np.array([0.3 * t, math.sin(t), 1.0, t**2])
        for tau in (-0.6, 0.8):
            direct = fermi_walker_derivative(cur, field, tau)
            via_projectors = fermi_walker_derivative_projector_form(cur, field, tau)
            assert np.max(np.abs(direct - via_projectors)) <= 1e-8


class TestFermiWalkerTransport:
    def test_inertial_frame_constant(self):
        cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [1, 0, 0, 0],
                                     interval=(-5, 5))
        ff = fermi_walker_transport(cur, np.eye(4), (-5, 5))
        for tau in np.linspace(-4.5, 4.5, 7):
            assert np.allclose(ff.matrix(tau), np.eye(4), atol=1e-12)

    def test_accelerated_matches_boost(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0, interval=(-6, 6))
        ff = fermi_walker_transport(cur, np.eye(4), (-5, 5))
        for tau in np.linspace(-4.5, 4.5, 9):
            assert np.max(np.abs(ff.matrix(tau) - boost_frame(tau))) <= 1e-8

    def test_gram_stays_eta(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0, interval=(-6, 6))
        ff = fermi_walker_transport(cur, np.eye(4), (0.0, 5.0))
        for tau in np.linspace(0, 5, 11):
            g = metric_at(MK, cur.position(tau))
            assert np.max(np.abs(gram_matrix(g, ff.matrix(tau)) - ETA)) <= 1e-9

    def test_wrong_zeroth_column_rejected(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0)
        bad = np.eye(4)
        bad[:, 0] = [1.2, 0, 0, 0]
        with pytest.raises(CausalDomainError):
            fermi_walker_transport(cur, bad, (-1, 1))

    def test_agrees_with_parallel_transport_for_geodesics(self):
        r0 = 10.0
        f = 1.0 - 1.0 / r0
        q0 = Event("schwarzschild", np.array([0.0, r0, np.pi / 2, 0.0]))
        cur = make_inertial_observer(SW, q0, [1.0 / math.sqrt(f), 0, 0, 0], interval=(0, 4))
        x0 = SW.reference_frame(q0.coords)
        ff = fermi_walker_transport(cur, x0, (0, 4))

        # reference: the geodesic and v' = -Gamma(x', v) for each column, by scipy
        def rhs(s, y):
            x, u, v = y[:4], y[4:8], y[8:].reshape(4, 4)  # v: one transported column a row
            gam = SW.christoffels(x)
            return np.concatenate([u, -np.einsum("kij,i,j->k", gam, u, u),
                                   -np.einsum("kij,i,cj->ck", gam, u, v).ravel()])

        y0 = np.concatenate([q0.coords, cur.velocity(0.0), x0.T.ravel()])
        ref = solve_ivp(rhs, (0.0, 4.0), y0, method="DOP853", t_eval=[1.0, 3.0],
                        rtol=1e-12, atol=1e-12)
        for tau, y in zip((1.0, 3.0), ref.y.T):
            assert np.max(np.abs(ff.matrix(tau) - y[8:].reshape(4, 4).T)) <= 1e-8

    def test_frames_admissible_everywhere(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0, interval=(-4, 4))
        ff = fermi_walker_transport(cur, np.eye(4), (-3, 3))
        for tau in np.linspace(-3, 3, 7):
            pos = cur.position(tau)
            assert validate_frame_of_reference(
                metric_at(MK, pos), cur.velocity(tau), MK.reference_frame(pos),
                ff.matrix(tau))


    def test_range_past_the_curve_interval_rejected(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0, interval=(-6, 6))
        for tau_range in ((-7, 5), (-5, 6.5)):
            with pytest.raises(InvalidInputError):
                fermi_walker_transport(cur, np.eye(4), tau_range)

    def test_integrates_nothing(self, monkeypatch):
        q0 = Event("schwarzschild", np.array([0.0, 10.0, math.pi / 2, 0.0]))
        cur = make_inertial_observer(SW, q0, [1.0, 0.0, 0.0, 0.02], interval=(-3, 3))
        spin = np.eye(4)
        spin[2:, 2:] = [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]]
        monkeypatch.setattr(observers, "_dopri", _no_call)
        ff = fermi_walker_transport(cur, cur.fw_basis(0.0) @ spin, (-2, 3))
        taus = np.linspace(-2, 3, 7)
        assert np.max(np.abs(ff.matrix(taus) - cur.fw_basis(taus) @ spin)) <= 1e-14
        ff.cov_deriv(taus)


def spun(curve, angle=0.3):
    """The curve's basis at tau = 0, its spatial axes turned about e1."""
    spin = np.eye(4)
    spin[2:, 2:] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    return curve.fw_basis(0.0) @ spin


def sw_geodesic_observer(u0, interval):
    q0 = Event("schwarzschild", np.array([0.0, 10.0, math.pi / 2, 0.0]))
    return make_inertial_observer(SW, q0, u0, interval=interval)


class TestParallelTransport:
    """Along a geodesic observer Fermi-Walker transport is parallel transport."""

    def test_flat_constant(self):
        cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [1, 0.2, 0, 0],
                                     interval=(0, 5))
        ff = fermi_walker_transport(cur, spun(cur), (0, 5))
        v0 = np.array([0.3, 1.0, -2.0, 0.7])
        comps = np.linalg.solve(ff.matrix(0.0), v0)
        for tau in np.linspace(0, 5, 7):
            assert np.allclose(ff.matrix(tau) @ comps, v0, atol=1e-12)

    def test_norm_preserved(self):
        cur = sw_geodesic_observer([1.2, 0.0, 0.0, 0.04], (0, 8))
        ff = fermi_walker_transport(cur, spun(cur), (0, 8))
        v0 = np.array([0.5, 0.2, 0.01, -0.03])
        comps = np.linalg.solve(ff.matrix(0.0), v0)
        n0 = float(v0 @ metric_at(SW, cur.position(0.0)) @ v0)
        for tau in np.linspace(0, 8, 9):
            v = ff.matrix(tau) @ comps
            assert abs(float(v @ metric_at(SW, cur.position(tau)) @ v) - n0) <= 1e-9 * (1 + abs(n0))

    def test_velocity_self_transport(self):
        # the observer's transport run and the ray integrator agree on the geodesic
        cur = sw_geodesic_observer([1.2, 0.0, 0.0, 0.04], (0, 8))
        ff = fermi_walker_transport(cur, spun(cur), (0, 8))
        q0 = Event("schwarzschild", cur.position(0.0))
        sol = geodesics.integrate_geodesic(SW, geodesics.GeodesicIVP(q0, cur.velocity(0.0)), 8.0)
        for tau in np.linspace(0, 8, 9):
            assert np.max(np.abs(ff.matrix(tau)[:, 0] * cur.c - sol.velocity(tau))) <= 1e-8
            assert np.max(np.abs(cur.position(tau) - sol.position(tau))) <= 1e-8

    def test_frame_products_preserved(self):
        cur = sw_geodesic_observer([1.2, 0.02, 0.0, 0.03], (0, 6))
        ff = fermi_walker_transport(cur, spun(cur), (0, 6))
        rng = np.random.default_rng(5)
        comps = rng.normal(size=(4, 4))  # four vectors, one a column
        before = gram_matrix(metric_at(SW, cur.position(0.0)), ff.matrix(0.0) @ comps)
        for tau in (2.0, 6.0):
            after = gram_matrix(metric_at(SW, cur.position(tau)), ff.matrix(tau) @ comps)
            assert np.max(np.abs(after - before)) <= 1e-9 * (1.0 + np.max(np.abs(before)))


def _no_call(*args, **kwargs):
    raise AssertionError("integrated")


# -- each curve kind's Fermi-Walker basis -------------------------------------

def _curve(kind):
    q0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
    program = lambda tau: np.array([0.3 * math.sin(tau), 0.2, -0.1])
    if kind == "flat-inertial":
        return make_inertial_observer(MK, Event("minkowski", np.ones(4)), [2, 0.5, 0.3, 0],
                                      interval=(-3, 3))
    if kind == "uniformly-accelerated":
        return make_uniformly_accelerated_observer(0.7, 2.0, interval=(-3, 3))
    if kind == "curved-inertial":
        return make_inertial_observer(SW, Event("schwarzschild", q0), [1.2, -0.1, 0, 0.02],
                                      interval=(-3, 3))
    chart = MK if kind == "flat-programmed" else SW
    return make_programmed_observer(chart, Event(chart.name, q0 if chart is SW else np.zeros(4)),
                                    chart.reference_frame(q0), program, interval=(-3, 3))[0]


@pytest.mark.parametrize("kind", ["flat-inertial", "uniformly-accelerated", "curved-inertial",
                                  "flat-programmed", "curved-programmed"])
def test_basis_is_fermi_walker_transported(kind):
    cur = _curve(kind)
    for tau in (-2.5, -0.4, 0.0, 1.1, 2.5):
        m = cur.fw_basis(tau)
        g = metric_at(cur.chart, cur.position(tau))
        assert np.max(np.abs(gram_matrix(g, m) - ETA)) <= 1e-9
        assert np.array_equal(m[:, 0], cur.velocity(tau) / cur.c)
        reading = np.zeros(3) if cur.reading_fn is None else cur.reading_fn(np.array([tau]))[0]
        assert np.array_equal(cur.acceleration(tau), m[:, 1:] @ reading)
        assert np.linalg.det(m) > 0
        for i in range(4):
            column = lambda t, i=i: cur.fw_basis(t)[:, i]
            direct = fermi_walker_derivative(cur, column, tau)
            via_projectors = fermi_walker_derivative_projector_form(cur, column, tau)
            assert np.max(np.abs(direct)) <= 1e-7
            assert np.max(np.abs(direct - via_projectors)) <= 1e-7


@pytest.mark.parametrize("make", [
    lambda q0, frame0: make_programmed_observer(SW, q0, frame0, lambda tau: np.zeros(3),
                                                interval=(-10, 10)),
    lambda q0, frame0: make_inertial_observer(SW, q0, frame0[:, 0], interval=(-10, 10)),
], ids=["programmed", "inertial"])
def test_worldline_leaving_the_chart_raises(make):
    # released at rest at r = 1.5 R, the worldline meets the horizon margin
    # both ways at |tau| ~ 2; it stops there as the rays do
    q0 = np.array([0.0, 1.5, math.pi / 2, 0.0])
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match=r"exits the chart at tau=-1\.9967"):
        make(Event("schwarzschild", q0), SW.reference_frame(q0))
    assert time.perf_counter() - start <= 2.0


def _counted_runs(monkeypatch):
    """The row ends of every _dopri run the observers module makes, as lists."""
    runs, dopri = [], geodesics._dopri

    def counted(*args, **kwargs):
        runs.append(np.asarray(args[2]).tolist())
        return dopri(*args, **kwargs)

    monkeypatch.setattr(observers, "_dopri", counted)
    return runs


def test_curved_inertial_worldline_is_one_integration(monkeypatch):
    # one run, one row per side of tau = 0 that has length
    runs = _counted_runs(monkeypatch)
    monkeypatch.setattr(geodesics, "integrate_geodesic", _no_call)
    q0 = Event("schwarzschild", np.array([0.0, 10.0, math.pi / 2, 0.0]))
    for interval, ends in (((-3, 2), [-3.0, 2.0]), ((0, 3), [3.0]), ((-3, 0), [-3.0])):
        runs.clear()
        cur = make_inertial_observer(SW, q0, [1.0, 0.0, 0.0, 0.0], interval=interval)
        assert runs == [ends]
        assert np.array_equal(cur.position(0.0), q0.coords)
        assert cur.position(ends[0])[1] < 10.0  # it falls either way from rest
        fermi_walker_transport(cur, SW.reference_frame(q0.coords)).matrix(
            np.linspace(*interval, 5))
        assert runs == [ends]


def test_each_side_keeps_its_one_sided_bits():
    # the two rows of one run have the bits of a worldline built on each
    # side alone
    q0 = Event("schwarzschild", np.array([0.0, 10.0, math.pi / 2, 0.0]))
    program = lambda tau: np.array([0.05 * math.sin(tau), 0.02, -0.01])
    frame0 = SW.reference_frame(q0.coords)
    both = make_programmed_observer(SW, q0, frame0, program, interval=(-2, 1.5))[0]
    for interval in ((-2, 0), (0, 1.5)):
        one = make_programmed_observer(SW, q0, frame0, program, interval=interval)[0]
        taus = np.linspace(*interval, 9)
        assert np.array_equal(both.position(taus), one.position(taus))
        assert np.array_equal(both.fw_basis(taus), one.fw_basis(taus))


class TestRotatingFrame:
    def _accel_rot(self, omega=1.0):
        cur = make_uniformly_accelerated_observer(1.0, 1.0, interval=(-6, 6))
        base = fermi_walker_transport(cur, np.eye(4), (-5, 5))
        return rotating_frame(base, omega, 1)

    def test_zero_rate_is_identity(self):
        cur = make_uniformly_accelerated_observer(1.0, 1.0)
        base = fermi_walker_transport(cur, np.eye(4), (-2, 2))
        assert rotating_frame(base, 0.0, 1) is base

    def test_quarter_turn_columns(self):
        ff = self._accel_rot(1.0)
        m = ff.matrix(math.pi / 2)
        assert np.allclose(m[:, 2], [0, 0, 0, 1], atol=1e-8)
        assert np.allclose(m[:, 3], [0, 0, -1, 0], atol=1e-8)

    def test_rotation_detected_by_fw_derivative(self):
        ff = self._accel_rot(1.0)
        cur = ff.curve
        col2 = lambda t: ff.matrix(t)[:, 2]
        out = fermi_walker_derivative(cur, col2, 0.7)
        assert np.max(np.abs(out)) > 0.1

    def test_gram_preserved_under_rotation(self):
        ff = self._accel_rot(0.7)
        for tau in np.linspace(-2, 2, 5):
            g = metric_at(MK, ff.curve.position(tau))
            assert np.max(np.abs(gram_matrix(g, ff.matrix(tau)) - ETA)) <= 1e-9


class TestProgrammedObserver:
    def test_constant_program_reproduces_uniform_acceleration(self):
        a = 0.8
        q0 = Event("minkowski", np.zeros(4))
        cur, ff = make_programmed_observer(
            MK, q0, np.eye(4), lambda tau: np.array([a, 0.0, 0.0]), interval=(-3, 3))
        ref = make_uniformly_accelerated_observer(a, 1.0)
        for tau in np.linspace(-2.5, 2.5, 7):
            assert np.max(np.abs(cur.position(tau) - ref.position(tau))) <= 1e-8
        acc = cur.acceleration(1.3)
        assert math.sqrt(-(acc @ ETA @ acc)) == pytest.approx(a, abs=1e-8)

    def test_norm_maintained(self):
        cur, _ = make_programmed_observer(
            MK, Event("minkowski", np.zeros(4)), np.eye(4),
            lambda tau: np.array([0.5 * math.sin(tau), 0.2, 0.0]), interval=(0, 4))
        for tau in np.linspace(0, 4, 9):
            u = cur.velocity(tau)
            assert abs(float(u @ ETA @ u) - 1.0) <= 1e-9

    @pytest.mark.parametrize("tau", [-3.5, 3.5])
    def test_frame_outside_interval_rejected(self, tau):
        _, ff = make_programmed_observer(
            MK, Event("minkowski", np.zeros(4)), np.eye(4),
            lambda t: np.array([0.5, 0.0, 0.0]), interval=(-3, 3))
        ff.matrix(3.0)
        with pytest.raises(InvalidInputError):
            ff.matrix(tau)

    @pytest.mark.parametrize("chart", [MK, SW], ids=["flat", "schwarzschild"])
    def test_acceleration_is_program_in_frame_columns(self, chart):
        # the acceleration equals the right-hand side's d(gamma')/dtau with
        # Gamma(gamma', gamma') added back, the form it replaced
        q0 = np.array([0.0, 10.0, math.pi / 2, 0.0]) if chart is SW else np.zeros(4)
        program = lambda tau: np.array([0.3 * math.sin(tau), 0.2, -0.1])
        cur, ff = make_programmed_observer(chart, Event(chart.name, q0),
                                           chart.reference_frame(q0), program, interval=(-2, 2))
        for tau in np.linspace(-2, 2, 9):
            vel = cur.velocity(tau)
            gam = chart.christoffels(cur.position(tau))
            gvv = np.einsum("kij,i,j->k", gam, vel, vel)
            old = (ff.matrix(tau)[:, 1:] @ program(tau) - gvv) + gvv
            got = cur.acceleration(tau)
            if chart is MK:
                assert np.array_equal(got, old)
            else:
                assert np.max(np.abs(got - old)) <= 1e-12 * np.max(np.abs(old))


# -- scalar and array tau ----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _frame_field(kind):
    """One frame field of each kind, built once."""
    if kind == "curved-inertial-fw":
        scn = load_scenario(SCN_DIR / "schwarzschild_faller.scn")
        chart = scn.build_chart()
        return scn.build_frames(chart, scn.build_observer(chart))
    if kind == "explicit":
        scn = load_scenario(SCN_DIR / "corrupted_frame.scn")
        chart = scn.build_chart()
        return scn.build_frames(chart, scn.build_observer(chart))
    if kind == "standard-inertial":
        cur = make_inertial_observer(MK, Event("minkowski", np.ones(4)), [2, 0.5, 0.3, 0],
                                     interval=(-4, 4))
        return standard_inertial_frame(cur)
    if kind == "programmed":
        q0 = np.array([0.0, 10.0, math.pi / 2, 0.0])
        _, ff = make_programmed_observer(
            SW, Event("schwarzschild", q0), SW.reference_frame(q0),
            lambda tau: np.array([0.2 * math.cos(tau), 0.1, 0.05]), interval=(-1.5, 2))
        return ff
    fw = fermi_walker_transport(make_uniformly_accelerated_observer(1.0, 1.0, (-6, 6)),
                                np.eye(4), (-5, 5))
    return fw if kind == "accelerated-fw" else rotating_frame(fw, 0.7, 2)


_KINDS = ["curved-inertial-fw", "accelerated-fw", "programmed", "rotating",
          "standard-inertial", "explicit"]


def _evaluators(ff):
    """(interval, evaluator) for each curve and frame evaluator of ff."""
    cur = ff.curve
    return [(cur.interval, cur.position), (cur.interval, cur.velocity),
            (cur.interval, cur.acceleration), (ff.interval, ff.matrix),
            (ff.interval, ff.cov_deriv)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINDS), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_array_rows_are_scalar_calls(kind, fractions):
    for (lo, hi), evaluate in _evaluators(_frame_field(kind)):
        taus = lo + np.array(fractions) * (hi - lo)
        rows = evaluate(taus)
        assert rows.shape == (len(taus),) + evaluate(taus[0]).shape
        for row, tau in zip(rows, taus):
            assert np.array_equal(row, evaluate(tau))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINDS), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       st.integers(0, 7), st.booleans(), st.floats(1e-9, 10.0))
def test_array_with_one_tau_outside_raises(kind, fractions, at, above, beyond):
    for (lo, hi), evaluate in _evaluators(_frame_field(kind)):
        taus = lo + np.array(fractions) * (hi - lo)
        bad = hi + beyond if above else lo - beyond
        taus[at % len(taus)] = bad
        with pytest.raises(InvalidInputError):
            evaluate(bad)
        with pytest.raises(InvalidInputError):
            evaluate(taus)
