"""Observer mappings, inversion, relative motion and force decomposition."""

import dataclasses
import hashlib
import importlib.util
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lightcone import geodesics, splitting
from lightcone.charts import metric_at, minkowski, schwarzschild
from lightcone.cli import main
from lightcone.errors import InvalidInputError, UnreachableDirectionError
from lightcone.geodesics import CLIPPED, LANDED, integrate_batch
from lightcone.lorentz import ETA, Event
from lightcone.observers import (
    fermi_walker_transport,
    make_inertial_observer,
    make_uniformly_accelerated_observer,
    rotating_frame,
    standard_inertial_frame,
)
from lightcone.scenario import load_scenario
from lightcone.splitting import (
    MultistartConfig,
    ObservedEvent,
    comoving_worldline,
    cone_vector,
    force_zero_component,
    invert_many,
    invert_observer_map,
    kinematic_observer_map,
    observe_curve,
    observer_map_jacobian,
    relative_force,
)

MK = minkowski()
SW = schwarzschild(1.0)
SCN_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def inertial():
    cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [1, 0, 0, 0],
                                 interval=(-40, 40))
    return cur, standard_inertial_frame(cur)


@pytest.fixture(scope="module")
def accel_rot():
    cur = make_uniformly_accelerated_observer(1.0, 1.0, interval=(-6, 6))
    base = fermi_walker_transport(cur, np.eye(4), (-5, 5))
    return cur, rotating_frame(base, 1.0, 1)


def search_box(tau=(-20, 20), half=6.0, **kw):
    return MultistartConfig(tau_range=tau, x_halfwidth=half,
                            n_tau=kw.pop("n_tau", 5), n_x=kw.pop("n_x", 5),
                            top_k=kw.pop("top_k", 8), **kw)


def closed_form_accel_rot(tau, x):
    """Map values for the accelerating observer spinning about its thrust axis."""
    r = np.linalg.norm(x)
    ch, sh = math.cosh(tau), math.sinh(tau)
    cs, sn = math.cos(tau), math.sin(tau)
    return np.array([
        sh - r * ch + x[0] * sh,
        ch - 1.0 - r * sh + x[0] * ch,
        x[1] * cs - x[2] * sn,
        x[1] * sn + x[2] * cs,
    ])


class TestKinematicMap:
    def test_inertial_closed_form(self, inertial):
        _, ff = inertial
        out = kinematic_observer_map(MK, ff, ObservedEvent(10.0, [3, 4, 0]))
        assert np.allclose(out.coords, [5, 3, 4, 0], atol=1e-10)

    def test_accel_rot_at_origin_instant(self, accel_rot):
        _, ff = accel_rot
        out = kinematic_observer_map(MK, ff, ObservedEvent(0.0, [0, 1, 0]))
        assert np.allclose(out.coords, [-1, 0, 1, 0], atol=1e-10)

    def test_accel_rot_closed_form_samples(self, accel_rot):
        _, ff = accel_rot
        rng = np.random.default_rng(1)
        for _ in range(6):
            tau = rng.uniform(-2, 2)
            x = rng.uniform(-1.5, 1.5, size=3)
            out = kinematic_observer_map(MK, ff, ObservedEvent(tau, x))
            assert np.max(np.abs(out.coords - closed_form_accel_rot(tau, x))) <= 1e-8

    def test_origin_excluded(self):
        with pytest.raises(InvalidInputError):
            ObservedEvent(0.0, [0, 0, 0])

    def test_standard_frame_values(self):
        # x^0 = c t: at c = 2 the observer is at (2 tau, 0, 0, 0)
        mk2 = minkowski(2.0)
        cur = make_inertial_observer(mk2, Event("minkowski", np.zeros(4)), [1, 0, 0, 0])
        out = kinematic_observer_map(mk2, standard_inertial_frame(cur), ObservedEvent(1.0, [3, 4, 0]))
        assert np.allclose(out.coords, [-3, 3, 4, 0], atol=1e-10)

    def test_boosted_frame_is_lorentz_transform(self):
        b = np.eye(4)
        b[0, 0] = b[1, 1] = math.cosh(0.7)
        b[0, 1] = b[1, 0] = math.sinh(0.7)
        base = np.array([1.0, 2.0, 0.0, 0.0])
        cur = make_inertial_observer(MK, Event("minkowski", base), b[:, 0])
        ff = fermi_walker_transport(cur, b)
        x = np.array([3.0, 4.0, 0.0])
        for tau in (0.0, 1.5):
            out = kinematic_observer_map(MK, ff, ObservedEvent(tau, x))
            assert np.allclose(out.coords, base + b @ np.array([tau - 5.0, *x]), atol=1e-10)

    def test_schwarzschild_ray_stays_lightlike(self):
        # a geodesic observer momentarily at rest at r = 10, its frame the chart's there
        q = Event("schwarzschild", np.array([0.0, 10.0, np.pi / 2, 0.0]))
        frame = SW.reference_frame(q.coords)
        cur = make_inertial_observer(SW, q, frame[:, 0], interval=(-1, 1))
        ff = fermi_walker_transport(cur, frame)
        x = np.array([2.0, 1.0, 0.5])
        out = kinematic_observer_map(SW, ff, ObservedEvent(0.0, x))
        k = frame @ np.array([-np.linalg.norm(x), *x])
        sol = geodesics.integrate_geodesic(SW, geodesics.GeodesicIVP(q, k), 1.0)
        v = sol.velocity(1.0)
        assert abs(float(v @ metric_at(SW, sol.position(1.0)) @ v)) / float(x @ x) <= 1e-8
        assert np.allclose(out.coords, sol.position(1.0))

    def test_stationarity_in_tau(self, inertial):
        _, ff = inertial
        x = np.array([1.0, -2.0, 0.5])
        a = kinematic_observer_map(MK, ff, ObservedEvent(3.0, x)).coords
        b = kinematic_observer_map(MK, ff, ObservedEvent(5.5, x)).coords
        assert np.allclose(b - a, [2.5, 0, 0, 0], atol=1e-10)

    def test_initial_vector_past_lightlike(self, accel_rot):
        cur, ff = accel_rot
        for tau, x in ((0.3, np.array([1.0, 0.2, -0.5])), (-1.0, np.array([0.0, 2.0, 1.0]))):
            k = cone_vector(ff, tau, x)
            g = metric_at(MK, cur.position(tau))
            assert abs(float(k @ g @ k)) <= 1e-10 * float(x @ x)
            assert float(cur.velocity(tau) @ g @ k) < 0.0


def spatial_distance(g, e0, k1, k2):
    """|x1 - x2| read off two cone vectors: the g-norm of k1 - k2 orthogonal to e0."""
    d = k1 - k2
    d = d - float(e0 @ g @ d) / float(e0 @ g @ e0) * e0
    return math.sqrt(max(0.0, -float(d @ g @ d)))


class TestConeVector:
    def test_coincident(self, accel_rot):
        cur, ff = accel_rot
        k = cone_vector(ff, 0.4, [3.0, 4.0, 0.0])
        g = metric_at(MK, cur.position(0.4))
        assert spatial_distance(g, cur.velocity(0.4), k, k) == 0.0

    def test_euclidean_formula(self, accel_rot):
        cur, ff = accel_rot
        g = metric_at(MK, cur.position(0.7))
        k1, k2 = cone_vector(ff, 0.7, [3.0, 4.0, 0.0]), cone_vector(ff, 0.7, [0.0, 0.0, 5.0])
        assert spatial_distance(g, cur.velocity(0.7), k1, k2) == pytest.approx(math.sqrt(50))

    def test_rotation_invariance(self, accel_rot):
        from scipy.linalg import expm

        cur, ff = accel_rot
        rng = np.random.default_rng(4)
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        for tau in (-1.0, 0.0, 2.5):
            g = metric_at(MK, cur.position(tau))
            gen = rng.normal(size=(3, 3))
            rot = expm(gen - gen.T)
            k1, k2 = cone_vector(ff, tau, rot @ x1), cone_vector(ff, tau, rot @ x2)
            d = spatial_distance(g, cur.velocity(tau), k1, k2)
            assert d == pytest.approx(np.linalg.norm(x1 - x2), rel=1e-12)


class TestJacobian:
    def test_inertial_closed_form(self, inertial):
        _, ff = inertial
        x = np.array([2.0, 1.0, -2.0])
        jac = observer_map_jacobian(MK, ff, ObservedEvent(4.0, x))
        xhat = x / np.linalg.norm(x)
        assert np.allclose(jac[0, 0], 1.0, atol=1e-10)
        assert np.allclose(jac[0, 1:], -xhat, atol=1e-10)
        assert np.allclose(jac[1:, 0], 0.0, atol=1e-10)
        assert np.allclose(jac[1:, 1:], np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("which", ["inertial", "accel_rot", "schwarzschild"])
    def test_matches_finite_differences(self, which, inertial, accel_rot):
        if which == "inertial":
            _, ff = inertial
            chart = MK
        elif which == "accel_rot":
            _, ff = accel_rot
            chart = MK
        else:
            chart = SW
            f = 1.0 - 1.0 / 10.0
            q0 = Event("schwarzschild", np.array([0.0, 10.0, np.pi / 2, 0.0]))
            cur = make_inertial_observer(SW, q0, [1.0 / math.sqrt(f), 0, 0, 0],
                                         interval=(-3, 3))
            ff = fermi_walker_transport(cur, SW.reference_frame(q0.coords), (-3, 3))
        p = ObservedEvent(0.4, [1.1, 0.6, -0.4])
        jac = observer_map_jacobian(chart, ff, p)
        h = 1e-6
        cols = []
        base = np.array([p.tau * ff.curve.c, *p.x])
        for i in range(4):
            dd = np.zeros(4)
            dd[i] = h
            pp = ObservedEvent((base + dd)[0] / ff.curve.c, (base + dd)[1:])
            pm = ObservedEvent((base - dd)[0] / ff.curve.c, (base - dd)[1:])
            fp = kinematic_observer_map(chart, ff, pp).coords
            fm = kinematic_observer_map(chart, ff, pm).coords
            cols.append((fp - fm) / (2 * h))
        fd = np.stack(cols, axis=1)
        assert np.max(np.abs(jac - fd)) <= 1e-5 * max(1.0, np.max(np.abs(jac)))


class TestInversion:
    def test_single_preimage(self, inertial):
        _, ff = inertial
        res = invert_observer_map(MK, ff, Event("minkowski", np.array([5.0, 3, 4, 0])),
                                  search_box())
        assert len(res) == 1
        assert res.preimages[0].tau == pytest.approx(10.0, abs=1e-9)
        assert np.allclose(res.preimages[0].x, [3, 4, 0], atol=1e-9)
        assert res.residuals[0] <= 1e-10 * 11
        assert res.regular[0]

    def test_worldline_target_excluded(self, inertial):
        _, ff = inertial
        res = invert_observer_map(MK, ff, Event("minkowski", np.array([10.0, 0, 0, 0])),
                                  search_box())
        assert len(res) == 0
        assert res.origin_excluded

    def test_far_outside_box(self, inertial):
        _, ff = inertial
        res = invert_observer_map(MK, ff, Event("minkowski", np.array([500.0, 3, 4, 0])),
                                  search_box(tau=(-15, 15)))
        assert len(res) == 0
        assert not res.origin_excluded

    def test_round_trip_accel_rot(self, accel_rot):
        _, ff = accel_rot
        cfg = search_box(tau=(-4, 4), half=2.0)
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(12):
            tau = rng.uniform(-1.5, 1.5)
            x = rng.uniform(-1.2, 1.2, size=3)
            if np.linalg.norm(x) < 0.3:
                x[0] += 0.5
            target = kinematic_observer_map(MK, ff, ObservedEvent(tau, x))
            res = invert_observer_map(MK, ff, target, cfg)
            assert len(res) >= 1
            best = min(np.max(np.abs(np.array([p.tau, *p.x]) - np.array([tau, *x])))
                       for p in res.preimages)
            worst = max(worst, best)
        assert worst <= 1e-8

    def test_empty_start_grid_rejected(self, inertial):
        # a one-point box at the origin holds only the excluded x = 0
        _, ff = inertial
        cfg = search_box(half=0.0, n_x=1)
        with pytest.raises(InvalidInputError):
            invert_many(MK, ff, [[5.0, 3.0, 4.0, 0.0]], cfg)

    def test_start_grid_order(self):
        # tau-major, then x1, x2, x3, with the origin left out
        cfg = MultistartConfig(tau_range=(-1.0, 2.0), x_halfwidth=1.0, n_tau=2, n_x=3,
                               top_k=1)
        taus = np.linspace(-1.0, 2.0, 2)
        axis = np.linspace(-1.0, 1.0, 3)
        expected = [(tau, np.array([x1, x2, x3]))
                    for tau in taus for x1 in axis for x2 in axis for x3 in axis
                    if (x1, x2, x3) != (0.0, 0.0, 0.0)]
        grid = splitting._start_grid(cfg)
        assert len(grid) == len(expected) == 2 * 26
        for row, (tau_e, x_e) in zip(grid, expected):
            assert row[0] == tau_e
            assert np.array_equal(row[1:], x_e)

    @pytest.mark.parametrize("bad", [
        {"top_k": 0}, {"n_tau": 0}, {"n_x": 0}, {"x_halfwidth": -1.0},
        {"x_halfwidth": float("nan")}, {"x_halfwidth": float("inf")},
        {"tau_range": (-1.0, float("inf"))}, {"x_center": (0.0, float("nan"), 0.0)},
        {"x_center": (1.0, 2.0)}, {"x_center": (0.0, 0.0, 0.0, 0.0)},
    ])
    def test_search_config_validated(self, bad):
        with pytest.raises(InvalidInputError):
            MultistartConfig(**dict({"tau_range": (-1.0, 1.0), "x_halfwidth": 1.0}, **bad))

    def test_seed_count_clipped_to_start_grid(self, inertial):
        # top_k larger than the two-point start grid: every start seeds
        # each target, in the batched and in the single-target path
        _, ff = inertial
        cfg = MultistartConfig(tau_range=(9.0, 11.0), x_halfwidth=1.0,
                               x_center=(3.0, 4.0, 0.0), n_tau=2, n_x=1, top_k=4)
        pts = [(10.0, np.array([3.0, 4.0, 0.0])), (10.5, np.array([3.2, 3.9, 0.1]))]
        targets = [kinematic_observer_map(MK, ff, ObservedEvent(tau, x)) for tau, x in pts]
        results = invert_many(MK, ff, [t.coords for t in targets], cfg)
        singles = [invert_observer_map(MK, ff, t, cfg) for t in targets]
        for (tau, x), res, single in zip(pts, results, singles):
            for r in (res, single):
                assert r.n_starts == 2
                assert len(r) == 1
                assert r.preimages[0].tau == pytest.approx(tau, abs=1e-9)
                assert np.allclose(r.preimages[0].x, x, atol=1e-9)


class TestObserveCurve:
    def test_radial_inertial_motion(self, inertial):
        _, ff = inertial
        cur2 = make_inertial_observer(MK, Event("minkowski", np.array([0.0, 4, 0, 0])),
                                      [1, 0.1, 0, 0], interval=(-30, 30))
        samples = observe_curve(MK, ff, cur2, np.linspace(0, 2, 5), search_box())
        assert len(samples) == 5
        for smp in samples:
            # closed form: seen radially, x(tau) affine, velocity w/(1+w)
            assert smp.character == "timelike"
            assert smp.v[0] == pytest.approx(0.1 / 1.1, abs=1e-9)
            assert np.max(np.abs(smp.dv_dtau)) <= 1e-8
            assert smp.tau_dot == pytest.approx(1.1 / math.sqrt(1 - 0.01), abs=1e-9)

    def test_comoving_point(self, inertial):
        _, ff = inertial
        wl = comoving_worldline(MK, ff, np.array([2.0, 0.0, 1.0]))
        samples = observe_curve(MK, ff, wl, np.linspace(0, 1, 3), search_box())
        for smp in samples:
            assert np.max(np.abs(smp.v)) <= 1e-9
            assert smp.tau_dot == pytest.approx(1.0, abs=1e-10)
            assert not smp.not_an_observer

    def test_rotating_superluminal_comoving(self, inertial):
        cur, base = inertial
        ff = rotating_frame(base, 1.0, 1)
        wl = comoving_worldline(MK, ff, np.array([0.0, 2.0, 0.0]))  # omega rho > c
        samples = observe_curve(MK, ff, wl, np.linspace(0, 0.5, 3),
                                search_box(tau=(-5, 5), half=3.0))
        assert all(smp.not_an_observer for smp in samples)
        assert all(smp.character == "spacelike" for smp in samples)

    def test_pointed_ray_zero_clock_rate(self, inertial, monkeypatch):
        _, ff = inertial
        from lightcone.geodesics import GeodesicIVP, integrate_geodesic

        x0 = np.array([3.0, 1.0, 0.0])
        k = cone_vector(ff, 5.0, x0)
        sol = integrate_geodesic(
            MK, GeodesicIVP(Event("minkowski", np.array([5.0, 0, 0, 0])), k), 1.0)
        res = invert_observer_map(MK, ff, Event("minkowski", sol.position(0.2)), search_box())
        monkeypatch.setattr(splitting, "invert_observer_map", lambda *a, **k: res)
        calls, newton = count_batches(monkeypatch)
        samples = observe_curve(MK, ff, sol, np.linspace(0.2, 0.8, 4), search_box())
        assert len(samples) == 4
        assert newton == [1, 1, 1]     # the warm starts of samples 2 to 4
        assert calls == [(8, 4)] * 4   # one Hessian batch per sample
        for smp in samples:
            assert smp.character == "lightlike"
            assert abs(smp.tau_dot) <= 1e-8
            assert smp.tau == pytest.approx(5.0, abs=1e-8)


# -- the references for relative_force's alpha and Ups --------------------------

def pullback_metric(chart, frames, p):
    """Components of the pulled-back spacetime metric in observer coordinates."""
    ev, jac = splitting._eval_landed(chart, frames, splitting._point(p.tau, p.x), True)
    g = metric_at(chart, ev[0])
    j = jac[0]
    return j.T @ g @ j


def hessian_points(c, p):
    """p, then p + _FD_STEP e_i and p - _FD_STEP e_i, as (tau, x) rows.

    e_i are the unit vectors of (x^0 = c*tau, x^a): p, then the 8 points
    of splitting._map_hessian's batch.
    """
    base = np.array([c * p.tau, *p.x])
    h = splitting._FD_STEP * np.eye(4)
    shifted = np.concatenate([base + h, base - h])
    shifted[:, 0] /= c
    return np.vstack([[p.tau, *p.x], shifted])


def transformed_christoffels(chart, frames, p):
    """Connection coefficients of the spacetime metric in observer coordinates.

    The chart coefficients transformed with the map Jacobian, plus the
    map's Hessian from central differences of step splitting._FD_STEP of
    the Jacobian in (x^0 = c*tau, x^a): p's 8 neighbours are one
    map+Jacobian batch.  This is the connection relative_force uses.
    """
    ev, jac = splitting._eval_landed(chart, frames, splitting._point(p.tau, p.x), True)
    hess = splitting._map_hessian(chart, frames, np.array([p.tau, *p.x]))
    return splitting._jacobian_christoffels(chart, ev[0], jac[0], hess)[0]


class TestPullbackMetric:
    def test_inertial_components(self, inertial):
        _, ff = inertial
        rng = np.random.default_rng(3)
        for _ in range(4):
            x = rng.uniform(-3, 3, size=3)
            if np.linalg.norm(x) < 0.5:
                x[1] = 1.0
            al = pullback_metric(MK, ff, ObservedEvent(rng.uniform(-3, 3), x))
            xhat = x / np.linalg.norm(x)
            assert al[0, 0] == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(al[0, 1:], -xhat, atol=1e-9)
            assert np.allclose(al[1:, 1:], np.outer(xhat, xhat) - np.eye(3), atol=1e-9)

    def test_unit_x_display(self, inertial):
        _, ff = inertial
        al = pullback_metric(MK, ff, ObservedEvent(0.0, [1.0, 0, 0]))
        expect = np.array([
            [1, -1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ], dtype=float)
        assert np.allclose(al, expect, atol=1e-9)

    def test_regular_points_nondegenerate(self, accel_rot):
        _, ff = accel_rot
        al = pullback_metric(MK, ff, ObservedEvent(0.5, [0.8, 0.3, -0.2]))
        assert abs(np.linalg.det(al)) > 1e-6


class TestTauDot:
    """The clock rate tau' = dtau/ds of observe_curve against special relativity."""

    def _rates(self, inertial, q0, u0):
        _, ff = inertial
        cur = make_inertial_observer(MK, Event("minkowski", np.array(q0, dtype=float)), u0,
                                     interval=(-40, 40))
        cfg = MultistartConfig(tau_range=(-30, 30), x_halfwidth=8.0, n_tau=5, n_x=5, top_k=8)
        samples = observe_curve(MK, ff, cur, np.linspace(0.0, 2.0, 3), cfg)
        assert len(samples) == 3
        return samples

    def test_at_rest(self, inertial):
        for smp in self._rates(inertial, [0, 3, 4, 0], [1, 0, 0, 0]):
            assert smp.tau_dot == pytest.approx(1.0, abs=1e-9)

    def test_approaching_half_c(self, inertial):
        # speed c/3 along the line of sight towards the observer: apparent
        # v = -c/2, and tau' = sqrt((1 - 1/3) / (1 + 1/3))
        for smp in self._rates(inertial, [0, 6, 0, 0], [1, -1 / 3, 0, 0]):
            assert np.allclose(smp.v, [-0.5, 0, 0], atol=1e-8)
            assert smp.tau_dot == pytest.approx(1 / math.sqrt(2), abs=1e-8)

    def test_receding_quarter_c(self, inertial):
        # speed c/3 away from the observer: apparent v = c/4, tau' = sqrt(2)
        for smp in self._rates(inertial, [0, 0, 3, 0], [1, 0, 1 / 3, 0]):
            assert np.allclose(smp.v, [0, 0.25, 0], atol=1e-8)
            assert smp.tau_dot == pytest.approx(math.sqrt(2), abs=1e-8)


def tau_dot(alpha, v, c):
    """The closed-form clock rate 1/sqrt(alpha_00 + 2 alpha_0a v^a/c + alpha_ab v^a v^b/c^2)."""
    return 1.0 / math.sqrt(alpha[0, 0] + 2.0 * float(alpha[0, 1:] @ v) / c
                           + float(v @ alpha[1:, 1:] @ v) / c**2)


class TestForceZeroComponent:
    def test_zero_force(self, inertial):
        _, ff = inertial
        al = pullback_metric(MK, ff, ObservedEvent(0.0, [1.0, 1.0, 0]))
        assert force_zero_component(al, np.zeros(3), 1.0, np.eye(4), np.zeros(3)) == 0.0

    def test_orthogonality_reconstruction(self, inertial):
        _, ff = inertial
        rng = np.random.default_rng(12)
        p = ObservedEvent(2.0, [1.5, -0.7, 0.4])
        al = pullback_metric(MK, ff, p)
        jac = observer_map_jacobian(MK, ff, p)
        w = np.linalg.inv(jac)
        v = np.array([0.05, 0.1, -0.02])
        for _ in range(5):
            f_sp = rng.normal(size=3)
            f0 = force_zero_component(al, v, 1.0, w, f_sp)
            f_full = np.array([f0, *f_sp])
            # orthogonality in chart components against the actual 4-velocity
            td = tau_dot(al, v, 1.0)
            xdot = td * np.array([1.0, *v])
            gammadot = jac @ xdot
            assert abs(float(gammadot @ ETA @ f_full)) <= 1e-10 * np.linalg.norm(f_full)

    def test_direct_substitution_diagonal(self):
        al = np.diag([1.0, -1.0, -1.0, -1.0])
        al[0, 1] = al[1, 0] = -0.3  # one mixed entry
        f_sp = np.array([2.0, -1.0, 0.5])
        got = force_zero_component(al, np.zeros(3), 1.0, np.eye(4), f_sp)
        # direct: u = alpha[0,:]; F0 = -(u_spatial . F)/u_0
        expect = -(al[0, 1:] @ f_sp) / al[0, 0]
        assert got == pytest.approx(expect, abs=1e-12)


def pullback_christoffels(chart, frames, p):
    """transformed_christoffels's reference: the pulled-back metric, differentiated.

    The metric pulled back at p and its 8 neighbours (hessian_points, one
    map+Jacobian batch), differentiated centrally, then the Levi-Civita
    formula.
    """
    ev, jac = splitting._eval_landed(chart, frames, hessian_points(frames.curve.c, p), True)
    alpha = np.array([j.T @ metric_at(chart, e) @ j for e, j in zip(ev, jac)])
    dal = np.stack((alpha[1:5] - alpha[5:9]) / (2.0 * splitting._FD_STEP), axis=-1)
    term = dal + np.einsum("lji->lij", dal) - np.einsum("ijl->lij", dal)
    return 0.5 * np.einsum("cl,lij->cij", np.linalg.inv(alpha[0]), term)


class TestTransformedChristoffels:
    def test_inertial_spatial_rows_vanish(self, inertial):
        _, ff = inertial
        ups = transformed_christoffels(MK, ff, ObservedEvent(1.0, [2.0, -1.0, 0.5]))
        assert np.max(np.abs(ups[1:])) <= 1e-8

    def test_methods_agree_on_accel_rot(self, accel_rot):
        _, ff = accel_rot
        p = ObservedEvent(0.3, [0.8, 0.5, -0.3])
        u1 = transformed_christoffels(MK, ff, p)
        u2 = pullback_christoffels(MK, ff, p)
        assert np.max(np.abs(u1 - u2)) <= 1e-5

    def test_lower_index_symmetry(self, accel_rot):
        _, ff = accel_rot
        ups = transformed_christoffels(MK, ff, ObservedEvent(0.2, [1.0, 0.4, 0.1]))
        assert np.max(np.abs(ups - ups.transpose(0, 2, 1))) <= 1e-8


class TestRelativeForce:
    def test_force_free_inertial_only_clock_term(self, inertial):
        _, ff = inertial
        cur2 = make_inertial_observer(MK, Event("minkowski", np.array([0.0, 3, 1, 0])),
                                      [1, 0.02, 0.08, 0], interval=(-30, 30))
        samples = observe_curve(MK, ff, cur2, np.linspace(0.0, 1.0, 3), search_box())
        smp = samples[1]
        fb = relative_force(1.0, MK, ff, smp, np.zeros(3))
        assert np.max(np.abs(fb.actual_part)) <= 1e-10
        assert np.max(np.abs(fb.pseudo_time_time)) <= 1e-8
        assert np.max(np.abs(fb.pseudo_mixed)) <= 1e-8
        assert np.max(np.abs(fb.pseudo_quadratic)) <= 1e-8
        # parts sum to total by construction
        total = fb.actual_part + sum(fb.pseudo_parts)
        assert np.max(np.abs(total - fb.total)) <= 1e-12
        # kinematic oracle
        assert np.linalg.norm(smp.dv_dtau - fb.total) <= 1e-6 * (np.linalg.norm(smp.dv_dtau) + 1e-9)

    def test_comoving_all_zero(self, inertial):
        _, ff = inertial
        wl = comoving_worldline(MK, ff, np.array([1.0, 2.0, 0.0]))
        samples = observe_curve(MK, ff, wl, np.linspace(0, 1, 3), search_box())
        fb = relative_force(1.0, MK, ff, samples[1], np.zeros(3))
        assert np.max(np.abs(fb.total)) <= 1e-8
        for part in fb.pseudo_parts:
            assert np.max(np.abs(part)) <= 1e-8


# -- tracked second derivatives -------------------------------------------------

def richardson_hessian(chart, frames, state):
    """The map's Hessian at state = (tau, x), in (c tau, x), as a reference.

    Central differences of the Jacobian at steps 2e-3 and 1e-3, Richardson
    extrapolated: its error is fourth order in the step, against
    _map_hessian's second order at step _FD_STEP.
    """
    c = frames.curve.c
    base = np.array([c * state[0], *state[1:]])

    def central(h):
        rows = np.concatenate([base + h * np.eye(4), base - h * np.eye(4)])
        rows[:, 0] /= c
        _, jac = splitting._eval_landed(chart, frames, rows, True)
        hess = ((jac[:4] - jac[4:]) / (2.0 * h)).transpose(1, 0, 2)
        return 0.5 * (hess + hess.transpose(0, 2, 1))

    return (4.0 * central(1e-3) - central(2e-3)) / 3.0


def stencil_derivatives(chart, frames, worldline, smp, search, h):
    """(dv/dtau, tau'') of a tracked sample from a five-point stencil in s.

    An acceleration independent of the map's Hessian: Newton, seeded at
    the sample, tracks the worldline at s +- h and s +- 2h, and tau' and v
    there, from Newton's Jacobians, are differenced.  It shares no second
    derivative with the tracker or the forces.
    """
    c = frames.curve.c
    s_pts = smp.s + h * np.array([-2.0, -1.0, 1.0, 2.0])
    state = np.array([smp.tau, *smp.x])
    _, _, conv, _, jacs = splitting._newton_polish(
        chart, frames, np.asarray(worldline.position(s_pts)), np.tile(state, (4, 1)), search,
        (np.tile(smp.event, (4, 1)), np.tile(smp.jacobian, (4, 1, 1))))
    assert conv.all()
    xi_dot = np.linalg.solve(jacs, np.asarray(worldline.velocity(s_pts))[:, :, None])[:, :, 0]
    tds = xi_dot[:, 0] / c
    w = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    return (w @ (xi_dot[:, 1:] / tds[:, None])) / smp.tau_dot, float(w @ tds)


def stencil_flat_case():
    """A free mass seen by an inertial observer in flat space."""
    cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [1, 0, 0, 0],
                                 interval=(-60, 60))
    mass = make_inertial_observer(MK, Event("minkowski", np.array([0.0, 2, 1, 0])),
                                  [1, 0.06, 0.08, 0], interval=(-60, 60))
    cfg = MultistartConfig(tau_range=(-30, 30), x_halfwidth=4.0, x_center=(2, 1, 0),
                           n_tau=5, n_x=5, top_k=8)
    return MK, standard_inertial_frame(cur), mass, cfg, np.linspace(0.0, 2.0, 3)


def stencil_schwarzschild_case():
    """Acceptance criterion 10's: a free faller at r = 10 sees one at r = 11."""
    q0 = Event("schwarzschild", np.array([0.0, 10.0, np.pi / 2, 0.0]))
    cur = make_inertial_observer(SW, q0, [1.0 / math.sqrt(0.9), 0, 0, 0], interval=(-3, 3))
    ff = fermi_walker_transport(cur, SW.reference_frame(q0.coords), (-3, 3))
    q2 = Event("schwarzschild", np.array([0.0, 11.0, np.pi / 2, 0.0]))
    mass = make_inertial_observer(SW, q2, [1.0 / math.sqrt(1.0 - 1.0 / 11.0), 0, 0, 0.005],
                                  interval=(-4, 4))
    cfg = MultistartConfig(tau_range=(-2.5, 2.5), x_halfwidth=1.6, x_center=(1.0, 0.0, 0.0),
                           n_tau=7, n_x=7, top_k=12)
    return SW, ff, mass, cfg, np.linspace(-0.4, 0.4, 3)


class TestSecondDerivatives:
    """dv/dtau and tau'' from xi'' = J^-1 (lambda'' - H(xi', xi'))."""

    @pytest.mark.parametrize("c", [4.0, 16.0, 64.0])
    def test_accelerated_rotating_frame_matches_richardson(self, c):
        # a free mass seen from a frame accelerating at a = 1 and turning at
        # omega = 0.5 about its thrust axis; the reference takes the same
        # formula with a Richardson-extrapolated Hessian (a five-point
        # stencil in s of half-width 0.02 is 2.4e-7 off it at c = 4)
        mk = minkowski(c)
        cur = make_uniformly_accelerated_observer(1.0, c, interval=(-3, 3))
        ff = rotating_frame(fermi_walker_transport(cur, np.eye(4), (-2.5, 2.5)), 0.5, 1)
        mass = make_inertial_observer(mk, Event("minkowski", np.array([0.0, 0.3, 0.5, 0.2])),
                                      [c, 0.1, 0.0, 0.05], interval=(-3, 3))
        cfg = MultistartConfig(tau_range=(-1.0, 1.5), x_halfwidth=1.0,
                               x_center=(0.3, 0.5, 0.2), n_tau=5, n_x=5, top_k=8)
        samples = observe_curve(mk, ff, mass, np.linspace(0.0, 0.6, 4), cfg)
        assert len(samples) == 4
        for smp in samples:
            state = np.array([smp.tau, *smp.x])
            _, jac = splitting._eval_landed(mk, ff, state[None], True)
            hess = richardson_hessian(mk, ff, state)
            xi_dot = np.linalg.solve(jac[0], mass.velocity(smp.s))
            # the mass is free and the chart Cartesian: lambda'' = 0
            xi_ddot = np.linalg.solve(jac[0], -np.einsum("lij,i,j->l", hess, xi_dot, xi_dot))
            tau_dot, tau_ddot = xi_dot[0] / c, xi_ddot[0] / c
            v = xi_dot[1:] / tau_dot
            dv_dtau = (xi_ddot[1:] - v * tau_ddot) / tau_dot**2
            assert np.max(np.abs(smp.dv_dtau - dv_dtau)) <= 1e-8
            assert abs(smp.tau_ddot - tau_ddot) <= 1e-8

    @pytest.mark.parametrize("case", [stencil_flat_case, stencil_schwarzschild_case])
    def test_matches_the_stencil_route(self, case):
        # the stencil's error at h = 1e-2 is its truncation, about h^4 / 30
        # times the fifth derivative in s, and Newton's stop over h, well
        # below 1e-8 here; a missing term of lambda'' or H would be 1e-3
        chart, ff, mass, cfg, s = case()
        samples = observe_curve(chart, ff, mass, s, cfg)
        assert len(samples) == len(s)
        for smp in samples:
            dv_dtau, tau_ddot = stencil_derivatives(chart, ff, mass, smp, cfg, 1e-2)
            assert np.max(np.abs(smp.dv_dtau - dv_dtau)) <= 1e-8
            assert abs(smp.tau_ddot - tau_ddot) <= 1e-8

    def test_a_lost_hessian_ray_costs_only_that_samples_acceleration(self, inertial,
                                                                      monkeypatch):
        # one ray of the second sample's Hessian batch does not land: that
        # sample keeps tau' and v, its dv/dtau and tau'' are NaN, its force
        # raises, and the track goes on
        _, ff = inertial
        wl = TestFailedWarmStart.worldline()
        s = [1.0, 1.5, 2.0]
        want = observe_curve(MK, ff, wl, s, search_box())
        real, real_hessian = splitting._eval_batch, splitting._map_hessian
        hessians = []  # per _map_hessian call: whether it is still running

        def hessian(*args):
            hessians.append(True)
            try:
                return real_hessian(*args)
            finally:
                hessians[-1] = False

        def lossy(chart, frames, pts, with_jacobian, **kwargs):
            events, jacs = real(chart, frames, pts, with_jacobian, **kwargs)
            if hessians == [False, True]:  # the second sample's Hessian batch
                events[3], jacs[3] = np.nan, np.nan
            return events, jacs

        monkeypatch.setattr(splitting, "_map_hessian", hessian)
        monkeypatch.setattr(splitting, "_eval_batch", lossy)
        got = observe_curve(MK, ff, wl, s, search_box())
        assert len(hessians) == len(got) == len(want) == 3
        for i, (a, b) in enumerate(zip(got, want)):
            assert (a.tau, a.tau_dot) == (b.tau, b.tau_dot)
            assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
            if i == 1:
                assert np.isnan(a.tau_ddot) and np.isnan(a.dv_dtau).all()
                with pytest.raises(UnreachableDirectionError):
                    relative_force(1.0, MK, ff, a, np.zeros(3))
            else:
                assert a.tau_ddot == b.tau_ddot and np.array_equal(a.dv_dtau, b.dv_dtau)


def test_observe_truncates_on_branch_loss():
    # worldline runs past the observer's frame interval: tracking must
    # truncate with the samples gathered so far, not raise
    cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [1, 0, 0, 0],
                                 interval=(-6, 6))
    ff = standard_inertial_frame(cur)
    cur2 = make_inertial_observer(MK, Event("minkowski", np.array([0.0, 2, 0, 0])),
                                  [1, 0, 0, 0], interval=(-40, 40))
    cfg = MultistartConfig(tau_range=(-5.5, 5.5), x_halfwidth=4.0,
                           n_tau=5, n_x=5, top_k=8)
    samples = observe_curve(MK, ff, cur2, np.linspace(0, 20, 9), cfg)
    assert 0 < len(samples) < 9


def test_a_sample_at_the_frame_interval_end_loses_only_its_acceleration():
    # the resting mass at x = (2, 0, 0) is seen at tau = s + 2; at s = 3.99995
    # that is within _FD_STEP / c of the frame interval's end, and the
    # Hessian rows past it count as rays that did not land: the sample
    # keeps tau' and v, its tau'' and dv/dtau are NaN and its force raises
    cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [1, 0, 0, 0],
                                 interval=(-6, 6))
    ff = standard_inertial_frame(cur)
    mass = make_inertial_observer(MK, Event("minkowski", np.array([0.0, 2, 0, 0])),
                                  [1, 0, 0, 0], interval=(-40, 40))
    cfg = MultistartConfig(tau_range=(-5.5, 5.5), x_halfwidth=4.0, n_tau=5, n_x=5, top_k=8)
    inner, end = observe_curve(MK, ff, mass, [3.9, 3.99995], cfg)
    assert end.tau == pytest.approx(5.99995, abs=1e-9)
    assert np.allclose(end.x, [2.0, 0.0, 0.0], rtol=0, atol=1e-9)
    assert end.tau_dot == pytest.approx(1.0, abs=1e-9) and np.max(np.abs(end.v)) <= 1e-9
    assert np.isnan(end.tau_ddot) and np.isnan(end.dv_dtau).all()
    with pytest.raises(UnreachableDirectionError):
        relative_force(1.0, MK, ff, end, np.zeros(3))
    assert abs(inner.tau_ddot) <= 1e-8 and np.max(np.abs(inner.dv_dtau)) <= 1e-8


def _states_per_point(frames, pts, with_jacobian):
    """The loop construction of _map_states: one frame evaluation per point."""
    rows = []
    for tau, *x in pts:
        x = np.array(x)
        r = np.linalg.norm(x)
        m = frames.matrix(tau)
        row = [frames.curve.position(tau), cone_vector(frames, tau, x)]
        if with_jacobian:
            row += [m[:, 0], frames.cov_deriv(tau) @ np.concatenate([[-r], x]) / frames.curve.c]
            for a in range(3):
                row += [np.zeros(4), m @ np.concatenate([[-x[a] / r], np.eye(3)[a]])]
        rows.append(np.concatenate(row))
    return np.array(rows)


@pytest.mark.parametrize("preset", ["schwarzschild_faller", "accel_rotating",
                                    "minkowski_inertial"])
def test_map_states_match_per_point_construction(preset):
    scn = load_scenario(SCN_DIR / f"{preset}.scn")
    chart = scn.build_chart()
    frames = scn.build_frames(chart, scn.build_observer(chart))
    lo, hi = frames.interval
    rng = np.random.default_rng(7)
    for n in (1, 9, 620):
        pts = np.column_stack([rng.uniform(lo, hi, n), rng.normal(size=(n, 3))])
        for with_jacobian in (False, True):
            got = splitting._map_states(frames, pts, with_jacobian)
            want = _states_per_point(frames, pts, with_jacobian)
            assert got.shape == want.shape == (n, 40 if with_jacobian else 8)
            if n == 1:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_fw_temporal_column_initial_data():
    # for a Fermi-Walker transported frame the temporal Jacobi column's
    # initial covariant derivative reduces to the closed form built from
    # the frame components of the observer's acceleration
    cur = make_uniformly_accelerated_observer(1.0, 1.0, interval=(-4, 4))
    ff = fermi_walker_transport(cur, np.eye(4), (-3, 3))
    tau, x = 0.8, np.array([1.2, -0.4, 0.7])
    r = np.linalg.norm(x)
    m = ff.matrix(tau)
    d = ff.cov_deriv(tau)
    got = d @ np.concatenate([[-r], x])  # -|x| cov(X_0) + x^a cov(X_a)

    g = metric_at(MK, cur.position(tau))
    acc = cur.acceleration(tau)
    # frame components of the acceleration: A = A^b X_b (A orthogonal to X_0)
    a_frame = -np.array([float(acc @ g @ m[:, b]) for b in (1, 2, 3)])
    want = (float(x @ a_frame) / cur.c) * m[:, 0] - (r / cur.c) * (m[:, 1:] @ a_frame)
    assert np.max(np.abs(got - want)) <= 1e-9


def count_batches(monkeypatch):
    """Record (rays, n_jac) of every batched integration outside Newton, and
    the number of targets of every Newton batch."""
    calls, newton = [], []
    real_batch, real_newton = splitting.integrate_batch, splitting._newton_polish

    def batch(chart, y0, n_jac=0, **kwargs):
        if not newton or newton[-1] is not None:
            calls.append((len(y0), n_jac))
        return real_batch(chart, y0, n_jac, **kwargs)

    def polish(chart, frames, targets, *args, **kwargs):
        newton.append(None)  # batches from here on belong to Newton
        try:
            return real_newton(chart, frames, targets, *args, **kwargs)
        finally:
            newton[-1] = len(targets)

    monkeypatch.setattr(splitting, "integrate_batch", batch)
    monkeypatch.setattr(splitting, "_newton_polish", polish)
    return calls, newton


class TestOneBatchPerSample:
    """Each tracked sample makes at most one Newton row, for the next sample's
    warm start, and one 8-row map+Jacobian batch for its Hessian, which its
    force reuses."""

    def test_relative_force_maps_nothing(self, accel_rot, monkeypatch):
        # the force takes the sample's event, Jacobian and Hessian: the first
        # two Newton's, with the bits of a fresh map+Jacobian ray at the
        # sample's state, the Hessian a fresh _map_hessian batch's
        _, ff = accel_rot
        wl = comoving_worldline(MK, ff, np.array([0.0, 0.5, 0.0]))
        samples = observe_curve(MK, ff, wl, np.linspace(0, 1, 3),
                                search_box(tau=(-4, 4), half=2.0))
        for smp in samples:
            ev, jac = splitting._eval_batch(MK, ff, splitting._point(smp.tau, smp.x), True)
            hess = splitting._map_hessian(MK, ff, np.array([smp.tau, *smp.x]))
            for got, want in zip((smp.event, smp.jacobian, smp.hessian), (ev[0], jac[0], hess)):
                assert np.array_equal(got, want)
        calls, newton = count_batches(monkeypatch)
        for smp in samples:
            relative_force(1.0, MK, ff, smp, np.zeros(3))
        assert calls == []
        assert newton == []

    def test_pullback_christoffels_single_batch(self, accel_rot, faller, monkeypatch):
        # p and its 8 neighbours are one map+Jacobian batch, with the
        # bits of the nine single-point pullback_metric calls it replaced
        h = splitting._FD_STEP
        cases = [(MK, accel_rot[1], ObservedEvent(0.3, [0.8, 0.5, -0.3])),
                 (*faller, ObservedEvent(0.4, [1.2, -0.8, 0.6]))]
        want = []
        for chart, ff, p in cases:
            al = [pullback_metric(chart, ff, ObservedEvent(r[0], r[1:]))
                  for r in hessian_points(ff.curve.c, p)]
            dal = np.empty((4, 4, 4))
            for l in range(4):
                dal[:, :, l] = (al[1 + l] - al[5 + l]) / (2.0 * h)
            term = dal + np.einsum("lji->lij", dal) - np.einsum("ijl->lij", dal)
            want.append(0.5 * np.einsum("cl,lij->cij", np.linalg.inv(al[0]), term))
        calls, newton = count_batches(monkeypatch)
        for (chart, ff, p), ups in zip(cases, want):
            assert np.array_equal(pullback_christoffels(chart, ff, p), ups)
        assert calls == [(9, 4)] * len(cases)
        assert newton == []

    def test_observe_single_sample_one_hessian_batch(self, inertial, monkeypatch):
        _, ff = inertial
        cur2 = make_inertial_observer(MK, Event("minkowski", np.array([0.0, 4, 0, 0])),
                                      [1, 0.1, 0, 0], interval=(-30, 30))
        res = invert_observer_map(MK, ff, Event("minkowski", cur2.position(1.0)),
                                  search_box())
        monkeypatch.setattr(splitting, "invert_observer_map", lambda *a, **k: res)
        calls, newton = count_batches(monkeypatch)
        (smp,) = observe_curve(MK, ff, cur2, [1.0], search_box())
        assert newton == []            # a last sample has no next sample to start
        assert calls == [(8, 4)]       # its Hessian; its Jacobian comes from the inversion
        assert smp.v[0] == pytest.approx(0.1 / 1.1, abs=1e-9)
        assert np.max(np.abs(smp.dv_dtau)) <= 1e-8

    def test_observe_track_one_newton_batch_per_sample(self, inertial, monkeypatch):
        # each sample but the last makes a one-row Newton batch, the next
        # sample's warm start, and every sample one Hessian batch
        _, ff = inertial
        cur2 = make_inertial_observer(MK, Event("minkowski", np.array([0.0, 4, 0, 0])),
                                      [1, 0.1, 0, 0], interval=(-30, 30))
        s = [1.0, 1.5, 2.0]
        want = observe_curve(MK, ff, cur2, s, search_box())
        res = invert_observer_map(MK, ff, Event("minkowski", cur2.position(1.0)), search_box())
        cold = []
        monkeypatch.setattr(splitting, "invert_observer_map",
                            lambda *a, **k: cold.append(1) or res)
        calls, newton = count_batches(monkeypatch)
        got = observe_curve(MK, ff, cur2, s, search_box())
        assert cold == [1]
        assert newton == [1, 1]
        assert calls == [(8, 4)] * 3
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert (a.tau, a.tau_dot, a.tau_ddot) == (b.tau, b.tau_dot, b.tau_ddot)
            assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
            assert np.array_equal(a.dv_dtau, b.dv_dtau)
            assert a.v[0] == pytest.approx(0.1 / 1.1, abs=1e-9)


class TestFailedWarmStart:
    """A sample whose warm start does not converge inverts cold."""

    S = [1.0, 1.5, 2.0]

    @staticmethod
    def worldline():
        return make_inertial_observer(MK, Event("minkowski", np.array([0.0, 4, 0, 0])),
                                      [1, 0.1, 0, 0], interval=(-30, 30))

    def track(self, inertial, monkeypatch, decoy=None):
        """Track with the first sample's warm-start row failed.

        decoy(prev, root) gives a preimage added to the second cold
        inversion, from the previous state and the true root.  Returns the
        samples and the number of cold inversions; asserts that each sample
        but the last made one one-row tracking batch.
        """
        _, ff = inertial
        real_newton, real_invert = splitting._newton_polish, splitting.invert_observer_map
        seeded, cold = [], []

        def polish(*args, **kwargs):
            out = real_newton(*args, **kwargs)
            if len(args) > 5 or "seeds" in kwargs:  # a tracking batch, not an inversion
                seeded.append(len(args[2]))
                if len(seeded) == 1:
                    conv = out[2].copy()
                    conv[0] = False
                    out = (out[0], out[1], conv, out[3], out[4])
            return out

        def invert(*args, **kwargs):
            res = real_invert(*args, **kwargs)
            cold.append(res)
            if decoy is None or len(cold) == 1:
                return res
            prev = np.array([cold[0].preimages[0].tau, *cold[0].preimages[0].x])
            root = np.array([res.preimages[0].tau, *res.preimages[0].x])
            extra = decoy(prev, root)
            return dataclasses.replace(
                res, preimages=res.preimages + [ObservedEvent(extra[0], extra[1:])],
                images=np.concatenate([res.images, res.images[:1]]),
                jacobians=np.concatenate([res.jacobians, res.jacobians[:1]]))

        monkeypatch.setattr(splitting, "_newton_polish", polish)
        monkeypatch.setattr(splitting, "invert_observer_map", invert)
        got = observe_curve(MK, ff, self.worldline(), self.S, search_box())
        assert seeded == [1] * (len(self.S) - 1)
        return got, len(cold)

    def assert_same_track(self, got, want):
        assert len(got) == len(want) == len(self.S)
        for a, b in zip(got, want):
            assert (a.tau, a.tau_dot, a.tau_ddot) == (b.tau, b.tau_dot, b.tau_ddot)
            assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
            assert np.array_equal(a.dv_dtau, b.dv_dtau)

    def test_next_sample_inverts_cold_on_the_same_track(self, inertial, monkeypatch):
        want = observe_curve(MK, inertial[1], self.worldline(), self.S, search_box())
        got, n_cold = self.track(inertial, monkeypatch)
        assert n_cold == 2
        self.assert_same_track(got, want)
        assert not any(smp.ambiguous for smp in got)

    def test_a_far_preimage_is_ignored(self, inertial, monkeypatch):
        want = observe_curve(MK, inertial[1], self.worldline(), self.S, search_box())
        got, n_cold = self.track(inertial, monkeypatch,
                                 lambda prev, root: root + np.array([3.0, 2.0, -2.0, 1.0]))
        assert n_cold == 2
        self.assert_same_track(got, want)
        assert not any(smp.ambiguous for smp in got)

    def test_an_equally_near_preimage_is_ambiguous(self, inertial, monkeypatch):
        # the decoy lies on the far side of the previous state, as far from
        # it as the root up to half of _MERGE_TOL
        def mirror(prev, root):
            d = np.max(np.abs(root - prev))
            return prev - (root - prev) * (d + 0.5 * splitting._MERGE_TOL) / d

        want = observe_curve(MK, inertial[1], self.worldline(), self.S, search_box())
        got, n_cold = self.track(inertial, monkeypatch, mirror)
        assert n_cold == 2
        self.assert_same_track(got, want)  # the nearest preimage is still the root
        assert [smp.ambiguous for smp in got] == [False, True, False]


def test_mapped_curve_array_rows_are_scalar_calls():
    # one map batch serves an array of s, and each row keeps the bits of
    # its own scalar call
    scn = load_scenario(SCN_DIR / "schwarzschild_faller.scn")
    chart = scn.build_chart()
    frames = scn.build_frames(chart, scn.build_observer(chart))
    wl = comoving_worldline(chart, frames, np.array([1.0, -0.5, 0.3]))
    s = np.array([-1.0, 0.25, 0.5, 1.5])
    pos, vel = wl.position(s), wl.velocity(s)
    assert pos.shape == vel.shape == (4, 4)
    for i, si in enumerate(s):
        assert np.array_equal(pos[i], wl.position(si))
        assert np.array_equal(vel[i], wl.velocity(si))


def test_single_point_callers_raise_for_a_ray_that_does_not_land(inertial):
    # flat space cut at x1 = -5: the ray seen in direction -x1 from 6 away
    # leaves before landing
    _, ff = inertial
    cut = dataclasses.replace(MK, flat=False, boundary_fn=lambda c: np.asarray(c)[..., 1] + 5.0,
                              domain_fn=lambda c: np.asarray(c)[..., 1] > -5.0)
    p = ObservedEvent(0.0, np.array([-6.0, 0.0, 0.0]))
    with pytest.raises(UnreachableDirectionError):
        kinematic_observer_map(cut, ff, p)
    with pytest.raises(UnreachableDirectionError):
        observer_map_jacobian(cut, ff, p)
    with pytest.raises(UnreachableDirectionError):
        pullback_metric(cut, ff, p)
    with pytest.raises(UnreachableDirectionError):
        transformed_christoffels(cut, ff, p)
    with pytest.raises(UnreachableDirectionError):
        comoving_worldline(cut, ff, p.x).position(np.array([0.0, 1.0]))
    with pytest.raises(UnreachableDirectionError):
        comoving_worldline(cut, ff, p.x).velocity(0.0)
    near = ObservedEvent(0.0, np.array([-4.0, 0.0, 0.0]))  # lands
    assert np.allclose(observer_map_jacobian(cut, ff, near), observer_map_jacobian(MK, ff, near),
                       rtol=0, atol=1e-9)


# -- the ray chart -------------------------------------------------------------

@pytest.fixture(scope="module")
def faller():
    scn = load_scenario(SCN_DIR / "schwarzschild_faller.scn")
    chart = scn.build_chart()
    return chart, scn.build_frames(chart, scn.build_observer(chart))


HOLE_POINT = np.array([[0.0, -12.5, 0.0, 0.0]])  # the seen ray runs into the horizon margin


@pytest.mark.parametrize("preset", ["schwarzschild_faller", "minkowski_inertial"])
def test_an_empty_batch_gives_empty_results(preset):
    # the faller's rays go through its ray chart; no points are no rays there too
    scn = load_scenario(SCN_DIR / f"{preset}.scn")
    chart = scn.build_chart()
    frames = scn.build_frames(chart, scn.build_observer(chart))
    none = np.empty((0, 4))
    rays = splitting.observer_rays(chart, frames, none)
    assert rays.states.shape == (0, 8)
    assert rays.s1.shape == rays.outcome.shape == (0,) and rays.reasons == []
    events, jacs = splitting._eval_batch(chart, frames, none, True)
    assert events.shape == (0, 4) and jacs.shape == (0, 4, 4)
    events, jacs = splitting._eval_batch(chart, frames, none, False)
    assert events.shape == (0, 4) and jacs is None


def _rel(a, b):
    """Each row's largest deviation, relative to max(1, its largest entry)."""
    return np.max(np.abs(a - b), axis=1) / np.maximum(1.0, np.max(np.abs(b), axis=1))


# six directions at two instants and three radii; toward the hole the outer rays clip
RAY_CHART_POINTS = np.array([
    (tau, *(r * np.array(d))) for tau in (-2.0, 1.0) for r in (2.0, 6.0, 12.5)
    for d in ([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [-0.6, 0.0, 0.8],
              [-0.8, -0.6, 0.0], [0.36, -0.48, 0.8])])


def test_ray_chart_results_match_the_model_chart(faller):
    # the rays run in Eddington-Finkelstein coordinates; read back, they
    # agree with the same rays integrated in Schwarzschild coordinates
    chart, frames = faller
    assert chart.ray_chart is not None
    pts = RAY_CHART_POINTS
    rays = splitting.observer_rays(chart, frames, pts)
    ref, _ = integrate_batch(chart, splitting._map_states(frames, pts, False))
    assert np.array_equal(rays.outcome, ref.outcome)
    landed, clipped = ref.outcome == LANDED, ref.outcome == CLIPPED
    assert landed.sum() >= 30 and clipped.sum() >= 2 and landed.sum() + clipped.sum() == len(pts)
    assert np.max(_rel(rays.states[landed], ref.states[landed])) <= 1e-10
    assert np.max(_rel(rays.states[clipped, :4], ref.states[clipped, :4])) <= 1e-8

    # the map's Jacobian columns, at the landed points
    events, jacs = splitting._eval_batch(chart, frames, pts[landed], True)
    ref, _ = integrate_batch(chart, splitting._map_states(frames, pts[landed], True), 4)
    want = ref.states.reshape(-1, 5, 8)[:, 1:, :4].transpose(0, 2, 1)
    assert np.max(_rel(events, ref.states[:, :4])) <= 1e-10
    assert np.max(_rel(jacs.reshape(-1, 16), want.reshape(-1, 16))) <= 1e-10


def test_map_jacobian_matches_a_tight_tolerance_run(faller, monkeypatch):
    # the Jacobi columns ride the ray's steps in the ray chart; at the
    # landed points above they must hold the accuracy of the map itself
    chart, frames = faller
    pts = RAY_CHART_POINTS[splitting.observer_rays(chart, frames, RAY_CHART_POINTS).outcome
                           == LANDED]
    _, jacs = splitting._eval_batch(chart, frames, pts, True)
    monkeypatch.setattr(geodesics, "REL_TOL", 1e-13)
    monkeypatch.setattr(geodesics, "ABS_TOL", 1e-15)
    _, want = splitting._eval_batch(chart, frames, pts, True)
    # measured: 1.3e-11
    assert np.max(_rel(jacs.reshape(-1, 16), want.reshape(-1, 16))) <= 1e-10


def _bench_references():
    """bench/references.py, which imports no lightcone code, loaded read-only."""
    path = Path(__file__).resolve().parent.parent / "bench" / "references.py"
    spec = importlib.util.spec_from_file_location("bench_references", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_observer_rays_match_the_orbital_plane_reference(faller):
    # an independent oracle: each seen ray integrated in its orbital plane
    # with conserved E and L, from the faller's closed-form position and
    # Fermi-Walker frame; 26 directions at two instants and three radii,
    # the ray toward the hole clipping at the outer radius
    ref = _bench_references()
    chart, frames = faller
    reference_faller = ref.Faller(10.0, 1.0)
    dirs = np.array([d for d in itertools.product((-1.0, 0.0, 1.0), repeat=3) if any(d)])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = np.array([(tau, *(r * d)) for tau in (-2.0, 2.2) for r in (2.0, 6.0, 12.5)
                    for d in dirs])
    rays = splitting.observer_rays(chart, frames, pts)
    worst = {LANDED: 0.0, CLIPPED: 0.0}
    for p, outcome, end in zip(pts, rays.outcome, rays.states[:, :4]):
        tau, x = p[0], p[1:]
        reached, _, want = ref.null_ray(1.0, reference_faller.position(tau),
                                        reference_faller.cone_vector(tau, x))
        assert outcome == (LANDED if reached else CLIPPED)
        if not reached:
            assert np.allclose(x / np.linalg.norm(x), [-1.0, 0.0, 0.0]) and x[0] < -12.0
        dev = max(abs(end[0] - want[0]) / (1.0 + abs(want[0])), abs(end[1] - want[1]) / want[1],
                  abs(end[2] - want[2]), abs(math.remainder(end[3] - want[3], 2.0 * math.pi)))
        worst[outcome] = max(worst[outcome], dev)
    assert np.sum(rays.outcome == CLIPPED) == 2
    # measured: 2.4e-11 landed, 3.2e-11 at the clip points
    assert worst[LANDED] <= 1e-9 and worst[CLIPPED] <= 1e-9


def test_hole_cone_ray_clips_in_few_steps(faller, monkeypatch):
    # 116 accepted steps in Schwarzschild coordinates, where t diverges
    chart, frames = faller
    steps = []

    def counted(*args, **kwargs):
        out = integrate_batch(*args, **kwargs)
        steps.append(out[1])
        return out

    monkeypatch.setattr(splitting, "integrate_batch", counted)
    rays = splitting.observer_rays(chart, frames, HOLE_POINT)
    assert rays.outcome[0] == CLIPPED
    assert abs(rays.states[0, 1] - (1.0 + 1e-6)) <= 2.5e-16  # on the exit surface, to the ulp
    assert steps == [steps[0]] and steps[0] <= 10


def test_horizon_bound_jacobian_raises_after_bounded_work(faller):
    # in Schwarzschild coordinates this ray's Jacobi columns grow like 1/f
    # and it runs on for 10^5 steps; in the ray chart it clips
    chart, frames = faller
    ef = chart.ray_chart.chart
    calls = []

    def counted(pts, vel):
        if np.iscomplexobj(pts):  # the Jacobi columns' complex step
            calls.append(1)
        return ef.spray_fn(pts, vel)

    rays = dataclasses.replace(chart.ray_chart, chart=dataclasses.replace(ef, spray_fn=counted))
    with pytest.raises(UnreachableDirectionError):
        observer_map_jacobian(dataclasses.replace(chart, ray_chart=rays), frames,
                              ObservedEvent(0.0, HOLE_POINT[0, 1:]))
    assert 0 < len(calls) <= 1000  # one per right-hand side (485 at REL_TOL)


# -- Newton's acceptance test ----------------------------------------------------

# the invert-schw benchmark's search box
FALLER_BOX = MultistartConfig(tau_range=(-2.5, 2.5), x_halfwidth=3.0, n_tau=5, n_x=5,
                              top_k=8, inv_tol=1e-10)


def _faller_targets(chart, frames, sites):
    return np.array([kinematic_observer_map(chart, frames, ObservedEvent(tau, np.array(x))).coords
                     for tau, x in sites])


# the fake frame's covariant derivatives: zero (a parallel frame, whose
# trials keep the retarded time linear) or a boost generator, which moves
# every cone vector (plain trials)
BOOST_1 = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4])


def _synthetic_spray(y, v):
    """A smooth stand-in spray, quadratic in v."""
    return 0.02 * np.cos(y) * (v @ np.array([[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.3],
                                             [0.2, 0.0, 1.0, 0.0], [0.0, 0.0, 0.4, 1.0]])) ** 2


@pytest.mark.parametrize("generator, bent", [(np.zeros((4, 4)), False), (BOOST_1, False),
                                             (np.zeros((4, 4)), True)],
                         ids=["parallel", "boosting", "parallel-bent"])
def test_newton_is_invariant_under_a_linear_change_of_chart(monkeypatch, generator, bent):
    # a smooth synthetic map F and the same map in a badly scaled, sheared
    # chart, A F: Newton's steps and its damping must not see A, so both
    # runs take the same path to the same root; only the stop rule, in
    # chart coordinates, may end one of them an iteration sooner.  The bent
    # case's chart has a spray, which in the sheared chart is
    # S_A(A y, A v) = A S(y, v), so the bend (A J)^-1 A S(y, r) / 2 is the
    # plain run's bend too
    mix = np.array([[1.0, 0.3, 0.0, 0.1], [0.0, 1.0, 0.2, 0.0],
                    [0.1, 0.0, 1.0, 0.3], [0.2, 0.0, 0.0, 1.0]])

    def fmap(p):
        return p @ mix.T + 0.9 * np.sin(np.roll(p, 1, axis=1)) + 0.05 * p ** 3

    def fjac(p):
        jac = np.tile(mix, (len(p), 1, 1))
        for i in range(4):
            jac[:, i, i - 1] += 0.9 * np.cos(p[:, i - 1])
            jac[:, i, i] += 0.15 * p[:, i] ** 2
        return jac

    skew = np.diag([1.0, 1e3, 1.0, 1e-3]) @ (np.eye(4) + 2.0 * np.triu(np.ones((4, 4)), 1))
    frames = SimpleNamespace(curve=SimpleNamespace(c=1.0), interval=(-50.0, 50.0),
                             cov_deriv=lambda taus: np.tile(generator, (len(taus), 1, 1)))
    root = np.array([0.5, 1.0, -0.8, 1.2])
    seeds = root + np.random.default_rng(7).uniform(-6.0, 6.0, size=(20, 4))
    cfg = MultistartConfig(tau_range=(-1.0, 1.0), x_halfwidth=1.0, inv_tol=1e-12)

    def polish(a):
        calls = []
        sprays = []

        def fake(chart, frames, pts, with_jacobian):
            calls.append(with_jacobian)
            return fmap(pts) @ a.T, a @ fjac(pts) if with_jacobian else None

        def spray(y, v):
            a_inv = np.linalg.inv(a)
            sprays.append(len(y))
            return _synthetic_spray(y @ a_inv.T, v @ a_inv.T) @ a.T

        chart = SimpleNamespace(flat=not bent, spray=spray)
        monkeypatch.setattr(splitting, "_eval_batch", fake)
        targets = np.tile(a @ fmap(root[None])[0], (len(seeds), 1))
        states, _, converged, _, _ = splitting._newton_polish(chart, frames, targets, seeds, cfg)
        assert bool(sprays) == bent  # a flat chart's steps take no bend
        return states, converged, sum(calls)

    plain, plain_ok, plain_jacs = polish(np.eye(4))
    skewed, skewed_ok, skewed_jacs = polish(skew)
    assert plain_ok.all() and np.array_equal(plain_ok, skewed_ok)
    assert abs(plain_jacs - skewed_jacs) <= 1
    assert np.max(np.abs(plain - skewed)) <= 1e-9
    assert np.max(np.abs(plain - root)) <= 1e-9


def _newton_case(request, name):
    """(chart, frames) of the inertial or accel_rot fixture on flat space, or of the faller."""
    chart, frames = request.getfixturevalue(name)
    return (chart, frames) if name == "faller" else (MK, frames)


NEWTON_CASES = ["inertial", "accel_rot", "faller"]  # the faller's rays run in EF coordinates
NEWTON_SITES = np.array([[0.3, 1.2, -0.8, 0.6], [-0.5, -1.0, 0.4, 1.1], [0.8, 0.5, 1.3, -0.7]])


@pytest.mark.parametrize("case", NEWTON_CASES)
def test_newton_returns_the_images_and_jacobians_of_its_states(case, request):
    # an accepted trial's Jacobian serves the next step, the grading and the
    # tracker, so it must be the one a fresh batch gives at the final state
    chart, frames = _newton_case(request, case)
    targets, _ = splitting._eval_batch(chart, frames, NEWTON_SITES, False)
    seeds = NEWTON_SITES + np.array([0.15, -0.2, 0.1, 0.25])
    out = splitting._newton_polish(chart, frames, targets, seeds, FALLER_BOX)
    states, _, converged, images, jacs = out
    assert converged.all() and np.max(np.abs(states - NEWTON_SITES)) <= 1e-8
    fresh = splitting._eval_batch(chart, frames, states, True)
    assert np.array_equal(images, fresh[0]) and np.array_equal(jacs, fresh[1])
    # seeded with the seeds' own images and Jacobians, Newton takes the same path
    again = splitting._newton_polish(chart, frames, targets, seeds, FALLER_BOX,
                                     splitting._eval_batch(chart, frames, seeds, True))
    for a, b in zip(out, again):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", NEWTON_CASES)
def test_newton_row_does_not_depend_on_its_batch(case, request):
    # targets around a point, all seeded at it; polished together or one at
    # a time, every row gets the same bits
    chart, frames = _newton_case(request, case)
    tau, x, w = 0.4, np.array([1.2, -0.8, 0.6]), np.array([0.1, 0.05, -0.08])
    d = np.array([-0.1, -0.05, 0.05, 0.1, 0.5])
    pts = np.column_stack([tau + d, x + d[:, None] * w])
    targets, _ = splitting._eval_batch(chart, frames, pts, False)
    seed = np.array([[tau, *x]])
    image, jac = splitting._eval_batch(chart, frames, seed, True)
    together = splitting._newton_polish(chart, frames, targets, np.repeat(seed, 5, axis=0),
                                        FALLER_BOX, (np.repeat(image, 5, axis=0),
                                                     np.repeat(jac, 5, axis=0)))
    assert together[2].all()
    for i in range(5):
        alone = splitting._newton_polish(chart, frames, targets[i:i + 1], seed, FALLER_BOX,
                                         (image, jac))
        for a, b in zip(together, alone):
            assert np.array_equal(a[i], b[0])


def test_newton_takes_an_empty_batch(faller):
    # invert_many polishes no rows when none of its start rays lands
    chart, frames = faller
    none = np.empty((0, 4))
    states, rnorm, converged, images, jacs = splitting._newton_polish(
        chart, frames, none, none, FALLER_BOX)
    assert states.shape == images.shape == (0, 4) and jacs.shape == (0, 4, 4)
    assert rnorm.shape == converged.shape == (0,)


def _count_batches(monkeypatch):
    """Record with_jacobian of every _eval_batch call from here on."""
    calls = []
    real = splitting._eval_batch

    def counted(chart, frames, pts, with_jacobian, **kwargs):
        calls.append(with_jacobian)
        return real(chart, frames, pts, with_jacobian, **kwargs)

    monkeypatch.setattr(splitting, "_eval_batch", counted)
    return calls


def test_faller_inversion_batch_count(faller, monkeypatch):
    # every damped step that halves makes one more sequential batch; the
    # natural monotonicity test accepts the far seeds' steps whole
    chart, frames = faller
    sites = [(-1.8, (1.2, 1.2, 1.2)), (1.3, (-0.8, 0.8, -0.8)),
             (0.4, (-1.2, -1.2, 1.2)), (-0.6, (0.8, -0.8, -0.8))]
    targets = _faller_targets(chart, frames, sites)
    calls = _count_batches(monkeypatch)
    results = invert_many(chart, frames, targets, FALLER_BOX)
    for (tau, x), res in zip(sites, results):
        assert len(res) == 1
        assert np.max(np.abs(np.array([res.preimages[0].tau, *res.preimages[0].x])
                             - np.array([tau, *x]))) <= 1e-8
    # 6: the start grid, the seeds' Jacobians and 4 trial batches (6 with
    # trials straight in (c tau, x)), each trial mapped with its Jacobian,
    # which serves the next step and the grading; 13 when Newton and the
    # grading make Jacobian batches of their own, 27 when a step is
    # accepted by the chart-coordinate residual
    assert len(calls) <= 10


def _bench_sites():
    """The invert-schw benchmark's eight (tau, x), one per octant of directions, unjittered."""
    order = np.linspace(-1.8, 1.8, 8)[[3, 6, 0, 5, 2, 7, 1, 4]]
    tilt = np.array([[0.8, -0.36, 0.48], [0.6, 0.48, -0.64], [0.0, 0.8, 0.6]])
    sites = []
    for i, tau in enumerate(order):
        d = tilt @ np.array([1 if i & 1 else -1, 1 if i & 2 else -1, 1 if i & 4 else -1])
        sites.append((tau, (1.4 if i % 2 else 2.1) * d / np.linalg.norm(d)))
    return sites


def test_inversion_agrees_between_the_ray_charts(faller):
    # the benchmark's eight targets inverted with the rays in
    # Eddington-Finkelstein and in Schwarzschild coordinates
    chart, frames = faller
    sites = _bench_sites()
    targets = _faller_targets(chart, frames, sites)
    ef = invert_many(chart, frames, targets, FALLER_BOX)
    sw = invert_many(dataclasses.replace(chart, ray_chart=None), frames, targets, FALLER_BOX)
    for a, b in zip(ef, sw):
        assert len(a) == len(b) >= 1
        for p, q in zip(a.preimages, b.preimages):
            assert abs(p.tau - q.tau) <= 1e-10 and np.max(np.abs(p.x - q.x)) <= 1e-10


def test_start_grid_ranks_at_the_ranking_pair(faller, monkeypatch):
    # the grid's images only drop starts and rank seeds, so its looser rays
    # must leave every root, residual and Jacobian of the benchmark's eight
    # targets as the ray tolerance leaves them, while taking fewer steps
    chart, frames = faller
    targets = _faller_targets(chart, frames, _bench_sites())
    steps = []

    def counted(*args, **kwargs):
        out = integrate_batch(*args, **kwargs)
        if args[2] == 0:  # the grid is the only batch without Jacobians
            steps.append(out[1])
        return out

    monkeypatch.setattr(splitting, "integrate_batch", counted)
    ranked = invert_many(chart, frames, targets, FALLER_BOX)
    monkeypatch.setattr(geodesics, "RANK_REL_TOL", geodesics.REL_TOL)
    monkeypatch.setattr(geodesics, "RANK_ABS_TOL", geodesics.ABS_TOL)
    full = invert_many(chart, frames, targets, FALLER_BOX)
    assert len(steps) == 2 and steps[0] <= 3 and steps[1] == 6  # most steps of one grid ray
    for a, b in zip(ranked, full):
        assert len(a) == len(b) == 1
        assert [(p.tau, *p.x) for p in a.preimages] == [(p.tau, *p.x) for p in b.preimages]
        for field in ("residuals", "conds", "images", "jacobians"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


# -- Newton's trials along the light cone --------------------------------------

def test_parallel_frame_in_flat_space_converges_in_one_trial(monkeypatch):
    # the map of an inertial observer in Minkowski space is affine in the
    # retarded time c tau - |x| and in x, so a trial that moves those
    # linearly lands on the root in one step from anywhere (a straight
    # step in (c tau, x) needs a second)
    scn = load_scenario(SCN_DIR / "minkowski_inertial.scn")
    chart = scn.build_chart()
    frames = scn.build_frames(chart, scn.build_observer(chart))
    rng = np.random.default_rng(3)
    sites = np.column_stack([rng.uniform(-3.0, 3.0, 12), rng.uniform(-4.0, 4.0, (12, 3))])
    seeds = sites + rng.uniform(-1.0, 1.0, (12, 4))
    targets, _ = splitting._eval_batch(chart, frames, sites, False)
    seeded = splitting._eval_batch(chart, frames, seeds, True)
    assert np.all(np.linalg.norm(seeded[0] - targets, axis=1) > 0.1)  # every seed off its root
    calls = _count_batches(monkeypatch)
    states, _, converged, _, _ = splitting._newton_polish(
        chart, frames, targets, seeds, scn.build_search(frames.curve), seeded)
    assert converged.all() and calls == [True]
    assert np.max(np.abs(states - sites)) <= 1e-12


def _flat_spherical_spray(y, v):
    """Flat space's spray in (ct, r, theta, phi)."""
    r, th = y[:, 1], y[:, 2]
    sin, cos = np.sin(th), np.cos(th)
    vr, vt, vp = v[:, 1], v[:, 2], v[:, 3]
    return np.column_stack([np.zeros(len(y)), -r * (vt * vt + sin * sin * vp * vp),
                            2.0 * vr * vt / r - sin * cos * vp * vp,
                            2.0 * vr * vp / r + 2.0 * cos / sin * vt * vp])


def test_bent_step_is_second_order(monkeypatch):
    # an affine map into Minkowski space read in spherical coordinates: a
    # straight step ends O(d^2) off the root, since its image is a chart
    # geodesic and not a chart line, and the bent step O(d^3)
    mix = np.array([[1.0, 0.2, 0.0, -0.1], [0.1, 1.0, 0.3, 0.0],
                    [0.0, -0.2, 1.0, 0.2], [0.3, 0.0, 0.1, 1.0]])
    shift = np.array([0.0, 1.5, -2.0, 1.0])

    def fake(chart, frames, pts, with_jacobian):
        y = pts @ mix.T + shift  # (t, X, Y, Z); c = 1, so c tau is tau
        big_x, big_y, big_z = y[:, 1], y[:, 2], y[:, 3]
        rho2 = big_x ** 2 + big_y ** 2
        r, rho = np.linalg.norm(y[:, 1:], axis=1), np.sqrt(rho2)
        ev = np.column_stack([y[:, 0], r, np.arccos(big_z / r), np.arctan2(big_y, big_x)])
        if not with_jacobian:
            return ev, None
        dpsi = np.zeros((len(y), 4, 4))
        dpsi[:, 0, 0] = 1.0
        dpsi[:, 1, 1:] = y[:, 1:] / r[:, None]
        dpsi[:, 2, 1:] = (np.column_stack([big_x * big_z, big_y * big_z, -rho2])
                          / (r ** 2 * rho)[:, None])
        dpsi[:, 3, 1:3] = np.column_stack([-big_y, big_x]) / rho2[:, None]
        return ev, dpsi @ mix

    monkeypatch.setattr(splitting, "_eval_batch", fake)
    monkeypatch.setattr(splitting, "_MAX_NEWTON", 1)
    frames = SimpleNamespace(curve=SimpleNamespace(c=1.0), interval=(-50.0, 50.0),
                             cov_deriv=lambda taus: np.tile(BOOST_1, (len(taus), 1, 1)))
    cfg = MultistartConfig(tau_range=(-1.0, 1.0), x_halfwidth=1.0, inv_tol=1e-15)
    root = np.array([0.3, 1.0, -0.5, 0.8])
    units = np.random.default_rng(5).normal(size=(6, 4))
    units /= np.linalg.norm(units, axis=1)[:, None]
    targets = np.tile(fake(None, frames, root[None], False)[0], (len(units), 1))

    def one_step(flat, d):
        chart = SimpleNamespace(flat=flat, spray=_flat_spherical_spray)
        seeds = root + d * units
        states, rnorm, _, _, _ = splitting._newton_polish(chart, frames, targets, seeds, cfg)
        assert np.all(np.linalg.norm(states - root, axis=1) < 0.5 * d)  # a whole step, taken
        return rnorm

    straight = one_step(True, 0.1) / one_step(True, 0.05)
    bent = one_step(False, 0.1) / one_step(False, 0.05)
    assert np.all((straight > 3.0) & (straight < 5.0))  # O(d^2)
    assert np.all(bent >= 6.0)  # O(d^3)
    assert np.all(one_step(False, 0.05) < 0.1 * one_step(True, 0.05))


def test_faller_inversion_jacobian_batches(faller, monkeypatch):
    # the invert-schw call: the benchmark's box and eight targets in one
    # invert_many; along the faller's parallel frame the trials follow the
    # light cone, and each step bends along the spherical chart's geodesic,
    # so a trial is off the root by curvature only (6 Jacobian batches with
    # unbent steps, 11 with straight trials)
    chart, frames = faller
    sites = _bench_sites()
    targets = _faller_targets(chart, frames, sites)
    calls = _count_batches(monkeypatch)
    results = invert_many(chart, frames, targets, FALLER_BOX)
    assert sum(calls) == 4 and len(calls) == 5
    for (tau, x), target, res in zip(sites, targets, results):
        assert len(res) == 1
        # a root within tol.inv of the target in the chart, carried back
        # to (c tau, x) through the inverse Jacobian, plus the map's error
        reach = np.linalg.norm(np.linalg.inv(res.jacobians[0]), 2) * FALLER_BOX.inv_tol * (
            1.0 + np.max(np.abs(target)))
        p = res.preimages[0]
        assert np.linalg.norm(np.array([p.tau, *p.x]) - np.array([tau, *x])) <= reach + 1e-10


def test_rotating_frame_inversion_keeps_straight_trials(tmp_path, monkeypatch):
    # the accelerated, spinning frame is not parallel along its rays, so its
    # trials stay straight in (c tau, x): the same Jacobian batches as before
    # trials followed the light cone; the bytes are those of the frame
    # derivatives taken from the boost generator, within 1.2e-15 of the
    # metric form's in tau and x
    scn = load_scenario(SCN_DIR / "accel_rotating.scn")
    chart = scn.build_chart()
    frames = scn.build_frames(chart, scn.build_observer(chart))
    pts = [(0.5, [1.0, 0.5, 0.0]), (-1.0, [0.0, 1.2, 0.4]), (1.5, [-0.6, -0.3, 0.9])]
    targets = [kinematic_observer_map(chart, frames, ObservedEvent(t, np.array(x))).coords
               for t, x in pts]
    targets.append(np.array([500.0, 3.0, 4.0, 0.0]))  # not seen in the box
    path = tmp_path / "targets.txt"
    path.write_text("".join(" ".join(format(float(v), ".17g") for v in t) + "\n" for t in targets))
    calls = _count_batches(monkeypatch)
    rc = main(["--scenario", str(SCN_DIR / "accel_rotating.scn"), "--out", str(tmp_path),
               "invert", "--targets", str(path)])
    assert rc == 0 and sum(calls) == 29 and len(calls) == 30
    digest = hashlib.sha256((tmp_path / "preimages.csv").read_bytes()).hexdigest()
    assert digest == "0eef426c53e31a93179680e2eca0e935f49e3ec8ad7fe2397c36042bf102ee11"
