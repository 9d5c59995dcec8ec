"""Observer mappings, inversion, relative motion and force decomposition."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from lightcone import splitting
from lightcone.charts import metric_at, minkowski, schwarzschild
from lightcone.errors import InvalidInputError, SuperluminalError, UnreachableDirectionError
from lightcone.geodesics import CLIPPED, LANDED, integrate_batch
from lightcone.lorentz import ETA, Event, Frame4
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
    pullback_metric,
    relative_force,
    static_distance,
    static_observer_map,
    tau_dot,
    transformed_christoffels,
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


class TestStaticMap:
    def test_standard_frame_values(self):
        frame = Frame4(Event("minkowski", np.zeros(4)), np.eye(4))
        out = static_observer_map(MK, frame, [3, 4, 0])
        assert np.allclose(out.coords, [-5, 3, 4, 0], atol=1e-10)

    def test_boosted_frame_is_lorentz_transform(self):
        b = np.eye(4)
        b[0, 0] = b[1, 1] = math.cosh(0.7)
        b[0, 1] = b[1, 0] = math.sinh(0.7)
        frame = Frame4(Event("minkowski", np.array([1.0, 2.0, 0.0, 0.0])), b)
        x = np.array([3.0, 4.0, 0.0])
        out = static_observer_map(MK, frame, x)
        expect = frame.base.coords + b @ np.array([-5.0, *x])
        assert np.allclose(out.coords, expect, atol=1e-10)

    def test_origin_excluded(self):
        frame = Frame4(Event("minkowski", np.zeros(4)), np.eye(4))
        with pytest.raises(InvalidInputError):
            static_observer_map(MK, frame, [0, 0, 0])

    def test_schwarzschild_ray_stays_lightlike(self):
        q = Event("schwarzschild", np.array([0.0, 10.0, np.pi / 2, 0.0]))
        frame = Frame4(q, SW.reference_frame(q.coords))
        x = np.array([2.0, 1.0, 0.5])
        out = static_observer_map(SW, frame, x)
        # residual measured on the integrated ray's endpoint velocity
        from lightcone.geodesics import GeodesicIVP, integrate_geodesic

        k = frame.matrix @ np.array([-np.linalg.norm(x), *x])
        sol = integrate_geodesic(SW, GeodesicIVP(q, k), 1.0)
        g = metric_at(SW, sol.position(1.0))
        v = sol.velocity(1.0)
        assert abs(float(v @ g @ v)) / float(x @ x) <= 1e-8
        assert np.allclose(out.coords, sol.position(1.0))


class TestStaticDistance:
    def test_coincident(self):
        k = np.array([-5.0, 3.0, 4.0, 0.0])
        assert static_distance(ETA, [1, 0, 0, 0], k, k) == 0.0

    def test_euclidean_formula(self):
        k1 = np.array([-5.0, 3.0, 4.0, 0.0])
        k2 = np.array([-5.0, 0.0, 0.0, 5.0])
        assert static_distance(ETA, [1, 0, 0, 0], k1, k2) == pytest.approx(math.sqrt(50))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        k1 = np.array([-np.linalg.norm(x1), *x1])
        k2 = np.array([-np.linalg.norm(x2), *x2])
        d0 = static_distance(ETA, [1, 0, 0, 0], k1, k2)
        from scipy.linalg import expm

        for _ in range(5):
            w = rng.normal(size=3)
            rot = expm(np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]]))
            rot4 = np.eye(4)
            rot4[1:, 1:] = rot
            d = static_distance(ETA, [1, 0, 0, 0], rot4 @ k1, rot4 @ k2)
            assert abs(d - d0) <= 1e-12 * (1.0 + d0)


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
    ])
    def test_search_config_validated(self, bad):
        with pytest.raises(InvalidInputError):
            MultistartConfig(**dict({"tau_range": (-1.0, 1.0), "x_halfwidth": 1.0}, **bad))

    def test_zero_seeds_per_target_rejected(self, inertial):
        _, ff = inertial
        with pytest.raises(InvalidInputError):
            invert_many(MK, ff, [[5.0, 3.0, 4.0, 0.0]], search_box(), seeds_per_target=0)

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

    def test_pointed_ray_zero_clock_rate(self, inertial):
        _, ff = inertial
        from lightcone.geodesics import GeodesicIVP, integrate_geodesic

        x0 = np.array([3.0, 1.0, 0.0])
        k = cone_vector(ff, 5.0, x0)
        sol = integrate_geodesic(
            MK, GeodesicIVP(Event("minkowski", np.array([5.0, 0, 0, 0])), k), 1.0)
        samples = observe_curve(MK, ff, sol, np.linspace(0.2, 0.8, 4), search_box())
        for smp in samples:
            assert smp.character == "lightlike"
            assert abs(smp.tau_dot) <= 1e-8
            assert smp.tau == pytest.approx(5.0, abs=1e-8)


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
    def test_at_rest(self):
        al = np.diag([1.0, -1, -1, -1])
        assert tau_dot(al, np.zeros(3), 1.0) == 1.0

    def _sr_alpha(self, xhat):
        al = np.empty((4, 4))
        al[0, 0] = 1.0
        al[0, 1:] = al[1:, 0] = -xhat
        al[1:, 1:] = np.outer(xhat, xhat) - np.eye(3)
        return al

    def test_approaching_half_c(self):
        xhat = np.array([1.0, 0, 0])
        v = -0.5 * xhat  # approaching: velocity against the line of sight
        assert tau_dot(self._sr_alpha(xhat), v, 1.0) == pytest.approx(1 / math.sqrt(2))

    def test_receding_quarter_c(self):
        xhat = np.array([0.0, 1.0, 0])
        v = 0.25 * xhat
        assert tau_dot(self._sr_alpha(xhat), v, 1.0) == pytest.approx(math.sqrt(2))

    def test_superluminal_rejected(self):
        xhat = np.array([1.0, 0, 0])
        with pytest.raises(SuperluminalError):
            tau_dot(self._sr_alpha(xhat), 0.51 * xhat, 1.0)


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


class TestTransformedChristoffels:
    def test_inertial_spatial_rows_vanish(self, inertial):
        _, ff = inertial
        ups = transformed_christoffels(MK, ff, ObservedEvent(1.0, [2.0, -1.0, 0.5]))
        assert np.max(np.abs(ups[1:])) <= 1e-8

    def test_methods_agree_on_accel_rot(self, accel_rot):
        _, ff = accel_rot
        p = ObservedEvent(0.3, [0.8, 0.5, -0.3])
        u1 = transformed_christoffels(MK, ff, p, "jacobian")
        u2 = transformed_christoffels(MK, ff, p, "pullback")
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
        samples = observe_curve(MK, ff, cur2, np.linspace(0.0, 1.0, 3), search_box(),
                                stencil_h=0.1)
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
    samples = observe_curve(MK, ff, cur2, np.linspace(0, 20, 9), cfg, stencil_h=0.05)
    assert 0 < len(samples) < 9


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


class TestOneBatchPerSample:
    """The splitting layer evaluates each force or stencil as one batch."""

    @staticmethod
    def count_batches(monkeypatch):
        """Record (rays, n_jac) of every batched integration outside Newton."""
        calls, newton = [], []
        real_batch, real_newton = splitting.integrate_batch, splitting._newton_polish

        def batch(chart, y0, n_jac=0, *args, **kwargs):
            if not newton or newton[-1] is not None:
                calls.append((len(y0), n_jac))
            return real_batch(chart, y0, n_jac, *args, **kwargs)

        def polish(chart, frames, targets, *args, **kwargs):
            newton.append(None)  # batches from here on belong to Newton
            try:
                return real_newton(chart, frames, targets, *args, **kwargs)
            finally:
                newton[-1] = len(targets)

        monkeypatch.setattr(splitting, "integrate_batch", batch)
        monkeypatch.setattr(splitting, "_newton_polish", polish)
        return calls, newton

    def test_relative_force_single_batch(self, accel_rot, monkeypatch):
        _, ff = accel_rot
        wl = comoving_worldline(MK, ff, np.array([0.0, 0.5, 0.0]))
        samples = observe_curve(MK, ff, wl, np.linspace(0, 1, 3),
                                search_box(tau=(-4, 4), half=2.0))
        calls, newton = self.count_batches(monkeypatch)
        for smp in samples:
            relative_force(1.0, MK, ff, smp, np.zeros(3))
        assert calls == [(9, 4)] * len(samples)
        assert newton == []

    def test_observe_stencil_single_newton_and_jacobian(self, inertial, monkeypatch):
        _, ff = inertial
        cur2 = make_inertial_observer(MK, Event("minkowski", np.array([0.0, 4, 0, 0])),
                                      [1, 0.1, 0, 0], interval=(-30, 30))
        res = invert_observer_map(MK, ff, Event("minkowski", cur2.position(1.0)),
                                  search_box())
        monkeypatch.setattr(splitting, "invert_observer_map", lambda *a, **k: res)
        calls, newton = self.count_batches(monkeypatch)
        (smp,) = observe_curve(MK, ff, cur2, [1.0], search_box())
        assert newton == [4]           # the four stencil inversions
        assert calls == [(5, 4)]       # sample and stencil Jacobians
        assert smp.v[0] == pytest.approx(0.1 / 1.1, abs=1e-9)
        assert np.max(np.abs(smp.dv_dtau)) <= 1e-8


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


def _rel(a, b):
    """Each row's largest deviation, relative to max(1, its largest entry)."""
    return np.max(np.abs(a - b), axis=1) / np.maximum(1.0, np.max(np.abs(b), axis=1))


def test_ray_chart_results_match_the_model_chart(faller):
    # the rays run in Eddington-Finkelstein coordinates; read back, they
    # agree with the same rays integrated in Schwarzschild coordinates
    chart, frames = faller
    assert chart.ray_chart is not None
    dirs = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [-0.6, 0.0, 0.8],
                     [-0.8, -0.6, 0.0], [0.36, -0.48, 0.8]])
    pts = np.array([(tau, *(r * d)) for tau in (-2.0, 1.0) for r in (2.0, 6.0, 12.5)
                    for d in dirs])
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

    def counted(coords):
        calls.append(1)
        return ef.christoffel_deriv_fn(coords)

    rays = dataclasses.replace(chart.ray_chart,
                               chart=dataclasses.replace(ef, christoffel_deriv_fn=counted))
    with pytest.raises(UnreachableDirectionError):
        observer_map_jacobian(dataclasses.replace(chart, ray_chart=rays), frames,
                              ObservedEvent(0.0, HOLE_POINT[0, 1:]))
    assert 0 < len(calls) <= 1000  # one per right-hand side (485 at REL_TOL)
