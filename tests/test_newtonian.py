"""Clock-rate and force series in 1/c, and Newtonian-limit measurements."""

import math

import numpy as np
import pytest

from lightcone.charts import minkowski
from lightcone.errors import InvalidInputError, NewtonianLimitObstruction
from lightcone.lorentz import Event
from lightcone.newtonian import (
    Series2,
    limit_case_pseudo_forces,
    newtonian_limit_report,
    sr_force_correction,
    sr_tau_dot_series,
)
from lightcone.observers import make_inertial_observer, standard_inertial_frame
from lightcone.splitting import (
    MultistartConfig,
    observe_curve,
    relative_force,
)


def tau_dot(alpha, v, c):
    """The closed-form clock rate 1/sqrt(alpha_00 + 2 alpha_0a v^a/c + alpha_ab v^a v^b/c^2)."""
    return 1.0 / math.sqrt(alpha[0, 0] + 2.0 * float(alpha[0, 1:] @ v) / c
                           + float(v @ alpha[1:, 1:] @ v) / c**2)


def sr_alpha(xhat):
    al = np.empty((4, 4))
    al[0, 0] = 1.0
    al[0, 1:] = al[1:, 0] = -np.asarray(xhat)
    al[1:, 1:] = np.outer(xhat, xhat) - np.eye(3)
    return al


class TestClockRateSeries:
    def test_at_rest(self):
        assert sr_tau_dot_series(0.0, 0.0) == Series2(1, 0, 0)

    def test_receding_radial_coefficients(self):
        s = sr_tau_dot_series(1.0, 0.2)
        assert s.a1 == pytest.approx(0.2)
        assert s.a2 == pytest.approx(1.5 * 0.04)

    def test_jet_fighter_bound(self):
        v = 7000.0 / 3600.0  # km/h -> km/s
        c = 3.0e5
        worst = max(abs(sr_tau_dot_series(mu, v).a1) / c for mu in (-1.0, 1.0))
        assert worst <= 6.5e-6

    def test_against_exact_clock_rate(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            mu = rng.uniform(-1.0, 1.0)
            ratio = rng.uniform(1e-3, 0.1)
            xhat = np.array([1.0, 0, 0])
            e2 = np.array([0.0, 1.0, 0.0])
            v_vec = ratio * (mu * xhat + math.sqrt(max(0.0, 1 - mu**2)) * e2)
            exact = tau_dot(sr_alpha(xhat), v_vec, 1.0)
            approx = sr_tau_dot_series(mu, ratio)(1.0)
            assert abs(exact - approx) <= 3.0 * ratio**3

    def test_direction_cosine_outside_rejected(self):
        for mu in (-1.01, 1.01):
            with pytest.raises(InvalidInputError):
                sr_tau_dot_series(mu, 0.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_coefficient_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            Series2(1.0, bad, 0.0)


class TestForceCorrectionSeries:
    def test_at_rest_reduces_to_sight_acceleration(self):
        xhat = np.array([1.0, 0, 0])
        acc = np.array([0.3, -0.1, 0.2])
        tdd, inv_td2 = sr_force_correction(xhat, np.zeros(3), acc, 2.0)
        assert tdd.a0 == 0.0
        assert tdd.a1 == pytest.approx(float(xhat @ acc))
        assert tdd.a2 == pytest.approx(0.0)
        assert inv_td2 == Series2(1.0, 0.0, 0.0)

    def test_radial_motion_drops_sweep_term(self):
        xhat = np.array([0.0, 1.0, 0.0])
        v = 0.2 * xhat
        acc = np.array([0.0, 0.05, 0.0])
        tdd, _ = sr_force_correction(xhat, v, acc, 3.0)
        assert tdd.a1 == pytest.approx(0.05)  # no v^2/|x| sweep contribution

    def test_inverse_square_clock_rate(self):
        xhat = np.array([1.0, 0, 0])
        v_vec = np.array([0.1, 0.05, 0.0])
        _, inv_td2 = sr_force_correction(xhat, v_vec, np.zeros(3), 1.0)
        v = np.linalg.norm(v_vec)
        mu = float(xhat @ v_vec) / v
        assert inv_td2.a1 == pytest.approx(-2 * mu * v)
        assert inv_td2.a2 == pytest.approx((mu**2 - 1) * v**2)

    def test_matches_observed_kinematics(self):
        # oracle: measure tau''/tau'^2 from tracked motion at small v/c
        mk = minkowski(1.0)
        cur = make_inertial_observer(mk, Event("minkowski", np.zeros(4)), [1, 0, 0, 0],
                                     interval=(-60, 60))
        ff = standard_inertial_frame(cur)
        w = np.array([1e-3, 2e-3, 0.0])
        cur2 = make_inertial_observer(mk, Event("minkowski", np.array([0.0, 3, 1, 0])),
                                      np.concatenate([[1.0], w]), interval=(-60, 60))
        cfg = MultistartConfig(tau_range=(-20, 20), x_halfwidth=5.0,
                               x_center=(3, 1, 0), n_tau=5, n_x=5, top_k=8)
        samples = observe_curve(mk, ff, cur2, np.linspace(0, 2, 3), cfg)
        smp = samples[1]
        xn = np.linalg.norm(smp.x)
        tdd, _ = sr_force_correction(smp.x / xn, smp.v, smp.dv_dtau, xn)
        measured = smp.tau_ddot / smp.tau_dot**2
        vc = np.linalg.norm(smp.v)
        assert abs(measured - tdd(1.0)) <= 50.0 * vc**3 + 1e-10


class TestLimitCasePseudoForces:
    def test_static_field_at_rest(self):
        field = lambda tau, x: sr_alpha(np.asarray(x) / np.linalg.norm(x))
        out = limit_case_pseudo_forces(field, 0.0, np.array([2.0, 0, 0]), np.zeros(3))
        assert np.allclose(out, 0.0)

    def test_sr_inertial_leading_force(self):
        # cross-module oracle: the zeroth-order force of the flat inertial
        # field vanishes (the l=0 and spatial contributions cancel), and the
        # measured relative force from the full pipeline is O(1/c), so the
        # two agree in the limit
        field = lambda tau, x: sr_alpha(np.asarray(x) / np.linalg.norm(x))
        x = np.array([3.0, 1.0, 0.0])
        v = np.array([0.01, 0.03, 0.0])
        out = limit_case_pseudo_forces(field, 0.0, x, v)
        assert np.max(np.abs(out)) <= 1e-9

        c = 100.0
        mk = minkowski(c)
        cur = make_inertial_observer(mk, Event("minkowski", np.zeros(4)),
                                     np.array([c, 0, 0, 0]), interval=(-60, 60))
        ff = standard_inertial_frame(cur)
        cur2 = make_inertial_observer(mk, Event("minkowski", np.array([0.0, *x])),
                                      np.array([c, *v]), interval=(-60, 60))
        cfg = MultistartConfig(tau_range=(-30, 30), x_halfwidth=3.0,
                               x_center=tuple(x), n_tau=5, n_x=5, top_k=8)
        samples = observe_curve(mk, ff, cur2, np.linspace(0, 1, 3), cfg)
        fb = relative_force(1.0, mk, ff, samples[1], np.zeros(3))
        sight_scale = float(v @ v) / np.linalg.norm(x) * np.linalg.norm(v)
        assert np.linalg.norm(fb.total - out) <= 10.0 * sight_scale / c

    def test_curl_violation_reported(self):
        def field(tau, x):
            al = np.diag([1.0, -1.0, -1.0, -1.0])
            al[0, 1] = al[1, 0] = 0.2 * x[1]  # curl of the mixed row != 0
            return al

        with pytest.raises(NewtonianLimitObstruction):
            limit_case_pseudo_forces(field, 0.0, np.array([1.0, 1.0, 0.0]),
                                     np.array([0.1, 0, 0]))


class TestLimitReport:
    def _scenario(self, c):
        mk = minkowski(c)
        cur = make_inertial_observer(mk, Event("minkowski", np.zeros(4)),
                                     np.array([c, 0, 0, 0]), interval=(-60, 60))
        ff = standard_inertial_frame(cur)
        w = np.array([0.06, 0.08, 0.0])  # fixed coordinate velocity, c sweeps
        cur2 = make_inertial_observer(mk, Event("minkowski", np.array([0.0, 2, 1, 0])),
                                      np.concatenate([[c], w]), interval=(-60, 60))
        cfg = MultistartConfig(tau_range=(-30, 30), x_halfwidth=4.0,
                               x_center=(2, 1, 0), n_tau=5, n_x=5, top_k=8)
        samples = observe_curve(mk, ff, cur2, np.linspace(0.0, 2.0, 3), cfg)
        return samples, [relative_force(1.0, mk, ff, smp, np.zeros(3))
                         for smp in samples]

    def test_sr_inertial_cubic_scaling(self):
        report = newtonian_limit_report(self._scenario, [1.0, 2.0, 4.0, 8.0])
        assert not report.below_noise
        assert 2.5 <= report.tau_dot_slope <= 3.5
        # residual drops by ~8 per doubling of c
        res = [row.tau_dot_series_residual for row in report.rows]
        for lo, hi in zip(res[1:], res[:-1]):
            assert hi / lo == pytest.approx(8.0, rel=0.3)
        assert report.newton_law_residual <= 1e-6

    def test_comoving_residuals_vanish(self):
        def scenario(c):
            mk = minkowski(c)
            cur = make_inertial_observer(mk, Event("minkowski", np.zeros(4)),
                                         np.array([c, 0, 0, 0]), interval=(-40, 40))
            ff = standard_inertial_frame(cur)
            from lightcone.splitting import comoving_worldline

            wl = comoving_worldline(mk, ff, np.array([1.0, 2.0, 0.0]))
            cfg = MultistartConfig(tau_range=(-20, 20), x_halfwidth=4.0,
                                   x_center=(1, 2, 0), n_tau=5, n_x=5, top_k=8)
            samples = observe_curve(mk, ff, wl, np.linspace(0, 1, 3), cfg)
            return samples, [None] * len(samples)

        report = newtonian_limit_report(scenario, [1.0, 2.0])
        for row in report.rows:
            assert row.max_tau_dot_dev <= 1e-10
            assert row.tau_dot_series_residual <= 1e-10
