"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line (visible with -s or in captured output on
success via the terminal summary); a failing criterion fails its test.
Criteria involving the accelerated/rotating and curved-space Newtonian
limits run exploratorily with no gate, matching their open status.
"""

import math
import sys

import numpy as np
import pytest

from lightcone.charts import _fd_christoffels, metric_at, minkowski, riemann_ricci_at, schwarzschild
from lightcone.geodesics import GeodesicIVP, integrate_geodesic, integrate_jacobi
from lightcone.lorentz import ETA, Event, gram_matrix
from lightcone.newtonian import newtonian_limit_report, sr_tau_dot_series
from lightcone.observers import (
    fermi_walker_transport,
    make_inertial_observer,
    make_uniformly_accelerated_observer,
    rotating_frame,
    standard_inertial_frame,
)
from lightcone.splitting import (
    MultistartConfig,
    ObservedEvent,
    _eval_batch,
    comoving_worldline,
    cone_vector,
    invert_many,
    observe_curve,
    observer_map_jacobian,
    relative_force,
)

MK = minkowski()
SW = schwarzschild(1.0)


def report(n, message):
    line = f"criterion {n}: {message}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # visible through pytest capture too
        print(line, file=sys.__stdout__)


@pytest.fixture(scope="module")
def sr_frames():
    cur = make_inertial_observer(MK, Event("minkowski", np.zeros(4)), [1, 0, 0, 0],
                                 interval=(-80, 80))
    return cur, standard_inertial_frame(cur)


@pytest.fixture(scope="module")
def faller_frames():
    f = 1.0 - 1.0 / 10.0
    q0 = Event("schwarzschild", np.array([0.0, 10.0, np.pi / 2, 0.0]))
    cur = make_inertial_observer(SW, q0, [1.0 / math.sqrt(f), 0, 0, 0], interval=(-3, 3))
    ff = fermi_walker_transport(cur, SW.reference_frame(q0.coords), (-3, 3))
    return cur, ff


def test_criterion_1_sr_splitting_closed_form(sr_frames):
    """Kinematic map and inverse against the flat-space closed form."""
    _, ff = sr_frames
    taus = np.linspace(-4.5, 4.5, 10)
    xs = np.linspace(-4.0, 4.0, 10)
    zs = np.array([1.0, 2.0, 3.0])
    pts = [(t, np.array([a, b, c])) for t in taus for a in xs for b in xs for c in zs]
    assert len(pts) == 10 * 10 * 10 * 3

    events, _ = _eval_batch(MK, ff, np.array([[t, *x] for t, x in pts]), False)
    closed = np.array([[t - np.linalg.norm(x), *x] for t, x in pts])
    fwd_dev = float(np.max(np.abs(events - closed)))
    assert fwd_dev <= 1e-9

    cfg = MultistartConfig(tau_range=(-12, 12), x_halfwidth=5.0,
                           n_tau=5, n_x=5, top_k=4)
    results = invert_many(MK, ff, events, cfg)
    inv_dev = 0.0
    for (t, x), res in zip(pts, results):
        assert len(res) >= 1
        best = min(np.max(np.abs(np.array([p.tau, *p.x]) - np.array([t, *x])))
                   for p in res.preimages)
        inv_dev = max(inv_dev, best)
    assert inv_dev <= 1e-9
    report(1, f"PASS - forward dev {fwd_dev:.2e}, inverse dev {inv_dev:.2e} "
              f"over {len(pts)} grid points (tol 1e-9)")


def test_criterion_2_accelerated_rotating_pipeline():
    """Numerical FW transport + rotation against the closed-form map."""
    cur = make_uniformly_accelerated_observer(1.0, 1.0, interval=(-3, 3))
    base = fermi_walker_transport(cur, np.eye(4), (-2.5, 2.5))
    ff = rotating_frame(base, 1.0, 1)

    taus = np.linspace(-2.0, 2.0, 200)
    offsets = [np.array(x) for x in
               ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.3, -0.7, 1.1],
                [0.0, 0.0, 0.8], [-0.5, 0.4, -0.3])]
    pts = [(t, offsets[i % len(offsets)]) for i, t in enumerate(taus)]
    events, _ = _eval_batch(MK, ff, np.array([[t, *x] for t, x in pts]), False)

    worst = 0.0
    for (tau, x), got in zip(pts, events):
        r = np.linalg.norm(x)
        ch, sh = math.cosh(tau), math.sinh(tau)
        cs, sn = math.cos(tau), math.sin(tau)
        want = np.array([
            sh - r * ch + x[0] * sh,
            ch - 1.0 - r * sh + x[0] * ch,
            x[1] * cs - x[2] * sn,
            x[1] * sn + x[2] * cs,
        ])
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-7
    report(2, f"PASS - map deviation {worst:.2e} over 200 samples, tau in [-2,2] (tol 1e-7)")


def test_criterion_3_clock_rate_exact_and_series(sr_frames):
    """Measured clock rate against closed form and second-order series."""
    _, ff = sr_frames
    cfg = MultistartConfig(tau_range=(-40, 40), x_halfwidth=6.0, x_center=(4, 0, 0),
                           n_tau=5, n_x=5, top_k=8)
    scenarios = [
        ("receding radial", np.array([0.0, 4, 0, 0]), np.array([0.0989, 0, 0]), True),
        ("approaching radial", np.array([0.0, 4, 0, 0]), np.array([-0.0833, 0, 0]), True),
        ("transverse", np.array([0.0, 5, 0, 0]), np.array([0.0, 0.08, 0]), True),
        ("fast approach", np.array([0.0, 6, 0, 0]), np.array([-1.0 / 3.0, 0, 0]), False),
    ]
    exact_dev = 0.0
    series_ok = True
    for name, q0, w, check_series in scenarios:
        cur2 = make_inertial_observer(MK, Event("minkowski", q0),
                                      np.concatenate([[1.0], w]), interval=(-80, 80))
        samples = observe_curve(MK, ff, cur2, np.linspace(0, 2, 5), cfg)
        assert len(samples) == 5
        for smp in samples:
            v = float(np.linalg.norm(smp.v))
            mu = float(smp.x @ smp.v) / (np.linalg.norm(smp.x) * v)
            closed = 1.0 / math.sqrt(1.0 - 2.0 * mu * v + (mu**2 - 1.0) * v**2)
            exact_dev = max(exact_dev, abs(smp.tau_dot - closed))
            if check_series:
                assert v <= 0.1
                resid = abs(smp.tau_dot - sr_tau_dot_series(mu, v)(1.0))
                series_ok = series_ok and resid <= 3.0 * v**3
    assert exact_dev <= 1e-8
    assert series_ok
    report(3, f"PASS - closed-form deviation {exact_dev:.2e} (tol 1e-8); "
              f"series residual within 3 (v/c)^3 for v/c <= 0.1")


def test_criterion_4_jet_fighter_bound():
    """First-order clock correction for a 7000 km/h aircraft, c = 3e5 km/s."""
    v = 7000.0 / 3600.0  # km/s
    c = 3.0e5
    worst = max(abs(sr_tau_dot_series(mu, v).a1) / c
                for mu in np.linspace(-1.0, 1.0, 21))
    assert worst <= 6.5e-6
    report(4, f"PASS - first-order clock-rate correction {worst:.3e} <= 6.5e-6")


def _limit_scenario(c):
    mk = minkowski(c)
    cur = make_inertial_observer(mk, Event("minkowski", np.zeros(4)),
                                 np.array([c, 0, 0, 0]), interval=(-60, 60))
    ff = standard_inertial_frame(cur)
    w = np.array([0.06, 0.08, 0.0])
    cur2 = make_inertial_observer(mk, Event("minkowski", np.array([0.0, 2, 1, 0])),
                                  np.concatenate([[c], w]), interval=(-60, 60))
    cfg = MultistartConfig(tau_range=(-30, 30), x_halfwidth=4.0, x_center=(2, 1, 0),
                           n_tau=5, n_x=5, top_k=8)
    samples = observe_curve(mk, ff, cur2, np.linspace(0.0, 2.0, 3), cfg)
    return samples, [relative_force(1.0, mk, ff, smp, np.zeros(3)) for smp in samples]


def test_criterion_5_newtonian_limit_sr():
    """Force-free motion reduces to Newton's law with cubic residual decay."""
    rep = newtonian_limit_report(_limit_scenario, [1.0, 2.0, 4.0, 8.0])
    assert rep.newton_law_residual <= 1e-6
    pseudo = [row.max_pseudo_force for row in rep.rows]
    assert all(hi > lo for hi, lo in zip(pseudo[:-1], pseudo[1:]))
    assert 2.5 <= rep.tau_dot_slope <= 3.5
    assert 2.5 <= rep.force_slope <= 3.5
    report(5, f"PASS - Newton-law residual {rep.newton_law_residual:.2e} (tol 1e-6); "
              f"pseudo-force decreasing; residual-scaling exponents "
              f"{rep.tau_dot_slope:.2f}/{rep.force_slope:.2f} in [2.5, 3.5]")


def _conservation_stats(chart, frames, rays, jacobi_seed=0):
    cur = frames.curve
    norm_drift = 0.0
    gram_drift = 0.0
    affinity = 0.0
    rng = np.random.default_rng(jacobi_seed)
    lo, hi = cur.interval
    for tau in np.linspace(lo + 0.1, hi - 0.1, 5):
        g = metric_at(chart, cur.position(tau))
        gram_drift = max(gram_drift, float(np.max(np.abs(
            gram_matrix(g, frames.matrix(tau)) - ETA))))
    for tau, x in rays:
        k = cone_vector(frames, tau, x)
        q = Event(chart.name, cur.position(tau))
        sol = integrate_geodesic(chart, GeodesicIVP(q, k), 1.0)
        g0 = metric_at(chart, sol.position(0.0))
        n0 = float(sol.velocity(0.0) @ g0 @ sol.velocity(0.0))
        for s in np.linspace(0, sol.s1, 9):
            gs = metric_at(chart, sol.position(s))
            ns = float(sol.velocity(s) @ gs @ sol.velocity(s))
            norm_drift = max(norm_drift, abs(ns - n0) / (1.0 + abs(n0)))
        j0, dj0 = rng.normal(size=4), rng.normal(size=4)
        jac = integrate_jacobi(chart, sol, j0, dj0)
        slope, offset = float(dj0 @ g0 @ k), float(j0 @ g0 @ k)
        for s in np.linspace(0, sol.s1, 9):
            gs = metric_at(chart, sol.position(s))
            pairing = float(jac.value(s) @ gs @ sol.velocity(s))
            affinity = max(affinity, abs(pairing - (slope * s + offset)))
    return norm_drift, gram_drift, affinity


def test_criterion_6_conservation_suite(faller_frames):
    """Norm, Gram and Jacobi-pairing conservation on both presets."""
    acc = make_uniformly_accelerated_observer(1.0, 1.0, interval=(-6, 6))
    mk_frames = fermi_walker_transport(acc, np.eye(4), (-6, 6))
    rays = [(0.0, np.array([1.5, 0.5, 0.2])), (2.0, np.array([-0.5, 1.0, 0.8])),
            (-1.5, np.array([0.3, -0.8, 1.2]))]
    nd_mk, gd_mk, af_mk = _conservation_stats(MK, mk_frames, rays)

    _, sw_frames = faller_frames
    rays_sw = [(0.0, np.array([1.0, 0.5, 0.2])), (1.0, np.array([-0.8, 0.6, 0.3])),
               (-0.5, np.array([0.2, -0.6, 0.9]))]
    nd_sw, gd_sw, af_sw = _conservation_stats(SW, sw_frames, rays_sw, jacobi_seed=1)

    nd, gd, af = max(nd_mk, nd_sw), max(gd_mk, gd_sw), max(af_mk, af_sw)
    assert nd <= 1e-9
    assert gd <= 1e-8
    assert af <= 1e-7
    report(6, f"PASS - norm drift {nd:.2e} (tol 1e-9), frame Gram drift {gd:.2e} "
              f"(tol 1e-8), Jacobi affinity {af:.2e} (tol 1e-7), both presets")


def _jacobian_oracle(chart, frames, rng, n_points, tau_span, x_span):
    worst = 0.0
    for _ in range(n_points):
        tau = rng.uniform(*tau_span)
        x = rng.uniform(-x_span, x_span, size=3)
        if np.linalg.norm(x) < 0.3 * x_span:
            x[0] += 0.5 * x_span
        p = ObservedEvent(tau, x)
        jac = observer_map_jacobian(chart, frames, p)
        h = 1e-6
        base = np.array([tau * frames.curve.c, *x])
        cols = []
        for i in range(4):
            dd = np.zeros(4)
            dd[i] = h
            pp = [( (base + dd)[0] / frames.curve.c, (base + dd)[1:]),
                  ( (base - dd)[0] / frames.curve.c, (base - dd)[1:])]
            ev, _ = _eval_batch(chart, frames, np.array([[t, *x] for t, x in pp]), False)
            cols.append((ev[0] - ev[1]) / (2 * h))
        fd = np.stack(cols, axis=1)
        worst = max(worst, float(np.max(np.abs(jac - fd)) / max(1.0, np.max(np.abs(jac)))))
    return worst


def test_criterion_7_jacobian_oracle(sr_frames, faller_frames):
    """Jacobi-field differential against central finite differences."""
    _, mk_ff = sr_frames
    _, sw_ff = faller_frames
    rng = np.random.default_rng(42)
    dev_mk = _jacobian_oracle(MK, mk_ff, rng, 50, (-3, 3), 2.5)
    dev_sw = _jacobian_oracle(SW, sw_ff, rng, 50, (-1, 1), 1.2)
    worst = max(dev_mk, dev_sw)
    assert worst <= 1e-5
    report(7, f"PASS - Jacobian vs finite differences rel. dev {worst:.2e} "
              f"at 50 random points per preset (tol 1e-5)")


def test_criterion_8_schwarzschild_curvature():
    """Ricci flatness and connection cross-check on the exterior chart."""
    ricci = 0.0
    gam_dev = 0.0
    pts = [(r, th) for r in np.linspace(1.5, 12.0, 5)
           for th in np.linspace(0.3, np.pi - 0.3, 4)]
    assert len(pts) == 20
    for r, th in pts:
        coords = np.array([0.0, r, th, 0.4])
        ricci = max(ricci, float(np.max(np.abs(riemann_ricci_at(SW, coords).ricci))))
        gam_dev = max(gam_dev, float(np.max(np.abs(
            _fd_christoffels(SW, coords) - SW.christoffels(coords)))))
    assert ricci <= 1e-5
    assert gam_dev <= 1e-6
    report(8, f"PASS - max |Ricci| {ricci:.2e} at 20 interior points (tol 1e-5); "
              f"Christoffel fd-vs-analytic {gam_dev:.2e} (tol 1e-6)")


def test_criterion_9_rotating_causal_bound(sr_frames):
    """Sign flip of the comoving tangent norm at omega * rho = c, by bisection."""
    _, base = sr_frames
    ff = rotating_frame(base, 1.0, 1)

    def tangent_norm(rho):
        p = ObservedEvent(0.3, np.array([0.0, rho, 0.0]))
        jac = observer_map_jacobian(MK, ff, p)
        lam = MK.c * jac[:, 0]  # push-forward of d/dtau
        return float(lam @ ETA @ lam)

    lo, hi = 0.5, 1.5
    flo = tangent_norm(lo)
    assert flo > 0.0 and tangent_norm(hi) < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = tangent_norm(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if flo * fm > 0.0:
            lo, flo = mid, fm
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 1.0) <= 1e-6  # c / omega = 1
    report(9, f"PASS - causal flip located at rho = {root:.9f}, "
              f"|rho - c/omega| = {abs(root - 1.0):.2e} (tol 1e-6)")


def test_criterion_10_open_cases_run_exploratorily():
    """Accelerated/rotating and curved-space limits: run, report, no gate."""
    # accelerated observer with rotating frame, comoving observed point
    cur = make_uniformly_accelerated_observer(1.0, 1.0, interval=(-4, 4))
    ff = rotating_frame(fermi_walker_transport(cur, np.eye(4), (-3.5, 3.5)), 0.5, 1)
    cfg = MultistartConfig(tau_range=(-3, 3), x_halfwidth=1.5, n_tau=5, n_x=5, top_k=8)
    wl = comoving_worldline(MK, ff, np.array([0.0, 0.3, 0.0]))
    samples = observe_curve(MK, ff, wl, np.linspace(0.0, 0.6, 3), cfg)
    accel_dev = max(abs(s.tau_dot - 1.0) for s in samples)

    # free-faller in Schwarzschild observing a nearby free-faller
    f = 1.0 - 1.0 / 10.0
    q0 = Event("schwarzschild", np.array([0.0, 10.0, np.pi / 2, 0.0]))
    cur_sw = make_inertial_observer(SW, q0, [1.0 / math.sqrt(f), 0, 0, 0],
                                    interval=(-3, 3))
    ff_sw = fermi_walker_transport(cur_sw, SW.reference_frame(q0.coords), (-3, 3))
    f2 = 1.0 - 1.0 / 11.0
    q2 = Event("schwarzschild", np.array([0.0, 11.0, np.pi / 2, 0.0]))
    cur2 = make_inertial_observer(SW, q2, [1.0 / math.sqrt(f2), 0, 0, 0.005],
                                  interval=(-4, 4))
    cfg_sw = MultistartConfig(tau_range=(-2.5, 2.5), x_halfwidth=1.6,
                              x_center=(1.0, 0.0, 0.0), n_tau=7, n_x=7, top_k=12)
    samples_sw = observe_curve(SW, ff_sw, cur2, np.linspace(-0.4, 0.4, 3), cfg_sw)
    assert len(samples_sw) >= 1  # machinery runs; values carry no gate
    sw_dev = max(abs(s.tau_dot - 1.0) for s in samples_sw)
    report(10, "RUN (no gate) - accelerated+rotating max|tau_dot - 1| = "
               f"{accel_dev:.3e}; Schwarzschild observed free-faller "
               f"max|tau_dot - 1| = {sw_dev:.3e}; open cases, no assertions")
