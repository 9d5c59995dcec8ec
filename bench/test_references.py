"""Checks of the benchmark's references against exact solutions.

Run with: python3 -m pytest bench
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import references

R = 1.0


def tortoise(r):
    return r + R * math.log(r / R - 1.0)


@pytest.mark.parametrize("direction", [-1.0, 1.0])
def test_radial_null_ray_follows_the_tortoise_coordinate(direction):
    r0 = 10.0
    f0 = 1.0 - R / r0
    k = np.array([1.0 / f0, direction, 0.0, 0.0])  # E = 1, so dr/ds = +-1
    reached, s, end = references.null_ray(R, [0.0, r0, math.pi / 2, 0.0], k, s_end=5.0)
    assert reached and s == 5.0
    assert end[1] == pytest.approx(r0 + 5.0 * direction, abs=1e-10)
    # dx0/dr = +-1/f, so x0 = +-(r* - r*(r0))
    assert end[0] == pytest.approx(direction * (tortoise(end[1]) - tortoise(r0)), abs=1e-9)
    assert end[2] == pytest.approx(math.pi / 2, abs=1e-12)


def test_ingoing_radial_ray_clips_at_the_horizon_margin():
    r0 = 10.0
    k = np.array([1.0 / (1.0 - R / r0), -1.0, 0.0, 0.0])
    reached, s, end = references.null_ray(R, [0.0, r0, math.pi / 2, 0.0], k, s_end=20.0)
    assert not reached
    assert end[1] == pytest.approx(R * (1.0 + references.HORIZON_MARGIN), rel=1e-12)
    assert s == pytest.approx(r0 - end[1], abs=1e-9)
    # x0 diverges logarithmically here; the tortoise law still holds
    assert end[0] == pytest.approx(tortoise(r0) - tortoise(end[1]), rel=1e-9)


@pytest.mark.parametrize("plane", ["equator", "meridian"])
def test_circular_photon_orbit_at_one_and_a_half_radii(plane):
    r = 1.5 * R
    f = 1.0 - R / r
    ang_mom = r / math.sqrt(f)  # E = 1: E^2 = f L^2 / r^2 keeps r' = 0
    rate = ang_mom / r**2
    k = np.array([1.0 / f, 0.0, 0.0, 0.0])
    k[3 if plane == "equator" else 2] = rate
    s_end = 1.0 / rate  # one radian around the orbit
    reached, _, end = references.null_ray(R, [0.0, r, math.pi / 2, 0.0], k, s_end=s_end)
    assert reached
    assert end[1] == pytest.approx(r, abs=1e-9)
    assert end[0] == pytest.approx(s_end / f, abs=1e-9)
    if plane == "equator":
        assert end[2] == pytest.approx(math.pi / 2, abs=1e-12)
        assert end[3] == pytest.approx(1.0, abs=1e-9)
    else:
        assert end[2] == pytest.approx(math.pi / 2 + 1.0, abs=1e-9)
        assert end[3] == pytest.approx(0.0, abs=1e-9)


def test_faller_follows_the_radial_geodesic():
    faller = references.Faller(10.0, R)

    def rhs(sigma, y):  # (x0, r, r'): r'' = -R / (2 r^2), x0' = E / f
        f = 1.0 - R / y[1]
        return [faller.energy / f, y[2], -R / (2.0 * y[1] ** 2)]

    for sigma_end in (-3.0, 3.0, 20.0):
        sol = solve_ivp(rhs, (0.0, sigma_end), [0.0, 10.0, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-13, dense_output=True)
        for sigma in np.linspace(0.0, sigma_end, 5):
            pos = faller.position(sigma)
            x0, r, rdot = sol.sol(sigma)
            assert pos[0] == pytest.approx(x0, abs=1e-9)
            assert pos[1] == pytest.approx(r, abs=1e-9)
            assert faller.velocity(sigma)[1] == pytest.approx(rdot, abs=1e-9)


def christoffels(pos, h=1e-5):
    """Levi-Civita coefficients by central differences of the metric."""
    g = references.schwarzschild_metric(pos, R)
    dg = np.empty((4, 4, 4))  # dg[l, i, j] = d g_li / d x^j
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        dg[:, :, j] = (references.schwarzschild_metric(pos + step, R)
                       - references.schwarzschild_metric(pos - step, R)) / (2.0 * h)
    term = dg + np.einsum("lji->lij", dg) - np.einsum("ijl->lij", dg)
    return 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(g), term)


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_faller_frame_is_orthonormal_and_transported(c):
    faller = references.Faller(10.0, R, c=c)
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    h = 1e-5
    for tau in (-2.5, -0.7, 0.0, 1.3, 2.9):
        pos = faller.position(tau)
        u = faller.velocity(tau)
        g = references.schwarzschild_metric(pos, R)
        m = faller.frame(tau)
        assert u @ g @ u == pytest.approx(c**2, rel=1e-12)
        assert np.allclose(m.T @ g @ m, eta, atol=1e-12)
        # geodesic observer: Fermi-Walker transport is parallel transport
        dm = (faller.frame(tau + h) - faller.frame(tau - h)) / (2.0 * h)
        transport = dm + np.einsum("kij,i,jm->km", christoffels(pos), u, m)
        assert np.max(np.abs(transport)) < 1e-7


def test_cone_vector_is_past_lightlike():
    faller = references.Faller(10.0, R)
    k = faller.cone_vector(1.1, [0.3, -1.2, 0.7])
    g = references.schwarzschild_metric(faller.position(1.1), R)
    assert k @ g @ k == pytest.approx(0.0, abs=1e-12)
    assert k[0] < 0.0


def test_flat_tracking_is_what_the_observer_sees():
    q0 = np.array([0.3, 2.0, 1.0, -0.4])
    w = np.array([0.06, 0.08, 0.01])
    c, h = 2.0, 1e-5
    for s in (0.0, 0.7, 2.0):
        tau, x, tau_dot, v = references.flat_tracking(q0, w, c, s)
        gamma = 1.0 / math.sqrt(1.0 - w @ w / c**2)
        y = q0 + gamma * np.concatenate([[c], w]) * s
        assert np.allclose(x, y[1:], atol=1e-15)
        assert c * tau - y[0] == pytest.approx(np.linalg.norm(y[1:]), abs=1e-14)
        tau_p, x_p, _, _ = references.flat_tracking(q0, w, c, s + h)
        tau_m, x_m, _, _ = references.flat_tracking(q0, w, c, s - h)
        assert tau_dot == pytest.approx((tau_p - tau_m) / (2.0 * h), abs=1e-9)
        assert np.allclose(v, (x_p - x_m) / (tau_p - tau_m), atol=1e-9)


def test_flat_series_residual_is_third_order():
    q0 = np.array([0.0, 2.0, 1.0, 0.0])
    w = np.array([0.06, 0.08, 0.0])
    cs = [8.0, 16.0, 32.0, 64.0]
    res = [references.flat_limit_row(q0, w, c, [0.0, 1.0, 2.0])[1] for c in cs]
    assert references.loglog_slope(cs, res) == pytest.approx(3.0, abs=0.02)
