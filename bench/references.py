"""Reference computations for the benchmark's output checks.

Nothing here imports lightcone: every value the checks compare against is
computed from closed forms or from an integration written apart from the
program.

- The radial free-faller released from rest at r0 in exterior
  Schwarzschild follows the cycloid r = (r0/2)(1 + cos eta),
  sigma = sqrt(r0^3 / (4 R)) (eta + sin eta).
- Along a radial geodesic the Fermi-Walker frame is known in closed form:
  the angular legs are (1/r) d_theta and (1/(r sin theta)) d_phi, and the
  radial leg is (u^r/f, E, 0, 0).
- Null geodesics are integrated in their orbital plane with the conserved
  energy E and angular momentum L (t' = E/f, psi' = L/r^2,
  r'' = L^2/r^3 - 3 R L^2 / (2 r^4)), then rotated back to (theta, phi).
  The program integrates the full coordinate geodesic equation instead.
- An inertial mass in flat spacetime seen by the resting standard
  observer has x = y, tau' = gamma (1 + yhat.w/c) and v = w/(1 + yhat.w/c).

Coordinates follow the program's convention: (x0, r, theta, phi) with
x0 = c t, and proper time enters as sigma = c tau.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

# Same chart-exit margin as the program's terminal event: a ray counts as
# clipped once it comes within this share of R of the horizon.
HORIZON_MARGIN = 1e-6


class Faller:
    """Radial free fall from rest at r0 (reached at tau = 0) in Schwarzschild."""

    def __init__(self, r0, radius, c=1.0, theta=math.pi / 2, phi=0.0):
        if not r0 > radius > 0.0:
            raise ValueError("the faller must start outside the horizon")
        self.r0 = float(r0)
        self.R = float(radius)
        self.c = float(c)
        self.theta = float(theta)
        self.phi = float(phi)
        self.energy = math.sqrt(1.0 - self.R / self.r0)
        self._amp = math.sqrt(self.r0**3 / (4.0 * self.R))  # sigma = amp (eta + sin eta)
        self._s = math.sqrt(self.r0 / self.R - 1.0)

    def eta(self, tau):
        """Cycloid parameter of proper time tau (eta = 0 at the release point)."""
        sigma = self.c * float(tau)
        if sigma == 0.0:
            return 0.0
        # eta must stay short of the horizon crossing, where tan(eta/2) = s
        top = 2.0 * math.atan(self._s)
        return brentq(lambda e: self._amp * (e + math.sin(e)) - sigma,
                      -top, top, xtol=1e-15, rtol=1e-15, maxiter=200)

    def position(self, tau):
        eta = self.eta(tau)
        r = self.r0 * math.cos(0.5 * eta) ** 2
        half = math.tan(0.5 * eta)
        x0 = (self.R * math.log(abs((self._s + half) / (self._s - half)))
              + self.R * self._s * (eta + self.r0 / (2.0 * self.R) * (eta + math.sin(eta))))
        return np.array([x0, r, self.theta, self.phi])

    def velocity(self, tau):
        """dx/dtau, normalized to g(u, u) = c^2."""
        eta = self.eta(tau)
        r = self.r0 * math.cos(0.5 * eta) ** 2
        f = 1.0 - self.R / r
        # (dr/dsigma)^2 = R/r - R/r0 = (R/r) sin^2(eta/2), written without cancellation
        ur = -math.sin(0.5 * eta) * math.sqrt(self.R / r)
        return self.c * np.array([self.energy / f, ur, 0.0, 0.0])

    def frame(self, tau):
        """Fermi-Walker frame: columns (u/c, radial leg, theta leg, phi leg)."""
        pos = self.position(tau)
        u = self.velocity(tau) / self.c
        r, th = pos[1], pos[2]
        f = 1.0 - self.R / r
        m = np.zeros((4, 4))
        m[:, 0] = u
        m[:, 1] = [u[1] / f, self.energy, 0.0, 0.0]
        m[2, 2] = 1.0 / r
        m[3, 3] = 1.0 / (r * math.sin(th))
        return m

    def cone_vector(self, tau, x):
        """Past-lightlike initial vector -|x| X_0 + x^a X_a of the seen ray."""
        x = np.asarray(x, dtype=float)
        return self.frame(tau) @ np.concatenate([[-np.linalg.norm(x)], x])


def schwarzschild_metric(pos, radius):
    r, th = pos[1], pos[2]
    f = 1.0 - radius / r
    return np.diag([f, -1.0 / f, -(r**2), -(r**2) * math.sin(th) ** 2])


def _unit(theta, phi):
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


def null_ray(radius, start, k, s_end=1.0):
    """Integrate a Schwarzschild null geodesic in its orbital plane.

    start: (x0, r, theta, phi); k: its initial coordinate velocity.  Returns
    (reached, s_stop, endpoint) where reached is False when the ray comes
    within HORIZON_MARGIN * R of the horizon, or of the polar seam, before
    s_end; endpoint is then the point where it stopped.
    """
    start = np.asarray(start, dtype=float)
    k = np.asarray(k, dtype=float)
    r0, th0, ph0 = start[1], start[2], start[3]
    f0 = 1.0 - radius / r0
    energy = f0 * k[0]
    n1 = _unit(th0, ph0)
    e_th = np.array([math.cos(th0) * math.cos(ph0), math.cos(th0) * math.sin(ph0),
                     -math.sin(th0)])
    e_ph = np.array([-math.sin(ph0), math.cos(ph0), 0.0])
    tangent = k[2] * e_th + math.sin(th0) * k[3] * e_ph  # d(unit vector)/ds
    omega = float(np.linalg.norm(tangent))
    if omega > 0.0:
        n2 = tangent / omega
    else:  # purely radial ray: any in-plane partner will do
        n2 = e_th
    ang_mom = r0**2 * omega
    margin = HORIZON_MARGIN * max(1.0, radius)

    def direction(psi):
        return math.cos(psi) * n1 + math.sin(psi) * n2

    def rhs(s, y):
        _, r, rdot, _ = y
        f = 1.0 - radius / r
        return [energy / f, rdot,
                ang_mom**2 / r**3 - 1.5 * radius * ang_mom**2 / r**4,
                ang_mom / r**2]

    def horizon(s, y):
        return y[1] - radius - margin

    def seam(s, y):
        z = float(np.clip(direction(y[3])[2], -1.0, 1.0))
        th = math.acos(z)
        return min(th, math.pi - th) - margin

    for ev in (horizon, seam):
        ev.terminal = True
        ev.direction = -1

    sol = solve_ivp(rhs, (0.0, s_end), [start[0], r0, k[1], 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-13, events=(horizon, seam))
    if sol.status == -1:
        raise RuntimeError(f"reference null ray failed: {sol.message}")
    x0, r, _, psi = sol.y[:, -1]
    d = direction(psi)
    theta = math.acos(float(np.clip(d[2], -1.0, 1.0)))
    phi = math.atan2(d[1], d[0])
    return sol.status == 0, float(sol.t[-1]), np.array([x0, r, theta, phi])


def flat_tracking(q0, w, c, s):
    """Closed-form tracking of an inertial mass by the resting flat observer.

    q0: initial event (x0, y1, y2, y3); w: coordinate velocity; s: the
    mass's proper time.  Returns (tau, x, tau_dot, v) with x = y,
    tau = (y0 + |y|)/c, tau' = gamma (1 + yhat.w/c), v = w/(1 + yhat.w/c).
    """
    q0 = np.asarray(q0, dtype=float)
    w = np.asarray(w, dtype=float)
    gamma = 1.0 / math.sqrt(1.0 - float(w @ w) / c**2)
    y0 = q0[0] + gamma * c * s
    y = q0[1:] + gamma * w * s
    dist = float(np.linalg.norm(y))
    along = float(y @ w) / dist
    tau = (y0 + dist) / c
    tau_dot = gamma * (1.0 + along / c)
    v = w / (1.0 + along / c)
    return tau, y, tau_dot, v


def flat_limit_row(q0, w, c, s_values):
    """Closed-form limit_residuals.csv columns for one c.

    Returns (max_tau_dot_dev, tau_dot_series_residual, first_order_max),
    the quantities the second-order clock-rate series defines: the series
    is 1 + mu v/c + (mu^2 + 1/2) v^2/c^2 with mu the cosine between line
    of sight and relative velocity.
    """
    dev = series_res = first = 0.0
    for s in s_values:
        _, x, tau_dot, v = flat_tracking(q0, w, c, s)
        speed = float(np.linalg.norm(v))
        mu = float(x @ v) / (float(np.linalg.norm(x)) * speed)
        series = 1.0 + mu * speed / c + (mu**2 + 0.5) * speed**2 / c**2
        dev = max(dev, abs(tau_dot - 1.0))
        series_res = max(series_res, abs(tau_dot - series))
        first = max(first, abs(mu * speed) / c)
    return dev, series_res, first


def loglog_slope(c_values, residuals):
    """Least-squares slope of log(residual) against log(1/c)."""
    return float(np.polyfit(np.log(1.0 / np.asarray(c_values, dtype=float)),
                            np.log(np.asarray(residuals, dtype=float)), 1)[0])
