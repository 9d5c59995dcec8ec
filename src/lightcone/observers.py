"""Observer worldlines and moving frames of reference.

An ObserverCurve is a proper-time parametrized, future-directed timelike
worldline with g(gamma', gamma') = c^2.  A FrameField attaches an
orthonormal, right-handed frame to every instant, with the zeroth column
pinned to gamma'/c.  Frames propagate by Fermi-Walker transport (the
non-rotating law); rotating variants post-multiply the spatial columns by
a time-dependent rotation.

Analytic curves carry exact tangents and accelerations; numerically
integrated ones interpolate the solver's dense output, computed at
geodesics.REL_TOL and geodesics.ABS_TOL.  The two kinds are never mixed
inside one FrameField.

Curves and frame fields are evaluated over arrays of tau: a scalar tau
gives (4,) or (4, 4), a 1-D array of n values gives (n, 4) or (n, 4, 4).
A scalar is run as an array of one, so row i of an array result has the
bits of the scalar call at tau[i].
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .charts import Chart, metric_at, minkowski
from .errors import CausalDomainError, IntegrationError, InvalidInputError, OutOfChartError
from .lorentz import (ETA, Event, Frame4, causal_character, CausalCharacter, gram_matrix,
                      projectors)
from .geodesics import REL_TOL, ABS_TOL, DenseSolution, GeodesicIVP, integrate_geodesic


def _over_taus(fn, tau, interval, what):
    """fn on a 1-D array of tau, after a range check; a scalar is an array of one."""
    taus = np.asarray(tau, dtype=float)
    scalar = taus.ndim == 0
    if scalar:
        taus = taus.reshape(1)
    elif taus.ndim != 1:
        raise InvalidInputError(f"tau must be a scalar or a 1-D array, not shape {taus.shape}")
    lo, hi = interval
    if len(taus) and not (lo - 1e-12 <= taus.min() and taus.max() <= hi + 1e-12):
        bad = taus[~((taus >= lo - 1e-12) & (taus <= hi + 1e-12))][0]
        raise InvalidInputError(f"tau={bad} outside {what} [{lo}, {hi}]")
    rows = fn(taus)
    return rows[0] if scalar else rows


@dataclass(frozen=True)
class ObserverCurve:
    """Worldline parametrized by proper time on a fixed chart.

    position, velocity and acceleration take a scalar tau, giving (4,),
    or a 1-D array of n values, giving (n, 4); any tau outside interval
    raises InvalidInputError.  The *_fn evaluators map an (n,) array of
    tau to (n, 4) rows.
    """

    chart: Chart
    interval: tuple
    position_fn: Callable[[np.ndarray], np.ndarray]
    velocity_fn: Callable[[np.ndarray], np.ndarray]       # gamma' components
    acceleration_fn: Callable[[np.ndarray], np.ndarray]   # covariant acceleration
    kind: str = "generic"

    @property
    def c(self):
        return self.chart.c

    def position(self, tau):
        return _over_taus(self.position_fn, tau, self.interval, "observer interval")

    def velocity(self, tau):
        return _over_taus(self.velocity_fn, tau, self.interval, "observer interval")

    def acceleration(self, tau):
        """Covariant acceleration (the proper acceleration vector)."""
        return _over_taus(self.acceleration_fn, tau, self.interval, "observer interval")

    def event(self, tau) -> Event:
        return Event(self.chart.name, self.position(tau))


@dataclass(frozen=True)
class FrameField:
    """Frame of reference field along an observer.

    matrix(tau) returns the 4x4 component matrix whose columns are the
    frame vectors; column 0 equals gamma'(tau)/c.  cov_deriv(tau) returns
    the covariant derivatives of the columns, which the splitting layer
    needs for the temporal column of the observer-map differential.
    Both take a scalar tau, giving (4, 4), or a 1-D array of n values,
    giving (n, 4, 4); any tau outside interval raises InvalidInputError.
    The *_fn evaluators map an (n,) array of tau to (n, 4, 4).
    tau_range may be narrower than the curve's interval when the frame
    was transported over a sub-range.
    """

    curve: ObserverCurve
    matrix_fn: Callable[[np.ndarray], np.ndarray]
    cov_deriv_fn: Callable[[np.ndarray], np.ndarray]
    kind: str = "fermi-walker"
    tau_range: tuple = None

    @property
    def interval(self):
        return self.curve.interval if self.tau_range is None else self.tau_range

    def matrix(self, tau):
        return _over_taus(self.matrix_fn, tau, self.interval, "frame interval")

    def cov_deriv(self, tau):
        return _over_taus(self.cov_deriv_fn, tau, self.interval, "frame interval")

    def frame(self, tau) -> Frame4:
        return Frame4(self.curve.event(tau), self.matrix(tau))


def normalize_observer_velocity(chart: Chart, coords, u0):
    """Scale u0 to g(u, u) = c^2; reject non-timelike directions."""
    u0 = np.asarray(u0, dtype=float)
    g = metric_at(chart, coords)
    q = float(u0 @ g @ u0)
    if q <= 0.0 or causal_character(g, u0) is not CausalCharacter.TIMELIKE:
        raise CausalDomainError("observer velocity must be timelike")
    if u0[0] <= 0.0:
        raise CausalDomainError("observer velocity must be future-directed")
    return u0 * (chart.c / math.sqrt(q))


def make_inertial_observer(chart: Chart, q0: Event, u0,
                           interval=(-10.0, 10.0)) -> ObserverCurve:
    """Geodesic observer through q0 with (normalized) initial velocity u0."""
    u = normalize_observer_velocity(chart, q0.coords, u0)
    lo, hi = float(interval[0]), float(interval[1])
    if chart.flat:
        p0 = q0.coords.copy()

        return ObserverCurve(
            chart=chart,
            interval=(lo, hi),
            position_fn=lambda taus: p0 + taus[:, None] * u,
            velocity_fn=lambda taus: u[None].repeat(len(taus), axis=0),
            acceleration_fn=lambda taus: np.zeros((len(taus), 4)),
            kind="inertial",
        )

    fwd = integrate_geodesic(chart, GeodesicIVP(q0, u), hi) if hi > 0 else None
    bwd = integrate_geodesic(chart, GeodesicIVP(q0, u), lo) if lo < 0 else None
    for sol, want in ((fwd, hi), (bwd, lo)):
        if sol is not None and sol.clipped:
            raise IntegrationError(
                f"observer worldline exits the chart at tau={sol.s1:.6g} (wanted {want})"
            )

    def state(taus):
        """Rows (position, velocity): forward solution for tau >= 0 when there is one."""
        ahead = taus >= 0 if fwd is not None else np.zeros(len(taus), dtype=bool)
        if ahead.all() or not ahead.any():
            return (fwd if ahead[0] else bwd).state(taus).T
        out = np.empty((len(taus), 8))
        out[ahead] = fwd.state(taus[ahead]).T
        out[~ahead] = bwd.state(taus[~ahead]).T
        return out

    return ObserverCurve(
        chart=chart,
        interval=(lo, hi),
        position_fn=lambda taus: state(taus)[:, :4],
        velocity_fn=lambda taus: state(taus)[:, 4:],
        acceleration_fn=lambda taus: np.zeros((len(taus), 4)),
        kind="inertial",
    )


def make_uniformly_accelerated_observer(a, c=1.0, interval=(-10.0, 10.0)) -> ObserverCurve:
    """Constantly accelerating observer in flat spacetime (closed form).

    Worldline (c^2/a sinh(a tau/c), c^2/a (cosh(a tau/c) - 1), 0, 0),
    starting at rest at the origin and accelerating along axis 1 with
    constant proper acceleration a > 0.
    """
    a = float(a)
    if a <= 0.0:
        raise CausalDomainError("proper acceleration must be positive")
    chart = minkowski(c)
    c = float(c)

    def rows(taus, col0, col1):
        out = np.zeros((len(taus), 4))
        out[:, 0], out[:, 1] = col0, col1
        return out

    def position_fn(taus):
        w = a * taus / c
        return rows(taus, c**2 / a * np.sinh(w), c**2 / a * (np.cosh(w) - 1.0))

    def velocity_fn(taus):
        w = a * taus / c
        return rows(taus, c * np.cosh(w), c * np.sinh(w))

    def acceleration_fn(taus):
        w = a * taus / c
        return rows(taus, a * np.sinh(w), a * np.cosh(w))

    return ObserverCurve(
        chart=chart,
        interval=(float(interval[0]), float(interval[1])),
        position_fn=position_fn,
        velocity_fn=velocity_fn,
        acceleration_fn=acceleration_fn,
        kind="uniformly-accelerated",
    )


def make_programmed_observer(chart: Chart, q0: Event, frame0, accel_program,
                             interval=(-10.0, 10.0)) -> tuple:
    """Observer driven by an accelerometer program.

    accel_program(tau) gives the spatial proper-acceleration components in
    the instantaneous (Fermi-Walker transported) frame basis.  The
    worldline, its tangent and the non-rotating frame are integrated as one
    coupled system; returns (ObserverCurve, FrameField).
    """
    c = chart.c
    x0 = np.asarray(frame0.matrix if isinstance(frame0, Frame4) else frame0, dtype=float)
    y0 = np.concatenate([q0.coords, c * x0[:, 0], x0[:, 1:].ravel(order="F")])

    def rhs(tau, y):
        pos, vel = y[:4], y[4:8]
        cols = y[8:20].reshape(4, 3, order="F")
        g = chart.metric(pos)
        gam = chart.christoffels(pos)
        acc_frame = np.asarray(accel_program(tau), dtype=float)
        accel = cols @ acc_frame  # spatial frame components -> chart components
        dvel = accel - np.einsum("kij,i,j->k", gam, vel, vel)
        gv = g @ vel
        ga = g @ accel
        # Fermi-Walker transport of the spatial columns
        dcols = (
            -np.einsum("kij,i,jm->km", gam, vel, cols)
            + (np.outer(accel, gv @ cols) - np.outer(vel, ga @ cols)) / c**2
        )
        return np.concatenate([vel, dvel, dcols.ravel(order="F")])

    lo, hi = float(interval[0]), float(interval[1])
    state = _two_sided(rhs, y0, lo, hi, "worldline integration")

    def matrix_fn(taus):
        y = state(taus)
        m = np.empty((len(taus), 4, 4))
        m[:, :, 0] = y[:, 4:8] / c
        m[:, :, 1:] = y[:, 8:20].reshape(-1, 3, 4).transpose(0, 2, 1)
        return m

    def acceleration_fn(taus):
        """The program's reading carried by the spatial frame columns."""
        reading = np.array([accel_program(tau) for tau in taus], dtype=float)
        return (matrix_fn(taus)[:, :, 1:] @ reading[:, :, None])[:, :, 0]

    curve = ObserverCurve(
        chart=chart,
        interval=(lo, hi),
        position_fn=lambda taus: state(taus)[:, :4],
        velocity_fn=lambda taus: state(taus)[:, 4:8],
        acceleration_fn=acceleration_fn,
        kind="programmed",
    )
    field = FrameField(curve=curve, matrix_fn=matrix_fn,
                       cov_deriv_fn=lambda taus: _fw_cov_deriv_matrix(curve, taus, matrix_fn(taus)),
                       kind="fermi-walker")
    return curve, field


def proper_acceleration(curve: ObserverCurve, tau):
    """(A, a): covariant acceleration vector and its magnitude."""
    acc = curve.acceleration(tau)
    g = metric_at(curve.chart, curve.position(tau))
    q = float(acc @ g @ acc)
    return acc, math.sqrt(max(0.0, -q))


def fermi_walker_derivative(curve: ObserverCurve, field, tau, field_deriv=None, h=1e-6):
    """Fermi-Walker derivative of a vector field along the observer.

    field(tau) gives chart components of Y; field_deriv(tau), when known
    analytically, gives dY/dtau and avoids the central-difference fallback.
    """
    c = curve.c
    y = np.asarray(field(tau), dtype=float)
    if field_deriv is not None:
        ydot = np.asarray(field_deriv(tau), dtype=float)
    else:
        ydot = (np.asarray(field(tau + h)) - np.asarray(field(tau - h))) / (2.0 * h)
    pos = curve.position(tau)
    vel = curve.velocity(tau)
    acc = curve.acceleration(tau)
    g = metric_at(curve.chart, pos)
    gam = curve.chart.christoffels(pos)
    nabla_y = ydot + np.einsum("kij,i,j->k", gam, vel, y)
    return nabla_y - (float(vel @ g @ y) * acc - float(acc @ g @ y) * vel) / c**2


def fermi_walker_derivative_projector_form(curve: ObserverCurve, field, tau,
                                           field_deriv=None, h=1e-6):
    """Same derivative through the parallel/orthogonal projector split.

    Kept as an independent oracle: it evaluates the defining projector
    formula numerically instead of the observer-adapted expression.
    """
    pos = curve.position(tau)
    vel = curve.velocity(tau)
    g = metric_at(curve.chart, pos)
    gam = curve.chart.christoffels(pos)

    def nabla(fn, dfn):
        y = np.asarray(fn(tau), dtype=float)
        if dfn is not None:
            ydot = np.asarray(dfn(tau), dtype=float)
        else:
            ydot = (np.asarray(fn(tau + h)) - np.asarray(fn(tau - h))) / (2.0 * h)
        return ydot + np.einsum("kij,i,j->k", gam, vel, y)

    def project(which):
        def fn(t):
            p_par, p_perp = projectors(metric_at(curve.chart, curve.position(t)),
                                       curve.velocity(t))
            p = p_par if which == "par" else p_perp
            return p @ np.asarray(field(t), dtype=float)

        return fn

    p_par, p_perp = projectors(g, vel)
    return p_par @ nabla(project("par"), None) + p_perp @ nabla(project("perp"), None)


def _fw_cov_deriv_matrix(curve: ObserverCurve, taus, mats):
    """Covariant derivatives of FW-transported columns (the transport law), (n, 4, 4)."""
    c = curve.c
    pos = curve.position(taus)
    vel = curve.velocity(taus)[:, :, None]
    acc = curve.acceleration(taus)[:, :, None]
    inside = curve.chart.contains(pos)
    if not np.all(inside):
        raise OutOfChartError(f"{pos[~inside][0]} lies outside the {curve.chart.name} chart domain")
    g = curve.chart.metric(pos)
    gv = (g @ vel).transpose(0, 2, 1) @ mats  # (n, 1, 4): g(gamma', X_m)
    ga = (g @ acc).transpose(0, 2, 1) @ mats
    return (acc * gv - vel * ga) / c**2


def fermi_walker_transport(curve: ObserverCurve, frame0, tau_range=None) -> FrameField:
    """Propagate a frame of reference along the observer without rotation.

    The zeroth column is pinned to gamma'/c analytically; the three
    spatial columns solve the Fermi-Walker transport equation.  frame0
    must be a valid frame at tau=tau0 (midpoint convention: tau0 is
    tau_range[0] unless the range straddles it).
    """
    chart = curve.chart
    c = curve.c
    if tau_range is None:
        tau_range = curve.interval
    lo, hi = float(tau_range[0]), float(tau_range[1])
    tau0 = 0.0 if lo <= 0.0 <= hi else lo
    x0 = np.asarray(frame0.matrix if isinstance(frame0, Frame4) else frame0, dtype=float)
    if np.max(np.abs(x0[:, 0] - curve.velocity(tau0) / c)) > 1e-8:
        raise CausalDomainError("frame column 0 must equal the observer tangent / c")
    g0 = metric_at(chart, curve.position(tau0))
    if np.max(np.abs(gram_matrix(g0, x0) - ETA)) > 1e-8:
        raise CausalDomainError("initial frame is not orthonormal")

    def rhs(tau, y):
        cols = y.reshape(4, 3, order="F")
        pos = curve.position(tau)
        vel = curve.velocity(tau)
        acc = curve.acceleration(tau)
        g = chart.metric(pos)
        gam = chart.christoffels(pos)
        dcols = (
            -np.einsum("kij,i,jm->km", gam, vel, cols)
            + (np.outer(acc, (g @ vel) @ cols) - np.outer(vel, (g @ acc) @ cols)) / c**2
        )
        return dcols.ravel(order="F")

    state = _two_sided(rhs, x0[:, 1:].ravel(order="F"), lo, hi, "frame transport")

    def matrix_fn(taus):
        m = np.empty((len(taus), 4, 4))
        m[:, :, 0] = curve.velocity(taus) / c
        m[:, :, 1:] = state(taus).reshape(-1, 3, 4).transpose(0, 2, 1)
        return m

    def cov_deriv_fn(taus):
        return _fw_cov_deriv_matrix(curve, taus, matrix_fn(taus))

    return FrameField(curve=curve, matrix_fn=matrix_fn, cov_deriv_fn=cov_deriv_fn,
                      kind="fermi-walker", tau_range=(lo, hi))


def _rotation(omega, axis, taus):
    """SO(3) blocks rotating about a spatial axis by omega*tau, and their tau-derivatives.

    Returns (rot, drot), each (n, 3, 3) for an (n,) array of tau.
    """
    ang = omega * taus
    cs, sn = np.cos(ang), np.sin(ang)
    i, j = [(1, 2), (2, 0), (0, 1)][axis - 1]
    rot = np.eye(3)[None].repeat(len(taus), axis=0)
    drot = np.zeros((len(taus), 3, 3))
    rot[:, i, i], rot[:, i, j], rot[:, j, i], rot[:, j, j] = cs, -sn, sn, cs
    drot[:, i, i], drot[:, i, j] = -sn * omega, -cs * omega
    drot[:, j, i], drot[:, j, j] = cs * omega, -sn * omega
    return rot, drot


def rotating_frame(base: FrameField, omega, axis=1) -> FrameField:
    """Spin the spatial columns of a frame field about one of its axes.

    The spatial columns are post-multiplied by a rotation through angle
    omega*tau about the given axis (1, 2 or 3).  omega = 0 returns the
    base field unchanged.
    """
    if axis not in (1, 2, 3):
        raise InvalidInputError("rotation axis must be 1, 2 or 3")
    omega = float(omega)
    if omega == 0.0:
        return base

    def matrix_fn(taus):
        m = base.matrix(taus)
        rot, _ = _rotation(omega, axis, taus)
        return np.concatenate([m[:, :, :1], m[:, :, 1:] @ rot], axis=2)

    def cov_deriv_fn(taus):
        rot, drot = _rotation(omega, axis, taus)
        base_m = base.matrix(taus)
        base_d = base.cov_deriv(taus)
        return np.concatenate([base_d[:, :, :1], base_d[:, :, 1:] @ rot + base_m[:, :, 1:] @ drot],
                              axis=2)

    return FrameField(curve=base.curve, matrix_fn=matrix_fn,
                      cov_deriv_fn=cov_deriv_fn, kind=f"rotating(axis={axis})",
                      tau_range=base.tau_range)


def _two_sided(rhs, y0, lo, hi, what):
    """Integrate y' = rhs(tau, y) from the base instant out to both ends.

    The base instant is tau = 0 when [lo, hi] straddles it, else lo; y0
    is the state there.  Returns state(taus): the rows (n, len(y0)) at an
    (n,) array of tau, one interpolant call per side; it raises if any tau
    is outside [lo, hi].
    """
    tau0 = 0.0 if lo <= 0.0 <= hi else lo
    y0 = np.asarray(y0, dtype=float)
    sides = {}
    for target in (lo, hi):
        if target == tau0:
            continue
        sol = solve_ivp(rhs, (tau0, target), y0, method="RK45", dense_output=True,
                        rtol=REL_TOL, atol=ABS_TOL)
        if sol.status != 0:
            raise IntegrationError(f"{what} failed: {sol.message}")
        steps = sol.sol.interpolants
        sides[target > tau0] = DenseSolution(
            sol.t, np.array([p.h for p in steps]), np.stack([p.Q for p in steps]),
            np.stack([p.y_old for p in steps]), sol.sol(target), len(steps), False)

    def state(taus):
        out = ~((taus >= lo - 1e-12) & (taus <= hi + 1e-12))
        picks = {}
        for side in (False, True):
            sel = ((taus > tau0) == side) & (np.abs(taus - tau0) >= 1e-300)
            if side not in sides:  # the base instant is this end
                out |= sel
            elif sel.any():
                picks[side] = sel
        if out.any():
            raise InvalidInputError(f"tau={taus[out][0]} outside {what} range [{lo}, {hi}]")
        rows = y0[None].repeat(len(taus), axis=0)
        for side, sel in picks.items():
            rows[sel] = sides[side].state(taus[sel]).T
        return rows

    return state


def standard_inertial_frame(curve: ObserverCurve) -> FrameField:
    """Frame field completing an inertial observer's tangent in a flat chart.

    Builds an orthonormal right-handed completion of gamma'/c once and
    carries it unchanged, which in a flat chart is the Fermi-Walker
    transported field.
    """
    if not curve.chart.flat:
        raise InvalidInputError("standard inertial frames require a flat chart")
    c = curve.c
    u = curve.velocity(curve.interval[0])  # constant for inertial flat curves
    m = complete_orthonormal(curve.chart.metric(curve.position(curve.interval[0])), u / c)
    return FrameField(curve=curve, matrix_fn=lambda taus: m[None].repeat(len(taus), axis=0),
                      cov_deriv_fn=lambda taus: np.zeros((len(taus), 4, 4)),
                      kind="fermi-walker")


def complete_orthonormal(g, e0):
    """Gram-Schmidt completion of a unit timelike vector to a frame.

    Signature (+,-,-,-): spatial columns are normalized to g(e,e) = -1.
    Orientation is fixed to match the coordinate basis.
    """
    cols = [np.asarray(e0, dtype=float)]
    for seed in np.eye(4):
        v = seed.copy()
        for w in cols:
            q = float(w @ g @ w)
            v = v - (float(w @ g @ v) / q) * w
        nv = float(v @ g @ v)
        if abs(nv) < 1e-12:
            continue
        cols.append(v / math.sqrt(abs(nv)))
        if len(cols) == 4:
            break
    m = np.stack(cols, axis=1)
    if np.linalg.det(m) < 0:
        m[:, 3] = -m[:, 3]
    return m
