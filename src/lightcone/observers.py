"""Observer worldlines and moving frames of reference.

An observer is one proper-time parametrized, future-directed timelike
worldline, g(gamma', gamma') = c^2, carrying an accelerometer and a
non-rotating (Fermi-Walker) frame.  An ObserverCurve holds its position
and the state its transport law carries, M = [gamma', e1, e2, e3], with
the accelerometer reading in e1..e3 (none for a geodesic).  Everything
else is read off M: the velocity is its column 0, the proper acceleration
its spatial columns times the reading, and the Fermi-Walker basis
fw_basis(tau) is M with column 0 divided by c.  Each maker supplies M:
  flat inertial            the constant [gamma', orthonormal completion];
  uniformly accelerated    the boost frame in closed form, reading (a, 0, 0);
  curved inertial and      one coupled integration of the worldline and M
  programmed               from tau = 0 (_integrated_curve) by geodesics'
                           transport equation (the inertial observer is
                           the programmed system with no program), on
                           geodesics' stepper at geodesics.REL_TOL and
                           ABS_TOL: one run, one row per side of tau = 0
                           (_two_sided).
A FrameField attaches an orthonormal, right-handed frame to every
instant, with the zeroth column pinned to gamma'/c.  Fermi-Walker
transport is linear, so every Fermi-Walker frame along a curve is its
basis times one constant Lorentz matrix, and fermi_walker_transport
integrates nothing.  Rotating variants post-multiply the spatial columns
by a time-dependent rotation.

An integrated worldline stops at the chart-exit margin the rays stop at
(geodesics._exit_event): one that leaves the chart inside its interval
raises IntegrationError when it is built.

Curves and frame fields are evaluated over arrays of tau: a scalar tau
gives (4,) or (4, 4), a 1-D array of n values gives (n, 4) or (n, 4, 4).
A scalar is run as an array of one, so row i of an array result has the
bits of the scalar call at tau[i].
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import Chart, metric_at, minkowski
from .errors import CausalDomainError, IntegrationError, InvalidInputError, OutOfChartError
from .lorentz import ETA, Event, Frame4, causal_character, CausalCharacter, gram_matrix
from .geodesics import CLIPPED, FAILED, DenseSolution, _dopri, _exit_event, _transport_rhs


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
    """Worldline parametrized by proper time on a fixed chart, with its frame.

    frame_fn maps an (n,) array of tau to M = [gamma', e1, e2, e3],
    (n, 4, 4), and reading_fn to the (n, 3) accelerometer reading in
    e1..e3; reading_fn None marks a geodesic.  position, velocity and
    acceleration take a scalar tau, giving (4,), or a 1-D array of n
    values, giving (n, 4), and fw_basis gives (4, 4) or (n, 4, 4); any tau
    outside interval raises InvalidInputError.
    """

    chart: Chart
    interval: tuple
    position_fn: Callable[[np.ndarray], np.ndarray]
    frame_fn: Callable[[np.ndarray], np.ndarray]
    reading_fn: Callable[[np.ndarray], np.ndarray] = None

    @property
    def c(self):
        return self.chart.c

    @functools.cached_property
    def _column_scale(self):
        """(c, 1, 1, 1): divides column 0 of M by c; dividing by 1 is exact."""
        return np.array([self.c, 1.0, 1.0, 1.0])

    def fw_basis_fn(self, taus):
        """Fermi-Walker bases at an (n,) array of tau: M with column 0 = gamma'/c."""
        return self.frame_fn(taus) / self._column_scale

    def _velocity_fn(self, taus):
        return self.frame_fn(taus)[:, :, 0]

    def _acceleration_fn(self, taus):
        if self.reading_fn is None:
            return np.zeros((len(taus), 4))
        return (self.frame_fn(taus)[:, :, 1:] @ self.reading_fn(taus)[:, :, None])[:, :, 0]

    def position(self, tau):
        return _over_taus(self.position_fn, tau, self.interval, "observer interval")

    def velocity(self, tau):
        return _over_taus(self._velocity_fn, tau, self.interval, "observer interval")

    def acceleration(self, tau):
        """Covariant (proper) acceleration: the reading carried by e1..e3."""
        return _over_taus(self._acceleration_fn, tau, self.interval, "observer interval")

    def fw_basis(self, tau):
        """Its Fermi-Walker basis: orthonormal frames, column 0 = gamma'/c."""
        return _over_taus(self.fw_basis_fn, tau, self.interval, "observer interval")


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
    tau_range: tuple = None

    @property
    def interval(self):
        return self.curve.interval if self.tau_range is None else self.tau_range

    def matrix(self, tau):
        return _over_taus(self.matrix_fn, tau, self.interval, "frame interval")

    def cov_deriv(self, tau):
        return _over_taus(self.cov_deriv_fn, tau, self.interval, "frame interval")


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
    """Geodesic observer with (normalized) initial velocity u0, at q0 at tau = 0.

    Its Fermi-Walker basis starts as the orthonormal completion of
    gamma'/c at q0 (complete_orthonormal); on a flat chart that is the
    basis everywhere, elsewhere the curve is the programmed system with no
    program (see make_programmed_observer).
    """
    u = normalize_observer_velocity(chart, q0.coords, u0)
    m0 = complete_orthonormal(chart.metric(q0.coords), u / chart.c)
    m0[:, 0] = u
    if not chart.flat:
        return _integrated_curve(chart, q0, m0, None, interval)
    p0 = q0.coords.copy()

    return ObserverCurve(
        chart=chart,
        interval=(float(interval[0]), float(interval[1])),
        position_fn=lambda taus: p0 + taus[:, None] * u,
        frame_fn=lambda taus: m0[None].repeat(len(taus), axis=0),
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
    reading = np.array([a, 0.0, 0.0])

    def position_fn(taus):
        w = a * taus / c
        out = np.zeros((len(taus), 4))
        out[:, 0], out[:, 1] = c**2 / a * np.sinh(w), c**2 / a * (np.cosh(w) - 1.0)
        return out

    def frame_fn(taus):
        """The boost frame, column 0 scaled by c: gamma', the thrust axis, axes 2 and 3."""
        w = a * taus / c
        m = np.zeros((len(taus), 4, 4))
        m[:, 0, 0], m[:, 1, 0] = c * np.cosh(w), c * np.sinh(w)
        m[:, 0, 1], m[:, 1, 1] = np.sinh(w), np.cosh(w)
        m[:, 2, 2] = m[:, 3, 3] = 1.0
        return m

    return ObserverCurve(
        chart=chart,
        interval=(float(interval[0]), float(interval[1])),
        position_fn=position_fn,
        frame_fn=frame_fn,
        reading_fn=lambda taus: reading[None].repeat(len(taus), axis=0),
    )


def make_programmed_observer(chart: Chart, q0: Event, frame0, accel_program,
                             interval=(-10.0, 10.0)) -> tuple:
    """Observer driven by an accelerometer program.

    accel_program(tau) gives the spatial proper-acceleration components in
    the instantaneous Fermi-Walker basis.  q0 and frame0 hold at tau = 0,
    and the program is read from 0 out to both ends of the interval.  The
    worldline and its basis come from one coupled integration; returns
    (ObserverCurve, FrameField), the field being the curve's basis.
    """
    x0 = np.asarray(frame0.matrix if isinstance(frame0, Frame4) else frame0, dtype=float)
    curve = _integrated_curve(chart, q0, np.column_stack([chart.c * x0[:, 0], x0[:, 1:]]),
                              accel_program, interval)
    return curve, _fw_field(curve, curve.fw_basis_fn)


def _integrated_curve(chart: Chart, q0: Event, m0, program, interval) -> ObserverCurve:
    """Worldline and its M from one integration, from tau = 0.

    The state is the position and the four columns M = [gamma', e1, e2,
    e3] of geodesics' transport equation (_transport_rhs), with the
    acceleration A = M[:, 1:] program(tau); without a program gamma' is a
    geodesic and M is parallel transported.  m0 is M at q0.
    """
    if q0.chart_id != chart.name:
        raise InvalidInputError(f"event belongs to chart {q0.chart_id!r}, not {chart.name!r}")
    y0 = np.concatenate([q0.coords, np.asarray(m0, dtype=float).T.ravel()])
    reading = None if program is None else (
        lambda taus: np.array([program(tau) for tau in taus], dtype=float).reshape(len(taus), 3))
    state = _two_sided(chart, _transport_rhs(chart, 4, reading), y0,
                       float(interval[0]), float(interval[1]))

    def frame_fn(taus):
        """M at each tau, (n, 4, 4), C-contiguous as every other frame is."""
        return np.ascontiguousarray(state(taus)[:, 4:].reshape(-1, 4, 4).transpose(0, 2, 1))

    return ObserverCurve(
        chart=chart,
        interval=(float(interval[0]), float(interval[1])),
        position_fn=lambda taus: state(taus)[:, :4],
        frame_fn=frame_fn,
        reading_fn=reading,
    )


def _fw_field(curve: ObserverCurve, matrix_fn, tau_range=None) -> FrameField:
    """Fermi-Walker frame field with the columns of matrix_fn along curve.

    Its covariant derivatives are the transport law's, (n, 4, 4): zero
    along a geodesic (no reading), whose frame is parallel.
    """
    c = curve.c

    def cov_deriv_fn(taus):
        if curve.reading_fn is None:
            return np.zeros((len(taus), 4, 4))
        acc = curve.acceleration(taus)[:, :, None]
        pos = curve.position(taus)
        vel = curve.velocity(taus)[:, :, None]
        inside = curve.chart.contains(pos)
        if not np.all(inside):
            raise OutOfChartError(
                f"{pos[~inside][0]} lies outside the {curve.chart.name} chart domain")
        g = curve.chart.metric(pos)
        mats = matrix_fn(taus)
        gv = (g @ vel).transpose(0, 2, 1) @ mats  # (n, 1, 4): g(gamma', X_m)
        ga = (g @ acc).transpose(0, 2, 1) @ mats
        return (acc * gv - vel * ga) / c**2

    return FrameField(curve=curve, matrix_fn=matrix_fn, cov_deriv_fn=cov_deriv_fn,
                      tau_range=tau_range)


def fermi_walker_transport(curve: ObserverCurve, frame0, tau_range=None) -> FrameField:
    """Propagate a frame of reference along the observer without rotation.

    Fermi-Walker transport is linear, so the field is the curve's own
    basis times one constant Lorentz matrix: basis(tau) L with
    L = basis(tau0)^-1 frame0; nothing is integrated.  frame0 must be a
    valid frame at tau = tau0 (midpoint convention: tau0 is tau_range[0]
    unless the range straddles 0), and tau_range must lie in the curve's
    interval.
    """
    chart = curve.chart
    if tau_range is None:
        tau_range = curve.interval
    lo, hi = float(tau_range[0]), float(tau_range[1])
    if not (curve.interval[0] <= lo and hi <= curve.interval[1]):
        raise InvalidInputError(f"frame range [{lo}, {hi}] outside the observer interval "
                                f"{list(curve.interval)}")
    tau0 = 0.0 if lo <= 0.0 <= hi else lo
    x0 = np.asarray(frame0.matrix if isinstance(frame0, Frame4) else frame0, dtype=float)
    if np.max(np.abs(x0[:, 0] - curve.velocity(tau0) / curve.c)) > 1e-8:
        raise CausalDomainError("frame column 0 must equal the observer tangent / c")
    g0 = metric_at(chart, curve.position(tau0))
    if np.max(np.abs(gram_matrix(g0, x0) - ETA)) > 1e-8:
        raise CausalDomainError("initial frame is not orthonormal")
    basis0 = curve.fw_basis(tau0)
    if np.array_equal(x0, basis0):  # most often: the field is the basis, bit for bit
        return _fw_field(curve, curve.fw_basis_fn, (lo, hi))
    lorentz = np.linalg.solve(basis0, x0)
    return _fw_field(curve, lambda taus: curve.fw_basis_fn(taus) @ lorentz, (lo, hi))


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

    return FrameField(curve=base.curve, matrix_fn=matrix_fn, cov_deriv_fn=cov_deriv_fn,
                      tau_range=base.tau_range)


def _two_sided(chart: Chart, rhs, y0, lo, hi):
    """Integrate y' = rhs(tau, y) from y0 at tau = 0 out to lo and to hi.

    One geodesics._dopri run with dense output, one row per side of 0
    that [lo, hi] reaches: y0 towards lo and y0 towards hi.  Each row is
    stopped by the chart-exit event the rays stop at, and keeps the bits
    it would have alone; a row that leaves the chart or fails raises
    IntegrationError.  Returns state(taus): the rows (n, len(y0)) at an
    (n,) array of tau, one interpolant call per side.
    """
    ends = [end for end in (min(lo, 0.0), max(hi, 0.0)) if end != 0.0]
    sides = {}
    if ends:
        run = _dopri(rhs, y0[None].repeat(len(ends), axis=0), np.array(ends),
                     _exit_event(chart), dense=True)
        for i, end in enumerate(ends):
            if run.outcome[i] == FAILED:
                raise IntegrationError(f"observer worldline integration failed: {run.reasons[i]}")
            if run.outcome[i] == CLIPPED:
                raise IntegrationError(
                    f"observer worldline exits the chart at tau={run.s1[i]:.6g} (wanted {end})")
            sides[end > 0.0] = DenseSolution(*run.segments[i], run.steps[i], False)

    def state(taus):
        rows = y0[None].repeat(len(taus), axis=0)
        for ahead, sol in sides.items():
            sel = taus > 0.0 if ahead else taus < 0.0
            if sel.any():
                rows[sel] = sol.state(taus[sel]).T
        return rows

    return state


def standard_inertial_frame(curve: ObserverCurve) -> FrameField:
    """The Fermi-Walker basis of an inertial observer in a flat chart, as a frame field.

    That basis is the constant orthonormal completion of gamma'/c, with
    zero covariant derivatives.
    """
    if not curve.chart.flat:
        raise InvalidInputError("standard inertial frames require a flat chart")
    return _fw_field(curve, curve.fw_basis_fn)


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
