"""Geodesics, parallel transport, Jacobi fields and the exponential map.

Every integration here runs one stepper, _dopri: the Dormand-Prince
8(5,3) pair with scipy's DOP853 tableau, error estimator, initial step
and step control (Hairer-Norsett-Wanner, Solving ODEs I, sec. II.10),
over an (n, width) array of rays.  Each row is its own initial-value
problem: it keeps its own parameter s, step size, rejected flag and
error norm, each step evaluates only the rows still running, and no
row's arithmetic reads another's.  So a ray gives the same bits alone
and in any batch.

What the tolerances mean for each ray (defaults rel_tol=1e-10,
abs_tol=1e-12): every accepted step keeps that ray's own error norm
below 1.  With each component weighed by abs_tol + rel_tol*|y|, the norm
is DOP853's |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) width) from the
5th- and 3rd-order estimates e5, e3 over all components of the ray's
state, in the chart it is given (the splitting layer gives a model's ray
chart, see charts.RayChart).  A ray ends in one of three outcomes:
  landed   it reached s_end; its end state is its last step's end state;
  clipped  it met its chart-exit event, a hair inside the boundary (see
           _exit_event); the crossing is located to 4 eps by brentq on
           that ray's own step interpolant, as solve_ivp locates events,
           and its end state is the interpolant there;
  failed   its step size fell below 10 ulp of s, or it spent MAX_ATTEMPTS
           step attempts, accepted or rejected, without ending.
A batch reports the outcome of each row and never raises for one ray.
Dense solutions keep each step's interpolant (DOP853's 7th-order dense
output, whose three extra stages are evaluated only for steps that are
kept or that cross the exit event), converted to the power basis that
_interpolate evaluates; at its end parameter a dense solution gives the
ray's end state.

On a flat chart a ray is exact and takes no steps: it is (x + s v, v),
and each Jacobi column (J + s W, W).

Every curved ray runs one right-hand side, _ray_rhs: a stack of rays,
each with n_jac Jacobi columns.  integrate_geodesic (n_jac = 0),
integrate_jacobi (1), detect_conjugate (4) and integrate_batch (any) all
go through _rays; parallel_transport runs its own (different) equation
through the same stepper.

A Jacobi column is integrated as the coordinate variation (dx, dv) of the
ray, whose variational equation needs the connection and its first
derivatives (Chart.christoffel_derivs) but no curvature; then J = dx
exactly.  Callers see the covariant layout (J, W), W = DJ/ds: one helper,
_convert_columns, sets dv = W - Gamma(kappa', J) before a solve and
W = dv + Gamma(kappa', dx) on read-out.
"""

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .charts import Chart
from .errors import (
    EmptySolutionError,
    IntegrationError,
    InvalidInputError,
    NotInExpDomainError,
    OutOfChartError,
)
from .lorentz import Event

REL_TOL = 1e-10
ABS_TOL = 1e-12

# Step attempts a ray may spend before it ends failed: over four times the
# most that any test or benchmark workload's ray takes (229, a ray into the
# horizon in Schwarzschild coordinates), where a ray whose Jacobi columns
# grow like 1/f at the horizon would otherwise run on for 10^5 steps
MAX_ATTEMPTS = 1000

# Ray outcomes
LANDED, CLIPPED, FAILED = 0, 1, 2


@dataclass(frozen=True)
class GeodesicIVP:
    start: Event
    velocity: np.ndarray  # d kappa / d s components

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=float)
        if v.shape != (4,) or not np.all(np.isfinite(v)) or np.max(np.abs(v)) == 0.0:
            raise InvalidInputError("geodesic velocity must be 4 finite reals, not all zero")
        object.__setattr__(self, "velocity", v)


def _interpolate(t_old, h, q, y_old, s):
    """The RK dense output of each entry's step at s, one row per entry.

    t_old, h, s: (m,); q: (m, width, order); y_old: (m, width).  The state
    is y_old + h Q (x, x^2, ...), x = (s - t_old) / h, with one
    matrix-vector product per entry, as scipy's RkDenseOutput takes for a
    scalar s; so an entry has the same bits whatever else is evaluated
    with it.
    """
    x = (s - t_old) / h
    p = np.cumprod(np.repeat(x[:, None], q.shape[2], axis=1), axis=1)
    y = h[:, None] * (q @ p[:, :, None])[:, :, 0]
    y += y_old
    return y


class DenseSolution:
    """Interpolable solution of one integrated system over [s0, s1].

    Holds per step its start ts[i], length h[i], interpolation matrix
    q[i] and start state y_old[i]; ts has one more entry, s1, and y1 is
    the state there.  The interval is oriented (s1 may be below s0 for
    backward integration); evaluation outside it raises.  `clipped` marks
    runs cut short by chart exit.  The last step of a clipped run keeps
    its full length h, with s1 inside it.

    state(s) takes a scalar or a 1-D array of s.  Column i of an array
    result has the bits of state(s[i]) (see _interpolate); at s1 it is y1.
    """

    def __init__(self, ts, h, q, y_old, y1, steps, clipped):
        ts = np.asarray(ts, dtype=float)
        self.s0 = float(ts[0])
        self.s1 = float(ts[-1])
        self.y1 = np.asarray(y1, dtype=float)
        self.steps = int(steps)
        self.clipped = bool(clipped)
        self.n_state = int(y_old.shape[1])
        # the step holding s, as scipy's OdeSolution picks it: searchsorted
        # on the inner step ends, counted from the end when running backward
        self._backward = self.s1 < self.s0
        self._inner = ts[-2:0:-1] if self._backward else ts[1:-1]
        self._side = "left" if self._backward else "right"
        self._t_old, self._h, self._q, self._y_old = ts[:-1], h, q, y_old

    def _clipped(self, s):
        """s clipped into the solution interval; more than 1e-12 outside raises."""
        lo, hi = sorted((self.s0, self.s1))
        s = np.asarray(s, dtype=float)
        if (s < lo - 1e-12).any() or (s > hi + 1e-12).any():
            raise InvalidInputError(f"parameter {s} outside solution interval [{lo}, {hi}]")
        return np.minimum(np.maximum(s, lo), hi)

    def state(self, s):
        """(n_state,) for scalar s, (n_state, len(s)) for a 1-D array."""
        s = self._clipped(s)
        if s.ndim == 0:
            return self._rows(s.reshape(1))[0]
        return self._rows(s).T

    def _rows(self, s):
        seg = np.searchsorted(self._inner, s, side=self._side)
        if self._backward:
            seg = len(self._t_old) - 1 - seg
        y = _interpolate(self._t_old[seg], self._h[seg], self._q[seg], self._y_old[seg], s)
        y[s == self.s1] = self.y1
        return y


class GeodesicSolution(DenseSolution):
    def position(self, s):
        st = self.state(s)  # (n_state,) scalar s, (n_state, len(s)) array s
        return st[:4] if st.ndim == 1 else st[:4].T

    def velocity(self, s):
        st = self.state(s)
        return st[4:8] if st.ndim == 1 else st[4:8].T


class TransportSolution(DenseSolution):
    """Vector (or stacked vectors) carried along a stored path."""

    def __init__(self, ts, h, q, y_old, y1, steps, clipped, along):
        super().__init__(ts, h, q, y_old, y1, steps, clipped)
        self.along = along

    def vector(self, s):
        return self.state(s)[:4]


class JacobiSolution(DenseSolution):
    """Jacobi field J and its covariant derivative along a geodesic.

    The state is the ray (kappa, kappa') followed by the variation
    (dx, dv), with J = dx (see _ray_rhs).
    """

    def __init__(self, ts, h, q, y_old, y1, steps, clipped, along, chart):
        super().__init__(ts, h, q, y_old, y1, steps, clipped)
        self.along = along
        self.chart = chart

    def value(self, s):
        return self.state(s)[8:12]

    def derivative(self, s):
        """Covariant derivative of J along the geodesic at s."""
        st = self.state(s)
        w = _convert_columns(self.chart, np.atleast_2d(st.T), +1)[:, 12:16]
        return w[0] if st.ndim == 1 else w.T


class BatchSolution:
    """Where each ray of a batch ended, and how; rows in input order.

    states: (n, width) state at s1 in the (J, W) layout; s1: (n,) the
    parameter each ray ended at; outcome: (n,) LANDED, CLIPPED or FAILED;
    reasons: why each failed ray failed ("" for the others).  Calling it
    at s_end gives the states there: NaN rows for rays that did not land.
    """

    def __init__(self, states, s1, outcome, reasons, s_end):
        self.states = states
        self.s1 = s1
        self.outcome = outcome
        self.reasons = reasons
        self.s_end = float(s_end)

    @property
    def landed(self):
        return self.outcome == LANDED

    def __call__(self, s):
        if s != self.s_end:
            raise InvalidInputError(f"a ray batch keeps its endpoints only; evaluate it at "
                                    f"s_end = {self.s_end}, not {s}")
        out = self.states.copy()
        out[~self.landed] = np.nan
        return out


# ---------------------------------------------------------------------------
# The stepper
# ---------------------------------------------------------------------------

# Dormand-Prince 8(5,3): scipy's DOP853 tableau (12 stages, then f at the
# step's end), its two error estimators, the three extra stages and the
# matrix D of its dense output, and its step-size control
_A, _B, _C = DOP853.A, DOP853.B, DOP853.C
_E3, _E5, _D = DOP853.E3, DOP853.E5, DOP853.D
_A_EXTRA, _C_EXTRA = DOP853.A_EXTRA, DOP853.C_EXTRA
_STAGES = len(_B)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
_EPS = np.finfo(float).eps


def _power_basis():
    """M with h Q = F^T M: DOP853's interpolant in powers of x.

    Its interpolant y_old + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + ...))))
    weighs F_i by x^(i//2 + 1) (1 - x)^((i + 1)//2); row i of M expands
    that in the powers x, x^2, ..., x^7 that _interpolate evaluates.
    """
    m = np.zeros((7, 7))
    for i in range(7):
        a, b = i // 2 + 1, (i + 1) // 2
        for j in range(b + 1):
            m[i, a + j - 1] = (-1) ** j * comb(b, j)
    return m


_POWER = _power_basis()


def _norm(x):
    """Each row's 2-norm, its square sum taken as np.linalg.norm takes it."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _rms(x):
    """Each row's RMS norm, as scipy's norm takes it."""
    return _norm(x) / x.shape[1] ** 0.5


def _initial_step(rhs, y, f, s_end, direction, rel_tol, abs_tol):
    """scipy's select_initial_step for each row, from s = 0."""
    length = abs(s_end)
    scale = abs_tol + np.abs(y) * rel_tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, length)
    f1 = rhs(h0 * direction, y + (h0 * direction)[:, None] * f)
    d2 = _rms((f1 - f) / scale) / h0
    with np.errstate(divide="ignore"):
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** -_EXPONENT)
    return np.minimum(np.minimum(100 * h0, h1), length)


def _step_polynomial(rhs, k, t_old, h, y_old, y_new):
    """Each step's interpolation matrix q (m, width, 7) for _interpolate.

    k: (m, 16, width), the step's stages and f at its end in rows 0-12;
    rows 13-15 get DOP853's three extra dense-output stages.  The
    interpolant's coefficients F (scipy's Dop853DenseOutput) are moved to
    the power basis by _POWER.
    """
    kt = k.transpose(0, 2, 1)
    hc = h[:, None]
    for i, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), start=_STAGES + 1):
        k[:, i] = rhs(t_old + c * h, y_old + (kt[:, :, :i] @ a[:i]) * hc)
    dy = y_new - y_old
    f = np.empty((len(h), 7, k.shape[2]))
    f[:, 0] = dy
    f[:, 1] = hc * k[:, 0] - dy
    f[:, 2] = 2 * dy - hc * (k[:, _STAGES] + k[:, 0])
    f[:, 3:] = hc[:, None] * (_D @ k)
    return (f.transpose(0, 2, 1) @ _POWER) / h[:, None, None]


@dataclass
class _Run:
    """What _dopri returns, rows in input order.

    y: (n, width) state at s1; s1, outcome, steps (accepted): (n,);
    reasons: per row, "" unless failed; segments: with dense output, per
    row the DenseSolution data (ts, h, q, y_old, y1), else None.
    """

    y: np.ndarray
    s1: np.ndarray
    outcome: np.ndarray
    steps: np.ndarray
    reasons: list
    segments: list = None


def _dopri(rhs, y0, s_end, rel_tol, abs_tol, event=None, dense=False):
    """Integrate y' = rhs(s, y) from s = 0 to s_end != 0 for each row of y0.

    rhs maps (m,) s and (m, width) states of the running rows to their
    (m, width) derivatives, row by row.  event maps (m, width) states to
    (m,) values; a row stops, clipped, where its value falls through zero
    (solve_ivp's terminal event with direction -1).  See the module
    docstring for the step control and the outcomes.
    """
    y0 = np.array(y0, dtype=float)
    n, width = y0.shape
    direction = 1.0 if s_end > 0 else -1.0
    clamp = np.minimum if s_end > 0 else np.maximum  # a step ends at s_end at the latest
    floor = 10 * np.spacing(abs(s_end))  # no row's min_step is larger
    out = _Run(np.empty((n, width)), np.empty(n), np.full(n, LANDED),
               np.zeros(n, dtype=int), [""] * n)
    record = []  # with dense output: per iteration (rows, t_old, h, q, y_old)

    # the running rows: their index in y0, s, state, derivative, next step
    # size, whether their last attempt was rejected, accepted steps and
    # event value
    rows = np.arange(n)
    s = np.zeros(n)
    y = y0
    f = rhs(s, y)
    h_abs = _initial_step(rhs, y, f, s_end, direction, rel_tol, abs_tol)
    rejected = np.zeros(n, dtype=bool)
    retry = False  # whether any row's last attempt was rejected
    steps = np.zeros(n, dtype=int)
    attempts = 0  # every running row has made this many step attempts
    g = event(y) if event is not None else None

    def finish(i, y_end, s1):
        """Record the running rows i as ended, and drop them."""
        nonlocal rows, s, y, f, h_abs, rejected, steps, g
        out.y[rows[i]], out.s1[rows[i]], out.steps[rows[i]] = y_end, s1, steps[i]
        live = np.ones(len(rows), dtype=bool)
        live[i] = False
        rows, s, y, f = rows[live], s[live], y[live], f[live]
        h_abs, rejected, steps = h_abs[live], rejected[live], steps[live]
        g = g[live] if g is not None else None

    with np.errstate(divide="ignore", invalid="ignore"):
        while len(rows):
            if not h_abs.min() >= floor:
                # a fresh step is at least min_step; a rejected one below it
                # (or NaN) fails
                min_step = 10 * np.abs(np.nextafter(s, direction * np.inf) - s)
                small = ~(h_abs >= min_step)
                h_abs = np.where(rejected, h_abs, np.fmax(h_abs, min_step))
                fail = np.flatnonzero(rejected & small)
                for i in fail:
                    out.outcome[rows[i]] = FAILED
                    out.reasons[rows[i]] = ("required step size is less than spacing "
                                            f"between numbers at s = {s[i]:.17g}")
                if len(fail):
                    finish(fail, y[fail], s[fail])
                    continue
            if attempts == MAX_ATTEMPTS:
                for i, row in enumerate(rows):
                    out.outcome[row] = FAILED
                    out.reasons[row] = (f"no end after {MAX_ATTEMPTS} step attempts, "
                                        f"at s = {s[i]:.17g}")
                finish(np.arange(len(rows)), y, s)
                continue
            attempts += 1

            s_new = clamp(s + h_abs * direction, s_end)
            h = s_new - s
            h_abs = np.abs(h)
            hc = h[:, None]
            t_stage = s[:, None] + _C * hc

            k = np.empty((len(rows), _STAGES + 4, width))
            kt = k.transpose(0, 2, 1)
            k[:, 0] = f
            for i in range(1, _STAGES):
                k[:, i] = rhs(t_stage[:, i], y + (kt[:, :, :i] @ _A[i, :i]) * hc)
            y_new = y + hc * (kt[:, :, :_STAGES] @ _B)
            f_new = k[:, _STAGES] = rhs(s + h, y_new)
            scale = abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * rel_tol
            e5 = _norm((kt[:, :, :_STAGES + 1] @ _E5) / scale) ** 2
            e3 = _norm((kt[:, :, :_STAGES + 1] @ _E3) / scale) ** 2
            err = np.where((e5 == 0) & (e3 == 0), 0.0,
                           h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * width))

            # scipy's factors: min(MAX_FACTOR, grow) on acceptance, and no
            # growth right after a rejection; max(MIN_FACTOR, grow) on
            # rejection, where fmax takes MIN_FACTOR for a NaN error
            ok = err < 1
            every = ok.all()
            grow = _SAFETY * err ** _EXPONENT
            if every and not retry:
                h_abs = h_abs * np.minimum(_MAX_FACTOR, grow)
            else:
                cap = np.where(rejected, 1.0, _MAX_FACTOR)
                h_abs = h_abs * np.where(ok, np.minimum(cap, grow), np.fmax(_MIN_FACTOR, grow))
                rejected = ~ok
            retry = not every
            if retry and not ok.any():
                continue
            steps += ok

            # the accepted rows: all of them, without a gather, most of the time
            acc = np.arange(len(rows)) if every else np.flatnonzero(ok)
            pick = (lambda a: a) if every else (lambda a: a[acc])
            t_old, y_old, h_acc, s_acc, y_acc = pick(s), pick(y), pick(h), pick(s_new), pick(y_new)
            stop = s_acc == s_end  # landed, at the step's end state
            ends, y_end = s_acc, y_acc
            q = None
            if dense:
                q = _step_polynomial(rhs, pick(k), t_old, h_acc, y_old, y_acc)
                record.append((rows[acc], t_old, h_acc, q, y_old))
            if every:
                s, y, f = s_new, y_new, f_new
            else:
                s = np.where(ok, s_new, s)
                y, f = np.where(ok[:, None], y_new, y), np.where(ok[:, None], f_new, f)

            if g is not None:
                g_new = event(y_acc)
                cross = (pick(g) >= 0) & (g_new <= 0)
                if every:
                    g = g_new
                else:
                    g = g.copy()
                    g[acc] = g_new
                if cross.any():
                    # clipped, at the crossing on the step's own interpolant
                    j = np.flatnonzero(cross)
                    qj = q[j] if q is not None else _step_polynomial(
                        rhs, k[acc[j]], t_old[j], h_acc[j], y_old[j], y_acc[j])
                    crossing = (t_old[j], h_acc[j], qj, y_old[j])
                    ends = s_acc.copy()
                    for i, jj in enumerate(j):
                        one = tuple(a[i:i + 1] for a in crossing)
                        ends[jj] = brentq(lambda t: event(_interpolate(*one, np.array([t])))[0],
                                          t_old[jj], s_acc[jj], xtol=4 * _EPS, rtol=4 * _EPS)
                        out.outcome[rows[acc[jj]]] = CLIPPED
                    y_end = y_acc.copy()
                    y_end[j] = _interpolate(*crossing, ends[j])
                    stop = stop | cross
            if stop.any():
                j = np.flatnonzero(stop)
                finish(acc[j], y_end[j], ends[j])

    if dense:
        empty = (np.zeros(0, dtype=int), np.zeros(0), np.zeros(0), np.zeros((0, width, 7)),
                 np.zeros((0, width)))
        seg_rows, t_old, h, q, y_old = ([np.concatenate(p) for p in zip(*record)]
                                        if record else empty)
        out.segments = []
        for r in range(n):
            sel = seg_rows == r
            out.segments.append((np.append(t_old[sel], out.s1[r]), h[sel], q[sel], y_old[sel],
                                 out.y[r]))
    return out


def _exit_event(chart):
    """Chart-exit event values a hair inside the boundary, or None.

    Chart boundaries are typically coordinate-singular (the metric blows
    up there), so integrating to the exact boundary stalls the stepper.
    Stopping at a small margin keeps the clipped solution well-conditioned.
    """
    if chart.boundary_fn is None:
        return None
    margin = 1e-6 * max(1.0, abs(chart.params.get("R", 1.0)))
    return lambda y: chart.boundary_distance(y[..., :4]) - margin


def _ray_rhs(chart: Chart, n_jac: int):
    """Right-hand side for a stack of rays, each with n_jac Jacobi columns.

    The state holds (n, 8 + 8*n_jac) rows: kappa (4), kappa' (4), then
    n_jac columns (dx, dv), the coordinate variation of the ray and of
    its velocity (the variational equation, Hairer-Norsett-Wanner,
    Solving ODEs I, sec. I.14):
        kappa''^k = -Gamma^k_ij kappa'^i kappa'^j
        dx'^k = dv^k
        dv'^k = -d_m Gamma^k_ij kappa'^i kappa'^j dx^m - 2 Gamma^k_ij kappa'^i dv^j
    The Jacobi field is J = dx exactly; its covariant derivative is
    W = dv + Gamma(kappa', dx) (see _convert_columns).  No curvature
    tensor is formed.
    """

    def rhs(s, y):
        n = len(y)
        m = y.reshape(n, 1 + n_jac, 2, 4)  # member, (ray, columns), (value, derivative)
        out = np.empty_like(m)
        pos, vel = m[:, 0, 0], m[:, 0, 1]
        gam = chart.christoffels(pos)  # (n,4,4,4)
        out[:, :, 0] = m[:, :, 1]
        out[:, 0, 1] = -np.einsum("nkij,ni,nj->nk", gam, vel, vel)
        if n_jac:
            row = vel[:, None, None, :]
            vv = (vel[:, :, None] * vel[:, None, :]).reshape(n, 1, 1, 16)
            # coef[n, k] = (d_m Gamma^k(kappa', kappa'), 2 Gamma^k_ij kappa'^i), width 8;
            # matmul over the flattened (i, j) pair beat einsum at n = 1, 20 and 400
            coef = np.concatenate([
                np.matmul(vv, chart.christoffel_derivs(pos).reshape(n, 4, 16, 4)),
                2.0 * np.matmul(row, gam),
            ], axis=-1)[:, :, 0]
            cols = m[:, 1:]
            out[:, 1:, 1] = -np.matmul(cols.reshape(n, n_jac, 8), coef.transpose(0, 2, 1))
        return out.reshape(n, -1)

    return rhs


def _convert_columns(chart: Chart, states, sign):
    """Move ray states between the (J, W) and (dx, dv) column layouts.

    states: (n, 8 + 8*n_jac).  J = dx in both; each column's second half
    becomes W + sign * Gamma^k_ij kappa'^i J^j, so sign = -1 maps the
    public (J, W) to the integrated (dx, dv) and sign = +1 maps back.
    Returns a new array.
    """
    states = np.array(states, dtype=float)
    if chart.flat or states.shape[-1] == 8:
        return states
    m = states.reshape(len(states), states.shape[1] // 8, 2, 4)
    gv = np.einsum("nkij,ni->nkj", chart.christoffels(m[:, 0, 0]), m[:, 0, 1])
    m[:, 1:, 1] += sign * np.einsum("nkj,ncj->nck", gv, m[:, 1:, 0])
    return states


def _linear_run(y0, deriv, s_end, dense):
    """The exact run y0 + s * deriv, with no steps: flat rays, s_end = 0."""
    n = len(y0)
    out = _Run(y0 + s_end * deriv, np.full(n, float(s_end)), np.full(n, LANDED),
               np.zeros(n, dtype=int), [""] * n)
    if dense:
        # one step of order 1 whose interpolant is y0 + s * deriv
        ts, h = np.array([0.0, s_end]), np.array([s_end or 1.0])
        out.segments = [(ts, h, deriv[i][None, :, None], y0[i][None], out.y[i])
                        for i in range(n)]
    return out


def _rays(chart: Chart, y0, s_end, rel_tol, abs_tol, stop_at_exit=True, dense=False):
    """Integrate rays in the (dx, dv) layout: y0 is (n, 8 + 8*n_jac).

    Curved rays run _ray_rhs through _dopri, stopped by the chart-exit
    event when stop_at_exit; flat rays and s_end = 0 are exact.
    """
    y0 = np.asarray(y0, dtype=float)
    if rel_tol <= 0 or abs_tol <= 0:
        raise InvalidInputError("tolerances must be positive")
    if s_end == 0.0 or chart.flat:
        m = y0.reshape(len(y0), y0.shape[1] // 8, 2, 4)
        deriv = np.zeros_like(m)
        if chart.flat:
            deriv[:, :, 0] = m[:, :, 1]
        return _linear_run(y0, deriv.reshape(y0.shape), s_end, dense)
    n_jac = y0.shape[1] // 8 - 1
    event = _exit_event(chart) if stop_at_exit else None
    return _dopri(_ray_rhs(chart, n_jac), y0, s_end, rel_tol, abs_tol, event, dense)


def _single(chart, run, s_end, cls, *extra):
    """Row 0 of a dense run as a cls solution; a failed or empty ray raises."""
    if run.outcome[0] == FAILED:
        raise IntegrationError(f"integrator failed on {chart.name}: {run.reasons[0]}")
    if run.outcome[0] == CLIPPED and abs(run.s1[0]) <= 1e-14 * max(1.0, abs(s_end)):
        raise EmptySolutionError("trajectory leaves the chart domain immediately")
    return cls(*run.segments[0], run.steps[0], run.outcome[0] == CLIPPED, *extra)


def integrate_geodesic(chart: Chart, ivp: GeodesicIVP, s_end, rel_tol=REL_TOL,
                       abs_tol=ABS_TOL) -> GeodesicSolution:
    """Solve the autoparallel equation from the given initial data.

    Integrates kappa'' ^k + Gamma^k_ij kappa'^i kappa'^j = 0 up to s_end
    with adaptive step control.  If the trajectory exits the chart the
    partial solution up to the boundary is returned with clipped=True.
    """
    if ivp.start.chart_id != chart.name:
        raise InvalidInputError(f"event belongs to chart {ivp.start.chart_id!r}, not {chart.name!r}")
    q0 = ivp.start.coords
    if not chart.contains(q0):
        raise OutOfChartError(f"start {q0} outside {chart.name} domain")
    bd = chart.boundary_distance(q0)
    if bd is not None and bd <= 1e-12 * max(1.0, abs(chart.params.get("R", 1.0))):
        raise EmptySolutionError("start point touches the chart boundary")

    y0 = np.concatenate([q0, ivp.velocity])[None, :]
    run = _rays(chart, y0, s_end, rel_tol, abs_tol, dense=True)
    return _single(chart, run, s_end, GeodesicSolution)


def exp_map(chart: Chart, q: Event, tangent, rel_tol=REL_TOL, abs_tol=ABS_TOL) -> Event:
    """Endpoint of the geodesic with initial velocity `tangent` at unit parameter."""
    sol = integrate_geodesic(chart, GeodesicIVP(q, tangent), 1.0, rel_tol, abs_tol)
    if sol.clipped:
        raise NotInExpDomainError(
            f"geodesic leaves {chart.name} at parameter {sol.s1:.6g} < 1"
        )
    return Event(chart.name, sol.position(1.0))


def parallel_transport(chart: Chart, along: GeodesicSolution, v0,
                       rel_tol=REL_TOL, abs_tol=ABS_TOL) -> TransportSolution:
    """Transport v0 along the stored path: v'^k + Gamma^k_ij kappa'^i v^j = 0.

    The path's stored velocity is reused instead of re-differentiating the
    position interpolant.  On a flat chart v stays v0 exactly.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (4,) or not np.all(np.isfinite(v0)):
        raise InvalidInputError("transported vector must be 4 finite reals")

    if chart.flat or along.s1 == 0.0:
        run = _linear_run(v0[None, :], np.zeros((1, 4)), along.s1, dense=True)
    else:
        def rhs(s, v):
            state = along.state(s).T  # (m, 8) at each row's own s
            gam = chart.christoffels(state[:, :4])
            return -np.einsum("nkij,ni,nj->nk", gam, state[:, 4:8], v)

        run = _dopri(rhs, v0[None, :], along.s1, rel_tol, abs_tol, dense=True)
    return _single(chart, run, along.s1, TransportSolution, along)


def integrate_jacobi(chart: Chart, geodesic: GeodesicSolution, j0, dj0,
                     rel_tol=REL_TOL, abs_tol=ABS_TOL) -> JacobiSolution:
    """Solve the geodesic deviation equation along a stored geodesic.

    The geodesic is integrated again together with the field, from its
    stored initial data to its end parameter, as a ray with one Jacobi
    column: j0 = J(0) and dj0 = W(0), the covariant derivative of J.  The
    stored solution is kept as `along`.
    """
    y0 = np.concatenate([geodesic.position(0.0), geodesic.velocity(0.0),
                         np.asarray(j0, dtype=float), np.asarray(dj0, dtype=float)])
    y0 = _convert_columns(chart, y0[None, :], -1)
    run = _rays(chart, y0, geodesic.s1, rel_tol, abs_tol, stop_at_exit=False, dense=True)
    return _single(chart, run, geodesic.s1, JacobiSolution, geodesic, chart)


def exp_differential(chart: Chart, q: Event, tangent, base_dir, fiber_dir,
                     rel_tol=REL_TOL, abs_tol=ABS_TOL) -> np.ndarray:
    """Differential of the exponential map as a Jacobi endpoint value.

    Returns J(1) for the Jacobi field along s -> exp(s*tangent) whose
    initial value is the base-point direction and whose initial covariant
    derivative is the fiber direction; linear in both.
    """
    exp_map(chart, q, tangent, rel_tol, abs_tol)  # validates reachability
    y0 = np.concatenate([
        q.coords, np.asarray(tangent, dtype=float),
        np.asarray(base_dir, dtype=float), np.asarray(fiber_dir, dtype=float),
    ])[None, :]
    interp, _ = integrate_batch(chart, y0, n_jac=1, s_end=1.0,
                                rel_tol=rel_tol, abs_tol=abs_tol)
    return interp(1.0)[0, 8:12]


@dataclass(frozen=True)
class ConjugateScan:
    """Conjugate parameter values found along one geodesic (best effort)."""

    values: tuple
    low_resolution: bool
    s_reached: float


def _orthogonal_triple(g, k):
    """Three independent directions orthogonal to k (pivot elimination)."""
    w = np.asarray(g) @ np.asarray(k, dtype=float)
    pivot = int(np.argmax(np.abs(w)))
    dirs = []
    for mu in range(4):
        if mu == pivot:
            continue
        v = np.zeros(4)
        v[mu] = 1.0
        v[pivot] = -w[mu] / w[pivot]
        dirs.append(v)
    return dirs


def detect_conjugate(chart: Chart, q: Event, tangent, s_max, grid_n,
                     rel_tol=REL_TOL, abs_tol=ABS_TOL) -> ConjugateScan:
    """Scan a geodesic for conjugate parameter values.

    Integrates the ray with four Jacobi columns: three vanishing at the
    start whose initial derivatives span the orthogonal complement of the
    initial velocity K, and a transversal N with J(0) = N, W(0) = 0.  The
    transversal's pairing g(J, K) = g(N, K) stays constant and nonzero
    while the other three pair to zero, so conjugate values show up as
    zeros of det([J^N, J^1, J^2, J^3]) / s^3: the normalization removes
    the trivial triple zero at the start, and the transversal keeps the
    determinant honest when the orthogonal complement is degenerate
    (lightlike rays).  Sign changes are refined by bisection on the dense
    output; the scan is a detector, not a proof, so an empty result only
    means none found at this resolution.
    """
    tangent = np.asarray(tangent, dtype=float)
    g0 = chart.metric(q.coords)
    dirs = _orthogonal_triple(g0, tangent)
    n0 = np.zeros(4)
    n0[int(np.argmax(np.abs(g0 @ tangent)))] = 1.0

    y0 = np.concatenate([q.coords, tangent, n0, np.zeros(4)]
                        + [np.concatenate([np.zeros(4), d]) for d in dirs])
    y0 = _convert_columns(chart, y0[None, :], -1)  # transversal: dv(0) = -Gamma(K, N)
    sol = _single(chart, _rays(chart, y0, s_max, rel_tol, abs_tol, dense=True), s_max,
                  DenseSolution)
    s1 = sol.s1

    if grid_n < 2:
        return ConjugateScan((), True, s1)

    def det_at(s):
        cols = sol.state(s)[8:].reshape(4, 2, 4)[:, 0].T  # the J of each column
        return float(np.linalg.det(cols)) / s**3

    grid = np.linspace(s1 / grid_n, s1, grid_n)
    vals = np.array([det_at(s) for s in grid])
    zeros = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            zeros.append(grid[i])
            continue
        if vals[i] * vals[i + 1] < 0.0:
            lo, hi = grid[i], grid[i + 1]
            flo = vals[i]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = det_at(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            zeros.append(0.5 * (lo + hi))
    return ConjugateScan(tuple(zeros), False, s1)


def integrate_batch(chart: Chart, y0, n_jac=0, s_end=1.0,
                    rel_tol=REL_TOL, abs_tol=ABS_TOL):
    """Integrate n rays, each with n_jac Jacobi columns, from s = 0 to s_end.

    y0: (n, 8 + 8*n_jac) initial states, each column (J, W).  Each row is
    its own problem, with its own steps and chart-exit event, and ends
    landed, clipped or failed without stopping the others.  Returns
    (BatchSolution, steps), steps being the most accepted steps any one
    ray took (0 on a flat chart, where rays are exact).
    """
    y0 = np.asarray(y0, dtype=float)
    n, width = y0.shape
    if width != 8 + 8 * n_jac:
        raise InvalidInputError("batch state width does not match n_jac")
    # a ray that starts outside the chart fails there, untraced
    inside = np.asarray(chart.contains(y0[:, :4]), dtype=bool).reshape(n)
    run = _rays(chart, _convert_columns(chart, y0[inside], -1), s_end, rel_tol, abs_tol)
    states, s1 = y0.copy(), np.zeros(n)
    outcome = np.full(n, FAILED)
    reasons = ["start outside the chart domain"] * n
    states[inside] = _convert_columns(chart, run.y, +1)
    s1[inside], outcome[inside] = run.s1, run.outcome
    for i, reason in zip(np.flatnonzero(inside), run.reasons):
        reasons[i] = reason
    steps = int(run.steps.max()) if len(run.steps) else 0
    return BatchSolution(states, s1, outcome, reasons, s_end), steps
