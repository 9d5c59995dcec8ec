"""Geodesics, parallel transport, Jacobi fields and the exponential map.

The integrator is scipy's embedded Runge-Kutta 5(4) pair with dense output
(solve_ivp, method="RK45"); defaults rel_tol=1e-10, abs_tol=1e-12.  Chart
exit terminates integration early and returns the maximal partial solution
flagged as clipped, so cone tracing can report per-ray reach.

Every ray solve shares one right-hand side, _ray_rhs: a stack of rays,
each with n_jac Jacobi columns.  integrate_geodesic (n_jac = 0),
integrate_jacobi (1), detect_conjugate (4) and integrate_batch (any) all
run it through _solve.  Only integrate_batch, which has no chart-exit
event, freezes members that leave the domain; parallel_transport solves
its own (different) equation.

A Jacobi column is integrated as the coordinate variation (dx, dv) of the
ray, whose variational equation needs the connection and its first
derivatives (Chart.christoffel_derivs) but no curvature; then J = dx
exactly.  Callers see the covariant layout (J, W), W = DJ/ds: one helper,
_convert_columns, sets dv = W - Gamma(kappa', J) before a solve and
W = dv + Gamma(kappa', dx) on read-out.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp

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


@dataclass(frozen=True)
class GeodesicIVP:
    start: Event
    velocity: np.ndarray  # d kappa / d s components

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=float)
        if v.shape != (4,) or not np.all(np.isfinite(v)) or np.max(np.abs(v)) == 0.0:
            raise InvalidInputError("geodesic velocity must be 4 finite reals, not all zero")
        object.__setattr__(self, "velocity", v)


class DenseSolution:
    """Interpolable solution of one integrated system over [s0, s1].

    The parameter interval is oriented (s1 may be below s0 for backward
    integration); evaluation outside it raises.  `clipped` marks runs that
    were cut short by chart exit.

    state(s) takes a scalar or a 1-D array of s.  Column i of an array
    result has the bits of state(s[i]): each entry gets its own
    matrix-vector product with its step's interpolation matrix, as scipy's
    scalar call does.  (scipy's array call takes one matrix-matrix product
    per step, whose columns can differ in the last bit, so an entry would
    depend on the others.)
    """

    def __init__(self, interp, s0, s1, steps, clipped, n_state):
        self._interp = interp
        self.s0 = float(s0)
        self.s1 = float(s1)
        self.steps = int(steps)
        self.clipped = bool(clipped)
        self.n_state = int(n_state)
        self._stacked = None  # per-step interpolation data, built on the first array call

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
        if s.ndim == 0 or not isinstance(self._interp, OdeSolution):
            return self._interp(s)
        return self._rows(s).T

    def _rows(self, s):
        """The RK dense output (RkDenseOutput._call_impl) at each s, one row each."""
        if self._stacked is None:
            sol = self._interp
            parts = sol.interpolants
            # OdeSolution's step for a scalar s: searchsorted on the inner step
            # ends, counted from the end when the solution runs backward
            self._stacked = (sol.ts_sorted[1:-1], sol.side, not sol.ascending,
                             np.array([p.t_old for p in parts]), np.array([p.h for p in parts]),
                             np.stack([p.Q for p in parts]), np.stack([p.y_old for p in parts]))
        inner, side, backward, t_old, h, q, y_old = self._stacked
        seg = np.searchsorted(inner, s, side=side)
        if backward:
            seg = len(t_old) - 1 - seg
        x = (s - t_old[seg]) / h[seg]
        p = np.cumprod(np.repeat(x[:, None], q.shape[2], axis=1), axis=1)
        y = h[seg][:, None] * (q[seg] @ p[:, :, None])[:, :, 0]
        y += y_old[seg]
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

    def __init__(self, interp, s0, s1, steps, clipped, n_state, along):
        super().__init__(interp, s0, s1, steps, clipped, n_state)
        self.along = along

    def vector(self, s):
        return self.state(s)[:4]


class JacobiSolution(DenseSolution):
    """Jacobi field J and its covariant derivative along a geodesic.

    The state is the ray (kappa, kappa') followed by the variation
    (dx, dv), with J = dx (see _ray_rhs).
    """

    def __init__(self, interp, s0, s1, steps, clipped, along, chart):
        super().__init__(interp, s0, s1, steps, clipped, 16)
        self.along = along
        self.chart = chart

    def value(self, s):
        return self.state(s)[8:12]

    def derivative(self, s):
        """Covariant derivative of J along the geodesic at s."""
        st = self.state(s)
        w = _convert_columns(self.chart, np.atleast_2d(st.T), +1)[:, 12:16]
        return w[0] if st.ndim == 1 else w.T


def _const_interp(y0):
    y0 = np.array(y0, dtype=float)

    def interp(s):
        s = np.asarray(s)
        if s.ndim == 0:
            return y0.copy()
        return np.tile(y0[:, None], (1, s.size))  # scipy layout: (n_state, ns)

    return interp


def _solve(chart, rhs, y0, s_end, rel_tol, abs_tol, events=None):
    if s_end == 0.0:
        return _const_interp(y0), 0.0, 0, False
    sol = solve_ivp(
        rhs,
        (0.0, s_end),
        np.asarray(y0, dtype=float),
        method="RK45",
        dense_output=True,
        rtol=rel_tol,
        atol=abs_tol,
        events=events,
    )
    if sol.status == -1:
        raise IntegrationError(f"integrator failed on {chart.name}: {sol.message}")
    clipped = sol.status == 1
    s1 = sol.t[-1]
    if clipped and abs(s1) <= 1e-14 * max(1.0, abs(s_end)):
        raise EmptySolutionError("trajectory leaves the chart domain immediately")
    return sol.sol, s1, len(sol.t) - 1, clipped


def _domain_event(chart):
    """Terminal event a hair inside the boundary.

    Chart boundaries are typically coordinate-singular (the metric blows
    up there), so integrating to the exact boundary stalls the stepper.
    Firing at a small margin keeps the clipped solution well-conditioned.
    """
    if chart.boundary_fn is None:
        return None
    margin = 1e-6 * max(1.0, abs(chart.params.get("R", 1.0)))

    def event(s, y):
        return chart.boundary_distance(y[:4]) - margin

    event.terminal = True
    event.direction = -1
    return event


def _ray_rhs(chart: Chart, n_jac: int):
    """Right-hand side for a stack of rays, each with n_jac Jacobi columns.

    The flat state holds (n, 8 + 8*n_jac) rows: kappa (4), kappa' (4),
    then n_jac columns (dx, dv), the coordinate variation of the ray and
    of its velocity (the variational equation, Hairer-Norsett-Wanner,
    Solving ODEs I, sec. I.14):
        kappa''^k = -Gamma^k_ij kappa'^i kappa'^j
        dx'^k = dv^k
        dv'^k = -d_m Gamma^k_ij kappa'^i kappa'^j dx^m - 2 Gamma^k_ij kappa'^i dv^j
    The Jacobi field is J = dx exactly; its covariant derivative is
    W = dv + Gamma(kappa', dx) (see _convert_columns).  No curvature
    tensor is formed.
    """
    shape = (-1, 1 + n_jac, 2, 4)  # member, (ray, columns), (value, derivative)

    if chart.flat:
        def rhs(s, y):
            m = y.reshape(shape)
            out = np.zeros_like(m)
            out[:, :, 0] = m[:, :, 1]
            return out.ravel()

        return rhs

    def rhs(s, y):
        m = y.reshape(shape)
        out = np.empty_like(m)
        pos, vel = m[:, 0, 0], m[:, 0, 1]
        gam = chart.christoffels(pos)  # (n,4,4,4)
        out[:, 0, 0] = vel
        out[:, 0, 1] = -np.einsum("nkij,ni,nj->nk", gam, vel, vel)
        if n_jac:
            n = len(m)
            row = vel[:, None, None, :]
            vv = (vel[:, :, None] * vel[:, None, :]).reshape(n, 1, 1, 16)
            # coef[n, k] = (d_m Gamma^k(kappa', kappa'), 2 Gamma^k_ij kappa'^i), width 8;
            # matmul over the flattened (i, j) pair beat einsum at n = 1, 20 and 400
            coef = np.concatenate([
                np.matmul(vv, chart.christoffel_derivs(pos).reshape(n, 4, 16, 4)),
                2.0 * np.matmul(row, gam),
            ], axis=-1)[:, :, 0]
            cols = m[:, 1:]
            out[:, 1:, 0] = cols[:, :, 1]
            out[:, 1:, 1] = -np.matmul(cols.reshape(n, n_jac, 8), coef.transpose(0, 2, 1))
        return out.ravel()

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
    m = states.reshape(len(states), -1, 2, 4)
    gv = np.einsum("nkij,ni->nkj", chart.christoffels(m[:, 0, 0]), m[:, 0, 1])
    m[:, 1:, 1] += sign * np.einsum("nkj,ncj->nck", gv, m[:, 1:, 0])
    return states


def integrate_geodesic(chart: Chart, ivp: GeodesicIVP, s_end, rel_tol=REL_TOL,
                       abs_tol=ABS_TOL) -> GeodesicSolution:
    """Solve the autoparallel equation from the given initial data.

    Integrates kappa'' ^k + Gamma^k_ij kappa'^i kappa'^j = 0 up to s_end
    with adaptive step control.  If the trajectory exits the chart the
    partial solution up to the boundary is returned with clipped=True.
    """
    if ivp.start.chart_id != chart.name:
        raise InvalidInputError(f"event belongs to chart {ivp.start.chart_id!r}, not {chart.name!r}")
    if rel_tol <= 0 or abs_tol <= 0:
        raise InvalidInputError("tolerances must be positive")
    q0 = ivp.start.coords
    if not chart.contains(q0):
        raise OutOfChartError(f"start {q0} outside {chart.name} domain")
    bd = chart.boundary_distance(q0)
    if bd is not None and bd <= 1e-12 * max(1.0, abs(chart.params.get("R", 1.0))):
        raise EmptySolutionError("start point touches the chart boundary")

    y0 = np.concatenate([q0, ivp.velocity])
    interp, s1, steps, clipped = _solve(chart, _ray_rhs(chart, 0), y0, s_end, rel_tol,
                                        abs_tol, events=_domain_event(chart))
    return GeodesicSolution(interp, 0.0, s1, steps, clipped, 8)


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
    position interpolant.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (4,) or not np.all(np.isfinite(v0)):
        raise InvalidInputError("transported vector must be 4 finite reals")

    if chart.flat:
        def rhs(s, v):
            return np.zeros(4)
    else:
        def rhs(s, v):
            state = along.state(s)
            gam = chart.christoffels(state[:4])
            return -np.einsum("kij,i,j->k", gam, state[4:8], v)

    interp, s1, steps, clipped = _solve(chart, rhs, v0, along.s1, rel_tol, abs_tol)
    return TransportSolution(interp, 0.0, s1, steps, clipped, 4, along)


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
    y0 = _convert_columns(chart, y0[None, :], -1)[0]
    interp, s1, steps, clipped = _solve(chart, _ray_rhs(chart, 1), y0, geodesic.s1,
                                        rel_tol, abs_tol)
    return JacobiSolution(interp, 0.0, s1, steps, clipped, geodesic, chart)


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
    y0 = _convert_columns(chart, y0[None, :], -1)[0]  # transversal: dv(0) = -Gamma(K, N)
    interp, s1, steps, clipped = _solve(chart, _ray_rhs(chart, 4), y0, s_max, rel_tol,
                                        abs_tol, events=_domain_event(chart))

    if grid_n < 2:
        return ConjugateScan((), True, s1)

    def det_at(s):
        cols = interp(s)[8:].reshape(4, 2, 4)[:, 0].T  # the J of each column
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


# ---------------------------------------------------------------------------
# Batches of rays
#
# Used by the splitting layer, where thousands of rays with their map
# differentials are integrated per call.  No chart-exit events here, so
# the caller keeps batches inside the domain; a freeze guard stops a
# runaway member from stalling the shared step control.
# ---------------------------------------------------------------------------

def _freeze_outside(chart: Chart, rhs, width):
    """Wrap a batch RHS so members outside the domain stop moving.

    Such a member is evaluated at _fallback_point and its derivatives are
    zeroed; while every member is inside, rhs is called unchanged.
    """
    if chart.boundary_fn is None:
        return rhs
    margin = 1e-9 * max(1.0, abs(chart.params.get("R", 1.0)))

    def guarded(s, y):
        m = y.reshape(-1, width)
        outside = ~(chart.boundary_distance(m[:, :4]) > margin)  # NaN counts as outside
        if not outside.any():
            return rhs(s, y)
        m = m.copy()
        m[outside, :4] = _fallback_point(chart)
        out = rhs(s, m.ravel()).reshape(-1, width)
        out[outside] = 0.0
        return out.ravel()

    return guarded


def _fallback_point(chart: Chart):
    if chart.name == "schwarzschild":
        return np.array([0.0, 2.0 * chart.params["R"], np.pi / 2.0, 0.0])
    return np.zeros(4)


def integrate_batch(chart: Chart, y0, n_jac=0, s_end=1.0,
                    rel_tol=REL_TOL, abs_tol=ABS_TOL):
    """Integrate n stacked geodesic(+Jacobi) systems over one interval.

    y0: (n, 8 + 8*n_jac) initial states, each column (J, W).  Returns a
    callable interp(s) giving states shaped (n, width) in the same
    layout, plus the step count.
    """
    y0 = np.asarray(y0, dtype=float)
    n, width = y0.shape
    if width != 8 + 8 * n_jac:
        raise InvalidInputError("batch state width does not match n_jac")
    rhs = _freeze_outside(chart, _ray_rhs(chart, n_jac), width)
    y0 = _convert_columns(chart, y0, -1)
    interp, _, steps, _ = _solve(chart, rhs, y0.ravel(), s_end, rel_tol, abs_tol)
    return (lambda s: _convert_columns(chart, interp(s).reshape(n, width), +1)), steps
