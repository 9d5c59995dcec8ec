"""The kinematic observer mapping and relative kinematics.

The observer mapping sends observer coordinates (c*tau, x) to the
spacetime event seen in direction x at proper time tau: the endpoint of
the past-pointing lightlike geodesic with initial vector
-|x| X_0 + x^a X_a.  This module computes the map, its differential
through Jacobi fields, a multistart damped-Newton inverse, the tracked
relative motion of observed worldlines, clock rates, and the
relative-force decomposition into actual and pseudo parts, built from
the pulled-back metric and the connection in observer coordinates.

Observer coordinates carry x^0 = c*tau internally; reports expose tau in
seconds.  The coordinate origin x = 0 (the observer itself) is excluded.
Batches of points travel as float arrays of shape (n, 4) with rows
(tau, x^1, x^2, x^3).

Every ray goes through one entry, _trace.  When the chart has a ray chart
(charts.RayChart; Schwarzschild's is outgoing Eddington-Finkelstein), the
rays run there: start states go in through its coordinate map and
Jacobian, and end states come back, so every event, Jacobian and curve
this module returns is in the model chart.  The map is as accurate as its
rays: each ray keeps its own error norm, over its state in the ray chart's
components, within geodesics.REL_TOL and geodesics.ABS_TOL.  The
inversion's residual tolerance (MultistartConfig.inv_tol, scenario key
tol.inv) sits on top of that accuracy and cannot meaningfully be set below
it.  That stop rule is in the model chart's coordinates; the Newton
damping is not: a halved step is accepted by the natural monotonicity
test (Deuflhard 2004, sec. 3.3), which no linear change of the chart's
coordinates alters, and on a curved chart each step is bent to second
order along the chart's geodesic (_newton_polish).

Which batch serves which Jacobian: Newton maps every trial point with its
Jacobian, so the J of an accepted trial is the next step's J, the root
grade of invert_many (its condition number) and, in observe_curve, the
Jacobian behind tau' and dx/ds and the sample's J for its force; an
InversionResult carries it, so a cold start in observe_curve maps
nothing again.  Only seeds that come without one (the inversion's start
grid picks) and a tracked sample's Hessian batch (its state's 8
neighbours, for its acceleration and its force) are mapped with the
Jacobian outside a Newton trial.  Every one of these rays runs at
geodesics.REL_TOL and ABS_TOL; the start grid itself is mapped without
Jacobians at the ranking pair geodesics.RANK_REL_TOL and RANK_ABS_TOL,
since its images only drop starts and rank seeds and never reach Newton.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from . import geodesics
from .charts import Chart, metric_at
from .errors import (
    CriticalPointError,
    IllPosedForceError,
    InvalidInputError,
    LightconeError,
    UnreachableDirectionError,
)
from .geodesics import CLIPPED, BatchSolution, _exit_event, integrate_batch
from .lorentz import Event, CausalCharacter, causal_character
from .observers import FrameField, ObserverCurve


@dataclass(frozen=True)
class ObservedEvent:
    """Observer coordinates (tau, x) of a seen event; x = 0 is excluded."""

    tau: float
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (3,) or not np.all(np.isfinite(x)):
            raise InvalidInputError("observed position must be 3 finite reals")
        if np.max(np.abs(x)) == 0.0:
            raise InvalidInputError("observed position x = 0 is excluded (observer's own point)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "tau", float(self.tau))


@dataclass(frozen=True)
class InversionResult:
    preimages: List[ObservedEvent]
    residuals: np.ndarray
    conds: np.ndarray
    regular: np.ndarray
    n_starts: int
    n_converged: int
    images: np.ndarray     # (n, 4) the map at the preimages, as Newton returned it
    jacobians: np.ndarray  # (n, 4, 4) its Jacobian there
    origin_excluded: bool = False

    def __len__(self):
        return len(self.preimages)


@dataclass(frozen=True)
class RelativeMotionSample:
    s: float
    tau: float
    x: np.ndarray
    tau_dot: float
    v: np.ndarray         # dx/dtau
    dv_dtau: np.ndarray
    tau_ddot: float       # d^2 tau / ds^2 along the worldline parameter
    character: str
    event: np.ndarray     # the map at (tau, x) and its Jacobian in (c tau, x), as Newton
    jacobian: np.ndarray  # returned them; its Hessian from the sample's _map_hessian
    hessian: np.ndarray   # batch (NaN where a ray of that batch did not land)
    not_an_observer: bool = False
    ambiguous: bool = False
    start: str = "warm"   # where Newton found the state: "cold", "warm" or "continued"


@dataclass(frozen=True)
class ForceBreakdown:
    """Relative force split into the actual force and the four pseudo terms."""

    total: np.ndarray
    actual_part: np.ndarray
    pseudo_time_time: np.ndarray   # -m c^2 Ups^c_00
    pseudo_clock: np.ndarray       # -m (tau''/tau'^2) v^c
    pseudo_mixed: np.ndarray       # -2 m c Ups^c_0a v^a
    pseudo_quadratic: np.ndarray   # -m Ups^c_ab v^a v^b

    @property
    def pseudo_parts(self):
        return (self.pseudo_time_time, self.pseudo_clock,
                self.pseudo_mixed, self.pseudo_quadratic)


@dataclass(frozen=True)
class MultistartConfig:
    """Start grid and Newton controls for observer-map inversion.

    The box tau_range x (x_center +- x_halfwidth) must be finite with 3
    entries in x_center and x_halfwidth >= 0, the grid and seed counts
    n_tau, n_x and top_k at least 1, and inv_tol finite and > 0; anything
    else raises InvalidInputError.  Roots are merged within _MERGE_TOL and
    graded regular below _COND_MAX, both fixed.
    """

    tau_range: tuple
    x_halfwidth: float
    x_center: tuple = (0.0, 0.0, 0.0)
    n_tau: int = 9
    n_x: int = 9
    top_k: int = 16
    inv_tol: float = 1e-10

    def __post_init__(self):
        if len(self.x_center) != 3:
            raise InvalidInputError(f"x_center needs 3 entries, not {len(self.x_center)}")
        box = np.asarray([*self.tau_range, self.x_halfwidth, *self.x_center], dtype=float)
        if not (np.all(np.isfinite(box)) and self.x_halfwidth >= 0):
            raise InvalidInputError("the search box must be finite, with x_halfwidth >= 0")
        if min(self.n_tau, self.n_x, self.top_k) < 1:
            raise InvalidInputError("n_tau, n_x and top_k must each be at least 1")
        if not (np.isfinite(self.inv_tol) and self.inv_tol > 0):
            raise InvalidInputError(f"inv_tol must be finite and > 0, not {self.inv_tol}")


# -- map evaluation ----------------------------------------------------------

def _cone_components(x):
    """Frame components (-|x|, x^1, x^2, x^3) of the cone vector, for x of shape (..., 3).

    |x| is summed as ndarray.dot sums it, so a row of a batch gets the
    same bits as that point alone.
    """
    r = np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0]
    return np.concatenate([-r, x], axis=-1)


def cone_vector(frames: FrameField, tau, x):
    """Past-lightlike initial vector -|x| X_0 + x^a X_a in chart components."""
    return frames.matrix(tau) @ _cone_components(np.asarray(x, dtype=float))


def _point(tau, x):
    """The one-row batch (tau, x^1, x^2, x^3) of a single point."""
    return np.concatenate([[tau], x])[None, :]


def _map_states(frames: FrameField, pts, with_jacobian):
    """Initial batch states for map (width 8) or map+differential (width 40).

    pts: (n, 4) rows (tau, x).  A state is blocks of 8 = (J, W): the ray
    (position, cone vector) first, then with the Jacobian the temporal
    column, J(0) = gamma'/c with W(0) from the frame's covariant
    derivatives, and the three spatial columns, J(0) = 0 with W(0) along
    the light-cone chart directions X_a - (x^a/|x|) X_0.  The frame, the
    observer position and (with the Jacobian) the covariant derivatives
    come from one array call each over the column of tau.
    """
    taus, x = pts[:, 0], pts[:, 1:]
    n = len(pts)
    mats = frames.matrix(taus)
    comps = _cone_components(x)
    y0 = np.zeros((n, 5 if with_jacobian else 1, 8))
    y0[:, 0, :4] = frames.curve.position(taus)
    y0[:, 0, 4:] = (mats @ comps[:, :, None])[:, :, 0]
    if with_jacobian:
        derivs = frames.cov_deriv(taus)
        y0[:, 1, :4] = mats[:, :, 0]
        y0[:, 1, 4:] = (derivs @ comps[:, :, None])[:, :, 0] / frames.curve.c
        xhat = x / -comps[:, :1]  # comps[:, 0] holds -|x|
        y0[:, 2:, 4:] = (mats[:, :, 1:] - mats[:, :, :1] * xhat[:, None, :]).transpose(0, 2, 1)
    return y0.reshape(n, 8 * y0.shape[1])


def _trace(chart, y0, n_jac, *, tol=None):
    """The one ray entry: integrate_batch of model-chart states y0 to s = 1.

    With a ray chart the rays run there: positions go in through its
    coordinate map and every vector (velocity, J, W) through Lambda, and
    the end states come back through Lambda^-1, so the result is in the
    model chart.  Clipped ends are first put onto the exit surface
    (_onto_exit).  A ray that never left its start keeps its start bits.
    tol is integrate_batch's tolerance pair: the ray tolerance unless given.
    """
    rays = chart.ray_chart
    if rays is None:
        return integrate_batch(chart, y0, n_jac, tol=tol)[0]
    sol, _ = integrate_batch(rays.chart, rays.states_to_ray(y0), n_jac, tol=tol)
    _onto_exit(rays.chart, sol)
    sol.states = np.where((sol.s1 == 0.0)[:, None], y0, rays.states_from_ray(sol.states))
    return sol


def _onto_exit(chart, sol):
    """Move the clipped ends of a batch along their rays onto the exit event's zero.

    Brent's method (geodesics._brent) puts each crossing within
    4 eps (1 + |s1|) of the event's zero in s, and the end read off the step's interpolant is a few ulps off
    the exit surface; the map back to the model chart can multiply that
    (by 1/f, about 1e6, in Schwarzschild t at the horizon margin).  One
    Newton step along the ray's velocity, held inside that bracket, puts
    the position on the surface.  The velocity and the Jacobi columns
    would move by less than their rounding and are kept.
    """
    i = np.flatnonzero(sol.outcome == CLIPPED)
    event = _exit_event(chart)
    pos, vel = sol.states[i, :4], sol.states[i, 4:8]
    # the event's slope along the ray, over a parameter step that moves the
    # position by 1e-9 of its size, far inside the margin
    ds = 1e-9 * (1.0 + np.max(np.abs(pos), axis=1)) / np.max(np.abs(vel), axis=1)
    slope = (event(pos + ds[:, None] * vel) - event(pos - ds[:, None] * vel)) / (2.0 * ds)
    step = np.divide(-event(pos), slope, out=np.zeros(len(i)), where=slope != 0.0)
    bracket = 4.0 * np.finfo(float).eps * (1.0 + np.abs(sol.s1[i]))
    sol.states[i, :4] = pos + np.clip(step, -bracket, bracket)[:, None] * vel


def observer_rays(chart: Chart, frames: FrameField, pts) -> BatchSolution:
    """The seen light rays at an (n, 4) array of points (tau, x), as one batch.

    Each ray runs to unit parameter or until it leaves the chart, and the
    result says, per ray, where it ended, in the model chart, and whether
    it landed, clipped or failed.
    """
    return _trace(chart, _map_states(frames, np.asarray(pts, dtype=float), False), 0)


def _eval_batch(chart, frames, pts, with_jacobian, *, tol=None):
    """Map (and optionally Jacobian) for an (n, 4) array of points (tau, x).

    Returns (events (n,4), jacobians (n,4,4) or None).  Jacobian columns
    are derivatives with respect to (c*tau, x^1, x^2, x^3).  The rows of a
    ray that does not land (it clips at the chart boundary or fails) are
    NaN.  tol is the rays' tolerance pair (see _trace).
    """
    out = _trace(chart, _map_states(frames, pts, with_jacobian), 4 if with_jacobian else 0,
                 tol=tol).ends
    events = out[:, 0:4]
    if not with_jacobian:
        return events, None
    return events, out.reshape(len(out), 5, 8)[:, 1:, :4].transpose(0, 2, 1)


def _eval_landed(chart, frames, pts, with_jacobian):
    """_eval_batch where every ray must land; one that does not raises."""
    events, jacs = _eval_batch(chart, frames, pts, with_jacobian)
    lost = np.isnan(events).any(axis=1)
    if lost.any():
        raise UnreachableDirectionError(
            f"the ray at (tau, x) = {pts[lost][0]} leaves {chart.name} before landing")
    return events, jacs


def kinematic_observer_map(chart: Chart, frames: FrameField, p: ObservedEvent) -> Event:
    """Spacetime event seen at observer coordinates (tau, x)."""
    events, _ = _eval_landed(chart, frames, _point(p.tau, p.x), False)
    return Event(chart.name, events[0])


def observer_map_jacobian(chart: Chart, frames: FrameField, p: ObservedEvent) -> np.ndarray:
    """Differential of the kinematic map at p, columns d phi / d(c tau, x^a).

    Each column is the endpoint value of a Jacobi field along the seen
    light ray; the temporal column carries the frame's covariant
    derivatives in its initial data, the spatial ones the light-cone
    chart directions.
    """
    _, jac = _eval_landed(chart, frames, _point(p.tau, p.x), True)
    return jac[0]


# -- inversion ---------------------------------------------------------------

_CHUNK = 512  # targets per Newton batch in invert_many
_MAX_NEWTON = 50  # Newton iterations of a member before it is given up
_MAX_HALVINGS = 25  # step halvings within one iteration before a member is dropped
_MERGE_TOL = 1e-6  # roots this close (max norm) are one; a root this near x = 0 is the origin
_COND_MAX = 1e8  # a root is regular when cond(J) is below this


def _start_grid(cfg: MultistartConfig):
    """Multistart rows (tau, x), tau-major then x1, x2, x3; x = 0 excluded."""
    taus = np.linspace(cfg.tau_range[0], cfg.tau_range[1], cfg.n_tau)
    axes = [np.linspace(c - cfg.x_halfwidth, c + cfg.x_halfwidth, cfg.n_x)
            for c in cfg.x_center]
    grid = np.stack(np.meshgrid(taus, *axes, indexing="ij"), axis=-1).reshape(-1, 4)
    keep = ~(np.linalg.norm(grid[:, 1:], axis=1) < 1e-9 * max(1.0, cfg.x_halfwidth))
    return grid[keep]


def _tau_bounds(frames):
    lo, hi = frames.interval
    pad = 1e-9 * (hi - lo)
    return lo + pad, hi - pad


def _cone_bend(x, dx):
    """|x + dx| - |x| - (x/|x|).dx per row: how far |x| bends off its tangent along dx."""
    r = np.linalg.norm(x, axis=1)
    return np.linalg.norm(x + dx, axis=1) - r - np.sum(x * dx, axis=1) / r


def _newton_polish(chart, frames, targets, states, cfg, seeds=None):
    """Damped Newton on a batch of (target, state) pairs.

    states: (m, 4) rows (tau, x1, x2, x3); seeds: their forward images and
    Jacobians, (images (m, 4), jacobians (m, 4, 4)), if already mapped,
    else they are mapped here in one map+Jacobian batch.  Returns (states,
    residual_norm, converged mask, images, jacobians), the last two at the
    returned states (NaN rows where a state was never admissible or its ray
    did not land); members that leave the admissible region, whose ray
    does not land, or that find no acceptable step in _MAX_HALVINGS
    halvings are dropped from the active set, and none runs more than
    _MAX_NEWTON iterations.

    The full step dxi solves J dxi = -r in (c tau, x), with r = phi(xi) -
    target.  On a flat chart the trial at step factor lam is xi + lam dxi.
    Off one, the image of that straight step would be a geodesic of the
    model chart, which drifts from the chart line phi - lam r by
    -lam^2 S(phi, r) / 2 to second order (S = Chart.spray, quadratic in
    its vector, and J dxi = -r); the trial is xi + lam dxi + lam^2 b with
    the bend b = J^-1 S(phi, r) / 2, which cancels that drift (a
    second-order retraction, Absil, Mahony & Sepulchre, Optimization
    Algorithms on Matrix Manifolds, 2008, ch. 6).  For a member whose frame
    is parallel along its seen ray (cov_deriv(tau) takes the cone vector
    (-|x|, x) to exactly zero) the retarded time sigma = c tau - |x| moves
    as the trial's other slots do, so c tau also gets the cone's
    second-order term |x + dx| - |x| - x.dx/|x| (_cone_bend) of the
    trial's whole move dx in x.  The map of an inertial observer in flat
    space is affine in (sigma, x), so one step lands on its root; a
    spherical chart of flat space only bends that map's image, which the
    bend follows, so a free faller's trials are off the root by curvature
    only.  A trial is accepted, halving lam from 1, by the natural
    monotonicity test |J^-1 r(trial)| < |dxi|, with the J of this step
    (Deuflhard, Newton Methods for Nonlinear Problems, 2004, sec. 3.3).
    Neither the test nor the bend changes under a linear change of the
    chart's coordinates (the spray transforms as a vector), so the chart's
    mix of units (metres with radians in Schwarzschild) does not shorten
    the steps.  The stop rule |r| <= inv_tol (1 + max|target|) stays in
    chart coordinates.

    Every trial is mapped together with its Jacobian, so an accepted
    trial's J is the next iteration's J: past the seeds, each halving is
    one batch and no iteration makes a Jacobian batch of its own.  The
    bend costs one spray call per iteration and a second right-hand side
    in the same solve, and maps nothing.
    """
    c = frames.curve.c
    tau_lo, tau_hi = _tau_bounds(frames)
    m = len(states)
    states = np.array(states, dtype=float)
    targets = np.asarray(targets, dtype=float)
    scale = 1.0 + np.max(np.abs(targets), axis=1)
    guard = 1e-13 * float(np.max(scale, initial=1.0))

    def admissible(st):
        return (
            (st[:, 0] >= tau_lo) & (st[:, 0] <= tau_hi)
            & (np.linalg.norm(st[:, 1:], axis=1) > guard)
        )

    active = np.flatnonzero(admissible(states))
    images = np.full((m, 4), np.nan)
    jacs = np.full((m, 4, 4), np.nan)
    if seeds is not None:
        images[active], jacs[active] = seeds[0][active], seeds[1][active]
    elif len(active):
        images[active], jacs[active] = _eval_batch(chart, frames, states[active], True)
    resid = images - targets
    resid[np.isnan(resid).any(axis=1)] = np.inf  # not admissible, or the ray did not land
    rnorm = np.linalg.norm(resid, axis=1)
    converged = rnorm <= cfg.inv_tol * scale
    active = active[~converged[active] & np.isfinite(rnorm[active])]

    for _ in range(_MAX_NEWTON):
        if len(active) == 0:
            break
        jac = jacs[active]  # this step's J, kept while accepted trials overwrite jacs
        # solve J dxi = -r in (c tau, x) variables and, off a flat chart, the
        # bend J b = S(phi, r) / 2 that cancels the chart geodesic's drift
        ok = np.abs(np.linalg.det(jac)) > 1e-300
        rhs = -resid[active][:, :, None]
        if not chart.flat:
            spray = chart.spray(images[active], resid[active])
            rhs = np.concatenate([rhs, 0.5 * spray[:, :, None]], axis=2)
        sol = np.zeros(rhs.shape)
        if np.any(ok):
            sol[ok] = np.linalg.solve(jac[ok], rhs[ok])
        step_norm = np.linalg.norm(sol[:, :, 0], axis=1)
        sol[:, 0] /= c  # first slot of the state is tau, not c*tau
        steps = sol[:, :, 0]
        # members whose frame is parallel along the seen ray: their trials move
        # the retarded time sigma = c tau - |x|, not tau, as they move x
        now = states[active]
        drift = frames.cov_deriv(now[:, 0]) @ _cone_components(now[:, 1:])[:, :, None]
        parallel = ~np.any(drift, axis=(1, 2))

        lam = np.ones(len(active))
        improved = np.zeros(len(active), dtype=bool)
        for _halve in range(_MAX_HALVINGS):
            rows = np.flatnonzero(~improved & ok)
            if len(rows) == 0:
                break
            move = lam[rows, None] * steps[rows]
            if not chart.flat:
                move += lam[rows, None] ** 2 * sol[rows, :, 1]
            cand = states[active[rows]] + move
            cone = parallel[rows]
            if np.any(cone):
                cand[cone, 0] += _cone_bend(now[rows[cone], 1:], move[cone, 1:]) / c
            cand_ok = admissible(cand)
            if np.any(cand_ok):
                sub = rows[cand_ok]
                ev, jj = _eval_batch(chart, frames, cand[cand_ok], True)
                rr = ev - targets[active[sub]]
                # natural monotonicity test: the trial residual carried back
                # through this step's Jacobian is shorter than the full step
                z = np.linalg.solve(jac[sub], rr[:, :, None])[:, :, 0]
                better = np.linalg.norm(z, axis=1) < step_norm[sub]
                good = active[sub[better]]  # accepted: written straight back
                states[good], images[good] = cand[cand_ok][better], ev[better]
                jacs[good] = jj[better]
                improved[sub[better]] = True
            lam[~improved] *= 0.5

        if not np.any(improved):
            break
        moved = active[improved]
        resid[moved] = images[moved] - targets[moved]
        rnorm = np.linalg.norm(resid, axis=1)
        converged = rnorm <= cfg.inv_tol * scale
        active = moved[~converged[moved]]

    return states, rnorm, converged, images, jacs


def _near_worldline(frames, target, tol):
    curve = frames.curve
    lo, hi = curve.interval
    taus = np.linspace(lo, hi, 101)
    d = np.min(np.max(np.abs(curve.position(taus) - target), axis=1))
    return d < tol


def invert_observer_map(chart: Chart, frames: FrameField, target: Event,
                        search: MultistartConfig) -> InversionResult:
    """All observer-coordinate preimages of a spacetime event in a box.

    A batch of one through invert_many, which holds the only inversion
    implementation.  An empty result is diagnostic, not an error: the
    event may be outside the seen region, or on the worldline itself
    (origin excluded).
    """
    return invert_many(chart, frames, target.coords[None, :], search)[0]


def invert_many(chart: Chart, frames: FrameField, targets,
                search: MultistartConfig) -> List[InversionResult]:
    """Invert the observer map for many targets sharing one start grid.

    The start grid is mapped forward once, its rays at the ranking pair
    geodesics.RANK_REL_TOL and RANK_ABS_TOL: their images only drop
    starts and rank seeds, and Newton maps every seed again at the ray
    tolerance.  Starts outside the observer's tau interval (where Newton
    could not move them either) and starts whose ray does not land are
    never seeds; n_starts still counts the whole grid.  Each target keeps
    the search.top_k starts (at most the landed starts) with the smallest
    forward residual, and damped Newton runs on all targets' seeds as
    batches of _CHUNK targets.
    Converged roots are deduplicated and sorted by coordinates, so a
    target's outcome does not depend on start order; each root is graded
    by the condition number of the Jacobian Newton returned with it.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1, 4)
    if len(targets) == 0:
        return []
    starts = _start_grid(search)
    if len(starts) == 0:
        raise InvalidInputError("the multistart grid is empty: its only point is the "
                                "excluded observer position x = 0")
    n_starts = len(starts)
    tau_lo, tau_hi = _tau_bounds(frames)
    starts = starts[(starts[:, 0] >= tau_lo) & (starts[:, 0] <= tau_hi)]
    ev = _eval_batch(chart, frames, starts, False,
                     tol=(geodesics.RANK_REL_TOL, geodesics.RANK_ABS_TOL))[0]
    landed = ~np.isnan(ev).any(axis=1)
    starts, ev = starts[landed], ev[landed]

    k = min(search.top_k, len(starts))
    results: List[InversionResult] = []
    for base in range(0, len(targets), _CHUNK):
        tgt_chunk = targets[base:base + _CHUNK]
        # per-target seed selection by forward residual
        d = np.linalg.norm(ev[None, :, :] - tgt_chunk[:, None, :], axis=2)
        picks = np.argsort(d, axis=1, kind="stable")[:, :k].ravel()
        flat_targets = np.repeat(tgt_chunk, k, axis=0)
        states, rnorm, converged, images, jacs = _newton_polish(
            chart, frames, flat_targets, starts[picks], search
        )
        found = []
        for i in range(len(tgt_chunk)):
            rows = slice(i * k, (i + 1) * k)
            ok = converged[rows]
            found.append(_distinct_roots(states[rows][ok], rnorm[rows][ok], images[rows][ok],
                                         jacs[rows][ok]))
        results += _grade_roots(frames, tgt_chunk, found, n_starts)
    return results


def _distinct_roots(roots, rres, images, jacs):
    """Converged roots off the origin, sorted by coordinates and deduplicated.

    Returns (roots, residuals, images, Jacobians, whether a root at the
    origin was dropped).
    """
    at_origin = np.linalg.norm(roots[:, 1:], axis=1) <= _MERGE_TOL
    rows = np.flatnonzero(~at_origin)
    rows = rows[np.lexsort((roots[rows, 3], roots[rows, 2], roots[rows, 1], roots[rows, 0]))]
    keep = []
    for i in rows:
        if not any(np.max(np.abs(roots[i] - roots[j])) <= _MERGE_TOL for j in keep):
            keep.append(i)
    return roots[keep], rres[keep], images[keep], jacs[keep], bool(np.any(at_origin))


def _grade_roots(frames, targets, found, n_starts):
    """One InversionResult per target from its _distinct_roots tuple."""
    results = []
    for tgt, (roots, rres, images, jacs, origin) in zip(targets, found):
        cond = np.linalg.cond(jacs) if len(roots) else np.empty(0)
        if len(roots) == 0:
            origin = origin or _near_worldline(frames, tgt, 1e-6 * (1.0 + np.max(np.abs(tgt))))
        preimages = [ObservedEvent(row[0], row[1:]) for row in roots]
        results.append(InversionResult(preimages, rres, cond, cond < _COND_MAX,
                                       n_starts, len(roots), images, jacs,
                                       origin_excluded=origin))
    return results


# -- relative motion ---------------------------------------------------------

class MappedCurve:
    """Forward image of a fixed observer-coordinate point: s -> phi(c s, x).

    position and velocity are both computed through the map machinery;
    the tangent is the push-forward of d/d tau, whose causal character
    decides whether a physical observer can sit at x at all.  Both take a
    scalar s, giving (4,), or a 1-D array, giving (n, 4) through one map
    batch; a ray that does not land raises UnreachableDirectionError.
    """

    def __init__(self, chart, frames, x):
        self.chart = chart
        self.frames = frames
        self.x = np.asarray(x, dtype=float)
        self.interval = frames.interval

    def _points(self, s):
        s = np.asarray(s, dtype=float)
        pts = np.concatenate([s.reshape(-1, 1), np.tile(self.x, (s.size, 1))], axis=1)
        return pts, s.ndim == 0

    def position(self, s):
        pts, scalar = self._points(s)
        ev, _ = _eval_landed(self.chart, self.frames, pts, False)
        return ev[0] if scalar else ev

    def velocity(self, s):
        pts, scalar = self._points(s)
        _, jac = _eval_landed(self.chart, self.frames, pts, True)
        vel = self.chart.c * jac[:, :, 0]  # phi_* d/dtau = c * column 0
        return vel[0] if scalar else vel


def comoving_worldline(chart: Chart, frames: FrameField, x) -> MappedCurve:
    return MappedCurve(chart, frames, x)


def observe_curve(chart: Chart, frames: FrameField, worldline, s_samples,
                  search: MultistartConfig, start=None) -> List[RelativeMotionSample]:
    """Track a worldline through the observer's eyes.

    Inverts the observer map at every sample of the worldline parameter,
    follows the preimage branch that stays closest to the previous sample
    (ties within _MERGE_TOL are flagged ambiguous, never silently picked:
    lensing makes multiple branches physical), and differentiates the
    tracked coordinates to relative velocity and acceleration.  Branch
    loss truncates the report rather than failing.

    Each sample but the last makes a one-row Newton batch, the next sample's
    target seeded at this sample's state, image and Jacobian: its warm
    start.  A sample whose warm start fails inverts cold over the search
    box through invert_observer_map and takes the preimage nearest the
    previous state, with the image and Jacobian Newton returned there.

    The first sample's branch: with start, a (tau, x^1, x^2, x^3) row
    such as the first state of the same worldline at a nearby speed of
    light, Newton runs from that one row, and the root it reaches is the
    first state (sample.start "continued"), not flagged ambiguous, as a
    warm sample is not.  Without start, or when Newton from it does not
    converge to a root off the origin, the first sample inverts cold and
    takes the lexicographically first preimage (sample.start "cold"),
    flagged ambiguous when the box holds more than one.  The two agree
    whenever the root is unique.

    phi(xi(s)) = lambda(s), xi = (c tau, x), differentiated once and twice
    gives xi' = J^-1 lambda', with the J Newton returned, and xi'' =
    J^-1 (lambda'' - H(xi', xi')), with lambda'' from _worldline_acceleration
    and H from the sample's one _map_hessian batch; the sample keeps the
    image, J and H for relative_force.  A sample whose Hessian batch loses
    a ray, or steps past the frame interval, keeps tau' and v, with NaN
    tau'' and dv/dtau.
    """
    s_samples = np.asarray(s_samples, dtype=float)
    c = frames.curve.c

    samples: List[RelativeMotionSample] = []
    prev = None   # the previous sample's state
    warm = None   # this sample's (state, image, Jacobian) from the previous batch
    target = np.asarray(worldline.position(s_samples[0]), dtype=float) if len(s_samples) else None
    for i, s in enumerate(s_samples):
        ambiguous = False
        if i == 0 and start is not None:
            warm = _continued(chart, frames, target, start, search)
        how = "warm" if i else "continued"  # unless it inverts cold below
        if warm is not None:
            state, image, jac = warm
        else:
            how = "cold"
            res = invert_observer_map(chart, frames, Event(chart.name, target), search)
            if len(res) == 0:
                break
            rows = np.array([[p.tau, *p.x] for p in res.preimages])
            if prev is None:
                best, near = 0, len(rows)
            else:
                dists = np.max(np.abs(rows - prev), axis=1)
                best = np.argmin(dists)
                near = np.sum(dists <= dists[best] + _MERGE_TOL)
            ambiguous = near > 1
            state, image, jac = rows[best], res.images[best], res.jacobians[best]
        prev = state

        # the next sample's target and warm start: one Newton row
        after, warm = None, None
        if i + 1 < len(s_samples):
            after = np.asarray(worldline.position(s_samples[i + 1]), dtype=float)
            stn, _, conv, en, jn = _newton_polish(chart, frames, after[None], state[None],
                                                  search, (image[None], jac[None]))
            warm = (stn[0], en[0], jn[0]) if conv[0] else None

        lam = np.asarray(worldline.velocity(s), dtype=float)
        xi_dot = np.linalg.solve(jac, lam)  # d(c tau, x)/ds
        tau_dot = xi_dot[0] / c
        hess = _map_hessian(chart, frames, state)
        lam_ddot = _worldline_acceleration(chart, worldline, s, target, lam)
        xi_ddot = np.linalg.solve(jac, lam_ddot - np.einsum("lij,i,j->l", hess, xi_dot, xi_dot))
        tau_ddot = xi_ddot[0] / c
        if tau_dot != 0.0:
            v = xi_dot[1:] / tau_dot
            dv_dtau = (xi_ddot[1:] - v * tau_ddot) / tau_dot**2
        else:
            v, dv_dtau = np.full(3, np.nan), np.full(3, np.nan)

        g = metric_at(chart, target)
        char = causal_character(g, lam, tol=1e-9 * max(1.0, float(np.max(np.abs(lam)))**2))
        not_obs = char in (CausalCharacter.SPACELIKE, CausalCharacter.ZERO)
        if char is CausalCharacter.TIMELIKE and tau_dot <= 0.0:
            raise LightconeError(
                f"time consistency violated: tau'={tau_dot} for a timelike worldline"
            )
        samples.append(RelativeMotionSample(
            s=float(s), tau=float(state[0]), x=state[1:].copy(),
            tau_dot=float(tau_dot), v=v, dv_dtau=dv_dtau, tau_ddot=float(tau_ddot),
            character=char.value, event=image, jacobian=jac, hessian=hess,
            not_an_observer=not_obs, ambiguous=ambiguous, start=how,
        ))
        target = after
    return samples


def _worldline_acceleration(chart, worldline, s, position, velocity):
    """lambda'' at s: a worldline's coordinate acceleration, lambda(s) = position.

    A - S(lambda, lambda') for an ObserverCurve (A its thrust), c^2 H[:, 0, 0]
    at (s, x) for a MappedCurve, and -S(lambda, lambda') for a free GeodesicSolution.
    H[:, 0, 0] is the central difference of the Jacobian's column 0 over
    its two rows (s +- _FD_STEP / c, x), with _map_hessian's bits.
    """
    if isinstance(worldline, MappedCurve):
        pt = np.array([s, *worldline.x])
        jac = _neighbour_jacobians(worldline.chart, worldline.frames, pt, 1)
        return chart.c**2 * ((jac[0, :, 0] - jac[1, :, 0]) / (2.0 * _FD_STEP))
    thrust = worldline.acceleration(s) if isinstance(worldline, ObserverCurve) else 0.0
    return thrust - chart.spray(position, velocity)


def _continued(chart, frames, target, start, search):
    """(state, image, Jacobian) Newton reaches from one start row, or None.

    None when Newton does not converge, or converges onto the excluded
    origin, so that the caller inverts cold.
    """
    states, _, conv, images, jacs = _newton_polish(
        chart, frames, target[None], np.asarray(start, dtype=float).reshape(1, 4), search)
    if conv[0] and np.linalg.norm(states[0, 1:]) > _MERGE_TOL:
        return states[0], images[0], jacs[0]
    return None


# -- clock rates and forces ---------------------------------------------------

def force_zero_component(alpha, v, c, inv_jacobian, f_spatial) -> float:
    """Time component of a force four-vector from orthogonality to the motion.

    Solves g(gamma', F') = 0 for F'^0 given the spatial chart components,
    using only observer-coordinate data: the pulled-back metric and the
    columns of the inverse map Jacobian.
    """
    alpha = np.asarray(alpha, dtype=float)
    w = np.asarray(inv_jacobian, dtype=float)
    f_spatial = np.asarray(f_spatial, dtype=float)
    v = np.asarray(v, dtype=float)
    u = alpha[0, :] + (v @ alpha[1:, :]) / c
    uw = u @ w
    if abs(uw[0]) < 1e-300:
        raise IllPosedForceError("zero-component reconstruction has vanishing denominator")
    return float(-(uw[1:] @ f_spatial) / uw[0])


_FD_STEP = 1e-4  # central step in (c*tau, x) of the map's Jacobian, for its Hessian


def _neighbour_jacobians(chart, frames, pt, axes):
    """The map's Jacobians at pt +- _FD_STEP e_i, i < axes, as one batch.

    e_i are the unit vectors of (x^0 = c*tau, x^a) at pt = (tau, x); the
    rows are pt + _FD_STEP e_i, then pt - _FD_STEP e_i, (2 axes, 4, 4).  A
    row whose tau lies outside the frame interval counts as a ray that did
    not land: its Jacobian is NaN, as a clipped or failed ray's is.
    """
    c = frames.curve.c
    base = np.array([c * pt[0], *pt[1:]])
    step = _FD_STEP * np.eye(4)[:axes]
    rows = np.concatenate([base + step, base - step])
    rows[:, 0] /= c
    lo, hi = frames.interval
    inside = (rows[:, 0] >= lo) & (rows[:, 0] <= hi)
    jac = np.full((len(rows), 4, 4), np.nan)
    jac[inside] = _eval_batch(chart, frames, rows[inside], True)[1]
    return jac


def _map_hessian(chart, frames, pt):
    """Finite-difference Hessian of the map at pt = (tau, x), in (c*tau, x).

    hess[l, i, j] = d^2 kappa^l / dx^i dx^j is the central difference of
    the 8 neighbours' Jacobians (_neighbour_jacobians), symmetrized; a
    neighbour whose ray does not land leaves a NaN Hessian.
    """
    jac = _neighbour_jacobians(chart, frames, pt, 4)
    hess = ((jac[:4] - jac[4:]) / (2.0 * _FD_STEP)).transpose(1, 0, 2)
    return 0.5 * (hess + hess.transpose(0, 2, 1))


def _jacobian_christoffels(chart, event, j, hess):
    """(Ups, J^-1): the chart connection carried to observer coordinates.

    Ups = J^-1 (Gamma(J, J) + H), with Gamma(J, J) as matrix products:
    einsum over Gamma and both J would walk J by its memory order, at
    twice the cost for Newton's row-major J.
    """
    if np.isnan(hess).any():
        raise UnreachableDirectionError("a ray of the map's Hessian batch did not land")
    if abs(np.linalg.det(j)) < 1e-12:
        raise CriticalPointError("observer map is singular at this point")
    w = np.linalg.inv(j)
    gam = chart.christoffels(event)
    ups = np.einsum("cl,lij->cij", w, j.T @ gam @ j + hess)
    return ups, w


def relative_force(m, chart: Chart, frames: FrameField, sample: RelativeMotionSample,
                   f_spatial) -> ForceBreakdown:
    """Decompose the relative force on an observed point mass.

    Combines the actual force (mapped to observer coordinates and scaled
    by the clock rate) with the four geometric pseudo-force terms built
    from the transformed connection, the sample's clock-rate derivative
    tau'' and the relative velocity.  The parts sum to total by construction.
    It maps nothing: the map's derivatives are the sample's (a NaN Hessian raises).
    """
    c = frames.curve.c
    event, jac, hess = sample.event, sample.jacobian, sample.hessian
    ups, w = _jacobian_christoffels(chart, event, jac, hess)
    alpha = jac.T @ metric_at(chart, event) @ jac
    v = sample.v
    td = sample.tau_dot

    f_spatial = np.asarray(f_spatial, dtype=float)
    f0 = force_zero_component(alpha, v, c, w, f_spatial)
    f_full = np.concatenate([[f0], f_spatial])

    actual = (w[1:, :] @ f_full) / td**2
    pseudo_tt = -m * c**2 * ups[1:, 0, 0]
    pseudo_clock = -m * (sample.tau_ddot / td**2) * v
    pseudo_mixed = -2.0 * m * c * (ups[1:, 0, 1:] @ v)
    pseudo_quad = -m * np.einsum("cab,a,b->c", ups[1:, 1:, 1:], v, v)
    total = actual + pseudo_tt + pseudo_clock + pseudo_mixed + pseudo_quad
    return ForceBreakdown(total=total, actual_part=actual,
                          pseudo_time_time=pseudo_tt, pseudo_clock=pseudo_clock,
                          pseudo_mixed=pseudo_mixed, pseudo_quadratic=pseudo_quad)
