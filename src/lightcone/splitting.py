"""Static and kinematic observer mappings and relative kinematics.

The observer mapping sends observer coordinates (c*tau, x) to the
spacetime event seen in direction x at proper time tau: the endpoint of
the past-pointing lightlike geodesic with initial vector
-|x| X_0 + x^a X_a.  This module computes the map, its differential
through Jacobi fields, a multistart damped-Newton inverse, the tracked
relative motion of observed worldlines, the pulled-back metric, and the
relative-force decomposition into actual and pseudo parts.

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
it.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .charts import Chart, metric_at
from .errors import (
    CriticalPointError,
    IllPosedForceError,
    InvalidInputError,
    LightconeError,
    SuperluminalError,
    UnreachableDirectionError,
)
from .geodesics import CLIPPED, BatchSolution, _exit_event, integrate_batch
from .lorentz import Event, Frame4, CausalCharacter, causal_character, projectors
from .observers import FrameField


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
    not_an_observer: bool = False
    ambiguous: bool = False


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

    The box tau_range x (x_center +- x_halfwidth) must be finite with
    x_halfwidth >= 0, and the grid and seed counts n_tau, n_x and top_k
    at least 1; anything else raises InvalidInputError.
    """

    tau_range: tuple
    x_halfwidth: float
    x_center: tuple = (0.0, 0.0, 0.0)
    n_tau: int = 9
    n_x: int = 9
    top_k: int = 16
    max_iter: int = 50
    inv_tol: float = 1e-10
    merge_tol: float = 1e-6
    cond_max: float = 1e8

    def __post_init__(self):
        box = np.asarray([*self.tau_range, self.x_halfwidth, *self.x_center], dtype=float)
        if not (np.all(np.isfinite(box)) and self.x_halfwidth >= 0):
            raise InvalidInputError("the search box must be finite, with x_halfwidth >= 0")
        if min(self.n_tau, self.n_x, self.top_k) < 1:
            raise InvalidInputError("n_tau, n_x and top_k must each be at least 1")


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


def static_observer_map(chart: Chart, frame: Frame4, x) -> Event:
    """World event seen in direction x by the frozen frame at one event."""
    x = np.asarray(x, dtype=float)
    if np.max(np.abs(x)) == 0.0:
        raise InvalidInputError("x = 0 excluded from the observer mapping domain")
    y0 = np.concatenate([frame.base.coords, frame.matrix @ _cone_components(x)])[None, :]
    ray = _trace(chart, y0, 0)
    if not ray.landed[0]:
        raise UnreachableDirectionError(f"the ray in direction {x} leaves {chart.name} "
                                        "before landing")
    return Event(chart.name, ray.states[0, :4])


def static_distance(g, x0_col, k, kprime):
    """Spatial distance between two seen directions at one event.

    Orthogonally projects k - k' away from the observer vector and takes
    the (positive definite) spatial norm.  Equals |x - x'| in the
    observer coordinates induced by any frame completing x0_col.
    """
    _, p_perp = projectors(g, np.asarray(x0_col, dtype=float))
    d = p_perp @ (np.asarray(k, dtype=float) - np.asarray(kprime, dtype=float))
    q = float(d @ np.asarray(g) @ d)
    return math.sqrt(max(0.0, -q))


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


def _trace(chart, y0, n_jac):
    """The one ray entry: integrate_batch of model-chart states y0 to s = 1.

    With a ray chart the rays run there: positions go in through its
    coordinate map and every vector (velocity, J, W) through Lambda, and
    the end states come back through Lambda^-1, so the result is in the
    model chart.  Clipped ends are first put onto the exit surface
    (_onto_exit).  A ray that never left its start keeps its start bits.
    """
    rays = chart.ray_chart
    if rays is None:
        return integrate_batch(chart, y0, n_jac)[0]
    sol, _ = integrate_batch(rays.chart, rays.states_to_ray(y0), n_jac)
    _onto_exit(rays.chart, sol)
    sol.states = np.where((sol.s1 == 0.0)[:, None], y0, rays.states_from_ray(sol.states))
    return sol


def _onto_exit(chart, sol):
    """Move the clipped ends of a batch along their rays onto the exit event's zero.

    brentq puts each crossing within 4 eps (1 + |s1|) of the event's zero
    in s, and the end read off the step's interpolant is a few ulps off
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


def _eval_batch(chart, frames, pts, with_jacobian):
    """Map (and optionally Jacobian) for an (n, 4) array of points (tau, x).

    Returns (events (n,4), jacobians (n,4,4) or None).  Jacobian columns
    are derivatives with respect to (c*tau, x^1, x^2, x^3).  The rows of a
    ray that does not land (it clips at the chart boundary or fails) are
    NaN.
    """
    out = _trace(chart, _map_states(frames, pts, with_jacobian), 4 if with_jacobian else 0)(1.0)
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


def _newton_polish(chart, frames, targets, states, cfg, events=None):
    """Damped Newton on a batch of (target, state) pairs.

    states: (m, 4) rows (tau, x1, x2, x3); events: their forward images,
    if already mapped, else they are mapped here.  Returns (states,
    residual_norm, converged mask); members that leave the admissible
    region, whose ray does not land, or that fail to reduce the residual
    are dropped from the active set.
    """
    c = frames.curve.c
    tau_lo, tau_hi = _tau_bounds(frames)
    m = len(states)
    states = np.array(states, dtype=float)
    targets = np.asarray(targets, dtype=float)
    scale = 1.0 + np.max(np.abs(targets), axis=1)
    guard = 1e-13 * max(1.0, float(np.max(scale)))

    def admissible(st):
        return (
            (st[:, 0] >= tau_lo) & (st[:, 0] <= tau_hi)
            & (np.linalg.norm(st[:, 1:], axis=1) > guard)
        )

    def forward(st, idx):
        ev, _ = _eval_batch(chart, frames, st, False)
        return ev - targets[idx]

    active = np.flatnonzero(admissible(states))
    resid = np.full((m, 4), np.inf)
    if events is not None:
        resid[active] = events[active] - targets[active]
    elif len(active):
        resid[active] = forward(states[active], active)
    resid[np.isnan(resid).any(axis=1)] = np.inf  # the ray did not land
    rnorm = np.linalg.norm(resid, axis=1)
    converged = rnorm <= cfg.inv_tol * scale
    active = active[~converged[active] & np.isfinite(rnorm[active])]

    for _ in range(cfg.max_iter):
        if len(active) == 0:
            break
        _, jacs = _eval_batch(chart, frames, states[active], True)
        # solve J dxi = -r in (c tau, x) variables
        ok = np.abs(np.linalg.det(jacs)) > 1e-300
        steps = np.zeros((len(active), 4))
        if np.any(ok):
            steps[ok] = np.linalg.solve(jacs[ok], -resid[active][ok][:, :, None])[:, :, 0]
        steps[:, 0] /= c  # first slot of the state is tau, not c*tau
        steps[~ok] = 0.0

        lam = np.ones(len(active))
        improved = np.zeros(len(active), dtype=bool)
        trial_states = states[active].copy()
        trial_resid = resid[active].copy()
        for _halve in range(25):
            todo = ~improved & (np.abs(lam) > 1e-12) & ok
            if not np.any(todo):
                break
            cand = states[active][todo] + lam[todo, None] * steps[todo]
            cand_ok = admissible(cand)
            rows = np.flatnonzero(todo)
            if np.any(cand_ok):
                sub = rows[cand_ok]
                rr = forward(cand[cand_ok], active[sub])
                better = np.linalg.norm(rr, axis=1) < np.linalg.norm(resid[active][sub], axis=1)
                good = sub[better]
                trial_states[good] = cand[cand_ok][better]
                trial_resid[good] = rr[better]
                improved[good] = True
            lam[~improved] *= 0.5

        if not np.any(improved):
            break
        keep = np.flatnonzero(improved)
        states[active[keep]] = trial_states[keep]
        resid[active[keep]] = trial_resid[keep]
        rnorm = np.linalg.norm(resid, axis=1)
        converged = rnorm <= cfg.inv_tol * scale
        active = active[keep]
        active = active[~converged[active]]

    return states, rnorm, converged


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


def invert_many(chart: Chart, frames: FrameField, targets, search: MultistartConfig,
                seeds_per_target=None) -> List[InversionResult]:
    """Invert the observer map for many targets sharing one start grid.

    The start grid is mapped forward once, and starts whose ray does not
    land are never seeds.  Each target keeps the seeds_per_target >= 1
    starts (default search.top_k, at most the landed starts) with the
    smallest forward residual, and damped Newton runs on all
    targets' seeds as batches of _CHUNK targets, starting from the grid's
    forward images.  Converged roots are deduplicated and sorted by
    coordinates, so a target's outcome does not depend on start order;
    the distinct roots of a chunk are graded in one Jacobian batch.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1, 4)
    if seeds_per_target is None:
        seeds_per_target = search.top_k
    if seeds_per_target < 1:
        raise InvalidInputError("seeds_per_target must be at least 1")
    if len(targets) == 0:
        return []
    starts = _start_grid(search)
    if len(starts) == 0:
        raise InvalidInputError("the multistart grid is empty: its only point is the "
                                "excluded observer position x = 0")
    n_starts = len(starts)
    ev, _ = _eval_batch(chart, frames, starts, False)
    landed = ~np.isnan(ev).any(axis=1)
    starts, ev = starts[landed], ev[landed]

    k = min(seeds_per_target, len(starts))
    results: List[InversionResult] = []
    no_roots = (np.empty((0, 4)), np.empty(0), False)
    if k == 0:
        return _grade_roots(chart, frames, targets, [no_roots] * len(targets), search,
                            n_starts)
    for base in range(0, len(targets), _CHUNK):
        tgt_chunk = targets[base:base + _CHUNK]
        # per-target seed selection by forward residual
        d = np.linalg.norm(ev[None, :, :] - tgt_chunk[:, None, :], axis=2)
        picks = np.argsort(d, axis=1, kind="stable")[:, :k].ravel()
        flat_targets = np.repeat(tgt_chunk, k, axis=0)
        states, rnorm, converged = _newton_polish(
            chart, frames, flat_targets, starts[picks], search, ev[picks]
        )
        found = []
        for i in range(len(tgt_chunk)):
            rows = slice(i * k, (i + 1) * k)
            ok = converged[rows]
            found.append(_distinct_roots(states[rows][ok], rnorm[rows][ok], search))
        results += _grade_roots(chart, frames, tgt_chunk, found, search, n_starts)
    return results


def _distinct_roots(roots, rres, search):
    """Converged roots off the origin, sorted by coordinates and deduplicated.

    Returns (roots, residuals, whether a root at the origin was dropped).
    """
    at_origin = np.linalg.norm(roots[:, 1:], axis=1) <= search.merge_tol
    roots, rres = roots[~at_origin], rres[~at_origin]
    order = np.lexsort((roots[:, 3], roots[:, 2], roots[:, 1], roots[:, 0]))
    roots, rres = roots[order], rres[order]
    keep = []
    for i, row in enumerate(roots):
        if not any(np.max(np.abs(row - roots[j])) <= search.merge_tol for j in keep):
            keep.append(i)
    return roots[keep], rres[keep], bool(np.any(at_origin))


def _grade_roots(chart, frames, targets, found, search, n_starts):
    """One InversionResult per target from its _distinct_roots triple.

    The Jacobian condition numbers of all targets' roots come from one
    map+Jacobian batch.
    """
    every = np.concatenate([f[0] for f in found])
    conds = (np.linalg.cond(_eval_batch(chart, frames, every, True)[1]) if len(every)
             else np.empty(0))
    results, base = [], 0
    for tgt, (roots, rres, origin) in zip(targets, found):
        cond = conds[base:base + len(roots)]
        base += len(roots)
        if len(roots) == 0:
            origin = origin or _near_worldline(frames, tgt, 1e-6 * (1.0 + np.max(np.abs(tgt))))
        preimages = [ObservedEvent(row[0], row[1:]) for row in roots]
        results.append(InversionResult(preimages, rres, cond, cond < search.cond_max,
                                       n_starts, len(roots), origin_excluded=origin))
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
                  search: MultistartConfig, stencil_h=None) -> List[RelativeMotionSample]:
    """Track a worldline through the observer's eyes.

    Inverts the observer map at every sample of the worldline parameter,
    follows the preimage branch that stays closest to the previous sample
    (ties within merge_tol are flagged ambiguous, never silently picked:
    lensing makes multiple branches physical), and differentiates the
    tracked coordinates to relative velocity and acceleration.  Branch
    loss truncates the report rather than failing.

    A sample starts from the previous state by Newton; the first sample,
    and any whose warm start fails, inverts cold over the search box and
    takes the first preimage (first sample) or the one nearest the
    previous state.

    tau' and dx/ds come from the inverse Jacobian applied to the
    worldline tangent; the second derivatives use a five-point stencil of
    half-width stencil_h on the tracked functions.
    """
    s_samples = np.asarray(s_samples, dtype=float)
    if stencil_h is None:
        span = s_samples[-1] - s_samples[0] if len(s_samples) > 1 else 1.0
        stencil_h = max(1e-4, 0.02 * span / max(1, len(s_samples) - 1) * 5)

    samples: List[RelativeMotionSample] = []
    prev = None
    for s in s_samples:
        target = np.asarray(worldline.position(s), dtype=float)
        ambiguous = False
        warm_ok = False
        if prev is not None:
            warm, _, conv = _newton_polish(chart, frames, target[None, :], prev[None, :],
                                           search)
            state, warm_ok = warm[0], conv[0]
        if not warm_ok:
            res = invert_observer_map(chart, frames, Event(chart.name, target), search)
            if len(res) == 0:
                break
            rows = np.array([[p.tau, *p.x] for p in res.preimages])
            if prev is None:
                best, near = 0, len(rows)
            else:
                dists = np.max(np.abs(rows - prev), axis=1)
                best = np.argmin(dists)
                near = np.sum(dists <= dists[best] + search.merge_tol)
            ambiguous = near > 1
            state = rows[best]
        prev = state

        # five-point stencil: the four warm inversions form one Newton batch,
        # and the sample's Jacobian shares one batch with the stencil's
        s_pts = s + stencil_h * np.array([0.0, -2.0, -1.0, 1.0, 2.0])
        tk = np.asarray(worldline.position(s_pts[1:]), dtype=float)
        stk, _, conv = _newton_polish(chart, frames, tk, np.tile(state, (4, 1)), search)
        stencil_ok = bool(np.all(conv))
        states = np.vstack([state, stk]) if stencil_ok else state[None, :]
        lam = np.asarray(worldline.velocity(s_pts[:len(states)]), dtype=float)
        tds, dx_ds = _first_derivatives(chart, frames, states, lam)
        tau_dot = tds[0]
        vs = np.full_like(dx_ds, np.nan)  # dx/dtau, undefined where tau' = 0
        moving = tds != 0.0
        vs[moving] = dx_ds[moving] / tds[moving, None]
        v = vs[0]
        g = metric_at(chart, target)
        char = causal_character(g, lam[0], tol=1e-9 * max(1.0, float(np.max(np.abs(lam[0])))**2))

        if stencil_ok and tau_dot != 0.0:
            w = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * stencil_h)
            dv_ds = w @ vs[1:]
            tau_ddot = float(w @ tds[1:])
            dv_dtau = dv_ds / tau_dot
        else:
            dv_dtau = np.full(3, np.nan)
            tau_ddot = float("nan")

        not_obs = char in (CausalCharacter.SPACELIKE, CausalCharacter.ZERO)
        if char is CausalCharacter.TIMELIKE and tau_dot <= 0.0:
            raise LightconeError(
                f"time consistency violated: tau'={tau_dot} for a timelike worldline"
            )
        samples.append(RelativeMotionSample(
            s=float(s), tau=float(state[0]), x=state[1:].copy(),
            tau_dot=float(tau_dot), v=v, dv_dtau=dv_dtau, tau_ddot=tau_ddot,
            character=char.value, not_an_observer=not_obs, ambiguous=ambiguous,
        ))
    return samples


def _first_derivatives(chart, frames, states, tangents):
    """(tau', dx/ds) at tracked states from one map+Jacobian batch.

    states: (m, 4) rows (tau, x); tangents: (m, 4) worldline tangents
    there.  Applies each inverse Jacobian to its tangent.
    """
    _, jac = _eval_landed(chart, frames, states, True)
    xi_dot = np.linalg.solve(jac, tangents[:, :, None])[:, :, 0]  # d(c tau, x)/ds
    return xi_dot[:, 0] / frames.curve.c, xi_dot[:, 1:]


# -- pulled-back metric and forces --------------------------------------------

def pullback_metric(chart: Chart, frames: FrameField, p: ObservedEvent) -> np.ndarray:
    """Components of the pulled-back spacetime metric in observer coordinates."""
    ev, jac = _eval_landed(chart, frames, _point(p.tau, p.x), True)
    g = metric_at(chart, ev[0])
    j = jac[0]
    return j.T @ g @ j


def tau_dot(alpha, v, c) -> float:
    """Clock rate of the observed clock against the observer's clock.

    1/sqrt(alpha_00 + 2 alpha_0a v^a/c + alpha_ab v^a v^b / c^2); raises
    when the radicand is not positive (superluminal or degenerate data).
    """
    alpha = np.asarray(alpha, dtype=float)
    v = np.asarray(v, dtype=float)
    rad = (
        alpha[0, 0]
        + 2.0 * float(alpha[0, 1:] @ v) / c
        + float(v @ alpha[1:, 1:] @ v) / c**2
    )
    if rad <= 0.0:
        raise SuperluminalError(f"clock-rate radicand {rad:.3e} is not positive")
    return 1.0 / math.sqrt(rad)


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


_FD_STEP = 1e-4  # central step in (c*tau, x) for derivatives of the map


def transformed_christoffels(chart: Chart, frames: FrameField, p: ObservedEvent,
                             method="jacobian", fd_step=_FD_STEP) -> np.ndarray:
    """Connection coefficients of the spacetime metric in observer coordinates.

    method="jacobian" transforms the chart coefficients with the map
    Jacobian plus a finite-difference Hessian of the map; "pullback"
    differentiates the pulled-back metric directly.  Both differentiate in
    (x^0 = c*tau, x^a) with central step fd_step.
    """
    if method == "pullback":
        alpha0 = pullback_metric(chart, frames, p)
        shifted = [ObservedEvent(row[0], row[1:])
                   for row in _stencil_points(frames.curve.c, p, fd_step)]
        dal = np.empty((4, 4, 4))
        for l in range(4):
            ap = pullback_metric(chart, frames, shifted[l])
            am = pullback_metric(chart, frames, shifted[4 + l])
            dal[:, :, l] = (ap - am) / (2.0 * fd_step)
        try:
            ainv = np.linalg.inv(alpha0)
        except np.linalg.LinAlgError as exc:
            raise CriticalPointError("pulled-back metric is singular here") from exc
        term = dal + np.einsum("lji->lij", dal) - np.einsum("ijl->lij", dal)
        return 0.5 * np.einsum("cl,lij->cij", ainv, term)

    if method != "jacobian":
        raise InvalidInputError(f"unknown method {method!r}")
    return _jacobian_christoffels(chart, *_map_derivatives(chart, frames, p, fd_step))[0]


def _stencil_points(c, p, fd_step):
    """The 8 rows p + fd_step e_i, then p - fd_step e_i, as (tau, x).

    e_i are the unit vectors of (x^0 = c*tau, x^a).
    """
    base = np.array([c * p.tau, *p.x])
    shifted = np.concatenate([base + fd_step * np.eye(4), base - fd_step * np.eye(4)])
    shifted[:, 0] /= c
    return shifted


def _map_derivatives(chart, frames, p, fd_step):
    """Event, Jacobian and finite-difference Hessian of the map at p.

    One map+Jacobian batch holds p and its 8 stencil points;
    hess[l, i, j] = d^2 kappa^l / dx^i dx^j is the central difference of
    the Jacobian columns, symmetrized.
    """
    pts = np.vstack([_point(p.tau, p.x), _stencil_points(frames.curve.c, p, fd_step)])
    ev, jac = _eval_landed(chart, frames, pts, True)
    hess = ((jac[1:5] - jac[5:9]) / (2.0 * fd_step)).transpose(1, 0, 2)
    return ev[0], jac[0], 0.5 * (hess + hess.transpose(0, 2, 1))


def _jacobian_christoffels(chart, event, j, hess):
    """(Ups, J^-1): the chart connection carried to observer coordinates."""
    if abs(np.linalg.det(j)) < 1e-12:
        raise CriticalPointError("observer map is singular at this point")
    w = np.linalg.inv(j)
    gam = chart.christoffels(event)
    ups = np.einsum("cl,lmn,mi,nj->cij", w, gam, j, j) + np.einsum("cl,lij->cij", w, hess)
    return ups, w


def relative_force(m, chart: Chart, frames: FrameField, sample: RelativeMotionSample,
                   f_spatial, tau_ddot=None) -> ForceBreakdown:
    """Decompose the relative force on an observed point mass.

    Combines the actual force (mapped to observer coordinates and scaled
    by the clock rate) with the four geometric pseudo-force terms built
    from the transformed connection, the clock-rate derivative and the
    relative velocity.  The parts sum to total by construction.
    """
    c = frames.curve.c
    p = ObservedEvent(sample.tau, sample.x)
    event, jac, hess = _map_derivatives(chart, frames, p, _FD_STEP)
    alpha = jac.T @ metric_at(chart, event) @ jac
    ups, w = _jacobian_christoffels(chart, event, jac, hess)
    v = sample.v
    td = sample.tau_dot
    tdd = sample.tau_ddot if tau_ddot is None else float(tau_ddot)

    f_spatial = np.asarray(f_spatial, dtype=float)
    f0 = force_zero_component(alpha, v, c, w, f_spatial)
    f_full = np.concatenate([[f0], f_spatial])

    actual = (w[1:, :] @ f_full) / td**2
    pseudo_tt = -m * c**2 * ups[1:, 0, 0]
    pseudo_clock = -m * (tdd / td**2) * v
    pseudo_mixed = -2.0 * m * c * (ups[1:, 0, 1:] @ v)
    pseudo_quad = -m * np.einsum("cab,a,b->c", ups[1:, 1:, 1:], v, v)
    total = actual + pseudo_tt + pseudo_clock + pseudo_mixed + pseudo_quad
    return ForceBreakdown(total=total, actual_part=actual,
                          pseudo_time_time=pseudo_tt, pseudo_clock=pseudo_clock,
                          pseudo_mixed=pseudo_mixed, pseudo_quadratic=pseudo_quad)
