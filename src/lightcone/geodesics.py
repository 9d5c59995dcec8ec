"""Geodesics, Jacobi fields, conjugate-point scans and batches of rays.

Every integration here runs one stepper, _dopri: the Dormand-Prince
8(5,3) pair (Hairer-Norsett-Wanner, Solving ODEs I, sec. II.10), with
its tableau written out here, and the error estimator, initial step and
step control of scipy's DOP853, over an (n, width) array of rays.  Each
row is its own initial-value problem: it keeps its own parameter s,
end parameter s_end (one for the batch, or one per row, forward or
backward), step size, rejected flag and error norm, each step evaluates
only the rows still running, and no row's arithmetic reads another's.
So a ray gives the same bits alone and in any batch.  The module needs
numpy only.

What the tolerances mean for each ray (REL_TOL = 1e-10, ABS_TOL =
1e-12, the one accuracy setting): every accepted step keeps that ray's
own error norm below 1.  With each component weighed by
ABS_TOL + REL_TOL*|y|, the norm
is DOP853's |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) width) from the
5th- and 3rd-order estimates e5, e3 over all components of the ray's
state, in the chart it is given (the splitting layer gives a model's ray
chart, see charts.RayChart).  A ray ends in one of three outcomes:
  landed   it reached s_end; its end state is its last step's end state;
  clipped  it met its chart-exit event, a hair inside the boundary (see
           _exit_event); the crossing is located to 4 eps by _brent
           (Brent's method, as scipy's brentq runs it) on that ray's own
           step interpolant, as scipy's ODE solvers locate events, and
           its end state is the interpolant there;
  failed   its step size fell below 10 ulp of s, it spent MAX_ATTEMPTS
           step attempts, or _brent did not locate its exit crossing.
A batch reports the outcome of each row and never raises for one ray.
Dense solutions keep each step's interpolant (DOP853's 7th-order dense
output, whose three extra stages are evaluated only for steps that are
kept or that cross the exit event), converted to the power basis that
_interpolate evaluates; at its end parameter a dense solution gives the
ray's end state.

On a flat chart a ray is exact and takes no steps: it is (x + s v, v),
and each Jacobi column (J + s W, W).

Two right-hand sides run through that stepper.  _ray_rhs, a stack of
rays with n_jac Jacobi columns each, serves integrate_batch and the
single-ray solves, which go through one entry, _ray, that checks the
start event and makes one _rays run; every ray takes its acceleration
from the chart's spray (Chart.spray), and its columns the complex step
of that spray.  _transport_rhs, a position with its
Fermi-Walker-transported frame, serves the observers' worldlines (both
sides of tau = 0 as two rows of one run).  Its thrust term is the frame
times the boost generator of the accelerometer reading (boost_generator,
which the observers' frame derivatives use too), so it needs the
connection but not the metric; without a reading it is parallel
transport and evaluates no thrust term.

A Jacobi column is integrated as the coordinate variation (dx, dv) of the
ray, whose variational equation is the derivative of the spray along
(dx, dv), one complex step of it (see charts), and needs no curvature;
then J = dx exactly.  Callers see the covariant layout (J, W),
W = DJ/ds: one helper, _convert_columns, sets dv = W - Gamma(kappa', J)
before a solve and W = dv + Gamma(kappa', dx) on read-out.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .charts import _COMPLEX_STEP, Chart, _kept_step
from .errors import (
    EmptySolutionError,
    IntegrationError,
    InvalidInputError,
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
        """(width,) for scalar s, (width, len(s)) for a 1-D array."""
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
        st = self.state(s)  # (width,) scalar s, (width, len(s)) array s
        return st[:4] if st.ndim == 1 else st[:4].T

    def velocity(self, s):
        st = self.state(s)
        return st[4:8] if st.ndim == 1 else st[4:8].T


class JacobiSolution(DenseSolution):
    """Jacobi field J and its covariant derivative along a geodesic.

    The state is the ray (kappa, kappa') followed by the variation
    (dx, dv), with J = dx (see _ray_rhs).
    """

    def __init__(self, ts, h, q, y_old, y1, steps, clipped, chart):
        super().__init__(ts, h, q, y_old, y1, steps, clipped)
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
    reasons: why each failed ray failed ("" for the others).  ends gives
    the states at s = 1: NaN rows for rays that did not land.
    """

    def __init__(self, states, s1, outcome, reasons):
        self.states = states
        self.s1 = s1
        self.outcome = outcome
        self.reasons = reasons

    @property
    def landed(self):
        return self.outcome == LANDED

    @property
    def ends(self):
        out = self.states.copy()
        out[~self.landed] = np.nan
        return out


# ---------------------------------------------------------------------------
# The stepper
# ---------------------------------------------------------------------------

# Dormand-Prince 8(5,3) (Hairer-Norsett-Wanner, Solving ODEs I, sec. II.10):
# 12 stages, then f at the step's end; the two error estimators E3 and E5;
# the three extra stages and the matrix D of the 7th-order dense output;
# and the step-size control.  Each value is the shortest repr that reads
# back as scipy's DOP853 float64 (tests/test_geodesics.py checks them).


def _padded(rows, width):
    """A (len(rows), width) array whose row i starts with rows[i], zeros after."""
    m = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        m[i, :len(row)] = row
    return m


_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_A = _padded([
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
], 12)
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0])
_D = _padded([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
], 16)
_C_EXTRA = np.array([
    0.1, 0.2, 0.7777777777777778])
_A_EXTRA = _padded([
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987],
], 16)
_STAGES = len(_B)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1 / (7 + 1)  # the error estimator's order is 7
_EPS = np.finfo(float).eps

# Brent's method as scipy's brentq runs it: a bracket is converged once its
# half-width is below (xtol + rtol |x|) / 2, here with xtol = rtol = 4 eps;
# after 100 iterations it raises
_BRENT_TOL = float(4 * _EPS)
_BRENT_ITER = 100


def _brent(f, a, b):
    """The zero of f in [a, b], f(a) and f(b) of opposite signs, located as scipy's brentq does.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4,
    step for step as scipy's C brentq takes it, so it returns the same
    float: keep the zero bracketed by [xcur, xblk] with |f(xcur)| the
    smaller; try inverse linear interpolation (two points) or inverse
    quadratic extrapolation (three), take that step if it is short
    enough, else bisect; never step by less than the tolerance.
    """
    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x:f} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_BRENT_TOL + _BRENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        good = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # inverse linear interpolation
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            # where den is 0, C's quotient is infinite or NaN and fails the test
            stry = num / den if den != 0 else np.inf
            good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        if good:  # a good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_ITER} iterations.")


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


def _initial_step(rhs, y, f, s_end, direction):
    """scipy's select_initial_step for each row, from s = 0 towards its own s_end."""
    length = np.abs(s_end)
    scale = ABS_TOL + np.abs(y) * REL_TOL
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


def _dopri(rhs, y0, s_end, event=None, dense=False):
    """Integrate y' = rhs(s, y) from s = 0 to s_end != 0 for each row of y0.

    s_end is one end for every row, or an (n,) array of each row's own end,
    so that rows of one run may go forward and backward.  rhs maps (m,) s
    and (m, width) states of the running rows to their (m, width)
    derivatives, row by row.  event maps (m, width) states to (m,) values;
    a row stops, clipped, where its value falls through zero (scipy's
    terminal event with direction -1).  See the module docstring for the
    step control and the outcomes.
    """
    y0 = np.array(y0, dtype=float)
    n, width = y0.shape
    s_end = np.broadcast_to(np.asarray(s_end, dtype=float), (n,))
    direction = np.where(s_end > 0, 1.0, -1.0)
    reach = np.abs(s_end)
    floor = 10 * np.spacing(reach.max(initial=0.0))  # no row's min_step is larger
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
    h_abs = _initial_step(rhs, y, f, s_end, direction)
    rejected = np.zeros(n, dtype=bool)
    retry = False  # whether any row's last attempt was rejected
    steps = np.zeros(n, dtype=int)
    attempts = 0  # every running row has made this many step attempts
    g = event(y) if event is not None else None

    def finish(i, y_end, s1):
        """Record the running rows i as ended, and drop them."""
        nonlocal rows, s, y, f, h_abs, rejected, steps, g, s_end, direction, reach
        out.y[rows[i]], out.s1[rows[i]], out.steps[rows[i]] = y_end, s1, steps[i]
        live = np.ones(len(rows), dtype=bool)
        live[i] = False
        rows, s, y, f = rows[live], s[live], y[live], f[live]
        h_abs, rejected, steps = h_abs[live], rejected[live], steps[live]
        s_end, direction, reach = s_end[live], direction[live], reach[live]
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

            # a step ends at its row's s_end at the latest: min(|s| + h, |s_end|)
            # in the distance gone, |s| = direction * s (negating is exact)
            s_new = direction * np.minimum(direction * s + h_abs, reach)
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
            scale = ABS_TOL + np.maximum(np.abs(y), np.abs(y_new)) * REL_TOL
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
            stop = s_acc == pick(s_end)  # landed, at the step's end state
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
                        try:
                            ends[jj] = _brent(lambda t: event(_interpolate(*one, np.array([t])))[0],
                                              t_old[jj], s_acc[jj])
                            out.outcome[rows[acc[jj]]] = CLIPPED
                        except (RuntimeError, ValueError) as exc:  # ends at the step's start
                            ends[jj] = t_old[jj]
                            out.outcome[rows[acc[jj]]] = FAILED
                            out.reasons[rows[acc[jj]]] = f"exit crossing not located: {exc}"
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
        kappa'' = -S(kappa, kappa'),   S^k(x, v) = Gamma^k_ij v^i v^j
        dx' = dv
        dv' = -dS(kappa, kappa') . (dx, dv) = -Im S(kappa + i h dx, kappa' + i h dv) / h
    with S the chart's spray (Chart.spray) and h = _COMPLEX_STEP (see
    charts), so every row has one acceleration formula and a column is
    one complex evaluation of it (a chart whose closed form returns it
    real raises InvalidInputError).  The Jacobi field is J = dx exactly;
    its covariant derivative is W = dv + Gamma(kappa', dx) (see
    _convert_columns).  No curvature tensor is formed, and every row is
    computed on its own.
    """

    def rhs(s, y):
        n = len(y)
        m = y.reshape(n, 1 + n_jac, 2, 4)  # member, (ray, columns), (value, derivative)
        out = np.empty_like(m)
        pos, vel = m[:, 0, 0], m[:, 0, 1]
        out[:, :, 0] = m[:, :, 1]
        out[:, 0, 1] = -chart.spray(pos, vel)
        if n_jac:
            # one complex call over the (n * n_jac) rows (x + i h dx, v + i h dv)
            cols, step = m[:, 1:], 1j * _COMPLEX_STEP
            kick = chart.spray((pos[:, None] + step * cols[:, :, 0]).reshape(-1, 4),
                               (vel[:, None] + step * cols[:, :, 1]).reshape(-1, 4))
            # without spray_fn the connection raised already if it came back real
            kick = _kept_step(chart, "spray_fn", True, kick)
            out[:, 1:, 1] = -kick.imag.reshape(n, n_jac, 4) / _COMPLEX_STEP
        return out.reshape(y.shape)

    return rhs


def boost_generator(reading, c, col0):
    """The Fermi-Walker generator G of frames X = [col0 gamma'/c, e1, e2, e3].

    An observer whose accelerometer reads a = reading, (n, 3) in e1..e3,
    carries its orthonormal frame by De/dtau = e K with K[0, i] = K[i, 0]
    = a_i / c and zeros elsewhere (Misner, Thorne & Wheeler, Gravitation,
    sec. 6.5); with column 0 scaled by col0 that is DX/dtau = X G,
    G[i, 0] = a_i col0 / c and G[0, i] = a_i / (c col0).  Returns (n, 4, 4).
    """
    reading = np.asarray(reading, dtype=float)
    gen = np.zeros((len(reading), 4, 4))
    gen[:, 1:, 0] = reading * (col0 / c)
    gen[:, 0, 1:] = reading / (c * col0)
    return gen


def _transport_rhs(chart: Chart, reading=None):
    """Right-hand side for a position with its Fermi-Walker-transported frame.

    The state holds (n, 20) rows: the position x, then the columns
    M = [M_0, M_1, M_2, M_3], M_0 being the tangent x':
        x' = M_0,   M' = -Gamma(M_0, M) + M G(a),
    with G the boost generator of the accelerometer reading a, (n, 3) at
    (n,) s (boost_generator with col0 = c); the metric is not needed.
    Without a reading x is a geodesic along which M is parallel
    transported, and no thrust term is evaluated.
    """
    c = chart.c

    def rhs(s, y):
        n = len(y)
        pos, m = y[:, :4], y[:, 4:].reshape(n, 4, 4).transpose(0, 2, 1)
        vel = m[:, :, 0]
        dm = -np.einsum("nkij,ni,njm->nkm", chart.christoffels(pos), vel, m)
        if reading is not None:
            dm = dm + m @ boost_generator(reading(s), c, c)
        return np.concatenate([vel, dm.transpose(0, 2, 1).reshape(n, 16)], axis=1)

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


def _rays(chart: Chart, y0, s_end, stop_at_exit=True, dense=False):
    """Integrate rays in the (dx, dv) layout: y0 is (n, 8 + 8*n_jac).

    Curved rays run _ray_rhs through _dopri, stopped by the chart-exit
    event when stop_at_exit; flat rays and s_end = 0 are exact.
    """
    y0 = np.asarray(y0, dtype=float)
    if s_end == 0.0 or chart.flat:
        m = y0.reshape(len(y0), y0.shape[1] // 8, 2, 4)
        deriv = np.zeros_like(m)
        if chart.flat:
            deriv[:, :, 0] = m[:, :, 1]
        return _linear_run(y0, deriv.reshape(y0.shape), s_end, dense)
    n_jac = y0.shape[1] // 8 - 1
    event = _exit_event(chart) if stop_at_exit else None
    return _dopri(_ray_rhs(chart, n_jac), y0, s_end, event, dense)


def _ray(chart: Chart, ivp: GeodesicIVP, s_end, columns=None, stop_at_exit=True):
    """The one single-ray solve: check the start, then one dense _rays run.

    The start event must be the chart's, inside its domain and more than
    1e-12 max(1, R) from its boundary.  columns, given the metric there,
    lists the Jacobi columns' J(0), W(0), ...; they run as (dx, dv).
    """
    q0, chart_id = ivp.start.coords, ivp.start.chart_id
    if chart_id != chart.name:
        raise InvalidInputError(f"event belongs to chart {chart_id!r}, not {chart.name!r}")
    if not chart.contains(q0):
        raise OutOfChartError(f"start {q0} outside {chart.name} domain")
    bd = chart.boundary_distance(q0)
    if bd is not None and bd <= 1e-12 * max(1.0, abs(chart.params.get("R", 1.0))):
        raise EmptySolutionError("start point touches the chart boundary")
    cols = columns(chart.metric(q0)) if columns else []
    y0 = _convert_columns(chart, np.concatenate([q0, ivp.velocity, *cols])[None, :], -1)
    return _rays(chart, y0, s_end, stop_at_exit, dense=True)


def _single(chart, run, s_end, cls, *extra):
    """Row 0 of a dense run as a cls solution; a ray that failed or left at once raises."""
    if run.outcome[0] == FAILED:
        raise IntegrationError(f"integrator failed on {chart.name}: {run.reasons[0]}")
    if run.outcome[0] == CLIPPED and abs(run.s1[0]) <= 1e-14 * max(1.0, abs(s_end)):
        raise EmptySolutionError("trajectory leaves the chart domain immediately")
    return cls(*run.segments[0], run.steps[0], run.outcome[0] == CLIPPED, *extra)


def integrate_geodesic(chart: Chart, ivp: GeodesicIVP, s_end) -> GeodesicSolution:
    """Solve the autoparallel equation from the given initial data.

    Integrates kappa'' ^k + Gamma^k_ij kappa'^i kappa'^j = 0 up to s_end
    with adaptive step control.  If the trajectory exits the chart the
    partial solution up to the boundary is returned with clipped=True.
    """
    return _single(chart, _ray(chart, ivp, s_end), s_end, GeodesicSolution)


def integrate_jacobi(chart: Chart, geodesic: GeodesicSolution, j0, dj0) -> JacobiSolution:
    """Solve the geodesic deviation equation along a stored geodesic.

    The geodesic is integrated again together with the field, from its
    stored initial data to its end parameter, as a ray with one Jacobi
    column: j0 = J(0) and dj0 = W(0), the covariant derivative of J.
    """
    ivp = GeodesicIVP(Event(chart.name, geodesic.position(0.0)), geodesic.velocity(0.0))
    run = _ray(chart, ivp, geodesic.s1, lambda g0: [j0, dj0], stop_at_exit=False)
    return _single(chart, run, geodesic.s1, JacobiSolution, chart)


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


def detect_conjugate(chart: Chart, q: Event, tangent, s_max, grid_n) -> ConjugateScan:
    """Scan a geodesic for conjugate parameter values.

    Integrates the ray with four Jacobi columns: three vanishing at the
    start whose initial derivatives span the orthogonal complement of the
    initial velocity K, and a transversal N with J(0) = N, W(0) = 0.  The
    transversal's pairing g(J, K) = g(N, K) stays constant and nonzero
    while the other three pair to zero, so conjugate values show up as
    zeros of det([J^N, J^1, J^2, J^3]) / s^3: the normalization removes
    the trivial triple zero at the start, and the transversal keeps the
    determinant honest when the orthogonal complement is degenerate
    (lightlike rays).  Sign changes are refined by _brent on the dense
    output, to 4 eps as the chart-exit crossings are; a sign change _brent
    cannot locate raises IntegrationError.  The scan is a detector, not a
    proof, so an empty result only means none found at this resolution.
    """
    ivp = GeodesicIVP(q, tangent)

    def columns(g0):
        # the transversal N with W(0) = 0, then J(0) = 0 with W(0) along each direction
        n0 = np.zeros(4)
        n0[int(np.argmax(np.abs(g0 @ ivp.velocity)))] = 1.0
        return [n0, np.zeros(4)] + [v for d in _orthogonal_triple(g0, ivp.velocity)
                                    for v in (np.zeros(4), d)]

    sol = _single(chart, _ray(chart, ivp, s_max, columns), s_max, DenseSolution)
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
            try:
                zeros.append(_brent(det_at, grid[i], grid[i + 1]))
            except (RuntimeError, ValueError) as exc:
                raise IntegrationError(f"conjugate value not located: {exc}") from exc
    return ConjugateScan(tuple(zeros), False, s1)


def integrate_batch(chart: Chart, y0, n_jac=0):
    """Integrate n rays, each with n_jac Jacobi columns, to the map's unit parameter s = 1.

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
    run = _rays(chart, _convert_columns(chart, y0[inside], -1), 1.0)
    states, s1 = y0.copy(), np.zeros(n)
    outcome = np.full(n, FAILED)
    reasons = ["start outside the chart domain"] * n
    states[inside] = _convert_columns(chart, run.y, +1)
    s1[inside], outcome[inside] = run.s1, run.outcome
    for i, reason in zip(np.flatnonzero(inside), run.reasons):
        reasons[i] = reason
    steps = int(run.steps.max()) if len(run.steps) else 0
    return BatchSolution(states, s1, outcome, reasons), steps
