"""Second-order series in 1/c and Newtonian-limit verification.

Two ingredients decide whether observed relative dynamics reduces to
Newtonian mechanics: all observed clocks must run at the observer's rate
(tau' ~ 1) and the relative force must obey Newton's second law.  This
module provides the closed-form second-order expansions, in the
perturbation parameter eps = 1/c, of the clock rate and its force
corrections for inertial flat-space splittings, the zeroth-order
pseudo-force of a c-independent pulled-back metric with the two
conditions for its limit to exist, and a sweep driver that measures how
fast the residuals die off as c grows.

Series are truncated at second order; the remainder is handled purely
empirically through log-log scaling fits.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .errors import InvalidInputError, NewtonianLimitObstruction


@dataclass(frozen=True)
class Series2:
    """Truncated expansion a0 + a1*eps + a2*eps^2 + O(eps^3)."""

    a0: float
    a1: float
    a2: float

    def __post_init__(self):
        for v in (self.a0, self.a1, self.a2):
            if not math.isfinite(v):
                raise InvalidInputError("series coefficients must be finite")

    def __call__(self, eps):
        return self.a0 + self.a1 * eps + self.a2 * eps**2


def sr_tau_dot_series(mu, v) -> Series2:
    """Clock-rate expansion for a seen inertial mass in flat spacetime.

    mu is the cosine between line of sight and velocity, v the relative
    speed; the expansion parameter is 1/c, so the evaluated correction at
    eps = 1/c is mu*(v/c) to first order.
    """
    mu = float(mu)
    v = float(v)
    if abs(mu) > 1.0 + 1e-12:
        raise InvalidInputError("direction cosine must lie in [-1, 1]")
    return Series2(1.0, mu * v, (mu**2 + 0.5) * v**2)


def sr_force_correction(xhat, v_vec, dv_dtau, x_norm):
    """Second-order corrections entering the flat-space relative force law.

    Returns (tau''/tau'^2, 1/tau'^2) as series in 1/c.  The first-order
    clock-acceleration term combines the line-of-sight acceleration with
    the sweep of the sight line (the (1 - mu^2) term, vanishing for
    radial motion); coefficients follow from differentiating the exact
    clock rate.
    """
    xhat = np.asarray(xhat, dtype=float)
    v_vec = np.asarray(v_vec, dtype=float)
    a_vec = np.asarray(dv_dtau, dtype=float)
    x_norm = float(x_norm)
    if x_norm <= 0.0:
        raise InvalidInputError("distance |x| must be positive")
    v = float(np.linalg.norm(v_vec))
    mu = float(xhat @ v_vec / v) if v > 0.0 else 0.0
    sight = float(xhat @ a_vec) + v**2 / x_norm * (1.0 - mu**2)
    tau_dd = Series2(0.0, sight, float(v_vec @ a_vec) + mu * v * sight)
    inv_td2 = Series2(1.0, -2.0 * mu * v, (mu**2 - 1.0) * v**2)
    return tau_dd, inv_td2


# Central-difference step in (tau, x) of the metric field in
# limit_case_pseudo_forces, and the largest residual of its finiteness
# conditions taken as zero: well above the differences' own error (h^2
# truncation and eps/h rounding, near 1e-10 for a field of unit scale)
_LIMIT_FD_STEP = 1e-5
_LIMIT_CONDITION_TOL = 1e-8

# Fitted residuals at or below this are rounding noise, not a trend in c
_NOISE_FLOOR = 1e-13


def limit_case_pseudo_forces(alpha_field: Callable, tau, x, v, m=1.0):
    """Zeroth-order pseudo-force for a c-independent metric field.

    alpha_field(tau, x) must return the pulled-back metric written in the
    (tau, x) variables with alpha_00 = 1.  Two finiteness conditions must
    hold for the force not to diverge as 1/c -> 0: the time derivative of
    the mixed components and their spatial curl must vanish, to
    _LIMIT_CONDITION_TOL.  Violations raise with the measured residuals attached.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    alpha0 = np.asarray(alpha_field(tau, x), dtype=float)
    if abs(alpha0[0, 0] - 1.0) > 1e-12:
        raise NewtonianLimitObstruction(
            "alpha_00 != 1", residuals={"alpha_00_minus_1": alpha0[0, 0] - 1.0}
        )
    ainv = np.linalg.inv(alpha0)

    dtau = (np.asarray(alpha_field(tau + _LIMIT_FD_STEP, x)) -
            np.asarray(alpha_field(tau - _LIMIT_FD_STEP, x))) / (2.0 * _LIMIT_FD_STEP)
    dx = np.empty((4, 4, 3))
    for b in range(3):
        h = np.zeros(3)
        h[b] = _LIMIT_FD_STEP
        dx[:, :, b] = (np.asarray(alpha_field(tau, x + h)) -
                       np.asarray(alpha_field(tau, x - h))) / (2.0 * _LIMIT_FD_STEP)

    # finiteness conditions: time drift of the mixed row and its curl
    cond1 = np.einsum("ca,a->c", ainv[1:, 1:], dtau[1:, 0])
    curl = dx[1:, 0, :] - dx[0, 1:, :].T  # alpha_{b0,a} - alpha_{0a,b} at [b, a]
    cond2 = np.einsum("cb,ba->ca", ainv[1:, 1:], curl)
    worst = max(float(np.max(np.abs(cond1))), float(np.max(np.abs(cond2))))
    if worst > _LIMIT_CONDITION_TOL:
        raise NewtonianLimitObstruction(
            f"limit-existence conditions violated (residual {worst:.3e})",
            residuals={"time_drift": cond1, "mixed_curl": cond2},
        )

    lin = np.einsum("cb,ab,a->c", ainv[1:, 1:], dtau[1:, 1:], v)
    # quadratic part: 1/2 ainv^{cl} (a_{la,b} + a_{lb,a} - [l spatial] a_{ab,l}) v^a v^b
    sym = np.einsum("lab->lab", dx[:, 1:, :]) + np.einsum("lba->lab", dx[:, 1:, :])
    sym[1:] -= np.einsum("abl->lab", dx[1:, 1:, :])
    quad = 0.5 * np.einsum("cl,lab,a,b->c", ainv[1:, :], sym, v, v)
    return -m * (lin + quad)


@dataclass(frozen=True)
class LimitRow:
    c: float
    max_tau_dot_dev: float        # max |tau' - 1|
    max_pseudo_force: float       # largest pseudo-force magnitude
    tau_dot_series_residual: float
    force_series_residual: float
    first_order_max: float        # largest first-order clock correction


@dataclass(frozen=True)
class LimitReport:
    scenario_id: str
    rows: List[LimitRow]
    tau_dot_slope: float          # log-residual vs log(1/c) fit
    force_slope: float
    pseudo_force_slope: float
    newton_law_residual: float    # max |m dv/dtau - total force| / scale
    below_noise: bool


def _fit_slope(cs, residuals):
    cs = np.asarray(cs, dtype=float)
    res = np.asarray(residuals, dtype=float)
    good = res > _NOISE_FLOOR
    if np.sum(good) < 2:
        return float("nan"), True
    slope = np.polyfit(np.log(1.0 / cs[good]), np.log(res[good]), 1)[0]
    return float(slope), False


def newtonian_limit_report(scenario_fn: Callable, c_values: Sequence[float],
                           scenario_id="sr-inertial", m=1.0) -> LimitReport:
    """Sweep the speed of light and measure how Newtonian the splitting looks.

    scenario_fn(c) must return a list of RelativeMotionSample plus a
    matching list of ForceBreakdown (one per retained sample).  For every
    c the report records the worst clock-rate deviation, the pseudo-force
    magnitudes and the residuals against the second-order series; the
    scaling exponents come from log-log fits over the sweep.
    """
    rows = []
    law_resid = 0.0
    for c in c_values:
        samples, breakdowns = scenario_fn(c)
        if not samples:
            raise InvalidInputError(f"scenario produced no samples at c={c}")
        max_dev = 0.0
        max_pseudo = 0.0
        tau_res = 0.0
        force_res = 0.0
        first_order = 0.0
        for smp, fb in zip(samples, breakdowns):
            max_dev = max(max_dev, abs(smp.tau_dot - 1.0))
            if fb is not None:
                pseudo = sum(np.linalg.norm(part) for part in fb.pseudo_parts)
                max_pseudo = max(max_pseudo, pseudo)
                scale = m * (np.linalg.norm(smp.dv_dtau) + 1e-12)
                law_resid = max(law_resid,
                                float(np.linalg.norm(m * smp.dv_dtau - fb.total)) / scale)
            v = float(np.linalg.norm(smp.v))
            if v > 0.0:
                mu = float(smp.x @ smp.v) / (np.linalg.norm(smp.x) * v)
                series = sr_tau_dot_series(mu, v)
                tau_res = max(tau_res, abs(smp.tau_dot - series(1.0 / c)))
                first_order = max(first_order, abs(series.a1) / c)
                tdd_series, _ = sr_force_correction(
                    smp.x / np.linalg.norm(smp.x), smp.v, smp.dv_dtau,
                    float(np.linalg.norm(smp.x)))
                force_res = max(force_res,
                                abs(smp.tau_ddot / smp.tau_dot**2 - tdd_series(1.0 / c)))
        rows.append(LimitRow(c=float(c), max_tau_dot_dev=max_dev,
                             max_pseudo_force=max_pseudo,
                             tau_dot_series_residual=tau_res,
                             force_series_residual=force_res,
                             first_order_max=first_order))

    cs = [row.c for row in rows]
    tau_slope, noisy1 = _fit_slope(cs, [row.tau_dot_series_residual for row in rows])
    force_slope, noisy2 = _fit_slope(cs, [row.force_series_residual for row in rows])
    pseudo_slope, noisy3 = _fit_slope(cs, [row.max_pseudo_force for row in rows])
    return LimitReport(scenario_id=scenario_id, rows=rows,
                       tau_dot_slope=tau_slope, force_slope=force_slope,
                       pseudo_force_slope=pseudo_slope,
                       newton_law_residual=law_resid,
                       below_noise=noisy1 and noisy2 and noisy3)
