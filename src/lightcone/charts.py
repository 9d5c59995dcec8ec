"""Chart-based spacetime models and their curvature.

A Chart bundles a single coordinate patch with its metric components,
optional analytic connection coefficients, a domain predicate and the
designated right-handed orthonormal reference frame used for orientation
checks.  Two analytic models ship built in (flat Minkowski and exterior
Schwarzschild); anything else goes through the finite-difference path.

A chart may also supply its geodesic spray in closed form as spray_fn,
Gamma^k_ij v^i v^j per row: the acceleration of a ray, four numbers a
row where the connection has 64.  Without it Chart.spray contracts
Chart.christoffels with the velocity.

Every derivative of the connection is a complex step of what the chart
already has: for a real-analytic f the derivative along d is
Im f(x + i h d) / h, with nothing subtracted, so h = _COMPLEX_STEP gives
it to rounding (Squire & Trapp, SIAM Review 40, 110, 1998; Martins,
Sturdza & Alonso, ACM TOMS 29, 245, 2003).  The Jacobi columns of the
ray integrator take the spray's, the curvature checks the connection's.
So every evaluator keeps complex input, and a closed form keeps two
rules.  Its result takes its input's dtype: one that drops the
imaginary part would zero the derivative.  So Chart.christoffels, and
the ray integrator on a complex spray call, raise InvalidInputError on
a real result for complex input, naming the closed form (_kept_step);
real calls of the spray, the map rays' one evaluator, are not checked.
And it divides only as 1.0 / x: numpy divides complex numbers by
multiplying with the reciprocal, so complex a / b rounds unlike real
a / b, while 1.0 / b and a * (1.0 / b) round alike.  Then a row whose
imaginary step is zero, the ray that rides its Jacobi columns' complex
spray call, keeps the real bits of a real call; a chart without spray_fn
contracts its connection in complex numbers, and keeps them only to
rounding.  Every f = 1 - R/r below is computed as (r - R) * (1.0 / r),
exact to a few ulp up to the horizon, where 1 - R/r cancels.

A chart may name a second, regular chart that carries its rays
(Chart.ray_chart, a RayChart): its own closed-form metric, connection and
spray, with the coordinate map between the two charts and that map's
Jacobian Lambda.  Rays are then integrated in the ray chart and every
result is read back in the model chart: only the numerical route
changes, not the geometry.  schwarzschild() carries its rays in
outgoing Eddington-Finkelstein coordinates (u, r, theta, phi),
u = ct - r*, r* = r + R ln(r/R - 1) (Finkelstein, Phys. Rev. 110, 965,
1958; MTW sec. 31.4), so du = dx0 - dr/f with f = 1 - R/r = (r - R)/r.
They are regular on the past horizon that past-directed rays approach,
where Schwarzschild t diverges like ln(r - R).

Every Chart evaluator takes coords shaped (4,) or (n, 4).  The model's
*_fn callables see (n, 4) rows only: _per_row runs a point as a batch of
one, so row i of a batch result has the bits of the call at coords[i].
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetricError, InvalidInputError, OutOfChartError
from .lorentz import ETA

# Central-difference step of the metric for the connection of a chart
# without christoffel_fn
_METRIC_STEP = 1e-5

# The complex step h of every derivative of the connection, Im f(x + i h d) / h:
# nothing is subtracted, and its truncation error is h^2 relative, so it is
# exact to rounding
_COMPLEX_STEP = 1e-30


@dataclass(frozen=True)
class Chart:
    """One coordinate patch of a spacetime model.

    Coordinates are stored as lengths (coordinate 0 is c*t), so the speed
    of light c enters only when converting to and from seconds.  Chart
    exit is an error condition, not a transition: there is no atlas.
    christoffel_fn and spray_fn are optional closed forms of the
    connection and the geodesic spray; without the one, the connection
    comes from differences of the metric, and without the other, the
    spray from the connection.
    """

    name: str
    c: float
    metric_fn: Callable[[np.ndarray], np.ndarray]
    domain_fn: Callable[[np.ndarray], np.ndarray]
    reference_frame_fn: Callable[[np.ndarray], np.ndarray]
    christoffel_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    boundary_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    flat: bool = False
    params: dict = field(default_factory=dict)
    ray_chart: Optional["RayChart"] = None
    spray_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def metric(self, coords):
        return _per_row(self.metric_fn, coords)

    def contains(self, coords):
        return _per_row(self.domain_fn, coords)

    def reference_frame(self, coords):
        return _per_row(self.reference_frame_fn, coords)

    def christoffels(self, coords):
        """Gamma^k_ij: christoffel_fn, else differences of the metric at _METRIC_STEP."""
        coords = _array(coords)
        if self.christoffel_fn is not None:
            out, fn = _per_row(self.christoffel_fn, coords), "christoffel_fn"
        else:
            out, fn = _fd_christoffels(self, coords), "metric_fn"
        return _kept_step(self, fn, coords.dtype.kind == "c", out)

    def spray(self, coords, vel):
        """Gamma^k_ij vel^i vel^j: spray_fn, else the connection contracted with vel."""
        coords, vel = _array(coords), _array(vel)
        if coords.ndim == 1:
            return self.spray(coords[None], vel[None])[0]
        if self.spray_fn is not None:
            return self.spray_fn(coords, vel)
        return np.einsum("nkij,ni,nj->nk", self.christoffels(coords), vel, vel)

    def boundary_distance(self, coords):
        """Positive inside the domain, crossing zero at the boundary."""
        if self.boundary_fn is None:
            return None
        return _per_row(self.boundary_fn, coords)


def _kept_step(chart, fn, stepped, out):
    """out, from chart's closed form fn; stepped says whether its input was complex.

    A real out for a complex input lost the imaginary part, and with it
    the derivative that the complex step was taken for: InvalidInputError
    names the chart and fn.
    """
    if stepped and out.dtype.kind != "c":
        raise InvalidInputError(f"the {chart.name} chart's {fn} returned real values for "
                                "complex input; allocate its result with its input's dtype")
    return out


def _per_row(fn, coords):
    """fn, which maps (n, 4) rows to n results, at a (4,) point or at (n, 4) rows."""
    coords = _array(coords)
    return fn(coords[None])[0] if coords.ndim == 1 else fn(coords)


_KEPT_DTYPES = (np.dtype(float), np.dtype(complex))


def _array(a):
    """a as a float array; a float or complex array (a complex step) as it is."""
    return a if getattr(a, "dtype", None) in _KEPT_DTYPES else np.asarray(a, dtype=float)


@dataclass(frozen=True)
class RayChart:
    """A regular chart that carries a model chart's rays, and the map to it.

    to_ray maps (n, 4) model coordinates to (ray coordinates, Lambda),
    Lambda[n] = d(ray coordinates) / d(model coordinates) there; from_ray
    maps ray coordinates back to (model coordinates, Lambda^-1).  The
    chart's exit boundary must be the model chart's, so a ray clips at the
    same place in either.
    """

    chart: Chart
    to_ray: Callable[[np.ndarray], tuple]
    from_ray: Callable[[np.ndarray], tuple]

    def states_to_ray(self, states):
        """Ray states (n, 8k) from model states: position, then k-1 vectors."""
        return _move_states(self.to_ray, states)

    def states_from_ray(self, states):
        return _move_states(self.from_ray, states)


def _move_states(transform, states):
    """The first 4-block of each row through the map, every other one by its Jacobian."""
    states = np.asarray(states, dtype=float)
    n, width = states.shape
    pos, lam = transform(states[:, :4])
    out = states.reshape(n, width // 4, 4) @ lam.transpose(0, 2, 1)
    out[:, 0] = pos
    return out.reshape(n, width)


@dataclass(frozen=True)
class CurvatureSample:
    """Connection and curvature components at one chart point."""

    gamma: np.ndarray    # (4,4,4), gamma[k,i,j] symmetric in (i,j)
    riemann: np.ndarray  # (4,4,4,4), riemann[k,l,i,j] antisymmetric in (i,j)
    ricci: np.ndarray    # (4,4)


def minkowski(c=1.0) -> Chart:
    """Flat spacetime in standard coordinates (ct, y1, y2, y3)."""

    def metric_fn(pts):
        out = np.empty((len(pts), 4, 4), pts.dtype)
        out[...] = ETA
        return out

    def domain_fn(pts):
        return np.all(np.isfinite(pts), axis=-1)

    def frame_fn(pts):
        return np.tile(np.eye(4), (len(pts), 1, 1))

    return Chart(
        name="minkowski",
        c=float(c),
        metric_fn=metric_fn,
        domain_fn=domain_fn,
        reference_frame_fn=frame_fn,
        christoffel_fn=lambda pts: np.zeros((len(pts), 4, 4, 4), pts.dtype),
        boundary_fn=None,
        flat=True,
        params={"c": float(c)},
    )


def _exterior(radius):
    """Domain and boundary distance of r > R, 0 < theta < pi.

    Shared by the charts whose coordinates 1 and 2 are r and theta.
    """

    def domain_fn(pts):
        return (
            np.all(np.isfinite(pts), axis=-1)
            & (pts[:, 1] > radius)
            & (pts[:, 2] > 0.0)
            & (pts[:, 2] < np.pi)
        )

    def boundary_fn(pts):
        return np.minimum(pts[:, 1] - radius, np.minimum(pts[:, 2], np.pi - pts[:, 2]))

    return domain_fn, boundary_fn


def schwarzschild(radius, c=1.0) -> Chart:
    """Exterior region r > R in coordinates (ct, r, theta, phi).

    The polar seam is excluded from the domain rather than handled:
    theta must stay strictly inside (0, pi).  phi is left unbounded
    because every metric component is phi-independent; this sidesteps the
    2*pi wrap without changing any geometry.  Its rays are carried in
    outgoing Eddington-Finkelstein coordinates (see eddington_finkelstein).
    """
    radius = float(radius)
    if radius <= 0.0:
        raise InvalidInputError("Schwarzschild radius must be positive")
    domain_fn, boundary_fn = _exterior(radius)

    def metric_fn(pts):
        r, th = pts[:, 1], pts[:, 2]
        f = (r - radius) * (1.0 / r)
        g = np.zeros((len(pts), 4, 4), pts.dtype)
        g[:, 0, 0] = f
        g[:, 1, 1] = -1.0 / f
        g[:, 2, 2] = -(r**2)
        g[:, 3, 3] = -(r**2) * np.sin(th) ** 2
        return g

    def frame_fn(pts):
        return _static_frame(radius, pts)

    def christoffel_fn(pts):
        r, th = pts[:, 1], pts[:, 2]
        inv_r, fr = 1.0 / r, r - radius  # f r
        f = fr * inv_r
        half_fp = (0.5 * radius) * (inv_r * inv_r)  # df/dr / 2
        sin, cos = np.sin(th), np.cos(th)
        gam = np.zeros((len(pts), 4, 4, 4), pts.dtype)
        # a value and its negative share one evaluation: (-a) * b == -(a * b)
        # in floating point
        ratio, minus_fr = half_fp * (1.0 / f), -fr
        gam[:, 0, 0, 1] = gam[:, 0, 1, 0] = ratio
        gam[:, 1, 0, 0] = f * half_fp
        gam[:, 1, 1, 1] = -ratio
        gam[:, 1, 2, 2] = minus_fr
        gam[:, 1, 3, 3] = minus_fr * sin**2
        gam[:, 2, 1, 2] = gam[:, 2, 2, 1] = gam[:, 3, 1, 3] = gam[:, 3, 3, 1] = inv_r
        gam[:, 2, 3, 3] = -sin * cos
        gam[:, 3, 2, 3] = gam[:, 3, 3, 2] = cos * (1.0 / sin)
        return gam

    return Chart(
        name="schwarzschild",
        c=float(c),
        metric_fn=metric_fn,
        domain_fn=domain_fn,
        reference_frame_fn=frame_fn,
        christoffel_fn=christoffel_fn,
        boundary_fn=boundary_fn,
        flat=False,
        params={"c": float(c), "R": radius},
        ray_chart=_eddington_finkelstein_rays(radius, c),
    )


def _static_frame(radius, pts):
    """The static observers' orthonormal frame diag(f^-1/2, f^1/2, 1/r, 1/(r sin theta))."""
    r, th = pts[:, 1], pts[:, 2]
    inv_r = 1.0 / r
    f = (r - radius) * inv_r
    m = np.zeros((len(pts), 4, 4))
    m[:, 0, 0], m[:, 1, 1] = f**-0.5, f**0.5
    m[:, 2, 2], m[:, 3, 3] = inv_r, 1.0 / (r * np.sin(th))
    return m


def _eddington_finkelstein_rays(radius, c):
    """Schwarzschild's ray chart: outgoing Eddington-Finkelstein, u = x0 - r*.

    Lambda is the identity but for Lambda[0, 1] = -1/f = -r/(r - R), and
    Lambda^-1 has +1/f there; both depend on r alone, which the two charts
    share.
    """

    def transform(sign):
        def move(coords):
            # a point at or inside the horizon maps to a non-finite one, outside every domain
            with np.errstate(invalid="ignore", divide="ignore"):
                r = coords[:, 1]
                out = coords.copy()
                out[:, 0] += sign * (r + radius * np.log((r - radius) / radius))
                lam = np.tile(np.eye(4), (len(r), 1, 1))
                lam[:, 0, 1] = sign * r / (r - radius)
            return out, lam

        return move

    return RayChart(eddington_finkelstein(radius, c), transform(-1.0), transform(1.0))


def eddington_finkelstein(radius, c=1.0) -> Chart:
    """Schwarzschild's exterior in outgoing Eddington-Finkelstein (u, r, theta, phi).

    u = ct - r*, r* = r + R ln(r/R - 1); the metric is
    f du^2 + 2 du dr - r^2 dOmega^2 with f = (r - R)/r, and no component
    of it, of its connection or of their derivatives has a 1/f.  The
    domain and exit boundary are Schwarzschild's, so rays clip where they
    would there.
    """
    radius = float(radius)
    if radius <= 0.0:
        raise InvalidInputError("Schwarzschild radius must be positive")
    domain_fn, boundary_fn = _exterior(radius)

    def metric_fn(pts):
        r, th = pts[:, 1], pts[:, 2]
        g = np.zeros((len(pts), 4, 4), pts.dtype)
        g[:, 0, 0] = (r - radius) * (1.0 / r)
        g[:, 0, 1] = g[:, 1, 0] = 1.0
        g[:, 2, 2] = -(r**2)
        g[:, 3, 3] = -(r**2) * np.sin(th) ** 2
        return g

    def frame_fn(pts):
        # Schwarzschild's static frame, pushed forward: e_1 = f^1/2 (d_r - d_u / f)
        m = _static_frame(radius, pts)
        m[:, 0, 1] = -m[:, 0, 0]
        return m

    def christoffel_fn(pts):
        r, th = pts[:, 1], pts[:, 2]
        inv_r, fr = 1.0 / r, r - radius  # f r
        f = fr * inv_r
        half_fp = (0.5 * radius) * (inv_r * inv_r)  # df/dr / 2
        sin, cos = np.sin(th), np.cos(th)
        sin2 = sin**2
        gam = np.zeros((len(pts), 4, 4, 4), pts.dtype)
        gam[:, 0, 0, 0] = -half_fp
        gam[:, 0, 2, 2] = r
        gam[:, 0, 3, 3] = r * sin2
        gam[:, 1, 0, 0] = f * half_fp
        gam[:, 1, 0, 1] = gam[:, 1, 1, 0] = half_fp
        gam[:, 1, 2, 2] = -fr
        gam[:, 1, 3, 3] = -fr * sin2
        gam[:, 2, 1, 2] = gam[:, 2, 2, 1] = gam[:, 3, 1, 3] = gam[:, 3, 3, 1] = inv_r
        gam[:, 2, 3, 3] = -sin * cos
        gam[:, 3, 2, 3] = gam[:, 3, 3, 2] = cos * (1.0 / sin)
        return gam

    def spray_fn(pts, vel):
        # christoffel_fn's nonzero components contracted with vel twice, with
        # w = v2^2 + sin^2 v3^2 the angular part and f r = r - R
        r, th = pts[:, 1], pts[:, 2]
        inv_r, fr = 1.0 / r, r - radius
        f = fr * inv_r
        half_fp = (0.5 * radius) * (inv_r * inv_r)
        sin, cos = np.sin(th), np.cos(th)
        v0, v1, v2, v3 = vel.T
        v3_sq = v3 * v3
        w = v2 * v2 + sin * sin * v3_sq
        two_v1_r = 2.0 * v1 * inv_r
        out = np.empty((len(pts), 4), w.dtype)  # complex if pts or vel is
        out[:, 0] = r * w - half_fp * (v0 * v0)
        out[:, 1] = half_fp * v0 * (f * v0 + 2.0 * v1) - fr * w
        out[:, 2] = two_v1_r * v2 - sin * cos * v3_sq
        out[:, 3] = (two_v1_r + 2.0 * cos * (1.0 / sin) * v2) * v3
        return out

    return Chart(
        name="eddington-finkelstein",
        c=float(c),
        metric_fn=metric_fn,
        domain_fn=domain_fn,
        reference_frame_fn=frame_fn,
        christoffel_fn=christoffel_fn,
        boundary_fn=boundary_fn,
        flat=False,
        params={"c": float(c), "R": radius},
        spray_fn=spray_fn,
    )


def metric_at(chart: Chart, coords) -> np.ndarray:
    """Metric components at a single chart point (with domain check)."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (4,):
        raise InvalidInputError("metric_at expects a single coordinate 4-tuple")
    if not chart.contains(coords):
        raise OutOfChartError(f"{coords} lies outside the {chart.name} chart domain")
    return chart.metric(coords)


def _fd_christoffels(chart: Chart, coords):
    """Levi-Civita coefficients from central differences of the metric at _METRIC_STEP."""
    g = chart.metric(coords)
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"metric not invertible at {coords}") from exc
    dg = np.empty(g.shape + (4,), g.dtype)  # dg[..., l, i, j] = d g_li / d x^j
    for j in range(4):
        h = np.zeros(4)
        h[j] = _METRIC_STEP
        dg[..., j] = (chart.metric(coords + h) - chart.metric(coords - h)) / (2.0 * _METRIC_STEP)
    # gamma^k_ij = 1/2 g^{kl} (g_{li,j} + g_{lj,i} - g_{ij,l})
    term = dg + np.einsum("...lji->...lij", dg) - np.einsum("...ijl->...lij", dg)
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, term)


def _connection_derivs(chart: Chart, coords):
    """dgam[n, k, i, j, m] = d_m Gamma^k_ij at (n, 4) points: Im Gamma(x + i h e_m) / h."""
    coords = np.asarray(coords, dtype=float)
    steps = (coords[:, None] + 1j * _COMPLEX_STEP * np.eye(4)).reshape(-1, 4)
    dgam = chart.christoffels(steps).imag.reshape(len(coords), 4, 4, 4, 4) / _COMPLEX_STEP
    return np.moveaxis(dgam, 1, -1)


def riemann_ricci_at(chart: Chart, coords) -> CurvatureSample:
    """Curvature components from the connection and its derivatives.

    The connection comes from Chart.christoffels, and each derivative is
    its complex step (_connection_derivs, h = _COMPLEX_STEP): exact to
    rounding on a closed-form connection, and the derivative of the
    metric's differences on a metric-only chart.

    riemann[k, l, i, j] are the components of R(e_i, e_j) e_l in the
    commutator convention nabla_i nabla_j - nabla_j nabla_i - nabla_[i,j];
    ricci is the contraction of the upper index with the first lower
    curvature slot, ricci[l, j] = riemann[k, l, k, j].
    """
    coords = np.asarray(coords, dtype=float)
    if not chart.contains(coords):
        raise OutOfChartError(f"{coords} lies outside the {chart.name} chart domain")
    gamma = chart.christoffels(coords)
    dgam = _connection_derivs(chart, coords[None])[0]
    # R^k_{l ij} = d_i gamma^k_jl - d_j gamma^k_il
    #             + gamma^k_im gamma^m_jl - gamma^k_jm gamma^m_il
    riem = (
        np.einsum("kjli->klij", dgam)
        - np.einsum("kilj->klij", dgam)
        + np.einsum("kim,mjl->klij", gamma, gamma)
        - np.einsum("kjm,mil->klij", gamma, gamma)
    )
    ricci = np.einsum("klkj->lj", riem)
    return CurvatureSample(gamma=gamma, riemann=riem, ricci=ricci)
