"""Chart models: metric displays, connection coefficients, curvature."""

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

from lightcone.charts import (
    _connection_derivs,
    _fd_christoffels,
    eddington_finkelstein,
    metric_at,
    minkowski,
    riemann_ricci_at,
    schwarzschild,
)
from lightcone.errors import InvalidInputError, OutOfChartError
from lightcone.geodesics import _ray_rhs, integrate_batch
from lightcone.lorentz import ETA, _check_metric
from lightcone.scenario import load_scenario
from lightcone.splitting import _map_states


@pytest.fixture(scope="module")
def sw():
    return schwarzschild(1.0)


EQ_POINT = np.array([0.0, 2.0, np.pi / 2, 0.0])


def validate_metric(g, sym_tol=1e-12) -> np.ndarray:
    """Check symmetry and (+,-,-,-) signature; return the validated matrix."""
    g = _check_metric(g)
    if np.max(np.abs(g - g.T)) > sym_tol * max(1.0, np.max(np.abs(g))):
        raise InvalidInputError("metric is not symmetric")
    eig = np.linalg.eigvalsh(g)
    if not (np.sum(eig > 0) == 1 and np.sum(eig < 0) == 3):
        raise InvalidInputError(f"metric does not have Lorentz signature, eigenvalues {eig}")
    return g


class TestMetricValidation:
    def test_eta_ok(self):
        validate_metric(ETA)

    def test_wrong_signature(self):
        with pytest.raises(InvalidInputError):
            validate_metric(np.eye(4))

    def test_asymmetric(self):
        g = ETA.copy()
        g[0, 1] = 1e-3
        with pytest.raises(InvalidInputError):
            validate_metric(g)


def test_minkowski_metric_everywhere():
    mk = minkowski()
    for coords in (np.zeros(4), np.array([3.0, -1.0, 2.0, 7.0])):
        assert np.array_equal(metric_at(mk, coords), ETA)


def test_schwarzschild_metric_display(sw):
    g = metric_at(sw, EQ_POINT)
    assert np.allclose(np.diag(g), [0.5, -2.0, -4.0, -4.0])
    assert np.allclose(g - np.diag(np.diag(g)), 0.0)


def test_schwarzschild_asymptotically_flat(sw):
    g = metric_at(sw, np.array([0.0, 1e9, np.pi / 2, 0.0]))
    assert g[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert g[1, 1] == pytest.approx(-1.0, abs=1e-8)


def test_schwarzschild_signature_samples(sw):
    for r in (1.1, 2.0, 50.0):
        validate_metric(metric_at(sw, np.array([0.0, r, 1.0, 2.0])))


def test_out_of_chart(sw):
    with pytest.raises(OutOfChartError):
        metric_at(sw, np.array([0.0, 0.9, np.pi / 2, 0.0]))
    with pytest.raises(OutOfChartError):
        metric_at(sw, np.array([0.0, 2.0, 0.0, 0.0]))
    with pytest.raises(OutOfChartError):
        riemann_ricci_at(sw, np.array([0.0, 1.0, np.pi / 2, 0.0]))


def test_bad_radius():
    with pytest.raises(InvalidInputError):
        schwarzschild(-1.0)


def test_minkowski_christoffels_vanish():
    mk = minkowski()
    assert np.array_equal(mk.christoffels(np.array([1.0, 2, 3, 4])), np.zeros((4, 4, 4)))


def test_schwarzschild_gamma_r_tt(sw):
    gam = sw.christoffels(EQ_POINT)
    # (1 - R/r) * R / (2 r^2) at R=1, r=2
    assert gam[1, 0, 0] == pytest.approx(0.0625, abs=1e-12)


def test_christoffel_fd_matches_analytic(sw):
    for r, th in ((2.0, np.pi / 2), (3.7, 1.1), (10.0, 2.0)):
        coords = np.array([0.0, r, th, 0.3])
        dev = np.max(np.abs(_fd_christoffels(sw, coords) - sw.christoffels(coords)))
        assert dev <= 1e-6


def test_metric_only_chart_batched(sw):
    # a chart without analytic connection serves the batched map and
    # Jacobian; they match the analytic chart within fd accuracy
    mo = dataclasses.replace(sw, christoffel_fn=None)
    pts = np.array([[0.0, 2.0, np.pi / 2, 0.0], [0.5, 3.7, 1.1, 0.3], [1.0, 10.0, 2.0, -1.0]])
    batched = _fd_christoffels(mo, pts)
    assert np.array_equal(batched, np.stack([_fd_christoffels(mo, p) for p in pts]))

    scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                        / "schwarzschild_faller.scn")
    chart = scn.build_chart()
    frames = scn.build_frames(chart, scn.build_observer(chart))
    obs = np.array([[0.0, 0.5, 0.25, -0.15], [0.5, -0.4, 0.6, 0.2]])
    y0 = _map_states(frames, obs, True)
    cols = np.r_[8:12, 16:20, 24:28, 32:36]  # the J of each Jacobian column
    out = integrate_batch(chart, y0, 4)[0].ends
    out_mo = integrate_batch(dataclasses.replace(chart, christoffel_fn=None), y0, 4)[0].ends
    ev, jac, ev_mo, jac_mo = out[:, :4], out[:, cols], out_mo[:, :4], out_mo[:, cols]
    assert np.max(np.abs(ev_mo - ev)) <= 1e-9
    assert np.max(np.abs(jac_mo - jac)) <= 1e-10 * max(1.0, np.max(np.abs(jac)))


def test_metric_only_chart_jacobian_steps():
    # without analytic connection the Jacobian columns take the complex step
    # of the spray contracted from fd Christoffels; their noise must not
    # drive the shared step control to tiny steps
    scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                        / "schwarzschild_faller.scn")
    chart = scn.build_chart()
    frames = scn.build_frames(chart, scn.build_observer(chart))
    rays = [(0.3, (1.0, 0.5, 0.2)), (-1.0, (-0.8, 0.6, 0.3))]
    y0 = _map_states(frames, np.array([[tau, *x] for tau, x in rays]), True)
    interp, steps = integrate_batch(chart, y0, n_jac=4)
    mo = dataclasses.replace(chart, christoffel_fn=None)
    interp_mo, steps_mo = integrate_batch(mo, y0, n_jac=4)
    assert steps_mo <= 2 * steps
    out, out_mo = interp.ends, interp_mo.ends
    cols = np.r_[8:12, 16:20, 24:28, 32:36]  # the J of each column
    assert (np.max(np.abs(out_mo[:, cols] - out[:, cols]))
            <= 1e-10 * np.max(np.abs(out[:, cols])))


def test_metric_only_christoffel_derivs_match_closed_form(sw):
    # the complex step through a metric-only chart's differences, where the
    # faller's rays run: their rounding noise must not swamp the derivative
    _, want_dgam = _sympy_connection("schwarzschild")
    mo = dataclasses.replace(sw, christoffel_fn=None)
    for r in np.linspace(2.0, 12.0, 6):
        pts = np.array([[0.3, r, th, 0.4] for th in np.linspace(1.2, 1.9, 5)])
        for p, g in zip(pts, _connection_derivs(mo, pts)):
            w = np.array(want_dgam(p, 1.0), dtype=float)
            assert np.max(np.abs(g - w)) <= 1e-8 * np.max(np.abs(w))


def test_schwarzschild_christoffel_derivs_closed_form(sw):
    # criterion 8's grid: the complex step of the closed-form connection
    # against its central differences
    step = 1e-5
    for r in np.linspace(1.5, 12.0, 5):
        for th in np.linspace(0.3, np.pi - 0.3, 4):
            coords = np.array([0.0, r, th, 0.4])
            dgam = _connection_derivs(sw, coords[None])[0]
            assert dgam.shape == (4, 4, 4, 4)
            for m in range(4):
                h = np.zeros(4)
                h[m] = step
                fd = (sw.christoffels(coords + h) - sw.christoffels(coords - h)) / (2 * step)
                assert np.max(np.abs(dgam[..., m] - fd)) <= 1e-6
            assert np.array_equal(dgam, dgam.transpose(0, 2, 1, 3))
            assert not dgam[..., 0].any() and not dgam[..., 3].any()
    pts = np.array([[0.0, 3.0, 1.0, 0.2], [0.0, 5.0, 2.0, 0.1]])
    assert np.array_equal(_connection_derivs(sw, pts)[1], _connection_derivs(sw, pts[1:])[0])


def test_minkowski_christoffel_derivs_vanish():
    assert not _connection_derivs(minkowski(), np.zeros((3, 4))).any()


def test_christoffel_symmetry(sw):
    gam = sw.christoffels(np.array([0.0, 3.0, 1.0, 0.5]))
    assert np.max(np.abs(gam - gam.transpose(0, 2, 1))) <= 1e-10


def test_metric_compatibility(sw):
    # d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il ~ 0 with fd derivatives
    coords = np.array([0.0, 4.0, 1.2, 0.7])
    step = 1e-5
    gam = sw.christoffels(coords)
    g = sw.metric(coords)
    worst = 0.0
    for k in range(4):
        h = np.zeros(4)
        h[k] = step
        dg = (sw.metric(coords + h) - sw.metric(coords - h)) / (2 * step)
        for i in range(4):
            for j in range(4):
                resid = dg[i, j]
                for l in range(4):
                    resid -= gam[l, k, i] * g[l, j] + gam[l, k, j] * g[i, l]
                worst = max(worst, abs(resid))
    assert worst <= 1e-6


def test_minkowski_curvature_vanishes():
    mk = minkowski()
    sample = riemann_ricci_at(mk, np.array([0.0, 1.0, 2.0, 3.0]))
    assert np.array_equal(sample.riemann, np.zeros((4, 4, 4, 4)))
    assert np.array_equal(sample.ricci, np.zeros((4, 4)))


def test_schwarzschild_ricci_flat_at_display_point(sw):
    sample = riemann_ricci_at(sw, EQ_POINT)
    assert np.max(np.abs(sample.ricci)) <= 1e-6


def test_schwarzschild_riemann_nonzero(sw):
    sample = riemann_ricci_at(sw, EQ_POINT)
    assert abs(sample.riemann[0, 1, 0, 1]) > 1e-3


def test_riemann_antisymmetry(sw):
    sample = riemann_ricci_at(sw, np.array([0.0, 5.0, 0.9, 0.1]))
    assert np.max(np.abs(sample.riemann + sample.riemann.transpose(0, 1, 3, 2))) <= 1e-8


def test_ricci_flat_on_grid(sw):
    worst = 0.0
    for r in np.linspace(1.5, 12.0, 5):
        for th in np.linspace(0.3, np.pi - 0.3, 4):
            sample = riemann_ricci_at(sw, np.array([0.0, r, th, 0.4]))
            worst = max(worst, float(np.max(np.abs(sample.ricci))))
    assert worst <= 1e-5


def test_fd_path_on_metric_only_chart():
    # user-style chart: Schwarzschild metric without analytic coefficients
    sw = schwarzschild(1.0)
    bare = type(sw)(
        name=sw.name, c=sw.c, metric_fn=sw.metric_fn, domain_fn=sw.domain_fn,
        reference_frame_fn=sw.reference_frame_fn, christoffel_fn=None,
        boundary_fn=sw.boundary_fn, flat=False, params=sw.params,
    )
    coords = np.array([0.0, 3.0, 1.3, 0.2])
    assert np.max(np.abs(bare.christoffels(coords) - sw.christoffels(coords))) <= 1e-6
    sample = riemann_ricci_at(bare, coords)
    assert np.max(np.abs(sample.ricci)) <= 1e-8


# -- the ray chart: outgoing Eddington-Finkelstein ----------------------------

EF_POINTS = np.array([[0.3, r, th, 0.4] for r in (1.001, 1.5, 3.0, 12.0) for th in (0.4, 1.3, 2.9)])


@functools.lru_cache(maxsize=None)
def _sympy_connection(name):
    """Gamma(x, R) and its derivatives dgam[k, i, j, m] from sympy, for either chart's metric."""
    sp = pytest.importorskip("sympy")
    x0, r, th, ph, big_r = sp.symbols("x0 r theta phi R", positive=True)
    xs, f = [x0, r, th, ph], 1 - big_r / r
    angular = [[0, 0, -r**2, 0], [0, 0, 0, -r**2 * sp.sin(th) ** 2]]
    if name == "schwarzschild":
        g = sp.Matrix([[f, 0, 0, 0], [0, -1 / f, 0, 0], *angular])
    else:  # outgoing Eddington-Finkelstein, x0 = u
        g = sp.Matrix([[f, 1, 0, 0], [1, 0, 0, 0], *angular])
    gi = g.inv()
    gam = [[[sum(gi[k, l] * (sp.diff(g[l, i], xs[j]) + sp.diff(g[l, j], xs[i])
                             - sp.diff(g[i, j], xs[l])) for l in range(4)) / 2
             for j in range(4)] for i in range(4)] for k in range(4)]
    dgam = [[[[sp.diff(gam[k][i][j], xs[m]) for m in range(4)] for j in range(4)]
             for i in range(4)] for k in range(4)]
    return sp.lambdify((xs, big_r), gam, "mpmath"), sp.lambdify((xs, big_r), dgam, "mpmath")


@pytest.mark.parametrize("make", [schwarzschild, eddington_finkelstein], ids=lambda m: m.__name__)
def test_eddington_finkelstein_connection_matches_sympy(make):
    # the closed-form connection and its complex step, against sympy's
    # expressions at 40 digits: with f = (r - R)/r both charts hold 1e-14
    # up to r = 1.001 R, where 1 - R/r in doubles would be 3.5e-14 off
    mpmath = pytest.importorskip("mpmath")
    want_gam, want_dgam = _sympy_connection(make.__name__)
    for radius in (1.0, 2.5):
        chart = make(radius)
        pts = EF_POINTS * [1.0, radius, 1.0, 1.0]
        got_gam, got_dgam = chart.christoffels(pts), _connection_derivs(chart, pts)
        for p, gg, dg in zip(pts, got_gam, got_dgam):
            with mpmath.workdps(40):
                args = [mpmath.mpf(v) for v in p], mpmath.mpf(radius)
                w, wd = (np.array(want(*args), dtype=float) for want in (want_gam, want_dgam))
            assert np.max(np.abs(gg - w)) <= 1e-14 * np.max(np.abs(w))
            assert np.max(np.abs(dg - wd)) <= 1e-14 * np.max(np.abs(wd))
        assert np.array_equal(got_gam[1], chart.christoffels(pts[1]))
        assert np.array_equal(got_dgam[1], _connection_derivs(chart, pts[1:2])[0])


def _ray_region(rng, n):
    """n points where the faller's rays run, and a random velocity at each."""
    pts = np.column_stack([rng.normal(size=n), rng.uniform(1.5, 30.0, n),
                           rng.uniform(0.05, np.pi - 0.05, n), rng.uniform(-4.0, 4.0, n)])
    return pts, rng.normal(size=(n, 4)) * rng.uniform(0.1, 10.0, (n, 1))


def _contracted(chart, pts, vel):
    return np.einsum("nkij,ni,nj->nk", chart.christoffels(pts), vel, vel)


def test_eddington_finkelstein_spray_is_the_contracted_connection():
    # the closed form is Gamma(v, v) to rounding, and row i of a batch is
    # the call at point i
    ef = eddington_finkelstein(1.0)
    pts, vel = _ray_region(np.random.default_rng(11), 500)
    got, want = ef.spray(pts, vel), _contracted(ef, pts, vel)
    bound = 1e-14 * (1.0 + np.linalg.norm(want, axis=1))
    assert np.all(np.max(np.abs(got - want), axis=1) <= bound)
    for p, v, row in zip(pts[:7], vel[:7], got):
        assert np.array_equal(ef.spray(p, v), row)


@pytest.mark.parametrize("metric_only", [False, True], ids=["schwarzschild", "metric-only"])
def test_spray_without_a_closed_form_contracts_the_connection(sw, metric_only):
    chart = dataclasses.replace(sw, christoffel_fn=None) if metric_only else sw
    assert chart.spray_fn is None
    pts, vel = _ray_region(np.random.default_rng(12), 40)
    got = chart.spray(pts, vel)
    assert np.array_equal(got, _contracted(chart, pts, vel))
    assert np.array_equal(chart.spray(pts[3], vel[3]), got[3])


@pytest.mark.parametrize("chart", [minkowski(), schwarzschild(1.0), eddington_finkelstein(1.0),
                                   dataclasses.replace(schwarzschild(1.0), christoffel_fn=None)],
                         ids=["minkowski", "schwarzschild", "eddington-finkelstein", "metric-only"])
def test_jacobi_columns_are_the_spray_derivative(chart):
    # a column's dv' is the complex step of the spray along (dx, dv): it
    # matches a five-point central difference of the real spray, whose
    # step balances its truncation against the metric-only chart's noise
    # (2.2e-8 there, 6.8e-10 on the closed forms)
    rng = np.random.default_rng(13)
    pts = np.column_stack([rng.normal(size=40), rng.uniform(1.5, 30.0, 40),
                           rng.uniform(0.2, 2.9, 40), rng.uniform(-4.0, 4.0, 40)])
    vel, dx, dv = rng.normal(size=(3, 40, 4))
    got = _ray_rhs(chart, 1)(0.0, np.hstack([pts, vel, dx, dv]))[:, 12:16]

    def spray(e):
        return chart.spray(pts + e * dx, vel + e * dv)

    h = 3e-3
    want = -(8.0 * (spray(h) - spray(-h)) - (spray(2 * h) - spray(-2 * h))) / (12.0 * h)
    assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_a_ray_riding_its_columns_keeps_its_real_bits(radius):
    # with Jacobi columns each ray is the unstepped row of its columns'
    # complex spray call, and has the bits of the real call a map ray
    # makes, at the horizon's edge, near the poles and with zero velocity
    # components; each evaluation makes one spray call, complex with
    # columns and real without
    ef = eddington_finkelstein(radius)
    calls = []

    def counting(pts, vel):
        calls.append((pts.dtype.kind, len(pts)))
        return ef.spray_fn(pts, vel)

    chart = dataclasses.replace(ef, spray_fn=counting)
    rng = np.random.default_rng(16)
    r = radius * np.concatenate([np.full(12, 1.001), rng.uniform(1.002, 40.0, 60)])
    th = np.concatenate([[1e-6, 1e-3, np.pi - 1e-3, np.pi - 1e-6], rng.uniform(0.1, 3.0, 8)])
    pts = np.column_stack([rng.normal(size=72), r, np.tile(th, 6), rng.uniform(-4.0, 4.0, 72)])
    vel = rng.normal(size=(72, 4))
    vel[::2, 1] = vel[1::3, 2:] = vel[2::4, 0] = 0.0
    y = np.hstack([pts, vel, rng.normal(size=(72, 32))])
    with_columns = _ray_rhs(chart, 4)(0.0, y)
    alone = _ray_rhs(chart, 0)(0.0, y[:, :8])
    assert calls == [("c", 72 * 5), ("f", 72)]
    assert np.array_equal(with_columns[:, :8], alone)


def _real_part_only(fn):
    """fn at the real part of its input: a closed form that drops a complex step.

    Nothing complex is ever written into a float array, so no
    ComplexWarning fires before the check.
    """
    return lambda pts, *vel: fn(pts.real, *(v.real for v in vel))


def _dropping(field):
    """A chart whose closed form field (or, with metric_fn, whose only one) drops the step."""
    if field == "spray_fn":
        ef = eddington_finkelstein(1.0)
        return dataclasses.replace(ef, spray_fn=_real_part_only(ef.spray_fn))
    sw = schwarzschild(1.0)
    if field == "christoffel_fn":
        return dataclasses.replace(sw, christoffel_fn=_real_part_only(sw.christoffel_fn))
    return dataclasses.replace(sw, christoffel_fn=None, metric_fn=_real_part_only(sw.metric_fn))


@pytest.mark.parametrize("field", ["spray_fn", "christoffel_fn", "metric_fn"])
def test_a_complex_step_that_comes_back_real_raises(field):
    # a real result would zero every Jacobi column's dv' (and every dGamma):
    # the ray right-hand side and the connection's derivatives refuse it,
    # naming the chart and the closed form; a real call is not checked
    chart = _dropping(field)
    pts, vel = _ray_region(np.random.default_rng(14), 5)
    assert np.isfinite(chart.spray(pts, vel)).all()
    dx, dv = np.random.default_rng(15).normal(size=(2, 5, 4))
    with pytest.raises(InvalidInputError, match=f"{chart.name} chart's {field}"):
        _ray_rhs(chart, 1)(0.0, np.hstack([pts, vel, dx, dv]))
    if field != "spray_fn":  # riemann_ricci_at's path
        with pytest.raises(InvalidInputError, match=f"{chart.name} chart's {field}"):
            _connection_derivs(chart, pts)


def test_minkowski_keeps_a_complex_step():
    mk = minkowski()
    pts = np.zeros((2, 4)) + 1e-30j
    assert mk.metric(pts).dtype == mk.christoffels(pts).dtype == complex


def test_ray_chart_map_round_trips(sw):
    rays = sw.ray_chart
    model = EF_POINTS.copy()
    ray, lam = rays.to_ray(model)
    back, lam_inv = rays.from_ray(ray)
    assert np.max(np.abs(back - model)) <= 1e-14 * np.max(np.abs(model))
    assert np.array_equal(ray[:, 1:], model[:, 1:])
    eye = np.broadcast_to(np.eye(4), lam.shape)
    assert np.max(np.abs(lam @ lam_inv - eye)) <= 1e-15
    # Lambda is the map's derivative: central differences of u along each axis
    h = 1e-7
    for m in range(4):
        step = np.zeros(4)
        step[m] = h
        fd = (rays.to_ray(model + step)[0] - rays.to_ray(model - step)[0]) / (2 * h)
        assert np.max(np.abs(fd - lam[:, :, m]) / np.maximum(1.0, np.abs(lam[:, :, m]))) <= 1e-5
    # a ray state (position, velocity, J, W): the position through the
    # map, every vector through Lambda
    vectors = np.random.default_rng(1).normal(size=(len(model), 3, 4))
    states = np.concatenate([model[:, None], vectors], axis=1).reshape(len(model), 16)
    moved = rays.states_to_ray(states)
    blocks = moved.reshape(len(model), 4, 4)
    assert np.array_equal(blocks[:, 0], ray)
    want = vectors @ lam.transpose(0, 2, 1)
    assert np.max(np.abs(blocks[:, 1:] - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.max(np.abs(rays.states_from_ray(moved) - states)
                  / np.maximum(1.0, np.abs(states))) <= 1e-13


def test_ray_chart_pulls_back_the_metric(sw):
    # the map's Jacobian carries one metric into the other, both ways
    ray, lam = sw.ray_chart.to_ray(EF_POINTS)
    _, lam_inv = sw.ray_chart.from_ray(ray)
    g_s, g_ef = sw.metric(EF_POINTS), sw.ray_chart.chart.metric(ray)
    scale = np.max(np.abs(g_s), axis=(1, 2))[:, None, None]
    assert np.max(np.abs(lam.transpose(0, 2, 1) @ g_ef @ lam - g_s) / scale) <= 1e-13
    assert np.max(np.abs(lam_inv.transpose(0, 2, 1) @ g_s @ lam_inv - g_ef)) <= 1e-10
    for p in ray:
        g = sw.ray_chart.chart.metric(p)
        validate_metric(g)
        frame = sw.ray_chart.chart.reference_frame(p)  # orthonormal in the ray chart
        assert np.max(np.abs(frame.T @ g @ frame - ETA)) <= 1e-12


EVALUATORS = ("metric", "contains", "reference_frame", "christoffels", "boundary_distance")


@pytest.mark.parametrize("chart", [minkowski(), schwarzschild(1.0), eddington_finkelstein(1.0)],
                         ids=lambda ch: ch.name)
def test_each_row_of_a_batch_is_the_point_call(chart):
    # every evaluator takes (4,) or (n, 4); row i of a batch has the bits
    # of the call at point i, for two rows as for many
    rng = np.random.default_rng(4)
    for n in (2, 3, 7):
        pts = np.column_stack([rng.normal(size=n), rng.uniform(1.5, 30.0, n),
                               rng.uniform(0.2, 2.9, n), rng.uniform(-4.0, 4.0, n)])
        for name in EVALUATORS:
            batch = getattr(chart, name)(pts)
            if batch is None:  # a chart without a boundary
                assert name == "boundary_distance" and chart.boundary_fn is None
                continue
            assert len(batch) == n
            for p, row in zip(pts, batch):
                one = getattr(chart, name)(p)
                assert np.shape(one) == np.shape(row)
                assert np.array_equal(one, row)
