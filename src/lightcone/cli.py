"""Command-line interface: scenario-driven runs with plot-ready CSV output.

Subcommands: trace-cone, invert, observe, newton-limit, validate, each
reading the one splitting (chart, curve, frames) that _splitting builds.
Every run writes its data files plus a manifest into --out.  Output is
deterministic: floats are printed with 17 significant digits, and every
command runs in one thread.  The only tolerance a scenario or
--tol-override sets is tol.inv.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numerical
failure.
"""

import argparse
import dataclasses
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import newtonian as nl
from . import splitting as sp
from .charts import metric_at, riemann_ricci_at
from .errors import CausalDomainError, ConfigError, LightconeError
from .geodesics import CLIPPED, FAILED, LANDED, GeodesicIVP, integrate_geodesic, integrate_jacobi
from .lorentz import ETA, Event, gram_matrix, validate_frame_of_reference
from .observers import make_inertial_observer
from .scenario import TOOL_VERSION, Scenario, apply_overrides, load_scenario

# validate's bound on each invariant check
_FRAME_GRAM_TOL = 1e-8       # |Gram(frame) - eta| of the scenario's frames
_NORM_DRIFT_TOL = 1e-9       # drift of g(k, k) along a cone ray, relative to 1 + |g(k, k)|
_FW_GRAM_TOL = 1e-8          # |Gram(basis) - eta| of the observer's Fermi-Walker basis
_JACOBI_AFFINITY_TOL = 1e-7  # g(J, k) off its affine law along a ray
_RICCI_TOL = 1e-5            # largest Ricci component of the Schwarzschild chart
_CHRISTOFFEL_FD_TOL = 1e-6   # differentiated-metric connection against the analytic one


def _fmt(x):
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _write_manifest(out_dir, scn, command, outputs, started, extra):
    lines = [
        f"scenario_hash = {scn.hash}",
        f"tool_version = {TOOL_VERSION}",
        f"command = {command}",
    ]
    lines += [f"output = {name}" for name in outputs]
    lines += [f"{key} = {val}" for key, val in extra.items()]
    lines.append(f"wall_clock_s = {time.monotonic() - started:.3f}")
    (Path(out_dir) / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _direction_grid(n_polar, n_azimuth):
    """Deterministic unit directions, poles avoided by half-step offsets."""
    dirs = []
    for i in range(n_polar):
        theta = np.pi * (i + 0.5) / n_polar
        for j in range(n_azimuth):
            phi = 2.0 * np.pi * j / n_azimuth
            dirs.append(np.array([
                np.sin(theta) * np.cos(phi),
                np.sin(theta) * np.sin(phi),
                np.cos(theta),
            ]))
    return dirs


def _splitting(scn: Scenario):
    """(chart, observer curve, frame field): the splitting the scenario sets up."""
    chart = scn.build_chart()
    curve = scn.build_observer(chart)
    return chart, curve, scn.build_frames(chart, curve)


def cmd_trace_cone(scn: Scenario, out_dir):
    """Sample the past light cone of the observer at configured instants.

    Every (tau, r, direction) ray goes into one batch.  A ray that lands
    gets reach_flag 1; one that clips at the chart boundary or fails
    gets 0, with the point where it stopped.
    """
    chart, _, frames = _splitting(scn)
    taus = scn.get("cone.tau_s", [0.0], kind=list)
    radii = scn.get("cone.radii_m", [1.0], kind=list)
    dirs = _direction_grid(scn.count("cone.n_polar", 4), scn.count("cone.n_azimuth", 8))

    jobs = [(tau, r, d) for tau in taus for r in radii for d in dirs]
    pts = np.array([(tau, *(r * d)) for tau, r, d in jobs], dtype=float).reshape(-1, 4)
    rays = sp.observer_rays(chart, frames, pts)
    pos, vel = rays.states[:, :4], rays.states[:, 4:8]
    norms = (vel[:, None, :] @ chart.metric(pos).reshape(-1, 4, 4) @ vel[:, :, None])[:, 0, 0]
    rows = [(*pt, *p, int(o == LANDED), abs(float(nrm)) / max(r * r, 1e-30))
            for pt, p, o, nrm, (_, r, _) in zip(pts, pos, rays.outcome, norms, jobs)]

    header = ["tau_s", "x1_m", "x2_m", "x3_m", "k0_m", "k1", "k2", "k3",
              "reach_flag", "lightlike_residual"]
    _write_csv(Path(out_dir) / "cone.csv", header, rows)
    return ["cone.csv"], {"rows": len(rows),
                          "rays_landed": int(np.sum(rays.outcome == LANDED)),
                          "rays_clipped": int(np.sum(rays.outcome == CLIPPED)),
                          "rays_failed": int(np.sum(rays.outcome == FAILED))}


def _read_targets(path):
    events = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line or line.startswith("k0"):
                    continue
                parts = [p for p in line.replace(",", " ").split() if p]
                if len(parts) != 4:
                    raise ConfigError(f"target needs 4 coordinates, got {raw.strip()!r}",
                                      line=lineno)
                try:
                    coords = np.array([float(p) for p in parts])
                except ValueError:
                    coords = None
                if coords is None or not np.all(np.isfinite(coords)):
                    raise ConfigError(f"target coordinates must be finite numbers, "
                                      f"got {raw.strip()!r}", line=lineno)
                events.append(coords)
    except OSError as exc:
        raise ConfigError(f"cannot read targets file {path}: {exc}") from exc
    return events


def cmd_invert(scn: Scenario, targets_path, out_dir):
    """Invert the observer map for every target event in the input file.

    All targets go through one invert_many call, so the multistart grid
    is mapped forward once per file.
    """
    chart, curve, frames = _splitting(scn)
    search = scn.build_search(curve)
    targets = _read_targets(targets_path)
    results = sp.invert_many(chart, frames, targets, search)

    rows = [
        (*tgt, p.tau, *p.x, resid, cond, int(reg))
        for tgt, res in zip(targets, results)
        for p, resid, cond, reg in zip(res.preimages, res.residuals, res.conds, res.regular)
    ]
    misses = sum(1 for res in results if len(res) == 0)
    header = ["k0_m", "k1", "k2", "k3", "tau_s", "x1_m", "x2_m", "x3_m",
              "residual", "cond", "regular"]
    _write_csv(Path(out_dir) / "preimages.csv", header, rows)
    return ["preimages.csv"], {"targets": len(targets), "rows": len(rows),
                               "targets_without_preimage": misses}


def _track(scn: Scenario, n_samples, start=None):
    """The observed worldline tracked through the scenario's splitting.

    observe_curve at observe.n_samples (default n_samples) values of s,
    from start; returns (chart, frames, samples, number of samples asked for).
    """
    chart, curve, frames = _splitting(scn)
    search = scn.build_search(curve)
    kind = scn.get("observe.kind", "inertial", kind=str)
    if kind == "inertial":
        q0 = np.array(scn.get("observe.q0_m", kind=list, count=4))
        w = np.array(scn.get("observe.w_m_per_s", [0, 0, 0], kind=list, count=3))
        lo, hi = curve.interval
        try:
            worldline = make_inertial_observer(chart, Event(chart.name, q0),
                                               np.concatenate([[chart.c], w]),
                                               (lo - 1.0, hi + 1.0))
        except CausalDomainError as exc:
            raise ConfigError(f"setting 'observe.w_m_per_s' makes the observed velocity (c, w) "
                              f"not timelike at observe.q0_m, with c = {chart.c:g}") from exc
    elif kind == "comoving":
        x = np.array(scn.get("observe.x_m", kind=list, count=3))
        worldline = sp.comoving_worldline(chart, frames, x)
    else:
        raise ConfigError(f"unknown observed worldline kind {kind!r}")
    s_lo = scn.get("observe.s_min_s", 0.0)
    s_hi = scn.get("observe.s_max_s", 1.0)
    n = scn.count("observe.n_samples", n_samples)
    samples = sp.observe_curve(chart, frames, worldline, np.linspace(s_lo, s_hi, n), search, start)
    return chart, frames, samples, n


def cmd_observe(scn: Scenario, out_dir):
    """Track an observed worldline: relative position, velocity, acceleration."""
    _, _, samples, n = _track(scn, 11)

    rows = [
        (smp.s, smp.tau, *smp.x, smp.tau_dot, *smp.v, *smp.dv_dtau,
         smp.character, int(smp.not_an_observer), int(smp.ambiguous))
        for smp in samples
    ]
    header = ["s_s", "tau_s", "x1_m", "x2_m", "x3_m", "tau_dot",
              "v1_m_per_s", "v2_m_per_s", "v3_m_per_s",
              "a1_m_per_s2", "a2_m_per_s2", "a3_m_per_s2",
              "character", "not_an_observer", "ambiguous"]
    _write_csv(Path(out_dir) / "observed.csv", header, rows)
    return ["observed.csv"], {"samples": len(samples), "branch_lost": int(len(samples) < n)}


def run_limit_scenario(scn: Scenario, c, start=None):
    """One Newtonian-limit measurement at a given speed of light.

    Rebuilds the whole splitting with the scenario's spacetime at speed c
    and observes the configured worldline; returns samples paired with
    their force breakdowns (force-free observed motion).  start, a
    (tau, x^1, x^2, x^3) row, seeds Newton for the first sample
    (observe_curve); without it, the first sample inverts cold.
    """
    values = dict(scn.values)
    values["spacetime.c_m_per_s"] = repr(float(c))
    scn_c = Scenario(values=values)
    chart, frames, samples, _ = _track(scn_c, 5, start)
    mass = scn_c.get("mass_kg", 1.0)
    return samples, [None if smp.not_an_observer or not np.all(np.isfinite(smp.dv_dtau))
                     else sp.relative_force(mass, chart, frames, smp, np.zeros(3))
                     for smp in samples]


def cmd_newton_limit(scn: Scenario, c_values, out_dir):
    """Sweep c and report clock-rate and force residual scaling.

    The sweep continues in c: it runs the c values in list order, and the
    first sample at each c starts Newton from the first state at the
    previous c, so only the first c inverts cold (and any c where Newton
    from that start fails).  The manifest counts the samples inverted cold
    (cold_starts, a failed warm start included) and the continued ones.
    The report's series assume an inertial observer in flat spacetime with
    a non-rotating frame; any other case is a config error, before any work.
    """
    for key, want in (("spacetime.name", "minkowski"), ("observer.kind", "inertial")):
        if scn.get(key, want, kind=str) != want:
            raise ConfigError(f"newton-limit needs setting {key!r} = {want}, "
                              f"got {scn.values[key]!r}")
    if scn.get("frame.kind", "", kind=str) == "rotating" and scn.get("frame.omega_rad_per_s"):
        raise ConfigError(f"newton-limit needs setting 'frame.omega_rad_per_s' = 0, "
                          f"got {scn.values['frame.omega_rad_per_s']!r}")
    first = None  # the previous c's first state (tau, x)
    starts = Counter()

    def measure(c):
        nonlocal first
        samples, breakdowns = run_limit_scenario(scn, c, first)
        if samples:
            first = np.array([samples[0].tau, *samples[0].x])
        starts.update(smp.start for smp in samples)
        return samples, breakdowns

    report = nl.newtonian_limit_report(
        measure, c_values,
        scenario_id=scn.get("spacetime.name", kind=str),
        m=scn.get("mass_kg", 1.0),
    )
    rows = [
        (row.c, row.max_tau_dot_dev, row.max_pseudo_force,
         row.tau_dot_series_residual, row.force_series_residual,
         row.first_order_max)
        for row in report.rows
    ]
    header = ["c_m_per_s", "max_tau_dot_dev", "max_pseudo_force",
              "tau_dot_series_residual", "force_series_residual",
              "first_order_max"]
    _write_csv(Path(out_dir) / "limit_residuals.csv", header, rows)

    bound = scn.get("newton.first_order_bound", 0.0)
    lines = [
        f"scenario_id = {report.scenario_id}",
        f"tau_dot_slope = {_fmt(report.tau_dot_slope)}",
        f"force_slope = {_fmt(report.force_slope)}",
        f"pseudo_force_slope = {_fmt(report.pseudo_force_slope)}",
        f"newton_law_residual = {_fmt(report.newton_law_residual)}",
        f"below_noise = {int(report.below_noise)}",
    ]
    if bound > 0.0:
        worst = max(row.first_order_max for row in report.rows)
        lines.append(f"first_order_bound = {_fmt(bound)}")
        lines.append(f"first_order_max = {_fmt(worst)}")
        lines.append(f"first_order_bound_satisfied = {int(worst <= bound)}")
    (Path(out_dir) / "limit_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["limit_residuals.csv", "limit_report.txt"], {
        "c_values": len(rows), "cold_starts": starts["cold"],
        "continued_starts": starts["continued"]}


def _validate_checks(scn: Scenario, rng):
    """Yield (name, measured, bound) for every invariant check."""
    chart, curve, frames = _splitting(scn)
    lo, hi = curve.interval
    taus = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 7)

    # frame admissibility at sampled instants
    worst = 0.0
    ok = True
    for tau in taus:
        pos = curve.position(tau)
        g = metric_at(chart, pos)
        m = frames.matrix(tau)
        worst = max(worst, float(np.max(np.abs(gram_matrix(g, m) - ETA))))
        ok = ok and validate_frame_of_reference(
            g, curve.velocity(tau), chart.reference_frame(pos), m)
    yield "frame_gram_eta", worst, _FRAME_GRAM_TOL
    yield "frame_admissible", 0.0 if ok else 1.0, 0.5

    # geodesic norm conservation on random cone rays
    drift = 0.0
    for _ in range(5):
        tau = rng.uniform(taus[0], taus[-1])
        x = rng.uniform(-2.0, 2.0, size=3)
        if np.linalg.norm(x) < 0.1:
            x = np.array([1.0, 0.5, 0.2])
        k = sp.cone_vector(frames, tau, x)
        q = Event(chart.name, curve.position(tau))
        sol = integrate_geodesic(chart, GeodesicIVP(q, k), 1.0)
        if sol.clipped:
            continue
        g0 = chart.metric(sol.position(0.0))
        n0 = float(sol.velocity(0.0) @ g0 @ sol.velocity(0.0))
        for s in np.linspace(0, sol.s1, 9):
            gs = chart.metric(sol.position(s))
            ns = float(sol.velocity(s) @ gs @ sol.velocity(s))
            drift = max(drift, abs(ns - n0) / (1.0 + abs(n0)))
    yield "geodesic_norm_drift", drift, _NORM_DRIFT_TOL

    # Gram drift of the Fermi-Walker basis the observer carries
    gram_drift = 0.0
    for tau, basis in zip(taus, curve.fw_basis(taus)):
        g = metric_at(chart, curve.position(tau))
        gram_drift = max(gram_drift, float(np.max(np.abs(gram_matrix(g, basis) - ETA))))
    yield "fw_gram_drift", gram_drift, _FW_GRAM_TOL

    # Jacobi pairing affinity on a random ray
    tau = float(taus[len(taus) // 2])
    k = sp.cone_vector(frames, tau, np.array([1.2, -0.4, 0.8]))
    q = Event(chart.name, curve.position(tau))
    sol = integrate_geodesic(chart, GeodesicIVP(q, k), 1.0)
    j0, dj0 = rng.normal(size=4), rng.normal(size=4)
    jac = integrate_jacobi(chart, sol, j0, dj0)
    g0 = metric_at(chart, q.coords)
    a = float(dj0 @ g0 @ k)
    b = float(j0 @ g0 @ k)
    res = 0.0
    for s in np.linspace(0, sol.s1, 9):
        gs = chart.metric(sol.position(s))
        res = max(res, abs(float(jac.value(s) @ gs @ sol.velocity(s)) - (a * s + b)))
    yield "jacobi_pairing_affinity", res, _JACOBI_AFFINITY_TOL

    if chart.name == "schwarzschild":
        radius = chart.params["R"]
        rs = np.linspace(1.5 * radius, 12.0 * radius, 5)
        ths = np.linspace(0.3, np.pi - 0.3, 4)
        ricci = 0.0
        gam_dev = 0.0
        # without christoffel_fn the chart differentiates its metric
        fd_chart = dataclasses.replace(chart, christoffel_fn=None)
        pts = [(r, th) for r in rs for th in ths]
        for r, th in pts[:20]:
            coords = np.array([0.0, r, th, 0.4])
            ricci = max(ricci, float(np.max(np.abs(riemann_ricci_at(chart, coords).ricci))))
            gam_dev = max(gam_dev, float(np.max(np.abs(
                fd_chart.christoffels(coords) - chart.christoffels(coords)))))
        yield "schwarzschild_ricci_flat", ricci, _RICCI_TOL
        yield "christoffel_fd_vs_analytic", gam_dev, _CHRISTOFFEL_FD_TOL


def cmd_validate(scn: Scenario, out_dir, seed=0):
    """Run the invariant suite; the manifest's checks_failed counts the failed checks."""
    rng = np.random.default_rng(seed)
    lines = []
    failed = 0
    for name, measured, bound in _validate_checks(scn, rng):
        ok = measured <= bound
        failed += 0 if ok else 1
        lines.append(f"{name}: measured={_fmt(measured)} bound={_fmt(bound)} "
                     f"{'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    (Path(out_dir) / "validate.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return ["validate.txt"], {"checks_failed": failed}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lightcone",
        description="Observer splitting of relativistic spacetimes: "
                    "cone tracing, map inversion, relative motion, Newtonian limits.",
    )
    parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--tol-override", action="append", default=[],
                        metavar="tol.inv=VAL", help="override tol.inv, Newton's residual bound")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random invariant sampling")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("trace-cone", help="sample past light cones")
    p_inv = sub.add_parser("invert", help="invert the observer map for target events")
    p_inv.add_argument("--targets", required=True, help="file of events, 4 columns")
    sub.add_parser("observe", help="track an observed worldline")
    p_nl = sub.add_parser("newton-limit", help="sweep c and fit residual scaling")
    p_nl.add_argument("--c-list", required=True,
                      help="comma-separated speeds of light to sweep")
    sub.add_parser("validate", help="run the invariant suite")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        scn = apply_overrides(load_scenario(args.scenario), args.tol_override)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "trace-cone":
            outputs, extra = cmd_trace_cone(scn, out_dir)
        elif args.command == "invert":
            outputs, extra = cmd_invert(scn, args.targets, out_dir)
        elif args.command == "observe":
            outputs, extra = cmd_observe(scn, out_dir)
        elif args.command == "newton-limit":
            try:
                c_values = [float(p) for p in args.c_list.split(",")]
            except ValueError:
                raise ConfigError(f"--c-list expects comma-separated numbers, "
                                  f"got {args.c_list!r}") from None
            outputs, extra = cmd_newton_limit(scn, c_values, out_dir)
        elif args.command == "validate":
            outputs, extra = cmd_validate(scn, out_dir, args.seed)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        _write_manifest(out_dir, scn, args.command, outputs, started, extra)
        return 1 if extra.get("checks_failed") else 0
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except LightconeError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
