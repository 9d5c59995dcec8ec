"""Spans and work counts at lightcone's layer boundaries.

The traced run wraps public callables of each module in place: every
module-level reference to a wrapped function is replaced, and methods are
replaced on their class.  Each wrapper records a span (name, start, end,
parent, self time, counts read from arguments and return values).  The
innermost evaluators (the chart's Christoffel callable and the frame
field's matrix and covariant derivative) run tens of thousands of times per
command, so they are summed per name instead of kept as spans; their time
still counts as child time of the span that called them.

Only public names are wrapped.  A name that no longer exists is reported as
missing, and the metrics that depend on it are left out of the result.
"""

import dataclasses
import functools
import sys
import time

import numpy as np


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    self_s: float
    counts: dict
    error: str = ""

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # open spans: [index, child seconds]
        self.leaves = {}  # name -> [calls, points, seconds]
        self.missing = []
        self._patches = []

    # -- recording -------------------------------------------------------------

    def span(self, name, fn, counter=None):
        """Wrap fn so that each call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            self.spans.append(None)
            frame = [index, 0.0]
            self.stack.append(frame)
            error = ""
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += end - start
                counts = {}
                if counter is not None and not error:
                    try:
                        counts = counter(args, kwargs, out)
                    except (AttributeError, TypeError, ValueError, IndexError):
                        counts = {}
                self.spans[index] = Span(name, start, end, parent,
                                         end - start - frame[1], counts, error)

        return wrapper

    def leaf(self, name, fn, points=None):
        """Wrap a hot evaluator: sum calls, points and time per name."""
        totals = self.leaves.setdefault(name, [0, 0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[0] += 1
                totals[1] += points(args) if points is not None else 1
                totals[2] += elapsed
                if self.stack:
                    self.stack[-1][1] += elapsed

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch_function(self, module_name, attr, name, counter=None):
        """Replace every lightcone module's reference to module.attr."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = self.span(name, original, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lightcone" or mod_name.startswith("lightcone.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr, wrap):
        original = getattr(cls, attr, None)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        self._set(cls, attr, wrap(original))

    def _set(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def install(self):
        """Wrap lightcone's layer boundaries until uninstall()."""
        import lightcone.cli  # noqa: F401  (loads every module the CLI uses)

        self.missing = []
        self.patch_function("lightcone.scenario", "load_scenario", "scenario.load")
        self.patch_function("lightcone.geodesics", "integrate_geodesic",
                            "geodesics.integrate_geodesic", _geodesic_counts)
        self.patch_function("lightcone.geodesics", "integrate_batch",
                            "geodesics.integrate_batch", _batch_counts)
        self.patch_function("lightcone.splitting", "invert_observer_map",
                            "splitting.invert_observer_map", _inversion_counts)
        self.patch_function("lightcone.splitting", "observe_curve",
                            "splitting.observe_curve", lambda a, k, out: {"samples": len(out)})
        self.patch_function("lightcone.splitting", "relative_force", "splitting.relative_force")
        self.patch_function("lightcone.newtonian", "newtonian_limit_report",
                            "newtonian.newtonian_limit_report",
                            lambda a, k, out: {"rows": len(out.rows)})

        scenario_cls = getattr(sys.modules.get("lightcone.scenario"), "Scenario", None)
        if scenario_cls is None:
            self.missing.append("lightcone.scenario.Scenario")
        else:
            self.patch_method(
                scenario_cls, "build_chart",
                lambda fn: self.span("scenario.build_chart", self._chart_builder(fn)))
            for attr, name in (("build_observer", "observers.build_observer"),
                               ("build_frames", "observers.build_frames"),
                               ("build_search", "scenario.build_search")):
                self.patch_method(scenario_cls, attr, lambda fn, n=name: self.span(n, fn))

        frame_cls = getattr(sys.modules.get("lightcone.observers"), "FrameField", None)
        if frame_cls is None:
            self.missing.append("lightcone.observers.FrameField")
        else:
            self.patch_method(frame_cls, "matrix",
                              lambda fn: self.leaf("observers.frame_matrix", fn))
            self.patch_method(frame_cls, "cov_deriv",
                              lambda fn: self.leaf("observers.cov_deriv", fn))

    def _chart_builder(self, build):
        """Chart builder whose charts carry a traced Christoffel evaluator."""

        def build_chart(scn, *args, **kwargs):
            chart = build(scn, *args, **kwargs)
            fn = getattr(chart, "christoffel_fn", None)
            if fn is None:
                return chart
            return dataclasses.replace(
                chart, christoffel_fn=self.leaf("charts.christoffel", fn, _points))

        return build_chart

    # -- output ----------------------------------------------------------------

    def dump(self):
        return {
            "spans": [dataclasses.asdict(s) for s in self.spans if s is not None],
            "leaves": {k: {"calls": v[0], "points": v[1], "seconds": v[2]}
                       for k, v in self.leaves.items()},
            "missing": list(self.missing),
        }


def _points(args):
    coords = np.asarray(args[0])
    return int(coords.shape[0]) if coords.ndim == 2 else 1


def _geodesic_counts(args, kwargs, out):
    return {"steps": int(out.steps), "clipped": int(bool(out.clipped))}


def _batch_counts(args, kwargs, out):
    y0 = np.asarray(args[1] if len(args) > 1 else kwargs["y0"])
    n_jac = args[2] if len(args) > 2 else kwargs.get("n_jac", 0)
    return {"rays": int(y0.shape[0]), "jac": int(bool(n_jac)), "steps": int(out[1])}


def _inversion_counts(args, kwargs, out):
    return {"starts": int(out.n_starts), "converged": int(out.n_converged),
            "preimages": len(out.preimages)}


# Operations a batch of rays can serve; a batch counts for the nearest one
# among its ancestors.
_OWNERS = ("splitting.relative_force", "splitting.invert_observer_map",
           "splitting.observe_curve")
_BUILDS = ("scenario.build_chart", "observers.build_observer",
           "observers.build_frames", "scenario.build_search", "scenario.load")


def layer_metrics(tracer, rounds):
    """Per-layer metrics per round of work: {name: (value, unit)}.

    Every workload runs whole rounds of identical operations, so totals
    divided by the number of rounds are exact per-round counts that repeat
    between runs with the same seed.
    """
    spans = tracer.spans

    def ancestors(i):
        p = spans[i].parent
        while p >= 0:
            yield spans[p].name
            p = spans[p].parent

    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_total(name):
        return sum(s.self_s for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    out = {}

    def put(metric, value, unit, per_round=True):
        out[metric] = (value / rounds if per_round else value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    put("scenario.build_s", total("scenario.load") + total("scenario.build_chart")
        + total("scenario.build_search"), "s")
    put("observers.build_s", total("observers.build_observer")
        + total("observers.build_frames"), "s")
    put("cli.self_s", self_total("cli.main"), "s")

    calls, points, secs = tracer.leaves.get("charts.christoffel", [0, 0, 0.0])
    put("charts.christoffel_calls", calls, "count")
    put("charts.christoffel_points", points, "count")
    put("charts.christoffel_s", secs, "s")
    put("charts.points_per_call", ratio(points, calls), "count", per_round=False)

    # single rays traced by a command; worldline integrations inside the
    # scenario builders belong to observers.build_s
    single = [s for i, s in enumerate(spans) if s.name == "geodesics.integrate_geodesic"
              and not any(a in _BUILDS for a in ancestors(i))]
    steps = [s.counts.get("steps", 0) for s in single]
    put("geodesics.single_rays", len(single), "count")
    put("geodesics.single_steps", sum(steps), "count")
    put("geodesics.single_s", sum(s.duration for s in single), "s")
    put("geodesics.single_self_s", sum(s.self_s for s in single), "s")
    put("geodesics.steps_per_ray_p50", float(np.median(steps)) if steps else 0.0,
        "count", per_round=False)
    put("geodesics.steps_per_ray_max", float(max(steps)) if steps else 0.0,
        "count", per_round=False)
    put("geodesics.clipped_rays", sum(s.counts.get("clipped", 0) for s in single), "count")

    batches = by_name.get("geodesics.integrate_batch", [])
    rays_map = sum(b.counts.get("rays", 0) for b in batches if not b.counts.get("jac"))
    rays_jac = sum(b.counts.get("rays", 0) for b in batches if b.counts.get("jac"))
    map_s = sum(b.duration for b in batches if not b.counts.get("jac"))
    jac_s = sum(b.duration for b in batches if b.counts.get("jac"))
    put("geodesics.batch_calls", len(batches), "count")
    put("geodesics.batch_rays_map", rays_map, "count")
    put("geodesics.batch_rays_jac", rays_jac, "count")
    put("geodesics.batch_steps", count("geodesics.integrate_batch", "steps"), "count")
    put("geodesics.batch_map_s", map_s, "s")
    put("geodesics.batch_jac_s", jac_s, "s")
    put("geodesics.batch_self_s", self_total("geodesics.integrate_batch"), "s")
    put("geodesics.s_per_ray_map", ratio(map_s, rays_map), "s", per_round=False)
    put("geodesics.s_per_ray_jac", ratio(jac_s, rays_jac), "s", per_round=False)
    put("geodesics.jac_over_map", ratio(ratio(jac_s, rays_jac), ratio(map_s, rays_map)),
        "ratio", per_round=False)
    put("geodesics.rays_per_batch", ratio(rays_map + rays_jac, len(batches)), "count",
        per_round=False)

    for name, label in (("observers.frame_matrix", "frame_matrix"),
                        ("observers.cov_deriv", "cov_deriv")):
        calls, _, secs = tracer.leaves.get(name, [0, 0, 0.0])
        put(f"observers.{label}_calls", calls, "count")
        put(f"observers.{label}_s", secs, "s")

    # rays by the operation they serve
    owned = {o: [0, 0] for o in _OWNERS}  # owner -> [all rays, Jacobian rays]
    for i, s in enumerate(spans):
        if s.name != "geodesics.integrate_batch":
            continue
        for a in ancestors(i):
            if a in owned:
                owned[a][0] += s.counts.get("rays", 0)
                owned[a][1] += s.counts.get("rays", 0) if s.counts.get("jac") else 0
                break

    invert_calls = len(by_name.get("splitting.invert_observer_map", []))
    put("splitting.invert_calls", invert_calls, "count")
    put("splitting.invert_s", total("splitting.invert_observer_map"), "s")
    put("splitting.invert_self_s", self_total("splitting.invert_observer_map"), "s")
    put("splitting.starts_per_target",
        ratio(count("splitting.invert_observer_map", "starts"), invert_calls),
        "count", per_round=False)
    put("splitting.converged_per_target",
        ratio(count("splitting.invert_observer_map", "converged"), invert_calls),
        "count", per_round=False)
    put("splitting.rays_per_target",
        ratio(owned["splitting.invert_observer_map"][0], invert_calls), "count",
        per_round=False)

    force_calls = len(by_name.get("splitting.relative_force", []))
    samples = count("splitting.observe_curve", "samples")
    put("splitting.observe_s", total("splitting.observe_curve"), "s")
    put("splitting.observe_self_s", self_total("splitting.observe_curve"), "s")
    put("splitting.force_calls", force_calls, "count")
    put("splitting.force_s", total("splitting.relative_force"), "s")
    put("splitting.force_self_s", self_total("splitting.relative_force"), "s")
    put("splitting.jac_rays_per_force",
        ratio(owned["splitting.relative_force"][1], force_calls), "count", per_round=False)
    # every ray a tracked sample costs: its inversions, stencil and force
    sample_rays = sum(owned[o][0] for o in _OWNERS) if samples else 0
    put("splitting.rays_per_sample", ratio(sample_rays, samples), "count", per_round=False)

    put("newtonian.report_self_s", self_total("newtonian.newtonian_limit_report"), "s")
    put("trace.spans", len(spans), "count")
    return out


# Metrics that need a wrapped name; left out when that name, or anything
# under it, is missing.
REQUIRES = {
    "lightcone.scenario.load_scenario": ("scenario.build_s",),
    "lightcone.scenario.Scenario": ("scenario.build_s", "observers.build_s",
                                    "charts.christoffel_calls", "charts.christoffel_points",
                                    "charts.christoffel_s", "charts.points_per_call"),
    "lightcone.geodesics.integrate_geodesic": (
        "geodesics.single_rays", "geodesics.single_steps", "geodesics.single_s",
        "geodesics.single_self_s", "geodesics.steps_per_ray_p50",
        "geodesics.steps_per_ray_max", "geodesics.clipped_rays"),
    "lightcone.geodesics.integrate_batch": (
        "geodesics.batch_calls", "geodesics.batch_rays_map", "geodesics.batch_rays_jac",
        "geodesics.batch_steps", "geodesics.batch_map_s", "geodesics.batch_jac_s",
        "geodesics.batch_self_s", "geodesics.s_per_ray_map", "geodesics.s_per_ray_jac",
        "geodesics.jac_over_map", "geodesics.rays_per_batch",
        "splitting.rays_per_target", "splitting.jac_rays_per_force",
        "splitting.rays_per_sample"),
    "lightcone.observers.FrameField": (
        "observers.frame_matrix_calls", "observers.frame_matrix_s",
        "observers.cov_deriv_calls", "observers.cov_deriv_s"),
    "lightcone.splitting.invert_observer_map": (
        "splitting.invert_calls", "splitting.invert_s", "splitting.invert_self_s",
        "splitting.starts_per_target", "splitting.converged_per_target",
        "splitting.rays_per_target"),
    "lightcone.splitting.observe_curve": ("splitting.observe_s", "splitting.observe_self_s",
                                          "splitting.rays_per_sample"),
    "lightcone.splitting.relative_force": ("splitting.force_calls", "splitting.force_s",
                                           "splitting.force_self_s",
                                           "splitting.jac_rays_per_force"),
    "lightcone.newtonian.newtonian_limit_report": ("newtonian.report_self_s",),
}
