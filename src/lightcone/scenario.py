"""Scenario ingestion: a flat dotted-key text format and its builders.

One line per setting, `section.key = value`; `#` starts a comment; values
are scalars, bare words, or comma-separated lists.  Physical quantities
carry their unit in the key name (c_m_per_s, a_m_per_s2, omega_rad_per_s)
and are converted exactly once here; everything downstream works in
meters, with coordinate 0 stored as c*t.

The canonical form (sorted non-comment lines, normalized whitespace)
feeds the manifest hash, so cosmetic edits never change it.

The observer's frames come from its worldline's own Fermi-Walker basis
(see observers): build_frames integrates nothing, whatever settings built
the curve.  Building a worldline that leaves the chart inside its
interval raises IntegrationError.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .charts import Chart, minkowski, schwarzschild
from .errors import CausalDomainError, ConfigError
from .lorentz import Event
from .observers import (
    FrameField,
    ObserverCurve,
    _fw_field,
    complete_orthonormal,
    make_inertial_observer,
    make_programmed_observer,
    make_uniformly_accelerated_observer,
    rotating_frame,
)
from .splitting import MultistartConfig

TOOL_VERSION = "0.1.0"

# every key a builder here or a command in cli reads; any other is an error
_KEYS = frozenset((
    "spacetime.name", "spacetime.c_m_per_s", "spacetime.R_m", "mass_kg", "tol.inv",
    "observer.kind", "observer.q0_m", "observer.u0", "observer.tau_min_s", "observer.tau_max_s",
    "observer.a_m_per_s2", "observer.accel_m_per_s2", "newton.first_order_bound",
    "frame.kind", "frame.columns", "frame.omega_rad_per_s", "frame.axis",
    "cone.tau_s", "cone.radii_m", "cone.n_polar", "cone.n_azimuth",
    "invert.tau_min_s", "invert.tau_max_s", "invert.x_box_m", "invert.x_center_m",
    "invert.n_tau", "invert.n_x", "invert.top_k", "observe.kind", "observe.q0_m",
    "observe.w_m_per_s", "observe.x_m", "observe.s_min_s", "observe.s_max_s", "observe.n_samples",
))


def parse_scenario_text(text):
    """Parse scenario text into an ordered {dotted_key: value} dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError(f"empty key or value in {raw.strip()!r}", line=lineno)
        if key not in _KEYS:
            raise ConfigError(f"unknown setting {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate setting {key!r}", line=lineno)
        values[key] = val
    return values


def canonical_text(values) -> str:
    return "\n".join(f"{k} = {values[k]}" for k in sorted(values)) + "\n"


def scenario_hash(values) -> str:
    return hashlib.sha256(canonical_text(values).encode()).hexdigest()


def _floats(raw):
    if raw.strip() == "none":  # explicit empty list
        return []
    try:
        return [float(p) for p in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {raw!r}") from exc


@dataclass
class Scenario:
    """Validated scenario: raw values plus constructed model objects."""

    values: dict

    def get(self, key, default=None, kind=float, count=None):
        """The setting as kind; a number is finite, a list holds finite numbers (count if given)."""
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required setting {key!r}")
            return default
        raw = self.values[key]
        if kind in (float, int):
            try:
                val = kind(raw)
            except ValueError as exc:
                raise ConfigError(f"setting {key!r} expects {kind.__name__}, got {raw!r}") from exc
            if not math.isfinite(val):
                raise ConfigError(f"setting {key!r} expects a finite number, got {raw!r}")
            return val
        if kind is str:
            return raw
        if kind is list:
            vals = _floats(raw)
            if not all(map(math.isfinite, vals)) or count not in (None, len(vals)):
                many = "" if count is None else f"{count} "
                raise ConfigError(f"setting {key!r} expects {many}finite numbers, got {raw!r}")
            return vals
        raise ConfigError(f"unsupported kind for {key!r}")

    def count(self, key, default):
        """An integer setting that must be at least 1."""
        n = self.get(key, default, kind=int)
        if n < 1:
            raise ConfigError(f"setting {key!r} must be at least 1, got {n}")
        return n

    def positive(self, key, default=None):
        """A number setting that must be greater than 0."""
        val = self.get(key, default)
        if not val > 0:
            raise ConfigError(f"setting {key!r} must be positive, got {val}")
        return val

    def event(self, key, chart: Chart) -> Event:
        """A 4-vector setting (default the origin) as an event inside the chart's domain."""
        coords = np.array(self.get(key, [0, 0, 0, 0], kind=list, count=4))
        if not chart.contains(coords):
            raise ConfigError(f"setting {key!r} lies outside the {chart.name} chart domain, "
                              f"got {coords.tolist()}")
        return Event(chart.name, coords)

    @property
    def hash(self):
        return scenario_hash(self.values)

    # -- builders ------------------------------------------------------------

    def build_chart(self) -> Chart:
        name = self.get("spacetime.name", kind=str)
        c = self.positive("spacetime.c_m_per_s", 1.0)
        if name == "minkowski":
            return minkowski(c)
        if name == "schwarzschild":
            return schwarzschild(self.positive("spacetime.R_m"), c)
        raise ConfigError(f"unknown spacetime {name!r}")

    def build_observer(self, chart: Chart) -> ObserverCurve:
        """The worldline, which carries its own Fermi-Walker basis."""
        kind = self.get("observer.kind", "inertial", kind=str)
        interval = self._interval()
        if kind == "inertial":
            q0 = self.event("observer.q0_m", chart)
            u0 = np.array(self.get("observer.u0", [1, 0, 0, 0], kind=list, count=4))
            try:
                return make_inertial_observer(chart, q0, u0, interval)
            except CausalDomainError as exc:
                raise ConfigError(f"setting 'observer.u0' at observer.q0_m: {exc}") from exc
        if kind == "uniformly_accelerated":
            if chart.name != "minkowski":
                raise ConfigError("uniformly accelerated observers need the flat chart")
            a = self.positive("observer.a_m_per_s2")
            return make_uniformly_accelerated_observer(a, chart.c, interval)
        if kind == "programmed":
            # a constant accelerometer reading in the curve's basis; arbitrary
            # programs are an API-level feature
            q0 = self.event("observer.q0_m", chart)
            accel = np.array(self.get("observer.accel_m_per_s2", kind=list, count=3))
            frame0 = _initial_frame_at(chart, q0.coords)
            return make_programmed_observer(chart, q0, frame0,
                                            lambda tau: accel, interval=interval)[0]
        raise ConfigError(f"unknown observer kind {kind!r}")

    def build_frames(self, chart: Chart, curve: ObserverCurve) -> FrameField:
        """The frame field these settings put along a curve.

        Every frame comes from the curve's own Fermi-Walker basis, whatever
        settings built the curve; nothing is integrated here.
        """
        kind = self.get("frame.kind", "fermi_walker", kind=str)
        if kind == "explicit":
            cols = np.array(self.get("frame.columns", kind=list, count=16)).reshape(4, 4, order="F")
            return FrameField(curve=curve,
                              matrix_fn=lambda taus: cols[None].repeat(len(taus), axis=0),
                              cov_deriv_fn=lambda taus: np.zeros((len(taus), 4, 4)))
        base = _fw_field(curve, curve.fw_basis_fn)
        if kind == "fermi_walker":
            return base
        if kind == "rotating":
            omega = self.get("frame.omega_rad_per_s")
            axis = self.get("frame.axis", 1, kind=int)
            if axis not in (1, 2, 3):
                raise ConfigError(f"setting 'frame.axis' must be 1, 2 or 3, got {axis}")
            return rotating_frame(base, omega, axis)
        raise ConfigError(f"unknown frame kind {kind!r}")

    def _interval(self):
        lo = self.get("observer.tau_min_s", -10.0)
        hi = self.get("observer.tau_max_s", 10.0)
        if hi <= lo:
            raise ConfigError("observer.tau_max_s must exceed observer.tau_min_s")
        return lo, hi

    def build_search(self, curve: ObserverCurve) -> MultistartConfig:
        lo = self.get("invert.tau_min_s", curve.interval[0])
        hi = self.get("invert.tau_max_s", curve.interval[1])
        if hi <= lo:
            raise ConfigError(f"setting 'invert.tau_max_s' must exceed 'invert.tau_min_s', "
                              f"got {hi} <= {lo}")
        half = self.get("invert.x_box_m", 6.0)
        if half < 0:
            raise ConfigError(f"setting 'invert.x_box_m' must be at least 0, got {half}")
        inv_tol = self.positive("tol.inv", 1e-10)
        center = self.get("invert.x_center_m", [0.0, 0.0, 0.0], kind=list, count=3)
        return MultistartConfig(
            tau_range=(lo, hi),
            x_halfwidth=half,
            x_center=tuple(center),
            n_tau=self.count("invert.n_tau", 9),
            n_x=self.count("invert.n_x", 9),
            top_k=self.count("invert.top_k", 16),
            inv_tol=inv_tol,
        )


def _initial_frame_at(chart, coords):
    g = chart.metric(np.asarray(coords, dtype=float))
    ref = chart.reference_frame(np.asarray(coords, dtype=float))
    return complete_orthonormal(g, ref[:, 0])


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return Scenario(values=parse_scenario_text(text))


def apply_overrides(scn: Scenario, overrides):
    """CLI overrides tol.inv=VAL: Newton's residual bound is the one key they may set."""
    for item in overrides or ():
        key, eq, val = item.partition("=")
        if key.strip() != "tol.inv" or not eq:
            raise ConfigError(f"only tol.inv=VAL may be overridden, not {item!r}")
        scn.values["tol.inv"] = val.strip()
    return scn
