"""The benchmark's workloads: seeded inputs, command lines and output checks.

Each workload turns a seed into one round of command-line operations.  A
run repeats that round, so every round does the same work in the same
order.  The seed only jitters inputs inside fixed strata, which keeps the
cost of a round nearly the same from seed to seed.

Checks compare the program's output files with the computations in
references.py, never with stored output.
"""

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np

import references

# A landed cone ray's |g(k, k)| / r^2 at its endpoint must stay below this.
LIGHTLIKE_BOUND = 1e-8
# Endpoints against the reference null ray: x0 relative to 1 + |x0|, r
# relative to r, angles absolute.  Both integrate to ~1e-10.
ENDPOINT_TOL = 1e-8
# A preimage matches the (tau, x) that produced its target within this.
ROUNDTRIP_TOL = 1e-7
# limit_residuals.csv columns against their closed-form values.
LIMIT_REL_TOL = 1e-6
LIMIT_ABS_TOL = 1e-12
NEWTON_LAW_BOUND = 1e-6
SLOPE_TOL = 1e-3          # fitted tau_dot_slope against the closed-form fit
SLOPE_ORDER_TOL = 0.25    # ... and against 3, the order the series leaves


@dataclasses.dataclass
class Operation:
    """One command line: its arguments after --out, the work units it does."""

    scenario: Path
    command: list
    units: int
    outputs: tuple

    def argv(self, out_dir):
        return ["--scenario", str(self.scenario), "--out", str(out_dir), *self.command]


def scenario_text(preset, overrides):
    """Preset scenario text with some settings replaced or added."""
    lines = []
    for raw in Path(preset).read_text(encoding="utf-8").splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        if key not in overrides:
            lines.append(raw)
    lines.extend(f"{key} = {value}" for key, value in overrides.items())
    return "\n".join(lines) + "\n"


def preset_values(path):
    """{key: raw value} of a scenario file, comments and blank lines dropped."""
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = raw.split("#", 1)[0].partition("=")
        if key.strip():
            values[key.strip()] = value.strip()
    return values


def faller_of(preset):
    """Closed-form reference for the faller preset's observer and frame."""
    v = preset_values(preset)
    q0 = [float(p) for p in v["observer.q0_m"].split(",")]
    u0 = [float(p) for p in v.get("observer.u0", "1, 0, 0, 0").split(",")]
    if (v["spacetime.name"] != "schwarzschild" or v.get("observer.kind", "inertial") != "inertial"
            or v.get("frame.kind", "fermi_walker") != "fermi_walker"
            or q0[0] != 0.0 or any(u0[1:])):
        raise ValueError(f"{preset}: the references need an inertial Schwarzschild observer "
                         "released from rest at t = 0 with a Fermi-Walker frame")
    return references.Faller(q0[1], float(v["spacetime.R_m"]),
                             c=float(v.get("spacetime.c_m_per_s", "1")), theta=q0[2], phi=q0[3])


def numbers(values):
    return ", ".join(repr(float(v)) for v in values)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def read_report(path):
    fields = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields


class Workload:
    name = ""
    unit = ""

    def __init__(self, scenarios_dir, work_dir, seed):
        self.scenarios = Path(scenarios_dir)
        self.work = Path(work_dir)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.ops = []  # one round of operations

    def write(self, name, text):
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return path

    def setup_scenario(self):
        """Scenario file whose set-up the fresh-start probes time."""
        return self.ops[0].scenario

    def check(self, out_dirs):
        """Check the outputs of one round.

        out_dirs maps the index of every operation whose calls succeeded to
        its output directory.  Returns (errors, accuracy): errors maps an
        operation's index to its failed checks; accuracy holds this
        workload's accuracy figures.
        """
        raise NotImplementedError


class ConeSchw(Workload):
    """trace-cone on the radial free-faller: many independent single rays."""

    name = "cone-schw"
    unit = "ray"
    calls = 3
    taus_per_call = 2
    # inner, middle and outer radii; at the outer one the ray aimed at the
    # hole (direction -x1) reaches the horizon margin and clips
    radii = (2.0, 6.0, 12.5)
    radius_jitter = 0.05
    n_polar, n_azimuth = 3, 6
    landed_sample = 10

    def __init__(self, scenarios_dir, work_dir, seed):
        super().__init__(scenarios_dir, work_dir, seed)
        preset = self.scenarios / "schwarzschild_faller.scn"
        self.faller = faller_of(preset)
        for j in range(self.calls):
            taus = np.sort(self.rng.uniform(-2.5, 2.5, self.taus_per_call))
            radii = np.array(self.radii) * (1.0 + self.radius_jitter
                                            * self.rng.uniform(-1.0, 1.0, len(self.radii)))
            text = scenario_text(preset, {
                "cone.tau_s": numbers(taus),
                "cone.radii_m": numbers(radii),
                "cone.n_polar": self.n_polar,
                "cone.n_azimuth": self.n_azimuth,
            })
            rays = len(taus) * len(radii) * self.n_polar * self.n_azimuth
            self.ops.append(Operation(self.write(f"cone{j}.scn", text), ["trace-cone"],
                                      rays, ("cone.csv",)))

    def check(self, out_dirs):
        errors = {}
        rows = []  # (op index, row)
        lightlike = 0.0
        for j, out in out_dirs.items():
            _, data = read_csv(out / "cone.csv")
            bad = []
            if len(data) != self.ops[j].units:
                bad.append(f"{len(data)} rows for {self.ops[j].units} rays")
            for row in data:
                if row[8] == 1.0:
                    lightlike = max(lightlike, row[9])
                    if not row[9] <= LIGHTLIKE_BOUND:
                        bad.append(f"lightlike residual {row[9]:.3e} at x={row[1:4]}")
            if bad:
                errors[j] = bad
            rows.extend((j, row) for row in data)

        # every clipped ray, plus a seeded sample of landed ones
        pick = np.random.default_rng([self.seed, 1])
        landed = [i for i, (_, row) in enumerate(rows) if row[8] == 1.0]
        sample = [i for i, (_, row) in enumerate(rows) if row[8] != 1.0]
        sample += sorted(pick.choice(landed, size=min(self.landed_sample, len(landed)),
                                     replace=False).tolist())
        worst = 0.0
        for i in sample:
            j, row = rows[i]
            tau, x, end = row[0], np.array(row[1:4]), np.array(row[4:8])
            reached, _, ref = references.null_ray(
                self.faller.R, self.faller.position(tau), self.faller.cone_vector(tau, x))
            if reached != (row[8] == 1.0):
                errors.setdefault(j, []).append(
                    f"reach flag {row[8]:g} at tau={tau:.6g} x={x}, reference says {int(reached)}")
                continue
            dphi = math.remainder(end[3] - ref[3], 2.0 * math.pi)
            dev = max(abs(end[0] - ref[0]) / (1.0 + abs(ref[0])),
                      abs(end[1] - ref[1]) / ref[1], abs(end[2] - ref[2]), abs(dphi))
            worst = max(worst, dev)
            if not dev <= ENDPOINT_TOL:
                errors.setdefault(j, []).append(
                    f"endpoint off the reference by {dev:.3e} at tau={tau:.6g} x={x}")
        return errors, {"geodesics.ref_dev_max": worst,
                        "geodesics.lightlike_residual_max": lightlike}


class InvertSchw(Workload):
    """invert on the radial free-faller: wide map and map+Jacobian batches."""

    name = "invert-schw"
    unit = "target"
    files = 4
    targets_per_file = 2
    tol_inv = 1e-10
    # the start grid spans |x| <= 3 sqrt(3) ~ 5.2, so no start ray comes
    # near the horizon 9 R away
    search = {
        "invert.tau_min_s": -2.5,
        "invert.tau_max_s": 2.5,
        "invert.x_box_m": 3,
        "invert.n_tau": 5,
        "invert.n_x": 5,
        "invert.top_k": 8,
    }

    def __init__(self, scenarios_dir, work_dir, seed):
        super().__init__(scenarios_dir, work_dir, seed)
        preset = self.scenarios / "schwarzschild_faller.scn"
        faller = faller_of(preset)
        settings = dict(self.search, **{"tol.inv": self.tol_inv})
        scn = self.write("invert.scn", scenario_text(preset, settings))
        self.truth = []  # per file: list of (tau, x, target)
        sites = iter(self.sites())
        for j in range(self.files):
            entries = []
            for _ in range(self.targets_per_file):
                tau, x = next(sites)
                reached, _, target = references.null_ray(
                    faller.R, faller.position(tau), faller.cone_vector(tau, x))
                if not reached:
                    raise RuntimeError(f"target ray at tau={tau} x={x} does not land")
                entries.append((tau, x, target))
            path = self.write(f"targets{j}.txt", "".join(
                " ".join(repr(float(v)) for v in t) + "\n" for _, _, t in entries))
            self.truth.append(entries)
            self.ops.append(Operation(scn, ["invert", "--targets", str(path)],
                                      len(entries), ("preimages.csv",)))

    def sites(self):
        """Seeded (tau, x): one per octant of directions, jittered in place.

        Newton's work per target depends on where the target falls between
        start points, so the seed moves each target only a little and the
        cost of a round stays nearly the same from seed to seed.
        """
        n = self.files * self.targets_per_file
        taus = np.linspace(-1.8, 1.8, n)[[3, 6, 0, 5, 2, 7, 1, 4]]
        tilt = np.array([[0.8, -0.36, 0.48], [0.6, 0.48, -0.64], [0.0, 0.8, 0.6]])
        out = []
        for i in range(n):
            octant = np.array([1 if i & 1 else -1, 1 if i & 2 else -1, 1 if i & 4 else -1])
            d = tilt @ octant + self.rng.normal(scale=0.02, size=3)
            size = (1.4 if i % 2 else 2.1) * (1.0 + self.rng.uniform(-0.02, 0.02))
            out.append((taus[i] + self.rng.uniform(-0.05, 0.05), size * d / np.linalg.norm(d)))
        return out

    def check(self, out_dirs):
        errors = {}
        roundtrip = residual = 0.0
        for j, out in out_dirs.items():
            _, data = read_csv(out / "preimages.csv")
            bad = []
            for tau, x, target in self.truth[j]:
                mine = [row for row in data if np.array_equal(row[0:4], target)]
                scale = 1.0 + float(np.max(np.abs(target)))
                for row in mine:
                    residual = max(residual, row[8])
                    if not row[8] <= self.tol_inv * scale:
                        bad.append(f"residual {row[8]:.3e} above tol.inv * {scale:.3g}")
                dist = min((max(abs(row[4] - tau), float(np.max(np.abs(np.array(row[5:8]) - x))))
                            for row in mine), default=math.inf)
                roundtrip = max(roundtrip, dist)
                if not dist <= ROUNDTRIP_TOL:
                    bad.append(f"no preimage within {ROUNDTRIP_TOL:g} of tau={tau:.6g} "
                               f"x={x} ({len(mine)} preimages, nearest {dist:.3e})")
            if bad:
                errors[j] = bad
        return errors, {"splitting.roundtrip_err_max": roundtrip,
                        "splitting.residual_max": residual}


class LimitFlat(Workload):
    """newton-limit on flat force-free masses: batches of one ray."""

    name = "limit-flat"
    unit = "sample"
    masses = 8
    c_values = (1.0, 2.0, 4.0, 8.0)
    n_samples = 3
    s_range = (0.0, 2.0)

    def __init__(self, scenarios_dir, work_dir, seed):
        super().__init__(scenarios_dir, work_dir, seed)
        preset = self.scenarios / "sr_limit_sweep.scn"
        self.masses_qw = []
        c_list = ",".join(repr(c) for c in self.c_values)
        for j in range(self.masses):
            # near the preset's mass: q0 = (2, 1, 0), w = (0.06, 0.08, 0)
            q = np.array([2.0, 1.0, 0.0]) + self.rng.uniform(-0.3, 0.3, 3)
            angle = math.atan2(0.08, 0.06) + self.rng.uniform(-0.25, 0.25)
            d = np.array([math.cos(angle), math.sin(angle), self.rng.uniform(-0.2, 0.2)])
            w = 0.1 * (1.0 + self.rng.uniform(-0.1, 0.1)) * d / np.linalg.norm(d)
            q0 = np.concatenate([[0.0], q])
            text = scenario_text(preset, {
                "observe.q0_m": numbers(q0),
                "observe.w_m_per_s": numbers(w),
                "observe.s_min_s": self.s_range[0],
                "observe.s_max_s": self.s_range[1],
                "observe.n_samples": self.n_samples,
                "invert.x_center_m": numbers(q),
            })
            self.masses_qw.append((q0, w))
            self.ops.append(Operation(
                self.write(f"mass{j}.scn", text), ["newton-limit", "--c-list", c_list],
                self.n_samples * len(self.c_values),
                ("limit_residuals.csv", "limit_report.txt")))

    def check(self, out_dirs):
        errors = {}
        law = 0.0
        slopes = []
        s_values = np.linspace(*self.s_range, self.n_samples)
        for j, out in out_dirs.items():
            q0, w = self.masses_qw[j]
            header, data = read_csv(out / "limit_residuals.csv")
            col = {name: i for i, name in enumerate(header)}
            bad = []
            if [row[col["c_m_per_s"]] for row in data] != list(self.c_values):
                bad.append("limit_residuals.csv rows do not follow the c list")
            closed_res = []
            for row in data:
                c = row[col["c_m_per_s"]]
                expect = references.flat_limit_row(q0, w, c, s_values)
                closed_res.append(expect[1])
                for name, want in zip(("max_tau_dot_dev", "tau_dot_series_residual",
                                       "first_order_max"), expect):
                    got = row[col[name]]
                    if not abs(got - want) <= LIMIT_ABS_TOL + LIMIT_REL_TOL * abs(want):
                        bad.append(f"c={c:g} {name} = {got:.10e}, closed form {want:.10e}")
            report = read_report(out / "limit_report.txt")
            slope = float(report["tau_dot_slope"])
            resid = float(report["newton_law_residual"])
            law = max(law, resid)
            slopes.append(slope)
            want = references.loglog_slope(self.c_values, closed_res)
            if not abs(slope - want) <= SLOPE_TOL:
                bad.append(f"tau_dot_slope {slope:.6f}, closed-form fit {want:.6f}")
            if not abs(slope - 3.0) <= SLOPE_ORDER_TOL:
                bad.append(f"tau_dot_slope {slope:.6f} is not near 3")
            if not resid <= NEWTON_LAW_BOUND:
                bad.append(f"newton_law_residual {resid:.3e}")
            if bad:
                errors[j] = bad
        return errors, {"newtonian.tau_dot_slope": float(np.median(slopes)) if slopes else 0.0,
                        "newtonian.newton_law_residual": law}


WORKLOADS = {w.name: w for w in (ConeSchw, InvertSchw, LimitFlat)}

# accuracy figures every traced run reports; 0 where a workload has none
ACCURACY = {
    "geodesics.ref_dev_max": "ratio",
    "geodesics.lightlike_residual_max": "ratio",
    "splitting.roundtrip_err_max": "m",
    "splitting.residual_max": "m",
    "newtonian.tau_dot_slope": "ratio",
    "newtonian.newton_law_residual": "ratio",
}
