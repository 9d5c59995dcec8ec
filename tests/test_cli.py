"""Scenario parsing, command dispatch, output determinism, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lightcone import cli, geodesics, observers
from lightcone.cli import main
from lightcone.errors import ConfigError
from lightcone.scenario import (
    Scenario,
    canonical_text,
    load_scenario,
    parse_scenario_text,
    scenario_hash,
)

SCN_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestScenarioParsing:
    def test_parse_and_build(self):
        scn = load_scenario(SCN_DIR / "minkowski_inertial.scn")
        chart = scn.build_chart()
        assert chart.name == "minkowski"
        curve = scn.build_observer(chart)
        assert curve.interval == (-40.0, 40.0)
        frames = scn.build_frames(chart, curve)
        assert np.allclose(frames.matrix(1.0), np.eye(4))

    def test_hash_ignores_comments_and_order(self):
        a = parse_scenario_text("spacetime.name = minkowski\nmass_kg = 1\n")
        b = parse_scenario_text(
            "# a comment\nmass_kg = 1\n\nspacetime.name = minkowski  # trailing\n")
        assert scenario_hash(a) == scenario_hash(b)
        assert canonical_text(a) == canonical_text(b)

    def test_hash_changes_with_value(self):
        a = parse_scenario_text("spacetime.name = minkowski\nmass_kg = 1\n")
        b = parse_scenario_text("spacetime.name = minkowski\nmass_kg = 2\n")
        assert scenario_hash(a) != scenario_hash(b)

    def test_unknown_key_rejected_with_line(self):
        # keys are checked by full name: a known section is not enough, and
        # the tolerances that are constants are no longer settings
        for key in ("bogus.key", "invert.n_tua", "validate.anything", "tol.merge",
                    "tol.cond_max", "tol.frame_gram", "tol.norm_drift", "tol.fw_gram",
                    "tol.jacobi_affinity", "tol.ricci", "tol.christoffel_fd"):
            with pytest.raises(ConfigError) as err:
                parse_scenario_text(f"spacetime.name = minkowski\n{key} = 1\n")
            assert err.value.line == 2
            assert repr(key) in str(err.value)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario_text("spacetime.name minkowski\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario_text("mass_kg = 1\nmass_kg = 2\n")

    def test_unknown_spacetime(self):
        scn = Scenario(values=parse_scenario_text("spacetime.name = godel\n"))
        with pytest.raises(ConfigError):
            scn.build_chart()

    @pytest.mark.parametrize("preset, key, value, command", [
        ("minkowski_inertial", "observer.u0", "1, 0, 0", "trace-cone"),
        ("minkowski_inertial", "observer.q0_m", "0, 0, 0", "trace-cone"),
        ("minkowski_inertial", "observer.tau_min_s", "nan", "trace-cone"),
        ("corrupted_frame", "frame.columns", "1, 0, 0", "trace-cone"),
        ("minkowski_inertial", "observe.q0_m", "0, 4, 0", "observe"),
        ("minkowski_inertial", "observe.w_m_per_s", "0, 1", "observe"),
        ("accel_rotating", "observe.x_m", "0, 1", "observe"),
        ("sr_limit_sweep", "invert.x_center_m", "1, 2", "observe"),
        ("minkowski_inertial", "observe.n_samples", "-1", "observe"),
        ("minkowski_inertial", "observe.n_samples", "0", "observe"),
        ("minkowski_inertial", "cone.tau_s", "nan", "trace-cone"),
        ("minkowski_inertial", "cone.radii_m", "1, inf", "trace-cone"),
        ("minkowski_inertial", "observe.s_max_s", "nan", "observe"),
        ("minkowski_inertial", "observe.s_min_s", "-inf", "observe"),
        ("accel_rotating", "frame.omega_rad_per_s", "nan", "trace-cone"),
        ("schwarzschild_faller", "spacetime.R_m", "inf", "trace-cone"),
        ("minkowski_inertial", "cone.n_polar", "0", "trace-cone"),
        ("minkowski_inertial", "cone.n_azimuth", "0", "trace-cone"),
        ("schwarzschild_faller", "spacetime.R_m", "-1", "trace-cone"),
        ("schwarzschild_faller", "observer.q0_m", "0, 0.5, 1.5707963267948966, 0", "trace-cone"),
        ("schwarzschild_faller", "observe.q0_m", "0, 0.5, 1.5707963267948966, 0", "observe"),
        ("accel_rotating", "observer.a_m_per_s2", "0", "trace-cone"),
        ("accel_rotating", "frame.axis", "4", "trace-cone"),
        ("minkowski_inertial", "observer.u0", "0, 1, 0, 0", "trace-cone"),
        ("minkowski_inertial", "observer.u0", "-1, 0, 0, 0", "trace-cone"),
    ])
    def test_malformed_setting_is_a_config_error(self, tmp_path, capsys, preset, key, value,
                                                 command):
        # each used to end in a ValueError traceback or a numerical failure
        # whose message named no key, n_samples = 0 in a run that wrote no
        # sample, a NaN angular velocity in NaN rows counted as landed, and
        # an empty direction grid in a header-only cone.csv
        text = (SCN_DIR / f"{preset}.scn").read_text()
        old = next((line for line in text.splitlines() if line.startswith(f"{key} = ")), None)
        scn_file = tmp_path / "bad.scn"
        scn_file.write_text(text + f"{key} = {value}\n" if old is None
                            else text.replace(old, f"{key} = {value}"))
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path / "out"), command])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err


class TestTraceCone:
    def test_minkowski_rows_match_closed_form(self, tmp_path):
        rc = main(["--scenario", str(SCN_DIR / "minkowski_inertial.scn"),
                   "--out", str(tmp_path), "trace-cone"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "cone.csv")
        assert header[:4] == ["tau_s", "x1_m", "x2_m", "x3_m"]
        assert len(rows) == 2 * 4 * 8
        for row in rows:
            vals = [float(v) for v in row]
            x = np.array(vals[1:4])
            k = np.array(vals[4:8])
            assert np.allclose(k, [-np.linalg.norm(x), *x], atol=1e-9)
            assert vals[8] == 1.0  # reach flag
            assert vals[9] <= 1e-8
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "command = trace-cone" in manifest

    def test_schwarzschild_residuals(self, tmp_path):
        rc = main(["--scenario", str(SCN_DIR / "schwarzschild_faller.scn"),
                   "--out", str(tmp_path), "trace-cone"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "cone.csv")
        for row in rows:
            assert float(row[9]) <= 1e-8

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["--scenario", str(SCN_DIR / "minkowski_inertial.scn"),
                  "--out", str(out), "trace-cone", ])
        assert (out1 / "cone.csv").read_bytes() == (out2 / "cone.csv").read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["--scenario", str(SCN_DIR / "minkowski_inertial.scn"),
                  "--out", str(out), "trace-cone"])
        assert (out1 / "cone.csv").read_bytes() == (out2 / "cone.csv").read_bytes()


class TestInvert:
    def test_sr_inverse_row(self, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("5 3 4 0\n")
        rc = main(["--scenario", str(SCN_DIR / "minkowski_inertial.scn"),
                   "--out", str(tmp_path), "invert", "--targets", str(targets)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "preimages.csv")
        assert len(rows) == 1
        vals = [float(v) for v in rows[0]]
        assert vals[4] == pytest.approx(10.0, abs=1e-9)   # tau
        assert vals[5:8] == pytest.approx([3, 4, 0], abs=1e-9)
        assert vals[8] <= 1e-9                            # residual
        assert vals[10] == 1.0                            # regular

    def test_unseen_target_counted(self, tmp_path):
        targets = tmp_path / "targets.txt"
        targets.write_text("500 3 4 0\n5 3 4 0\n")
        rc = main(["--scenario", str(SCN_DIR / "minkowski_inertial.scn"),
                   "--out", str(tmp_path), "invert", "--targets", str(targets)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "preimages.csv")
        assert len(rows) == 1
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "targets_without_preimage = 1" in manifest

    def test_round_trip_file(self, tmp_path):
        # map a handful of observer points forward, invert them, remap
        from lightcone.splitting import ObservedEvent, kinematic_observer_map

        scn = load_scenario(SCN_DIR / "minkowski_inertial.scn")
        chart = scn.build_chart()
        curve = scn.build_observer(chart)
        frames = scn.build_frames(chart, curve)
        pts = [(2.0, np.array([1.0, 0.5, 0.0])), (-1.0, np.array([0.0, 2.0, 1.0]))]
        targets = tmp_path / "targets.txt"
        with open(targets, "w") as fh:
            for tau, x in pts:
                ev = kinematic_observer_map(chart, frames, ObservedEvent(tau, x))
                fh.write(" ".join(format(float(c), ".17g") for c in ev.coords) + "\n")
        rc = main(["--scenario", str(SCN_DIR / "minkowski_inertial.scn"),
                   "--out", str(tmp_path), "invert", "--targets", str(targets)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "preimages.csv")
        for row in rows:
            vals = [float(v) for v in row]
            remapped = kinematic_observer_map(
                chart, frames, ObservedEvent(vals[4], np.array(vals[5:8])))
            assert np.max(np.abs(remapped.coords - np.array(vals[0:4]))) <= 1e-8

    def test_multi_target_file_single_batch(self, tmp_path, monkeypatch):
        # the whole file inverts through one invert_many call and agrees
        # with per-target inversion, root for root
        from lightcone import splitting
        from lightcone.lorentz import Event
        from lightcone.splitting import (ObservedEvent, invert_observer_map,
                                         kinematic_observer_map)

        scn = load_scenario(SCN_DIR / "accel_rotating.scn")
        chart = scn.build_chart()
        curve = scn.build_observer(chart)
        frames = scn.build_frames(chart, curve)
        search = scn.build_search(curve)
        pts = [(0.5, [1.0, 0.5, 0.0]), (-1.0, [0.0, 1.2, 0.4]), (1.5, [-0.6, -0.3, 0.9])]
        targets = [kinematic_observer_map(chart, frames, ObservedEvent(t, np.array(x))).coords
                   for t, x in pts]
        targets.append(np.array([500.0, 3.0, 4.0, 0.0]))  # not seen in the box
        path = tmp_path / "targets.txt"
        path.write_text("".join(" ".join(format(float(c), ".17g") for c in t) + "\n"
                                for t in targets))
        expected = [invert_observer_map(chart, frames, Event(chart.name, t), search)
                    for t in targets]

        calls = []
        real = splitting.invert_many

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return real(*args, **kwargs)

        monkeypatch.setattr(splitting, "invert_many", counting)
        rc = main(["--scenario", str(SCN_DIR / "accel_rotating.scn"),
                   "--out", str(tmp_path), "invert", "--targets", str(path)])
        assert rc == 0
        assert calls == [len(targets)]
        _, rows = read_csv(tmp_path / "preimages.csv")
        vals = np.array([[float(v) for v in row] for row in rows]).reshape(-1, 11)
        for tgt, res in zip(targets, expected):
            mine = vals[np.all(vals[:, 0:4] == tgt, axis=1)]
            assert len(mine) == len(res)
            want = np.array([[p.tau, *p.x] for p in res.preimages]).reshape(-1, 4)
            assert np.max(np.abs(mine[:, 4:8] - want), initial=0.0) <= 1e-9
        assert sum(len(r) for r in expected) >= len(pts)

    def test_missing_targets_file(self, tmp_path):
        rc = main(["--scenario", str(SCN_DIR / "minkowski_inertial.scn"),
                   "--out", str(tmp_path), "invert", "--targets",
                   str(tmp_path / "nope.txt")])
        assert rc == 2

    @pytest.mark.parametrize("bad", ["nan 3 4 0", "5 inf 4 0", "5 3 four 0"])
    def test_non_finite_target_rejected(self, tmp_path, capsys, bad):
        targets = tmp_path / "targets.txt"
        targets.write_text(f"5 3 4 0\n{bad}\n")
        rc = main(["--scenario", str(SCN_DIR / "minkowski_inertial.scn"),
                   "--out", str(tmp_path), "invert", "--targets", str(targets)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "preimages.csv").exists()


    @pytest.mark.parametrize("setting,value", [
        ("invert.n_tau", "0"), ("invert.n_x", "0"), ("invert.top_k", "0"),
        ("invert.x_box_m", "-1"), ("invert.x_box_m", "nan"), ("invert.x_box_m", "inf"),
    ])
    def test_bad_search_rejected(self, tmp_path, setting, value):
        scn_text = (SCN_DIR / "minkowski_inertial.scn").read_text()
        old = next(l for l in scn_text.splitlines() if l.startswith(setting))
        scn_file = tmp_path / "bad.scn"
        scn_file.write_text(scn_text.replace(old, f"{setting} = {value}"))
        targets = tmp_path / "targets.txt"
        targets.write_text("5 3 4 0\n")
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path),
                   "invert", "--targets", str(targets)])
        assert rc == 2
        assert not (tmp_path / "preimages.csv").exists()

    @pytest.mark.parametrize("setting,value", [
        ("tol.inv", "-1"), ("tol.inv", "0"), ("tol.inv", "nan"), ("tol.inv", "inf"),
        ("tol.merge", "-1"), ("tol.merge", "nan"), ("tol.merge", "inf"),
        ("tol.cond_max", "-1"), ("tol.cond_max", "0"), ("tol.cond_max", "nan"),
        ("invert.n_tau", "0"), ("invert.n_x", "0"), ("invert.top_k", "0"),
        ("invert.x_box_m", "-1"), ("invert.tau_min_s", "30"),
    ])
    def test_bad_search_tolerance_rejected(self, tmp_path, capsys, setting, value):
        # at these values invert used to exit 0 with no, false or repeated
        # preimages (a box whose tau_min_s passes tau_max_s found a root at
        # tau = 10); tol.merge and tol.cond_max are constants now, not
        # settings; any other bad value is rejected where it is read, naming
        # its key.  tol.inv comes as an override, the box keys in the file
        scenario = SCN_DIR / "minkowski_inertial.scn"
        override = []
        if setting in ("tol.merge", "tol.cond_max"):
            want = "only tol.inv=VAL may be overridden"
        elif value in ("nan", "inf"):
            want = f"{setting!r} expects a finite number"
        else:
            want = repr(setting)
        if setting.startswith("tol."):
            override = ["--tol-override", f"{setting}={value}"]
        else:
            text = scenario.read_text()
            old = next(line for line in text.splitlines() if line.startswith(f"{setting} = "))
            scenario = tmp_path / "bad.scn"
            scenario.write_text(text.replace(old, f"{setting} = {value}"))
        targets = tmp_path / "targets.txt"
        targets.write_text("-5 3 0 0\n")
        rc = main(["--scenario", str(scenario), "--out", str(tmp_path), *override,
                   "invert", "--targets", str(targets)])
        assert rc == 2
        assert want in capsys.readouterr().err
        assert not (tmp_path / "preimages.csv").exists()

    def test_empty_start_grid_is_a_numerical_failure(self, tmp_path):
        scn_text = (SCN_DIR / "minkowski_inertial.scn").read_text()
        scn_text = scn_text.replace("invert.x_box_m = 6", "invert.x_box_m = 0")
        scn_text = scn_text.replace("invert.n_x = 5", "invert.n_x = 1")
        scn_file = tmp_path / "origin.scn"
        scn_file.write_text(scn_text)
        targets = tmp_path / "targets.txt"
        targets.write_text("5 3 4 0\n")
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path),
                   "invert", "--targets", str(targets)])
        assert rc == 3
        assert not (tmp_path / "preimages.csv").exists()


class TestObserve:
    def test_comoving_clock_rates(self, tmp_path):
        rc = main(["--scenario", str(SCN_DIR / "accel_rotating.scn"),
                   "--out", str(tmp_path), "observe"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "observed.csv")
        i = header.index("tau_dot")
        for row in rows:
            assert float(row[i]) == pytest.approx(1.0, abs=1e-8)

    def test_radial_approach_clock_rate(self, tmp_path):
        scn_text = (SCN_DIR / "minkowski_inertial.scn").read_text()
        scn_text = scn_text.replace("observe.w_m_per_s = 0.1, 0, 0",
                                    "observe.w_m_per_s = -0.3333333333333333, 0, 0")
        scn_file = tmp_path / "approach.scn"
        scn_file.write_text(scn_text)
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), "observe"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "observed.csv")
        i = header.index("tau_dot")
        # w = -1/3 radially: seen speed v = w/(1+w) = -1/2, approaching
        for row in rows:
            assert float(row[i]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)

    def test_superluminal_comoving_flagged(self, tmp_path):
        scn_text = (SCN_DIR / "accel_rotating.scn").read_text()
        scn_text = scn_text.replace("observer.kind = uniformly_accelerated",
                                    "observer.kind = inertial")
        scn_text = scn_text.replace("observer.a_m_per_s2 = 1.0",
                                    "observer.q0_m = 0, 0, 0, 0\nobserver.u0 = 1, 0, 0, 0")
        scn_text = scn_text.replace("observe.x_m = 0, 0.5, 0",
                                    "observe.x_m = 0, 2.0, 0")
        scn_file = tmp_path / "fast.scn"
        scn_file.write_text(scn_text)
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), "observe"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "observed.csv")
        i = header.index("not_an_observer")
        assert all(row[i] == "1" for row in rows)


class TestNewtonLimit:
    def test_sr_sweep_slope(self, tmp_path):
        rc = main(["--scenario", str(SCN_DIR / "sr_limit_sweep.scn"),
                   "--out", str(tmp_path), "newton-limit", "--c-list", "1,2,4,8"])
        assert rc == 0
        report = (tmp_path / "limit_report.txt").read_text()
        fields = dict(line.split(" = ") for line in report.strip().splitlines())
        assert 2.5 <= float(fields["tau_dot_slope"]) <= 3.5
        assert float(fields["newton_law_residual"]) <= 1e-6

    def test_jet_fighter_flag(self, tmp_path):
        rc = main(["--scenario", str(SCN_DIR / "jet_fighter.scn"),
                   "--out", str(tmp_path), "newton-limit", "--c-list", "300000"])
        assert rc == 0
        report = (tmp_path / "limit_report.txt").read_text()
        fields = dict(line.split(" = ") for line in report.strip().splitlines())
        assert fields["first_order_bound_satisfied"] == "1"
        assert float(fields["first_order_max"]) <= 6.5e-6

    def test_superluminal_observed_mass_is_a_config_error(self, tmp_path, capsys):
        # at c = 1 the jet fighter's 1.94 m/s is faster than light: the
        # fault is the observed mass's setting, not the observer
        rc = main(["--scenario", str(SCN_DIR / "jet_fighter.scn"),
                   "--out", str(tmp_path), "newton-limit", "--c-list", "1,2,4,8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'observe.w_m_per_s'" in err and "observer velocity" not in err
        assert not (tmp_path / "limit_report.txt").exists()

    def test_comoving_residuals_tiny(self, tmp_path):
        scn_text = (SCN_DIR / "sr_limit_sweep.scn").read_text()
        scn_text = scn_text.replace("observe.kind = inertial", "observe.kind = comoving")
        scn_text = scn_text.replace("observe.q0_m = 0, 2, 1, 0", "observe.x_m = 2, 1, 0")
        scn_text = scn_text.replace("observe.w_m_per_s = 0.06, 0.08, 0", "")
        scn_file = tmp_path / "comoving.scn"
        scn_file.write_text(scn_text)
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path),
                   "newton-limit", "--c-list", "1,2"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "limit_residuals.csv")
        for row in rows:
            assert float(row[1]) <= 1e-10  # max |tau_dot - 1|


    @pytest.mark.parametrize("preset, old, new, key", [
        ("schwarzschild_faller", None, None, "spacetime.name"),
        ("accel_rotating", None, None, "observer.kind"),
        ("sr_limit_sweep", "frame.kind = fermi_walker",
         "frame.kind = rotating\nframe.omega_rad_per_s = 0.5", "frame.omega_rad_per_s"),
    ])
    def test_a_case_without_a_reference_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                           preset, old, new, key):
        # the report's series hold for an inertial, non-rotating observer in
        # flat spacetime; accel_rotating used to exit 0 with a residual of 5e11
        text = (SCN_DIR / f"{preset}.scn").read_text()
        scn_file = tmp_path / "case.scn"
        scn_file.write_text(text if old is None else text.replace(old, new))
        monkeypatch.setattr(cli, "run_limit_scenario", _no_work)
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path / "out"),
                   "newton-limit", "--c-list", "1,2,4"])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out" / "limit_residuals.csv").exists()

    @pytest.mark.parametrize("old, new", [
        ("frame.kind = fermi_walker", "frame.kind = rotating\nframe.omega_rad_per_s = 0"),
        ("observer.u0 = 1, 0, 0, 0", "observer.u0 = 1, 0.1, 0, 0"),
    ])
    def test_a_case_with_a_reference_is_measured(self, tmp_path, old, new):
        # the edge of the refusal: a rotating frame at rate 0 and a moving
        # inertial observer are still inertial, non-rotating and flat
        text = (SCN_DIR / "sr_limit_sweep.scn").read_text()
        assert old in text
        scn_file = tmp_path / "case.scn"
        scn_file.write_text(text.replace(old, new))
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path / "out"),
                   "newton-limit", "--c-list", "1,2"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "out" / "limit_residuals.csv")
        assert [float(row[0]) for row in rows] == [1.0, 2.0]

    def _explicit_case(self, tmp_path, columns):
        """corrupted_frame.scn with the given columns and sr_limit_sweep.scn's observed mass."""
        text = (SCN_DIR / "corrupted_frame.scn").read_text()
        old = next(line for line in text.splitlines() if line.startswith("frame.columns = "))
        sweep = [line for line in (SCN_DIR / "sr_limit_sweep.scn").read_text().splitlines()
                 if line.startswith(("observe.", "invert.", "mass_kg"))]
        scn_file = tmp_path / "explicit.scn"
        scn_file.write_text(text.replace(old, f"frame.columns = {columns}")
                            + "\n".join(sweep) + "\n")
        return scn_file

    def test_explicit_frame_not_of_the_observer_is_a_config_error(self, tmp_path, capsys,
                                                                   monkeypatch):
        # these non-orthonormal columns used to be measured, with a
        # tau_dot_slope of 0.570 where a frame of the observer gives 2.95
        scn_file = self._explicit_case(
            tmp_path, "1, 0, 0, 0, 0.02, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1")
        monkeypatch.setattr(cli, "run_limit_scenario", _no_work)
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path / "out"),
                   "newton-limit", "--c-list", "1,2,4"])
        assert rc == 2
        assert "'frame.columns'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "limit_residuals.csv").exists()

    def test_explicit_identity_frame_is_the_fermi_walker_frame(self, tmp_path):
        scn_file = self._explicit_case(
            tmp_path, "1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1")
        fw_file = tmp_path / "fermi_walker.scn"
        text = scn_file.read_text()
        fw_file.write_text(text.replace("frame.kind = explicit", "frame.kind = fermi_walker"))
        for path, out in ((scn_file, "explicit"), (fw_file, "fw")):
            rc = main(["--scenario", str(path), "--out", str(tmp_path / out),
                       "newton-limit", "--c-list", "1,2,4"])
            assert rc == 0
        assert ((tmp_path / "explicit" / "limit_report.txt").read_bytes()
                == (tmp_path / "fw" / "limit_report.txt").read_bytes())

    @pytest.mark.parametrize("c_list", ["1,abc", "1,nan", "1,inf"])
    def test_bad_c_list_rejected(self, tmp_path, c_list):
        rc = main(["--scenario", str(SCN_DIR / "sr_limit_sweep.scn"),
                   "--out", str(tmp_path), "newton-limit", "--c-list", c_list])
        assert rc == 2
        assert not (tmp_path / "limit_residuals.csv").exists()


def _no_work(*args, **kwargs):
    raise AssertionError("measured a case the report cannot judge")


def _limit_bits(samples, breakdowns):
    """Every number of a limit measurement, NaNs included, as one array."""
    rows = [np.concatenate([[smp.s, smp.tau, smp.tau_dot, smp.tau_ddot],
                            smp.x, smp.v, smp.dv_dtau]) for smp in samples]
    rows += [np.concatenate([fb.total, fb.actual_part, *fb.pseudo_parts])
             for fb in breakdowns if fb is not None]
    return np.concatenate(rows)


class TestLimitContinuation:
    """newton-limit continues each c's first state into the next c."""

    @staticmethod
    def count_cold(monkeypatch):
        from lightcone import splitting
        calls = []
        real = splitting.invert_observer_map

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(splitting, "invert_observer_map", counting)
        return calls

    @pytest.mark.parametrize("c_list", ["1,2,4,8", "8,1,4,2"])
    def test_sweep_inverts_cold_once_with_the_cold_bits(self, tmp_path, monkeypatch, c_list):
        from lightcone import cli
        scn = load_scenario(SCN_DIR / "sr_limit_sweep.scn")
        runs = []
        real = cli.run_limit_scenario

        def recording(scn_, c, start=None):
            out = real(scn_, c, start)
            runs.append((c, out))
            return out

        monkeypatch.setattr(cli, "run_limit_scenario", recording)
        cold = self.count_cold(monkeypatch)
        rc = main(["--scenario", str(SCN_DIR / "sr_limit_sweep.scn"), "--out", str(tmp_path),
                   "newton-limit", "--c-list", c_list])
        assert rc == 0
        assert len(cold) == 1
        manifest = dict(line.split(" = ") for line in
                        (tmp_path / "manifest.txt").read_text().splitlines())
        assert manifest["cold_starts"] == "1"
        assert manifest["continued_starts"] == "3"

        cs = [float(v) for v in c_list.split(",")]
        assert [c for c, _ in runs] == cs  # in list order
        for k, (c, (samples, breakdowns)) in enumerate(runs):
            assert [smp.start for smp in samples] == [
                "cold" if k == 0 else "continued", "warm", "warm"]
            want = real(scn, c)
            assert [smp.start for smp in want[0]] == ["cold", "warm", "warm"]
            assert np.array_equal(_limit_bits(samples, breakdowns), _limit_bits(*want),
                                  equal_nan=True)

    @pytest.mark.parametrize("start", [[1e6, 2.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
                             ids=["tau_outside_the_interval", "at_the_origin"])
    def test_a_start_newton_cannot_use_falls_back_to_the_cold_search(self, monkeypatch,
                                                                      start):
        from lightcone.cli import run_limit_scenario
        scn = load_scenario(SCN_DIR / "sr_limit_sweep.scn")
        want = run_limit_scenario(scn, 2.0)
        cold = self.count_cold(monkeypatch)
        samples, breakdowns = run_limit_scenario(scn, 2.0, start=np.array(start))
        assert len(cold) == 1
        assert [smp.start for smp in samples] == ["cold", "warm", "warm"]
        assert np.array_equal(_limit_bits(samples, breakdowns), _limit_bits(*want),
                              equal_nan=True)


class TestValidate:
    def test_minkowski_preset_passes(self, tmp_path):
        rc = main(["--scenario", str(SCN_DIR / "minkowski_inertial.scn"),
                   "--out", str(tmp_path), "validate"])
        assert rc == 0
        text = (tmp_path / "validate.txt").read_text()
        assert "FAIL" not in text

    def test_schwarzschild_preset_passes(self, tmp_path):
        rc = main(["--scenario", str(SCN_DIR / "schwarzschild_faller.scn"),
                   "--out", str(tmp_path), "validate"])
        assert rc == 0
        text = (tmp_path / "validate.txt").read_text()
        assert "schwarzschild_ricci_flat" in text
        assert "FAIL" not in text

    @pytest.mark.parametrize("preset", ["accel_rotating", "jet_fighter", "minkowski_inertial",
                                        "schwarzschild_faller", "sr_limit_sweep"])
    def test_preset_passes(self, tmp_path, preset):
        rc = main(["--scenario", str(SCN_DIR / f"{preset}.scn"), "--out", str(tmp_path),
                   "validate"])
        assert rc == 0
        text = (tmp_path / "validate.txt").read_text()
        assert "PASS" in text
        assert "FAIL" not in text

    def test_corrupted_frame_fails(self, tmp_path):
        rc = main(["--scenario", str(SCN_DIR / "corrupted_frame.scn"),
                   "--out", str(tmp_path), "validate"])
        assert rc == 1
        text = (tmp_path / "validate.txt").read_text()
        assert "frame_gram_eta" in text
        assert "FAIL" in text

    def test_corrupted_frame_keeps_an_orthonormal_basis(self, tmp_path):
        # the explicit frame is corrupted, the observer's own Fermi-Walker
        # basis is not: the two Gram checks measure different frames
        rc = main(["--scenario", str(SCN_DIR / "corrupted_frame.scn"),
                   "--out", str(tmp_path), "validate"])
        lines = dict(line.split(":", 1) for line in
                     (tmp_path / "validate.txt").read_text().splitlines())
        assert lines["frame_gram_eta"].endswith("FAIL")
        assert lines["fw_gram_drift"].endswith("PASS")
        assert "checks_failed = 2" in (tmp_path / "manifest.txt").read_text()
        assert rc == 1

    def test_tol_override(self, tmp_path, capsys):
        # validate's bounds are constants: overriding one is a config error
        rc = main(["--scenario", str(SCN_DIR / "corrupted_frame.scn"),
                   "--out", str(tmp_path), "--tol-override", "tol.frame_gram=1.0",
                   "validate"])
        assert rc == 2
        assert "only tol.inv=VAL may be overridden" in capsys.readouterr().err
        assert not (tmp_path / "validate.txt").exists()

    def test_non_tol_override_rejected(self, tmp_path):
        rc = main(["--scenario", str(SCN_DIR / "minkowski_inertial.scn"),
                   "--out", str(tmp_path), "--tol-override", "mass_kg=2",
                   "validate"])
        assert rc == 2


@pytest.mark.parametrize("scn_name,setting,value,command", [
    ("minkowski_inertial.scn", "invert.n_tau", "five", "invert"),
    ("schwarzschild_faller.scn", "spacetime.c_m_per_s", "fast", "trace-cone"),
])
def test_non_numeric_setting_rejected(tmp_path, capsys, scn_name, setting, value, command):
    scn_text = (SCN_DIR / scn_name).read_text()
    old = next(l for l in scn_text.splitlines() if l.startswith(setting))
    scn_file = tmp_path / "bad.scn"
    scn_file.write_text(scn_text.replace(old, f"{setting} = {value}"))
    targets = tmp_path / "targets.txt"
    targets.write_text("5 3 4 0\n")
    extra = ["--targets", str(targets)] if command == "invert" else []
    rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), command, *extra])
    assert rc == 2
    assert setting in capsys.readouterr().err


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("nonsense without equals\n")
    rc = main(["--scenario", str(bad), "--out", str(tmp_path), "trace-cone"])
    assert rc == 2


def test_manifest_hash_stability(tmp_path):
    base = (SCN_DIR / "minkowski_inertial.scn").read_text()
    reordered = "\n".join(reversed(base.strip().splitlines())) + "\n"
    f1, f2 = tmp_path / "a.scn", tmp_path / "b.scn"
    f1.write_text(base)
    f2.write_text(reordered)
    main(["--scenario", str(f1), "--out", str(tmp_path / "o1"), "trace-cone"])
    main(["--scenario", str(f2), "--out", str(tmp_path / "o2"), "trace-cone"])
    h1 = [l for l in (tmp_path / "o1" / "manifest.txt").read_text().splitlines()
          if l.startswith("scenario_hash")]
    h2 = [l for l in (tmp_path / "o2" / "manifest.txt").read_text().splitlines()
          if l.startswith("scenario_hash")]
    assert h1 == h2


class TestProgrammedObserver:
    def test_constant_program_scenario(self, tmp_path):
        scn_file = tmp_path / "prog.scn"
        scn_file.write_text(
            "spacetime.name = minkowski\n"
            "spacetime.c_m_per_s = 1.0\n"
            "observer.kind = programmed\n"
            "observer.q0_m = 0, 0, 0, 0\n"
            "observer.accel_m_per_s2 = 1.0, 0, 0\n"
            "observer.tau_min_s = -3\n"
            "observer.tau_max_s = 3\n"
            "frame.kind = fermi_walker\n"
            "cone.tau_s = 0\n"
            "cone.radii_m = 1\n"
            "cone.n_polar = 2\n"
            "cone.n_azimuth = 4\n"
        )
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), "trace-cone"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "cone.csv")
        assert len(rows) == 8
        for row in rows:
            assert float(row[9]) <= 1e-8

    def test_frames_for_a_curve_built_by_another_scenario(self):
        text = (
            "spacetime.name = minkowski\n"
            "observer.kind = programmed\n"
            "observer.accel_m_per_s2 = 0.5, 0.2, 0\n"
            "observer.tau_min_s = -2\n"
            "observer.tau_max_s = 2\n"
        )
        scn_a = Scenario(values=parse_scenario_text(text))
        scn_b = Scenario(values=parse_scenario_text(text))
        chart = scn_a.build_chart()
        curve = scn_b.build_observer(chart)
        frames = scn_a.build_frames(chart, curve)
        want = scn_b.build_frames(chart, scn_b.build_observer(chart))
        taus = np.linspace(-2, 2, 5)
        assert np.array_equal(frames.matrix(taus), want.matrix(taus))
        assert np.array_equal(frames.curve.position(taus), curve.position(taus))

    def test_build_frames_integrates_nothing(self, monkeypatch):
        text = (
            "spacetime.name = schwarzschild\n"
            "spacetime.R_m = 1\n"
            "observer.kind = programmed\n"
            "observer.q0_m = 0, 10, 1.5707963267948966, 0\n"
            "observer.accel_m_per_s2 = 0.05, 0.02, 0\n"
            "observer.tau_min_s = -2\n"
            "observer.tau_max_s = 2\n"
        )
        scn = Scenario(values=parse_scenario_text(text))
        chart = scn.build_chart()
        runs, dopri = [], geodesics._dopri

        def counted(*args, **kwargs):
            runs.append(np.asarray(args[2]).tolist())
            return dopri(*args, **kwargs)

        monkeypatch.setattr(geodesics, "_dopri", counted)
        monkeypatch.setattr(observers, "_dopri", counted)
        curve = scn.build_observer(chart)
        assert runs == [[-2.0, 2.0]]  # one run, one row per side of tau = 0
        frames = scn.build_frames(chart, curve)
        frames.matrix(np.linspace(-2, 2, 5))
        assert runs == [[-2.0, 2.0]]

    def test_validate_passes_for_programmed(self, tmp_path):
        scn_file = tmp_path / "prog.scn"
        scn_file.write_text(
            "spacetime.name = minkowski\n"
            "observer.kind = programmed\n"
            "observer.q0_m = 0, 0, 0, 0\n"
            "observer.accel_m_per_s2 = 0.5, 0.2, 0\n"
            "observer.tau_min_s = -2\n"
            "observer.tau_max_s = 2\n"
            "frame.kind = rotating\n"
            "frame.omega_rad_per_s = 0.3\n"
            "frame.axis = 2\n"
            "spacetime.c_m_per_s = 1.0\n"
        )
        rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), "validate"])
        assert rc == 0


def test_trace_cone_empty_radius_list(tmp_path):
    scn_text = (SCN_DIR / "minkowski_inertial.scn").read_text()
    scn_text = scn_text.replace("cone.radii_m = 1, 2", "cone.radii_m = none")
    scn_file = tmp_path / "empty.scn"
    scn_file.write_text(scn_text)
    rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), "trace-cone"])
    assert rc == 0
    lines = (tmp_path / "cone.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_curved_worldline_ending_at_tau_zero(tmp_path):
    # the worldline has only its backward half; tau = 0 must come from it
    scn_text = (SCN_DIR / "schwarzschild_faller.scn").read_text()
    scn_text = scn_text.replace("observer.tau_max_s = 3", "observer.tau_max_s = 0")
    scn_file = tmp_path / "ends_at_zero.scn"
    scn_file.write_text(scn_text)
    rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), "trace-cone"])
    assert rc == 0
    _, rows = read_csv(tmp_path / "cone.csv")
    assert len(rows) == 36 and all(row[8] == "1" for row in rows)
    scn = load_scenario(scn_file)
    curve = scn.build_observer(scn.build_chart())
    assert np.array_equal(curve.position(0.0), [0.0, 10.0, 1.5707963267948966, 0.0])


def _manifest(path):
    lines = Path(path).read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def test_trace_cone_counts_rays_by_outcome(tmp_path):
    # at r = 12.5 the ray aimed at the hole (direction -x1) clips at the
    # horizon margin: reach flag 0, and the manifest counts it
    scn_text = (SCN_DIR / "schwarzschild_faller.scn").read_text()
    scn_file = tmp_path / "hole.scn"
    scn_file.write_text(scn_text.replace("cone.radii_m = 0.5, 1", "cone.radii_m = 1, 12.5"))
    rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), "trace-cone"])
    assert rc == 0
    _, rows = read_csv(tmp_path / "cone.csv")
    flags = [float(row[8]) for row in rows]
    manifest = _manifest(tmp_path / "manifest.txt")
    landed, clipped = int(manifest["rays_landed"]), int(manifest["rays_clipped"])
    failed = int(manifest["rays_failed"])
    assert landed + clipped + failed == len(rows) == 36
    assert landed == flags.count(1.0)
    assert clipped + failed == flags.count(0.0)
    assert clipped >= 1
    hole = next(row for row in rows if float(row[1]) == -12.5 and float(row[8]) == 0.0)
    assert float(hole[5]) == pytest.approx(1.0 + 1e-6, abs=1e-9)  # r at the margin


def test_an_unlocated_exit_fails_its_ray_not_the_command(tmp_path, monkeypatch):
    # with no Brent iterations no exit crossing is located: the ray aimed
    # at the hole ends failed outside the horizon, and trace-cone still
    # writes every row
    scn_text = (SCN_DIR / "schwarzschild_faller.scn").read_text()
    scn_file = tmp_path / "hole.scn"
    scn_file.write_text(scn_text.replace("cone.radii_m = 0.5, 1", "cone.radii_m = 1, 12.5"))
    monkeypatch.setattr(geodesics, "_BRENT_ITER", 0)
    rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), "trace-cone"])
    assert rc == 0
    manifest = _manifest(tmp_path / "manifest.txt")
    assert manifest["rays_clipped"] == "0" and int(manifest["rays_failed"]) >= 1
    _, rows = read_csv(tmp_path / "cone.csv")
    hole = next(row for row in rows if float(row[1]) == -12.5)
    assert len(rows) == 36 and float(hole[8]) == 0.0 and float(hole[5]) > 1.0


def test_invert_box_past_the_observers_interval(tmp_path):
    # the box's tau in [-1, 5] runs past the faller's [-3, 3]: the starts
    # outside are dropped, the grid still counts them, and the target
    # inverts to the (tau, x) that made it
    from lightcone import splitting
    from lightcone.lorentz import Event
    from lightcone.splitting import ObservedEvent, kinematic_observer_map

    scn_file = tmp_path / "late.scn"
    scn_file.write_text((SCN_DIR / "schwarzschild_faller.scn").read_text()
                        + "invert.tau_min_s = -1\ninvert.tau_max_s = 5\n"
                        + "invert.x_box_m = 3\ninvert.n_tau = 5\ninvert.n_x = 5\n"
                        + "invert.top_k = 8\ntol.inv = 1e-10\n")
    scn = load_scenario(scn_file)
    chart = scn.build_chart()
    curve = scn.build_observer(chart)
    frames = scn.build_frames(chart, curve)
    search = scn.build_search(curve)
    tau, x = 0.7, np.array([1.2, -0.5, 0.8])
    target = kinematic_observer_map(chart, frames, ObservedEvent(tau, x)).coords
    targets = tmp_path / "targets.txt"
    targets.write_text(" ".join(format(float(c), ".17g") for c in target) + "\n")
    rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), "invert",
               "--targets", str(targets)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "preimages.csv")
    found = np.array([[float(v) for v in row[4:8]] for row in rows]).reshape(-1, 4)
    assert np.min(np.max(np.abs(found - [tau, *x]), axis=1), initial=np.inf) <= 1e-7
    res = splitting.invert_observer_map(chart, frames, Event(chart.name, target), search)
    grid = splitting._start_grid(search)
    assert res.n_starts == len(grid)
    assert np.sum(grid[:, 0] > curve.interval[1]) == 2 * len(grid) // 5  # tau = 3.5 and 5
    # a box wholly past the interval has no seeds: an empty result
    late = dataclasses.replace(search, tau_range=(4.0, 5.0))
    res = splitting.invert_observer_map(chart, frames, Event(chart.name, target), late)
    assert len(res) == 0 and res.n_starts == len(grid)


def test_invert_with_start_rays_into_the_hole(tmp_path):
    # a box of half-width 12 puts start rays into the hole; they clip and
    # are never seeds, and the target still inverts to the (tau, x) that
    # made it
    from lightcone import geodesics, splitting
    from lightcone.splitting import ObservedEvent, kinematic_observer_map

    scn_file = tmp_path / "wide.scn"
    scn_file.write_text((SCN_DIR / "schwarzschild_faller.scn").read_text()
                        + "invert.tau_min_s = -2.5\ninvert.tau_max_s = 2.5\n"
                        + "invert.x_box_m = 12\ninvert.n_tau = 5\ninvert.n_x = 5\n"
                        + "invert.top_k = 8\ntol.inv = 1e-10\n")
    scn = load_scenario(scn_file)
    chart = scn.build_chart()
    curve = scn.build_observer(chart)
    frames = scn.build_frames(chart, curve)
    tau, x = -0.27595971194180835, np.array([-1.1355379608000944, -0.5267586085767956,
                                             -1.7328539203122166])
    target = kinematic_observer_map(chart, frames, ObservedEvent(tau, x)).coords
    targets = tmp_path / "targets.txt"
    targets.write_text(" ".join(format(float(c), ".17g") for c in target) + "\n")
    rc = main(["--scenario", str(scn_file), "--out", str(tmp_path), "invert",
               "--targets", str(targets)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "preimages.csv")
    found = np.array([[float(v) for v in row[4:8]] for row in rows]).reshape(-1, 4)
    assert np.min(np.max(np.abs(found - [tau, *x]), axis=1), initial=np.inf) <= 1e-7
    grid = splitting._start_grid(scn.build_search(curve))
    assert geodesics.CLIPPED in splitting.observer_rays(chart, frames, grid).outcome


_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"no scipy here: {name}")

sys.meta_path.insert(0, NoScipy())
out, faller, sweep = sys.argv[1:4]

import numpy as np
from lightcone.charts import schwarzschild
from lightcone.cli import main
from lightcone.geodesics import detect_conjugate
from lightcone.lorentz import Event

codes = [main(["--scenario", faller, "--out", out + "/cone", "trace-cone"])]
rows = [line.split(",") for line in open(out + "/cone/cone.csv").read().splitlines()[1:]]
with open(out + "/targets.txt", "w") as fh:
    fh.write(" ".join(rows[0][4:8]) + "\\n")
codes.append(main(["--scenario", faller, "--out", out + "/invert", "invert",
                   "--targets", out + "/targets.txt"]))
codes.append(main(["--scenario", sweep, "--out", out + "/limit", "newton-limit",
                   "--c-list", "1,2"]))
r0, b = 20.0, 2.73
f = 1.0 - 1.0 / r0
k = np.array([1.0 / f, -np.sqrt(1.0 - f * b**2 / r0**2), 0.0, b / r0**2])
q = Event("schwarzschild", np.array([0.0, r0, np.pi / 2, 0.0]))
scan = detect_conjugate(schwarzschild(1.0), q, k, 80.0, 200)
print(json.dumps({"codes": codes, "values": list(scan.values),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_runs_without_scipy(tmp_path):
    # a process in which any scipy import fails runs every kind of
    # integration: a cone with a clipped ray, an inversion, the c sweep and
    # a conjugate scan, and imports no scipy module
    import json
    import os
    import subprocess
    import sys

    faller = tmp_path / "faller.scn"
    faller.write_text((SCN_DIR / "schwarzschild_faller.scn").read_text()
                      .replace("cone.radii_m = 0.5, 1", "cone.radii_m = 12.5"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path), str(faller),
                          str(SCN_DIR / "sr_limit_sweep.scn")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["values"] == [21.746188382332033]
    assert result["scipy"] == []
    assert "rays_clipped = 1" in (tmp_path / "cone" / "manifest.txt").read_text()
    _, rows = read_csv(tmp_path / "invert" / "preimages.csv")
    assert len(rows) >= 1
