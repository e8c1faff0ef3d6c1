"""Command-line interface: parsing, scenario runs, determinism, exit codes."""
import json
import math
import warnings

import pytest

from complexpendulum import cli
from complexpendulum.cli import (
    ConfigError,
    _bundled_scenarios,
    list_scenarios,
    load_scenario,
    main,
    parse_complex,
)
from complexpendulum.integrator import Trajectory
from complexpendulum.models import ImaginaryCubic, Pendulum
from complexpendulum.quadrature import escape_time, period_contour
from complexpendulum.turning import refine_root

PI = math.pi
COSH1 = math.cosh(1.0)


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", 0j),
            ("-1.5", -1.5 + 0j),
            ("1e-3i", 1e-3j),
            ("i", 1j),
            ("-i", -1j),
            ("2j", 2j),
            ("0.2i", 0.2j),
            ("1+2j", 1 + 2j),
            ("1-0.5i", 1 - 0.5j),
            ("pi", PI + 0j),
            ("-pi/2", -PI / 2 + 0j),
            ("3pi/2+1i", 3 * PI / 2 + 1j),
            ("pi/2+0.6i", PI / 2 + 0.6j),
            ("2pi", 2 * PI + 0j),
            (" 1 + 0.5i ", 1 + 0.5j),
        ],
    )
    def test_valid(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "zz", "1+", "pi+", "++1", "1i2", "nan", "inf", "1..2", "pi/0", "1/0.0i"])
    def test_invalid(self, text):
        with pytest.raises(ConfigError):
            parse_complex(text)


BUNDLED = list(_bundled_scenarios())


class TestCatalog:
    def test_all_bundled_scenarios_load(self):
        assert len(BUNDLED) == 14
        for name in BUNDLED:
            scn = load_scenario(name, {})
            assert scn.name == name
            assert scn.starts

    def test_listing(self, capsys):
        entries = list_scenarios()
        names = [n for n, _ in entries]
        assert names == BUNDLED
        by_name = dict(entries)
        assert "g=i, E=sinh 1" in by_name["fig7"]
        assert "E=-cosh 1" in by_name["fig6"]
        out = capsys.readouterr().out
        assert "fig2" in out and "period-e0" in out

    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUNDLED:
            assert name in out


TINY_SCENARIO = """\
name: tiny
description: one harmonic orbit, for the test suite
model:
  kind: harmonic
starts:
  - x: "1+1i"
    p: "0.5-0.3i"
integrator:
  horizon: 20.0
analyses: [closure, ellipse]
"""

DRIVEN_SCENARIO = """\
name: tiny-driven
description: short driven run, for the test suite
model:
  kind: driven-pendulum
  g: 1
  epsilon: 0.2
  omega: 0.1
energy: 0
starts:
  - x: "pi/2+0.1"
    branch: "+"
integrator:
  horizon: 5.0
events:
  escape: false
analyses: [cells]
"""


# a harmonic start with |x| and |p| past sqrt(float max)
HUGE_MOMENTUM_SCENARIO = """\
name: huge-momentum
description: harmonic start with |p| beyond sqrt(float max)
model:
  kind: harmonic
starts:
  - x: "1e155+1e155i"
    p: "1e155-1e155i"
integrator:
  horizon: 0.5
  overflow_guard: 1e300
events:
  escape: false
analyses: [closure]
"""

def strict_json(path):
    """The file parsed as strict JSON: NaN, Infinity and -Infinity raise."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def write_scenario(tmp_path, text, fname="scn.yaml"):
    path = tmp_path / fname
    path.write_text(text)
    return path


class TestRunScenario:
    def test_tiny_run(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "closed" in stdout

        csv_path = out / "traj_00.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,re_x,im_x,re_p,im_p,re_E,im_E"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0 and float(first[2]) == 1.0

        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "tiny"
        rec = summary["trajectories"][0]
        assert rec["classification"] == "closed"
        assert abs(rec["period"] - 2 * PI) < 1e-6
        assert rec["ellipse"]["residual"] < 1e-8

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = write_scenario(tmp_path, TINY_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1), "--quiet"]) == 0
        assert main(["run", str(cfg), "--out", str(out2), "--quiet"]) == 0
        for name in ("traj_00.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_a_run_with_fewer_starts_removes_the_earlier_trajectory_files(self, tmp_path):
        """The directory holds the files the summary names, and every file
        that is not one of the runner's own."""
        three = TINY_SCENARIO.replace('starts:\n', 'starts:\n  - x: "0.5"\n    p: "0.2i"\n  - x: "2"\n    p: "0"\n')
        out = tmp_path / "out"
        assert main(["run", str(write_scenario(tmp_path, three)), "--out", str(out), "--quiet"]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["summary.json", "traj_00.csv", "traj_01.csv", "traj_02.csv"]
        foreign = ["notes.txt", "traj_a.csv", "traj_01.csv.bak", "traj_1.csv"]
        for name in foreign:
            (out / name).write_text("kept\n")
        assert main(["run", str(write_scenario(tmp_path, TINY_SCENARIO)), "--out", str(out), "--quiet"]) == 0
        fresh = tmp_path / "fresh"
        assert main(["run", str(write_scenario(tmp_path, TINY_SCENARIO)), "--out", str(fresh), "--quiet"]) == 0
        assert [rec["file"] for rec in strict_json(out / "summary.json")["trajectories"]] == ["traj_00.csv"]
        assert sorted(f.name for f in out.iterdir()) == sorted(["summary.json", "traj_00.csv", *foreign])
        for name in ("summary.json", "traj_00.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        assert all((out / name).read_text() == "kept\n" for name in foreign)

    def test_driven_csv_has_cell_column(self, tmp_path):
        cfg = write_scenario(tmp_path, DRIVEN_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        header = (out / "traj_00.csv").read_text().splitlines()[0]
        assert header == "t,re_x,im_x,re_p,im_p,re_E,im_E,cell"

    def test_visited_cells_are_the_cells_of_the_samples(self, tmp_path):
        # strong drive: the run leaves cell 0, comes back and moves on,
        # so transitions repeat cells; the CSV's cell column holds the
        # cell of every sample
        cfg = write_scenario(
            tmp_path,
            DRIVEN_SCENARIO.replace("epsilon: 0.2", "epsilon: 0.5")
            .replace("omega: 0.1", "omega: 1.0")
            .replace("horizon: 5.0", "horizon: 40.0"),
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        cells = json.loads((out / "summary.json").read_text())["trajectories"][0]["cells"]
        rows = (out / "traj_00.csv").read_text().splitlines()[1:]
        history = {int(row.rsplit(",", 1)[1]) for row in rows}
        assert len(cells["transitions"]) >= len(history)  # some cell is entered twice
        assert cells["visited"] == sorted(history)

    def test_autonomous_csv_has_no_cell_column(self, tmp_path):
        cfg = write_scenario(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert "cell" not in (out / "traj_00.csv").read_text().splitlines()[0]

    def test_bundled_scenario_by_name(self, tmp_path):
        out = tmp_path / "fig2"
        assert main(["run", "fig2", "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "fig2"
        assert len(summary["trajectories"]) == 5
        assert all(r["classification"] == "closed" for r in summary["trajectories"])

    def test_horizon_override(self, tmp_path):
        cfg = write_scenario(tmp_path, TINY_SCENARIO.replace("analyses: [closure, ellipse]", ""))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--horizon", "1.0", "--quiet"]) == 0
        lines = (out / "traj_00.csv").read_text().splitlines()
        assert float(lines[-1].split(",")[0]) == 1.0


class TestExitCodes:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, TINY_SCENARIO + "bogus_key: 1\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err

    def test_unknown_start_key(self, tmp_path, capsys):
        cfg = write_scenario(
            tmp_path, TINY_SCENARIO.replace('p: "0.5-0.3i"', 'p: "0.5-0.3i"\n    momentum: 1')
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "momentum" in capsys.readouterr().err

    def test_missing_scenario_file(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "no-such-scenario" in capsys.readouterr().err

    def test_bad_energy_text(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, DRIVEN_SCENARIO.replace("energy: 0", "energy: zz"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "energy" in capsys.readouterr().err

    def test_turning_point_index_out_of_range(self, tmp_path, capsys):
        text = """\
name: bad-index
description: start index beyond the root list
model:
  kind: pendulum
  g: 1
energy: 1.5430806348152437
window: [0, 2pi, -2, 2]
starts:
  - turning_point: 99
"""
        cfg = write_scenario(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "turning_point" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("window: [0, 2pi, -2, 2]", "window: [1, 0, -1, 1]", "key 'window'"),
            ("  g: 1\n", "  g: 0\n", "key 'model': g "),
        ],
    )
    def test_root_resolution_errors_name_the_key(self, tmp_path, capsys, old, new, key):
        text = """\
name: bad-roots
description: turning-point start the roots cannot be resolved for
model:
  kind: pendulum
  g: 1
energy: 1.5430806348152437
window: [0, 2pi, -2, 2]
starts:
  - turning_point: 0
"""
        cfg = write_scenario(tmp_path, text.replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.usefixtures("deadline")
    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("horizon: 20.0", "horizon: 20.0\n  rel_tol: .nan", "key 'integrator': rel_tol must not be NaN"),
            ("horizon: 20.0", "horizon: 20.0\n  abs_tol: .nan", "key 'integrator': abs_tol must not be NaN"),
            ("horizon: 20.0", "horizon: 20.0\n  rel_tol: .inf", "key 'integrator': rel_tol must be finite"),
            ("horizon: 20.0", "horizon: .nan", "key 'integrator': horizon must not be NaN"),
            ("horizon: 20.0", "horizon: 0", "key 'integrator': horizon must be positive"),
            ("horizon: 20.0", "horizon: .inf", "key 'integrator': horizon must be finite"),
            ("horizon: 20.0", "horizon: 20.0\n  escape_radius: .nan", "key 'integrator': escape_radius must"),
            ("horizon: 20.0", "horizon: 20.0\n  overflow_guard: .nan", "key 'integrator': overflow_guard must"),
            ("analyses:", "events:\n  closure_tol: .nan\nanalyses:", "key 'events': closure_tol must not be NaN"),
            ("analyses:", "events:\n  min_period: .nan\nanalyses:", "key 'events': min_period must not be NaN"),
        ],
    )
    def test_nan_settings_name_the_key(self, tmp_path, capsys, old, new, key):
        cfg = write_scenario(tmp_path, TINY_SCENARIO.replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.usefixtures("deadline")
    def test_nan_tol_override_names_the_key(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, TINY_SCENARIO)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o"), "--tol", "nan"]) == 2
        assert "key 'integrator': rel_tol must not be NaN" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value,error", [("nan", "must not be NaN"), ("0", "must be positive"), ("inf", "must be finite")]
    )
    def test_bad_horizon_override_names_the_flag(self, tmp_path, capsys, value, error):
        cfg = write_scenario(tmp_path, TINY_SCENARIO)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o"), "--horizon", value]) == 2
        assert f"key '--horizon': {error}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("energy: 1.5430806348152437", "energy: .nan", "key 'energy'"),
            ("  g: 1\n", "  g: .nan\n", "key 'model.g'"),
            ("  kind: pendulum\n", "  kind: driven-pendulum\n  omega: .nan\n", "key 'model.omega'"),
            ("window: [0, 2pi, -2, 2]", "window: [0, .inf, -2, 2]", "key 'window'"),
            ("- turning_point: 1", "- {x: .inf, branch: '+'}", "key 'starts[0].x'"),
            ("- turning_point: 1", "- {x: 1, p: -.inf}", "key 'starts[0].p'"),
            ("  cutoff: 60", "  cutoff: .nan", "key 'escape_time.cutoff'"),
            ("  cutoff: 60", "  cutoff: 60\n  tol: .inf", "key 'escape_time.tol'"),
            ("  cutoff: 60", "  cutoff: 60\n  elliptic: {prefactor: 1, m: .nan}", "key 'escape_time.elliptic.m'"),
            ("escape_time:", "period: {pair: [0, 1], offset: .nan}\nescape_time:", "key 'period.offset'"),
            ("escape_time:", "period: {pair: [0, 1], tol: -.inf}\nescape_time:", "key 'period.tol'"),
        ],
    )
    def test_non_finite_numbers_name_the_key(self, tmp_path, capsys, old, new, key):
        text = """\
name: non-finite
description: escape-time scenario with one setting made non-finite
model:
  kind: pendulum
  g: 1
energy: 1.5430806348152437
window: [0, 2pi, -2, 2]
starts:
  - turning_point: 1
integrator:
  horizon: 1
analyses: [escape_time]
escape_time:
  turning_point: 1
  cutoff: 60
"""
        assert old in text
        cfg = write_scenario(tmp_path, text.replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{key}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("  cutoff: 60", "  cutoff: -1", "key 'escape_time.cutoff'"),
            ("  cutoff: 60", "  cutoff: 60\n  tol: 0", "key 'escape_time.tol'"),
            ("  cutoff: 60", "  cutoff: 60\n  tol: -1e-10", "key 'escape_time.tol'"),
            ("escape_time:", "period: {pair: [0, 1], offset: 0}\nescape_time:", "key 'period.offset'"),
            ("escape_time:", "period: {pair: [0, 1], tol: -1e-10}\nescape_time:", "key 'period.tol'"),
        ],
    )
    def test_quadrature_settings_must_be_positive(self, tmp_path, capsys, old, new, key):
        text = """\
name: not-positive
description: escape-time scenario with one quadrature setting not positive
model:
  kind: pendulum
  g: 1
energy: 1.5430806348152437
window: [0, 2pi, -2, 2]
starts:
  - turning_point: 1
integrator:
  horizon: 1
analyses: [escape_time]
escape_time:
  turning_point: 1
  cutoff: 60
"""
        assert old in text
        cfg = write_scenario(tmp_path, text.replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{key}: must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["[1, 2]", "5"])
    def test_output_directory_must_be_a_path(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        cfg = write_scenario(tmp_path, TINY_SCENARIO + f"output:\n  directory: {value}\n")
        assert main(["run", str(cfg)]) == 2
        assert "key 'output.directory'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_start_without_momentum_names_the_start(self, tmp_path, capsys):
        # cos(800i) overflows, so p = sqrt(2 (E - V(x))) has no value
        text = """\
name: no-momentum
description: branch start far up the imaginary axis
model:
  kind: pendulum
  g: 1
energy: 0.5
starts:
  - x: "0.3"
    branch: "+"
  - x: "800i"
    branch: "+"
integrator:
  escape_radius: 1000
"""
        cfg = write_scenario(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "key 'starts[1]': no momentum from the energy: OverflowError" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_engine_failures_are_recorded_not_fatal(self, tmp_path):
        # start 0 lies past the escape radius, and PT reflection needs a
        # real or purely imaginary g: both are recorded, the run exits 0
        text = """\
name: engine-failures
description: a start past the escape radius and a PT check the model does not define
model:
  kind: pendulum
  g: 0.6+0.8i
energy: 0.5
starts:
  - x: 40i
    branch: "+"
  - x: 0.3
    branch: "+"
analyses: [pt]
"""
        cfg = write_scenario(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["summary.json", "traj_01.csv"]
        failed, ran = json.loads((out / "summary.json").read_text())["trajectories"]
        assert failed["error"] == "ValueError: start lies at or beyond the escape radius"
        assert failed["file"] is None and "classification" not in failed and "pt" not in failed
        assert ran["file"] == "traj_01.csv" and "error" not in ran
        assert ran["pt"]["error"].startswith("ValueError: PT reflection is defined only ")

    def test_energy_drift_past_the_float_range_is_recorded(self, tmp_path):
        # |p|^2 ~ 2e310 overflows a float power; the run still records the trajectory
        cfg = write_scenario(tmp_path, HUGE_MOMENTUM_SCENARIO)
        out = tmp_path / "o"
        # and quietly: a squared distance to the start past the float
        # range is no numpy warning, in the run or in the closure analysis
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        rec = strict_json(out / "summary.json")["trajectories"][0]
        assert rec["file"] == "traj_00.csv" and "error" not in rec
        assert math.isfinite(rec["energy_drift"])
        assert rec["closure"]["closed"] is False

    def test_pt_rerun_ignores_the_escape_radius(self, tmp_path):
        # |Im x| = 1e155 is far past the escape radius; the backward run is
        # bounded by the forward span and watches no escape
        cfg = write_scenario(tmp_path, HUGE_MOMENTUM_SCENARIO.replace("[closure]", "[pt]"))
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        pt = strict_json(out / "summary.json")["trajectories"][0]["pt"]
        assert "error" not in pt and pt["compared_points"] > 0

    def test_ellipse_past_the_float_range_is_a_degenerate_conic(self, tmp_path):
        cfg = write_scenario(tmp_path, HUGE_MOMENTUM_SCENARIO.replace("[closure]", "[ellipse]"))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        ellipse = strict_json(out / "summary.json")["trajectories"][0]["ellipse"]
        assert ellipse == {"error": "DegenerateConic: samples too large to fit"}

    def test_escape_time_real_form_follows_the_direction(self, tmp_path):
        # from -i the default ray is not an escape ray; direction "+" is
        text = """\
name: cubic-escape-up
description: escape time from the turning point -i along the upward ray
model:
  kind: cubic-i
energy: -1
starts:
  - {x: "0.5", p: "1"}
integrator:
  horizon: 1
analyses: [escape_time]
escape_time: {turning_point: "-i", direction: "+", real_form: true}
"""
        cfg = write_scenario(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        entry = strict_json(out / "summary.json")["quadrature"]["escape_time"]
        assert "error" not in entry
        assert entry["real_form"] == entry["value"] == escape_time(ImaginaryCubic(), -1.0, -1j, direction=1)

    def test_no_refined_return_is_null_in_strict_json(self, tmp_path):
        # the start runs up the line Re x = pi, ever faster, until the step
        # underflows: no return to refine
        text = """\
name: stalled-at-the-top
description: pendulum start that never returns
model:
  kind: pendulum
  g: 1
starts:
  - x: "3.141592653589793+0.5i"
    p: "0"
integrator:
  horizon: 50
  escape_radius: 2000
analyses: [closure]
"""
        cfg = write_scenario(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        rec = strict_json(out / "summary.json")["trajectories"][0]
        assert rec["classification"] == "truncated"
        assert rec["closure"]["return_distance"] is None

    def test_a_non_finite_summary_value_fails_loudly(self, tmp_path, monkeypatch):
        monkeypatch.setattr(Trajectory, "energy_drift", lambda self: math.nan)
        cfg = write_scenario(tmp_path, TINY_SCENARIO)
        with pytest.raises(ValueError, match="JSON compliant"):
            main(["run", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert not (tmp_path / "o" / "summary.json").exists()

    def test_block_index_out_of_range_fails_before_running(self, tmp_path, capsys):
        text = """\
name: bad-block-index
description: escape-time block indexing past the root list
model:
  kind: pendulum
  g: 1
energy: 1.5430806348152437
window: [0, 2pi, -2, 2]
starts:
  - turning_point: 1
analyses: [escape_time]
escape_time:
  turning_point: 7
"""
        cfg = write_scenario(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "key 'escape_time.turning_point': index 7 out of range (2 roots in the window)" in err
        assert not (tmp_path / "o").exists()

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, TINY_SCENARIO)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["run", str(cfg), "--out", str(blocker / "sub")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_closure_analysis_on_driven_model_rejected(self, tmp_path, capsys):
        cfg = write_scenario(
            tmp_path, DRIVEN_SCENARIO.replace("analyses: [cells]", "analyses: [closure]")
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "closure" in capsys.readouterr().err


class TestMathSubcommands:
    @pytest.mark.parametrize(
        "argv,key",
        [
            (["turning-points", "pendulum", "1", "1,0,-1,1"], "key 'window'"),
            (["turning-points", "pendulum:g=0", "1", "0,1,-1,1"], "key 'model': g "),
            (["period", "pendulum:g=0", "1"], "key 'model': g "),
            (["turning-points", "pendulum", "1", "-1e12,1e12,-2,2"], "key 'window': window needs"),
        ],
    )
    def test_root_resolution_errors_name_the_key(self, capsys, argv, key):
        assert main(argv) == 2
        assert key in capsys.readouterr().err

    def test_turning_points(self, capsys):
        code = main(
            ["turning-points", "pendulum:g=1", "1.5430806348152437", "-3pi,3pi,-2,2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        first = lines[0].split()
        assert abs(float(first[0]) - (-3 * PI)) < 1e-9
        assert any("branch=+1" in ln for ln in lines)
        assert any("branch=-1" in ln for ln in lines)

    def test_turning_points_imag_g(self, capsys):
        code = main(["turning-points", "pendulum:g=i", "1.1752011936438014", "-pi,2pi,-2,2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        pts = [complex(float(ln.split()[0]), float(ln.split()[1])) for ln in lines]
        assert any(abs(z - (PI / 2 - 1j)) < 1e-9 for z in pts)
        assert any(abs(z - (3 * PI / 2 + 1j)) < 1e-9 for z in pts)

    def test_escape_time(self, capsys):
        code = main(["escape-time", "pendulum:g=1", "1.5430806348152437", "pi+1i"])
        assert code == 0
        value = float(capsys.readouterr().out.strip().split()[-1])
        assert abs(value - 1.9753644322886177) < 1e-8

    def test_period_with_explicit_pair(self, capsys):
        code = main(["period", "pendulum:g=1", "0", "--pair", "-pi/2;pi/2"])
        assert code == 0
        value = float(capsys.readouterr().out.strip().split()[-1])
        assert abs(value - 7.4162987092054875) < 1e-8

    def test_period_auto_pair(self, capsys):
        code = main(["period", "pendulum:g=1", "0"])
        assert code == 0
        value = float(capsys.readouterr().out.strip().split()[-1])
        assert abs(value - 7.4162987092054875) < 1e-8

    @pytest.mark.parametrize(
        "argv,call,given",
        [
            (["turning-points", "pendulum", "1", "-pi,pi,-2,2"], "turning_points", {}),
            (["turning-points", "pendulum", "1", "-pi,pi,-2,2", "--tol", "1e-9"], "turning_points", {"residual_tol": 1e-9}),
            (["escape-time", "pendulum", "1.5430806348152437", "pi+1i"], "escape_time", {}),
            (
                ["escape-time", "pendulum", "1.5430806348152437", "pi+1i", "--cutoff", "40", "--tol", "1e-9"],
                "escape_time",
                {"cutoff": 40.0, "tol": 1e-9},
            ),
            (["period", "pendulum", "0", "--pair", "-pi/2;pi/2"], "period_contour", {}),
            (["period", "pendulum", "0", "--offset", "0.25", "--tol", "1e-9"], "period_contour", {"offset": 0.25, "tol": 1e-9}),
        ],
    )
    def test_only_given_options_reach_the_library(self, monkeypatch, capsys, argv, call, given):
        seen = []
        real = getattr(cli, call)

        def spy(*args, **kw):
            seen.append(kw)
            return real(*args, **kw)

        monkeypatch.setattr(cli, call, spy)
        assert main(argv) == 0
        assert seen[-1] == given
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["turning-points", "pendulum", "1", "-pi,pi,-2,2", "--tol", "nan"], "key '--tol': must be finite"),
            (["turning-points", "pendulum", "1", "-pi,pi,-2,2", "--tol", "0"], "key '--tol': must be positive"),
            (["escape-time", "pendulum", "1.5430806348152437", "pi+1i", "--cutoff", "nan"], "key '--cutoff': must be finite"),
            (["escape-time", "pendulum", "1.5430806348152437", "pi+1i", "--cutoff", "-1"], "key '--cutoff': must be positive"),
            (["escape-time", "pendulum", "1.5430806348152437", "pi+1i", "--tol", "nan"], "key '--tol': must be finite"),
            (["escape-time", "pendulum", "1.5430806348152437", "pi+1i", "--tol", "inf"], "key '--tol': must be finite"),
            (["period", "pendulum", "0", "--offset", "nan"], "key '--offset': must be finite"),
            (["period", "pendulum", "0", "--offset", "0"], "key '--offset': must be positive"),
            (["period", "pendulum", "0", "--pair", "-pi/2;pi/2", "--tol", "-1e-10"], "key '--tol': must be positive"),
        ],
    )
    def test_bad_quadrature_flags_name_the_flag(self, capsys, argv, error):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert error in out.err
        assert out.out == ""

    def test_printed_values_are_the_library_defaults(self, capsys):
        model = Pendulum(g=1.0 + 0j)
        x0 = refine_root(model, COSH1, PI + 1j).x0
        assert main(["escape-time", "pendulum", repr(COSH1), "pi+1i"]) == 0
        assert capsys.readouterr().out == f"{escape_time(model, COSH1, x0)!r}\n"
        pair = tuple(refine_root(model, 0j, z).x0 for z in (-PI / 2, PI / 2))
        assert main(["period", "pendulum", "0", "--pair", "-pi/2;pi/2"]) == 0
        assert capsys.readouterr().out == f"{period_contour(model, 0j, pair)!r}\n"

    def test_malformed_model_argument(self, capsys):
        assert main(["turning-points", "pendulum:mass=2", "0", "-1,1,-1,1"]) == 2
        assert "mass" in capsys.readouterr().err

    def test_bad_energy(self, capsys):
        assert main(["escape-time", "pendulum:g=1", "zz", "pi+1i"]) == 2
        assert capsys.readouterr().err

    def test_negative_energy_literal(self, capsys):
        # leading-dash math values must not be eaten by the flag parser
        code = main(["turning-points", "pendulum:g=1", "-1.5430806348152437", "-3pi,3pi,-2,2"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6
