"""Command-line interface: parsing, scenario runs, determinism, exit codes."""
import json
import math

import pytest

from complexpendulum.cli import (
    ConfigError,
    _bundled_scenarios,
    list_scenarios,
    load_scenario,
    main,
    parse_complex,
)

PI = math.pi


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

    @pytest.mark.parametrize("text", ["", "zz", "1+", "pi+", "++1", "1i2", "nan", "inf", "1..2"])
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

    def test_driven_csv_has_cell_column(self, tmp_path):
        cfg = write_scenario(tmp_path, DRIVEN_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        header = (out / "traj_00.csv").read_text().splitlines()[0]
        assert header == "t,re_x,im_x,re_p,im_p,re_E,im_E,cell"

    def test_visited_cells_are_the_cells_of_the_samples(self, tmp_path):
        # strong drive: the run leaves cell 0, comes back and moves on,
        # so transitions repeat cells; the CSV's cell column is the
        # trajectory's cell_history
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
            ("horizon: 20.0", "horizon: .nan", "key 'integrator': max_time must not be NaN"),
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
