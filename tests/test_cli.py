import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracprey
from fracprey import step_thresholds, thresholds
from fracprey.cli import ConfigError, format_number, main, parse_config

BASE_CONFIG = """\
# baseline parameter set
r = 2.65
K = 898
alpha = 0.045
h = 0.0437
theta = 0.215
c = 0.86
d = 1.06
mode = thresholds

[thresholds]
m = 0.95
"""


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def name_value(path):
    _, rows = read_csv(path)
    return {row[0]: row[1] for row in rows}


class TestParseConfig:
    def test_full_document(self):
        cfg = parse_config(BASE_CONFIG)
        assert cfg.mode == "thresholds"
        assert cfg.params.r == 2.65 and cfg.params.c == 0.86
        assert cfg.m == 0.95

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
            parse_config("r = 2.65\nbogus = 1\n")

    def test_order_constraint_named(self):
        text = BASE_CONFIG.replace("m = 0.95", "m = 1.5")
        with pytest.raises(ConfigError, match="0 < m <= 1"):
            parse_config(text)

    def test_complexity_constraint_named(self):
        text = BASE_CONFIG.replace("c = 0.86", "c = 1")
        with pytest.raises(ConfigError, match="c must satisfy 0 <= c < 1"):
            parse_config(text)

    def test_missing_parameter(self):
        text = BASE_CONFIG.replace("d = 1.06\n", "")
        with pytest.raises(ConfigError, match="missing required key 'd'"):
            parse_config(text)

    def test_missing_mode_option(self):
        text = "\n".join(
            line for line in BASE_CONFIG.splitlines() if not line.startswith("m =")
        ).replace("mode = thresholds", "mode = simulate")
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(text)

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="invalid value for 'K'"):
            parse_config(BASE_CONFIG.replace("K = 898", "K = lots"))

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BASE_CONFIG + "[plotting]\nx = 1\n")

    def test_foreign_section_keys_are_checked_but_inactive(self):
        text = BASE_CONFIG + "[sweep]\ns_min = 0.1\n"
        cfg = parse_config(text)
        assert cfg.mode == "thresholds"
        assert cfg.s_min is None

    def test_pair_value(self):
        text = BASE_CONFIG.replace("mode = thresholds", "mode = discrete") + (
            "[discrete]\nm = 0.95\ns = 0.1\niterations = 10\nx0 = 12, 7\n"
        )
        cfg = parse_config(text)
        assert cfg.x0 == (12.0, 7.0)


class TestCliRuns:
    def test_thresholds_matches_library_bit_for_bit(self, tmp_path, high_complexity):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG, encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["thresholds", "--config", str(config), "--output", str(out)]) == 0
        values = name_value(out)
        th = thresholds(high_complexity)
        st = step_thresholds(high_complexity, 0.95)
        assert values["c1"] == format_number(th.c1)
        assert values["theta1"] == format_number(th.theta1)
        assert values["c2"] == format_number(th.c2)
        assert values["theta2"] == format_number(th.theta2)
        assert values["s2"] == format_number(st.s2)
        assert values["s3"] == format_number(st.s3)
        assert values["s4"] == "nan"

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("mode = thresholds", "mode = equilibria"), encoding="utf-8")
        out = tmp_path / "eq.csv"
        assert main(["equilibria", "--config", str(config), "--c", "0.45", "--output", str(out)]) == 0
        values = name_value(out)
        assert values["Estar.exists"] == "1"
        assert float(values["Estar.x"]) == pytest.approx(253.9056, abs=1e-3)

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("m = 0.95", "m = 1.5"), encoding="utf-8")
        assert main(["thresholds", "--config", str(config)]) == 2
        assert "0 < m <= 1" in capsys.readouterr().err

    def test_library_value_error_exit_code(self, tmp_path):
        # DiscreteConfig, not the config parser, rejects transient >= iterations;
        # the CLI process must still end in exit 2 with a one-line message
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("c = 0.86", "c = 0.45"), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(fracprey.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fracprey.cli", "discrete", "--config", str(config),
             "--m", "0.95", "--s", "0.1", "--iterations", "10", "--transient", "50",
             "--output", str(tmp_path / "orbit.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: transient")
        assert proc.stderr.count("\n") == 1

    def test_grid_budget_exit_code(self, tmp_path):
        # a 2e10-step grid is rejected by pece_solve before it allocates, so
        # the process ends in exit 2 rather than a MemoryError
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(fracprey.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fracprey.cli", "simulate", "--config", str(config),
             "--m", "0.9", "--step", "0.05", "--horizon", "1e9",
             "--output", str(tmp_path / "traj.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: grid of")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "traj.csv").exists()

    def test_orbit_budget_exit_code(self, tmp_path):
        # iterate_orbit rejects 1e10 iterations before it allocates 160 GB
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(fracprey.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fracprey.cli", "discrete", "--config", str(config),
             "--m", "0.95", "--s", "0.1", "--iterations", "10000000000",
             "--output", str(tmp_path / "orbit.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: orbit of")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "orbit.csv").exists()

    def test_simulate_grid_rows(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            BASE_CONFIG.replace("mode = thresholds", "mode = simulate").replace(
                "[thresholds]\nm = 0.95", "[simulate]\nm = 0.95\nstep = 0.05\nhorizon = 0.05"
            ),
            encoding="utf-8",
        )
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(config), "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "x", "y"]
        assert len(rows) == 2

    def test_simulate_round_trip_and_idempotence(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG, encoding="utf-8")
        out = tmp_path / "sim.csv"
        args = [
            "simulate", "--config", str(config), "--output", str(out),
            "--m", "0.9", "--step", "0.05", "--horizon", "2.0",
        ]
        assert main(args) == 0
        first = out.read_bytes()
        assert b"\r" not in first  # LF endings only
        header, rows = read_csv(out)
        for row in rows:
            for cell in row[1:]:
                value = float(cell)
                assert format_number(value) == cell  # 15-digit round trip
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_normal_form_gamma_negative(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("c = 0.86", "c = 0.45"), encoding="utf-8")
        out = tmp_path / "nf.csv"
        assert main([
            "normal-form", "--config", str(config), "--m", "0.95", "--output", str(out)
        ]) == 0
        values = name_value(out)
        assert float(values["gamma"]) < 0.0
        assert float(values["lambda_modulus"]) == pytest.approx(1.0, abs=1e-8)

    def test_normal_form_precondition_exit(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG, encoding="utf-8")
        assert main(["normal-form", "--config", str(config), "--m", "0.95"]) == 2
        assert "interior" in capsys.readouterr().err

    def test_discrete_escape_exit(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("c = 0.86", "c = 0.45"), encoding="utf-8")
        out = tmp_path / "orbit.csv"
        code = main([
            "discrete", "--config", str(config), "--m", "1.0", "--s", "2.0",
            "--iterations", "500", "--output", str(out),
        ])
        assert code == 3
        assert "escape" in capsys.readouterr().err
        header, rows = read_csv(out)
        assert header == ["n", "x", "y"]
        assert rows  # partial orbit still written

    def test_discrete_normal_run(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("c = 0.86", "c = 0.45"), encoding="utf-8")
        out = tmp_path / "orbit.csv"
        assert main([
            "discrete", "--config", str(config), "--m", "0.95", "--s", "0.1",
            "--iterations", "50", "--output", str(out),
        ]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 51

    def test_unwritable_output_exit(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG, encoding="utf-8")
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["thresholds", "--config", str(config), "--output", str(missing)]) == 4
        assert "cannot write" in capsys.readouterr().err

    def test_stability_report_rows(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG, encoding="utf-8")
        out = tmp_path / "stab.csv"
        assert main([
            "stability", "--config", str(config), "--m", "0.9", "--output", str(out)
        ]) == 0
        values = name_value(out)
        assert values["E0.classification"] == "saddle"
        assert values["E1.classification"] == "stable"
        assert values["E1.globally_stable"] == "1"

    def test_sweep_schema(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("c = 0.86", "c = 0.45"), encoding="utf-8")
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", str(config), "--m", "0.95",
            "--s-min", "0.18", "--s-max", "0.21", "--n-points", "4",
            "--transient", "500", "--n-samples", "5", "--kick", "1e-3",
            "--output", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["param", "x", "y"]
        assert len(rows) == 20
        assert "hopf" in capsys.readouterr().out

    def test_region_schema(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("mode = thresholds", "mode = region"), encoding="utf-8")
        out = tmp_path / "region.csv"
        assert main([
            "region", "--config", str(config), "--c-min", "0.02", "--c-max", "0.1",
            "--c-points", "5", "--output", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["c", "m_star"]
        assert len(rows) == 5
        values = [float(r[1]) for r in rows]
        assert all(0.9 < v < 1.0 for v in values)


class TestReproduce:
    def test_writes_suite_and_summary(self, tmp_path, capsys):
        assert main(["reproduce", "--output", str(tmp_path)]) == 0
        produced = list(tmp_path.glob("reproduce-*"))
        assert len(produced) == 1
        outdir = produced[0]
        expected_files = {
            "summary.csv",
            "step_size_table.csv",
            "stability_region.csv",
            "interior_sweep.csv",
            "predator_free_sweep.csv",
            "order_stable_series.csv",
            "order_unstable_series.csv",
        }
        names = {f.name for f in outdir.iterdir()}
        assert expected_files <= names
        header, rows = read_csv(outdir / "summary.csv")
        assert header == ["name", "expected", "computed", "abs_diff"]
        summary = {row[0]: (float(row[1]), float(row[2])) for row in rows}
        for name, (expected, computed) in summary.items():
            scale = max(abs(expected), 1e-12)
            assert abs(computed - expected) <= max(5e-3 * scale, 5e-4), name
        assert "reproduction written" in capsys.readouterr().out

    def test_same_second_run_does_not_overwrite(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fracprey.cli.time.strftime", lambda fmt: "20260101-000000")
        assert main(["reproduce", "--output", str(tmp_path)]) == 0
        outdir = tmp_path / "reproduce-20260101-000000"
        first = {f.name: f.read_bytes() for f in outdir.iterdir()}
        capsys.readouterr()
        assert main(["reproduce", "--output", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("cannot write output:")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [outdir]
        assert {f.name: f.read_bytes() for f in outdir.iterdir()} == first
