import contextlib
import io
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fracprey
import fracprey.cli
from fracprey import (
    DiscreteConfig,
    SolverConfig,
    inverse_map_gain,
    iterate_orbit,
    pece_solve,
    step_thresholds,
    sweep_step_size,
    thresholds,
)
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


def assert_no_children():
    """This process has no child process left, running or unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for(condition, timeout=30.0):
    """Poll condition() until it holds; fails after timeout seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestParseConfig:
    def test_full_document(self):
        cfg = parse_config(BASE_CONFIG, "thresholds")
        assert cfg.mode == "thresholds"
        assert cfg.params.r == 2.65 and cfg.params.c == 0.86
        assert cfg.m == 0.95

    def test_mode_comes_from_the_caller(self):
        # the [thresholds] section is inactive in an equilibria run
        cfg = parse_config(BASE_CONFIG, "equilibria")
        assert cfg.mode == "equilibria" and cfg.m is None
        with pytest.raises(ConfigError, match="unknown mode 'nonsense'"):
            parse_config(BASE_CONFIG, "nonsense")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
            parse_config("r = 2.65\nbogus = 1\n", "thresholds")

    def test_order_constraint_named(self, tmp_path, capsys):
        # the library call of each mode that reads m checks it, before any output
        sections = {
            "simulate": "step = 0.05\nhorizon = 1\n",
            "stability": "",
            "thresholds": "",
            "discrete": "s = 0.1\niterations = 10\n",
            "normal-form": "",
            "sweep": "s_min = 0.1\ns_max = 0.2\nn_points = 3\n",
        }
        for mode, keys in sections.items():
            config = tmp_path / f"{mode}.cfg"
            section = f"[{mode}]\nm = 1.5\n{keys}"
            config.write_text(BASE_CONFIG.replace("c = 0.86", "c = 0.45")
                              .replace("[thresholds]\nm = 0.95\n", section), encoding="utf-8")
            out = tmp_path / f"{mode}.csv"
            assert main([mode, "--config", str(config), "--output", str(out)]) == 2, mode
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert "0 < m <= 1" in err
            assert not out.exists()

    def test_complexity_constraint_named(self):
        text = BASE_CONFIG.replace("c = 0.86", "c = 1")
        with pytest.raises(ConfigError, match="c must satisfy 0 <= c < 1"):
            parse_config(text, "thresholds")

    def test_missing_parameter(self):
        text = BASE_CONFIG.replace("d = 1.06\n", "")
        with pytest.raises(ConfigError, match="missing required key 'd'"):
            parse_config(text, "thresholds")

    def test_missing_mode_option(self):
        text = "\n".join(line for line in BASE_CONFIG.splitlines() if not line.startswith("m ="))
        with pytest.raises(ConfigError, match="missing required key 'm' for mode simulate"):
            parse_config(text, "simulate")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="invalid value for 'K'"):
            parse_config(BASE_CONFIG.replace("K = 898", "K = lots"), "thresholds")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BASE_CONFIG + "[plotting]\nx = 1\n", "thresholds")

    def test_foreign_section_keys_are_checked_but_inactive(self):
        text = BASE_CONFIG + "[sweep]\ns_min = 0.1\n"
        cfg = parse_config(text, "thresholds")
        assert cfg.mode == "thresholds"
        assert cfg.s_min is None

    def test_pair_value(self):
        text = BASE_CONFIG + "[discrete]\nm = 0.95\ns = 0.1\niterations = 10\nx0 = 12, 7\n"
        cfg = parse_config(text, "discrete")
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
        config.write_text(BASE_CONFIG, encoding="utf-8")
        out = tmp_path / "eq.csv"
        assert main(["equilibria", "--config", str(config), "--c", "0.45", "--output", str(out)]) == 0
        values = name_value(out)
        assert values["Estar.exists"] == "1"
        assert float(values["Estar.x"]) == pytest.approx(253.9056, abs=1e-3)

    def test_config_mode_line_rejected(self, tmp_path, capsys):
        # the subcommand names the mode; a mode line in the file is an unknown key
        config = tmp_path / "run.cfg"
        config.write_text("mode = nonsense\n" + BASE_CONFIG, encoding="utf-8")
        assert main(["equilibria", "--config", str(config), "--output", str(tmp_path / "eq.csv")]) == 2
        assert capsys.readouterr().err == "config error: line 1: unknown key 'mode'\n"
        assert list(tmp_path.iterdir()) == [config]

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("m = 0.95", "m = 1.5"), encoding="utf-8")
        assert main(["thresholds", "--config", str(config)]) == 2
        assert "0 < m <= 1" in capsys.readouterr().err

    def test_library_value_error_exit_code(self, tmp_path):
        # DiscreteConfig, not the config parser, rejects iterations < 1; the
        # CLI process must still end in exit 2 with a one-line message
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("c = 0.86", "c = 0.45"), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(fracprey.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fracprey.cli", "discrete", "--config", str(config),
             "--m", "0.95", "--s", "0.1", "--iterations", "0",
             "--output", str(tmp_path / "orbit.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: iterations")
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
            BASE_CONFIG.replace("[thresholds]\nm = 0.95", "[simulate]\nm = 0.95\nstep = 0.05\nhorizon = 0.05"),
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

    # a set on the unit-modulus set whose order is so small that the step
    # of s5's gain 2/G = 4.72533 exceeds the float range; s4 does not
    SMALL_ORDER = ["--m", "0.0013965989201810386"] + [
        arg for key, value in dict(
            r=1.0313372770626303, K=133.798497589315, alpha=0.10174037599715532, h=0.08975409275460373,
            theta=0.4254221839060461, c=0.24979824806629516, d=1.6071127486252588,
        ).items() for arg in (f"--{key}", str(value))
    ]

    def test_normal_form_at_small_order(self, tmp_path):
        out = tmp_path / "nf.csv"
        assert main(["normal-form", "--output", str(out)] + self.SMALL_ORDER) == 0
        values = name_value(out)
        assert float(values["s4"]) == pytest.approx(1.2558e-41, rel=1e-4)
        assert float(values["lambda_modulus"]) == pytest.approx(1.0, abs=1e-8)

    def test_sweep_at_small_order(self, tmp_path, capsys):
        # the sweep reads only s2 and s4 of the step thresholds, and the Hopf
        # step s4 = 1.2558e-41 lies in the swept range
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--s-min", "1e-41", "--s-max", "2e-41", "--n-points", "3", "--output", str(out)]
        assert main(argv + self.SMALL_ORDER) == 0
        assert capsys.readouterr().out == "event: hopf of interior at s=1.25578e-41\n"
        assert len(out.read_text().splitlines()) > 1

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

    # 1 - c1 = 1.75e-9 keeps 7 digits: the transcritical Jury residual reads
    # 1.4e-8, within the rounding that the entry carries from c1
    SMALL_MARGIN = ("sweep --r 78.0953046065382 --K 166291130.36944187 --alpha 51.40139183153161 "
                    "--h 0.000103855858725885 --theta 0.8566894680343942 --c 0.03355198973015889 "
                    "--d 12.811150260460337 --m 0.2168728395724311 --s-min 0.1 --s-max 0.2 "
                    "--n-points 2 --n-samples 2 --transient 2").split()

    def test_ill_conditioned_residual_passes(self, tmp_path, capsys):
        assert main(self.SMALL_MARGIN + ["--output", str(tmp_path / "sweep.csv")]) == 0
        assert "numerical check" not in capsys.readouterr().err

    def test_failed_numerical_check_exit(self, tmp_path, capsys, monkeypatch):
        def failing_check(p, m):
            raise RuntimeError("transcritical residual 1 exceeds its rounding bound 1e-14")

        monkeypatch.setattr(fracprey.bifurcation, "detect_structural_bifurcations", failing_check)
        assert main(self.SMALL_MARGIN + ["--output", str(tmp_path / "sweep.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical check failed: transcritical") and err.count("\n") == 1

    # x0 sits on the prey pole x = -1/(alpha (1 - c) h) of the field, where its
    # capture term divides by exactly zero
    @pytest.mark.parametrize("mode, options", [
        ("discrete", "--s 0.1 --iterations 5"),
        ("simulate", "--step 0.1 --horizon 1"),
    ])
    def test_pole_start_exit(self, tmp_path, capsys, mode, options):
        argv = (f"{mode} --r 2.65 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --c 0.45 "
                f"--d 1.06 --m 0.9 {options} --x0=-924.5775836164851,1").split()
        assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical escape") and err.count("\n") == 1

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

    @pytest.mark.parametrize("argv", [
        ["sweep", "--c", "0.05", "--m", "0.95", "--s-min", "0.18", "--s-max", "0.21", "--n-points", "4",
         "--n-samples", "5", "--kick", "1e-3"],
        ["region", "--c", "0", "--c-max", "0.2", "--c-points", "3"],
    ], ids=["sweep", "region"])
    def test_unwritable_output_is_the_one_stderr_line(self, tmp_path, capsys, argv):
        # the sweep has orbits that escape and the region c values it skips,
        # but the run that cannot write its file reports only that
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(argv + PARAM_FLAGS + ["--output", str(missing)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("cannot write output:") and err.count("\n") == 1

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

    def test_only_set_options_reach_the_library(self, tmp_path, monkeypatch):
        # 0 and no are set values and pass through; an unset option is left
        # out, so the library default applies
        calls = []
        real = fracprey.cli.sweep_step_size

        def sweep(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(fracprey.cli, "sweep_step_size", sweep)
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("c = 0.86", "c = 0.45"), encoding="utf-8")
        argv = ["sweep", "--config", str(config), "--m", "0.95", "--s-min", "0.18",
                "--s-max", "0.21", "--n-points", "2", "--output", str(tmp_path / "sweep.csv")]
        assert main(argv + ["--transient", "0", "--kick", "0", "--no-follow"]) == 0
        assert main(argv) == 0
        assert calls == [dict(x0=(10.0, 5.0), transient=0, follow=False, kick=0.0),
                         dict(x0=(10.0, 5.0))]

    def test_region_schema(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG, encoding="utf-8")
        out = tmp_path / "region.csv"
        assert main([
            "region", "--config", str(config), "--c", "0.02", "--c-max", "0.1",
            "--c-points", "5", "--output", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["c", "m_star"]
        assert len(rows) == 5
        values = [float(r[1]) for r in rows]
        assert all(0.9 < v < 1.0 for v in values)

    def test_region_grid_starts_at_the_runs_c(self, tmp_path, capsys):
        out = tmp_path / "region.csv"
        assert main(REGION[:1] + PARAM_FLAGS + REGION[1:] + ["--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == [format_number(c) for c in np.linspace(0.02, 0.1, 5)]
        assert capsys.readouterr().err == ""

    def test_region_takes_no_c_min_flag(self, tmp_path, capsys):
        # the grid starts at the run's c, so a separate start would be unread
        with pytest.raises(SystemExit) as info:
            main(REGION[:1] + PARAM_FLAGS + REGION[1:]
                 + ["--c-min", "0.02", "--output", str(tmp_path / "r.csv")])
        assert info.value.code == 2
        assert "unrecognized arguments: --c-min 0.02" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_region_section_takes_no_c_min(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG + "[region]\nc_min = 0.02\nc_max = 0.1\nc_points = 5\n",
                          encoding="utf-8")
        assert main(["region", "--config", str(config), "--output", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: line 13: key 'c_min' is not valid in section [region]\n"
        assert list(tmp_path.iterdir()) == [config]


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

    def test_row_off_its_reference_fails(self, tmp_path, capsys, monkeypatch):
        # theta1 computes to 0.07255, so a reference moved to 0.0736 is 1e-3 off
        scalars = tuple((n, 0.0736 if n == "theta1" else v) for n, v in fracprey.cli._REFERENCE_SCALARS)
        monkeypatch.setattr(fracprey.cli, "_REFERENCE_SCALARS", scalars)
        assert main(["reproduce", "--output", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        report = captured.out.splitlines()[1:]
        verdicts = {line.split()[0]: line.split()[-1] for line in report}
        assert verdicts.pop("theta1") == "FAIL"
        assert set(verdicts.values()) == {"PASS"}
        assert captured.err == "reproduce: 1 of 37 summary rows outside tolerance: theta1\n"
        # the directory is complete, and summary.csv keeps its four columns
        (outdir,) = tmp_path.glob("reproduce-*")
        header, rows = read_csv(outdir / "summary.csv")
        assert header == ["name", "expected", "computed", "abs_diff"]
        assert all(len(row) == 4 for row in rows)
        assert dict((r[0], float(r[1])) for r in rows)["theta1"] == 0.0736

    @pytest.mark.parametrize(
        "name,expected,value,ok",
        [
            ("c1", 0.8445, 0.8445 + 4.9e-4, True),
            ("c1", 0.8445, 0.8445 + 5.1e-4, False),
            ("c1", 0.8445, float("nan"), False),
            ("gamma", -1.9961e-8, -1.9961e-8 * 1.09, True),
            ("gamma", -1.9961e-8, -1.9961e-8 * 1.11, False),
            ("gamma", -1.9961e-8, 1e-12, False),
        ],
    )
    def test_scalar_tolerances(self, name, expected, value, ok):
        tol = fracprey.cli.GAMMA_TOL if name == "gamma" else fracprey.cli.SCALAR_TOL
        assert fracprey.cli._within(expected, value, tol) is ok

    @pytest.mark.parametrize(
        "expected,value,ok",
        [(26269.0, 26269.0 + 131.0, True), (26269.0, 26269.0 + 132.0, False),
         (0.0041, 0.0041 + 4.9e-4, True), (0.0041, 0.0041 + 5.1e-4, False)],
    )
    def test_step_tolerances(self, expected, value, ok):
        assert fracprey.cli._within(expected, value, fracprey.cli.STEP_TOL) is ok

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

    @staticmethod
    def run_on(cpus, out, capfd, monkeypatch):
        """reproduce with cpus usable CPUs: one runs every analysis in this
        process, more share them with forked children.  Returns (exit code,
        stderr), the children's own writes to file descriptor 2 included."""
        monkeypatch.setattr(fracprey.cli, "_usable_cpus", lambda: cpus)
        code = main(["reproduce", "--output", str(out)])
        assert_no_children()
        return code, capfd.readouterr().err

    def test_workers_write_the_same_bytes(self, tmp_path, capfd, monkeypatch):
        files = {}
        for cpus in (1, 2):
            assert self.run_on(cpus, tmp_path / str(cpus), capfd, monkeypatch) == (0, "")
            (outdir,) = (tmp_path / str(cpus)).glob("reproduce-*")
            files[cpus] = {f.name: f.read_bytes() for f in outdir.iterdir()}
        assert len(files[1]) == 11
        assert files[2] == files[1]

    def test_job_divergence_exits_3_on_every_path(self, tmp_path, capfd, monkeypatch):
        # run() maps the error to one line, whether a reproduce job raised it
        # here, in a child, or a simulate run did
        def diverging(field, x0, m, cfg):
            raise fracprey.SolverDivergenceError(2.5, [1e13, 0.0])

        monkeypatch.setattr(fracprey.cli, "pece_solve", diverging)
        one = self.run_on(1, tmp_path / "1", capfd, monkeypatch)
        assert one == (3, f"numerical escape: {fracprey.SolverDivergenceError(2.5, [1e13, 0.0])}\n")
        assert self.run_on(2, tmp_path / "2", capfd, monkeypatch) == one
        argv = ("simulate --r 2.65 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --c 0.45 "
                "--d 1.06 --m 0.9 --step 0.1 --horizon 1").split()
        assert main(argv + ["--output", str(tmp_path / "s.csv")]) == 3
        assert capfd.readouterr().err == one[1]

    def test_job_write_error_exits_4_on_every_path(self, tmp_path, capfd, monkeypatch):
        write_csv = fracprey.cli.write_csv

        def failing(path, columns, rows):
            if Path(path).name == "predator_free_sweep.csv":
                raise PermissionError(13, "Permission denied", str(path))
            write_csv(path, columns, rows)

        monkeypatch.setattr(fracprey.cli, "write_csv", failing)
        for cpus in (1, 2):
            code, err = self.run_on(cpus, tmp_path / str(cpus), capfd, monkeypatch)
            (outdir,) = (tmp_path / str(cpus)).glob("reproduce-*")
            assert (code, err) == (4, f"cannot write output: [Errno 13] Permission denied: "
                                      f"'{outdir / 'predator_free_sweep.csv'}'\n")

    def test_sweep_and_region_files_are_the_modes_outputs(self, tmp_path, capsys):
        # each is what a user gets from its mode at the flags of its job
        assert main(["reproduce", "--output", str(tmp_path)]) == 0
        (outdir,) = tmp_path.glob("reproduce-*")
        sweep = ["sweep", "--m", "0.95", "--n-points", "31", "--transient", "3000",
                 "--n-samples", "120", "--kick", "1e-3"]
        runs = {
            "interior_sweep.csv": sweep + ["--c", "0.45", "--s-min", "0.10", "--s-max", "0.55"],
            "predator_free_sweep.csv": sweep + ["--c", "0.86", "--s-min", "0.60", "--s-max", "0.85"],
            "stability_region.csv": ["region", "--c", "0.005", "--c-max", "0.12", "--c-points", "24"],
        }
        for name, argv in runs.items():
            out = tmp_path / name
            assert main(argv + PARAM_FLAGS + ["--output", str(out)]) == 0
            assert out.read_bytes() == (outdir / name).read_bytes(), name

    @pytest.mark.parametrize("key", fracprey.cli.PARAM_KEYS)
    def test_parameter_flag_rejected(self, tmp_path, capsys, key):
        # reproduce runs on its reference parameters: a flag it would ignore
        # is a usage error, not a silently unused value
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", f"--{key}", "0.3", "--output", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --{key} 0.3" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_config_file_parameter_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# reference run\nc = 0.3\n", encoding="utf-8")
        assert main(["reproduce", "--config", str(config), "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: line 2: key 'c' is not valid for mode reproduce\n"
        )
        assert list(tmp_path.iterdir()) == [config]
        with pytest.raises(ConfigError, match="line 2: key 'c' is not valid for mode reproduce"):
            parse_config("# reference run\nc = 0.3\n", "reproduce")

    def test_fresh_process_loads_no_pool(self, tmp_path):
        # python -m fracprey.cli reproduce with one more live thread: from
        # Python 3.12 on, a fork in a threaded __main__ module warns on stderr
        script = (
            "import runpy, sys, threading\n"
            "threading.Thread(target=threading.Event().wait, daemon=True).start()\n"
            "sys.argv[1:] = ['reproduce', '--output', sys.argv[1]]\n"
            "try:\n"
            "    runpy.run_module('fracprey.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit:\n"
            "    print(sorted({'concurrent.futures', 'multiprocessing'} & sys.modules.keys()))\n"
            "    raise\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fracprey.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                              text=True, env=env, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "[]"
        (outdir,) = tmp_path.glob("reproduce-*")
        assert len(list(outdir.iterdir())) == 11


class Unpicklable(ValueError):
    """Holds a lock: pickle.dumps fails."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class TestRunJobs:
    # _run_jobs on small tables.  A job leaves a file in a log directory,
    # named by its index and holding its process id, since a child's memory
    # dies with it; open(..., "x") fails on a second start of an index
    @staticmethod
    def start(log, index):
        with open(log / str(index), "x") as fh:
            fh.write(str(os.getpid()))

    @staticmethod
    def starts(log):
        return {int(f.name): int(f.read_text()) for f in log.iterdir()}

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_every_job_runs_once(self, tmp_path, monkeypatch, cpus):
        def job(index):
            self.start(tmp_path, index)
            time.sleep(0.002)

        monkeypatch.setattr(fracprey.cli, "_usable_cpus", lambda: cpus)
        fracprey.cli._run_jobs([(job, index) for index in range(9)])
        assert_no_children()
        starts = self.starts(tmp_path)
        assert sorted(starts) == list(range(9))
        assert len(set(starts.values())) <= cpus

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lowest_index_failure_raised(self, tmp_path, monkeypatch, cpus):
        # every process takes one job and waits until all have one, so that
        # the parent and each child fail; job 0 fails last
        parent = os.getpid()

        def job(log, index):
            self.start(log, index)
            wait_for(lambda: len(list(log.iterdir())) == cpus)
            time.sleep(0.05 if index == 0 else 0.0)
            raise ValueError(f"job {index} in {'the parent' if os.getpid() == parent else 'a child'}")

        monkeypatch.setattr(fracprey.cli, "_usable_cpus", lambda: cpus)
        for attempt in range(4):
            log = tmp_path / str(attempt)
            log.mkdir()
            with pytest.raises(ValueError) as failure:
                fracprey.cli._run_jobs([(job, log, index) for index in range(9)])
            assert_no_children()
            # the jobs after the failed ones never started
            starts = self.starts(log)
            assert sorted(starts) == list(range(cpus))
            assert parent in starts.values() and len(set(starts.values())) == cpus
            assert str(failure.value) == f"job 0 in {'the parent' if starts[0] == parent else 'a child'}"

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_failure_cancels_the_jobs_not_started(self, tmp_path, monkeypatch, cpus):
        # a child fails the first job it takes, while a job of the parent
        # waits until a failed child has exited, which it does only after
        # emptying the queue: the parent starts no other job
        parent, log, failed = os.getpid(), tmp_path / "log", tmp_path / "failed"
        log.mkdir()

        def job(index):
            self.start(log, index)
            if os.getpid() != parent:
                # the pid is written in full before failed exists
                mine = tmp_path / str(os.getpid())
                mine.write_text(str(os.getpid()))
                os.replace(mine, failed)
                raise ValueError(f"job {index}")
            wait_for(failed.exists)
            # WNOWAIT leaves the child for _run_jobs to reap
            os.waitid(os.P_PID, int(failed.read_text()), os.WEXITED | os.WNOWAIT)

        monkeypatch.setattr(fracprey.cli, "_usable_cpus", lambda: cpus)
        with pytest.raises(ValueError) as failure:
            fracprey.cli._run_jobs([(job, index) for index in range(9)])
        assert_no_children()
        starts = self.starts(log)
        assert len(starts) <= cpus and list(starts.values()).count(parent) <= 1
        assert str(failure.value) == f"job {min(i for i, pid in starts.items() if pid != parent)}"

    def test_no_fork_runs_every_job_here_in_order(self, monkeypatch):
        # a job run in a child would leave no entry in this process's list
        ran = []
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(fracprey.cli, "_usable_cpus", lambda: 3)
        fracprey.cli._run_jobs([(lambda index: ran.append((index, os.getpid())), index) for index in range(9)])
        assert ran == [(index, os.getpid()) for index in range(9)]

    def test_one_cpu_never_forks(self, monkeypatch):
        def fork():
            raise AssertionError("os.fork called")

        ran = []
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(fracprey.cli, "_usable_cpus", lambda: 1)
        fracprey.cli._run_jobs([(ran.append, index) for index in range(9)])
        assert ran == list(range(9))

    def reproduce_with(self, table, cpus, tmp_path, capfd, monkeypatch):
        """reproduce with its job table replaced by table: (exit code, stderr)."""
        monkeypatch.setattr(fracprey.cli, "_reproduce_jobs", lambda outdir, *params: table)
        return TestReproduce.run_on(cpus, tmp_path / f"out{cpus}", capfd, monkeypatch)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_child_exit_without_report(self, tmp_path, capfd, monkeypatch, cpus):
        # a child that takes a job ends there; the parent waits until one has
        parent, taken = os.getpid(), tmp_path / "taken"

        def job():
            if os.getpid() == parent:
                wait_for(taken.exists)
            else:
                taken.touch()
                os._exit(7)

        assert self.reproduce_with([(job,)] * 4, cpus, tmp_path, capfd, monkeypatch) == (
            3, "numerical check failed: a job process ended without a report, exit code 7\n")

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_unpicklable_failure_ends_in_one_line(self, tmp_path, capfd, monkeypatch, cpus):
        # the parent's jobs wait until a child raised an exception that does
        # not pickle: the child sends a RuntimeError naming it instead
        parent, raised = os.getpid(), tmp_path / "raised"

        def job():
            if os.getpid() == parent:
                wait_for(raised.exists)
                return
            raised.touch()
            raise Unpicklable("no pickle")

        assert self.reproduce_with([(job,)] * 4, cpus, tmp_path, capfd, monkeypatch) == (
            3, "numerical check failed: Unpicklable: no pickle\n")


PARAM_FLAGS = ["--r", "2.65", "--K", "898", "--alpha", "0.045", "--h", "0.0437",
               "--theta", "0.215", "--d", "1.06"]
SIMULATE = ["simulate", "--c", "0.45", "--m", "0.9", "--step", "0.05", "--horizon", "1"]
DISCRETE = ["discrete", "--c", "0.45", "--m", "0.9", "--s", "0.1", "--iterations", "10"]
SWEEP = ["sweep", "--c", "0.45", "--m", "0.9", "--s-min", "0.1", "--s-max", "0.2", "--n-points", "3"]
REGION = ["region", "--c", "0.02", "--c-max", "0.1", "--c-points", "5"]

# name -> (command line less the parameters, text the one stderr line must hold);
# a flag repeated at the end overrides the valid value before it
REJECTED = {
    "m_zero": (SIMULATE + ["--m", "0"], "0 < m <= 1"),
    "m_above_one": (SIMULATE + ["--m", "1.5"], "0 < m <= 1"),
    "step_zero": (SIMULATE + ["--step", "0"], "step"),
    "step_negative": (SIMULATE + ["--step", "-1"], "step"),
    "step_inf": (SIMULATE + ["--step", "inf", "--horizon", "inf"], "0 < step < inf"),
    "horizon_below_step": (SIMULATE + ["--horizon", "0.01"], "horizon"),
    "corrector_sweeps_zero": (SIMULATE + ["--corrector-sweeps", "0"], "corrector_sweeps"),
    "corrector_sweeps_budget": (SIMULATE + ["--corrector-sweeps", "1000000000"], "budget"),
    "s_zero": (DISCRETE + ["--s", "0"], "step size"),
    "iterations_zero": (DISCRETE + ["--iterations", "0"], "iterations"),
    "sweep_transient_negative": (SWEEP + ["--transient", "-1"], "transient"),
    "n_samples_zero": (SWEEP + ["--n-samples", "0"], "n_samples"),
    "s_min_zero": (SWEEP + ["--s-min", "0"], "s_min"),
    "s_max_below_s_min": (SWEEP + ["--s-max", "0.05"], "s_max"),
    "n_points_one": (SWEEP + ["--n-points", "1"], "n_points"),
    "c_points_zero": (REGION + ["--c-points", "0"], "c_points"),
    "c_points_negative": (REGION + ["--c-points", "-5"], "c_points"),
    "normal_form_m_without_interior": (["normal-form", "--c", "0.86", "--m", "1.5"], "0 < m <= 1"),
    # below m ~ 9e-4 the step threshold s1 passes the float range
    "thresholds_m_tiny": (["thresholds", "--c", "0.45", "--m", "0.0005"], "float range"),
    # and so does the normal form's own s4
    "normal_form_m_tiny": (["normal-form", "--c", "0.45", "--m", "0.0005"], "float range"),
    # a sweep reads s2 and s4 only: here s4's gain G/H is below the float range
    "sweep_m_tiny": (SWEEP + ["--m", "0.0005"], "float range"),
    # at r = 100 and m = 0.004 the step threshold s2 falls below it
    "thresholds_s2_underflow": (["thresholds", "--c", "0.45", "--m", "0.004", "--r", "100"], "float range"),
    # and the sweep's own s2, at the transcritical c1 = 0.8445
    "sweep_s2_underflow": (SWEEP + ["--m", "0.004", "--r", "100"], "float range"),
    # at the smallest subnormal d the map gain 2/d of s1 is inf
    "thresholds_d_subnormal": (["thresholds", "--c", "0.45", "--m", "0.9", "--d", "5e-324"], "float range"),
    "x0_infinite": (SIMULATE + ["--x0", "inf,5"], "x0"),
    "x0_nan": (DISCRETE + ["--x0", "nan,5"], "x0"),
    "sweep_grid_budget": (SWEEP + ["--n-points", "10000000000000"], "budget"),
    "region_grid_budget": (REGION + ["--c-points", "10000000000000"], "budget"),
    # the region grid's start (c_min) is the run's c, checked by ModelParams
    "c_min_nan": (REGION + ["--c", "nan"], "c must satisfy"),
    "c_min_inf": (REGION + ["--c", "inf"], "c must satisfy"),
    "c_max_nan": (REGION + ["--c-max", "nan"], "c_max"),
    "c_max_inf": (REGION + ["--c-max", "inf"], "c_max"),
    "s_inf": (DISCRETE + ["--s", "inf"], "step size"),
    "s_max_inf": (SWEEP + ["--s-max", "inf"], "s_max"),
    "kick_nan": (SWEEP + ["--kick", "nan"], "kick"),
    "kick_inf": (SWEEP + ["--kick", "inf"], "kick"),
    # a restarted orbit is never kicked
    "kick_without_follow": (SWEEP + ["--no-follow", "--kick", "1e-3"], "follow mode"),
    "K_inf": (["equilibria", "--c", "0.45", "--K", "inf"], "K must be > 0"),
    "r_inf": (["stability", "--c", "0.45", "--m", "0.9", "--r", "inf"], "r must be > 0"),
}


CHUNK = fracprey.cli._CHUNK_ROWS


class TestWriteCsv:
    """write_csv writes the bytes of the per-cell formatter on either path."""

    COLUMNS = ("t", "x", "y")
    FLOATS = [(math.nan, math.inf, -math.inf), (-0.0, 5e-324, 1e300), (1 / 3, 0.0, -2.5e-7)]

    @staticmethod
    def per_cell(columns, rows):
        lines = [",".join(columns)] + [",".join(fracprey.cli._format_cell(v) for v in row) for row in rows]
        return "".join(line + "\n" for line in lines).encode("utf-8")

    def write(self, tmp_path, monkeypatch, columns, rows):
        """Bytes of write_csv and the number of cells it formatted one by one."""
        calls = []
        original = fracprey.cli._format_cell
        monkeypatch.setattr(fracprey.cli, "_format_cell", lambda v: calls.append(v) or original(v))
        path = tmp_path / "out.csv"
        fracprey.cli.write_csv(path, columns, rows)
        return path.read_bytes(), len(calls)

    def test_a_float_array_formats_no_cell_one_by_one(self, tmp_path, monkeypatch):
        data, formatted = self.write(tmp_path, monkeypatch, self.COLUMNS, np.array(self.FLOATS))
        assert formatted == 0
        assert data == self.per_cell(self.COLUMNS, self.FLOATS)
        assert data.splitlines()[1:4] == [
            b"nan,inf,-inf", b"-0,4.94065645841247e-324,1e+300", b"0.333333333333333,0,-2.5e-07"
        ]

    @pytest.mark.parametrize("n_rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_chunk_edges(self, tmp_path, monkeypatch, n_rows):
        rng = np.random.default_rng(n_rows)
        table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
        table[::7, 1] = np.nan
        data, formatted = self.write(tmp_path, monkeypatch, self.COLUMNS, table)
        assert formatted == 0
        assert data == self.per_cell(self.COLUMNS, table.tolist())
        assert len(data.splitlines()) == n_rows + 1

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(table=st.tuples(st.integers(0, 3000), st.integers(1, 5)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(width=64))))
    def test_any_float_array_gives_the_per_cell_bytes(self, table):
        columns = [f"c{i}" for i in range(table.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            fracprey.cli.write_csv(path, columns, table)
            assert path.read_bytes() == self.per_cell(columns, table.tolist())

    def test_a_list_of_float_rows_is_formatted_cell_by_cell(self, tmp_path, monkeypatch):
        for rows in (self.FLOATS, [list(row) for row in self.FLOATS]):
            data, formatted = self.write(tmp_path, monkeypatch, self.COLUMNS, rows)
            assert formatted == 3 * len(rows)
            assert data == self.per_cell(self.COLUMNS, rows)
        assert data.splitlines()[1:3] == [b"nan,inf,-inf", b"-0,4.94065645841247e-324,1e+300"]

    @pytest.mark.parametrize(
        "odd", [np.float64(0.1), 3, True, False, None, "name"],
        ids=["float64", "int", "true", "false", "none", "str"],
    )
    def test_any_other_cell_takes_the_per_cell_path(self, tmp_path, monkeypatch, odd):
        rows = [*self.FLOATS, (1.5, odd, 2.0)]
        data, formatted = self.write(tmp_path, monkeypatch, self.COLUMNS, rows)
        assert formatted == 3 * len(rows)
        assert data == self.per_cell(self.COLUMNS, rows)

    @pytest.mark.parametrize("rows", [[], [(1.0, 2.0)], [(1.0, 2.0, 3.0, 4.0)]],
                             ids=["empty", "short_row", "long_row"])
    def test_empty_or_ragged_rows_take_the_per_cell_path(self, tmp_path, monkeypatch, rows):
        data, formatted = self.write(tmp_path, monkeypatch, self.COLUMNS, rows)
        assert formatted == sum(len(row) for row in rows)
        assert data == self.per_cell(self.COLUMNS, rows)


class TestRejectedInputs:
    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_exit_2_with_one_line(self, tmp_path, capsys, name):
        argv, named = REJECTED[name]
        out = tmp_path / "out.csv"
        assert main(argv[:1] + PARAM_FLAGS + argv[1:] + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert named in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_discrete_takes_no_transient_flag(self, tmp_path, capsys):
        # discrete writes every row of its orbit, so a transient would change nothing
        with pytest.raises(SystemExit) as info:
            main(DISCRETE[:1] + PARAM_FLAGS + DISCRETE[1:]
                 + ["--transient", "1", "--output", str(tmp_path / "out.csv")])
        assert info.value.code == 2
        assert "unrecognized arguments: --transient 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_discrete_section_takes_no_transient(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG + "[discrete]\nm = 0.95\ns = 0.1\niterations = 50\ntransient = 10\n",
                          encoding="utf-8")
        assert main(["discrete", "--config", str(config), "--output", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: line 16: key 'transient' is not valid in section [discrete]\n"
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("name", ["c_min_nan", "c_min_inf", "c_max_nan", "c_max_inf",
                                      "s_inf", "s_max_inf", "kick_nan", "kick_inf"])
    def test_non_finite_grid_end_rejected_before_linspace(self, tmp_path, name):
        # np.linspace over a non-finite end warns, and so does arithmetic on a
        # non-finite step or kick; the checks run first
        argv, _ = REJECTED[name]
        with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            assert main(argv[:1] + PARAM_FLAGS + argv[1:] + ["--output", str(tmp_path / "out.csv")]) == 2

    def test_every_size_budget_has_one_message(self, tmp_path, capsys, mid_complexity):
        ending = "exceeds the budget of 10000000 values"
        over_budget = (
            lambda: pece_solve(lambda u: -u, [1.0, 2.0], 0.9, SolverConfig(step=0.05, horizon=1e9)),
            lambda: iterate_orbit(mid_complexity, DiscreteConfig(s=0.1, m=0.9, iterations=10**10), (10.0, 5.0)),
            lambda: sweep_step_size(mid_complexity, 0.95, 0.1, 0.2, 10**13),
        )
        for call in over_budget:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value).endswith(ending)
        argv, _ = REJECTED["region_grid_budget"]
        assert main(argv[:1] + PARAM_FLAGS + argv[1:] + ["--output", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.endswith(ending + "\n")

    @pytest.mark.parametrize("text", ["2e12, 1", "1, -1e13", "inf 5"])
    def test_config_file_start_checked(self, text):
        doc = BASE_CONFIG + f"[discrete]\nm = 0.95\ns = 0.1\niterations = 10\nx0 = {text}\n"
        with pytest.raises(ConfigError, match="line 16: invalid value for 'x0'"):
            parse_config(doc, "discrete")


# small valid values of each option, mixed with strings that are never valid
# or sit on an edge
BAD_VALUES = ("nan", "inf", "-1", "0", "1e400", "abc", "1,2,3")
VALID = {
    "m": st.floats(0.05, 1.0),
    "step": st.floats(0.01, 0.5),
    "horizon": st.floats(0.01, 2.0),
    "x0": st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)).map(lambda xy: f"{xy[0]},{xy[1]}"),
    "corrector_sweeps": st.integers(1, 3),
    "s": st.floats(0.01, 3.0),
    "iterations": st.integers(1, 500),
    "transient": st.integers(0, 500),
    "n_samples": st.integers(1, 10),
    "s_min": st.floats(0.01, 1.0),
    "s_max": st.floats(0.01, 3.0),
    "n_points": st.integers(2, 10),
    "kick": st.floats(-0.01, 0.01),
    "c_max": st.floats(0.0, 0.99),
    "c_points": st.integers(1, 10),
}


# the model parameters over wide valid ranges, r, K, alpha, h and d log-uniform
PARAMS = {key: st.floats(lo, hi).map(lambda e: 10.0**e)
          for key, lo, hi in (("r", -3, 5), ("K", -3, 9), ("alpha", -4, 3), ("h", -4, 2), ("d", -4, 3))}
PARAMS.update(theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
              c=st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def cli_runs(draw, mode):
    params = {key: draw(values) for key, values in PARAMS.items()}
    if mode == "normal-form":
        # an interior point x* = q K: theta > h d, and alpha solves
        # x* = d / (alpha (1 - c) (theta - h d)); a product that underflows
        # (a subnormal theta) keeps the drawn alpha
        params["h"] = params["theta"] * draw(st.floats(0.01, 0.99)) / params["d"]
        margin = params["theta"] - params["h"] * params["d"]
        denominator = margin * (1.0 - params["c"]) * draw(st.floats(0.01, 0.99)) * params["K"]
        if denominator > 0.0:
            params["alpha"] = params["d"] / denominator
    argv = [mode] + [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
    spec = fracprey.cli.MODES[mode]
    options = {}
    for key in spec.keys:
        if key == "follow":
            argv += draw(st.sampled_from([[], ["--follow"], ["--no-follow"]]))
        elif key in spec.required or draw(st.booleans()):
            # one value in four is a bad string, so most runs get past the parser
            bad = draw(st.integers(0, 3)) == 0
            options[key] = draw(st.sampled_from(BAD_VALUES) if bad else VALID[key])
    if mode == "discrete":
        # in half the runs, a step below the flip step s2 of the predator-free point
        if isinstance(options["m"], float) and isinstance(options["s"], float) and draw(st.booleans()):
            try:
                s2 = inverse_map_gain(2.0 / params["r"], options["m"])
            except ValueError:  # s2 passes the float range
                pass
            else:
                options["s"] = draw(st.floats(0.05, 0.95)) * s2
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


class TestFuzz:
    # one fuzz per mode, so that no mode is left to the draw
    @pytest.mark.parametrize("mode", sorted(set(fracprey.cli.MODES) - {"reproduce"}))
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_documented_exit_and_no_traceback(self, mode, data):
        argv = data.draw(cli_runs(mode))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            out = Path(tmp) / "out.csv"
            try:
                code = main(argv + ["--output", str(out)])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            if code == 0:
                header, rows = read_csv(out)
                assert all(len(row) == len(header) for row in rows), argv
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
