"""Golden outputs of every CLI mode.

Each run pins the exit code, the SHA-256 of stdout, the stderr text and the
SHA-256 of every file written: 14 flag runs on each of the three `conftest`
regimes, two config-file runs and one `reproduce`.  The fixture
`golden_cli.json` was written by the code it pins; regenerate it only for an
intended change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

import fracprey.cli

FIXTURE = Path(__file__).with_name("golden_cli.json")

# the `conftest` parameter set; c picks the regime
BASE = dict(r=2.65, K=898.0, alpha=0.045, h=0.0437, theta=0.215, d=1.06)
REGIMES = {"high": 0.86, "mid": 0.45, "low": 0.05}

FLAG_RUNS = {
    "simulate": ["simulate", "--m", "0.9", "--step", "0.05", "--horizon", "2"],
    "simulate_sweeps3": ["simulate", "--m", "0.95", "--step", "0.05", "--horizon", "2",
                         "--corrector-sweeps", "3", "--x0", "12,7"],
    "equilibria": ["equilibria"],
    "stability": ["stability", "--m", "0.9"],
    "thresholds": ["thresholds"],
    "thresholds_m": ["thresholds", "--m", "0.95"],
    "discrete": ["discrete", "--m", "0.95", "--s", "0.1", "--iterations", "50"],
    "discrete_x0": ["discrete", "--m", "0.95", "--s", "0.1", "--iterations", "50", "--x0", "12, 7"],
    "discrete_escape": ["discrete", "--m", "1.0", "--s", "2.0", "--iterations", "500"],
    "normal_form": ["normal-form", "--m", "0.95"],
    "sweep": ["sweep", "--m", "0.95", "--s-min", "0.18", "--s-max", "0.21", "--n-points", "4",
              "--n-samples", "5", "--kick", "1e-3"],
    "sweep_transient": ["sweep", "--m", "0.95", "--s-min", "0.18", "--s-max", "0.21",
                        "--n-points", "4", "--transient", "500", "--n-samples", "5"],
    "sweep_no_follow": ["sweep", "--m", "0.9", "--s-min", "0.5", "--s-max", "3.0", "--n-points", "6",
                        "--transient", "300", "--n-samples", "4", "--no-follow"],
    # the grid runs from the run's c: this --c, after the regime's, starts it
    "region": ["region", "--c", "0.02", "--c-max", "0.1", "--c-points", "5"],
}

PARAMS_TEXT = "".join(f"{k} = {v:g}\n" for k, v in BASE.items())

CONFIG_RUNS = {
    "config_sweep": ("sweep", f"""\
# sweep with every option from the file
{PARAMS_TEXT}c = 0.45

[sweep]
m = 0.95
s_min = 0.15
s_max = 0.25
n_points = 5
transient = 400
n_samples = 6
x0 = 10, 5
follow = no
"""),
    "config_discrete": ("discrete", f"""\
{PARAMS_TEXT}c = 0.05

[simulate]   # a foreign section is checked but inactive
m = 0.5
step = 0.1
horizon = 1

[discrete]
m = 0.9
s = 0.2
iterations = 40   # comment after a value
x0 = 10, 5
"""),
}


def all_runs():
    """Run name -> (argv without --output, config text or None)."""
    runs = {}
    for regime, c in REGIMES.items():
        params = [arg for k, v in dict(BASE, c=c).items() for arg in (f"--{k}", f"{v:g}")]
        for name, argv in FLAG_RUNS.items():
            runs[f"{regime}/{name}"] = (argv[:1] + params + argv[1:], None)
    for name, (mode, text) in CONFIG_RUNS.items():
        runs[name] = ([mode], text)
    runs["reproduce"] = (["reproduce"], None)
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv, config_text, workdir: Path) -> dict:
    """Run the CLI in-process in an empty directory and describe its outcome."""
    argv = list(argv)
    if config_text is not None:
        config = workdir.parent / f"{workdir.name}.cfg"
        config.write_text(config_text, encoding="utf-8")
        argv += ["--config", str(config)]
    target = workdir if argv[0] == "reproduce" else workdir / "out.csv"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(fracprey.cli.time, "strftime", lambda fmt: "20260101-000000"):
        code = fracprey.cli.main(argv + ["--output", str(target)])
    place = str(workdir)
    return {
        "exit": code,
        "stdout_sha256": sha256(out.getvalue().replace(place, "<out>").encode("utf-8")),
        "stderr": err.getvalue().replace(place, "<out>"),
        "files": {
            path.relative_to(workdir).as_posix(): sha256(path.read_bytes())
            for path in sorted(workdir.rglob("*")) if path.is_file()
        },
    }


def record_all(base: Path) -> dict:
    outcomes = {}
    for i, (name, (argv, text)) in enumerate(all_runs().items()):
        workdir = base / f"run{i:02d}"
        workdir.mkdir()
        outcomes[name] = record(argv, text, workdir)
    return outcomes


GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return record_all(tmp_path_factory.mktemp("golden"))


def test_fixture_covers_every_run():
    assert set(GOLDEN) == set(all_runs())


@pytest.mark.parametrize("name", sorted(all_runs()))
def test_run_matches_golden(outcomes, name):
    assert outcomes[name] == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        result = record_all(Path(tmp))
    FIXTURE.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    files = sum(len(r["files"]) for r in result.values())
    print(f"wrote {len(result)} runs and {files} files to {FIXTURE}", file=sys.stderr)
