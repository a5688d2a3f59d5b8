"""Command-line surface.

Subcommands map one-to-one onto the library operations, and the subcommand
alone names a run's mode.  Parameters come from a `key = value` config file
(with `#` comments and one optional `[mode]` section per mode) overridden by
flags of the same name.  All numeric output is CSV (UTF-8, LF, '.' decimal
separator, 15 significant digits).

Two tables drive the layer: _OPTIONS gives each option key its parser,
MODES gives each mode its runner and its required and optional keys.
Defaults are the library's own: a runner passes on only the options a run
set.  The CLI checks only the value it builds itself, the x0 bound.  Every
other range check, the order m's and the region grid's among them, is the
library's.
main() turns a config that does not parse into an exit line, run() any
error of a run: a ValueError the library raises ends it like a bad config.

`reproduce` computes its summary here, then runs its eight file-writing
analyses as a table of jobs, taken in table order by the calling process
and one forked child per further usable CPU; each job writes its own CSV,
so the files hold the same bytes for any process count.  `simulate`,
`sweep` and `region` write through the same jobs, so each series, sweep
or region file of reproduce is that mode's output at its row's arguments.

Exit codes: 0 success, 2 config/domain error, 3 numerical escape, a failed
numerical check or a `reproduce` summary row outside its tolerance, 4
unwritable output path.
"""

import argparse
import math
import os
import pickle
import sys
import time
import warnings
from dataclasses import make_dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .bifurcation import DEFAULT_X0, export_series, stability_region_cm, sweep_step_size
from .discrete import (
    DiscreteConfig,
    classify_fixed_points,
    hopf_normal_form,
    iterate_orbit,
    step_thresholds,
)
from .model import ModelParams, equilibria, interior_point, jacobian, thresholds, vector_field
from .pece import ESCAPE_BOUND, SolverConfig, SolverDivergenceError, pece_solve
from .stability import classify_equilibria, critical_order, global_stability_check

__all__ = ["ConfigError", "RunConfig", "main", "parse_config", "run"]

PARAM_KEYS = ("r", "K", "alpha", "h", "theta", "c", "d")
TOP_KEYS = PARAM_KEYS + ("output",)

# parameters every reproduce run is anchored to
_REFERENCE_PARAMS = dict(r=2.65, K=898.0, alpha=0.045, h=0.0437, theta=0.215, c=0.86, d=1.06)


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


def _parse_pair(text: str) -> tuple:
    """A start state 'x, y': finite, and no further out than a trajectory or
    an orbit may go before it counts as escaped."""
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(text)
    x, y = float(parts[0]), float(parts[1])
    if not (abs(x) <= ESCAPE_BOUND and abs(y) <= ESCAPE_BOUND):
        raise ValueError(text)
    return x, y


# what an error message says each parser expected
_EXPECTED = {
    float: "float",
    int: "int",
    _parse_bool: "bool",
    _parse_pair: f"pair of finite numbers within +-{ESCAPE_BOUND:g}",
}

# option key -> parser.  An unset option is None and takes the default of the
# library call it feeds; x0 defaults here, as pece_solve and iterate_orbit have none.
_OPTIONS = {
    "m": float,
    "step": float,
    "horizon": float,
    "x0": _parse_pair,
    "corrector_sweeps": int,
    "s": float,
    "iterations": int,
    "transient": int,
    "n_samples": int,
    "s_min": float,
    "s_max": float,
    "n_points": int,
    "follow": _parse_bool,
    "kick": float,
    "c_max": float,
    "c_points": int,
}

RunConfig = make_dataclass(
    "RunConfig",
    [("params", Optional[ModelParams]), ("mode", str), ("output", Optional[str], None)]
    + [(key, Any, DEFAULT_X0 if key == "x0" else None) for key in _OPTIONS],
    frozen=True,
)
RunConfig.__doc__ = "One CLI run: the model parameters, the mode and every option key."


# the one number format of every CSV cell: 15 significant digits
_NUMBER_FORMAT = "%.15g"
# rows of a float table that write_csv formats with one % call
_CHUNK_ROWS = 1024


def format_number(value: float) -> str:
    return _NUMBER_FORMAT % float(value)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if value is None:
        return "nan"
    return format_number(value)


def write_csv(path, columns, rows) -> None:
    """Write columns and rows as CSV.  A 2-D float ndarray takes one % call
    per _CHUNK_ROWS rows, its _NUMBER_FORMAT line repeated once per row, which
    gives the bytes of _format_cell; a list of rows goes cell by cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join([_NUMBER_FORMAT] * len(columns)) + "\n"
            for start in range(0, len(rows), _CHUNK_ROWS):
                chunk = rows[start : start + _CHUNK_ROWS]
                fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))
        else:
            for row in rows:
                fh.write(",".join(_format_cell(v) for v in row) + "\n")


# --- config parsing ---------------------------------------------------------


def _convert(key: str, text: str, lineno=None):
    """Parse one value; the model parameters are floats."""
    parser = _OPTIONS.get(key, float)
    try:
        return parser(text)
    except ValueError:
        where = f"line {lineno}: " if lineno is not None else ""
        raise ConfigError(
            f"{where}invalid value for '{key}': expected {_EXPECTED[parser]}, got '{text}'"
        ) from None


def _parse_raw(text: str):
    sections = {None: {}}  # None holds the top-level keys
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in MODES:
                raise ConfigError(f"line {lineno}: unknown section '[{name}]'")
            section = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None and key not in TOP_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if section is not None and key not in MODES[section].keys:
            raise ConfigError(f"line {lineno}: key '{key}' is not valid in section [{section}]")
        sections[section][key] = (value, lineno)
    return sections.pop(None), sections


def build_config(mode: str, top, sections, overrides) -> RunConfig:
    """Merge file values and parsed flag overrides into a RunConfig of mode.

    Only the parameters are checked here, by ModelParams; every other range
    is left to the library call it feeds.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}'")
    spec = MODES[mode]
    for key in PARAM_KEYS:
        if key in top and key not in spec.params:
            raise ConfigError(f"line {top[key][1]}: key '{key}' is not valid for mode {mode}")

    values = {key: _convert(key, *top[key]) for key in spec.params if key in top}
    for key, (text, lineno) in sections.get(mode, {}).items():
        values[key] = _convert(key, text, lineno)
    if "output" in top:
        values["output"] = top["output"][0]
    for key, val in overrides.items():
        if val is not None:
            values[key] = val

    for key in spec.params + spec.required:
        if key not in values:
            raise ConfigError(f"missing required key '{key}' for mode {mode}")
    try:
        params = ModelParams(**{k: values.pop(k) for k in spec.params}) if spec.params else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(params=params, mode=mode, **values)


def parse_config(source: str, mode: str) -> RunConfig:
    """Parse a config file's text for a run of mode (no flag overrides)."""
    top, sections = _parse_raw(source)
    return build_config(mode, top, sections, {})


# --- per-mode runners -------------------------------------------------------
# Each runner calls the library and write_csv through this module's globals,
# so that a binding swapped on the module is the one a run uses.


# row-name prefix of each equilibrium kind
_LABELS = {"trivial": "E0", "predator_free": "E1", "interior": "Estar"}


def _rows_equilibria(p: ModelParams, m: Optional[float]):
    rows = []
    for eq in equilibria(p):
        label = _LABELS[eq.kind]
        rows.append((f"{label}.exists", eq.exists))
        rows.append((f"{label}.x", eq.point[0] if eq.point else None))
        rows.append((f"{label}.y", eq.point[1] if eq.point else None))
    return rows


def _rows_stability(p: ModelParams, m: float):
    rows = []
    for rep in classify_equilibria(p, m):
        label = _LABELS[rep.equilibrium.kind]
        rows.append((f"{label}.classification", rep.classification))
        for i, lam in enumerate(rep.eigenvalues, start=1):
            rows.append((f"{label}.eig{i}_re", complex(lam).real))
            rows.append((f"{label}.eig{i}_im", complex(lam).imag))
        rows.append((f"{label}.valid_m_low", rep.valid_orders[0]))
        rows.append((f"{label}.valid_m_high", rep.valid_orders[1]))
        if rep.equilibrium.kind == "interior":
            rows.append(("Estar.m_star", rep.m_star))
    interior = equilibria(p)[2]
    if interior.exists:
        jac = jacobian(p, interior.point)
        rows.append(("Estar.trace", jac.trace))
        rows.append(("Estar.det", jac.det))
        rows.append(("Estar.m_star_reason", critical_order(p).reason))
    flags = global_stability_check(p)
    rows.append(("E1.globally_stable", flags.E1_global))
    rows.append(("Estar.globally_stable", flags.Estar_global))
    return rows


def _rows_thresholds(p: ModelParams, m: Optional[float]):
    th = thresholds(p)
    rows = [("c1", th.c1), ("theta1", th.theta1), ("c2", th.c2), ("theta2", th.theta2)]
    if m is not None:
        st = step_thresholds(p, m)
        rows += [((k, getattr(st, k))) for k in ("s1", "s2", "s3", "s4", "s5", "G", "H")]
    return rows


def _rows_normal_form(p: ModelParams, m: float):
    nf = hopf_normal_form(p, m)
    names = ("s4", "S1", "G", "H", "c11", "c12", "c21", "c22", "c13", "c23", "delta", "beta")
    rows = [(name, getattr(nf, name)) for name in names]
    lam = nf.lambda1
    rows += [("lambda_re", lam.real), ("lambda_im", lam.imag), ("lambda_modulus", abs(lam))]
    rows += [(name, getattr(nf, name)) for name in ("transversality", "nonresonance_ok", "gamma")]
    for name in ("xi11", "xi20", "xi02", "xi21"):
        val = getattr(nf, name)
        rows.append((f"{name}_re", val.real))
        rows.append((f"{name}_im", val.imag))
    return rows


def _name_value(default: str, rows: Callable) -> Callable:
    """Runner writing the (name, value) rows of a report on (params, m) to
    one CSV; m is None in a mode without it."""

    def runner(cfg: RunConfig) -> int:
        write_csv(cfg.output or default, ("name", "value"), rows(cfg.params, cfg.m))
        return 0

    return runner


def _given(cfg: RunConfig, *keys) -> dict:
    """The options among keys that the run set, as keyword arguments."""
    return {key: getattr(cfg, key) for key in keys if getattr(cfg, key) is not None}


def _series_job(path, p: ModelParams, x0, m: float, solver: SolverConfig) -> None:
    """Write the PECE series of the model at p from x0 at order m."""
    write_csv(path, *export_series(pece_solve(vector_field(p), x0, m, solver)))


def _run_simulate(cfg: RunConfig) -> int:
    solver = SolverConfig(step=cfg.step, horizon=cfg.horizon, **_given(cfg, "corrector_sweeps"))
    _series_job(cfg.output or "simulate.csv", cfg.params, cfg.x0, cfg.m, solver)
    return 0


def _run_discrete(cfg: RunConfig) -> int:
    orbit = iterate_orbit(cfg.params, DiscreteConfig(s=cfg.s, m=cfg.m, iterations=cfg.iterations), cfg.x0)
    write_csv(cfg.output or "discrete.csv", *export_series(orbit))
    if orbit.escaped:
        print(f"numerical escape after {len(orbit.states) - 1} iterations", file=sys.stderr)
        return 3
    return 0


def _sweep_job(path, p: ModelParams, m: float, s_min: float, s_max: float, n_points: int, options: dict):
    """Write the map's step-size sweep of p at order m, n_points steps over
    [s_min, s_max] with options passed on, as (param, x, y) rows; return it."""
    result = sweep_step_size(p, m, s_min, s_max, n_points, **options)
    counts = [len(block) for block in result.samples]
    rows = np.column_stack((np.repeat(result.parameter_values, counts), np.concatenate(result.samples)))
    write_csv(path, ("param", "x", "y"), rows)
    return result


def _run_sweep(cfg: RunConfig) -> int:
    result = _sweep_job(cfg.output or "sweep.csv", cfg.params, cfg.m, cfg.s_min, cfg.s_max, cfg.n_points,
                        _given(cfg, "x0", "transient", "n_samples", "follow", "kick"))
    for value, escaped in zip(result.parameter_values, result.escaped):
        if escaped:
            print(f"orbit escaped at s={value:g}", file=sys.stderr)
    for event in result.events:
        print(f"event: {event.kind} of {event.equilibrium} at s={event.s:.6g}")
    return 0


def _region_job(path, p: ModelParams, c_max: float, c_points: int):
    """Write the (c, m*) boundary of p over c_points complexities from the c
    of p to c_max, and return it."""
    result = stability_region_cm(p, c_max, c_points)
    write_csv(path, ("c", "m_star"), result.points)
    return result


def _run_region(cfg: RunConfig) -> int:
    result = _region_job(cfg.output or "region.csv", cfg.params, cfg.c_max, cfg.c_points)
    for c, reason in result.skipped:
        print(f"skipped c={c:g}: {reason}", file=sys.stderr)
    return 0


# --- reproduce --------------------------------------------------------------

# reference values the reproduce report compares against
_REFERENCE_SCALARS = (
    ("c1", 0.8445),
    ("theta1", 0.0726),
    ("c2", 0.1227),
    ("theta2", 0.1673),
    ("x_star_c045", 253.9056),
    ("y_star_c045", 97.8867),
    ("trace_interior_c045", -0.3398),
    ("trace_interior_c005", 0.0437),
    ("two_sqrt_det_c005", 2.7152),
    ("m_star_c005", 0.9898),
    ("lambda_re", 0.9635),
    ("lambda_im", 0.2678),
    ("lambda_modulus", 1.0),
    ("transversality", 0.1699),
    ("gamma", -1.9961e-8),
    ("flip_eig1", -1.0),
    ("flip_eig2", 1.0),
)

_REFERENCE_STEP_TABLE = (
    (0.3, 0.2729, 26269.0, 0.0041, 256.7923),
    (0.4, 0.3669, 2005.2, 0.0159, 62.3401),
    (0.6, 0.5186, 160.8894, 0.0639, 15.9072),
    (0.8, 0.6436, 47.5805, 0.1339, 8.3894),
    (0.95, 0.7279, 27.2757, 0.1940, 6.3253),
)


# (relative, absolute) tolerance of each row family of the reproduce gate, as
# tests/test_acceptance.py applies them: restated so the tests stay an
# independent check.  The 10 % on the nonzero gamma also forces its sign.
SCALAR_TOL = (0.0, 5e-4)
GAMMA_TOL = (0.10, 0.0)
STEP_TOL = (5e-3, 5e-4)


def _within(expected: float, value: float, tol: tuple) -> bool:
    """Whether value lies within max(rel |expected|, abs) of expected, for
    tol = (rel, abs); NaN never does."""
    rel, abs_tol = tol
    return abs(value - expected) <= max(rel * abs(expected), abs_tol)


def _reproduce_jobs(outdir: Path, p86: ModelParams, p45: ModelParams, p05: ModelParams) -> list:
    """The file-writing analyses of reproduce as (job, path, *arguments),
    longest first, so that the last job a process takes is a short one."""
    start = np.array(interior_point(p05)) + 1.0
    solver = {horizon: SolverConfig(step=0.05, horizon=horizon) for horizon in (80.0, 150.0, 300.0)}
    predator_free = [
        (_series_job, outdir / f"predator_free_series_m{int(round(m * 100)):03d}.csv",
         p86, DEFAULT_X0, m, solver[80.0])
        for m in (0.8, 0.95, 1.0)
    ]
    sweep = dict(transient=3000, n_samples=120, kick=1e-3)
    return [
        (_sweep_job, outdir / "interior_sweep.csv", p45, 0.95, 0.10, 0.55, 31, sweep),
        (_series_job, outdir / "order_stable_series.csv", p05, start, 0.95, solver[300.0]),
        (_series_job, outdir / "order_unstable_series.csv", p05, start, 0.995, solver[300.0]),
        (_sweep_job, outdir / "predator_free_sweep.csv", p86, 0.95, 0.60, 0.85, 31, sweep),
        (_series_job, outdir / "interior_series_m090.csv", p45, DEFAULT_X0, 0.9, solver[150.0]),
        *predator_free,
        (_region_job, outdir / "stability_region.csv", replace(p05, c=0.005), 0.12, 24),
    ]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


def _take_jobs(jobs: list, queue: int):
    """Run the jobs whose indices this process reads from queue, one byte a
    job, until the queue is empty.  Returns None, or (index, exception) of
    the job that failed, after reading the rest of the queue: no process
    starts a further job."""
    while ticket := os.read(queue, 1):
        job = jobs[ticket[0]]
        try:
            job[0](*job[1:])
        except Exception as exc:
            while os.read(queue, 256):
                pass
            return ticket[0], exc
    return None


def _report(index: int, exc: Exception) -> bytes:
    """(index, exc) pickled.  An exception that does not survive the round
    trip goes as a RuntimeError naming it, so that run() still ends the run
    with one line."""
    try:
        report = pickle.dumps((index, exc))
        pickle.loads(report)
        return report
    except Exception:
        return pickle.dumps((index, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _work(jobs: list, queue: int, report_fd: int) -> None:
    """A forked child: take jobs from queue, write the failure, if any, to
    report_fd, and end in os._exit, never returning into the caller's stack."""
    code = 1
    try:
        failure = _take_jobs(jobs, queue)
        with open(report_fd, "wb") as report:
            if failure is not None:
                report.write(_report(*failure))
        code = 0
    finally:
        os._exit(code)


def _run_jobs(jobs: list) -> None:
    """Run every (job, *arguments) of jobs, a table of at most 256.

    This process, and where os.fork exists one forked child per further
    usable CPU up to one process a job, take job indices in table order
    from one pipe, a byte each: with one usable CPU or no os.fork, this
    process alone.  A process whose job fails empties the pipe, so no
    further job starts; a child sends its failure, pickled, on a pipe of
    its own.  Once every child has reported and exited, the failure with
    the lowest table index is raised here, the job's own exception; a child
    that ended without a report raises RuntimeError, ranked after every
    reported failure, since the job it ran is unknown.  A child inherits
    this process's modules and imports nothing.
    """
    queue, tickets = os.pipe()
    os.write(tickets, bytes(range(len(jobs))))
    os.close(tickets)
    forks = min(len(jobs), _usable_cpus()) - 1 if hasattr(os, "fork") else 0
    children, failures = [], []
    try:
        for _ in range(forks):
            report, report_end = os.pipe()
            with warnings.catch_warnings():
                # from Python 3.12 on os.fork warns whenever the process has
                # threads, numpy's BLAS pool among them, and shows it when
                # called from __main__ (python -m fracprey.cli).  A child runs
                # only jobs and ends in os._exit, as a multiprocessing fork
                # worker does, whose fork hides the warning by default.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _work(jobs, queue, report_end)
            os.close(report_end)
            children.append((pid, report))
        failures.append(_take_jobs(jobs, queue))
    finally:
        while os.read(queue, 256):
            pass
        os.close(queue)
        for pid, report in children:
            with open(report, "rb") as pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if sent:
                failures.append(pickle.loads(sent))
            elif code:
                error = RuntimeError(f"a job process ended without a report, exit code {code}")
                failures.append((len(jobs), error))
    failures = [failure for failure in failures if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _reference_summary(outdir: Path, p86: ModelParams, p45: ModelParams, p05: ModelParams):
    """The (name, expected, computed, |diff|) summary rows and whether each
    is within its tolerance; writes the step-size table."""
    # the report rows of the thresholds and normal-form modes hold c1 .. theta2,
    # lambda_re .. lambda_modulus, transversality and gamma
    computed = dict(_rows_thresholds(p86, None) + _rows_normal_form(p45, 0.95))
    x_star, y_star = interior_point(p45)
    computed["x_star_c045"] = x_star
    computed["y_star_c045"] = y_star
    computed["trace_interior_c045"] = jacobian(p45, (x_star, y_star)).trace
    jac05 = jacobian(p05, interior_point(p05))
    computed["trace_interior_c005"] = jac05.trace
    computed["two_sqrt_det_c005"] = 2.0 * math.sqrt(jac05.det)
    computed["m_star_c005"] = critical_order(p05).value
    at_c1 = replace(p86, c=computed["c1"])
    st_c1 = step_thresholds(at_c1, 0.95)
    flip = classify_fixed_points(at_c1, st_c1.s5, 0.95)[1]
    computed["flip_eig1"] = min(e.real for e in flip.eigenvalues)
    computed["flip_eig2"] = max(e.real for e in flip.eigenvalues)

    summary, passed = [], []
    for name, expected in _REFERENCE_SCALARS:
        value = computed[name]
        summary.append((name, expected, value, abs(value - expected)))
        passed.append(_within(expected, value, GAMMA_TOL if name == "gamma" else SCALAR_TOL))

    table_rows = []
    for m, *references in _REFERENCE_STEP_TABLE:
        st86 = step_thresholds(p86, m)
        st45 = step_thresholds(p45, m)
        steps = (st86.s2, st86.s3, st45.s4, st45.s5)
        table_rows.append((m, *steps))
        for name, expected, value in zip(("s2", "s3", "s4", "s5"), references, steps):
            summary.append((f"{name}_m{m:g}", expected, value, abs(value - expected)))
            passed.append(_within(expected, value, STEP_TOL))
    write_csv(outdir / "step_size_table.csv", ("m", "s2", "s3", "s4", "s5"), table_rows)
    return summary, passed


def _run_reproduce(cfg: RunConfig) -> int:
    """Re-run the reference analyses into a timestamped directory under
    cfg.output; exit 3 when a summary row misses its reference value."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    outdir = Path(cfg.output or ".") / f"reproduce-{stamp}"
    # an earlier run in the same second owns this directory: fail, never overwrite
    outdir.mkdir(parents=True, exist_ok=False)

    p86 = ModelParams(**_REFERENCE_PARAMS)
    p45 = replace(p86, c=0.45)
    p05 = replace(p86, c=0.05)
    summary, passed = _reference_summary(outdir, p86, p45, p05)
    _run_jobs(_reproduce_jobs(outdir, p86, p45, p05))

    write_csv(outdir / "summary.csv", ("name", "expected", "computed", "abs_diff"), summary)
    width = max(len(name) for name, *_ in summary)
    print(f"reproduction written to {outdir}")
    for (name, expected, value, diff), ok in zip(summary, passed):
        print(f"  {name:<{width}}  expected {expected:>14.6g}  computed {value:>14.6g}  "
              f"|diff| {diff:<9.3g}  {'PASS' if ok else 'FAIL'}")
    failed = [name for (name, *_), ok in zip(summary, passed) if not ok]
    if failed:
        print(f"reproduce: {len(failed)} of {len(summary)} summary rows outside tolerance: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


class _Mode(NamedTuple):
    """A mode's runner, the option keys it reads, the required first, and
    the model parameters it reads (reproduce runs on its own reference set)."""
    runner: Callable[[RunConfig], int]
    required: tuple = ()
    optional: tuple = ()
    params: tuple = PARAM_KEYS

    @property
    def keys(self) -> tuple:
        return self.required + self.optional


MODES = {
    "simulate": _Mode(_run_simulate, ("m", "step", "horizon"), ("x0", "corrector_sweeps")),
    "equilibria": _Mode(_name_value("equilibria.csv", _rows_equilibria)),
    "stability": _Mode(_name_value("stability.csv", _rows_stability), ("m",)),
    "thresholds": _Mode(_name_value("thresholds.csv", _rows_thresholds), optional=("m",)),
    "discrete": _Mode(_run_discrete, ("m", "s", "iterations"), ("x0",)),
    "normal-form": _Mode(_name_value("normal_form.csv", _rows_normal_form), ("m",)),
    "sweep": _Mode(
        _run_sweep,
        ("m", "s_min", "s_max", "n_points"),
        ("transient", "n_samples", "x0", "follow", "kick"),
    ),
    "region": _Mode(_run_region, ("c_max", "c_points")),
    "reproduce": _Mode(_run_reproduce, params=()),
}


def run(cfg: RunConfig) -> int:
    """Run the mode of a RunConfig; returns the process exit code."""
    try:
        return MODES[cfg.mode].runner(cfg)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # a library validator (SolverConfig, DiscreteConfig, a size budget,
        # the normal-form preconditions) rejected the input
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverDivergenceError as exc:
        # a simulate run or a reproduce series left ESCAPE_BOUND
        print(f"numerical escape: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        # a numerical self-check failed at valid parameters, such as a
        # bifurcation's Jury residual beyond its rounding bound
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 3


# --- argument parsing -------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracprey",
        description="Fractional-order predator-prey dynamics with habitat complexity",
    )
    subparsers = parser.add_subparsers(dest="mode", required=True)
    for mode, spec in MODES.items():
        sub = subparsers.add_parser(mode, help=f"{mode} analysis", allow_abbrev=False)
        sub.add_argument("--config", help="path to a key = value config file")
        sub.add_argument("--output", help="output CSV path (reproduce: base directory)")
        for key in spec.params + spec.keys:
            is_bool = _OPTIONS.get(key) is _parse_bool
            action = argparse.BooleanOptionalAction if is_bool else "store"
            sub.add_argument(f"--{key.replace('_', '-')}", dest=key, action=action)
    args = parser.parse_args(argv)

    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from None
        top, sections = _parse_raw(text)

        overrides = {"output": args.output}
        spec = MODES[args.mode]
        for key in spec.params + spec.keys:
            value = getattr(args, key)
            # --follow/--no-follow arrive as bools, every other flag as text
            overrides[key] = value if value is None or isinstance(value, bool) else _convert(key, value)
        cfg = build_config(args.mode, top, sections, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
