"""Command-line surface.

Subcommands map one-to-one onto the library operations; parameters come from
a `key = value` config file (with `#` comments and one optional `[mode]`
section per mode) overridden by flags of the same name.  All numeric output
is CSV (UTF-8, LF, '.' decimal separator, 15 significant digits).

Two tables drive the layer: _OPTIONS gives each option key its parser,
MODES gives each mode its runner and its required and optional keys.
Defaults are the library's own: a runner passes on only the options a run
set.  Besides the order m, checked as soon as the config is read, the CLI
checks only the values it builds itself: the x0 bound and the region grid's
count, budget and finite ends.  Every other range check is the library's,
and a ValueError the library raises ends the run like a malformed config
does.

Exit codes: 0 success, 2 config/domain error, 3 numerical escape, a failed
numerical check or a `reproduce` summary row outside its tolerance, 4
unwritable output path.
"""

import argparse
import math
import sys
import time
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
from .pece import ESCAPE_BOUND, SolverConfig, SolverDivergenceError, _check_budget, pece_solve
from .special import _check_order
from .stability import classify_equilibria, critical_order, global_stability_check

__all__ = ["ConfigError", "RunConfig", "main", "parse_config", "run"]

PARAM_KEYS = ("r", "K", "alpha", "h", "theta", "c", "d")
TOP_KEYS = PARAM_KEYS + ("mode", "output")

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
    "c_min": float,
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


def _sweep_rows(result) -> np.ndarray:
    """(param, x, y) float table of a step-size sweep."""
    counts = [len(block) for block in result.samples]
    return np.column_stack((np.repeat(result.parameter_values, counts), np.concatenate(result.samples)))


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


def build_config(top, sections, overrides) -> RunConfig:
    """Merge file values and parsed flag overrides into a RunConfig.

    Beyond the parameters, which ModelParams validates, only the order m is
    checked here; every other range is left to the library call it feeds.
    """
    mode = overrides.get("mode")
    if mode is None and "mode" in top:
        mode = top["mode"][0]
    if mode is None:
        raise ConfigError("missing required key 'mode'")
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
        if key != "mode" and val is not None:
            values[key] = val

    for key in spec.params + spec.required:
        if key not in values:
            raise ConfigError(f"missing required key '{key}' for mode {mode}")
    try:
        params = ModelParams(**{k: values.pop(k) for k in spec.params}) if spec.params else None
        if "m" in values:
            _check_order(values["m"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(params=params, mode=mode, **values)


def parse_config(source: str) -> RunConfig:
    """Parse a config file's text (no flag overrides)."""
    top, sections = _parse_raw(source)
    return build_config(top, sections, {})


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


def _run_simulate(cfg: RunConfig) -> int:
    solver = SolverConfig(step=cfg.step, horizon=cfg.horizon, **_given(cfg, "corrector_sweeps"))
    try:
        traj = pece_solve(vector_field(cfg.params), cfg.x0, cfg.m, solver)
    except SolverDivergenceError as exc:
        print(f"numerical escape: {exc}", file=sys.stderr)
        return 3
    write_csv(cfg.output or "simulate.csv", *export_series(traj))
    return 0


def _run_discrete(cfg: RunConfig) -> int:
    orbit_cfg = DiscreteConfig(s=cfg.s, m=cfg.m, iterations=cfg.iterations, **_given(cfg, "transient"))
    orbit = iterate_orbit(cfg.params, orbit_cfg, cfg.x0)
    write_csv(cfg.output or "discrete.csv", *export_series(orbit))
    if orbit.escaped:
        print(f"numerical escape after {len(orbit.states) - 1} iterations", file=sys.stderr)
        return 3
    return 0


def _run_sweep(cfg: RunConfig) -> int:
    result = sweep_step_size(
        cfg.params,
        cfg.m,
        cfg.s_min,
        cfg.s_max,
        cfg.n_points,
        x0=cfg.x0,
        **_given(cfg, "transient", "n_samples", "follow", "kick"),
    )
    for value, escaped in zip(result.parameter_values, result.escaped):
        if escaped:
            print(f"orbit escaped at s={value:g}", file=sys.stderr)
    write_csv(cfg.output or "sweep.csv", ("param", "x", "y"), _sweep_rows(result))
    for event in result.events:
        print(f"event: {event.kind} of {event.equilibrium} at s={event.s:.6g}")
    return 0


def _run_region(cfg: RunConfig) -> int:
    if cfg.c_points < 1:
        raise ValueError(f"c_points must be >= 1, got {cfg.c_points!r}")
    _check_budget(cfg.c_points, f"region grid of {cfg.c_points} points")
    for key in ("c_min", "c_max"):
        if not math.isfinite(getattr(cfg, key)):
            raise ValueError(f"region grid end {key} must be finite, got {getattr(cfg, key)!r}")
    grid = np.linspace(cfg.c_min, cfg.c_max, cfg.c_points)
    result = stability_region_cm(cfg.params, grid)
    for c, reason in result.skipped:
        print(f"skipped c={c:g}: {reason}", file=sys.stderr)
    write_csv(cfg.output or "region.csv", ("c", "m_star"), result.points)
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

    for m in (0.8, 0.95, 1.0):
        traj = pece_solve(vector_field(p86), DEFAULT_X0, m, SolverConfig(step=0.05, horizon=80.0))
        write_csv(outdir / f"predator_free_series_m{int(round(m * 100)):03d}.csv", *export_series(traj))
    traj = pece_solve(vector_field(p45), DEFAULT_X0, 0.9, SolverConfig(step=0.05, horizon=150.0))
    write_csv(outdir / "interior_series_m090.csv", *export_series(traj))

    start = np.array(interior_point(p05)) + 1.0
    for tag, m in (("stable", 0.95), ("unstable", 0.995)):
        traj = pece_solve(vector_field(p05), start, m, SolverConfig(step=0.05, horizon=300.0))
        write_csv(outdir / f"order_{tag}_series.csv", *export_series(traj))

    region = stability_region_cm(p05, np.linspace(0.005, 0.12, 24))
    write_csv(outdir / "stability_region.csv", ("c", "m_star"), region.points)

    for name, pset, lo, hi in (
        ("interior_sweep", p45, 0.10, 0.55),
        ("predator_free_sweep", p86, 0.60, 0.85),
    ):
        sweep = sweep_step_size(pset, 0.95, lo, hi, 31, transient=3000, n_samples=120, kick=1e-3)
        write_csv(outdir / f"{name}.csv", ("param", "x", "y"), _sweep_rows(sweep))

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
    "discrete": _Mode(_run_discrete, ("m", "s", "iterations"), ("transient", "x0")),
    "normal-form": _Mode(_name_value("normal_form.csv", _rows_normal_form), ("m",)),
    "sweep": _Mode(
        _run_sweep,
        ("m", "s_min", "s_max", "n_points"),
        ("transient", "n_samples", "x0", "follow", "kick"),
    ),
    "region": _Mode(_run_region, ("c_min", "c_max", "c_points")),
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
    except RuntimeError as exc:
        # a numerical self-check failed at valid parameters, such as a
        # bifurcation's Jury residual above 1e-8 when 1 - c1 keeps few digits
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

        overrides = {"mode": args.mode, "output": args.output}
        spec = MODES[args.mode]
        for key in spec.params + spec.keys:
            value = getattr(args, key)
            # --follow/--no-follow arrive as bools, every other flag as text
            overrides[key] = value if value is None or isinstance(value, bool) else _convert(key, value)
        cfg = build_config(top, sections, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
