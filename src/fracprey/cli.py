"""Command-line surface.

Subcommands map one-to-one onto the library operations; parameters come from
a `key = value` config file (with `#` comments and one optional `[mode]`
section per mode) overridden by flags of the same name.  All numeric output
is CSV (UTF-8, LF, '.' decimal separator, 15 significant digits); plots are
an optional convenience on top of the CSV files.

Exit codes: 0 success, 2 config/domain error, 3 numerical escape or a
`reproduce` summary row outside its tolerance, 4 unwritable output path.
"""

import argparse
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .bifurcation import export_series, stability_region_cm, sweep_step_size
from .discrete import (
    DiscreteConfig,
    classify_fixed_points,
    hopf_normal_form,
    iterate_orbit,
    step_thresholds,
)
from .model import ModelParams, ParameterError, equilibria, jacobian, thresholds, vector_field
from .pece import SolverConfig, SolverDivergenceError, pece_solve
from .stability import classify_equilibria, critical_order, global_stability_check

__all__ = ["ConfigError", "RunConfig", "main", "parse_config", "run"]

PARAM_KEYS = ("r", "K", "alpha", "h", "theta", "c", "d")
TOP_KEYS = PARAM_KEYS + ("mode", "output", "seed")

# key -> (converter tag, constraint text or None)
_OPTION_SPEC = {
    "m": ("float", "0 < m <= 1"),
    "step": ("float", "step > 0"),
    "horizon": ("float", "horizon >= step"),
    "x0": ("pair", None),
    "corrector_sweeps": ("int", "corrector_sweeps >= 1"),
    "s": ("float", "s > 0"),
    "iterations": ("int", "iterations >= 1"),
    "transient": ("int", "transient >= 0"),
    "n_samples": ("int", "n_samples >= 1"),
    "s_min": ("float", "s_min > 0"),
    "s_max": ("float", "s_max > s_min"),
    "n_points": ("int", "n_points >= 2"),
    "follow": ("bool", None),
    "kick": ("float", None),
    "c_min": ("float", None),
    "c_max": ("float", None),
    "c_points": ("int", "c_points >= 1"),
    "tolerance": ("float", "tolerance > 0"),
}

MODE_OPTION_KEYS = {
    "simulate": ("m", "step", "horizon", "x0", "corrector_sweeps"),
    "equilibria": (),
    "stability": ("m",),
    "thresholds": ("m",),
    "discrete": ("m", "s", "iterations", "transient", "x0"),
    "normal-form": ("m",),
    "sweep": ("m", "s_min", "s_max", "n_points", "transient", "n_samples", "x0", "follow", "kick"),
    "region": ("c_min", "c_max", "c_points", "tolerance"),
    "reproduce": (),
}

_REQUIRED = {
    "simulate": ("m", "step", "horizon"),
    "stability": ("m",),
    "discrete": ("m", "s", "iterations"),
    "normal-form": ("m",),
    "sweep": ("m", "s_min", "s_max", "n_points"),
    "region": ("c_min", "c_max", "c_points"),
}

# parameters every reproduce run is anchored to
_REFERENCE_PARAMS = dict(r=2.65, K=898.0, alpha=0.045, h=0.0437, theta=0.215, c=0.86, d=1.06)


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


@dataclass(frozen=True)
class RunConfig:
    params: Optional[ModelParams]
    mode: str
    output: Optional[str] = None
    seed: int = 0
    m: Optional[float] = None
    step: Optional[float] = None
    horizon: Optional[float] = None
    x0: tuple = (10.0, 5.0)
    corrector_sweeps: int = 1
    s: Optional[float] = None
    iterations: Optional[int] = None
    transient: Optional[int] = None
    n_samples: int = 200
    s_min: Optional[float] = None
    s_max: Optional[float] = None
    n_points: Optional[int] = None
    follow: bool = True
    kick: float = 0.0
    c_min: Optional[float] = None
    c_max: Optional[float] = None
    c_points: Optional[int] = None
    tolerance: float = 1e-9
    plot: bool = False


def format_number(value: float) -> str:
    return f"{float(value):.15g}"


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if value is None:
        return "nan"
    return format_number(value)


def write_csv(path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


# --- config parsing ---------------------------------------------------------


def _convert(key: str, text: str, lineno=None):
    where = f"line {lineno}: " if lineno is not None else ""
    tag, _ = _OPTION_SPEC.get(key, ("float", None))
    if key in PARAM_KEYS or key == "kick" or key == "tolerance":
        tag = "float"
    if key == "seed":
        tag = "int"
    if key in ("mode", "output"):
        return text
    try:
        if tag == "float":
            return float(text)
        if tag == "int":
            return int(text)
        if tag == "bool":
            low = text.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if tag == "pair":
            parts = [t for t in text.replace(",", " ").split() if t]
            if len(parts) != 2:
                raise ValueError(text)
            return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError(
            f"{where}invalid value for '{key}': expected {tag}, got '{text}'"
        ) from None
    raise ConfigError(f"{where}unknown key '{key}'")


def _parse_raw(text: str):
    top = {}
    sections = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in MODE_OPTION_KEYS:
                raise ConfigError(f"line {lineno}: unknown section '[{name}]'")
            section = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            if key not in TOP_KEYS:
                raise ConfigError(f"line {lineno}: unknown key '{key}'")
            top[key] = (value, lineno)
        else:
            if key not in MODE_OPTION_KEYS[section]:
                raise ConfigError(
                    f"line {lineno}: key '{key}' is not valid in section [{section}]"
                )
            sections[section][key] = (value, lineno)
    return top, sections


def _check_ranges(cfg: RunConfig) -> None:
    def fail(name, constraint, value):
        raise ConfigError(f"'{name}' must satisfy {constraint}, got {value!r}")

    if cfg.m is not None and not 0.0 < cfg.m <= 1.0:
        fail("m", "0 < m <= 1", cfg.m)
    if cfg.step is not None and not cfg.step > 0:
        fail("step", "step > 0", cfg.step)
    if cfg.horizon is not None and cfg.step is not None and cfg.horizon < cfg.step:
        fail("horizon", "horizon >= step", cfg.horizon)
    if cfg.s is not None and not cfg.s > 0:
        fail("s", "s > 0", cfg.s)
    if cfg.iterations is not None and cfg.iterations < 1:
        fail("iterations", "iterations >= 1", cfg.iterations)
    if cfg.transient is not None and cfg.transient < 0:
        fail("transient", "transient >= 0", cfg.transient)
    if cfg.n_samples < 1:
        fail("n_samples", "n_samples >= 1", cfg.n_samples)
    if cfg.corrector_sweeps < 1:
        fail("corrector_sweeps", "corrector_sweeps >= 1", cfg.corrector_sweeps)
    if cfg.s_min is not None and not cfg.s_min > 0:
        fail("s_min", "s_min > 0", cfg.s_min)
    if cfg.s_min is not None and cfg.s_max is not None and not cfg.s_max > cfg.s_min:
        fail("s_max", "s_max > s_min", cfg.s_max)
    if cfg.n_points is not None and cfg.n_points < 2:
        fail("n_points", "n_points >= 2", cfg.n_points)
    if cfg.c_points is not None and cfg.c_points < 1:
        fail("c_points", "c_points >= 1", cfg.c_points)
    if not cfg.tolerance > 0:
        fail("tolerance", "tolerance > 0", cfg.tolerance)


def build_config(top, sections, overrides) -> RunConfig:
    """Merge file values and flag overrides into a validated RunConfig."""
    mode = overrides.get("mode")
    if mode is None and "mode" in top:
        mode = top["mode"][0]
    if mode is None:
        raise ConfigError("missing required key 'mode'")
    if mode not in MODE_OPTION_KEYS:
        raise ConfigError(f"unknown mode '{mode}'")

    values = {}
    for key in PARAM_KEYS + ("seed",):
        if key in top:
            values[key] = _convert(key, *top[key])
    for key, (text, lineno) in sections.get(mode, {}).items():
        values[key] = _convert(key, text, lineno)
    if "output" in top:
        values["output"] = top["output"][0]
    for key, val in overrides.items():
        if key != "mode" and val is not None:
            values[key] = val

    if mode == "reproduce":
        param_values = {k: values.pop(k, _REFERENCE_PARAMS[k]) for k in PARAM_KEYS}
    else:
        missing = [k for k in PARAM_KEYS if k not in values]
        if missing:
            raise ConfigError(f"missing required key '{missing[0]}'")
        param_values = {k: values.pop(k) for k in PARAM_KEYS}
    try:
        params = ModelParams(**param_values)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None

    for key in _REQUIRED.get(mode, ()):
        if key not in values:
            raise ConfigError(f"missing required key '{key}' for mode {mode}")

    cfg = RunConfig(params=params, mode=mode, **values)
    _check_ranges(cfg)
    return cfg


def parse_config(source: str) -> RunConfig:
    """Parse and validate a config file's text (no flag overrides)."""
    top, sections = _parse_raw(source)
    return build_config(top, sections, {})


# --- per-mode runners -------------------------------------------------------


def _out_path(cfg: RunConfig, default: str) -> str:
    return cfg.output if cfg.output else default


def _maybe_plot(cfg: RunConfig, columns, rows, csv_path) -> None:
    if not cfg.plot:
        return
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plotting requested but matplotlib is not installed", file=sys.stderr)
        return
    data = np.array([[float(v) for v in row] for row in rows]) if rows else np.empty((0, len(columns)))
    fig, ax = plt.subplots(figsize=(7, 4.5))
    if data.size:
        if len(columns) == 3:
            ax.plot(data[:, 0], data[:, 1], ".", ms=2, label=columns[1])
            ax.plot(data[:, 0], data[:, 2], ".", ms=2, label=columns[2])
            ax.legend()
        else:
            ax.plot(data[:, 0], data[:, 1], ".", ms=2)
        ax.set_xlabel(columns[0])
        ax.set_ylabel(",".join(columns[1:]))
    fig.tight_layout()
    fig.savefig(str(Path(csv_path).with_suffix(".png")), dpi=130)
    plt.close(fig)


def _rows_equilibria(p: ModelParams):
    rows = []
    for eq in equilibria(p):
        label = {"trivial": "E0", "predator_free": "E1", "interior": "Estar"}[eq.kind]
        rows.append((f"{label}.exists", eq.exists))
        rows.append((f"{label}.x", eq.point[0] if eq.point else None))
        rows.append((f"{label}.y", eq.point[1] if eq.point else None))
    return rows


def _rows_stability(p: ModelParams, m: float):
    rows = []
    for rep in classify_equilibria(p, m):
        label = {"trivial": "E0", "predator_free": "E1", "interior": "Estar"}[rep.equilibrium.kind]
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
    rows = [
        ("s4", nf.s4),
        ("S1", nf.S1),
        ("G", nf.G),
        ("H", nf.H),
        ("c11", nf.c11),
        ("c12", nf.c12),
        ("c21", nf.c21),
        ("c22", nf.c22),
        ("c13", nf.c13),
        ("c23", nf.c23),
        ("delta", nf.delta),
        ("beta", nf.beta),
        ("lambda_re", nf.lambda1.real),
        ("lambda_im", nf.lambda1.imag),
        ("lambda_modulus", abs(nf.lambda1)),
        ("transversality", nf.transversality),
        ("nonresonance_ok", nf.nonresonance_ok),
        ("gamma", nf.gamma),
    ]
    for name in ("xi11", "xi20", "xi02", "xi21"):
        val = getattr(nf, name)
        rows.append((f"{name}_re", val.real))
        rows.append((f"{name}_im", val.imag))
    return rows


def run(cfg: RunConfig) -> int:
    """Dispatch a validated RunConfig; returns the process exit code."""
    try:
        if cfg.mode == "simulate":
            solver = SolverConfig(
                step=cfg.step,
                horizon=cfg.horizon,
                corrector_sweeps=cfg.corrector_sweeps,
            )
            path = _out_path(cfg, "simulate.csv")
            try:
                traj = pece_solve(vector_field(cfg.params), cfg.x0, cfg.m, solver)
            except SolverDivergenceError as exc:
                print(f"numerical escape: {exc}", file=sys.stderr)
                return 3
            ds = export_series(traj)
            write_csv(path, ds.columns, ds.rows)
            _maybe_plot(cfg, ds.columns, ds.rows, path)

        elif cfg.mode == "equilibria":
            write_csv(_out_path(cfg, "equilibria.csv"), ("name", "value"), _rows_equilibria(cfg.params))

        elif cfg.mode == "stability":
            write_csv(_out_path(cfg, "stability.csv"), ("name", "value"), _rows_stability(cfg.params, cfg.m))

        elif cfg.mode == "thresholds":
            write_csv(_out_path(cfg, "thresholds.csv"), ("name", "value"), _rows_thresholds(cfg.params, cfg.m))

        elif cfg.mode == "discrete":
            orbit = iterate_orbit(
                cfg.params,
                DiscreteConfig(s=cfg.s, m=cfg.m, iterations=cfg.iterations, transient=cfg.transient or 0),
                cfg.x0,
            )
            ds = export_series(orbit)
            path = _out_path(cfg, "discrete.csv")
            write_csv(path, ds.columns, ds.rows)
            _maybe_plot(cfg, ds.columns, ds.rows, path)
            if orbit.escaped:
                print(f"numerical escape after {len(orbit.states) - 1} iterations", file=sys.stderr)
                return 3

        elif cfg.mode == "normal-form":
            rows = _rows_normal_form(cfg.params, cfg.m)
            write_csv(_out_path(cfg, "normal_form.csv"), ("name", "value"), rows)

        elif cfg.mode == "sweep":
            result = sweep_step_size(
                cfg.params,
                cfg.m,
                cfg.s_min,
                cfg.s_max,
                cfg.n_points,
                transient=cfg.transient if cfg.transient is not None else 2000,
                n_samples=cfg.n_samples,
                x0=cfg.x0,
                follow=cfg.follow,
                kick=cfg.kick,
            )
            rows = []
            for value, block, escaped in zip(result.parameter_values, result.samples, result.escaped):
                for state in block:
                    rows.append((float(value), float(state[0]), float(state[1])))
                if escaped:
                    print(f"orbit escaped at s={value:g}", file=sys.stderr)
            path = _out_path(cfg, "sweep.csv")
            write_csv(path, ("param", "x", "y"), rows)
            _maybe_plot(cfg, ("param", "x", "y"), rows, path)
            for event in result.events:
                print(f"event: {event.kind} of {event.equilibrium} at s={event.s:.6g}")

        elif cfg.mode == "region":
            grid = np.linspace(cfg.c_min, cfg.c_max, cfg.c_points)
            result = stability_region_cm(cfg.params, grid, tolerance=cfg.tolerance)
            for c, reason in result.skipped:
                print(f"skipped c={c:g}: {reason}", file=sys.stderr)
            path = _out_path(cfg, "region.csv")
            write_csv(path, ("c", "m_star"), result.points)
            _maybe_plot(cfg, ("c", "m_star"), result.points, path)

        elif cfg.mode == "reproduce":
            return _reproduce(cfg.output)

        else:  # pragma: no cover - build_config rejects unknown modes
            raise ConfigError(f"unknown mode '{cfg.mode}'")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # library validators (e.g. DiscreteConfig, the normal-form
        # preconditions) reject what build_config let through
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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


# tolerances of the reproduce gate: the ones tests/test_acceptance.py applies,
# restated here so that the tests stay an independent check of the values
SCALAR_ABS_TOL = 5e-4
GAMMA_REL_TOL = 0.10
STEP_REL_TOL = 5e-3
STEP_ABS_TOL = 5e-4


def _scalar_passes(name: str, expected: float, value: float) -> bool:
    """Whether one scalar summary row lies within its tolerance (NaN never does)."""
    if name == "gamma":
        same_sign = math.copysign(1.0, value) == math.copysign(1.0, expected)
        return same_sign and abs(value - expected) <= GAMMA_REL_TOL * abs(expected)
    return abs(value - expected) <= SCALAR_ABS_TOL


def _step_passes(expected: float, value: float) -> bool:
    """Whether one critical step size lies within its tolerance."""
    return abs(value - expected) <= max(STEP_REL_TOL * abs(expected), STEP_ABS_TOL)


def _reproduce(base_output: Optional[str]) -> int:
    """Re-run the reference analyses into a timestamped directory; exit 3
    when a summary row misses its reference value."""
    from .model import interior_point

    stamp = time.strftime("%Y%m%d-%H%M%S")
    outdir = Path(base_output or ".") / f"reproduce-{stamp}"
    # an earlier run in the same second owns this directory: fail, never overwrite
    outdir.mkdir(parents=True, exist_ok=False)

    p86 = ModelParams(**_REFERENCE_PARAMS)
    p45 = replace(p86, c=0.45)
    p05 = replace(p86, c=0.05)

    computed = {}
    th = thresholds(p86)
    computed["c1"] = th.c1
    computed["theta1"] = th.theta1
    computed["c2"] = th.c2
    computed["theta2"] = th.theta2
    x_star, y_star = interior_point(p45)
    computed["x_star_c045"] = x_star
    computed["y_star_c045"] = y_star
    computed["trace_interior_c045"] = jacobian(p45, (x_star, y_star)).trace
    jac05 = jacobian(p05, interior_point(p05))
    computed["trace_interior_c005"] = jac05.trace
    computed["two_sqrt_det_c005"] = 2.0 * math.sqrt(jac05.det)
    computed["m_star_c005"] = critical_order(p05).value
    nf = hopf_normal_form(p45, 0.95)
    computed["lambda_re"] = nf.lambda1.real
    computed["lambda_im"] = nf.lambda1.imag
    computed["lambda_modulus"] = abs(nf.lambda1)
    computed["transversality"] = nf.transversality
    computed["gamma"] = nf.gamma
    at_c1 = replace(p86, c=th.c1)
    st_c1 = step_thresholds(at_c1, 0.95)
    flip = classify_fixed_points(at_c1, st_c1.s5, 0.95)[1]
    computed["flip_eig1"] = min(e.real for e in flip.eigenvalues)
    computed["flip_eig2"] = max(e.real for e in flip.eigenvalues)

    summary, passed = [], []
    for name, expected in _REFERENCE_SCALARS:
        value = computed[name]
        summary.append((name, expected, value, abs(value - expected)))
        passed.append(_scalar_passes(name, expected, value))

    table_rows = []
    for m, ref_s2, ref_s3, ref_s4, ref_s5 in _REFERENCE_STEP_TABLE:
        st86 = step_thresholds(p86, m)
        st45 = step_thresholds(p45, m)
        table_rows.append((m, st86.s2, st86.s3, st45.s4, st45.s5))
        for name, expected, value in (
            (f"s2_m{m:g}", ref_s2, st86.s2),
            (f"s3_m{m:g}", ref_s3, st86.s3),
            (f"s4_m{m:g}", ref_s4, st45.s4),
            (f"s5_m{m:g}", ref_s5, st45.s5),
        ):
            summary.append((name, expected, value, abs(value - expected)))
            passed.append(_step_passes(expected, value))
    write_csv(outdir / "step_size_table.csv", ("m", "s2", "s3", "s4", "s5"), table_rows)

    for m in (0.8, 0.95, 1.0):
        traj = pece_solve(vector_field(p86), (10.0, 5.0), m, SolverConfig(step=0.05, horizon=80.0))
        ds = export_series(traj)
        write_csv(outdir / f"predator_free_series_m{int(round(m * 100)):03d}.csv", ds.columns, ds.rows)
    traj = pece_solve(vector_field(p45), (10.0, 5.0), 0.9, SolverConfig(step=0.05, horizon=150.0))
    ds = export_series(traj)
    write_csv(outdir / "interior_series_m090.csv", ds.columns, ds.rows)

    start = np.array(interior_point(p05)) + 1.0
    for tag, m in (("stable", 0.95), ("unstable", 0.995)):
        traj = pece_solve(vector_field(p05), start, m, SolverConfig(step=0.05, horizon=300.0))
        ds = export_series(traj)
        write_csv(outdir / f"order_{tag}_series.csv", ds.columns, ds.rows)

    region = stability_region_cm(p05, np.linspace(0.005, 0.12, 24))
    write_csv(outdir / "stability_region.csv", ("c", "m_star"), region.points)

    for name, pset, lo, hi in (
        ("interior_sweep", p45, 0.10, 0.55),
        ("predator_free_sweep", p86, 0.60, 0.85),
    ):
        sweep = sweep_step_size(pset, 0.95, lo, hi, 31, transient=3000, n_samples=120, kick=1e-3)
        rows = []
        for value, block in zip(sweep.parameter_values, sweep.samples):
            rows.extend((float(value), float(st[0]), float(st[1])) for st in block)
        write_csv(outdir / f"{name}.csv", ("param", "x", "y"), rows)

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


# --- argument parsing -------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, mode: str) -> None:
    sub.add_argument("--config", help="path to a key = value config file")
    for key in PARAM_KEYS:
        sub.add_argument(f"--{key}", type=float)
    sub.add_argument("--output", help="output CSV path (reproduce: base directory)")
    sub.add_argument("--seed", type=int)
    for key in MODE_OPTION_KEYS[mode]:
        tag, _ = _OPTION_SPEC[key]
        flag = f"--{key.replace('_', '-')}"
        if tag == "bool":
            sub.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction)
        elif tag == "pair":
            sub.add_argument(flag, dest=key, type=str, help="pair 'x,y'")
        elif tag == "int":
            sub.add_argument(flag, dest=key, type=int)
        else:
            sub.add_argument(flag, dest=key, type=float)
    if mode in ("simulate", "discrete", "sweep", "region"):
        sub.add_argument("--plot", action="store_true")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracprey",
        description="Fractional-order predator-prey dynamics with habitat complexity",
    )
    subparsers = parser.add_subparsers(dest="mode", required=True)
    for mode in MODE_OPTION_KEYS:
        _add_common(subparsers.add_parser(mode, help=f"{mode} analysis"), mode)
    args = parser.parse_args(argv)

    try:
        if args.config:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
                return 2
            top, sections = _parse_raw(text)
        else:
            top, sections = {}, {}

        overrides = {"mode": args.mode}
        for key in PARAM_KEYS + ("output", "seed"):
            value = getattr(args, key, None)
            if value is not None:
                overrides[key] = value
        for key in MODE_OPTION_KEYS[args.mode]:
            value = getattr(args, key, None)
            if value is None:
                continue
            overrides[key] = _convert(key, value) if _OPTION_SPEC[key][0] == "pair" else value
        if getattr(args, "plot", False):
            overrides["plot"] = True

        cfg = build_config(top, sections, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
