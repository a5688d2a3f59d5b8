"""Parameter-sweep engine: bifurcation diagrams over the step size, the
stability-region boundary in the (c, m) plane, and tabular export of
trajectories and orbits."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .discrete import DiscreteConfig, detect_structural_bifurcations, iterate_orbit
from .model import ModelParams, thresholds
from .pece import MAX_GRID_VALUES, Trajectory
from .stability import critical_order

__all__ = [
    "RegionResult",
    "SweepResult",
    "cluster_count",
    "export_series",
    "stability_region_cm",
    "sweep_step_size",
]

# Distance a stability_region_cm grid value keeps from the ends of (0, c2).
_C_MARGIN = 1e-9

# Cluster merge radius of cluster_count, relative to the largest finite
# coordinate magnitude.
_MERGE_RADIUS_REL = 1e-4


@dataclass(frozen=True)
class SweepResult:
    """Attractor samples per grid value of the step size.

    samples[i] holds the recorded post-transient states at
    parameter_values[i] (possibly fewer than requested when the orbit
    escaped, flagged in escaped[i]); events lists the analytic bifurcation
    locations falling inside the sweep range.
    """

    parameter_values: np.ndarray
    samples: list
    escaped: list
    events: list


@dataclass(frozen=True)
class RegionResult:
    """Boundary points (c, m*) plus the grid values that had to be skipped."""

    points: list
    skipped: list


def sweep_step_size(
    p: ModelParams,
    m: float,
    s_min: float,
    s_max: float,
    n_points: int,
    transient: int = 2000,
    n_samples: int = 200,
    x0=(10.0, 5.0),
    follow: bool = True,
    kick: float = 0.0,
) -> SweepResult:
    """Sample the attractor of the map on a uniform step-size grid.

    In follow mode each grid point starts from the previous final state
    (optionally nudged by the relative perturbation `kick`, which keeps a
    followed orbit from sitting numerically frozen on an unstable fixed
    point); otherwise every point restarts from x0.  Escaped orbits are
    flagged and the follow state resets to x0.  Raises ValueError, before
    allocating, when n_points x n_samples x 2 exceeds MAX_GRID_VALUES.
    """
    if not 0.0 < s_min < s_max:
        raise ValueError(f"need 0 < s_min < s_max, got {s_min!r}, {s_max!r}")
    if not math.isfinite(s_max):
        raise ValueError(f"s_max must be finite, got {s_max!r}")
    if not math.isfinite(kick):
        raise ValueError(f"kick must be finite, got {kick!r}")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    if not n_points * n_samples * 2 <= MAX_GRID_VALUES:
        raise ValueError(
            f"sweep of {n_points} points x {n_samples} samples x 2 state components exceeds "
            f"the budget of {MAX_GRID_VALUES} values; lower n_points or n_samples"
        )

    s_values = np.linspace(s_min, s_max, n_points)
    start = np.asarray(x0, dtype=float)
    carried = start.copy()
    samples = []
    escaped = []
    for s in s_values:
        init = carried * (1.0 + kick) if follow else start
        cfg = DiscreteConfig(s=float(s), m=m, iterations=transient + n_samples, transient=transient)
        orbit = iterate_orbit(p, cfg, init)
        samples.append(orbit.samples.copy())
        escaped.append(orbit.escaped)
        carried = start.copy() if orbit.escaped else orbit.states[-1].copy()

    events = [
        e
        for e in detect_structural_bifurcations(p, m)
        if e.s is not None and s_min <= e.s <= s_max
    ]
    return SweepResult(
        parameter_values=s_values,
        samples=samples,
        escaped=escaped,
        events=events,
    )


def cluster_count(points: np.ndarray) -> int:
    """Number of distinct sample clusters under the relative merge radius
    _MERGE_RADIUS_REL.

    Greedy and deterministic: a point joins the first existing cluster
    center within radius, otherwise founds a new one.  Adequate for telling
    fixed points from period-2/4/8 orbits and from spread-out attractors.
    The radius scales with the largest finite coordinate magnitude, so NaN
    or inf rows do not widen or void it.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        return 0
    scale = max(float(np.max(np.abs(pts), where=np.isfinite(pts), initial=0.0)), 1e-30)
    radius = _MERGE_RADIUS_REL * scale
    # The first open row founds a center and closes itself and every later
    # row within radius.  Written as "not <=" so a NaN distance leaves a row
    # open, as the point-by-point rule does; slicing off the center's own row
    # keeps a NaN center from looping.
    count = 0
    while pts.shape[0]:
        rest = pts[1:]
        pts = rest[~(np.linalg.norm(rest - pts[0], axis=1) <= radius)]
        count += 1
    return count


def stability_region_cm(p: ModelParams, c_grid) -> RegionResult:
    """Critical-order boundary m*(c) of the interior state over a c grid.

    Only complexities strictly inside (0, c2) produce an order-driven
    stability switch; grid values outside that window (within _C_MARGIN
    of its ends) are skipped with a reason.  Below the returned curve the
    interior state is stable, above it unstable.  Raises ValueError for an
    empty grid.
    """
    if len(c_grid) == 0:
        raise ValueError("c_grid must hold at least one value")
    th = thresholds(p)
    points = []
    skipped = []
    for c in c_grid:
        c = float(c)
        if th.c2 is None:
            skipped.append((c, "c2 undefined for these parameters"))
            continue
        if not _C_MARGIN < c < th.c2 - _C_MARGIN:
            skipped.append((c, f"c outside (0, c2={th.c2:.6g})"))
            continue
        result = critical_order(replace(p, c=c))
        if result.value is None:
            skipped.append((c, result.reason))
        else:
            points.append((c, result.value))
    return RegionResult(points=points, skipped=skipped)


def export_series(source) -> tuple:
    """Tabulate a trajectory or orbit as (columns, rows): (t, x, y) rows for
    a continuous trajectory, (n, x, y) rows for an orbit."""
    states = np.atleast_2d(source.states)
    if isinstance(source, Trajectory):
        index, index_name = source.times, "t"
    else:
        index, index_name = np.arange(states.shape[0], dtype=float), "n"
    rows = [(float(i), float(r[0]), float(r[1])) for i, r in zip(index, states)]
    return (index_name, "x", "y"), rows
