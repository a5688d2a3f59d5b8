"""Parameter-sweep engine: bifurcation diagrams over the step size, the
stability-region boundary in the (c, m) plane, and tabular export of
trajectories and orbits."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .discrete import DiscreteConfig, detect_structural_bifurcations, iterate_orbit
from .model import ModelParams, thresholds
from .pece import Trajectory, _check_budget, _check_count
from .stability import critical_order

__all__ = [
    "DEFAULT_X0",
    "RegionResult",
    "SweepResult",
    "cluster_count",
    "export_series",
    "stability_region_cm",
    "sweep_step_size",
]

# Start state of the paper's examples: the sweep restarts from it, and the
# CLI starts every run from it unless told otherwise.
DEFAULT_X0 = (10.0, 5.0)

# Distance a stability_region_cm grid value keeps from the ends of (0, c2).
_C_MARGIN = 1e-9

# Cluster merge radius of cluster_count, relative to the largest finite
# coordinate magnitude.
_MERGE_RADIUS_REL = 1e-4

# Candidate-to-row distances cluster_count computes per round (0.5 MB).
_ROUND_DISTANCES = 1 << 16


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
    x0=DEFAULT_X0,
    follow: bool = True,
    kick: float = 0.0,
) -> SweepResult:
    """Sample the attractor of the map on a uniform step-size grid.

    In follow mode each grid point starts from the previous final state
    (optionally nudged by the relative perturbation `kick`, which keeps a
    followed orbit from sitting numerically frozen on an unstable fixed
    point); otherwise every point restarts from x0, and a nonzero kick,
    which would change nothing, raises ValueError.  Escaped orbits are
    flagged and the follow state resets to x0.  Raises ValueError, before
    allocating, when n_points x n_samples x 2 exceeds pece.MAX_GRID_VALUES.
    """
    if not 0.0 < s_min < s_max < math.inf:
        raise ValueError(f"need 0 < s_min < s_max < inf, got {s_min!r}, {s_max!r}")
    if not math.isfinite(kick):
        raise ValueError(f"kick must be finite, got {kick!r}")
    if kick and not follow:
        raise ValueError(f"kick applies only in follow mode, got kick={kick!r} with follow off")
    _check_count("n_points", n_points, 2)
    _check_count("n_samples", n_samples, 1)
    _check_count("transient", transient, 0)
    _check_budget(
        n_points * n_samples * 2,
        f"sweep of {n_points} points x {n_samples} samples x 2 state components",
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
    or inf rows do not widen or void it; such a row is within radius of
    nothing, so it founds its own cluster.

    The rule runs in rounds of at most _ROUND_DISTANCES distances.  The
    first round takes k = 1 candidate, so a block that is one cluster costs
    one pass; every later round takes the first
    k = max(1, min(open, _ROUND_DISTANCES // open)) open rows as candidates.
    A round measures each candidate against every open row.  In order,
    a candidate is a center unless an earlier center of the round is within
    radius of it; when no candidate is within radius of another, as on the
    samples of an invariant circle, every candidate is a center, found
    without the loop.  The round then closes every candidate and every row
    within radius of a center; a round of one candidate needs only its row
    of distances for that.  The open rows are compacted with compress,
    which keeps them in order at a fraction of the cost of boolean
    indexing.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scale = max(float(np.max(np.abs(pts), where=np.isfinite(pts), initial=0.0)), 1e-30)
    radius = _MERGE_RADIUS_REL * scale
    cols = np.ascontiguousarray(pts.T)
    count = 0
    # inf - inf is NaN: the distance is then NaN, and "<=" leaves the row open
    with np.errstate(invalid="ignore"):
        while cols.shape[1]:
            n = cols.shape[1]
            k = max(1, min(n, _ROUND_DISTANCES // n)) if count else 1
            # summed column by column, then rooted: the bits of norm(axis=1)
            dist = np.zeros((k, n))
            for col in cols:
                diff = col - col[:k, None]
                dist += np.square(diff, out=diff)
            near = np.sqrt(dist, out=dist) <= radius
            if k == 1:
                keep, found = ~near[0], 1
            elif np.count_nonzero(near[:, :k]) == np.count_nonzero(near.diagonal()):
                # only the diagonal is near: every candidate is a center
                keep, found = ~near.any(axis=0), k
            else:
                bits = np.packbits(near[:, :k], axis=1, bitorder="little")
                covered = 0
                centers = []
                for i in range(k):
                    if not covered >> i & 1:
                        centers.append(i)
                        covered |= int.from_bytes(bits[i].tobytes(), "little")
                keep, found = ~near[centers].any(axis=0), len(centers)
            keep[:k] = False
            cols = cols.compress(keep, axis=1)
            count += found
    return count


def stability_region_cm(p: ModelParams, c_max: float, c_points: int) -> RegionResult:
    """Critical-order boundary m*(c) of the interior state over the grid of
    c_points complexities from the c of p to c_max.

    Only complexities strictly inside (0, c2) produce an order-driven
    stability switch; grid values outside that window (within _C_MARGIN
    of its ends) are skipped with a reason.  Below the returned curve the
    interior state is stable, above it unstable.  The window comes from the
    c-free thresholds(p), and each grid value replaces c.  Raises
    ValueError, before allocating, unless c_points is an integer of at
    least 1 within pece.MAX_GRID_VALUES and c_max is finite.
    """
    _check_count("c_points", c_points, 1)
    _check_budget(c_points, f"region grid of {c_points} points")
    if not math.isfinite(c_max):
        raise ValueError(f"region grid end c_max must be finite, got {c_max!r}")
    th = thresholds(p)
    points = []
    skipped = []
    for c in np.linspace(p.c, c_max, c_points):
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
    """Tabulate a two-component trajectory or orbit as (columns, table): a
    float array of (t, x, y) rows for a trajectory, of (n, x, y) rows for an
    orbit.  Raises ValueError on any other state size."""
    states = np.atleast_2d(source.states)
    if states.shape[1] != 2:
        raise ValueError(f"export_series needs 2 state components, got {states.shape[1]}")
    if isinstance(source, Trajectory):
        index, index_name = source.times, "t"
    else:
        index, index_name = np.arange(states.shape[0], dtype=float), "n"
    return (index_name, "x", "y"), np.column_stack((index, states))
