"""Discretization of the fractional-order system with piecewise-constant
arguments, and its step-size-driven bifurcation analysis.

One step advances the state by gain * rate with gain S = s^m / (m Gamma(m)),
so the map shares every equilibrium with the continuous field and reduces to
forward Euler at m = 1.  Stability of the fixed points is controlled by
critical step sizes s1..s5; at the interior fixed point a complex eigenvalue
pair crosses the unit circle at s4 (Hopf/Neimark-Sacker), and the normal
form computed here ends in the discriminant gamma whose sign decides whether
the bifurcating invariant circle attracts.  An orbit is stepped in one call
of a kernel compiled with the field inlined, which stops at a bit repeat.
"""

import cmath
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import ModelParams, _compile, _pair, equilibria, interior_point, jacobian, thresholds
from .pece import ESCAPE_BOUND, _check_budget, _check_count
from .special import _check_order, gamma_fn

__all__ = [
    "BifurcationEvent",
    "DiscreteConfig",
    "DiscreteOrbit",
    "FixedPointReport",
    "NormalFormData",
    "NormalFormPreconditionError",
    "OrbitEscapeError",
    "StepThresholds",
    "classify_fixed_points",
    "detect_structural_bifurcations",
    "hopf_normal_form",
    "inverse_map_gain",
    "iterate_orbit",
    "map_gain",
    "step_map",
    "step_thresholds",
]

# |modulus - 1| within this counts as sitting on the unit circle.
_UNIT_BAND = 1e-12

# A Jury residual of detect_structural_bifurcations passes up to this many
# eps times its rounding scale.  Over 50,000 random parameter sets of the CLI
# fuzz ranges the largest ratio stayed below 4 (flip), 2 (Hopf) and 1
# (transcritical); a wrong threshold formula leaves a residual of the order
# of the entry's terms, not of eps.
_RESIDUAL_ULPS = 16.0
_EPS = sys.float_info.epsilon

# Block length of iterate_orbit's loop and the lag of its repeat check: at
# the end of each block the last row is compared, bit for bit, with the row
# this many iterations before it.
_REPEAT_LAG = 64


class OrbitEscapeError(RuntimeError):
    """The map produced a non-finite or out-of-bound state."""


class NormalFormPreconditionError(ValueError):
    """The parameters are outside the unit-modulus set of the Hopf analysis."""


def map_gain(s: float, m: float) -> float:
    """Per-step gain S = s^m / (m Gamma(m)); the package's one check of a
    step size s and order m of the map."""
    if not 0 < s < math.inf:
        raise ValueError(f"step size must satisfy 0 < s < inf, got {s!r}")
    _check_order(m)
    return s**m / gamma_fn(m + 1.0)


def inverse_map_gain(gain: float, m: float) -> float:
    """Step size s with map_gain(s, m) == gain; ValueError when s passes the
    float range, as it gets at small m: above it for a gain above 1, below it
    (underflow to 0) for a gain below 1.  An infinite gain, such as 2/d at a
    subnormal rate d, is above it at every order."""
    if not gain > 0:
        raise ValueError(f"map gain must be > 0, got {gain!r}")
    _check_order(m)
    try:
        s = (gain * gamma_fn(m + 1.0)) ** (1.0 / m)
    except OverflowError:
        s = math.inf
    # an infinite gain raises no OverflowError: its power is inf
    if not 0.0 < s < math.inf:
        side = "is below" if s == 0.0 else "exceeds"
        raise ValueError(
            f"step size of map gain {gain:.6g} at order m={m!r} {side} the float range"
        )
    return s


@dataclass(frozen=True)
class DiscreteConfig:
    s: float
    m: float
    iterations: int
    transient: int = 0

    def __post_init__(self):
        map_gain(self.s, self.m)
        _check_count("iterations", self.iterations, 1)
        _check_count("transient", self.transient, 0)
        if not self.transient < self.iterations:
            raise ValueError(
                f"transient must satisfy 0 <= transient < iterations, got {self.transient!r}"
            )


@dataclass(frozen=True)
class DiscreteOrbit:
    """Iterates of the map; states is truncated when the orbit escaped.

    stepped counts the rows after the start that the map computed.  It is
    below config.iterations when the orbit escaped (len(states) - 1: the
    escaping iterate is not kept) or was copied forward from a repeat (the
    row where the copy began).
    """

    states: np.ndarray
    config: DiscreteConfig
    escaped: bool
    stepped: int

    @property
    def samples(self) -> np.ndarray:
        """States after the configured transient."""
        return self.states[self.config.transient + 1 :]


@dataclass(frozen=True)
class StepThresholds:
    """Critical step sizes, None where undefined (reasons says why).

    s1 bounds the saddle range of extinction, s2/s3 the stable range of the
    predator-free point, s4/s5 the stable range of the interior point; G and
    H are the interior-point constants entering s4/s5 (set only when that
    point exists).
    """

    s1: Optional[float]
    s2: Optional[float]
    s3: Optional[float]
    s4: Optional[float]
    s5: Optional[float]
    G: Optional[float]
    H: Optional[float]
    reasons: dict


@dataclass(frozen=True)
class FixedPointReport:
    kind: str
    point: tuple
    eigenvalues: tuple
    classification: str  # "stable" | "saddle" | "source" | "nonhyperbolic"
    spiral: bool
    jury: tuple  # (1 - det, 1 - trace + det, 1 + trace + det)


@dataclass(frozen=True)
class NormalFormData:
    """Everything the unit-circle crossing analysis produces at s = s4.

    c11..c23 are the coefficients of the map translated to the fixed point,
    delta/beta the real/imaginary parts of the critical eigenvalue pair,
    transversality the radial crossing speed of the modulus, and gamma the
    discriminant: an attracting invariant circle bifurcates for gamma < 0,
    a repelling one for gamma > 0.
    """

    s4: float
    S1: float
    G: float
    H: float
    c11: float
    c12: float
    c21: float
    c22: float
    c13: float
    c23: float
    delta: float
    beta: float
    lambda1: complex
    lambda2: complex
    transversality: float
    nonresonance_ok: bool
    xi11: complex
    xi20: complex
    xi02: complex
    xi21: complex
    gamma: float


@dataclass(frozen=True)
class BifurcationEvent:
    kind: str  # "transcritical" | "flip" | "hopf"
    equilibrium: str
    c: float
    s: Optional[float]
    residual: float


_map_kernel = _compile(
    "_map_kernel",
    ("gain", "states"),
    """
    bound, low = ESCAPE_BOUND, -ESCAPE_BOUND
    xs, ys = memoryview(states[:, 0]), memoryview(states[:, 1])
    # Compare bits, not floats: -0.0 == 0.0 is True although the bits differ.
    bits = states.view(int64)
    xb, yb = memoryview(bits[:, 0]), memoryview(bits[:, 1])
    last = len(xs) - 1
    x, y = xs[0], ys[0]
    try:
        for start in range(0, last, _REPEAT_LAG):
            for n in range(start + 1, min(start + _REPEAT_LAG, last) + 1):
                capture = {capture}
                x, y = x + gain * {dx}, y + gain * {dy}
                xs[n] = x
                ys[n] = y
                # "not <=" also catches NaN and inf
                if not (low <= x <= bound and low <= y <= bound):
                    return n, True
            if xb[n] == xb[start] and yb[n] == yb[start]:
                return n, False
    except ZeroDivisionError:
        xs[n] = ys[n] = nan
        return n, True
    return n, False
    """,
    """Step the orbit in states, an (N, 2) float array holding its start
    in row 0, with the parameters of p and the gain; returns (n, escaped).
    Rows are stepped in blocks of _REPEAT_LAG, each row stored, through a
    memoryview of each column, as it is computed.  escaped means row n,
    which is stored, escaped: it is non-finite or beyond ESCAPE_BOUND.
    Otherwise rows up to n are the orbit's, and n < N - 1 means the block
    end n repeats, bit for bit, the row _REPEAT_LAG before it.

    The field is inlined from its one written source, model._FIELD, with the
    operations of x + gain * dx in its order, so that an iteration makes no
    Python call.  At the prey pole x = -1/(alpha (1 - c) h) the capture term
    divides by zero: that row escapes as (nan, nan), as the step on numpy
    floats goes non-finite.""",
    {"ESCAPE_BOUND": ESCAPE_BOUND, "_REPEAT_LAG": _REPEAT_LAG, "int64": np.int64, "nan": math.nan},
)


def step_map(p: ModelParams, s: float, m: float, state) -> np.ndarray:
    """One application of the map: state + S * rate(state), no clamping.

    The step is row 1 of a scratch orbit of one iteration, stored whether
    or not it escaped; OrbitEscapeError when it is not finite."""
    rows = np.empty((2, 2))
    rows[0] = _pair(state)
    _map_kernel(p, map_gain(s, m), rows)
    if not (math.isfinite(rows[1, 0]) and math.isfinite(rows[1, 1])):
        raise OrbitEscapeError(f"map produced a non-finite state from {state!r}")
    return rows[1]


def iterate_orbit(p: ModelParams, cfg: DiscreteConfig, x0) -> DiscreteOrbit:
    """Iterate the map; escapes are encoded in the result, not raised.

    An iterate escapes when it is non-finite or either coordinate exceeds
    ESCAPE_BOUND in magnitude; the comparison is written so that NaN fails it.
    The whole orbit is stepped in one call of _map_kernel, which checks at
    the end of each block of _REPEAT_LAG rows whether the row repeats, bit
    for bit, the row _REPEAT_LAG before it.  From such a row the rest of the
    orbit is copied forward with the same bits instead of being iterated
    further; stepped then says where the copy began.  Raises ValueError,
    before allocating the orbit, when x0 is not a pair (x, y) or when its
    iterates times state size exceed pece.MAX_GRID_VALUES.
    """
    x0 = _pair(x0)
    _check_budget((cfg.iterations + 1) * 2, f"orbit of {cfg.iterations} iterations x 2 state components")
    states = np.empty((cfg.iterations + 1, 2))
    states[0] = x0
    n, escaped = _map_kernel(p, map_gain(cfg.s, cfg.m), states)
    if escaped:
        return DiscreteOrbit(states=states[:n].copy(), config=cfg, escaped=True, stepped=n - 1)
    _copy_forward(states, n)
    return DiscreteOrbit(states=states, config=cfg, escaped=False, stepped=n)


def _copy_forward(states: np.ndarray, filled: int) -> None:
    """Fill the rows of states past row filled, which repeats row
    filled - _REPEAT_LAG bit for bit.

    The map is a pure function of the float pair, so from row
    filled - _REPEAT_LAG on the orbit has a period dividing _REPEAT_LAG, and
    each row equals the one any multiple of _REPEAT_LAG before it.  Every
    copy doubles the stretch it copies and reads only rows already written.
    """
    lag = _REPEAT_LAG
    while filled + 1 < len(states):
        count = min(lag, len(states) - filled - 1)
        states[filled + 1 : filled + 1 + count] = states[filled + 1 - lag : filled + 1 - lag + count]
        filled += count
        lag *= 2


def _gain_constants(p: ModelParams):
    """Interior-point constants (G, H, x*) entering s4/s5; None if no interior."""
    interior = equilibria(p)[2]
    if not interior.exists:
        return None
    x_star = interior.point[0]
    hd = p.h * p.d
    margin = p.theta - hd
    base = p.r * x_star / (p.K * p.theta)
    G = base * (p.theta + hd - p.alpha * p.h * p.K * (1.0 - p.c) * margin)
    H = base * margin * (p.alpha * p.K * (1.0 - p.c) * margin - p.d)
    return G, H, x_star


def _prey_step(p: ModelParams, m: float) -> float:
    """s2, the step at which the prey eigenvalue 1 - r S of the
    predator-free point reaches -1."""
    return inverse_map_gain(2.0 / p.r, m)


def _hopf_step(G: float, H: float, m: float) -> float:
    """s4, the step at which the interior point's det = 1 - S G + S^2 H
    returns to 1, at S = G / H; for G > 0 and H > 0."""
    return inverse_map_gain(G / H, m)


def step_thresholds(p: ModelParams, m: float) -> StepThresholds:
    """Evaluate the critical step sizes s1..s5 and the constants G, H."""
    reasons = {}
    s1 = inverse_map_gain(2.0 / p.d, m)
    s2 = _prey_step(p, m)

    denom3 = p.d - p.K * p.alpha * (1.0 - p.c) * (p.theta - p.h * p.d)
    if denom3 > 0.0:
        s3 = inverse_map_gain(2.0 * (1.0 + p.alpha * p.K * p.h * (1.0 - p.c)) / denom3, m)
    else:
        s3 = None
        reasons["s3"] = "predator growth direction leaves the fixed point for every s"

    constants = _gain_constants(p)
    if constants is None:
        G = H = s4 = s5 = None
        reasons["s4"] = reasons["s5"] = "no interior fixed point"
    else:
        G, H, _ = constants
        if G > 0.0 and H > 0.0:
            s4 = _hopf_step(G, H, m)
        else:
            s4 = None
            reasons["s4"] = "requires G > 0 and H > 0"
        if G > 0.0:
            s5 = inverse_map_gain(2.0 / G, m)
        else:
            s5 = None
            reasons["s5"] = "requires G > 0"
    return StepThresholds(s1=s1, s2=s2, s3=s3, s4=s4, s5=s5, G=G, H=H, reasons=reasons)


def _classify_moduli(eigs) -> tuple:
    moduli = [abs(complex(e)) for e in eigs]
    if any(abs(mod - 1.0) <= _UNIT_BAND for mod in moduli):
        cls = "nonhyperbolic"
    elif all(mod < 1.0 for mod in moduli):
        cls = "stable"
    elif all(mod > 1.0 for mod in moduli):
        cls = "source"
    else:
        cls = "saddle"
    complex_pair = any(abs(complex(e).imag) > 0.0 for e in eigs)
    spiral = cls == "source" and complex_pair
    return cls, spiral


def _report(kind: str, point, eigs, tr: float, det: float) -> FixedPointReport:
    """Report of one fixed point; the one place its Jury triple is written."""
    cls, spiral = _classify_moduli(eigs)
    return FixedPointReport(
        kind=kind,
        point=point,
        eigenvalues=eigs,
        classification=cls,
        spiral=spiral,
        jury=(1.0 - det, 1.0 - tr + det, 1.0 + tr + det),
    )


def classify_fixed_points(p: ModelParams, s: float, m: float) -> list:
    """Classify every fixed point of the map at step size s and order m.

    Extinction and the predator-free point have explicit real eigenvalues;
    the interior point is classified through trace = 2 - S G and
    det = 1 - S G + S^2 H.  Eigenvalue moduli sitting on the unit circle
    (step size equal to a critical threshold) classify as nonhyperbolic.
    """
    S = map_gain(s, m)
    reports = []
    growth = jacobian(p, (p.K, 0.0)).a22
    for kind, point, xi1, xi2 in (
        ("trivial", (0.0, 0.0), 1.0 + p.r * S, 1.0 - p.d * S),
        ("predator_free", (p.K, 0.0), 1.0 - p.r * S, 1.0 + S * growth),
    ):
        reports.append(_report(kind, point, (complex(xi1), complex(xi2)), xi1 + xi2, xi1 * xi2))

    constants = _gain_constants(p)
    if constants is not None:
        G, H, _ = constants
        tr = 2.0 - S * G
        det = 1.0 - S * G + S * S * H
        root = cmath.sqrt(complex(tr * tr - 4.0 * det))
        eigs = ((tr + root) / 2.0, (tr - root) / 2.0)
        reports.append(_report("interior", interior_point(p), eigs, tr, det))
    return reports


def hopf_normal_form(p: ModelParams, m: float) -> NormalFormData:
    """Normal form of the interior fixed point at the critical step s4.

    Requires the unit-modulus set 0 < G < 2 sqrt(H): there the eigenvalue
    pair lambda = (2 - S1 G +/- i S1 sqrt(4H - G^2)) / 2 sits on the unit
    circle at S1 = s4^m/(m Gamma(m)), crossing with radial speed G/2.  The
    quadratic coefficients of the translated map feed the xi quantities and
    the discriminant gamma.  gamma is the paper's, and its xi21 = 0 and the
    dropped x^2 term of the prey equation come from it, not from the field:
    the capture term a x y/(1 + b x), b = a h, has the third partial
    d^3/dx^2dy = -2ab/(1 + bx)^3.  ROADMAP.md's item 11 (Neimark-Sacker
    criticality) weighs the full coefficient against gamma.
    """
    _check_order(m)
    constants = _gain_constants(p)
    if constants is None:
        raise NormalFormPreconditionError("interior fixed point does not exist")
    G, H, x_star = constants
    if not G > 0.0:
        raise NormalFormPreconditionError(f"unit-modulus set needs G > 0, got G={G:.6g}")
    if not H > 0.0:
        raise NormalFormPreconditionError(f"unit-modulus set needs H > 0, got H={H:.6g}")
    if not G < 2.0 * math.sqrt(H):
        raise NormalFormPreconditionError(
            f"unit-modulus set needs G < 2 sqrt(H), got G={G:.6g}, 2 sqrt(H)={2*math.sqrt(H):.6g}"
        )

    s4 = _hopf_step(G, H, m)
    S1 = map_gain(s4, m)
    a = p.attack
    margin = p.theta - p.h * p.d
    denom = 1.0 + a * p.h * x_star

    c11 = 1.0 - S1 * G
    c12 = -S1 * a * margin * x_star / p.theta
    c21 = S1 * p.r * margin * (p.K - x_star) / p.K
    c22 = 1.0
    c13 = -a * S1 / (2.0 * denom**2)
    c23 = p.theta * a * S1 / (2.0 * denom**2)

    delta = (2.0 - S1 * G) / 2.0
    beta = S1 * math.sqrt(4.0 * H - G * G) / 2.0
    lambda1 = complex(delta, beta)
    lambda2 = complex(delta, -beta)

    nonresonance_ok = not (
        math.isclose(G * G, 3.0 * H, rel_tol=1e-9)
        or math.isclose(G * G, 2.0 * H, rel_tol=1e-9)
    )

    # second-order partials of the transformed map; the paper's gamma keeps
    # only these (xi21 = 0 and no x^2 term, see the docstring)
    p_uu = 2.0 * c13 * (delta - c11)
    p_vv = 0.0
    p_uv = -beta * c13
    q_factor = (c11 - delta) * c13 + c12 * c23
    q_uu = 2.0 * q_factor * (c11 - delta) / beta
    q_vv = 0.0
    q_uv = q_factor

    xi11 = complex(p_uu + p_vv, q_uu + q_vv) / 4.0
    xi20 = complex(p_uu - p_vv + 2.0 * q_uv, q_uu - q_vv - 2.0 * p_uv) / 8.0
    xi02 = complex(p_uu - p_vv - 2.0 * q_uv, q_uu - q_vv + 2.0 * p_uv) / 8.0
    xi21 = complex(0.0, 0.0)

    gamma = (
        -((1.0 - 2.0 * lambda1) * lambda2**2 / (1.0 - lambda1) * xi11 * xi20).real
        - 0.5 * abs(xi11) ** 2
        - abs(xi02) ** 2
        + (lambda2 * xi21).real
    )

    return NormalFormData(
        s4=s4,
        S1=S1,
        G=G,
        H=H,
        c11=c11,
        c12=c12,
        c21=c21,
        c22=c22,
        c13=c13,
        c23=c23,
        delta=delta,
        beta=beta,
        lambda1=lambda1,
        lambda2=lambda2,
        transversality=G / 2.0,
        nonresonance_ok=nonresonance_ok,
        xi11=xi11,
        xi20=xi20,
        xi02=xi02,
        xi21=xi21,
        gamma=gamma,
    )


def _trip_rounding(s: float, m: float) -> float:
    """Relative rounding, in eps, that map_gain(s, m) keeps of its gain after
    the round trip through the step s = inverse_map_gain(gain, m): 1, plus m
    times the relative spacing of s, which passes eps for a subnormal s."""
    return 1.0 + m * (math.ulp(s) / s) / _EPS


def detect_structural_bifurcations(p: ModelParams, m: float) -> list:
    """Locate the structural bifurcations of the map for this parameter set.

    The predator-free point exchanges stability with the interior branch at
    c = c1 (eigenvalue through +1, any step size) and period-doubles at
    (c = c1, s = s5) (eigenvalue through -1); the interior point sheds an
    invariant circle at s = s4 when the unit-modulus set condition holds.
    Every event is reported with the residual of its defining Jury entry
    (classify_fixed_points).  The entry vanishes exactly at the event, so its
    residual is rounding only: a RuntimeError is raised when it exceeds
    _RESIDUAL_ULPS eps times the rounding scale of the entry, 1 + |tr| +
    |det| for the arithmetic that forms it plus the entry's sensitivity to
    the rounding of its inputs.
    """
    th = thresholds(p)
    # (kind, fixed point, parameters, event step, tested step, report, Jury
    # entry, sensitivity of the entry to the rounding of its inputs, in eps)
    cases = []
    if th.c1 is not None and 0.0 < th.c1 < 1.0:
        at_c1 = replace(p, c=th.c1)
        growth = jacobian(at_c1, (p.K, 0.0)).a22  # predator growth at (K, 0), zero at c1
        # at c = c1 the interior constants collapse to G = r, so the flip
        # step coincides with the prey threshold s2
        s2 = _prey_step(p, m)
        S = map_gain(0.5 * s2, m)
        # entry (r S)(-S growth): c1 is rounded, so a = alpha (1 - c1) is off
        # by up to eps / (1 - c1) relative, and growth by that share of its
        # terms
        sensitivity = p.r * S * S * (growth + 2.0 * p.d) / (1.0 - th.c1)
        cases.append(("transcritical", "predator_free", at_c1, None, 0.5 * s2, 1, 1, sensitivity))
        S = map_gain(s2, m)
        # entry (2 - r S)(2 + S growth): r S = 2 up to the rounding of the
        # gain's round trip through s2
        sensitivity = p.r * S * abs(2.0 + S * growth) * _trip_rounding(s2, m)
        cases.append(("flip", "predator_free", at_c1, s2, s2, 1, 2, sensitivity))
    constants = _gain_constants(p)
    if constants is not None:
        G, H, _ = constants
        if G > 0.0 and H > 0.0 and G < 2.0 * math.sqrt(H):
            # entry 0 is 1 - det = S (G - S H) at the interior point: S = G /
            # H up to the rounding of the gain's round trip through s4
            s4 = _hopf_step(G, H, m)
            S = map_gain(s4, m)
            cases.append(("hopf", "interior", p, s4, s4, 2, 0, S * G * _trip_rounding(s4, m)))

    events = []
    for kind, equilibrium, q, s_event, s_test, k, j, sensitivity in cases:
        jury = classify_fixed_points(q, s_test, m)[k].jury
        res = abs(jury[j])
        # the Jury triple is (1 - det, 1 - tr + det, 1 + tr + det)
        tr, det = 0.5 * (jury[2] - jury[1]), 1.0 - jury[0]
        bound = _RESIDUAL_ULPS * _EPS * (1.0 + abs(tr) + abs(det) + sensitivity)
        if not res <= bound:
            raise RuntimeError(f"{kind} residual {res:g} exceeds its rounding bound {bound:g}")
        events.append(
            BifurcationEvent(kind=kind, equilibrium=equilibrium, c=q.c, s=s_event, residual=res)
        )
    return events
