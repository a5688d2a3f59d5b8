"""Discretization of the fractional-order system with piecewise-constant
arguments, and its step-size-driven bifurcation analysis.

One step advances the state by gain * rate with gain S = s^m / (m Gamma(m)),
so the map shares every equilibrium with the continuous field and reduces to
forward Euler at m = 1.  Stability of the fixed points is controlled by
critical step sizes s1..s5; at the interior fixed point a complex eigenvalue
pair crosses the unit circle at s4 (Hopf/Neimark-Sacker), and the normal
form computed here ends in the discriminant gamma whose sign decides whether
the bifurcating invariant circle attracts.
"""

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .model import ModelParams, equilibria, interior_point, jacobian, thresholds
from .pece import ESCAPE_BOUND, _check_budget
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

# Block length of iterate_orbit's loop and the lag of its repeat check: at
# the end of each block the last row is compared, bit for bit, with the row
# this many iterations before it.
_REPEAT_LAG = 64


class OrbitEscapeError(RuntimeError):
    """The map produced a non-finite or out-of-bound state."""


class NormalFormPreconditionError(ValueError):
    """The parameters are outside the unit-modulus set of the Hopf analysis."""


def map_gain(s: float, m: float) -> float:
    """Per-step gain S = s^m / (m Gamma(m))."""
    if not s > 0:
        raise ValueError(f"step size must be > 0, got {s!r}")
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
        if not 0 < self.s < math.inf:
            raise ValueError(f"step size must satisfy 0 < s < inf, got {self.s!r}")
        _check_order(self.m)
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations!r}")
        if not 0 <= self.transient < self.iterations:
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


def _map_kernel(p: ModelParams, gain: float, flat) -> Callable:
    """The map on plain floats with the parameters, the gain and the flat
    buffer flat bound once: advance(x, y, start, stop) steps rows start + 1
    to stop from the row (x, y), storing row n at flat[2n], flat[2n + 1],
    and returns (x, y, n).  n <= stop means row n escaped: it is non-finite
    or beyond ESCAPE_BOUND and is returned but not stored; n = stop + 1 means
    every row was stored.

    The field of model._field is written out here, with the operations of
    x + gain * dx in its order, so that an iteration makes no Python call;
    the parity tests pin both copies bit for bit.  At the prey pole
    x = -1/(alpha (1 - c) h) the capture term divides by zero: that row
    escapes as (nan, nan), as the step on numpy floats goes non-finite.
    """
    r, K, a, theta, d = p.r, p.K, p.attack, p.theta, p.d
    ah = a * p.h
    bound = ESCAPE_BOUND

    def advance(x: float, y: float, start: int, stop: int) -> tuple:
        try:
            for n in range(start + 1, stop + 1):
                capture = a * x * y / (1.0 + ah * x)
                x, y = x + gain * (r * x * (1.0 - x / K) - capture), y + gain * (theta * capture - d * y)
                # "not <=" also catches NaN and inf
                if not (abs(x) <= bound and abs(y) <= bound):
                    return x, y, n
                flat[2 * n] = x
                flat[2 * n + 1] = y
        except ZeroDivisionError:
            return math.nan, math.nan, n
        return x, y, stop + 1

    return advance


def step_map(p: ModelParams, s: float, m: float, state) -> np.ndarray:
    """One application of the map: state + S * rate(state), no clamping."""
    # row 1 goes to a throwaway list; the returned pair is the step, bound or not
    advance = _map_kernel(p, map_gain(s, m), [0.0] * 4)
    x, y, _ = advance(float(state[0]), float(state[1]), 0, 1)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise OrbitEscapeError(f"map produced a non-finite state from {state!r}")
    return np.array([x, y])


def iterate_orbit(p: ModelParams, cfg: DiscreteConfig, x0) -> DiscreteOrbit:
    """Iterate the map; escapes are encoded in the result, not raised.

    An iterate escapes when it is non-finite or either coordinate exceeds
    ESCAPE_BOUND in magnitude; the comparison is written so that NaN fails it.
    The orbit is stepped in blocks of _REPEAT_LAG rows, each in one call of
    the kernel that _map_kernel builds.  At a block end whose row repeats, bit
    for bit, the row _REPEAT_LAG before it, the rest of the orbit is copied
    forward with the same bits instead of being iterated further; stepped
    then says where the copy began.  Raises ValueError, before allocating
    the orbit, when its iterates times state size exceed
    pece.MAX_GRID_VALUES.
    """
    _check_budget((cfg.iterations + 1) * 2, f"orbit of {cfg.iterations} iterations x 2 state components")
    last = cfg.iterations
    states = np.empty((last + 1, 2))
    states[0] = np.asarray(x0, dtype=float)
    flat = memoryview(states.reshape(-1))
    advance = _map_kernel(p, map_gain(cfg.s, cfg.m), flat)
    # Compare bits, not floats: -0.0 == 0.0 is True although the bits differ.
    bits = memoryview(states.view(np.int64).reshape(-1))
    x, y = float(states[0, 0]), float(states[0, 1])
    for start in range(0, last, _REPEAT_LAG):
        stop = min(start + _REPEAT_LAG, last)
        x, y, n = advance(x, y, start, stop)
        if n <= stop:
            return DiscreteOrbit(states=states[:n].copy(), config=cfg, escaped=True, stepped=n - 1)
        i, j = 2 * stop, 2 * start
        if stop < last and bits[i] == bits[j] and bits[i + 1] == bits[j + 1]:
            _copy_forward(states, stop)
            return DiscreteOrbit(states=states, config=cfg, escaped=False, stepped=stop)
    return DiscreteOrbit(states=states, config=cfg, escaped=False, stepped=last)


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


def step_thresholds(p: ModelParams, m: float) -> StepThresholds:
    """Evaluate the critical step sizes s1..s5 and the constants G, H."""
    reasons = {}
    s1 = inverse_map_gain(2.0 / p.d, m)
    s2 = inverse_map_gain(2.0 / p.r, m)

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
            s4 = inverse_map_gain(G / H, m)
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
    the discriminant gamma; all third-order partial derivatives vanish, so
    xi21 = 0.
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

    s4 = step_thresholds(p, m).s4
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

    # second-order partials of the transformed map (third order all vanish)
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


def detect_structural_bifurcations(p: ModelParams, m: float) -> list:
    """Locate the structural bifurcations of the map for this parameter set.

    The predator-free point exchanges stability with the interior branch at
    c = c1 (eigenvalue through +1, any step size) and period-doubles at
    (c = c1, s = s5) (eigenvalue through -1); the interior point sheds an
    invariant circle at s = s4 when the unit-modulus set condition holds.
    Every event is reported with the residual of its defining Jury entry
    (classify_fixed_points), which must vanish to 1e-8.
    """
    st = step_thresholds(p, m)
    th = thresholds(p)
    # (kind, fixed point, parameters, event step, tested step, report, Jury entry)
    cases = []
    if th.c1 is not None and 0.0 < th.c1 < 1.0:
        at_c1 = replace(p, c=th.c1)
        # at c = c1 the interior constants collapse to G = r, so the flip
        # step coincides with the prey threshold s2
        cases.append(("transcritical", "predator_free", at_c1, None, 0.5 * st.s2, 1, 1))
        cases.append(("flip", "predator_free", at_c1, st.s2, st.s2, 1, 2))
    if st.s4 is not None and st.G < 2.0 * math.sqrt(st.H):
        # entry 0 is 1 - det at the interior point
        cases.append(("hopf", "interior", p, st.s4, st.s4, 2, 0))

    events = []
    for kind, equilibrium, q, s_event, s_test, k, j in cases:
        res = abs(classify_fixed_points(q, s_test, m)[k].jury[j])
        if res >= 1e-8:
            raise RuntimeError(f"{kind} residual {res:g} fails the 1e-8 verification")
        events.append(
            BifurcationEvent(kind=kind, equilibrium=equilibrium, c=q.c, s=s_event, residual=res)
        )
    return events
