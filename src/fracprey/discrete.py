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
from typing import Optional

import numpy as np

from .model import ModelParams, _rates, equilibria, interior_point, thresholds
from .pece import MAX_GRID_VALUES
from .special import gamma_fn

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

ESCAPE_BOUND = 1e12
# |modulus - 1| within this counts as sitting on the unit circle.
_UNIT_BAND = 1e-12


class OrbitEscapeError(RuntimeError):
    """The map produced a non-finite or out-of-bound state."""


class NormalFormPreconditionError(ValueError):
    """The parameters are outside the unit-modulus set of the Hopf analysis."""


def map_gain(s: float, m: float) -> float:
    """Per-step gain S = s^m / (m Gamma(m))."""
    if not s > 0:
        raise ValueError(f"step size must be > 0, got {s!r}")
    if not 0.0 < m <= 1.0:
        raise ValueError(f"fractional order must satisfy 0 < m <= 1, got {m!r}")
    return s**m / gamma_fn(m + 1.0)


def inverse_map_gain(gain: float, m: float) -> float:
    """Step size s with map_gain(s, m) == gain."""
    if not gain > 0:
        raise ValueError(f"map gain must be > 0, got {gain!r}")
    if not 0.0 < m <= 1.0:
        raise ValueError(f"fractional order must satisfy 0 < m <= 1, got {m!r}")
    return (gain * gamma_fn(m + 1.0)) ** (1.0 / m)


@dataclass(frozen=True)
class DiscreteConfig:
    s: float
    m: float
    iterations: int
    transient: int = 0

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"step size must be > 0, got {self.s!r}")
        if not 0.0 < self.m <= 1.0:
            raise ValueError(f"fractional order must satisfy 0 < m <= 1, got {self.m!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations!r}")
        if not 0 <= self.transient < self.iterations:
            raise ValueError(
                f"transient must satisfy 0 <= transient < iterations, got {self.transient!r}"
            )


@dataclass(frozen=True)
class DiscreteOrbit:
    """Iterates of the map; states is truncated when the orbit escaped."""

    states: np.ndarray
    config: DiscreteConfig
    escaped: bool

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


def _map_step(p: ModelParams, gain: float, x: float, y: float) -> tuple:
    """The map on plain floats; every map iteration goes through here."""
    dx, dy = _rates(p, x, y)
    return x + gain * dx, y + gain * dy


def step_map(p: ModelParams, s: float, m: float, state) -> np.ndarray:
    """One application of the map: state + S * rate(state), no clamping."""
    x, y = _map_step(p, map_gain(s, m), float(state[0]), float(state[1]))
    if not (math.isfinite(x) and math.isfinite(y)):
        raise OrbitEscapeError(f"map produced a non-finite state from {state!r}")
    return np.array([x, y])


def iterate_orbit(p: ModelParams, cfg: DiscreteConfig, x0) -> DiscreteOrbit:
    """Iterate the map; escapes are encoded in the result, not raised.

    An iterate escapes when it is non-finite or either coordinate exceeds
    ESCAPE_BOUND in magnitude; the comparison is written so that NaN fails it.
    Raises ValueError, before allocating the orbit, when its iterates times
    state size exceed MAX_GRID_VALUES.
    """
    if not (cfg.iterations + 1) * 2 <= MAX_GRID_VALUES:
        raise ValueError(
            f"orbit of {cfg.iterations} iterations x 2 state components exceeds the "
            f"budget of {MAX_GRID_VALUES} values; lower iterations"
        )
    gain = map_gain(cfg.s, cfg.m)
    states = np.empty((cfg.iterations + 1, 2))
    states[0] = np.asarray(x0, dtype=float)
    flat = memoryview(states.reshape(-1))
    x, y = float(states[0, 0]), float(states[0, 1])
    for n in range(1, cfg.iterations + 1):
        x, y = _map_step(p, gain, x, y)
        if not (abs(x) <= ESCAPE_BOUND and abs(y) <= ESCAPE_BOUND):
            return DiscreteOrbit(states=states[:n].copy(), config=cfg, escaped=True)
        flat[2 * n] = x
        flat[2 * n + 1] = y
    return DiscreteOrbit(states=states, config=cfg, escaped=False)


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
    if not 0.0 < m <= 1.0:
        raise ValueError(f"fractional order must satisfy 0 < m <= 1, got {m!r}")
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


def classify_fixed_points(p: ModelParams, s: float, m: float) -> list:
    """Classify every fixed point of the map at step size s and order m.

    Extinction and the predator-free point have explicit real eigenvalues;
    the interior point is classified through trace = 2 - S G and
    det = 1 - S G + S^2 H.  Eigenvalue moduli sitting on the unit circle
    (step size equal to a critical threshold) classify as nonhyperbolic.
    """
    S = map_gain(s, m)
    reports = []

    eigs0 = (complex(1.0 + p.r * S), complex(1.0 - p.d * S))
    cls, spiral = _classify_moduli(eigs0)
    tr = eigs0[0].real + eigs0[1].real
    det = (eigs0[0] * eigs0[1]).real
    reports.append(
        FixedPointReport(
            kind="trivial",
            point=(0.0, 0.0),
            eigenvalues=eigs0,
            classification=cls,
            spiral=spiral,
            jury=(1.0 - det, 1.0 - tr + det, 1.0 + tr + det),
        )
    )

    growth = p.theta * p.attack * p.K / (1.0 + p.attack * p.h * p.K) - p.d
    eigs1 = (complex(1.0 - p.r * S), complex(1.0 + S * growth))
    cls, spiral = _classify_moduli(eigs1)
    tr = eigs1[0].real + eigs1[1].real
    det = (eigs1[0] * eigs1[1]).real
    reports.append(
        FixedPointReport(
            kind="predator_free",
            point=(p.K, 0.0),
            eigenvalues=eigs1,
            classification=cls,
            spiral=spiral,
            jury=(1.0 - det, 1.0 - tr + det, 1.0 + tr + det),
        )
    )

    constants = _gain_constants(p)
    if constants is not None:
        G, H, _ = constants
        tr = 2.0 - S * G
        det = 1.0 - S * G + S * S * H
        root = cmath.sqrt(complex(tr * tr - 4.0 * det))
        eigs = ((tr + root) / 2.0, (tr - root) / 2.0)
        cls, spiral = _classify_moduli(eigs)
        reports.append(
            FixedPointReport(
                kind="interior",
                point=interior_point(p),
                eigenvalues=eigs,
                classification=cls,
                spiral=spiral,
                jury=(1.0 - det, 1.0 - tr + det, 1.0 + tr + det),
            )
        )
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

    s4 = inverse_map_gain(G / H, m)
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


def _jury_at_predator_free(p: ModelParams, s: float, m: float):
    S = map_gain(s, m)
    growth = p.theta * p.attack * p.K / (1.0 + p.attack * p.h * p.K) - p.d
    xi1 = 1.0 - p.r * S
    xi2 = 1.0 + S * growth
    tr = xi1 + xi2
    det = xi1 * xi2
    return 1.0 - tr + det, 1.0 + tr + det


def detect_structural_bifurcations(p: ModelParams, m: float) -> list:
    """Locate the structural bifurcations of the map for this parameter set.

    The predator-free point exchanges stability with the interior branch at
    c = c1 (eigenvalue through +1, any step size) and period-doubles at
    (c = c1, s = s5) (eigenvalue through -1); the interior point sheds an
    invariant circle at s = s4 when the unit-modulus set condition holds.
    Every event is reported with the residual of its defining expression,
    which must vanish to 1e-8.
    """
    if not 0.0 < m <= 1.0:
        raise ValueError(f"fractional order must satisfy 0 < m <= 1, got {m!r}")
    events = []
    th = thresholds(p)

    if th.c1 is not None and 0.0 < th.c1 < 1.0:
        at_c1 = replace(p, c=th.c1)
        # at c = c1 the interior constants collapse to G = r, so the flip
        # step coincides with the prey threshold s2
        s_flip = inverse_map_gain(2.0 / p.r, m)
        res_tc, _ = _jury_at_predator_free(at_c1, 0.5 * s_flip, m)
        _, res_flip = _jury_at_predator_free(at_c1, s_flip, m)
        for kind, s_loc, res in (
            ("transcritical", None, abs(res_tc)),
            ("flip", s_flip, abs(res_flip)),
        ):
            if res >= 1e-8:
                raise RuntimeError(f"{kind} residual {res:g} fails the 1e-8 verification")
            events.append(
                BifurcationEvent(kind=kind, equilibrium="predator_free", c=th.c1, s=s_loc, residual=res)
            )

    st = step_thresholds(p, m)
    if st.s4 is not None and st.G < 2.0 * math.sqrt(st.H):
        S = map_gain(st.s4, m)
        det = 1.0 - S * st.G + S * S * st.H
        res = abs(1.0 - det)
        if res >= 1e-8:
            raise RuntimeError(f"hopf residual {res:g} fails the 1e-8 verification")
        events.append(
            BifurcationEvent(kind="hopf", equilibrium="interior", c=p.c, s=st.s4, residual=res)
        )
    return events
