"""Stability machinery for the continuous fractional-order system.

An equilibrium of a Caputo system of order m is asymptotically stable when
every eigenvalue of the linearization keeps |arg| above m*pi/2, so lowering
the order enlarges the stability region.  This module houses that argument
test, its Routh-Hurwitz-style coefficient form, the critical order at which
a complex pair crosses the boundary (fractional Hopf bifurcation), the
per-equilibrium classification, the sufficient-condition checks for global
stability, and the Mittag-Leffler boundedness envelope.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .model import (
    Equilibrium,
    ModelParams,
    ParameterError,
    equilibria,
    jacobian,
    thresholds,
)
from .special import _check_order, mittag_leffler

__all__ = [
    "CriticalOrder",
    "GlobalStabilityFlags",
    "NonhyperbolicError",
    "StabilityReport",
    "boundedness_envelope",
    "classify_equilibria",
    "critical_order",
    "global_stability_check",
    "matignon_stable",
    "routh_hurwitz_fractional",
]

# |arg| within this of m*pi/2 (or an eigenvalue this close to 0) is treated
# as sitting on the boundary when classifying.
_BOUNDARY_BAND = 1e-12


class NonhyperbolicError(ValueError):
    """The test is inconclusive: an eigenvalue sits on the critical set."""


@dataclass(frozen=True)
class StabilityReport:
    """Classification of one equilibrium at a given fractional order.

    valid_orders is the maximal sub-interval of (0, 1] over which the same
    classification holds (endpoints themselves are boundary orders);
    m_star is set only when an order-driven stability switch exists.
    """

    equilibrium: Equilibrium
    eigenvalues: tuple
    classification: str  # "stable" | "unstable" | "saddle" | "nonhyperbolic"
    valid_orders: tuple
    m_star: Optional[float] = None


@dataclass(frozen=True)
class CriticalOrder:
    """Result of the critical-order computation.

    reason is "hopf" when value is set, otherwise "stable-for-all-m" or
    "unstable-for-all-m" explains why no switch exists.
    """

    value: Optional[float]
    reason: str


@dataclass(frozen=True)
class GlobalStabilityFlags:
    """Sufficient-condition checks only: False means "not guaranteed by the
    checked hypotheses", never "not globally stable"."""

    E1_global: bool
    Estar_global: bool


def matignon_stable(eigs, m: float) -> bool:
    """True iff the argument test classifies the eigenvalues as stable: every
    |arg| above m*pi/2 by more than the boundary band."""
    _check_order(m)
    if any(complex(lam) == 0 for lam in eigs):
        raise NonhyperbolicError("zero eigenvalue: neither stable nor unstable")
    return _classify_eigs(eigs, m) == "stable"


def routh_hurwitz_fractional(a1: float, a2: float, m: float) -> bool:
    """Stability of xi^2 + a1 xi + a2 = 0 straight from the coefficients.

    Real-root case (a1^2 >= 4 a2): both roots negative iff a1 > 0, a2 > 0.
    Complex case: the root pair has |arg| = atan2(sqrt(4 a2 - a1^2), -a1),
    compared strictly against m*pi/2 (the two-argument form resolves the
    sign ambiguity a printed single-argument arctangent would have for
    a1 < 0).  It stays a route of its own, apart from the argument test, so
    that each can check the other.
    """
    _check_order(m)
    if a2 == 0.0:
        raise NonhyperbolicError("a2 = 0 gives a zero root: test inconclusive")
    disc = a1 * a1 - 4.0 * a2
    if disc >= 0.0:
        return a1 > 0.0 and a2 > 0.0
    return math.atan2(math.sqrt(-disc), -a1) > m * math.pi / 2.0


def critical_order(p: ModelParams) -> CriticalOrder:
    """Order m* at which the coexistence state loses stability.

    Defined by |arg| of the complex eigenvalue pair hitting m*pi/2, i.e.
    m* = (2/pi) |acos(trace / (2 sqrt(det)))|, and only meaningful when
    0 < trace < 2 sqrt(det) at the interior equilibrium.
    """
    interior = equilibria(p)[2]
    if not interior.exists:
        raise ValueError("no interior equilibrium for these parameters")
    jac = jacobian(p, interior.point)
    tr, det = jac.trace, jac.det
    if tr <= 0.0:
        return CriticalOrder(value=None, reason="stable-for-all-m")
    if tr >= 2.0 * math.sqrt(det):
        return CriticalOrder(value=None, reason="unstable-for-all-m")
    m_star = (2.0 / math.pi) * abs(math.acos(tr / (2.0 * math.sqrt(det))))
    return CriticalOrder(value=m_star, reason="hopf")


def _classify_eigs(eigs, m: float) -> str:
    half = m * math.pi / 2.0
    args = []
    for lam in eigs:
        lam = complex(lam)
        if abs(lam) <= _BOUNDARY_BAND:
            return "nonhyperbolic"
        args.append(abs(cmath.phase(lam)))
    if any(abs(a - half) <= _BOUNDARY_BAND for a in args):
        return "nonhyperbolic"
    flags = [a > half for a in args]
    if all(flags):
        return "stable"
    if not any(flags):
        return "unstable"
    return "saddle"


def classify_equilibria(p: ModelParams, m: float) -> list:
    """Stability report for every equilibrium at fractional order m.

    Extinction is a saddle for every admissible parameter set; the
    predator-free state is order-independent (stable iff complexity exceeds
    c1); the interior state is classified through the argument test, with
    its order-validity interval and critical order attached.
    """
    _check_order(m)
    reports = []
    e0, e1, interior = equilibria(p)

    reports.append(
        StabilityReport(
            equilibrium=e0,
            eigenvalues=(complex(p.r), complex(-p.d)),
            classification="saddle",
            valid_orders=(0.0, 1.0),
        )
    )

    growth = jacobian(p, e1.point).a22
    reports.append(
        StabilityReport(
            equilibrium=e1,
            eigenvalues=(complex(-p.r), complex(growth)),
            classification=_classify_eigs((-p.r, growth), m),
            valid_orders=(0.0, 1.0),
        )
    )

    if interior.exists:
        jac = jacobian(p, interior.point)
        eigs = jac.eigenvalues
        order_switch = critical_order(p)
        if order_switch.value is None:
            valid = (0.0, 1.0)
        elif m < order_switch.value:
            valid = (0.0, order_switch.value)
        else:
            valid = (order_switch.value, 1.0)
        reports.append(
            StabilityReport(
                equilibrium=interior,
                eigenvalues=eigs,
                classification=_classify_eigs(eigs, m),
                valid_orders=valid,
                m_star=order_switch.value,
            )
        )
    return reports


def global_stability_check(p: ModelParams) -> GlobalStabilityFlags:
    """Evaluate the two sufficient global-stability hypotheses.

    Predator-free: c > c1 with theta > theta1.  Interior: c2 < c < c1 with
    theta > theta2 and alpha > 1/(K h).  Both hold for every order in (0, 1].
    """
    th = thresholds(p)
    e1 = (
        th.c1 is not None
        and p.c > th.c1
        and p.theta > th.theta1
    )
    interior = (
        th.c1 is not None
        and th.c2 is not None
        and th.theta2 is not None
        and th.c2 < p.c < th.c1
        and p.theta > th.theta2
        and p.alpha > 1.0 / (p.K * p.h)
    )
    return GlobalStabilityFlags(E1_global=e1, Estar_global=interior)


def boundedness_envelope(p: ModelParams, m: float, eta: float, V0: float, t: float) -> float:
    """Upper bound for V(t) = x(t) + y(t)/theta along any solution started in
    the positive quadrant:

        (V0 - l/eta) E_m(-eta t^m) + l/eta,   l = K (r + eta)^2 / (4 r)

    valid for any damping rate 0 < eta < d.
    """
    if not 0.0 < eta < p.d:
        raise ParameterError(f"eta must satisfy 0 < eta < d={p.d}, got {eta!r}")
    # the negated chain also rejects NaN; an infinite V0 would give inf * 0 = NaN at t = inf
    if not 0.0 <= V0 < math.inf:
        raise ParameterError(f"V0 must be finite and >= 0, got {V0!r}")
    if not t >= 0.0:
        raise ParameterError(f"t must be >= 0, got {t!r}")
    level = p.K * (p.r + eta) ** 2 / (4.0 * p.r) / eta
    return (V0 - level) * mittag_leffler(m, -eta * t**m) + level
