"""Special functions backing the fractional-order machinery.

Two entry points: the gamma function restricted to the positive axis (all
uses here have arguments in (0, 10]) and the one-parameter Mittag-Leffler
function E_m(z), which plays the role of exp() for Caputo derivatives of
order m.

E_m(-x) for x > 0 is the Bromwich integral

    E_m(-x) = 1/(2 pi i) integral_C e^s s^(m-1) / (s^m + x) ds

over a contour C around the branch cut (-inf, 0].  For 0 < m < 1 the
integrand has no pole on the principal sheet, so the trapezoid rule on the
parabola s(u) = mu (1 + iu)^2 converges geometrically (Weideman & Trefethen,
Math. Comp. 76, 2007; Garrappa, SIAM J. Numer. Anal. 53, 2015) and one fixed
set of 29 nodes reaches about 1e-15 absolute for every m and x.  The powers
s_k^m at the nodes depend only on m and are computed once per order.  The
rule and its step-2h check, the two rows of one matrix, are applied in one
product and must agree within _TOL.  Every caller needs E_m only at z <= 0,
so for m < 1 a positive argument is rejected; E_1 = exp takes every z.
"""

import math

import numpy as np

__all__ = ["MittagLefflerError", "gamma_fn", "mittag_leffler"]

# Absolute error budget of mittag_leffler: the most the contour rule may
# differ from its step-2h rule.
_TOL = 1e-10

# Trapezoid rule on s(u) = mu (1 + iu)^2 at u = k h, k = 0 .. _NODES.  The
# integrand at -u is the conjugate of that at u, so the rule on the whole
# line is twice the real part of the rule on u >= 0 (half weight at k = 0).
_NODES = 28
_MU = 0.15 * _NODES
_STEP = 2.75 / _NODES


def _contour_rule():
    """log s at the nodes and the weights of E_m(-x) = Re sum w_k r_k, with
    r_k = s_k^m / (s_k^m + x): row 0 of step h, row 1 of step 2h (even k)."""
    u = np.arange(_NODES + 1) * _STEP
    s = _MU * (1.0 + 1j * u) ** 2
    ds = 2j * _MU * (1.0 + 1j * u)
    weights = np.exp(s) * ds * (_STEP / (math.pi * 1j)) / s
    weights[0] *= 0.5
    rules = np.array([weights, 2.0 * weights])
    rules[1, 1::2] = 0.0
    return np.log(s), rules


_LOG_S, _RULES = _contour_rule()

# (m, s_k^m) of the last order quad saw.  A new order rebinds the whole
# tuple, so a concurrent caller never pairs one order with another's powers;
# the array is never written after it is published.
_POWERS = (None, None)


class MittagLefflerError(ArithmeticError):
    """The contour rule differs from its step-2h rule by more than _TOL."""


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0."""
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x!r}")
    return math.gamma(x)


def _check_order(m: float) -> None:
    """The package's one check of a fractional order m."""
    if not 0.0 < m <= 1.0:
        raise ValueError(f"fractional order must satisfy 0 < m <= 1, got {m!r}")


def quad(m: float, x: float) -> float:
    """E_m(-x) for x > 0, 0 < m < 1, by the trapezoid rule on the parabolic
    contour.

    The powers s_k^m are computed once per order and reused while
    consecutive calls keep that order.  One matrix-vector product applies
    the rules of steps h and 2h, the rows of _RULES; when they differ by
    more than _TOL the result is not trusted and MittagLefflerError is raised.
    """
    global _POWERS
    order, powers = _POWERS
    if order != m:
        powers = np.exp(m * _LOG_S)
        _POWERS = (m, powers)
    fine, coarse = _RULES.dot(powers / (powers + x)).real.tolist()
    if not abs(fine - coarse) <= _TOL:
        raise MittagLefflerError(
            f"contour rule for E_{m}(-{x}) differs from its step-2h rule by "
            f"{abs(fine - coarse):.3g} > tol={_TOL}"
        )
    return fine


def mittag_leffler(m: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_m(z) = sum z^k / Gamma(m k + 1).

    E_1 reduces to exp for every z, and E_m(0) = 1.  For m < 1 a negative
    argument goes to the contour rule (quad): absolute error about 1e-15 for
    every x, checked against _TOL by the step-2h rule.  For m < 1 a positive
    argument raises ValueError, as does a NaN argument.
    """
    _check_order(m)
    if z < 0.0 and m < 1.0:
        return quad(m, -z)
    if math.isnan(z):
        raise ValueError(f"z must not be NaN, got {z!r}")
    if m == 1.0:
        return math.exp(z)
    if z == 0.0:
        return 1.0
    raise ValueError(f"E_m(z) with m < 1 is defined here only for z <= 0, got m={m!r}, z={z!r}")
