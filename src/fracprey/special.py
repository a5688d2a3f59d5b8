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
set of 29 nodes reaches about 1e-15 absolute for every m and x.  The power
series serves only z > 0.
"""

import math

import numpy as np

__all__ = ["MittagLefflerError", "gamma_fn", "mittag_leffler"]

# Absolute error budget of mittag_leffler.  Partial sums are trusted only
# while their largest term stays below _SERIES_TERM_CAP: past it, rounding of
# terms that size (and of the peak's lgamma argument) eats the budget.
_TOL = 1e-10
_SERIES_TERM_CAP = 1e3
_MAX_TERMS = 20_000

# Trapezoid rule on s(u) = mu (1 + iu)^2 at u = k h, k = 0 .. _NODES.  The
# integrand at -u is the conjugate of that at u, so the rule on the whole
# line is twice the real part of the rule on u >= 0 (half weight at k = 0).
_NODES = 28
_MU = 0.15 * _NODES
_STEP = 2.75 / _NODES


def _contour_rule():
    """log s at the nodes and the weights w_k of E_m(-x) = Re sum w_k r_k,
    r_k = s_k^m / (s_k^m + x), for steps h and 2h (the even nodes)."""
    u = np.arange(_NODES + 1) * _STEP
    s = _MU * (1.0 + 1j * u) ** 2
    ds = 2j * _MU * (1.0 + 1j * u)
    weights = np.exp(s) * ds * (_STEP / (math.pi * 1j)) / s
    weights[0] *= 0.5
    return np.log(s), weights, 2.0 * weights[::2]


_LOG_S, _WEIGHTS, _COARSE_WEIGHTS = _contour_rule()


class MittagLefflerError(ArithmeticError):
    """Requested tolerance not met by the series or the contour rule."""


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0."""
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x!r}")
    return math.gamma(x)


def _check_order(m: float) -> None:
    """The package's one check of a fractional order m."""
    if not 0.0 < m <= 1.0:
        raise ValueError(f"fractional order must satisfy 0 < m <= 1, got {m!r}")


def _series(m: float, z: float, tol: float):
    """Sum z^k / Gamma(m k + 1) directly for z > 0.

    Returns None when the peak term exceeds the float64 safety cap.  Terms
    are built in log space so no intermediate power overflows.
    """
    total = 1.0  # k = 0
    log_z = math.log(z)
    prev = 1.0
    for k in range(1, _MAX_TERMS):
        log_t = k * log_z - math.lgamma(m * k + 1.0)
        if log_t > math.log(_SERIES_TERM_CAP):
            return None
        t = math.exp(log_t)
        total += t
        if t < 0.1 * tol and t < prev:
            # past the peak the terms decay monotonically
            return total
        prev = t
    raise MittagLefflerError(
        f"series for E_{m}({z}) did not reach tol={tol} within {_MAX_TERMS} terms"
    )


def quad(m: float, x: float, tol: float) -> float:
    """E_m(-x) for x > 0, 0 < m < 1, by the trapezoid rule on the parabolic
    contour.

    The even nodes form the rule of step 2h on the same contour; when the two
    rules differ by more than tol the result is not trusted and
    MittagLefflerError is raised.
    """
    ratio = np.exp(m * _LOG_S)
    ratio /= ratio + x
    fine = (_WEIGHTS @ ratio).real
    coarse = (_COARSE_WEIGHTS @ ratio[::2]).real
    if not abs(fine - coarse) <= tol:
        raise MittagLefflerError(
            f"contour rule for E_{m}(-{x}) differs from its step-2h rule by "
            f"{abs(fine - coarse):.3g} > tol={tol}"
        )
    return float(fine)


def mittag_leffler(m: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_m(z) = sum z^k / Gamma(m k + 1).

    E_1 reduces to exp and E_m(0) = 1.  A negative argument goes to the
    contour rule (quad): absolute error about 1e-15 for every x, checked
    against _TOL by the step-2h rule.  A positive argument goes to the power
    series, which raises MittagLefflerError where it cannot reach _TOL.
    """
    _check_order(m)
    if m == 1.0:
        return math.exp(z)
    if z == 0.0:
        return 1.0
    if z < 0.0:
        return quad(m, -z, _TOL)
    val = _series(m, z, _TOL)
    if val is None:
        raise MittagLefflerError(
            f"E_{m}({z}): positive argument outside the series-safe region"
        )
    return val
