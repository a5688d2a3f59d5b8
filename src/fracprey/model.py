"""Predator-prey vector field with habitat complexity.

Prey grows logistically and is consumed through a saturating functional
response whose attack rate alpha is damped by the habitat-complexity factor
(1 - c); the predator converts captures with efficiency theta and dies at
rate d:

    x' = r x (1 - x/K) - alpha (1-c) x y / (1 + alpha (1-c) h x)
    y' = theta alpha (1-c) x y / (1 + alpha (1-c) h x) - d y

This module carries the parameter record, the field and its analytic
Jacobian, the equilibria, and the closed-form complexity / conversion
thresholds that organize which equilibria exist and attract.  vector_field
is the one way into the field, and _pair the one check of a state.
"""

import cmath
import linecache
import textwrap
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Equilibrium",
    "Jacobian2",
    "ModelParams",
    "ParameterError",
    "Thresholds",
    "equilibria",
    "jacobian",
    "thresholds",
    "vector_field",
]


class ParameterError(ValueError):
    """A model parameter violated its admissible range."""


@dataclass(frozen=True)
class ModelParams:
    """The seven ecological parameters.

    r: intrinsic prey growth rate; K: carrying capacity; alpha: maximum
    attack rate; h: handling time; theta: conversion efficiency in (0, 1);
    c: degree of habitat complexity in [0, 1); d: predator death rate.
    """

    r: float
    K: float
    alpha: float
    h: float
    theta: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("r", "K", "alpha", "h", "d"):
            if not 0 < getattr(self, name) < np.inf:
                raise ParameterError(f"{name} must be > 0 and finite, got {getattr(self, name)!r}")
        if not 0.0 <= self.c < 1.0:
            raise ParameterError(f"c must satisfy 0 <= c < 1, got {self.c!r}")
        if not 0.0 < self.theta < 1.0:
            raise ParameterError(f"theta must satisfy 0 < theta < 1, got {self.theta!r}")

    @property
    def attack(self) -> float:
        """Effective attack rate alpha (1 - c)."""
        return self.alpha * (1.0 - self.c)


@dataclass(frozen=True)
class Equilibrium:
    kind: str  # "trivial" | "predator_free" | "interior"
    point: Optional[tuple]
    exists: bool


@dataclass(frozen=True)
class Thresholds:
    """Habitat-complexity and conversion-efficiency thresholds.

    c1/theta1 gate existence of the coexistence state (it exists for
    c < c1, theta > theta1); c2/theta2 gate the sign of its trace.  Each is
    None when its guard (theta > h d, or alpha K h > 1) fails.
    """

    c1: Optional[float]
    theta1: float
    c2: Optional[float]
    theta2: Optional[float]


@dataclass(frozen=True)
class Jacobian2:
    """2x2 Jacobian with closed-form spectral data."""

    a11: float
    a12: float
    a21: float
    a22: float

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def discriminant(self) -> float:
        return self.trace**2 - 4.0 * self.det

    @property
    def eigenvalues(self) -> tuple:
        root = cmath.sqrt(complex(self.discriminant))
        return ((self.trace + root) / 2.0, (self.trace - root) / 2.0)


# The field, written once: the capture term at the state (x, y), then the
# rates dx and dy, which read it as the local capture.  Every float loop of
# the package (the rates closure here, the map kernel of discrete and the
# model's PECE step of pece) is compiled by _compile from a template that
# splices these expressions in, so that each runs the same operations in the
# same order and makes no Python call per evaluation.
_FIELD = {
    "capture": "a * x * y / (1.0 + ah * x)",
    "dx": "(r * x * (1.0 - x / K) - capture)",
    "dy": "(theta * capture - d * y)",
}


def _exec_factory(name: str, params: tuple, body: str, doc: str, namespace: Optional[dict] = None) -> Callable:
    """Compile the factory name(*params) whose body is the source body.

    namespace holds the globals that body reads, and the source is
    registered with linecache for tracebacks and profilers."""
    source = "\n".join([f"def {name}({', '.join(params)}):", textwrap.indent(body, "    "), ""])
    filename = f"<fracprey {name}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope = dict(namespace or {})
    exec(compile(source, filename, "exec"), scope)
    factory = scope[name]
    factory.__doc__ = doc
    return factory


def _compile(name: str, args: tuple, body: str, doc: str, namespace: Optional[dict] = None) -> Callable:
    """Compile the factory name(p, *args) of a float loop on the field.

    The factory binds the parameters of p to the locals r, K, a (the
    effective attack rate), ah = a h, theta and d, and then runs body, in
    which {capture}, {dx} and {dy} stand for the expressions of _FIELD at
    the state named x, y.  body is compiled here, once, when the module that
    defines the loop is imported (as dataclasses and namedtuple build their
    methods).  body returns closures, so that a factory call only makes
    closures and every closure of one template shares one code object, or
    runs its loop itself, on locals only.  namespace holds the globals that
    body reads."""
    body = "\n".join([
        "r, K, a, theta, d = p.r, p.K, p.attack, p.theta, p.d",
        "ah = a * p.h",
        textwrap.dedent(body).strip("\n").format(**_FIELD),
    ])
    return _exec_factory(name, ("p",) + args, body, doc, namespace)


_field = _compile(
    "_field",
    (),
    """
    def rates(x, y):
        capture = {capture}
        return {dx}, {dy}
    return rates
    """,
    """The field on plain floats, rates(x, y) -> (dx, dy), with the
    parameters of p bound once.  At the prey pole x = -1/(alpha (1 - c) h)
    rates raises ZeroDivisionError.""",
)


def _pair(state) -> np.ndarray:
    """The package's one state check: a state as a float array (x, y);
    ValueError for any other shape."""
    pair = np.asarray(state, dtype=float)
    if pair.shape != (2,):
        raise ValueError(f"a state must be a pair (x, y), got shape {pair.shape}")
    return pair


class _VectorField:
    """The field as pece_solve expects it: called on a state pair it returns
    the rate array, and ValueError for any other state; its rates attribute
    is the float closure of _field, and params, from which pece_solve
    compiles its own step loop, is p."""

    __slots__ = ("params", "rates")

    def __init__(self, p: ModelParams):
        self.params = p
        self.rates = _field(p)

    def __call__(self, state) -> np.ndarray:
        return np.array(self.rates(*_pair(state).tolist()))


def vector_field(p: ModelParams) -> Callable:
    """The one way into the model's field: a single-argument callable that
    maps a state pair (x, y) to its rate array (dx, dy), as pece_solve
    expects; pece_solve steps it in a loop with the field inlined."""
    return _VectorField(p)


def jacobian(p: ModelParams, state) -> Jacobian2:
    """Analytic partial derivatives of the field at a state."""
    x, y = _pair(state).tolist()
    a = p.attack
    denom = 1.0 + a * p.h * x
    return Jacobian2(
        a11=p.r - 2.0 * p.r * x / p.K - a * y / denom**2,
        a12=-a * x / denom,
        a21=p.theta * a * y / denom**2,
        a22=p.theta * a * x / denom - p.d,
    )


def interior_point(p: ModelParams) -> Optional[tuple]:
    """Coexistence state (x*, y*), or None when the algebra degenerates.

    x* solves the predator nullcline; it is a feasible equilibrium only for
    x* in (0, K), which this function does not enforce (see equilibria).
    Existence is decided on x* directly rather than on the (c1, theta1)
    inequalities: equivalent, but safe near theta -> h d where the threshold
    formulas blow up.
    """
    margin = p.theta - p.h * p.d
    if margin <= 0.0:
        return None
    x_star = p.d / (p.attack * margin)
    y_star = p.r * (p.K - x_star) * (1.0 + p.attack * p.h * x_star) / (p.attack * p.K)
    return (x_star, y_star)


def equilibria(p: ModelParams) -> list:
    """All equilibria: extinction, predator-free, and (when feasible) interior.

    The interior entry carries exists=False with point=None when x* falls
    outside (0, K) or the predator cannot subsist at all (theta <= h d);
    the boundary x* = K itself counts as non-existing.
    """
    out = [
        Equilibrium(kind="trivial", point=(0.0, 0.0), exists=True),
        Equilibrium(kind="predator_free", point=(p.K, 0.0), exists=True),
    ]
    pt = interior_point(p)
    if pt is not None and 0.0 < pt[0] < p.K:
        out.append(Equilibrium(kind="interior", point=pt, exists=True))
    else:
        out.append(Equilibrium(kind="interior", point=None, exists=False))
    return out


def thresholds(p: ModelParams) -> Thresholds:
    """Evaluate the four closed-form thresholds, None where a guard fails."""
    hd = p.h * p.d
    margin = p.theta - hd
    akh = p.alpha * p.K * p.h
    theta1 = hd + p.d / (p.alpha * p.K)
    c1 = 1.0 - p.d / (p.alpha * p.K * margin) if margin > 0.0 else None
    theta2 = hd * (akh + 1.0) / (akh - 1.0) if akh > 1.0 else None
    c2 = 1.0 - (p.theta + hd) / (akh * margin) if (margin > 0.0 and akh > 1.0) else None
    return Thresholds(c1=c1, theta1=theta1, c2=c2, theta2=theta2)
