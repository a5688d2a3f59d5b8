"""Predator-prey vector field with habitat complexity.

Prey grows logistically and is consumed through a saturating functional
response whose attack rate alpha is damped by the habitat-complexity factor
(1 - c); the predator converts captures with efficiency theta and dies at
rate d:

    x' = r x (1 - x/K) - alpha (1-c) x y / (1 + alpha (1-c) h x)
    y' = theta alpha (1-c) x y / (1 + alpha (1-c) h x) - d y

This module carries the parameter record, the field and its analytic
Jacobian, the equilibria, and the closed-form complexity / conversion
thresholds that organize which equilibria exist and attract.
"""

import cmath
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
    "rhs",
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


def _field(p: ModelParams) -> Callable:
    """The field on plain floats, rates(x, y) -> (dx, dy), with the
    parameters bound once.  The formula has one other copy, written out in
    the map kernel of discrete._map_kernel; the parity tests pin the two bit
    for bit.  At the prey pole x = -1/(alpha (1 - c) h) rates raises
    ZeroDivisionError."""
    r, K, a, h, theta, d = p.r, p.K, p.attack, p.h, p.theta, p.d
    ah = a * h

    def rates(x: float, y: float) -> tuple:
        capture = a * x * y / (1.0 + ah * x)
        return r * x * (1.0 - x / K) - capture, theta * capture - d * y

    return rates


class _VectorField:
    """The field as pece_solve expects it: called on a state array it returns
    the rate array; its rates attribute is the float closure of _field."""

    __slots__ = ("rates",)

    def __init__(self, p: ModelParams):
        self.rates = _field(p)

    def __call__(self, state) -> np.ndarray:
        return np.array(self.rates(float(state[0]), float(state[1])))


def rhs(p: ModelParams, state) -> np.ndarray:
    """Rate vector (dx, dy) at a nonnegative state."""
    return _VectorField(p)(state)


def vector_field(p: ModelParams) -> Callable:
    """The field as a single-argument callable on state arrays, as pece_solve
    expects; pece_solve calls its float closure (the rates attribute) directly."""
    return _VectorField(p)


def jacobian(p: ModelParams, state) -> Jacobian2:
    """Analytic partial derivatives of the field at a state."""
    x, y = float(state[0]), float(state[1])
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
