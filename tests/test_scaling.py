"""Exact scaling relations of the model, on every CPU.

Scaling both populations by lam maps the model at (x, y, K, alpha) to the
model at (lam x, lam y, lam K, alpha / lam) with r, h, theta, c and d
unchanged: the field scales by lam, and so does every state of a PECE solve,
of a map orbit and of a sweep, while the thresholds, eigenvalues, orders and
step sizes do not change.  For lam a power of two every float operation of
the field, the history convolution and the map commutes exactly with the
scaling, outside subnormals and overflow, so each relation is checked with
np.array_equal or ==, never at a tolerance.  Both sides of a relation run on
one CPU, so unlike a pinned hash it holds under every numpy and BLAS
dispatch.

The relations catch an absolute constant where a relative one belongs (a
merge radius, a literal carrying capacity) and a parameter of another
dimension read in place of the right one.  ESCAPE_BOUND is absolute, so
every orbit and solve here stays far inside it.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracprey import (
    DiscreteConfig,
    ModelParams,
    SolverConfig,
    classify_equilibria,
    classify_fixed_points,
    cluster_count,
    critical_order,
    iterate_orbit,
    pece_solve,
    stability_region_cm,
    step_thresholds,
    sweep_step_size,
    thresholds,
    vector_field,
)

from conftest import BASE

# lam = 2^k for k in [-10, 10]
POWERS = st.integers(-10, 10).map(lambda k: 2.0**k)
# the three regimes of conftest: predator-free attractor, stable coexistence,
# order-dependent coexistence
COMPLEXITIES = st.sampled_from([0.86, 0.45, 0.05])
ORDERS = st.sampled_from([0.8, 0.95, 1.0])
EXACT = dict(deadline=None, database=None, derandomize=True)


def model(c: float, lam: float = 1.0) -> ModelParams:
    """The conftest model at complexity c, its populations scaled by lam."""
    return ModelParams(c=c, **dict(BASE, K=BASE["K"] * lam, alpha=BASE["alpha"] / lam))


def outcome(call, *args):
    """What call(*args) returns, or the type and message of its ValueError."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def unscaled(point, lam: float):
    """A point of the scaled model brought back by 1/lam; None stays None."""
    return None if point is None else tuple(v / lam for v in point)


class TestSolves:
    @settings(max_examples=24, **EXACT)
    @given(lam=POWERS, c=COMPLEXITIES, m=ORDERS, sweeps=st.sampled_from([1, 3]))
    def test_model_field(self, lam, c, m, sweeps):
        # 3,000 steps: the history convolution runs through several FFT levels
        cfg = SolverConfig(step=0.05, horizon=150.0, corrector_sweeps=sweeps)
        base = pece_solve(vector_field(model(c)), (10.0, 5.0), m, cfg)
        scaled = pece_solve(vector_field(model(c, lam)), (10.0 * lam, 5.0 * lam), m, cfg)
        assert np.array_equal(scaled.times, base.times)
        assert np.array_equal(scaled.states, lam * base.states)

    @settings(max_examples=6, **EXACT)
    @given(lam=POWERS, c=COMPLEXITIES, m=ORDERS)
    def test_named_loop(self, lam, c, m):
        # a plain callable is not the model's field object: the loop on named floats
        cfg = SolverConfig(step=0.05, horizon=100.0)

        def solve(p, x0):
            field = vector_field(p)
            return pece_solve(lambda u: field(u), x0, m, cfg).states

        scaled = solve(model(c, lam), (10.0 * lam, 5.0 * lam))
        assert np.array_equal(scaled, lam * solve(model(c), (10.0, 5.0)))

    @settings(max_examples=4, **EXACT)
    @given(lam=POWERS, m=ORDERS)
    def test_vector_loop(self, lam, m):
        # five models side by side: 10 components, above pece._MAX_NAMED
        starts = np.array([10.0, 5.0, 300.0, 60.0, 50.0, 20.0, 700.0, 3.0, 120.0, 90.0])
        complexities = (0.86, 0.45, 0.05, 0.3, 0.6)
        cfg = SolverConfig(step=0.05, horizon=50.0)

        def solve(scale):
            fields = [vector_field(model(c, scale)) for c in complexities]

            def rhs(u):
                return np.concatenate([f(u[2 * i : 2 * i + 2]) for i, f in enumerate(fields)])

            return pece_solve(rhs, scale * starts, m, cfg).states

        assert np.array_equal(solve(lam), lam * solve(1.0))


class TestClosedForms:
    @settings(max_examples=30, **EXACT)
    @given(lam=POWERS, c=COMPLEXITIES, m=ORDERS, s=st.sampled_from([0.05, 0.3, 0.7, 0.9]))
    def test_reports_agree_value_for_value(self, lam, c, m, s):
        base, scaled = model(c), model(c, lam)
        assert thresholds(scaled) == thresholds(base)
        assert step_thresholds(scaled, m) == step_thresholds(base, m)
        # at c = 0.86 both raise: there is no interior equilibrium
        assert outcome(critical_order, scaled) == outcome(critical_order, base)
        assert [replace(r, equilibrium=replace(r.equilibrium, point=unscaled(r.equilibrium.point, lam)))
                for r in classify_equilibria(scaled, m)] == classify_equilibria(base, m)
        assert [replace(r, point=unscaled(r.point, lam))
                for r in classify_fixed_points(scaled, s, m)] == classify_fixed_points(base, s, m)

    @settings(max_examples=8, **EXACT)
    @given(lam=POWERS)
    def test_region(self, lam):
        # 0.005 to 0.2 crosses c2 ~ 0.1227: points and skipped values both
        scaled = stability_region_cm(model(0.005, lam), 0.2, 24)
        assert scaled == stability_region_cm(model(0.005), 0.2, 24)


class TestMap:
    # (c, s, m, x0) of orbits that stay bounded at every lam, from starts off the axes
    ORBITS = [
        (0.86, 0.3, 0.95, (10.0, 5.0)),
        (0.86, 0.7, 0.9, (300.0, 40.0)),
        (0.45, 0.17, 0.9, (250.0, 100.0)),
        (0.45, 0.3, 0.95, (10.0, 5.0)),
        (0.45, 0.5, 0.9, (10.0, 5.0)),
        (0.05, 0.1, 1.0, (50.0, 20.0)),
        (0.05, 0.17, 0.95, (10.0, 5.0)),
    ]

    @settings(max_examples=24, **EXACT)
    @given(lam=POWERS, case=st.sampled_from(ORBITS))
    def test_orbit(self, lam, case):
        c, s, m, x0 = case
        cfg = DiscreteConfig(s=s, m=m, iterations=3000)
        base = iterate_orbit(model(c), cfg, x0)
        scaled = iterate_orbit(model(c, lam), cfg, tuple(lam * v for v in x0))
        assert not base.escaped and not scaled.escaped
        assert np.array_equal(scaled.states, lam * base.states)

    @settings(max_examples=12, **EXACT)
    @given(lam=POWERS, m=st.sampled_from([0.9, 0.95]), follow=st.booleans())
    def test_interior_sweep(self, lam, m, follow):
        # the interior point's Neimark-Sacker step s4 lies inside [0.1, 0.3]:
        # fixed points below it, invariant circles above
        options = dict(transient=300, n_samples=40, follow=follow, kick=1e-3 if follow else 0.0)
        base = sweep_step_size(model(0.45), m, 0.1, 0.3, 6, **options)
        scaled = sweep_step_size(model(0.45, lam), m, 0.1, 0.3, 6, x0=(10.0 * lam, 5.0 * lam), **options)
        assert not any(base.escaped) and scaled.escaped == base.escaped
        assert np.array_equal(scaled.parameter_values, base.parameter_values)
        assert scaled.events == base.events
        for ours, theirs in zip(scaled.samples, base.samples, strict=True):
            assert np.array_equal(ours, lam * theirs)
            assert cluster_count(ours) == cluster_count(theirs)
