import os
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracprey
from fracprey import (
    ModelParams,
    ParameterError,
    equilibria,
    jacobian,
    thresholds,
    vector_field,
)
from fracprey.discrete import _map_kernel
from fracprey.pece import _pair_steps
from conftest import BASE


def reference_rates(p, x, y):
    """The field as it was written before its parameters were bound once:
    the operation order the trajectories' golden hashes were computed with."""
    a = p.attack
    denom = 1.0 + a * p.h * x
    capture = a * x * y / denom
    return p.r * x * (1.0 - x / p.K) - capture, p.theta * capture - p.d * y


# admissible parameter sets over a few decades of each rate
admissible_params = st.builds(
    ModelParams,
    r=st.floats(0.05, 5.0),
    K=st.floats(1.0, 1e4),
    alpha=st.floats(1e-3, 1.0),
    h=st.floats(1e-3, 1.0),
    theta=st.floats(0.01, 0.99),
    c=st.floats(0.0, 0.99),
    d=st.floats(0.01, 5.0),
)


def finite_difference_jacobian(p, state):
    state = np.asarray(state, dtype=float)
    out = np.empty((2, 2))
    for j in range(2):
        delta = 1e-6 * max(1.0, abs(state[j]))
        hi = state.copy()
        lo = state.copy()
        hi[j] += delta
        lo[j] -= delta
        out[:, j] = (vector_field(p)(hi) - vector_field(p)(lo)) / (2.0 * delta)
    return out


class TestParams:
    def test_rejects_degenerate_complexity(self):
        with pytest.raises(ParameterError, match="c must"):
            ModelParams(c=1.0, **BASE)

    def test_rejects_conversion_bounds(self):
        bad = dict(BASE, theta=1.0)
        bad.pop("theta", None)
        with pytest.raises(ParameterError, match="theta"):
            ModelParams(r=2.65, K=898.0, alpha=0.045, h=0.0437, theta=1.0, c=0.4, d=1.06)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ParameterError, match="r must"):
            ModelParams(r=0.0, K=898.0, alpha=0.045, h=0.0437, theta=0.215, c=0.4, d=1.06)
        with pytest.raises(ParameterError, match="d must"):
            ModelParams(r=2.65, K=898.0, alpha=0.045, h=0.0437, theta=0.215, c=0.4, d=-1.0)
        with pytest.raises(ParameterError, match="K must be > 0 and finite"):
            ModelParams(r=2.65, K=float("inf"), alpha=0.045, h=0.0437, theta=0.215, c=0.4, d=1.06)


class TestField:
    def test_vanishes_at_origin(self, mid_complexity):
        assert np.all(vector_field(mid_complexity)((0.0, 0.0)) == 0.0)

    def test_vanishes_at_capacity(self, mid_complexity):
        assert np.allclose(vector_field(mid_complexity)((mid_complexity.K, 0.0)), 0.0, atol=1e-12)

    def test_reference_interior_point_is_near_root(self, mid_complexity):
        assert np.all(np.abs(vector_field(mid_complexity)((253.9056, 97.8867))) < 1e-3)

    @pytest.mark.parametrize("regime", ["high_complexity", "mid_complexity", "low_complexity"])
    def test_float_closure_matches_rhs_bit_for_bit(self, request, regime):
        p = request.getfixturevalue(regime)
        field = vector_field(p)
        rng = np.random.RandomState(7)
        for x, y in [(0.0, 0.0), (p.K, 0.0), (10.0, 5.0)] + list(rng.uniform(-10.0, 1000.0, (200, 2))):
            x, y = float(x), float(y)
            rates = field.rates(x, y)
            assert type(rates) is tuple and all(type(v) is float for v in rates)
            assert rates == reference_rates(p, x, y)
            assert np.array_equal(field((x, y)), rates)
            assert np.array_equal(field(np.array([x, y])), rates)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(p=admissible_params)
    def test_vanishes_at_every_existing_equilibrium(self, p):
        field = vector_field(p)
        for eq in equilibria(p):
            if eq.exists:
                x, y = eq.point
                # every term of the field is at most r x or d y at a root
                scale = (1.0 + abs(x) + abs(y)) * (1.0 + p.r + p.d)
                assert max(abs(v) for v in field.rates(x, y)) <= 1e-9 * scale

    # one component and three: neither is a state pair (x, y)
    @pytest.mark.parametrize("state", [[5.0], [1.0, 2.0, 3.0]], ids=["one", "three"])
    def test_state_must_be_a_pair(self, mid_complexity, state):
        with pytest.raises(ValueError, match="must be a pair"):
            vector_field(mid_complexity)(state)
        with pytest.raises(ValueError, match="must be a pair"):
            jacobian(mid_complexity, state)


class TestTemplates:
    def test_each_template_compiles_once(self, high_complexity, mid_complexity):
        # every float loop on the field is compiled when its module is
        # imported; a factory call only makes a closure over that code, and
        # the map kernel, which runs its loop itself, makes none
        p, q = high_complexity, mid_complexity
        assert vector_field(p).rates.__code__ is vector_field(q).rates.__code__
        code = _map_kernel.__code__
        assert code.co_filename == "<fracprey _map_kernel>"
        assert not any(isinstance(const, types.CodeType) for const in code.co_consts)
        assert _map_kernel(p, 0.5, np.zeros((3, 2))) == _map_kernel(q, 0.7, np.zeros((3, 2))) == (2, False)

        def stepper(params, n_steps):
            rows = np.zeros((n_steps + 1, 2))
            sums = np.zeros((n_steps + 1, 2, 2))
            return _pair_steps(params, [1.0, 2.0], 0.1, 0.05, 1, 0.1, rows, rows.copy(), sums, [], np.empty((2, 2)))

        assert stepper(p, 3).__code__ is stepper(q, 5).__code__

    def test_field_is_written_once(self):
        # the capture term appears in the package's sources only in _FIELD
        src = os.path.dirname(fracprey.__file__)
        found = []
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    found += [name for line in fh if "(1.0 + ah * x)" in line]
        assert found == ["model.py"]


class TestJacobian:
    def test_reference_trace_mid_complexity(self, mid_complexity):
        point = equilibria(mid_complexity)[2].point
        assert jacobian(mid_complexity, point).trace == pytest.approx(-0.3398, abs=1e-3)

    def test_reference_scalars_low_complexity(self, low_complexity):
        point = equilibria(low_complexity)[2].point
        jac = jacobian(low_complexity, point)
        assert jac.trace == pytest.approx(0.0437, abs=1e-3)
        assert 2.0 * np.sqrt(jac.det) == pytest.approx(2.7152, abs=1e-3)

    def test_second_diagonal_vanishes_at_interior(self, mid_complexity):
        point = equilibria(mid_complexity)[2].point
        assert abs(jacobian(mid_complexity, point).a22) < 1e-14

    def test_eigenvalues_satisfy_characteristic_equation(self, low_complexity):
        jac = jacobian(low_complexity, (100.0, 40.0))
        for lam in jac.eigenvalues:
            assert abs(lam**2 - jac.trace * lam + jac.det) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.RandomState(7)
        for _ in range(200):
            p = ModelParams(
                r=rng.uniform(0.5, 3.0),
                K=rng.uniform(50.0, 1000.0),
                alpha=rng.uniform(0.01, 0.2),
                h=rng.uniform(0.01, 0.5),
                theta=rng.uniform(0.05, 0.95),
                c=rng.uniform(0.0, 0.95),
                d=rng.uniform(0.1, 2.0),
            )
            state = (rng.uniform(0.0, p.K), rng.uniform(0.0, 200.0))
            jac = jacobian(p, state)
            analytic = np.array([[jac.a11, jac.a12], [jac.a21, jac.a22]])
            numeric = finite_difference_jacobian(p, state)
            assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


class TestEquilibria:
    def test_trivial_and_predator_free_always_exist(self, high_complexity):
        e0, e1, _ = equilibria(high_complexity)
        assert e0.kind == "trivial" and e0.point == (0.0, 0.0) and e0.exists
        assert e1.kind == "predator_free" and e1.point == (high_complexity.K, 0.0) and e1.exists

    def test_interior_absent_at_high_complexity(self, high_complexity):
        interior = equilibria(high_complexity)[2]
        assert not interior.exists and interior.point is None

    def test_interior_reference_point(self, mid_complexity):
        interior = equilibria(mid_complexity)[2]
        assert interior.exists
        assert interior.point[0] == pytest.approx(253.9056, abs=1e-3)
        assert interior.point[1] == pytest.approx(97.8867, abs=1e-3)

    def test_interior_absent_when_conversion_too_small(self):
        p = ModelParams(r=2.65, K=898.0, alpha=0.045, h=0.0437, theta=0.04, c=0.1, d=1.06)
        assert p.theta <= p.h * p.d
        assert not equilibria(p)[2].exists

    def test_existing_equilibria_are_field_roots(self):
        rng = np.random.RandomState(13)
        for _ in range(100):
            p = ModelParams(
                r=rng.uniform(0.5, 3.0),
                K=rng.uniform(50.0, 1000.0),
                alpha=rng.uniform(0.01, 0.2),
                h=rng.uniform(0.01, 0.5),
                theta=rng.uniform(0.05, 0.95),
                c=rng.uniform(0.0, 0.95),
                d=rng.uniform(0.1, 2.0),
            )
            for eq in equilibria(p):
                if eq.exists:
                    scale = 1.0 + np.linalg.norm(eq.point)
                    assert np.linalg.norm(vector_field(p)(eq.point)) <= 1e-9 * scale


class TestThresholds:
    def test_reference_values(self, high_complexity):
        th = thresholds(high_complexity)
        assert th.c1 == pytest.approx(0.8445, abs=5e-4)
        assert th.theta1 == pytest.approx(0.0726, abs=5e-4)
        assert th.c2 == pytest.approx(0.1227, abs=5e-4)
        assert th.theta2 == pytest.approx(0.1673, abs=5e-4)

    def test_interior_existence_matches_threshold_form(self, high_complexity):
        # c > c1 here, so no coexistence state
        th = thresholds(high_complexity)
        assert high_complexity.c > th.c1
        assert not equilibria(high_complexity)[2].exists

    def test_guard_on_saturation_strength(self):
        p = ModelParams(r=2.65, K=898.0, alpha=0.045, h=0.02, theta=0.215, c=0.4, d=1.06)
        assert p.alpha * p.K * p.h < 1.0
        th = thresholds(p)
        assert th.c2 is None and th.theta2 is None
        assert th.c1 is not None and th.theta1 is not None

    def test_guard_on_conversion_margin(self):
        p = ModelParams(r=2.65, K=898.0, alpha=0.045, h=0.0437, theta=0.04, c=0.4, d=1.06)
        th = thresholds(p)
        assert th.c1 is None and th.c2 is None
        assert th.theta1 is not None

    def test_ordering_over_guarded_region(self):
        # c2 < c1 whenever both are defined and theta clears theta2
        rng = np.random.RandomState(11)
        accepted = 0
        while accepted < 300:
            p_kwargs = dict(
                r=rng.uniform(0.5, 3.0),
                K=rng.uniform(50.0, 1000.0),
                alpha=rng.uniform(0.01, 0.2),
                h=rng.uniform(0.01, 0.5),
                theta=rng.uniform(0.05, 0.95),
                c=rng.uniform(0.0, 0.95),
                d=rng.uniform(0.1, 2.0),
            )
            p = ModelParams(**p_kwargs)
            th = thresholds(p)
            if th.c2 is None or th.theta2 is None or p.theta <= th.theta2:
                continue
            accepted += 1
            assert th.c2 < th.c1
