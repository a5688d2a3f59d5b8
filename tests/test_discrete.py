import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fracprey import (
    DiscreteConfig,
    ModelParams,
    NormalFormPreconditionError,
    OrbitEscapeError,
    classify_fixed_points,
    detect_structural_bifurcations,
    equilibria,
    hopf_normal_form,
    inverse_map_gain,
    iterate_orbit,
    map_gain,
    rhs,
    step_map,
    step_thresholds,
    thresholds,
)
from fracprey.discrete import ESCAPE_BOUND
from fracprey.pece import MAX_GRID_VALUES

REFERENCE_STEP_TABLE = {
    # m: (s2, s3) at c=0.86 and (s4, s5) at c=0.45
    0.3: (0.2729, 26269.0, 0.0041, 256.7923),
    0.4: (0.3669, 2005.2, 0.0159, 62.3401),
    0.6: (0.5186, 160.8894, 0.0639, 15.9072),
    0.8: (0.6436, 47.5805, 0.1339, 8.3894),
    0.95: (0.7279, 27.2757, 0.1940, 6.3253),
}


def random_params(rng):
    return ModelParams(
        r=rng.uniform(0.5, 3.0),
        K=rng.uniform(50.0, 1000.0),
        alpha=rng.uniform(0.01, 0.2),
        h=rng.uniform(0.01, 0.5),
        theta=rng.uniform(0.05, 0.95),
        c=rng.uniform(0.0, 0.95),
        d=rng.uniform(0.1, 2.0),
    )


def map_jacobian_fd(p, s, m, point):
    point = np.asarray(point, dtype=float)
    out = np.empty((2, 2))
    for j in range(2):
        delta = 1e-6 * max(1.0, abs(point[j]))
        hi = point.copy()
        lo = point.copy()
        hi[j] += delta
        lo[j] -= delta
        out[:, j] = (step_map(p, s, m, hi) - step_map(p, s, m, lo)) / (2.0 * delta)
    return out


class TestGain:
    def test_euler_limit(self):
        for s in (0.05, 0.3, 1.7):
            assert map_gain(s, 1.0) == pytest.approx(s, rel=1e-15)

    def test_inverse_round_trip(self):
        for s in (0.01, 0.4, 3.0):
            for m in (0.2, 0.7, 1.0):
                assert inverse_map_gain(map_gain(s, m), m) == pytest.approx(s, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            map_gain(0.0, 0.5)
        with pytest.raises(ValueError):
            map_gain(0.1, 1.5)

    def test_inverse_validation(self):
        # a negative gain once gave a real step at m = 0.5 and a complex one at m = 0.3
        for gain, m in ((-1.0, 0.5), (-1.0, 0.3), (0.0, 0.5), (1.0, 0.0), (1.0, 1.5)):
            with pytest.raises(ValueError):
                inverse_map_gain(gain, m)


class TestStepMap:
    def test_origin_fixed(self, mid_complexity):
        assert np.all(step_map(mid_complexity, 0.3, 0.8, (0.0, 0.0)) == 0.0)

    def test_reference_interior_point_nearly_fixed(self, mid_complexity):
        point = np.array([253.9056, 97.8867])
        for s in (0.05, 0.5, 1.0):
            for m in (0.3, 0.95, 1.0):
                out = step_map(mid_complexity, s, m, point)
                assert np.max(np.abs(out - point) / point) < 1e-6

    def test_exact_fixed_points_across_gains(self):
        rng = np.random.RandomState(3)
        for _ in range(60):
            p = random_params(rng)
            s = rng.uniform(0.01, 2.0)
            m = rng.uniform(0.1, 1.0)
            for eq in equilibria(p):
                if not eq.exists:
                    continue
                point = np.asarray(eq.point)
                moved = step_map(p, s, m, point)
                assert np.linalg.norm(moved - point) <= 1e-9 * (1.0 + np.linalg.norm(point))

    def test_euler_reduction(self, mid_complexity):
        rng = np.random.RandomState(42)
        for _ in range(20):
            state = rng.uniform(0.0, 500.0, size=2)
            euler = state + 0.3 * rhs(mid_complexity, state)
            assert np.max(np.abs(step_map(mid_complexity, 0.3, 1.0, state) - euler)) < 1e-12


class TestOrbit:
    def test_constant_orbit_from_origin(self, mid_complexity):
        orbit = iterate_orbit(mid_complexity, DiscreteConfig(s=0.2, m=0.9, iterations=50), (0.0, 0.0))
        assert not orbit.escaped
        assert np.all(orbit.states == 0.0)
        assert orbit.states.shape == (51, 2)

    def test_escape_is_flagged_not_raised(self, mid_complexity):
        orbit = iterate_orbit(mid_complexity, DiscreteConfig(s=2.0, m=1.0, iterations=500), (10.0, 5.0))
        assert orbit.escaped
        assert len(orbit.states) < 501

    def test_concordance_with_stability_bounds(self, high_complexity, mid_complexity):
        # each fixed point's orbit settles at 90% of its stability bound and
        # fails to settle at 110%, for every tabulated order
        e1 = np.array([high_complexity.K, 0.0])
        interior = np.array(equilibria(mid_complexity)[2].point)
        for m in REFERENCE_STEP_TABLE:
            st86 = step_thresholds(high_complexity, m)
            st45 = step_thresholds(mid_complexity, m)
            cases = (
                (high_complexity, min(st86.s2, st86.s3), e1),
                (mid_complexity, min(st45.s4, st45.s5), interior),
            )
            for p, bound, target in cases:
                for fraction, should_settle in ((0.9, True), (1.1, False)):
                    cfg = DiscreteConfig(
                        s=fraction * bound, m=m, iterations=10000, transient=2000
                    )
                    orbit = iterate_orbit(p, cfg, (10.0, 5.0))
                    if orbit.escaped:
                        tail = np.inf
                    else:
                        tail = np.linalg.norm(orbit.states[-1000:] - target, axis=1).max()
                    if should_settle:
                        assert tail < 1e-2, (m, fraction, tail)
                    else:
                        assert tail > 1.0, (m, fraction, tail)

    def test_reference_convergence_and_failure(self, mid_complexity):
        target = np.array(equilibria(mid_complexity)[2].point)
        cfg = DiscreteConfig(s=0.12, m=0.95, iterations=10000, transient=2000)
        orbit = iterate_orbit(mid_complexity, cfg, (10.0, 5.0))
        dist = np.linalg.norm(orbit.states - target, axis=1)
        assert dist[-1000:].max() < 1e-3

        cfg = DiscreteConfig(s=0.22, m=0.95, iterations=10000, transient=2000)
        orbit = iterate_orbit(mid_complexity, cfg, (10.0, 5.0))
        dist = np.linalg.norm(orbit.states - target, axis=1)
        assert dist[-1000:].max() > 1.0

    def test_size_budget_rejected_before_allocation(self, mid_complexity):
        # the smallest orbit over the budget, and one that would need 160 GB
        tracemalloc.start()
        try:
            for iterations in (MAX_GRID_VALUES // 2, 10**10):
                cfg = DiscreteConfig(s=0.1, m=0.9, iterations=iterations)
                with pytest.raises(ValueError, match="budget"):
                    iterate_orbit(mid_complexity, cfg, (10.0, 5.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiscreteConfig(s=0.0, m=0.9, iterations=10)
        with pytest.raises(ValueError):
            DiscreteConfig(s=0.1, m=0.9, iterations=10, transient=10)


def reference_rhs(p, state):
    """The field as a numpy 2-vector, written out independently of fracprey."""
    x, y = float(state[0]), float(state[1])
    a = p.alpha * (1.0 - p.c)
    denom = 1.0 + a * p.h * x
    capture = a * x * y / denom
    return np.array([p.r * x * (1.0 - x / p.K) - capture, p.theta * capture - p.d * y])


def reference_orbit(p, cfg, x0):
    """The numpy map step with its isfinite / max-abs escape test."""
    gain = map_gain(cfg.s, cfg.m)
    states = np.empty((cfg.iterations + 1, 2))
    states[0] = np.asarray(x0, dtype=float)
    for n in range(cfg.iterations):
        nxt = states[n] + gain * reference_rhs(p, states[n])
        if not np.all(np.isfinite(nxt)) or np.max(np.abs(nxt)) > ESCAPE_BOUND:
            return states[: n + 1].copy(), True
        states[n + 1] = nxt
    return states, False


class TestKernelOracle:
    """The plain-float map kernel reproduces the numpy step bit for bit."""

    @pytest.mark.parametrize("regime", ["high_complexity", "mid_complexity", "low_complexity"])
    def test_orbits_match_reference(self, regime, request):
        p = request.getfixturevalue(regime)
        escapes = 0
        for m in (0.8, 0.95, 1.0):
            for s in (0.05, 0.2, 0.5, 0.75, 1.0, 1.5, 2.0):
                cfg = DiscreteConfig(s=s, m=m, iterations=1500, transient=100)
                orbit = iterate_orbit(p, cfg, (10.0, 5.0))
                states, escaped = reference_orbit(p, cfg, (10.0, 5.0))
                assert orbit.escaped == escaped, (m, s)
                assert np.array_equal(orbit.states, states), (m, s)
                escapes += escaped
        assert 0 < escapes < 21

    def test_escape_test_matches_reference_on_extreme_starts(self, mid_complexity):
        # non-finite starts, a start past the bound and one whose first
        # step overflows: the kernel's comparison must agree with isfinite
        cfg = DiscreteConfig(s=0.5, m=0.95, iterations=20)
        for x0 in ((np.nan, 5.0), (10.0, np.inf), (-np.inf, 0.0), (2e12, 1.0), (1e300, 1e300),
                   (0.99 * ESCAPE_BOUND, 0.0)):
            orbit = iterate_orbit(mid_complexity, cfg, x0)
            states, escaped = reference_orbit(mid_complexity, cfg, x0)
            assert orbit.escaped == escaped, x0
            assert np.array_equal(orbit.states, states, equal_nan=True), x0

    def test_rhs_matches_reference(self, high_complexity, mid_complexity, low_complexity):
        rng = np.random.RandomState(7)
        for p in (high_complexity, mid_complexity, low_complexity):
            for state in rng.uniform(-50.0, 1000.0, size=(200, 2)):
                assert np.array_equal(rhs(p, state), reference_rhs(p, state))

    def test_step_map_matches_reference(self, high_complexity, mid_complexity, low_complexity):
        rng = np.random.RandomState(11)
        for p in (high_complexity, mid_complexity, low_complexity):
            for state in rng.uniform(0.0, 1000.0, size=(100, 2)):
                s, m = rng.uniform(0.01, 2.5), rng.uniform(0.1, 1.0)
                expected = np.asarray(state, dtype=float) + map_gain(s, m) * reference_rhs(p, state)
                assert np.array_equal(step_map(p, s, m, state), expected)
                assert np.array_equal(step_map(p, s, m, tuple(state)), expected)

    def test_step_map_raises_on_non_finite_and_applies_no_bound(self, mid_complexity):
        with pytest.raises(OrbitEscapeError):
            step_map(mid_complexity, 0.5, 0.95, (np.nan, 1.0))
        with pytest.raises(OrbitEscapeError):
            step_map(mid_complexity, 0.5, 0.95, (1e300, 1e300))
        out = step_map(mid_complexity, 0.5, 0.95, (0.0, 10.0 * ESCAPE_BOUND))
        assert np.all(np.isfinite(out)) and abs(out[1]) > ESCAPE_BOUND


class TestStepThresholds:
    def test_reference_values_high_complexity(self, high_complexity):
        st = step_thresholds(high_complexity, 0.95)
        assert st.s2 == pytest.approx(0.7279, abs=5e-3)
        assert st.s3 == pytest.approx(27.2757, abs=5e-3)
        assert st.s4 is None and st.s5 is None
        assert st.reasons["s4"] == "no interior fixed point"

    def test_reference_values_mid_complexity(self, mid_complexity):
        st = step_thresholds(mid_complexity, 0.95)
        assert st.s4 == pytest.approx(0.1940, abs=5e-3)
        assert st.s5 == pytest.approx(6.3253, abs=5e-3)
        assert st.s3 is None  # predator grows at the capacity state below c1

    def test_reference_value_small_order(self, mid_complexity):
        st = step_thresholds(mid_complexity, 0.3)
        assert st.s4 == pytest.approx(0.0041, abs=5e-4)

    def test_full_reference_table(self, high_complexity, mid_complexity):
        for m, (s2, s3, s4, s5) in REFERENCE_STEP_TABLE.items():
            st1 = step_thresholds(high_complexity, m)
            st2 = step_thresholds(mid_complexity, m)
            for got, ref in ((st1.s2, s2), (st1.s3, s3), (st2.s4, s4), (st2.s5, s5)):
                assert abs(got - ref) <= max(5e-3 * ref, 5e-4)

    def test_negative_trace_constant_blocks_interior_thresholds(self, low_complexity):
        st = step_thresholds(low_complexity, 0.95)
        assert st.G is not None and st.G < 0.0
        assert st.s4 is None and st.s5 is None

    def test_gain_identities(self, mid_complexity):
        # det = 1 - S G + S^2 H and trace = 2 - S G against the entrywise form
        rng = np.random.RandomState(17)
        for _ in range(200):
            p = random_params(rng)
            interior = equilibria(p)[2]
            if not interior.exists:
                continue
            s = rng.uniform(0.01, 2.0)
            m = rng.uniform(0.1, 1.0)
            st = step_thresholds(p, m)
            S = map_gain(s, m)
            jac = map_jacobian_fd(p, s, m, interior.point)
            assert np.trace(jac) == pytest.approx(2.0 - S * st.G, rel=1e-6, abs=1e-8)
            assert np.linalg.det(jac) == pytest.approx(
                1.0 - S * st.G + S * S * st.H, rel=1e-5, abs=1e-7
            )


class TestClassification:
    def test_trivial_point_regimes(self, high_complexity):
        st = step_thresholds(high_complexity, 0.95)
        saddle = classify_fixed_points(high_complexity, 0.5 * st.s1, 0.95)[0]
        source = classify_fixed_points(high_complexity, 2.0 * st.s1, 0.95)[0]
        boundary = classify_fixed_points(high_complexity, st.s1, 0.95)[0]
        assert saddle.classification == "saddle"
        assert source.classification == "source"
        assert boundary.classification == "nonhyperbolic"

    def test_predator_free_reference_steps(self, high_complexity):
        stable = classify_fixed_points(high_complexity, 0.68, 0.95)[1]
        unstable = classify_fixed_points(high_complexity, 0.8, 0.95)[1]
        assert stable.classification == "stable"
        assert unstable.classification != "stable"

    def test_interior_stability_window(self, mid_complexity):
        st = step_thresholds(mid_complexity, 0.95)
        inside = classify_fixed_points(mid_complexity, 0.9 * st.s4, 0.95)[2]
        outside = classify_fixed_points(mid_complexity, 1.1 * st.s4, 0.95)[2]
        assert inside.classification == "stable"
        assert outside.classification == "source"
        assert outside.spiral  # complex pair beyond the circle

    def test_agreement_with_eigenvalue_oracle(self):
        # classification from the closed forms must match what the directly
        # differentiated map says, away from the unit circle
        rng = np.random.RandomState(99)
        checked = 0
        attempts = 0
        while checked < 500 and attempts < 5000:
            attempts += 1
            p = random_params(rng)
            s = rng.uniform(0.01, 2.0)
            m = rng.uniform(0.1, 1.0)
            for report in classify_fixed_points(p, s, m):
                moduli = [abs(e) for e in report.eigenvalues]
                if min(abs(mod - 1.0) for mod in moduli) < 1e-6:
                    continue
                oracle_moduli = np.abs(np.linalg.eigvals(map_jacobian_fd(p, s, m, report.point)))
                if min(abs(mod - 1.0) for mod in oracle_moduli) < 1e-6:
                    continue
                if all(mod < 1.0 for mod in oracle_moduli):
                    expected = "stable"
                elif all(mod > 1.0 for mod in oracle_moduli):
                    expected = "source"
                else:
                    expected = "saddle"
                assert report.classification == expected
                checked += 1
        assert checked >= 500


class TestNormalForm:
    def test_reference_eigenvalues(self, mid_complexity):
        nf = hopf_normal_form(mid_complexity, 0.95)
        assert nf.lambda1.real == pytest.approx(0.9635, abs=1e-3)
        assert abs(nf.lambda1.imag) == pytest.approx(0.2678, abs=1e-3)
        assert abs(nf.lambda1) == pytest.approx(1.0, abs=1e-8)
        assert nf.lambda2 == nf.lambda1.conjugate()

    def test_reference_transversality_and_discriminant(self, mid_complexity):
        nf = hopf_normal_form(mid_complexity, 0.95)
        assert nf.transversality == pytest.approx(0.1699, abs=1e-3)
        assert nf.gamma < 0.0
        assert abs(nf.gamma) == pytest.approx(1.9961e-8, rel=0.10)
        assert nf.nonresonance_ok
        assert nf.xi21 == 0.0

    def test_internal_identities(self, mid_complexity):
        nf = hopf_normal_form(mid_complexity, 0.95)
        S = nf.S1
        det = 1.0 - S * nf.G + S * S * nf.H
        assert nf.delta**2 + nf.beta**2 == pytest.approx(det, abs=1e-10)
        assert nf.s4 == pytest.approx(step_thresholds(mid_complexity, 0.95).s4, rel=1e-12)
        # the quadratic coefficients scale each other by the conversion rate
        assert nf.c23 == pytest.approx(-nf.c13 * mid_complexity.theta, rel=1e-12)

    def test_preconditions_name_the_failing_inequality(self, high_complexity, low_complexity):
        with pytest.raises(NormalFormPreconditionError, match="interior"):
            hopf_normal_form(high_complexity, 0.95)
        with pytest.raises(NormalFormPreconditionError, match="G > 0"):
            hopf_normal_form(low_complexity, 0.95)

    def test_orbit_confirms_attracting_circle(self, mid_complexity):
        # sign cross-check for gamma < 0: just past s4 the orbit must settle
        # onto a bounded invariant curve whose radius is stationary, instead
        # of collapsing or running away
        nf = hopf_normal_form(mid_complexity, 0.95)
        target = np.array(equilibria(mid_complexity)[2].point)
        cfg = DiscreteConfig(s=nf.s4 + 5e-3, m=0.95, iterations=20000, transient=0)
        orbit = iterate_orbit(mid_complexity, cfg, target * (1.0 + 1e-2))
        assert not orbit.escaped
        radius = np.linalg.norm(orbit.states - target, axis=1)
        first = radius[10000:15000].max()
        second = radius[15000:20000].max()
        assert 1.0 < second < 500.0
        assert 0.8 < second / first < 1.25


class TestStructuralEvents:
    def test_flip_event_location(self, high_complexity):
        events = {e.kind: e for e in detect_structural_bifurcations(high_complexity, 0.95)}
        assert events["flip"].s == pytest.approx(0.7279, abs=5e-3)
        assert events["transcritical"].s is None
        assert events["transcritical"].c == pytest.approx(thresholds(high_complexity).c1, rel=1e-12)
        assert all(e.residual < 1e-8 for e in events.values())

    def test_hopf_event_location(self, mid_complexity):
        events = {e.kind: e for e in detect_structural_bifurcations(mid_complexity, 0.95)}
        assert events["hopf"].s == pytest.approx(0.194, abs=5e-3)
        assert events["hopf"].equilibrium == "interior"

    def test_flip_point_eigenvalues(self, high_complexity):
        # at (c = c1, s = s5) the predator-free Jacobian has eigenvalues -1, +1
        c1 = thresholds(high_complexity).c1
        at_c1 = replace(high_complexity, c=c1)
        s5 = step_thresholds(at_c1, 0.95).s5
        report = classify_fixed_points(at_c1, s5, 0.95)[1]
        values = sorted(e.real for e in report.eigenvalues)
        assert values[0] == pytest.approx(-1.0, abs=1e-6)
        assert values[1] == pytest.approx(1.0, abs=1e-6)
        assert all(abs(e.imag) < 1e-12 for e in report.eigenvalues)

    def test_no_hopf_event_without_interior(self, low_complexity):
        kinds = {e.kind for e in detect_structural_bifurcations(low_complexity, 0.95)}
        assert "hopf" not in kinds  # G < 0 at this complexity
