import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracprey import (
    DiscreteConfig,
    ModelParams,
    NormalFormPreconditionError,
    OrbitEscapeError,
    classify_equilibria,
    classify_fixed_points,
    critical_order,
    detect_structural_bifurcations,
    equilibria,
    hopf_normal_form,
    inverse_map_gain,
    iterate_orbit,
    map_gain,
    step_map,
    step_thresholds,
    sweep_step_size,
    thresholds,
    vector_field,
)
from fracprey.discrete import ESCAPE_BOUND
from fracprey.model import _field
from fracprey.pece import MAX_GRID_VALUES

from conftest import BASE
from test_model import reference_rates

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
    """Central differences of step_map at point.  The y step is
    1e-6 max(1, |y|), as the map is linear in y; the x step is
    1e-6 min(max(1, |x|), |x| + 1/(a h)), since the capture term bends on
    the shorter scale |x| + 1/(a h) where a h is large."""
    point = np.asarray(point, dtype=float)
    x, y = np.abs(point)
    deltas = (1e-6 * min(max(1.0, x), x + 1.0 / (p.attack * p.h)), 1e-6 * max(1.0, y))
    out = np.empty((2, 2))
    for j in range(2):
        hi = point.copy()
        lo = point.copy()
        hi[j] += deltas[j]
        lo[j] -= deltas[j]
        out[:, j] = (step_map(p, s, m, hi) - step_map(p, s, m, lo)) / (2.0 * deltas[j])
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

    @pytest.mark.parametrize("s", [math.inf, math.nan, 0.0, -1.0])
    def test_one_step_size_rule(self, mid_complexity, s):
        # an infinite step once gave an infinite gain, and a saddle with NaN
        # eigenvalues for the interior point
        message = f"step size must satisfy 0 < s < inf, got {s!r}"
        for analysis in (
            lambda: map_gain(s, 0.9),
            lambda: classify_fixed_points(mid_complexity, s, 0.9),
            lambda: step_map(mid_complexity, s, 0.9, (250.0, 100.0)),
            lambda: DiscreteConfig(s=s, m=0.9, iterations=10),
        ):
            with pytest.raises(ValueError) as info:
                analysis()
            assert str(info.value) == message

    def test_inverse_validation(self):
        # a negative gain once gave a real step at m = 0.5 and a complex one at m = 0.3
        for gain, m in ((-1.0, 0.5), (-1.0, 0.3), (0.0, 0.5), (1.0, 0.0), (1.0, 1.5)):
            with pytest.raises(ValueError):
                inverse_map_gain(gain, m)

    def test_inverse_beyond_float_range(self, mid_complexity):
        # s1 = (2/d Gamma(1 + m))^(1/m) passes 1.8e308 below m ~ 9e-4
        with pytest.raises(ValueError, match="float range"):
            inverse_map_gain(2.0 / mid_complexity.d, 5e-4)
        for analysis in (step_thresholds, detect_structural_bifurcations):
            with pytest.raises(ValueError, match="float range"):
                analysis(mid_complexity, 5e-4)

    def test_inverse_below_float_range(self, mid_complexity):
        # s2 = (2/r Gamma(1 + m))^(1/m) at r = 100 is about 1e-425 at m = 0.004,
        # which rounds to 0.0: the step that analyses would then reject as
        # s > 0 is one the user never gave
        p = replace(mid_complexity, r=100.0)
        with pytest.raises(ValueError, match="below the float range"):
            inverse_map_gain(2.0 / p.r, 0.004)
        for analysis in (step_thresholds, detect_structural_bifurcations):
            with pytest.raises(ValueError, match="float range"):
                analysis(p, 0.004)

    def test_inverse_of_infinite_gain(self, mid_complexity):
        # at the smallest subnormal d the gain 2/d of s1 is inf, whose power is
        # inf rather than an OverflowError
        p = replace(mid_complexity, d=5e-324)
        with pytest.raises(ValueError, match="exceeds the float range"):
            inverse_map_gain(2.0 / p.d, 0.9)
        with pytest.raises(ValueError, match="float range"):
            step_thresholds(p, 0.9)
        # the bifurcation search reads s2 and s4 only: here c1 = 1 and G = 0,
        # so it computes neither and finds no event
        assert detect_structural_bifurcations(p, 0.9) == []


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
            euler = state + 0.3 * vector_field(mid_complexity)(state)
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

    # a scalar, one component and three: none is a start pair (x, y)
    @pytest.mark.parametrize("x0", [5.0, [5.0], [1.0, 2.0, 3.0]], ids=["scalar", "one", "three"])
    def test_start_state_must_be_a_pair(self, mid_complexity, x0):
        with pytest.raises(ValueError, match="must be a pair"):
            iterate_orbit(mid_complexity, DiscreteConfig(s=0.1, m=0.9, iterations=10), x0)
        with pytest.raises(ValueError, match="must be a pair"):
            step_map(mid_complexity, 0.1, 0.9, x0)
        with pytest.raises(ValueError, match="must be a pair"):
            sweep_step_size(mid_complexity, 0.9, 0.1, 0.2, 2, x0=x0)

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
        for s in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="step size"):
                DiscreteConfig(s=s, m=0.9, iterations=10)
        with pytest.raises(ValueError):
            DiscreteConfig(s=0.1, m=0.9, iterations=10, transient=10)

    @pytest.mark.parametrize(
        "counts", [dict(iterations=2.5), dict(iterations=10.0), dict(iterations=10, transient=1.5),
                   dict(iterations="10"), dict(iterations=10, transient=-1)],
    )
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValueError, match="iterations|transient"):
            DiscreteConfig(s=0.1, m=0.9, **counts)

    def test_numpy_integer_counts_accepted(self, mid_complexity):
        cfg = DiscreteConfig(s=0.1, m=0.9, iterations=np.int64(10), transient=np.int32(2))
        assert iterate_orbit(mid_complexity, cfg, (10.0, 5.0)).states.shape == (11, 2)


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
                assert np.array_equal(vector_field(p)(state), reference_rhs(p, state))

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


# iterate_orbit runs in blocks of this many iterations and, at each block
# end, compares the last row with the row this many iterations before it.
LAG = 64


def plain_orbit(p, cfg, x0):
    """The orbit stepped to its last row, with no repeat check, on the
    tests' own field."""
    gain = map_gain(cfg.s, cfg.m)
    states = np.empty((cfg.iterations + 1, 2))
    states[0] = np.asarray(x0, dtype=float)
    x, y = float(states[0, 0]), float(states[0, 1])
    for n in range(1, cfg.iterations + 1):
        dx, dy = reference_rates(p, x, y)
        x, y = x + gain * dx, y + gain * dy
        if not (abs(x) <= ESCAPE_BOUND and abs(y) <= ESCAPE_BOUND):
            return states[:n].copy(), True
        states[n] = x, y
    return states, False


def first_lag_repeat(states):
    """First block end short of the last row whose bits equal the row LAG
    before it, or None: where iterate_orbit stops stepping."""
    bits = states.view(np.int64)
    for n in range(LAG, len(states) - 1, LAG):
        if np.array_equal(bits[n], bits[n - LAG]):
            return n
    return None


def tail_period(states):
    """Least q with the last row's bits equal to those q rows before it."""
    bits = states.view(np.int64)
    return next(q for q in range(1, LAG + 1) if np.array_equal(bits[-1], bits[-1 - q]))


def assert_bit_parity(p, cfg, x0):
    """iterate_orbit equals the plain orbit bit for bit; returns the latter."""
    orbit = iterate_orbit(p, cfg, x0)
    states, escaped = plain_orbit(p, cfg, x0)
    assert orbit.escaped == escaped
    assert orbit.states.shape == states.shape
    assert np.array_equal(orbit.states.view(np.int64), states.view(np.int64))
    return states


def gain_r_step(gain_r, m):
    """Step size at which the predator-free map is the logistic map with
    parameter 1 + gain_r: period 2 from gain_r = 2 (s = s2), period 4 from
    gain_r = sqrt(6)."""
    return inverse_map_gain(gain_r / BASE["r"], m)


class TestFastForward:
    """Orbits that repeat are copied forward with the bits of the plain loop."""

    @pytest.mark.parametrize(
        "c, s, m, x0, iterations, transient, found, period",
        [
            pytest.param(0.45, 0.2, 0.9, (0.0, 0.0), 1000, 0, 64, 1, id="origin"),
            pytest.param(0.86, gain_r_step(2.2, 0.95), 0.95, (898.0, 0.0), 1000, 0, 64, 1,
                         id="capacity"),
            pytest.param(0.86, gain_r_step(2.2, 0.95), 0.95, (300.0, 0.0), 1000, 0, 128, 2,
                         id="two_cycle"),
            pytest.param(0.86, gain_r_step(2.47, 0.95), 0.95, (300.0, 0.0), 1000, 0, 320, 4,
                         id="four_cycle"),
            pytest.param(0.86, gain_r_step(2.3, 0.95), 0.95, (10.0, 5.0), 6000, 5000, 4864, 2,
                         id="two_cycle_in_transient"),
            pytest.param(0.86, gain_r_step(2.47, 1.0), 1.0, (10.0, 5.0), 4000, 3600, 3584, 4,
                         id="four_cycle_in_transient"),
        ],
    )
    def test_cycles(self, c, s, m, x0, iterations, transient, found, period):
        p = ModelParams(c=c, **BASE)
        cfg = DiscreteConfig(s=s, m=m, iterations=iterations, transient=transient)
        states = assert_bit_parity(p, cfg, x0)
        assert first_lag_repeat(states) == found
        assert tail_period(states) == period
        assert iterate_orbit(p, cfg, x0).stepped == found

    def test_quasi_periodic_orbit_never_repeats(self, mid_complexity):
        # past s4 the orbit winds around the attracting circle
        s4 = step_thresholds(mid_complexity, 0.95).s4
        cfg = DiscreteConfig(s=2.0 * s4, m=0.95, iterations=5000)
        states = assert_bit_parity(mid_complexity, cfg, (10.0, 5.0))
        assert len(states) == 5001 and first_lag_repeat(states) is None
        assert iterate_orbit(mid_complexity, cfg, (10.0, 5.0)).stepped == 5000

    def test_escape(self, mid_complexity):
        cfg = DiscreteConfig(s=2.0, m=1.0, iterations=500)
        states = assert_bit_parity(mid_complexity, cfg, (10.0, 5.0))
        assert len(states) < 501

    @pytest.mark.parametrize("iterations", [63, 64, 65, 128, 129])
    def test_block_edges(self, high_complexity, iterations):
        # a start on the float two-cycle repeats at the first block end
        s = gain_r_step(2.2, 0.95)
        cfg = DiscreteConfig(s=s, m=0.95, iterations=iterations)
        lead_in = replace(cfg, iterations=200)
        on_cycle = tuple(plain_orbit(high_complexity, lead_in, (300.0, 0.0))[0][-1])
        states = assert_bit_parity(high_complexity, cfg, on_cycle)
        assert first_lag_repeat(states) == (LAG if iterations > LAG else None)
        assert tail_period(states[: LAG + 1]) == 2

    @pytest.mark.parametrize("x0", [(898.0, -0.0), (-0.0, 0.0), (300.0, -0.0)])
    def test_negative_zero_start(self, high_complexity, x0):
        cfg = DiscreteConfig(s=gain_r_step(2.2, 0.95), m=0.95, iterations=300)
        states = assert_bit_parity(high_complexity, cfg, x0)
        assert np.array_equal(np.signbit(states[0]), np.signbit(x0))

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        c=st.floats(0.0, 0.99),
        m=st.floats(0.3, 1.0),
        s_over_s2=st.floats(0.3, 1.6),
        iterations=st.integers(1, 3000),
        prey=st.floats(5.0, 400.0),
        # the bench's start box, or its predator-free edge, where cycles close
        predator=st.one_of(st.just(0.0), st.floats(1.0, 120.0)),
    )
    def test_matches_plain_loop(self, c, m, s_over_s2, iterations, prey, predator):
        p = ModelParams(c=c, **BASE)
        s = s_over_s2 * step_thresholds(p, m).s2
        assert_bit_parity(p, DiscreteConfig(s=s, m=m, iterations=iterations), (prey, predator))


class TestEscapeRows:
    """Orbits that escape at and next to the block edges of iterate_orbit."""

    # starts found by scanning prey starts at these step sizes (m = 0.95)
    @pytest.mark.parametrize(
        "row, s, x0",
        [
            pytest.param(1, 0.665, (1e8, 5.0), id="row_1"),
            pytest.param(63, 0.665, (67.62, 5.0), id="row_63"),
            pytest.param(64, 0.665, (21.88, 5.0), id="row_64"),
            pytest.param(65, 0.665, (14.68, 5.0), id="row_65"),
            pytest.param(128, 0.668, (339.92, 5.0), id="row_128"),
        ],
    )
    def test_matches_both_oracles(self, mid_complexity, row, s, x0):
        cfg = DiscreteConfig(s=s, m=0.95, iterations=300)
        orbit = iterate_orbit(mid_complexity, cfg, x0)
        assert_bit_parity(mid_complexity, cfg, x0)
        states, escaped = reference_orbit(mid_complexity, cfg, x0)
        assert orbit.escaped and escaped
        assert len(orbit.states) == len(states) == row
        assert np.array_equal(orbit.states.view(np.int64), states.view(np.int64))
        # the escaping iterate is computed but not kept
        assert orbit.stepped == row - 1

    @pytest.mark.parametrize("iterations, escaped", [(127, False), (128, True), (129, True)])
    def test_row_128_at_the_orbit_end(self, mid_complexity, iterations, escaped):
        # the row_128 start escapes on the last row of the second block: 127
        # iterations end just before that row, 128 end on it and 129 past it
        x0 = (339.92, 5.0)
        cfg = DiscreteConfig(s=0.668, m=0.95, iterations=iterations)
        orbit = iterate_orbit(mid_complexity, cfg, x0)
        assert_bit_parity(mid_complexity, cfg, x0)
        assert orbit.escaped is escaped
        assert len(orbit.states) == 128
        assert orbit.stepped == 127


class TestPole:
    """At the prey pole x = -1/(alpha (1 - c) h) the capture term of the
    field divides by exactly zero; the map step there is not finite, as on
    numpy floats, so the orbit escapes and step_map raises."""

    def test_start_on_pole(self, mid_complexity):
        ah = mid_complexity.attack * mid_complexity.h
        pole = -1.0 / ah
        assert 1.0 + ah * pole == 0.0
        with pytest.raises(OrbitEscapeError):
            step_map(mid_complexity, 0.1, 0.9, (pole, 1.0))
        orbit = iterate_orbit(mid_complexity, DiscreteConfig(s=0.1, m=0.9, iterations=5), (pole, 1.0))
        assert orbit.escaped and orbit.stepped == 0
        assert orbit.states.tolist() == [[pole, 1.0]]
        # the same division on numpy floats is not finite
        x, y, a = np.float64(pole), np.float64(1.0), np.float64(mid_complexity.attack)
        with np.errstate(divide="ignore"):
            assert not np.isfinite(a * x * y / (1.0 + a * mid_complexity.h * x))

    def test_orbit_reaches_pole(self, mid_complexity):
        # the predator start was bisected so that row 1 is the pole itself
        x0 = (-900.0, 5.474681625040993)
        cfg = DiscreteConfig(s=0.1, m=0.9, iterations=200)
        orbit = iterate_orbit(mid_complexity, cfg, x0)
        assert orbit.escaped and orbit.stepped == 1 and len(orbit.states) == 2
        assert orbit.states[1, 0] == -1.0 / (mid_complexity.attack * mid_complexity.h)
        assert np.array_equal(orbit.states[1], step_map(mid_complexity, 0.1, 0.9, x0))
        with pytest.raises(OrbitEscapeError):
            step_map(mid_complexity, 0.1, 0.9, orbit.states[1])


def block_orbit(p, cfg, x0):
    """The orbit as a driver of blocks of LAG rows steps it, on the rates of
    model._field: the tests' bit reference for iterate_orbit, written apart
    from its kernel.  At each block end short of the last row whose bits
    equal the row LAG before it, the rest is copied forward row by row.
    Returns (states, escaped, stepped) in the contract of DiscreteOrbit."""
    rates = _field(p)
    gain = map_gain(cfg.s, cfg.m)
    last = cfg.iterations
    states = np.empty((last + 1, 2))
    states[0] = np.asarray(x0, dtype=float)
    bits = states.view(np.int64)
    x, y = states[0].tolist()
    for start in range(0, last, LAG):
        stop = min(start + LAG, last)
        for n in range(start + 1, stop + 1):
            try:
                dx, dy = rates(x, y)
            except ZeroDivisionError:
                return states[:n].copy(), True, n - 1
            x, y = x + gain * dx, y + gain * dy
            if not (abs(x) <= ESCAPE_BOUND and abs(y) <= ESCAPE_BOUND):
                return states[:n].copy(), True, n - 1
            states[n] = x, y
        if stop < last and np.array_equal(bits[stop], bits[start]):
            for n in range(stop + 1, last + 1):
                states[n] = states[n - LAG]
            return states, False, stop
    return states, False, last


def assert_block_parity(p, cfg, x0):
    """iterate_orbit equals block_orbit in bytes, escaped and stepped;
    returns the orbit."""
    orbit = iterate_orbit(p, cfg, x0)
    states, escaped, stepped = block_orbit(p, cfg, x0)
    assert (orbit.escaped, orbit.stepped) == (escaped, stepped)
    assert orbit.states.shape == states.shape
    assert orbit.states.tobytes() == states.tobytes()
    return orbit


class TestBlockDriver:
    """The one-call map kernel against a driver of blocks of LAG rows."""

    # prey starts found by scanning at s = 0.668, m = 0.95, predator 5.0
    @pytest.mark.parametrize(
        "row, prey",
        [(63, 14.68), (64, 10.14), (65, 9.98), (127, 869.37), (128, 14.23), (129, 10.16)],
    )
    def test_escape_rows(self, mid_complexity, row, prey):
        for iterations in (row - 1, row, row + 1, 300):
            cfg = DiscreteConfig(s=0.668, m=0.95, iterations=iterations)
            orbit = assert_block_parity(mid_complexity, cfg, (prey, 5.0))
            assert len(orbit.states) == row
            assert orbit.escaped is (iterations >= row)

    @pytest.mark.parametrize(
        "x0, stepped",
        [((-1.0 / (0.045 * 0.55 * 0.0437), 1.0), 0), ((-900.0, 5.474681625040993), 1)],
        ids=["start", "row_1"],
    )
    def test_pole(self, mid_complexity, x0, stepped):
        for iterations in (1, 5, 200):
            cfg = DiscreteConfig(s=0.1, m=0.9, iterations=iterations)
            orbit = assert_block_parity(mid_complexity, cfg, x0)
            assert orbit.escaped is (iterations > stepped) and orbit.stepped == min(stepped, iterations)

    @pytest.mark.parametrize("x0", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (898.0, -0.0), (300.0, -0.0)])
    def test_negative_zero_starts(self, high_complexity, x0):
        for iterations in (1, 64, 65, 300):
            cfg = DiscreteConfig(s=gain_r_step(2.2, 0.95), m=0.95, iterations=iterations)
            orbit = assert_block_parity(high_complexity, cfg, x0)
            assert np.array_equal(np.signbit(orbit.states[0]), np.signbit(x0))

    def test_repeat_at_first_block_end(self, high_complexity):
        # (K, 0) is an exact fixed point: row 64 repeats row 0
        for iterations in (64, 65, 129, 1000):
            cfg = DiscreteConfig(s=0.3, m=0.95, iterations=iterations)
            orbit = assert_block_parity(high_complexity, cfg, (898.0, 0.0))
            assert orbit.stepped == min(LAG, iterations) and not orbit.escaped

    def test_seeded_random_orbits(self):
        # lengths under LAG, at and next to its multiples, and between them
        rng = np.random.default_rng(30)
        outcomes = {}
        for iterations in (1, 2, 17, 63, 64, 65, 100, 128, 191, 1000, 3000):
            for _ in range(40):
                p = ModelParams(c=rng.uniform(0.0, 0.99), **BASE)
                m = rng.uniform(0.3, 1.0)
                s = rng.uniform(0.3, 2.0) * step_thresholds(p, m).s2
                x0 = (rng.uniform(5.0, 400.0), rng.choice([0.0, rng.uniform(1.0, 120.0)]))
                orbit = assert_block_parity(p, DiscreteConfig(s=s, m=m, iterations=iterations), x0)
                kind = "escaped" if orbit.escaped else "copied" if orbit.stepped < iterations else "stepped"
                outcomes[kind] = outcomes.get(kind, 0) + 1
        assert sorted(outcomes) == ["copied", "escaped", "stepped"], outcomes


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

    def test_s4_needs_no_other_threshold(self):
        # at small m the other thresholds leave the float range first; the
        # normal form still exists there, and elsewhere its s4 is
        # step_thresholds' bit for bit
        rng = np.random.RandomState(31)
        agreed = beyond_thresholds = 0
        for _ in range(1000):
            p = random_params(rng)
            m = 10.0 ** rng.uniform(-3.0, -1.0)
            try:
                nf = hopf_normal_form(p, m)
            except ValueError:
                continue
            assert abs(nf.lambda1) == pytest.approx(1.0, abs=1e-8)
            try:
                steps = step_thresholds(p, m)
            except ValueError:
                beyond_thresholds += 1
                continue
            assert nf.s4 == steps.s4
            agreed += 1
        assert agreed >= 100 and beyond_thresholds >= 10

    def test_preconditions_name_the_failing_inequality(self, high_complexity, low_complexity):
        with pytest.raises(NormalFormPreconditionError, match="interior"):
            hopf_normal_form(high_complexity, 0.95)
        with pytest.raises(NormalFormPreconditionError, match="G > 0"):
            hopf_normal_form(low_complexity, 0.95)

    @pytest.mark.parametrize("m", [0.0, 1.5, float("nan")])
    def test_order_checked_before_preconditions(self, high_complexity, m):
        # at c = 0.86 there is no interior point either; the order is named first
        with pytest.raises(ValueError, match="0 < m <= 1") as info:
            hopf_normal_form(high_complexity, m)
        assert not isinstance(info.value, NormalFormPreconditionError)

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

    @pytest.mark.parametrize("m", [0.0, 1.5, float("nan")])
    def test_order_checked(self, high_complexity, mid_complexity, m):
        for p in (high_complexity, mid_complexity):
            for analysis in (step_thresholds, detect_structural_bifurcations):
                with pytest.raises(ValueError, match="0 < m <= 1"):
                    analysis(p, m)

    @pytest.mark.parametrize("regime", ["high_complexity", "mid_complexity", "low_complexity", "at_c1"])
    def test_same_events_as_separate_formulas(self, regime, request):
        if regime == "at_c1":
            high = request.getfixturevalue("high_complexity")
            p = replace(high, c=thresholds(high).c1)
        else:
            p = request.getfixturevalue(regime)
        for m in (0.3, 0.6, 0.8, 0.95, 1.0):
            got = [event_key(e.kind, e.equilibrium, e.c, e.s, e.residual)
                   for e in detect_structural_bifurcations(p, m)]
            assert got == reference_events(p, m), m


    def test_random_draw_passes_checks_and_matches_oracle(self):
        # 2,000 valid sets over the CLI fuzz ranges (test_cli.PARAMS): no
        # residual check raises, and every closed-form modulus agrees with
        # the differenced map.  The unit-modulus and argument bands hold: at
        # s2, at s4 (where G < 2 sqrt(H)) and at m* the point on its threshold
        # classifies nonhyperbolic, and no report with every modulus more
        # than 1e-9 from 1 does.
        rng = np.random.default_rng(0)
        for _ in range(2000):
            p = ModelParams(
                **{key: 10.0 ** rng.uniform(lo, hi) for key, lo, hi in
                   (("r", -3, 5), ("K", -3, 9), ("alpha", -4, 3), ("h", -4, 2), ("d", -4, 3))},
                theta=rng.uniform(0.0, 1.0), c=rng.uniform(0.0, 1.0),
            )
            m, s = rng.uniform(0.05, 1.0), rng.uniform(0.01, 2.0)
            for event in detect_structural_bifurcations(p, m):
                assert math.isfinite(event.residual)
            for report in classify_fixed_points(p, s, m):
                jac = map_jacobian_fd(p, s, m, report.point)
                oracle = np.sort(np.abs(np.linalg.eigvals(jac)))
                closed = np.sort([abs(e) for e in report.eigenvalues])
                assert np.max(np.abs(closed - oracle)) <= 1e-5 * closed[-1], (p, m, s, report.kind)
                if np.all(np.abs(closed - 1.0) > 1e-9):
                    assert report.classification != "nonhyperbolic", (p, m, s, report.kind)
            st = step_thresholds(p, m)
            assert classify_fixed_points(p, st.s2, m)[1].classification == "nonhyperbolic", (p, m)
            if st.s4 is not None and st.G < 2.0 * math.sqrt(st.H):
                assert classify_fixed_points(p, st.s4, m)[2].classification == "nonhyperbolic", (p, m)
            if equilibria(p)[2].exists and critical_order(p).value is not None:
                m_star = critical_order(p).value
                assert classify_equilibria(p, m_star)[2].classification == "nonhyperbolic", (p, m_star)


def event_key(kind, equilibrium, c, s, residual):
    return kind, equilibrium, c.hex(), None if s is None else s.hex(), residual.hex()


def reference_events(p, m):
    """The structural events with each residual written out: the flip step
    as the inverse gain of 2/r, the transcritical and flip residuals as the
    predator-free Jury entries, and the Hopf residual as 1 - det of the
    interior point, det = 1 - S G + S^2 H."""
    events = []
    th = thresholds(p)
    if th.c1 is not None and 0.0 < th.c1 < 1.0:
        at_c1 = replace(p, c=th.c1)
        s_flip = inverse_map_gain(2.0 / p.r, m)
        res_tc = abs(classify_fixed_points(at_c1, 0.5 * s_flip, m)[1].jury[1])
        res_flip = abs(classify_fixed_points(at_c1, s_flip, m)[1].jury[2])
        events.append(event_key("transcritical", "predator_free", th.c1, None, res_tc))
        events.append(event_key("flip", "predator_free", th.c1, s_flip, res_flip))
    st = step_thresholds(p, m)
    if st.s4 is not None and st.G < 2.0 * math.sqrt(st.H):
        S = map_gain(st.s4, m)
        det = 1.0 - S * st.G + S * S * st.H
        events.append(event_key("hopf", "interior", p.c, st.s4, abs(1.0 - det)))
    return events
