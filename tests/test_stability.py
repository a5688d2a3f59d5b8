import math
from dataclasses import replace

import numpy as np
import pytest

from fracprey import (
    ParameterError,
    SolverConfig,
    boundedness_envelope,
    classify_equilibria,
    critical_order,
    equilibria,
    global_stability_check,
    jacobian,
    mittag_leffler,
    pece_solve,
    thresholds,
    vector_field,
)
from fracprey.special import _check_order
from fracprey.stability import _classify_eigs


class NonhyperbolicError(ValueError):
    """The test is inconclusive: an eigenvalue sits on the critical set."""


def matignon_stable(eigs, m: float) -> bool:
    """True iff the library's argument test classifies the eigenvalues as
    stable: every |arg| above m*pi/2 by more than the boundary band."""
    _check_order(m)
    if any(complex(lam) == 0 for lam in eigs):
        raise NonhyperbolicError("zero eigenvalue: neither stable nor unstable")
    return _classify_eigs(eigs, m) == "stable"


def routh_hurwitz_fractional(a1: float, a2: float, m: float) -> bool:
    """Stability of xi^2 + a1 xi + a2 = 0 straight from the coefficients, the
    oracle of the argument test.

    Real-root case (a1^2 >= 4 a2): both roots negative iff a1 > 0, a2 > 0.
    Complex case: the root pair has |arg| = atan2(sqrt(4 a2 - a1^2), -a1),
    compared strictly against m*pi/2 (the two-argument form resolves the
    sign ambiguity a printed single-argument arctangent would have for
    a1 < 0).
    """
    _check_order(m)
    if a2 == 0.0:
        raise NonhyperbolicError("a2 = 0 gives a zero root: test inconclusive")
    disc = a1 * a1 - 4.0 * a2
    if disc >= 0.0:
        return a1 > 0.0 and a2 > 0.0
    return math.atan2(math.sqrt(-disc), -a1) > m * math.pi / 2.0


class TestMatignon:
    def test_negative_real_pair_stable_for_all_orders(self):
        for m in (0.1, 0.5, 1.0):
            assert matignon_stable((-1.0, -2.0), m)

    def test_weakly_expanding_pair_depends_on_order(self):
        eigs = (complex(0.1, 1.0), complex(0.1, -1.0))
        # |arg| = atan(1/0.1) = 1.4711 rad sits between 0.9*pi/2 and pi/2
        assert not matignon_stable(eigs, 1.0)
        assert matignon_stable(eigs, 0.9)

    def test_positive_real_eigenvalue_never_stable(self):
        assert not matignon_stable((0.5, -1.0), 0.2)

    def test_zero_eigenvalue_diagnostic(self):
        with pytest.raises(NonhyperbolicError):
            matignon_stable((0.0, -1.0), 0.5)

    def test_order_monotonicity(self):
        # once unstable at m, unstable at every larger order
        rng = np.random.RandomState(5)
        orders = np.linspace(0.05, 1.0, 20)
        for _ in range(200):
            eigs = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),)
            if eigs[0] == 0:
                continue
            flags = [matignon_stable(eigs, m) for m in orders]
            # flags must be non-increasing over m
            assert all(a or not b for a, b in zip(flags, flags[1:]))


class TestRouthHurwitz:
    def test_distinct_negative_roots(self):
        for m in (0.2, 0.7, 1.0):
            assert routh_hurwitz_fractional(3.0, 2.0, m)

    def test_reference_coefficient_pair(self, low_complexity):
        point = equilibria(low_complexity)[2].point
        jac = jacobian(low_complexity, point)
        a1, a2 = -jac.trace, jac.det
        assert routh_hurwitz_fractional(a1, a2, 0.95)
        assert not routh_hurwitz_fractional(a1, a2, 0.995)

    def test_zero_constant_coefficient_diagnostic(self):
        with pytest.raises(NonhyperbolicError):
            routh_hurwitz_fractional(1.0, 0.0, 0.5)

    def test_agreement_with_argument_test(self):
        # two independent routes must agree: coefficient cases vs principal
        # arguments of numerically computed roots
        rng = np.random.RandomState(2024)
        checked = 0
        for _ in range(2000):
            a1 = rng.uniform(-3.0, 3.0)
            a2 = rng.uniform(-2.0, 4.0)
            if abs(a2) < 1e-12:
                continue
            roots = np.roots([1.0, a1, a2])
            for m in (0.3, 0.6, 0.9, 1.0):
                assert routh_hurwitz_fractional(a1, a2, m) == matignon_stable(roots, m)
            checked += 1
            if checked >= 1000:
                break
        assert checked == 1000


class TestCriticalOrder:
    def test_reference_value(self, low_complexity):
        result = critical_order(low_complexity)
        assert result.reason == "hopf"
        assert result.value == pytest.approx(0.9898, abs=5e-4)

    def test_stable_for_all_orders(self, mid_complexity):
        result = critical_order(mid_complexity)
        assert result.value is None
        assert result.reason == "stable-for-all-m"

    def test_unstable_for_all_orders(self, low_complexity):
        # scaling the growth rate blows trace past 2 sqrt(det)
        p = replace(low_complexity, r=6000.0, c=0.02)
        result = critical_order(p)
        assert result.value is None
        assert result.reason == "unstable-for-all-m"

    def test_no_interior_is_domain_error(self, high_complexity):
        with pytest.raises(ValueError):
            critical_order(high_complexity)

    def test_argument_test_flips_across_m_star(self, low_complexity):
        m_star = critical_order(low_complexity).value
        eigs = jacobian(low_complexity, equilibria(low_complexity)[2].point).eigenvalues
        assert matignon_stable(eigs, m_star - 1e-3)
        assert not matignon_stable(eigs, m_star + 1e-3)


class TestClassification:
    def test_high_complexity_regime(self, high_complexity):
        for m in (0.3, 0.9, 1.0):
            reports = classify_equilibria(high_complexity, m)
            assert len(reports) == 2  # no interior state
            by_kind = {rep.equilibrium.kind: rep for rep in reports}
            assert by_kind["trivial"].classification == "saddle"
            assert by_kind["predator_free"].classification == "stable"

    def test_mid_complexity_interior_stable(self, mid_complexity):
        reports = classify_equilibria(mid_complexity, 0.9)
        interior = reports[2]
        assert interior.equilibrium.kind == "interior"
        assert interior.classification == "stable"
        assert interior.m_star is None
        assert interior.valid_orders == (0.0, 1.0)
        assert reports[1].classification == "saddle"  # predator-free below c1

    def test_low_complexity_order_dependence(self, low_complexity):
        stable = classify_equilibria(low_complexity, 0.95)[2]
        unstable = classify_equilibria(low_complexity, 0.995)[2]
        m_star = critical_order(low_complexity).value
        assert stable.classification == "stable"
        assert stable.valid_orders == (0.0, m_star)
        assert unstable.classification == "unstable"
        assert unstable.valid_orders == (m_star, 1.0)

    def test_boundary_order_is_nonhyperbolic(self, low_complexity):
        m_star = critical_order(low_complexity).value
        report = classify_equilibria(low_complexity, m_star)[2]
        assert report.classification == "nonhyperbolic"

    @pytest.mark.parametrize("m", [0.5, 0.9, 1.0])
    def test_predator_free_point_at_c1_is_nonhyperbolic(self, high_complexity, m):
        # at c = c1 the predator growth rate at (K, 0) rounds to 2.2e-16,
        # inside the zero band of the argument test
        at_c1 = replace(high_complexity, c=thresholds(high_complexity).c1)
        report = classify_equilibria(at_c1, m)[1]
        assert abs(report.eigenvalues[1]) < 1e-12
        assert report.classification == "nonhyperbolic"

    def test_simulation_concordance(self, high_complexity, mid_complexity, low_complexity):
        # perturb each attractor/repeller and compare growth of the distance
        # with the classified stability
        cases = [
            (high_complexity, 1, 0.9, True),
            (mid_complexity, 2, 0.9, True),
            (low_complexity, 2, 0.95, True),
            (low_complexity, 2, 0.995, False),
        ]
        for p, index, m, expect_stable in cases:
            eq = np.array(equilibria(p)[index].point)
            report = classify_equilibria(p, m)[index]
            assert (report.classification == "stable") == expect_stable
            start = eq * (1.0 + 1e-3) + 1e-3
            traj = pece_solve(vector_field(p), start, m, SolverConfig(step=0.05, horizon=200.0))
            dist = np.linalg.norm(traj.states - eq, axis=1)
            grew = dist[-1000:].max() > 2.0 * dist[0]
            assert grew == (not expect_stable)


class TestGlobalStability:
    def test_predator_free_flag(self, high_complexity):
        flags = global_stability_check(high_complexity)
        assert flags.E1_global and not flags.Estar_global

    def test_interior_flag(self, mid_complexity):
        flags = global_stability_check(mid_complexity)
        assert flags.Estar_global and not flags.E1_global

    def test_neither_guaranteed_at_low_complexity(self, low_complexity):
        flags = global_stability_check(low_complexity)
        assert not flags.E1_global and not flags.Estar_global


class TestBoundednessEnvelope:
    def test_initial_value(self, high_complexity):
        assert boundedness_envelope(high_complexity, 0.9, 0.5, 33.0, 0.0) == pytest.approx(33.0)

    def test_long_time_limit_integer_order(self, high_complexity):
        p = high_complexity
        eta = p.d / 2.0
        level = p.K * (p.r + eta) ** 2 / (4.0 * p.r) / eta
        assert boundedness_envelope(p, 1.0, eta, 10.0, 200.0) == pytest.approx(level, abs=1e-6)

    def test_damping_domain(self, high_complexity):
        for eta in (0.0, high_complexity.d, 2.0):
            with pytest.raises(ValueError):
                boundedness_envelope(high_complexity, 0.9, eta, 10.0, 1.0)

    @pytest.mark.parametrize(
        "V0,t,message",
        [
            (math.nan, 3.0, "V0 must be finite and >= 0, got nan"),
            (10.0, math.nan, "t must be >= 0, got nan"),
            (math.inf, 3.0, "V0 must be finite and >= 0, got inf"),
            (-math.inf, 3.0, "V0 must be finite and >= 0, got -inf"),
        ],
        ids=["V0", "t", "V0_inf", "V0_minus_inf"],
    )
    def test_nan_rejected(self, high_complexity, V0, t, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            boundedness_envelope(high_complexity, 0.9, 0.5, V0, t)

    def test_infinite_time_gives_the_level(self, high_complexity):
        p = high_complexity
        level = p.K * (p.r + 0.5) ** 2 / (4.0 * p.r) / 0.5
        assert boundedness_envelope(p, 0.9, 0.5, 10.0, math.inf) == level

    def test_dominates_simulated_trajectories(
        self, high_complexity, mid_complexity, low_complexity
    ):
        for p in (high_complexity, mid_complexity, low_complexity):
            for m in (0.9, 1.0):
                traj = pece_solve(
                    vector_field(p), [10.0, 5.0], m, SolverConfig(step=0.05, horizon=60.0)
                )
                assert np.min(traj.states) >= -1e-9  # positivity
                weighted = traj.states[:, 0] + traj.states[:, 1] / p.theta
                v0 = 10.0 + 5.0 / p.theta
                eta = p.d / 2.0
                envelope = np.array(
                    [boundedness_envelope(p, m, eta, v0, t) for t in traj.times]
                )
                assert np.all(weighted <= envelope + 1e-6)

    def test_decays_like_mittag_leffler(self, high_complexity):
        p = high_complexity
        eta = p.d / 2.0
        level = p.K * (p.r + eta) ** 2 / (4.0 * p.r) / eta
        v0 = 2000.0
        for t in (0.5, 2.0, 10.0):
            expected = (v0 - level) * mittag_leffler(0.8, -eta * t**0.8) + level
            assert boundedness_envelope(p, 0.8, eta, v0, t) == pytest.approx(expected, rel=1e-12)
