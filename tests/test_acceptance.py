"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s or -rA to see them on success)."""

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from fracprey import (
    DiscreteConfig,
    ModelParams,
    SolverConfig,
    boundedness_envelope,
    classify_fixed_points,
    cluster_count,
    critical_order,
    equilibria,
    hopf_normal_form,
    iterate_orbit,
    jacobian,
    mittag_leffler,
    pece_solve,
    step_map,
    step_thresholds,
    sweep_step_size,
    thresholds,
    vector_field,
)

from test_stability import matignon_stable, routh_hurwitz_fractional

BASE = dict(r=2.65, K=898.0, alpha=0.045, h=0.0437, theta=0.215, d=1.06)
P86 = ModelParams(c=0.86, **BASE)
P45 = ModelParams(c=0.45, **BASE)
P05 = ModelParams(c=0.05, **BASE)

STEP_TABLE = {
    0.3: (0.2729, 26269.0, 0.0041, 256.7923),
    0.4: (0.3669, 2005.2, 0.0159, 62.3401),
    0.6: (0.5186, 160.8894, 0.0639, 15.9072),
    0.8: (0.6436, 47.5805, 0.1339, 8.3894),
    0.95: (0.7279, 27.2757, 0.1940, 6.3253),
}


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}", flush=True)


def test_criterion_01_thresholds():
    with criterion(1, "complexity/conversion thresholds within 5e-4"):
        th = thresholds(P86)
        assert th.c1 == pytest.approx(0.8445, abs=5e-4)
        assert th.theta1 == pytest.approx(0.0726, abs=5e-4)
        assert th.c2 == pytest.approx(0.1227, abs=5e-4)
        assert th.theta2 == pytest.approx(0.1673, abs=5e-4)


def test_criterion_02_interior_equilibrium():
    with criterion(2, "interior equilibrium within 1e-3 componentwise"):
        point = equilibria(P45)[2].point
        assert point[0] == pytest.approx(253.9056, abs=1e-3)
        assert point[1] == pytest.approx(97.8867, abs=1e-3)


def test_criterion_03_jacobian_scalars():
    with criterion(3, "interior Jacobian scalars within 1e-3"):
        jac45 = jacobian(P45, equilibria(P45)[2].point)
        assert jac45.trace == pytest.approx(-0.3398, abs=1e-3)
        jac05 = jacobian(P05, equilibria(P05)[2].point)
        assert jac05.trace == pytest.approx(0.0437, abs=1e-3)
        assert 2.0 * np.sqrt(jac05.det) == pytest.approx(2.7152, abs=1e-3)


def test_criterion_04_critical_order_and_dynamics():
    with criterion(4, "critical order 0.9898 (5e-4); convergence below, oscillation above"):
        m_star = critical_order(P05).value
        assert m_star == pytest.approx(0.9898, abs=5e-4)
        target = np.array(equilibria(P05)[2].point)
        start = target + 1.0
        cfg = SolverConfig(step=0.05, horizon=300.0)

        settled = pece_solve(vector_field(P05), start, 0.95, cfg)
        dist = np.linalg.norm(settled.states - target, axis=1)
        assert dist[-1] < 0.1 * dist[0]

        oscillating = pece_solve(vector_field(P05), start, 0.995, cfg)
        dist = np.linalg.norm(oscillating.states - target, axis=1)
        assert dist[-2000:].max() > 3.0 * dist[0]


def test_criterion_05_step_threshold_table():
    with criterion(5, "all twenty critical step sizes (5e-3 relative / print precision)"):
        for m, (s2, s3, s4, s5) in STEP_TABLE.items():
            st86 = step_thresholds(P86, m)
            st45 = step_thresholds(P45, m)
            for got, ref in ((st86.s2, s2), (st86.s3, s3), (st45.s4, s4), (st45.s5, s5)):
                # 5e-4 floor covers the one table entry printed to only two
                # significant figures (s4 at m = 0.3)
                assert abs(got - ref) <= max(5e-3 * abs(ref), 5e-4), (m, ref, got)


def test_criterion_06_discrete_stability_flips():
    with criterion(6, "orbit convergence flips across the critical step sizes"):
        e1 = np.array([P86.K, 0.0])
        for s, should_converge in ((0.68, True), (0.8, False)):
            orbit = iterate_orbit(
                P86, DiscreteConfig(s=s, m=0.95, iterations=10000, transient=2000), (10.0, 5.0)
            )
            tail = np.linalg.norm(orbit.states[-1000:] - e1, axis=1).max()
            assert (tail < 1e-3) == should_converge, (s, tail)

        interior = np.array(equilibria(P45)[2].point)
        for s, should_converge in ((0.12, True), (0.22, False)):
            orbit = iterate_orbit(
                P45, DiscreteConfig(s=s, m=0.95, iterations=10000, transient=2000), (10.0, 5.0)
            )
            tail = np.linalg.norm(orbit.states[-1000:] - interior, axis=1).max()
            assert (tail < 1e-3) == should_converge, (s, tail)


def test_criterion_07_hopf_normal_form():
    with criterion(7, "critical eigenvalues, transversality, and discriminant"):
        nf = hopf_normal_form(P45, 0.95)
        assert nf.s4 == pytest.approx(0.194, abs=5e-4)
        assert nf.lambda1.real == pytest.approx(0.9635, abs=1e-3)
        assert abs(nf.lambda1.imag) == pytest.approx(0.2678, abs=1e-3)
        assert abs(nf.lambda1) == pytest.approx(1.0, abs=1e-8)
        assert nf.transversality == pytest.approx(0.1699, abs=1e-3)
        assert nf.gamma < 0.0
        assert abs(nf.gamma) == pytest.approx(1.9961e-8, rel=0.10)


def test_criterion_08_flip_eigenvalues():
    with criterion(8, "flip-point eigenvalues (-1, +1) within 1e-6"):
        c1 = thresholds(P86).c1
        at_c1 = replace(P86, c=c1)
        s5 = step_thresholds(at_c1, 0.95).s5
        assert s5 == pytest.approx(0.7279, abs=5e-4)
        report = classify_fixed_points(at_c1, s5, 0.95)[1]
        eigs = sorted(e.real for e in report.eigenvalues)
        assert eigs[0] == pytest.approx(-1.0, abs=1e-6)
        assert eigs[1] == pytest.approx(1.0, abs=1e-6)


def test_criterion_09_property_suites():
    with criterion(9, "coefficient/argument agreement, solver oracles, reductions, bounds"):
        # argument test vs coefficient test on 1000 random quadratics
        rng = np.random.RandomState(2024)
        checked = 0
        while checked < 1000:
            a1 = rng.uniform(-3.0, 3.0)
            a2 = rng.uniform(-2.0, 4.0)
            if abs(a2) < 1e-12:
                continue
            roots = np.roots([1.0, a1, a2])
            for m in (0.3, 0.6, 0.9, 1.0):
                assert routh_hurwitz_fractional(a1, a2, m) == matignon_stable(roots, m)
            checked += 1

        # solver against the Mittag-Leffler oracle on linear decay
        traj = pece_solve(lambda u: -u, [1.0], 0.8, SolverConfig(step=0.01, horizon=1.0))
        assert abs(traj.states[-1, 0] - mittag_leffler(0.8, -1.0)) < 5e-3

        # integer-order reduction: one-step Adams pair in anchored form
        def rhs_logistic(u):
            return u * (1.0 - u)

        h, n_steps = 0.05, 40
        traj = pece_solve(rhs_logistic, [0.1], 1.0, SolverConfig(step=h, horizon=h * n_steps))
        u_hist = [0.1]
        f_hist = [rhs_logistic(0.1)]
        for n in range(n_steps):
            predicted = u_hist[0] + h * sum(f_hist)
            corrected = u_hist[0] + (h / 2.0) * (
                f_hist[0] + 2.0 * sum(f_hist[1 : n + 1]) + rhs_logistic(predicted)
            )
            u_hist.append(corrected)
            f_hist.append(rhs_logistic(corrected))
        assert np.max(np.abs(traj.states[:, 0] - np.array(u_hist))) < 1e-10

        # integer-order reduction of the map: forward Euler
        rng = np.random.RandomState(42)
        for _ in range(20):
            state = rng.uniform(0.0, 500.0, size=2)
            euler = state + 0.3 * vector_field(P45)(state)
            assert np.max(np.abs(step_map(P45, 0.3, 1.0, state) - euler)) < 1e-12

        # positivity and envelope domination on the reference trajectories
        for p in (P86, P45, P05):
            for m in (0.9, 1.0):
                traj = pece_solve(vector_field(p), [10.0, 5.0], m, SolverConfig(step=0.05, horizon=60.0))
                assert np.min(traj.states) >= -1e-9
                weighted = traj.states[:, 0] + traj.states[:, 1] / p.theta
                v0 = 10.0 + 5.0 / p.theta
                envelope = np.array(
                    [boundedness_envelope(p, m, p.d / 2.0, v0, t) for t in traj.times]
                )
                assert np.all(weighted <= envelope + 1e-6)

        # fixed points of the map are roots of the field
        for p in (P86, P45, P05):
            for eq in equilibria(p):
                if not eq.exists:
                    continue
                point = np.asarray(eq.point)
                scale = 1.0 + np.linalg.norm(point)
                assert np.linalg.norm(vector_field(p)(point)) <= 1e-9 * scale
                moved = step_map(p, 0.3, 0.9, point)
                assert np.linalg.norm(moved - point) <= 1e-9 * scale


def test_criterion_10_bifurcation_structure():
    with criterion(10, "sweep: onset at the critical step, doubling cascade window"):
        result = sweep_step_size(
            P45, 0.95, 0.10, 0.55, 46, transient=5000, n_samples=200, x0=(10.0, 5.0), kick=1e-3
        )
        counts = {
            round(float(s), 6): cluster_count(block)
            for s, block in zip(result.parameter_values, result.samples)
        }
        values = [round(float(s), 6) for s in result.parameter_values]
        assert all(counts[s] == 1 for s in values if s <= 0.19)
        assert all(counts[s] > 1 for s in values if s >= 0.20)

        onset_low = max(s for s in values if counts[s] == 1)
        onset_high = min(s for s in values if counts[s] > 1)
        hopf = [e for e in result.events if e.kind == "hopf"]
        assert len(hopf) == 1
        assert onset_low <= hopf[0].s <= onset_high
        assert onset_high - onset_low <= 0.0100001

        cascade = [counts[s] for s in values if 0.48 <= s <= 0.55]
        assert max(cascade) >= 4
