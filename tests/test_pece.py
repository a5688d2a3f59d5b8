import gc
import math
import os
import subprocess
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

import fracprey
from fracprey import (
    ModelParams,
    SolverConfig,
    SolverDivergenceError,
    mittag_leffler,
    pece_solve,
    vector_field,
)
from fracprey.pece import MAX_GRID_VALUES, _fft_length, history_weights


def linear_decay(u):
    return -u


def classical_adams_oracle(rhs, u0, h, n_steps):
    """Independent one-step Adams pair in the anchored (global-sum) form:
    rectangle-rule predictor and trapezoid-rule corrector over the whole
    history, which is what the fractional weights reduce to at m = 1."""
    u = [float(u0)]
    f = [rhs(u0)]
    for n in range(n_steps):
        predicted = u[0] + h * sum(f)
        interior = sum(f[1 : n + 1])
        corrected = u[0] + (h / 2.0) * (f[0] + 2.0 * interior + rhs(predicted))
        u.append(corrected)
        f.append(rhs(corrected))
    return u


def direct_convolution_oracle(rhs, x0, m, cfg):
    """The full-memory scheme with both history sums taken directly over every
    stored node at every step (O(N^2)), on the weights of history_weights."""
    h = cfg.step
    n_steps = int(math.floor(cfg.horizon / h + 1e-9))
    u0 = np.atleast_1d(np.asarray(x0, dtype=float))
    pred_w, corr_w, w0 = history_weights(m, n_steps)
    c_pred = h**m / math.gamma(m + 1.0)
    c_corr = h**m / math.gamma(m + 2.0)
    states = np.empty((n_steps + 1, u0.size))
    rates = np.empty_like(states)
    states[0] = u0
    rates[0] = rhs(u0)
    for n in range(n_steps):
        predicted = u0 + c_pred * (pred_w[: n + 1][::-1] @ rates[: n + 1])
        hist_term = w0[n] * rates[0] + corr_w[:n][::-1] @ rates[1 : n + 1]
        value = predicted
        for _ in range(cfg.corrector_sweeps):
            value = u0 + c_corr * (np.asarray(rhs(value), dtype=float) + hist_term)
        states[n + 1] = value
        rates[n + 1] = rhs(value)
    return states


class TestHistoryWeights:
    @pytest.mark.parametrize("m", [0.1, 0.3, 0.5, 0.9, 0.99, 1.0])
    def test_against_50_digit_reference(self, m):
        pred_w, corr_w, w0 = history_weights(m, 100_001)
        ks = np.unique(np.concatenate([np.arange(300), np.geomspace(300, 1e5, 150).astype(int)]))
        with mpmath.workdps(50):
            mm = mpmath.mpf(m)
            for k in ks:
                kk = mpmath.mpf(int(k))
                exact = (
                    (kk + 1) ** mm - kk**mm,
                    (kk + 2) ** (mm + 1) - 2 * (kk + 1) ** (mm + 1) + kk ** (mm + 1),
                    kk ** (mm + 1) - (kk - mm) * (kk + 1) ** mm,
                )
                for got, ref in zip((pred_w[k], corr_w[k], w0[k]), exact):
                    assert abs(mpmath.mpf(float(got)) / ref - 1) <= 1e-14, (k, got, ref)


class TestClosedForm:
    @pytest.mark.parametrize("m", [1.0, 0.9, 0.5])
    def test_constant_forcing(self, m):
        # D^m u = 1, u(0) = 0 has u(t) = t^m / Gamma(m + 1), which both rules
        # integrate exactly; at m = 1, h = 0.01 this is u(10) = 10
        traj = pece_solve(lambda u: np.ones_like(u), [0.0], m, SolverConfig(step=0.01, horizon=10.0))
        exact = traj.times**m / math.gamma(m + 1.0)
        assert np.allclose(traj.states[:, 0], exact, rtol=1e-12, atol=0.0)


class TestDirectOracle:
    @pytest.mark.parametrize("sweeps", [1, 3])
    @pytest.mark.parametrize(
        "regime,m", [("high_complexity", 0.9), ("mid_complexity", 0.9), ("low_complexity", 0.95)]
    )
    def test_model_regimes(self, request, regime, m, sweeps):
        field = vector_field(request.getfixturevalue(regime))
        cfg = SolverConfig(step=0.05, horizon=0.05 * 20_000, corrector_sweeps=sweeps)
        fast = pece_solve(field, [10.0, 5.0], m, cfg).states
        direct = direct_convolution_oracle(field, [10.0, 5.0], m, cfg)
        assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_linear_decay(self):
        cfg = SolverConfig(step=0.05, horizon=0.05 * 5000)
        fast = pece_solve(lambda u: -1.3 * u, [1.0], 0.9, cfg).states
        direct = direct_convolution_oracle(lambda u: -1.3 * u, [1.0], 0.9, cfg)
        assert np.max(np.abs(fast - direct)) <= 1e-12


class TestLinearProblem:
    def test_against_mittag_leffler(self):
        cfg = SolverConfig(step=0.01, horizon=1.0)
        traj = pece_solve(linear_decay, [1.0], 0.8, cfg)
        assert traj.states[-1, 0] == pytest.approx(mittag_leffler(0.8, -1.0), abs=5e-3)

    def test_zero_field(self):
        cfg = SolverConfig(step=0.1, horizon=1.0)
        for m in (0.3, 0.7, 1.0):
            traj = pece_solve(lambda u: 0.0 * u, [7.0], m, cfg)
            assert np.max(np.abs(traj.states - 7.0)) < 1e-13

    @pytest.mark.parametrize(
        "m,sweeps",
        [(0.8, 2), (1.0, 1)],
    )
    def test_convergence_order(self, m, sweeps):
        # halving the step must shrink the max-norm error by >= 2^min(2,1+m)
        # less 25% slack; the m < 1 case runs with two corrector sweeps since
        # the first-node error of the singular initial layer converges more
        # slowly under a single sweep
        errs = []
        for h in (0.04, 0.02, 0.01):
            cfg = SolverConfig(step=h, horizon=1.0, corrector_sweeps=sweeps)
            traj = pece_solve(linear_decay, [1.0], m, cfg)
            exact = np.array([mittag_leffler(m, -(t**m)) for t in traj.times])
            errs.append(np.max(np.abs(traj.states[:, 0] - exact)))
        required = 2.0 ** min(2.0, 1.0 + m) * 0.75
        assert errs[0] / errs[1] >= required
        assert errs[1] / errs[2] >= required


class TestClassicalReduction:
    def test_matches_classical_adams_on_logistic(self):
        rhs = lambda u: u * (1.0 - u)
        h, n_steps = 0.05, 40
        cfg = SolverConfig(step=h, horizon=h * n_steps)
        traj = pece_solve(rhs, [0.1], 1.0, cfg)
        oracle = classical_adams_oracle(lambda u: float(u * (1.0 - u)), 0.1, h, n_steps)
        assert np.max(np.abs(traj.states[:, 0] - np.array(oracle))) < 1e-10


class TestGridAndDeterminism:
    def test_grid_arithmetic(self):
        traj = pece_solve(linear_decay, [1.0], 0.9, SolverConfig(step=0.05, horizon=0.05))
        assert traj.times.tolist() == [0.0, 0.05]
        assert traj.states.shape == (2, 1)

    def test_bit_identical_reruns(self):
        p = ModelParams(r=2.65, K=898.0, alpha=0.045, h=0.0437, theta=0.215, c=0.45, d=1.06)
        cfg = SolverConfig(step=0.05, horizon=10.0)
        a = pece_solve(vector_field(p), [10.0, 5.0], 0.9, cfg)
        b = pece_solve(vector_field(p), [10.0, 5.0], 0.9, cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)


class TestModelField:
    def test_predator_free_attractor(self, high_complexity):
        cfg = SolverConfig(step=0.05, horizon=80.0)
        traj = pece_solve(vector_field(high_complexity), [10.0, 5.0], 0.95, cfg)
        x, y = traj.states[:, 0], traj.states[:, 1]
        assert y[-1] < 0.05 * y[0]
        assert abs(x[-1] - high_complexity.K) < 2.0


class TestDivergence:
    def test_blow_up_raises(self):
        with pytest.raises(SolverDivergenceError):
            pece_solve(lambda u: u * u, [10.0], 1.0, SolverConfig(step=0.5, horizon=50.0))

    def test_bound_is_configurable(self):
        cfg = SolverConfig(step=0.1, horizon=30.0, blowup_bound=100.0)
        with pytest.raises(SolverDivergenceError):
            pece_solve(lambda u: u, [1.0], 1.0, cfg)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(step=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            SolverConfig(step=0.1, horizon=0.05)
        with pytest.raises(ValueError):
            SolverConfig(step=0.1, horizon=1.0, corrector_sweeps=0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            pece_solve(linear_decay, [1.0], 1.5, SolverConfig(step=0.1, horizon=1.0))


class TestResources:
    def test_grid_budget_rejected_before_allocation(self):
        over = SolverConfig(step=1.0, horizon=MAX_GRID_VALUES // 2 + 1.0)
        tracemalloc.start()
        try:
            for cfg in (over, SolverConfig(step=0.05, horizon=1e9), SolverConfig(step=0.05, horizon=math.inf)):
                with pytest.raises(ValueError, match="budget"):
                    pece_solve(lambda u: -u, [1.0, 2.0], 0.9, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_no_reference_cycles(self, mid_complexity):
        gc.collect()
        gc.disable()
        try:
            pece_solve(vector_field(mid_complexity), [10.0, 5.0], 0.9, SolverConfig(step=0.05, horizon=500.0))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_sub_quadratic_scaling(self, mid_complexity):
        # direct O(N^2) sums take about 16x as long for 4x the steps
        field = vector_field(mid_complexity)

        def cpu_seconds(n_steps):
            start = time.process_time()
            pece_solve(field, [10.0, 5.0], 0.9, SolverConfig(step=0.05, horizon=0.05 * n_steps))
            return time.process_time() - start

        # interleaved best-of-three, so a change of machine speed hits both sizes
        small = large = math.inf
        for _ in range(3):
            small = min(small, cpu_seconds(12_000))
            large = min(large, cpu_seconds(48_000))
        assert large <= 6.0 * small


class TestNoScipy:
    def test_fft_length_matches_scipy(self):
        # the FFT sizes scipy chose before, so trajectories stay bit-identical
        from scipy.fft import next_fast_len

        sizes = list(range(1, 20_001)) + [2**k + d for k in range(15, 31) for d in (-1, 1)]
        assert [_fft_length(n) for n in sizes] == [next_fast_len(n, real=True) for n in sizes]

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(fracprey.__file__)))
        code = "import sys, fracprey, fracprey.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
