import gc
import hashlib
import math
import os
import subprocess
import statistics
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
from fracprey.pece import ESCAPE_BOUND, MAX_GRID_VALUES, _add_history, _fft_length, history_weights


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


class TestAddHistory:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n_src,n_dst", [(64, 64), (256, 256), (256, 37), (128, 1)])
    def test_matches_direct_sums(self, d, n_src, n_dst):
        # n_dst < n_src is the last level of a grid that ends inside it
        rng = np.random.default_rng([d, n_src, n_dst])
        rates = rng.standard_normal((n_src, d))
        kernels = history_weights(0.85, n_src + n_dst)[:2]
        start = rng.standard_normal((n_dst, 2, d))
        hist = start.copy()
        _add_history(rates, kernels, hist)
        # destination node j lies n_src + j - k nodes after source node k
        expected = start.copy()
        for j in range(n_dst):
            for q in range(2):
                expected[j, q] += kernels[q, j : n_src + j][::-1] @ rates
        assert np.allclose(hist, expected, rtol=0.0, atol=1e-13 * np.max(np.abs(expected)))


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


# SHA-256 of states.tobytes() for 3000 steps from (10, 5) at h = 0.05, as the
# vector (numpy per step) form of the solver computed them
GOLDEN_STATES = {
    ("high_complexity", 1, 0.8): "8520abb439805c4b5580c8322550df85d19b67c5d39d1e86731038be64be73e5",
    ("high_complexity", 1, 0.95): "a5a25f6420df32eb9498c66ad7185ab28b8f85a75d20dd17e75d9eb182246fa3",
    ("high_complexity", 1, 1.0): "8152e6ff8f26c280779817c13a8151bf060762b593de876b278e75e6e4683fd5",
    ("high_complexity", 3, 0.8): "71bff63706e1fe46c562f2647f01e94a8dbb4feae582fec45a1d4a876d0a755d",
    ("high_complexity", 3, 0.95): "8e4c8a80a1cd97b13e79a6f980f20ea898179e928bfa78edea32e0c409efccbf",
    ("high_complexity", 3, 1.0): "64fcf9a6cbdac3b0255ffc1e4f100e3cebe10890f313a8dafc87fd319e2351bf",
    ("mid_complexity", 1, 0.8): "094bc352653823bd4d887aa5e731b043935bc5e4ace5eee8702cd8d33879e0d9",
    ("mid_complexity", 1, 0.95): "90f8d8240aa32b59346c8da1c8a60c9390b635575e7bba9700c3f395337aa6a2",
    ("mid_complexity", 1, 1.0): "100ac1a340827a23a5da93fb1c81e948b67bb331f28301a060b209bff06419cd",
    ("mid_complexity", 3, 0.8): "26a3a7f75b90600eaf031508a86a59dc45d408cb40f60fb98ba0d3b039740a07",
    ("mid_complexity", 3, 0.95): "5ae24d73e9793ab072472c2072b802b563b518e5a31e0a7e72f4142182eed381",
    ("mid_complexity", 3, 1.0): "c0447dd75cc7233be8972d58081b9df92b96b022af69874019ded32c92c7eef8",
    ("low_complexity", 1, 0.8): "797190374893c255b7149bd072086c8ac8896a026689d00b3b8c79a07de8aae4",
    ("low_complexity", 1, 0.95): "7a0a911d78b243c5051bb2b6a3145aa3c6df220787d09034e6c21d033742e254",
    ("low_complexity", 1, 1.0): "829d5a2c16f1365d858dc2805e5bb1311ea97e98f2593eededdced2c0847d26c",
    ("low_complexity", 3, 0.8): "aac095d6f0951566324e1d35d64a688cfa0b1534341fe6d62ca2b62a3afd059d",
    ("low_complexity", 3, 0.95): "675065518553e50a5d1270a7c357cf1614e13bb9cd3ba5fdcad5c5a257713c0b",
    ("low_complexity", 3, 1.0): "c3ac7e7550f8290b4f323fd25efc36c385e4dcf3d46066ebb00fde5d88216568",
}


def coupled_field(u):
    """A three-component nonlinear field: a state size the model loop never takes."""
    x, y, z = u
    return np.array([-0.4 * x + y * z, -0.7 * y - x * z + 0.2, -0.9 * z + 0.5 * x * y])


# SHA-256 of states.tobytes() through the generic (ndarray) step loop at
# m = 0.9 and h = 0.05, by (field, corrector sweeps, n_steps): "decay" is
# -1.3 u from (1,), "coupled" is coupled_field from (1, -0.5, 0.25); the grids
# are shorter than, around and well past one block of 64 nodes
GOLDEN_GENERIC_STATES = {
    ("decay", 1, 1): "6399be621b87512ccffa6d2243609e2b46b5eec6e8a2aa085a1b7d2eae62d7c9",
    ("decay", 1, 63): "3eeb76b8bba95358eac7a245243ff2722d4f597c11fe173d001cc4c903035492",
    ("decay", 1, 64): "4a7c82d8190b1092717933d91ccf6854aaaace58cd4842cd8d85c7bb2db7a07a",
    ("decay", 1, 65): "d68f79d29918e32cffac5380dff8cbf2ca5f5cff9501914faab43fd4fd233a60",
    ("decay", 1, 3000): "02e83a2cbd2ffad7121dafbfb8fbba78337c3b34ac3e945f314d5e5f60fe9561",
    ("decay", 3, 1): "6ce624ecce14dc8a4354d7715cb1d847ff00cba3b439c9c7e3de5f07ff1f12c3",
    ("decay", 3, 63): "8fd86893940dcfe2224f2f6068c3738d34f43c8fce14c906c3019084b67ea76b",
    ("decay", 3, 64): "86d1e56d0f3b7e064c8aee9a16a3d2a6363c5a6b8490b4a7bb940d6f4c225889",
    ("decay", 3, 65): "d8742d2d9be3108a42030f27469c3c64bc7d4d9e7040aade4d23753cd01b8d03",
    ("decay", 3, 3000): "6b6edbf04f962e1a9ff0d65b60e7d39a7e0fa49e67d240099a9ff97a6c4c8fd8",
    ("coupled", 1, 1): "90129354105a07892c925dbb8747912e10d0a55f15a10cf97a2536958f13563c",
    ("coupled", 1, 63): "03c98fdfa150a1f7cd3551d607e8304c1b87765e58f774dd4bb60d5527fcc04c",
    ("coupled", 1, 64): "3e1c0a728b21fd8d9983f474eadf31a87af92b593bdf74a69f72ca06f2c7f97b",
    ("coupled", 1, 65): "f2dcf3062ef8b0ac4a9b11e2d72b4bf4e52ee372c5709937421815d1cd6131b4",
    ("coupled", 1, 3000): "f3c15154e3067a889ea89b61f177746e9e101e8f36560b01635065f243a4f104",
    ("coupled", 3, 1): "5c9bf79f60ca8d47f881204260d545c5625d732e8a14ee54f68b800e2247b868",
    ("coupled", 3, 63): "069274e785771804db2fc84454e97456f39f520ce1dbf2988a43e83fe035ed2e",
    ("coupled", 3, 64): "b1b5d099632c1cbdb3bc4340f787ece09761378bbfaa7cf72679b183d2b5d8db",
    ("coupled", 3, 65): "2ba663cb42ac04b5ec7f779535c244a8122baf61f317af64a490cd0e5f4b6627",
    ("coupled", 3, 3000): "33af14a250f2c8188c9438a50596feb7d5ffb8eff682ceba4b8628ff15719106",
}


class TestGoldenTrajectories:
    @pytest.mark.parametrize("regime,sweeps,m", sorted(GOLDEN_STATES))
    def test_states_bit_identical(self, request, regime, sweeps, m):
        field = vector_field(request.getfixturevalue(regime))
        cfg = SolverConfig(step=0.05, horizon=0.05 * 3000, corrector_sweeps=sweeps)
        states = pece_solve(field, [10.0, 5.0], m, cfg).states
        assert states.shape == (3001, 2)
        assert hashlib.sha256(states.tobytes()).hexdigest() == GOLDEN_STATES[regime, sweeps, m]

    @pytest.mark.parametrize("name,sweeps,n_steps", sorted(GOLDEN_GENERIC_STATES))
    def test_generic_loop_bit_identical(self, name, sweeps, n_steps):
        rhs, x0 = {"decay": (lambda u: -1.3 * u, [1.0]), "coupled": (coupled_field, [1.0, -0.5, 0.25])}[name]
        cfg = SolverConfig(step=0.05, horizon=0.05 * n_steps, corrector_sweeps=sweeps)
        states = pece_solve(rhs, x0, 0.9, cfg).states
        assert states.shape == (n_steps + 1, len(x0))
        assert hashlib.sha256(states.tobytes()).hexdigest() == GOLDEN_GENERIC_STATES[name, sweeps, n_steps]


class TestFieldEntry:
    @pytest.mark.parametrize("sweeps", [1, 3])
    @pytest.mark.parametrize(
        "regime,m", [("high_complexity", 0.9), ("mid_complexity", 0.9), ("low_complexity", 0.95)]
    )
    def test_float_entry_matches_array_contract(self, request, regime, m, sweeps):
        # the model's field is called through its float closure; wrapped in a
        # plain lambda it goes through the array adapter: same bits either way
        field = vector_field(request.getfixturevalue(regime))
        cfg = SolverConfig(step=0.05, horizon=0.05 * 2000, corrector_sweeps=sweeps)
        fast = pece_solve(field, [10.0, 5.0], m, cfg).states
        plain = pece_solve(lambda u: field(u), [10.0, 5.0], m, cfg).states
        assert np.array_equal(fast, plain)

    # a grid shorter than one block, and grids around the _BLOCK = 64 edge
    @pytest.mark.parametrize("n_steps", [1, 63, 64, 65])
    @pytest.mark.parametrize("sweeps", [1, 3])
    @pytest.mark.parametrize("regime", ["high_complexity", "mid_complexity", "low_complexity"])
    def test_block_edges(self, request, regime, sweeps, n_steps):
        field = vector_field(request.getfixturevalue(regime))
        cfg = SolverConfig(step=0.05, horizon=0.05 * n_steps, corrector_sweeps=sweeps)
        fast = pece_solve(field, [10.0, 5.0], 0.9, cfg).states
        plain = pece_solve(lambda u: field(u), [10.0, 5.0], 0.9, cfg).states
        assert fast.shape == (n_steps + 1, 2)
        assert np.array_equal(fast, plain)

    # both entries must escape at the same node with the same state: a step
    # too large for the mid regime, and a start whose rate is NaN
    @pytest.mark.parametrize(
        "x0,m,cfg,t",
        [
            ([10.0, 5.0], 1.0, SolverConfig(step=1.5, horizon=30.0), 12.0),
            ([math.inf, 5.0], 0.9, SolverConfig(step=0.05, horizon=1.0), 0.05),
        ],
        ids=["large_step", "inf_start"],
    )
    def test_divergence_matches_array_contract(self, mid_complexity, x0, m, cfg, t):
        field = vector_field(mid_complexity)
        errors = []
        for rhs in (field, lambda u: field(u)):
            with np.errstate(invalid="ignore"), pytest.raises(SolverDivergenceError) as info:
                pece_solve(rhs, x0, m, cfg)
            errors.append(info.value)
        fast, plain = errors
        assert fast.t == plain.t == pytest.approx(t, abs=1e-12)
        assert np.array_equal(fast.state, plain.state, equal_nan=True)


def mittag_leffler_series(m, z, digits=40):
    """E_m(z) by its power series at `digits` digits: an oracle independent
    of the package's contour rule, fine for the |z| < 3 used here."""
    with mpmath.workdps(digits):
        z = mpmath.mpf(z)
        total, k, term = mpmath.mpf(0), 0, mpmath.mpf(1)
        while k < 20 or abs(term) > mpmath.mpf(10) ** -digits:
            term = z**k / mpmath.gamma(m * k + 1)
            total += term
            k += 1
        return float(total)


class TestLinearProblem:
    @pytest.mark.parametrize("m", [0.5, 0.7, 0.9, 1.0])
    def test_order_at_fixed_time(self, m):
        # The error at a fixed t > 0 converges at order 1 + m (Diethelm, Ford
        # & Freed 2004).  The max norm would not show it: u ~ 1 - c t^m is not
        # smooth at 0, so the largest error sits at t = h and hardly shrinks.
        lam, horizon = 1.3, 2.0
        exact = mittag_leffler_series(m, -lam * horizon**m)
        errs = []
        for h in (0.02, 0.01, 0.005, 0.0025):
            traj = pece_solve(lambda u: -lam * u, [1.0], m, SolverConfig(step=h, horizon=horizon))
            assert traj.times[-1] == pytest.approx(horizon)
            errs.append(abs(traj.states[-1, 0] - exact))
        observed = math.log2(errs[-2] / errs[-1])
        assert abs(observed - (1.0 + m)) <= 0.1, (errs, observed)

    def test_against_mittag_leffler(self):
        cfg = SolverConfig(step=0.01, horizon=1.0)
        traj = pece_solve(linear_decay, [1.0], 0.8, cfg)
        assert traj.states[-1, 0] == pytest.approx(mittag_leffler(0.8, -1.0), abs=5e-3)

    @pytest.mark.parametrize("sweeps", [1, 3])
    @pytest.mark.parametrize("m", [0.8, 1.0])
    def test_diagonal_system_per_component(self, m, sweeps):
        # three uncoupled components of D^m u = -lambda u: each must follow
        # u0 E_m(-lambda t^m) and agree with its own one-component solve
        lam = np.array([0.5, 1.3, 2.0])
        u0 = np.array([1.0, -2.0, 3.0])
        cfg = SolverConfig(step=0.01, horizon=2.0, corrector_sweeps=sweeps)
        traj = pece_solve(lambda u: -lam * u, u0, m, cfg)
        assert traj.states.shape == (201, 3)
        nodes = np.arange(0, 201, 10)
        exact = np.array([[u0[c] * mittag_leffler(m, -lam[c] * t**m) for c in range(3)] for t in traj.times[nodes]])
        assert np.max(np.abs(traj.states[nodes] - exact) / np.abs(u0)) <= 5e-4
        for c in range(3):
            alone = pece_solve(lambda u: -lam[c] * u, [u0[c]], m, cfg).states[:, 0]
            assert np.max(np.abs(traj.states[:, c] - alone)) <= 1e-14 * np.max(np.abs(alone))

    def test_rate_as_scalar_or_list(self):
        # rhs may return anything that broadcasts onto a float64 rate row
        cfg = SolverConfig(step=0.1, horizon=5.0, corrector_sweeps=2)
        ones = pece_solve(lambda u: np.ones_like(u), [0.0], 0.9, cfg).states
        assert np.array_equal(pece_solve(lambda u: 1, [0.0], 0.9, cfg).states, ones)
        pair = pece_solve(lambda u: np.array([-u[0], -2.0 * u[1]]), [1.0, 1.0], 0.9, cfg).states
        assert np.array_equal(pece_solve(lambda u: [-u[0], -2.0 * u[1]], [1.0, 1.0], 0.9, cfg).states, pair)

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

    # each case diverges first at the node t, against the one ESCAPE_BOUND;
    # the non-finite entry sits in the last component, where a max() over the
    # components would miss a NaN
    @pytest.mark.parametrize(
        "rhs,x0,m,cfg,t",
        [
            (lambda u: np.array([-u[0], -u[1] if u[0] > 0.5 else math.nan]), [1.0, 1.0], 0.9,
             SolverConfig(step=0.05, horizon=10.0), 0.65),
            (lambda u: -u, [1.0, math.inf], 0.9, SolverConfig(step=0.05, horizon=10.0), 0.05),
            (lambda u: u, [1.0], 1.0, SolverConfig(step=0.1, horizon=30.0), 27.7),
            (lambda u: u, [1.0, 0.5], 0.8, SolverConfig(step=0.1, horizon=30.0), 27.6),
        ],
        ids=["nan_rate", "inf_start", "int_bound", "int_bound_2d"],
    )
    def test_raises_at_first_bad_node(self, rhs, x0, m, cfg, t):
        with np.errstate(invalid="ignore"):
            with pytest.raises(SolverDivergenceError) as info:
                pece_solve(rhs, x0, m, cfg)
        assert info.value.t == pytest.approx(t, abs=1e-12)
        assert info.value.bound == ESCAPE_BOUND
        assert not np.all(np.abs(info.value.state) <= ESCAPE_BOUND)

    def test_pole_start_raises_at_node_zero(self, mid_complexity):
        # the field's capture term divides by exactly zero at the prey pole
        # x = -1/(alpha (1 - c) h): both loops end there, at the start
        ah = mid_complexity.attack * mid_complexity.h
        pole = -1.0 / ah
        assert 1.0 + ah * pole == 0.0
        field = vector_field(mid_complexity)
        for rhs in (field, lambda u: field(u)):
            with pytest.raises(SolverDivergenceError) as info:
                pece_solve(rhs, [pole, 1.0], 0.9, SolverConfig(step=0.1, horizon=1.0))
            assert info.value.t == 0.0
            assert info.value.state.tolist() == [pole, 1.0]

    def test_zero_divisor_raises_at_its_node(self):
        # a rate on Python floats that divides by zero from u <= 0.5 on: the
        # predictor of the node at t = 0.65, where the nan_rate case above
        # goes non-finite, is the first state it is evaluated at there
        with pytest.raises(SolverDivergenceError) as info:
            pece_solve(lambda u: [-float(u[0]) / float(u[0] > 0.5)], [1.0], 0.9,
                       SolverConfig(step=0.05, horizon=10.0))
        assert info.value.t == pytest.approx(0.65, abs=1e-12)
        assert 0.49 < info.value.state[0] <= 0.5


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(step=0.0, horizon=1.0)
        for step in (math.inf, math.nan):
            with pytest.raises(ValueError, match="0 < step < inf"):
                SolverConfig(step=step, horizon=math.inf)
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
            for cfg in (
                over,
                SolverConfig(step=0.05, horizon=1e9),
                SolverConfig(step=0.05, horizon=math.inf),
                SolverConfig(step=0.05, horizon=1.0, corrector_sweeps=10**9),
            ):
                with pytest.raises(ValueError, match="budget"):
                    pece_solve(lambda u: -u, [1.0, 2.0], 0.9, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_peak_allocation_of_long_solve(self, mid_complexity):
        # states, rates, history sums and weights take about 1.9 MB at 20k
        # steps; the largest FFT level adds about 1.3 MB on top
        field = vector_field(mid_complexity)
        cfg = SolverConfig(step=0.05, horizon=0.05 * 20_000)
        pece_solve(field, [10.0, 5.0], 0.9, SolverConfig(step=0.05, horizon=1.0))
        tracemalloc.start()
        try:
            pece_solve(field, [10.0, 5.0], 0.9, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_500_000

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

        # seven short back-to-back pairs: a change of machine speed spoils
        # at most the pair it falls in, and the median ratio discards it
        ratios = [cpu_seconds(24_000) / cpu_seconds(6_000) for _ in range(7)]
        assert statistics.median(ratios) <= 6.0, ratios


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
