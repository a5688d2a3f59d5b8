import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfc

from fracprey import MittagLefflerError, gamma_fn, mittag_leffler, special


def series_oracle(m, z):
    """Brute-force partial sums of the defining series at high precision.

    For z < 0 the terms alternate once past the peak, so the remainder is
    bounded by the first dropped term; we stop when that bound is < 1e-30.
    The working precision is sized from a float scan of the peak term
    magnitude so cancellation cannot eat the answer.
    """
    log10_az = math.log10(abs(z))
    peak = 0.0
    k = 1
    while True:
        log10_term = k * log10_az - math.lgamma(m * k + 1.0) / math.log(10.0)
        peak = max(peak, log10_term)
        if log10_term < -32.0:
            break
        k += 1
        assert k < 500_000, "oracle runaway"
    k_max = k + 10
    with mp.workdps(int(peak) + 50):
        total = mp.mpf(0)
        zz = mp.mpf(z)
        mm = mp.mpf(m)  # gamma arguments must be built in working precision
        for k in range(k_max + 1):
            total += zz**k / mp.gamma(mm * k + 1)
        return float(total)


def integral_oracle(m, x, dps=40):
    """Independent high-precision tanh-sinh quadrature of the spectral
    integral for E_m(-x) (different quadrature engine and precision from the
    implementation's fixed 29-node contour rule in float64)."""
    with mp.workdps(dps):
        mm = mp.mpf(m)
        xx = mp.mpf(x)
        cos_m = mp.cos(mp.pi * mm)
        sin_m = mp.sin(mp.pi * mm)

        def f(u):
            return mp.e ** (-(u ** (1 / mm))) / ((u + xx * cos_m) ** 2 + (xx * sin_m) ** 2)

        u_star = -xx * cos_m
        cut = max(mp.mpf(50) ** mm, 2 * u_star, mp.mpf(1))
        points = [0, u_star, cut, mp.inf] if 0 < u_star < cut else [0, cut, mp.inf]
        val = mp.quad(f, points)
        return float(xx * sin_m / (mm * mp.pi) * val)


class TestGamma:
    def test_integers(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(5.0) == 24.0

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(1.772453850905516, rel=1e-12)

    def test_recurrence(self):
        for x in (0.3, 0.95, 2.7, 8.1):
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            gamma_fn(bad)


class TestMittagLeffler:
    def test_exponential_case(self):
        assert mittag_leffler(1.0, -1.0) == pytest.approx(0.36787944117, abs=1e-10)
        for z in (-3.0, 0.7, 2.0):
            assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-14)

    def test_at_zero(self):
        assert mittag_leffler(0.5, 0.0) == 1.0

    def test_branch_edges(self):
        # m = 1 is exp on both sides of zero and at both zeros; below it
        # both zeros give 1, neither going to the contour rule
        for z in (-3.0, -0.0, 0.0, 0.7):
            assert mittag_leffler(1.0, z) == math.exp(z)
        for m in (0.05, 0.5, 0.9, 0.9999):
            for z in (-0.0, 0.0):
                assert mittag_leffler(m, z) == 1.0

    def test_half_order_reference(self):
        # frozen from the series oracle; cross-checked against the erfc identity
        frozen = 0.42758357615580705
        assert mittag_leffler(0.5, -1.0) == pytest.approx(frozen, abs=1e-10)
        assert math.e * erfc(1.0) == pytest.approx(frozen, abs=1e-12)

    @pytest.mark.parametrize("m", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("z", [-0.4, -2.0, -5.0])
    def test_against_series_oracle(self, m, z):
        assert mittag_leffler(m, z) == pytest.approx(series_oracle(m, z), abs=1e-10)

    @pytest.mark.parametrize("z", [-8.0, -20.0])
    @pytest.mark.parametrize("m", [0.6, 0.9])
    def test_against_series_oracle_deeper(self, m, z):
        assert mittag_leffler(m, z) == pytest.approx(series_oracle(m, z), abs=1e-10)

    @pytest.mark.parametrize("x", [10.0, 25.0, 50.0])
    def test_half_order_identity_deep(self, x):
        # E_{1/2}(-x) = exp(x^2) erfc(x), evaluated at high precision
        with mp.workdps(60):
            exact = float(mp.e ** (mp.mpf(x) ** 2) * mp.erfc(x))
        assert mittag_leffler(0.5, -x) == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("m", [0.3, 0.7, 0.9, 0.99])
    @pytest.mark.parametrize("x", [10.0, 50.0])
    def test_against_integral_oracle(self, m, x):
        assert mittag_leffler(m, -x) == pytest.approx(integral_oracle(m, x), abs=1e-10)

    @pytest.mark.parametrize("m", [0.3, 0.9])
    def test_asymptotic_sanity(self, m):
        # leading terms of the large-argument expansion, loose tolerance
        x = 50.0
        acc = 0.0
        for k in range(1, 5):
            acc += (-1.0) ** (k + 1) * x ** (-k) / math.gamma(1.0 - m * k)
        assert mittag_leffler(m, -x) == pytest.approx(acc, abs=1e-6)

    def test_monotone_decay(self):
        values = [mittag_leffler(0.8, -z) for z in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.2, -1.0)

    def test_positive_argument_rejected(self):
        # below m = 1 only z <= 0 is served; m = 1 stays exp for every z
        for z in (1e-300, 0.7, 60.0, math.inf):
            for m in (0.05, 0.5, 0.9999):
                with pytest.raises(ValueError, match=r"only for z <= 0"):
                    mittag_leffler(m, z)
            assert mittag_leffler(1.0, z) == math.exp(z)

    def test_nan_argument_rejected(self):
        # a NaN fails both z == 0 and z < 0; below m = 1 it would otherwise be
        # rejected as a positive argument, and exp at m = 1 would return it
        # silently
        for m in (0.5, 0.9, 1.0):
            with pytest.raises(ValueError, match="z must not be NaN"):
                mittag_leffler(m, math.nan)


class TestContourRule:
    """E_m(-x) from the fixed-node parabolic contour rule."""

    # At small m the oracle's integrand exp(-u^(1/m)) is nearly a step at
    # u = 1: 40 digits take seconds per case (over a minute at m = 0.01),
    # and 20 digits agree with them at m = 0.05 but still take about 6 s at
    # m = 0.01.  Near m = 1 the peak of width x sin(m pi) needs 40 digits.
    @pytest.mark.parametrize(
        "m", [pytest.param(0.01, marks=pytest.mark.slow), 0.05, 0.3, 0.5, 0.8, 0.9, 0.99, 0.9999]
    )
    @pytest.mark.parametrize("x", [1e-8, 1e-3, 1.0, 20.0, 1e3, 1e6])
    def test_against_integral_oracle_grid(self, m, x):
        exact = integral_oracle(m, x, dps=20 if m < 0.1 else 40)
        assert mittag_leffler(m, -x) == pytest.approx(exact, abs=1e-13)

    def test_step_2h_estimate_enforces_tol(self, monkeypatch):
        # the two rules differ by about 1e-14, far above a tolerance of 1e-20
        with monkeypatch.context() as patch:
            patch.setattr(special, "_TOL", 1e-20)
            with pytest.raises(MittagLefflerError, match="step-2h"):
                special.quad(0.9, 5.0)
        assert mittag_leffler(0.9, -5.0) == pytest.approx(series_oracle(0.9, -5.0), abs=1e-13)

    def test_step_2h_rule_is_the_even_nodes(self):
        # row 1 is the rule of step 2h: twice row 0 at the even nodes and
        # exactly zero at the odd ones, so both come from one product
        rules = special._RULES
        assert rules.shape == (2, special._NODES + 1)
        assert rules[1, ::2].tobytes() == (2.0 * rules[0, ::2]).tobytes()
        assert not rules[1, 1::2].any()

    @pytest.mark.parametrize("m", [0.05, 0.5, 0.9999])
    @pytest.mark.parametrize("x", [1e-8, 1.0, 1e3])
    def test_step_2h_check_raises_through_mittag_leffler(self, monkeypatch, m, x):
        # the reported gap is the one between the rule of step h and the
        # rule of step 2h, recomputed here from the even nodes alone
        ratio = np.exp(m * special._LOG_S)
        ratio /= ratio + x
        weights = special._RULES[0]
        gap = abs((weights @ ratio).real - (2.0 * weights[::2] @ ratio[::2]).real)
        monkeypatch.setattr(special, "_TOL", 1e-20)
        with pytest.raises(MittagLefflerError, match="step-2h") as info:
            mittag_leffler(m, -x)
        reported = float(str(info.value).split(" by ")[1].split(" > ")[0])
        assert reported == pytest.approx(gap, rel=5e-3)

    @pytest.mark.parametrize(
        "m, z",
        [(0.7, -2.0), (0.7, -math.inf), (1.0, -2.0), (1.0, 0.5), (0.5, 0.0), (0.5, -0.0)],
        ids=["contour", "contour-inf", "exp-negative", "exp-positive", "zero", "minus-zero"],
    )
    def test_returns_builtin_float(self, m, z):
        for arg in (z, np.float64(z)):
            assert type(mittag_leffler(m, arg)) is float

    def test_extreme_arguments(self):
        # E_m(-x) = 1/(x Gamma(1 - m)) (1 + O(1/x)) as x -> inf
        for m, x in ((0.01, 1e8), (0.5, 1e8), (0.9999, 1e8), (0.3, 1e12)):
            assert mittag_leffler(m, -x) == pytest.approx(1.0 / (x * math.gamma(1.0 - m)), rel=1e-7)
        assert mittag_leffler(0.5, -math.inf) == 0.0


def uncached_quad(m, x):
    """The contour rule of special.quad with the powers s_k^m recomputed."""
    ratio = np.exp(m * special._LOG_S)
    ratio /= ratio + x
    return float(np.dot(special._RULES, ratio)[0].real)


def assert_powers_match_order():
    order, powers = special._POWERS
    assert powers.tobytes() == np.exp(order * special._LOG_S).tobytes()


class TestPowerCache:
    """quad computes s_k^m once per order and keeps the bits of the formula."""

    ARGS = [*np.logspace(-8, 6, 57).tolist(), math.inf]

    def test_same_bits_as_uncached_formula(self):
        orders = (0.3, 0.3, 0.9, 0.3, 0.55, 0.55, 0.9, 0.9999, 0.3, 0.01)
        for m in orders:
            for x in self.ARGS:
                got = special.quad(m, x)
                assert got.hex() == uncached_quad(m, x).hex(), (m, x)
            assert special._POWERS[0] == m
            assert_powers_match_order()

    def test_powers_intact_after_error(self, monkeypatch):
        special.quad(0.7, 3.0)
        assert_powers_match_order()
        with monkeypatch.context() as patch:
            patch.setattr(special, "_TOL", 1e-20)
            with pytest.raises(MittagLefflerError):
                special.quad(0.9, 5.0)
        assert special._POWERS[0] == 0.9
        assert_powers_match_order()
        assert special.quad(0.9, 5.0).hex() == uncached_quad(0.9, 5.0).hex()
        assert special.quad(0.7, 3.0).hex() == uncached_quad(0.7, 3.0).hex()

    def test_threads_with_different_orders(self):
        # Each thread keeps one order, so nearly every call finds another
        # thread's order cached.  A cache that published its order and its
        # powers in two steps failed this test in eight runs out of eight.
        orders, passes = (0.35, 0.6, 0.85), 500
        expected = {m: [mittag_leffler(m, -x).hex() for x in self.ARGS] for m in orders}
        wrong = {m: 0 for m in orders}
        start = threading.Barrier(len(orders))

        def run(m):
            start.wait()
            for _ in range(passes):
                got = [mittag_leffler(m, -x).hex() for x in self.ARGS]
                wrong[m] += sum(g != e for g, e in zip(got, expected[m]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=run, args=(m,)) for m in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == {m: 0 for m in orders}
