"""Adams-type predictor-corrector (PECE) integration of Caputo initial-value
problems on a uniform grid.

The scheme is the standard fractional Adams-Bashforth-Moulton pair: a
fractional rectangle rule predicts, a fractional trapezoid rule corrects,
both anchored at the initial state and convolving the full stored history.
For m = 1 the weights collapse to the classical one-step Adams pair.

The history sums are split as in Hairer, Lubich & Schlichte (SIAM J. Sci.
Stat. Comput. 6, 1985): inside blocks of _BLOCK nodes they are summed
directly, and every completed left half of the dyadic node tree is added to
the sums of the right half that follows it by one FFT convolution.  The
result is the same full-memory scheme at O(N log^2 N) cost.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .special import gamma_fn

__all__ = [
    "MAX_GRID_VALUES",
    "SolverConfig",
    "SolverDivergenceError",
    "Trajectory",
    "history_weights",
    "pece_solve",
]

# Largest n_steps x state size pece_solve accepts.  The solve stores four
# float64 values per grid value (state, rate and two history sums) and three
# weights per step, so the budget caps it at about 560 MB.
MAX_GRID_VALUES = 10_000_000

# Nodes per directly summed block.
_BLOCK = 64

# Terms of the binomial series in history_weights: the series in x <= 1/2
# has terms decreasing at least as fast as 2^-j, so 60 terms leave a
# truncation error below 1e-17 relative.
_SERIES_TERMS = 60


class SolverDivergenceError(RuntimeError):
    """A state component exceeded the blow-up bound or went non-finite."""

    def __init__(self, t: float, state, bound: float):
        self.t = t
        self.state = np.asarray(state)
        self.bound = bound
        super().__init__(
            f"solution escaped at t={t:g}: |state| exceeded {bound:g} "
            f"(state={np.array2string(self.state, precision=6)})"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Grid and scheme options for pece_solve.

    The grid has floor(horizon / step) steps; pece_solve rejects a grid whose
    steps times state size exceed MAX_GRID_VALUES.
    """

    step: float
    horizon: float
    corrector_sweeps: int = 1
    blowup_bound: float = 1e12

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step!r}")
        if not self.horizon >= self.step:
            raise ValueError(
                f"horizon must be >= step, got horizon={self.horizon!r} step={self.step!r}"
            )
        if self.corrector_sweeps < 1:
            raise ValueError(f"corrector_sweeps must be >= 1, got {self.corrector_sweeps!r}")
        if not self.blowup_bound > 0:
            raise ValueError(f"blowup_bound must be > 0, got {self.blowup_bound!r}")


@dataclass(frozen=True)
class Trajectory:
    """Grid solution of a Caputo initial-value problem.

    times[0] = 0, strictly increasing; states has one row per node.
    """

    order: float
    times: np.ndarray
    states: np.ndarray
    scheme: str = "pece"


def history_weights(m: float, n: int):
    """Weights of the fractional Adams pair for k = 0 .. n-1, as the rows
    pred, corr, w0 of one (3, n) array.

    pred[k] = (k+1)^m - k^m                          predictor, distance k+1
    corr[k] = (k+2)^(m+1) - 2 (k+1)^(m+1) + k^(m+1)  corrector, distance k+1
    w0[k]   = k^(m+1) - (k-m) (k+1)^m                corrector, node 0 to node k+1

    Evaluated as written, corr and w0 lose about k^2 ulp to cancellation.
    With a = k + 1 and x = 1/a they are instead computed as

        pred = -a^m expm1(m log1p(-x))
        w0   = a^(m-1) sum_{j>=2} b_j x^(j-2)
        corr = 2 a^(m-1) sum_{j>=1} b_{2j} x^(2j-2)

    where b_j = (-1)^j binom(m+1, j) are positive and decreasing, so both
    series add positive terms.  k = 0 takes the exact 1, 2^(m+1) - 2 and m.
    """
    weights = np.empty((3, n))
    pred, corr, w0 = weights
    pred[0], corr[0], w0[0] = 1.0, 2.0 * math.expm1(m * math.log(2.0)), m
    a = np.arange(2.0, n + 1.0)
    x = 1.0 / a
    pred[1:] = -(a**m) * np.expm1(m * np.log1p(-x))

    b = [0.0, 0.0, 0.5 * (m + 1.0) * m]
    for j in range(2, _SERIES_TERMS + 1):
        b.append(b[j] * (j - 1.0 - m) / (j + 1.0))
    scale = np.power(a, m - 1.0, out=a)
    series = w0[1:]
    series.fill(b[_SERIES_TERMS + 1])
    for j in range(_SERIES_TERMS, 1, -1):
        series *= x
        series += b[j]
    series *= scale
    series = corr[1:]
    series.fill(b[_SERIES_TERMS])
    x *= x  # the corrector series runs in x^2
    for j in range(_SERIES_TERMS - 2, 1, -2):
        series *= x
        series += b[j]
    series *= scale
    series *= 2.0
    return weights


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the lengths numpy's FFT handles fastest."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _add_history(rates, kernels, hist):
    """Add the rates of len(rates) consecutive nodes into the history sums
    hist of the len(hist) nodes that directly follow them, one FFT
    convolution per kernel and state component."""
    n_src, n_dst = len(rates), len(hist)
    span = n_src + n_dst - 1                # largest node distance involved
    n_fft = _fft_length(span)               # circular wrap misses the kept part
    kernels_f = [np.fft.rfft(w[:span], n_fft) for w in kernels]
    kept = slice(n_src - 1, span)
    for c in range(rates.shape[1]):
        rates_f = np.fft.rfft(rates[:, c], n_fft)
        for q, w_f in enumerate(kernels_f):
            hist[:, q, c] += np.fft.irfft(rates_f * w_f, n_fft)[kept]


def pece_solve(rhs: Callable, x0, m: float, cfg: SolverConfig) -> Trajectory:
    """Integrate D^m u = rhs(u) from u(0) = x0 on the uniform grid.

    rhs maps a state vector to the rate vector (autonomous field).  The
    predictor convolves the history with rectangle-rule weights, the
    corrector with trapezoid-rule weights, repeated cfg.corrector_sweeps
    times; the final evaluation seeds the next step's history.  Raises
    ValueError, before allocating the grid, when its steps times state size
    exceed MAX_GRID_VALUES.
    """
    if not 0.0 < m <= 1.0:
        raise ValueError(f"fractional order must satisfy 0 < m <= 1, got {m!r}")
    h = cfg.step
    u0 = np.atleast_1d(np.asarray(x0, dtype=float))
    steps = cfg.horizon / h + 1e-9
    if not steps * u0.size <= MAX_GRID_VALUES:
        raise ValueError(
            f"grid of {steps:.6g} steps x {u0.size} state components exceeds the "
            f"solver budget of {MAX_GRID_VALUES} values; shorten horizon or enlarge step"
        )
    n_steps = int(steps)

    weights = history_weights(m, n_steps)
    c_pred = h**m / gamma_fn(m + 1.0)
    c_corr = h**m / gamma_fn(m + 2.0)
    sweeps, bound = cfg.corrector_sweeps, cfg.blowup_bound

    states = np.empty((n_steps + 1, u0.size))
    rates = np.empty_like(states)
    states[0] = u0
    rates[0] = np.asarray(rhs(u0), dtype=float)
    # hist[i] holds node i's predictor (row 0) and corrector (row 1) sums
    # over every node outside its own block.  Node 0 is added up front, the
    # others by _add_history as blocks complete.
    hist = np.zeros((n_steps + 1, 2, u0.size))
    np.multiply(weights[0, :, None], rates[0], out=hist[1:, 0])
    np.multiply(weights[2, :, None], rates[0], out=hist[1:, 1])
    kernels = weights[:2]
    # rev[:, n_steps - w:] holds both kernels at distances w, ..., 1
    rev = kernels[:, ::-1]

    for start in range(1, n_steps + 1, _BLOCK):
        stop = min(start + _BLOCK, n_steps + 1)
        for i in range(start, stop):
            sums = hist[i] + rev[:, n_steps - (i - start) :] @ rates[start:i]
            value = u0 + c_pred * sums[0]
            for _ in range(sweeps):
                value = u0 + c_corr * (np.asarray(rhs(value), dtype=float) + sums[1])

            # "not <=" also catches NaN and inf
            if not np.abs(value).max() <= bound:
                raise SolverDivergenceError(i * h, value, bound)
            states[i] = value
            rates[i] = np.asarray(rhs(value), dtype=float)

        if stop <= n_steps:
            # The blocks so far end a left half of the dyadic node tree whose
            # size is _BLOCK times the lowest set bit of the block count.
            blocks = (stop - 1) // _BLOCK
            width = _BLOCK * (blocks & -blocks)
            _add_history(rates[stop - width : stop], kernels, hist[stop : stop + width])

    times = np.arange(n_steps + 1, dtype=float) * h
    return Trajectory(order=m, times=times, states=states, scheme="pece")
