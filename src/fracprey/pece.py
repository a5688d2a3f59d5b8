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
result is the same full-memory scheme at O(N log^2 N) cost.  One such level
takes four transforms whatever the state size: one of the rate block over
all components, one of both kernels and one inverse per kernel.

The step arithmetic runs on Python floats, since numpy calls on a short
state vector cost more than the arithmetic they do.  Per step numpy does
one in-block dot product: the kernel tail of each position in a block is a
contiguous (2, w) array built once per solve, which BLAS takes without a
copy, and the dot writes into one (2, state size) buffer reused by every
step.  A block's states are written in one store.  The step loop is chosen
once per solve.  The model's vector_field takes a two-component loop on
named floats: it calls the field's float closure, which returns a tuple of
rates, and stores only each node's final rate, as two floats through a
flat memoryview of the rate array.  Any other rhs takes the generic
per-component loop, the only one for state sizes other than 2, which keeps
the ndarray contract: it hands rhs a fresh array and stores what rhs
returns into the node's rate row, which casts and broadcasts it.  In both
loops, per component, the predictor is u0 + c_pred (out + in) and the
corrector u0 + c_corr (f + (out + in)), out and in being the history sums
from outside and inside the node's block: the operation order of the vector
form, which the golden trajectory hashes of the tests pin bit for bit.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import _VectorField
from .special import _check_order, gamma_fn

__all__ = [
    "ESCAPE_BOUND",
    "MAX_GRID_VALUES",
    "SolverConfig",
    "SolverDivergenceError",
    "Trajectory",
    "history_weights",
    "pece_solve",
]

# Largest n_steps x state size x corrector sweeps pece_solve accepts.  The
# solve stores four float64 values per grid value (state, rate and two
# history sums) and three weights per step, so the budget caps it at about
# 560 MB; counting the sweeps bounds the field calls of the step loop too.
MAX_GRID_VALUES = 10_000_000

# Magnitude beyond which a state counts as escaped: pece_solve raises past
# it, discrete.iterate_orbit flags the orbit, and the CLI rejects a start x0
# beyond it.  The paper proves both systems bounded, so only a numerical
# failure gets there.
ESCAPE_BOUND = 1e12

# Nodes per directly summed block.
_BLOCK = 64

# Terms of the binomial series in history_weights: the series in x <= 1/2
# has terms decreasing at least as fast as 2^-j, so 60 terms leave a
# truncation error below 1e-17 relative.
_SERIES_TERMS = 60


def _check_budget(values, what: str) -> None:
    """The package's one size budget: raise ValueError, before anything is
    allocated, when values exceeds MAX_GRID_VALUES.  what names the sizes
    whose product values is; "not <=" also rejects NaN."""
    if not values <= MAX_GRID_VALUES:
        raise ValueError(f"{what} exceeds the budget of {MAX_GRID_VALUES} values")


class SolverDivergenceError(RuntimeError):
    """A state component exceeded ESCAPE_BOUND or went non-finite, or the
    field's rate at the state is not finite."""

    def __init__(self, t: float, state):
        self.t = t
        self.state = np.asarray(state)
        self.bound = ESCAPE_BOUND
        super().__init__(
            f"solution escaped at t={t:g}: |state| exceeded {ESCAPE_BOUND:g} "
            f"or the state or its rate is not finite "
            f"(state={np.array2string(self.state, precision=6)})"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Grid and scheme options for pece_solve.

    The grid has floor(horizon / step) steps; pece_solve rejects a grid whose
    steps times state size times corrector_sweeps exceed MAX_GRID_VALUES.
    """

    step: float
    horizon: float
    corrector_sweeps: int = 1

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must satisfy 0 < step < inf, got {self.step!r}")
        if not self.horizon >= self.step:
            raise ValueError(
                f"horizon must be >= step, got horizon={self.horizon!r} step={self.step!r}"
            )
        if self.corrector_sweeps < 1:
            raise ValueError(f"corrector_sweeps must be >= 1, got {self.corrector_sweeps!r}")


@dataclass(frozen=True)
class Trajectory:
    """Grid solution of a Caputo initial-value problem.

    times[0] = 0, strictly increasing; states has one row per node.
    """

    times: np.ndarray
    states: np.ndarray


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


@functools.cache
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
    hist of the len(hist) nodes that directly follow them by FFT convolution:
    one transform of the rates over all state components, one of both
    kernels, and one inverse transform per kernel."""
    n_src, n_dst = len(rates), len(hist)
    span = n_src + n_dst - 1                # largest node distance involved
    n_fft = _fft_length(span)               # circular wrap misses the kept part
    rates_f = np.fft.rfft(rates.T, n_fft)   # (state size, frequencies)
    kernels_f = np.fft.rfft(kernels[:, :span], n_fft)
    kept = slice(n_src - 1, span)
    for q, w_f in enumerate(kernels_f):
        hist[:, q] += np.fft.irfft(rates_f * w_f, n_fft)[:, kept].T


def pece_solve(rhs: Callable, x0, m: float, cfg: SolverConfig) -> Trajectory:
    """Integrate D^m u = rhs(u) from u(0) = x0 on the uniform grid.

    rhs maps a state vector, passed as a fresh float64 array, to its rate
    vector, or to anything that broadcasts to the state's shape (autonomous
    field).  The field of model.vector_field is instead called on the state's
    two floats through its rates closure, in a step loop of its own; the loop
    is chosen once, before the first step, and both give the same bits.  The
    predictor convolves the history with rectangle-rule weights, the
    corrector with trapezoid-rule weights, repeated cfg.corrector_sweeps
    times; the final evaluation seeds the next step's history.  Raises
    SolverDivergenceError at the first node with a component beyond
    ESCAPE_BOUND or not finite, or whose state makes the field divide by
    zero (the model's prey pole), and ValueError, before allocating the
    grid, when its steps times state size times corrector sweeps exceed
    MAX_GRID_VALUES.
    """
    _check_order(m)
    h = cfg.step
    u0 = np.atleast_1d(np.asarray(x0, dtype=float))
    steps = cfg.horizon / h + 1e-9
    sweeps = cfg.corrector_sweeps
    _check_budget(
        steps * u0.size * sweeps,
        f"grid of {steps:.6g} steps x {u0.size} state components x {sweeps} corrector sweeps",
    )
    n_steps = int(steps)

    weights = history_weights(m, n_steps)
    c_pred = h**m / gamma_fn(m + 1.0)
    c_corr = h**m / gamma_fn(m + 2.0)

    states = np.empty((n_steps + 1, u0.size))
    rates = np.empty_like(states)
    states[0] = u0
    # hist[i] holds node i's predictor (row 0) and corrector (row 1) sums
    # over every node outside its own block.  Node 0 is added up front, the
    # others by _add_history as blocks complete.
    hist = np.zeros((n_steps + 1, 2, u0.size))
    kernels = weights[:2]
    # tails[w] holds both kernels at distances w, ..., 1: the weights of the
    # w nodes of its own block that precede a node.  Each is contiguous, so
    # the in-block dot hands it to BLAS without a copy.
    block = min(_BLOCK, n_steps)
    rev = kernels[:, block - 1 :: -1]
    tails = [np.ascontiguousarray(rev[:, block - w :]) for w in range(block)]
    in_sums = np.empty((2, u0.size))
    anchor = u0.tolist()
    pair = isinstance(rhs, _VectorField)
    # The model's field divides by zero at its prey pole x = -1/(alpha (1-c) h),
    # where its rate is not finite: the solve diverges at the node whose state
    # the field was evaluated at, node 0 included.  One try around the loops
    # costs the steps nothing.
    i, value = 0, anchor
    try:
        rates[0] = np.asarray(rhs(u0), dtype=float)
        np.multiply(weights[0, :, None], rates[0], out=hist[1:, 0])
        np.multiply(weights[2, :, None], rates[0], out=hist[1:, 1])
        # the step calls the field on the float components of a state: the
        # model's field by its float closure, in a loop on named floats (it
        # has two components; rates[0] above fails on any other size), any
        # other callable on a fresh array
        if pair:
            field = rhs.rates
            a0, a1 = anchor
            flat = memoryview(rates.reshape(-1))

        for start in range(1, n_steps + 1, _BLOCK):
            stop = min(start + _BLOCK, n_steps + 1)
            block_rates = rates[start:stop]
            block_states = []
            rows = zip(range(start, stop), hist[start:stop].tolist(), tails)
            if pair:
                # The closure returns floats, so a corrector sweep needs no rate
                # row: the in-block dot reads rates[start:i] only, and the final
                # evaluation is the one stored.
                for i, ((op0, op1), (oc0, oc1)), tail in rows:
                    (ip0, ip1), (ic0, ic1) = tail.dot(block_rates[: i - start], in_sums).tolist()
                    v0 = a0 + c_pred * (op0 + ip0)
                    v1 = a1 + c_pred * (op1 + ip1)
                    s0 = oc0 + ic0
                    s1 = oc1 + ic1
                    for _ in range(sweeps):
                        f0, f1 = field(v0, v1)
                        v0 = a0 + c_corr * (f0 + s0)
                        v1 = a1 + c_corr * (f1 + s1)

                    # "not <=" also catches NaN and inf
                    if not (abs(v0) <= ESCAPE_BOUND and abs(v1) <= ESCAPE_BOUND):
                        raise SolverDivergenceError(i * h, [v0, v1])
                    block_states.append((v0, v1))
                    flat[2 * i], flat[2 * i + 1] = field(v0, v1)
            else:
                for (i, (out_pred, out_corr), tail), row in zip(rows, block_rates):
                    in_pred, in_corr = tail.dot(block_rates[: i - start], in_sums).tolist()
                    value = [u + c_pred * (o + n) for u, o, n in zip(anchor, out_pred, in_pred)]
                    corr_sums = [o + n for o, n in zip(out_corr, in_corr)]
                    for _ in range(sweeps):
                        # the row store casts and broadcasts the rate as rates[0] does
                        row[...] = rhs(np.array(value))
                        value = [u + c_corr * (f + s) for u, f, s in zip(anchor, row.tolist(), corr_sums)]

                    for v in value:
                        # "not <=" also catches NaN and inf
                        if not abs(v) <= ESCAPE_BOUND:
                            raise SolverDivergenceError(i * h, value)
                    block_states.append(value)
                    row[...] = rhs(np.array(value))
            states[start:stop] = block_states

            if stop <= n_steps:
                # The blocks so far end a left half of the dyadic node tree whose
                # size is _BLOCK times the lowest set bit of the block count.
                blocks = (stop - 1) // _BLOCK
                width = _BLOCK * (blocks & -blocks)
                _add_history(rates[stop - width : stop], kernels, hist[stop : stop + width])
    except ZeroDivisionError:
        raise SolverDivergenceError(i * h, [v0, v1] if pair and i else value) from None

    times = np.arange(n_steps + 1, dtype=float) * h
    return Trajectory(times=times, states=states)
