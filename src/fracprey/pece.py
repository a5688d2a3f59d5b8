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
takes three transforms whatever the state size: one of the rate block over
all components, one of both kernels and one inverse of their stacked
product.

The step arithmetic runs on Python floats, since numpy calls on a short
state vector cost more than the arithmetic they do.  Per step numpy does
one in-block dot product: the kernel tail of each position in a block is a
contiguous (2, w) array built once per solve, which BLAS takes without a
copy, and the dot writes into one (2, state size) buffer reused by every
step.  The step loop is chosen once per solve.  The model's vector_field
takes a two-component loop on named floats, compiled when this module is
imported from the field's one written source (model._compile): the field
is inlined, so a step makes no Python call, and each node's state and final
rate are stored as floats through flat memoryviews of the state and rate
arrays.  Any other rhs takes the generic per-component loop, the only one
for state sizes other than 2, which keeps the ndarray contract: it hands
rhs a fresh array and stores what rhs returns into the node's rate row,
which casts and broadcasts it, and it writes a block's states in one store.
In both loops, per component, the predictor is u0 + c_pred (out + in) and
the corrector u0 + c_corr (f + (out + in)), out and in being the history
sums from outside and inside the node's block: the operation order of the
vector form, which the golden trajectory hashes of the tests pin bit for
bit.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import _VectorField, _compile
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

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which here hold only the message
        return type(self), (self.t, self.state)


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
    kernels, and one inverse transform of the stacked (2, state size)
    product, whose rows are each node's predictor and corrector sums.  The
    kernel transform is dropped before the inverse, which bounds the level's
    peak memory."""
    n_src, n_dst = len(rates), len(hist)
    span = n_src + n_dst - 1                # largest node distance involved
    n_fft = _fft_length(span)               # circular wrap misses the kept part
    product = np.fft.rfft(rates.T, n_fft) * np.fft.rfft(kernels[:, :span], n_fft)[:, None]
    hist += np.fft.irfft(product, n_fft)[:, :, n_src - 1 : span].transpose(2, 0, 1)


# Both step loops are factories: called once per solve with its constants,
# each returns steps(start, stop), which steps the nodes start .. stop - 1 of
# one block, writes their states and final rates, and raises
# SolverDivergenceError at the first node with a component beyond
# ESCAPE_BOUND or not finite, or whose field divides by zero at the state it
# is evaluated at.

# The model's loop, on named floats, with the field inlined from its one
# written source (model._compile).  A corrector sweep needs no rate row: the
# in-block dot reads rates[start:i] only, and the final evaluation is the one
# stored.  States and rates are stored as floats through flat memoryviews.
_pair_steps = _compile(
    "_pair_steps",
    ("anchor", "c_pred", "c_corr", "sweeps", "h", "states", "rates", "hist", "tails", "in_sums"),
    """
    a0, a1 = anchor
    flat_states = memoryview(states.reshape(-1))
    flat_rates = memoryview(rates.reshape(-1))
    bound = ESCAPE_BOUND

    def steps(start, stop):
        block_rates = rates[start:stop]
        try:
            for i, ((op0, op1), (oc0, oc1)), tail in zip(range(start, stop), hist[start:stop].tolist(), tails):
                (ip0, ip1), (ic0, ic1) = tail.dot(block_rates[: i - start], in_sums).tolist()
                x = a0 + c_pred * (op0 + ip0)
                y = a1 + c_pred * (op1 + ip1)
                s0 = oc0 + ic0
                s1 = oc1 + ic1
                for _ in range(sweeps):
                    capture = {capture}
                    x, y = a0 + c_corr * ({dx} + s0), a1 + c_corr * ({dy} + s1)
                # "not <=" also catches NaN and inf
                if not (abs(x) <= bound and abs(y) <= bound):
                    raise SolverDivergenceError(i * h, [x, y])
                flat_states[2 * i] = x
                flat_states[2 * i + 1] = y
                capture = {capture}
                flat_rates[2 * i] = {dx}
                flat_rates[2 * i + 1] = {dy}
        except ZeroDivisionError:
            raise SolverDivergenceError(i * h, [x, y]) from None
    return steps
    """,
    """steps(start, stop) of the model's block loop for the parameters p and
    one solve's constants and arrays; see the comments above.""",
    {"ESCAPE_BOUND": ESCAPE_BOUND, "SolverDivergenceError": SolverDivergenceError},
)


def _generic_steps(rhs, anchor, c_pred, c_corr, sweeps, h, states, rates, hist, tails, in_sums):
    """The block loop of any rhs, per component on lists of floats.  It keeps
    the ndarray contract: it hands rhs a fresh array and stores what rhs
    returns into the node's rate row, which casts and broadcasts it, and it
    writes a block's states in one store."""

    def steps(start, stop):
        block_rates = rates[start:stop]
        block_states = []
        rows = zip(range(start, stop), hist[start:stop].tolist(), tails)
        try:
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
        except ZeroDivisionError:
            raise SolverDivergenceError(i * h, value) from None
        states[start:stop] = block_states

    return steps


def pece_solve(rhs: Callable, x0, m: float, cfg: SolverConfig) -> Trajectory:
    """Integrate D^m u = rhs(u) from u(0) = x0 on the uniform grid.

    rhs maps a state vector, passed as a fresh float64 array, to its rate
    vector, or to anything that broadcasts to the state's shape (autonomous
    field).  The field of model.vector_field is instead inlined into a step
    loop of its own on the state's two floats; the loop is chosen once,
    before the first step, and both give the same bits.  The predictor
    convolves the history with rectangle-rule weights, the corrector with
    trapezoid-rule weights, repeated cfg.corrector_sweeps times; the final
    evaluation seeds the next step's history.  Raises
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
    try:
        rates[0] = np.asarray(rhs(u0), dtype=float)
    except ZeroDivisionError:
        # a field that divides by zero at the start, as the model's does at
        # its prey pole
        raise SolverDivergenceError(0.0, anchor) from None
    np.multiply(weights[0, :, None], rates[0], out=hist[1:, 0])
    np.multiply(weights[2, :, None], rates[0], out=hist[1:, 1])
    # the model's field has two components (rates[0] above fails on any
    # other size) and takes its own loop, compiled with the field inlined;
    # any other rhs takes the generic loop
    if isinstance(rhs, _VectorField):
        make_steps, field = _pair_steps, rhs.params
    else:
        make_steps, field = _generic_steps, rhs
    step_block = make_steps(field, anchor, c_pred, c_corr, sweeps, h, states, rates, hist, tails, in_sums)

    for start in range(1, n_steps + 1, _BLOCK):
        stop = min(start + _BLOCK, n_steps + 1)
        step_block(start, stop)
        if stop <= n_steps:
            # The blocks so far end a left half of the dyadic node tree whose
            # size is _BLOCK times the lowest set bit of the block count.
            blocks = (stop - 1) // _BLOCK
            width = _BLOCK * (blocks & -blocks)
            _add_history(rates[stop - width : stop], kernels, hist[stop : stop + width])

    times = np.arange(n_steps + 1, dtype=float) * h
    return Trajectory(times=times, states=states)
