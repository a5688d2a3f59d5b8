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
takes at most three transforms whatever the state size: one of the rate
block over all components, one of both kernels and one inverse of their
stacked product.  The levels of one width share a span, and so the kernel
transform: a solve keeps the transform of each span in its own locals while
a later level of that span remains, and holds none while a level whose span
no other level has, such as the top of the tree, runs.

The step arithmetic of a small state runs on Python floats, since numpy
calls on a short state vector cost more than the arithmetic they do.  Per
step numpy does one in-block dot product: the kernel tail of each position
in a block is a contiguous (2, w) array built once per solve, which BLAS
takes without a copy.  Its right operand is a prefix of the step loop's
block rate buffer, one (block, state size) array per solve into which each
node's rate goes, and the prefix views are made once per solve too; one
copy per completed block moves the buffer into the rate array that the FFT
levels read.  The dot writes into one (2, state size) buffer reused by
every step.  The step loop is chosen once per solve, and every loop gives
the same bits:

- the model's vector_field takes the two-component loop on named floats
  with the field inlined from its one written source (model._compile), so
  a step makes no Python call; it is compiled when this module is imported;
- any other rhs on a state of at most _MAX_NAMED (8) components takes the
  loop on named floats of its size, compiled when a solve first needs it
  and cached: it calls rhs on a fresh array and stores what rhs returns
  into the node's row of the block buffer, which casts and broadcasts it;
- any larger state takes _vector_steps, the same steps on whole state
  arrays, which keeps the same ndarray contract.

The loops on named floats are instances of one template, _NAMED_LOOP.  They
read a node's history sums as one flat row of floats and its in-block sums
through a flat memoryview of the dot's buffer, and store its state as floats
through a flat memoryview of the state array.  In every loop, per
component, the predictor is u0 + c_pred (out + in) and the corrector
u0 + c_corr (f + (out + in)), out and in being the history sums from
outside and inside the node's block: the operation order of the vector
form, which the golden trajectory hashes of the tests pin bit for bit.
"""

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import _VectorField, _compile, _exec_factory, _pair
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

# Largest n_steps x state size x corrector sweeps pece_solve accepts, and
# largest n of history_weights.  The solve stores four float64 values per
# grid value (state, rate and two history sums) and three weights per step,
# so the budget caps it at about 560 MB; counting the sweeps bounds the
# field calls of the step loop too.
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


def _check_count(name: str, value, minimum: int) -> None:
    """The package's one check of a count option: raise ValueError unless
    value is an integer (anything operator.index takes, so not 2.0 or 2.5)
    of at least minimum."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


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
        _check_count("corrector_sweeps", self.corrector_sweeps, 1)


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
    Raises ValueError unless 0 < m <= 1, the orders the series bound covers,
    and n is an integer >= 1 within MAX_GRID_VALUES, before allocating.
    """
    _check_order(m)
    _check_count("n", n, 1)
    _check_budget(n, f"history weights for {n} steps")
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


def _kernel_spectrum(kernels, span):
    """The transform of both kernels at distances 1 .. span, at the FFT
    length of a level of that span."""
    return np.fft.rfft(kernels[:, :span], _fft_length(span))


def _add_history(rates, kernels, hist, spectrum):
    """Add the rates of len(rates) consecutive nodes into the history sums
    hist of the len(hist) nodes that directly follow them by FFT convolution:
    one transform of the rates over all state components, one of both
    kernels, and one inverse transform of the stacked (2, state size)
    product, whose rows are each node's predictor and corrector sums.

    spectrum is the kernels' transform at this level's span,
    len(rates) + len(hist) - 1, as _kernel_spectrum makes it: a solve keeps
    one per span while a later level of the span remains, and hands it to
    each of them.  Given None, the level transforms the kernels itself and
    drops the transform before the inverse, which bounds its peak memory.
    Either way the sums get the same bits."""
    n_src, n_dst = len(rates), len(hist)
    span = n_src + n_dst - 1                # largest node distance involved
    n_fft = _fft_length(span)               # circular wrap misses the kept part
    if spectrum is None:
        spectrum = _kernel_spectrum(kernels, span)
    product = np.fft.rfft(rates.T, n_fft) * spectrum[:, None]
    del spectrum
    hist += np.fft.irfft(product, n_fft)[:, :, n_src - 1 : span].transpose(2, 0, 1)


# Every step loop is a factory: called once per solve with its constants, it
# returns steps(start, stop), which steps the nodes start .. stop - 1 of one
# block, writes their states and final rates, and raises
# SolverDivergenceError at the first node with a component beyond
# ESCAPE_BOUND or not finite, or whose field divides by zero at the state it
# is evaluated at.  Each loop writes a block's rates into one (block, state
# size) buffer of its own and copies them into rates[start:stop] when the
# block completes.  The in-block dot of the node at place w of its block
# reads prefixes[w], the buffer's first w rows, a view made once per solve.
def _block_buffer(tails, states):
    """A step loop's block rate buffer, one row per node of a block, and
    its prefix views: prefixes[w] is its first w rows."""
    block_rates = np.empty((len(tails), states.shape[1]))
    return block_rates, [block_rates[:w] for w in range(len(tails))]


_LOOP_ARGS = ("anchor", "c_pred", "c_corr", "sweeps", "h", "states", "rates", "hist", "tails", "in_sums")
_LOOP_GLOBALS = {
    "np": np,
    "ESCAPE_BOUND": ESCAPE_BOUND,
    "SolverDivergenceError": SolverDivergenceError,
    "_block_buffer": _block_buffer,
}

# Largest state size stepped on named floats; a larger state takes
# _vector_steps, whose code does not grow with the size.  Per step the named
# loop is the faster on small states, by a margin that shrinks with the size
# (time ratio 0.42 at 1 component, 0.60 at 8, 0.89 at 16 and 1.69 at 64, for
# 4,000-step solves of -1.3 u on a 2-core Xeon), while its code and compile
# time grow (0.8 ms at 1 component, 1.7 ms at 8, 9.8 ms at 64); 8 caps that.
_MAX_NAMED = 8

# The block loop of a state held as named floats, written once.  _named_loop
# fills it in for one state size: the per-component lines, and the rate
# evaluation spliced into each corrector sweep ({evaluate}, after which
# {correct} reads the rates) and after the last ({final}, which stores the
# node's rate into the block buffer).  A corrector sweep needs no rate row:
# the in-block dot reads the rows of earlier nodes only.  A node's history
# sums are read from one flat row of hist, its in-block sums through a flat
# memoryview of in_sums, and its state is stored through a flat memoryview
# of states.
_NAMED_LOOP = """\
{anchor} = anchor
block_rates, prefixes = _block_buffer(tails, states)
flat_block = memoryview(block_rates.reshape(-1))
flat_states = memoryview(states.reshape(-1))
flat_in = memoryview(in_sums.reshape(-1))
sweep_range = range(sweeps)
low, bound = -ESCAPE_BOUND, ESCAPE_BOUND

def steps(start, stop):
    try:
        for i, {out_sums}, tail, prefix, {node} in zip(range(start, stop), hist[start:stop].reshape(stop - start, -1).tolist(), tails, prefixes, {nodes}):
            tail.dot(prefix, in_sums)
            {in_sums} = flat_in
            {predict}
            {corr_sums}
            for _ in sweep_range:
                {evaluate}
                {state} = {correct}
            # a chained comparison fails for NaN too
            if not ({in_bound}):
                raise SolverDivergenceError(i * h, [{state}])
            {store_states}
            {final}
    except ZeroDivisionError:
        raise SolverDivergenceError(i * h, [{state}]) from None
    rates[start:stop] = block_rates[: stop - start]
return steps"""


def _flat(n: int, k: int) -> str:
    """Index of component k of node i in a flat view of an (N, n) array."""
    node = "i" if n == 1 else f"{n} * i"
    return f"{node} + {k}" if k else node


def _target(names) -> str:
    """An unpacking target of names; one name keeps its trailing comma."""
    return ", ".join(names) + ("," if len(names) == 1 else "")


def _named_loop(names, evaluate, rates, final, rows=False) -> str:
    """The source of _NAMED_LOOP for the state floats names, with the rate
    evaluation spliced in: the lines evaluate, after which the expressions
    rates are the rates at the state, and the lines final, which store the
    rate of a node's final state.  Each step gets, besides i, either its
    row of the block buffer, row (rows true), or the flat index of that
    row's first rate in flat_block, k."""
    k = range(len(names))

    def target(*prefixes):
        return _target([f"{prefix}{j}" for prefix in prefixes for j in k])

    def lines(depth, code):
        return ("\n" + " " * depth).join(code)

    return _NAMED_LOOP.format(
        anchor=target("a"),
        out_sums=f"({target('op', 'oc')})",
        node="row" if rows else "k",
        nodes="block_rates" if rows else f"range(0, {len(k)} * (stop - start), {len(k)})",
        in_sums=target("ip", "ic"),
        predict=lines(12, [f"{v} = a{j} + c_pred * (op{j} + ip{j})" for j, v in zip(k, names)]),
        corr_sums=lines(12, [f"s{j} = oc{j} + ic{j}" for j in k]),
        evaluate=lines(16, evaluate),
        state=", ".join(names),
        correct=", ".join(f"a{j} + c_corr * ({f} + s{j})" for j, f in zip(k, rates)),
        in_bound=" and ".join(f"low <= {v} <= bound" for v in names),
        store_states=lines(12, [f"flat_states[{_flat(len(k), j)}] = {v}" for j, v in zip(k, names)]),
        final=lines(12, final),
    )


# The model's loop is the template's two-component instance with the field
# inlined from its one written source (model._compile): the state is named
# x, y as the field's expressions read it, a step makes no Python call, and
# each node's final rate is stored through a flat memoryview of the block
# buffer.
_pair_steps = _compile(
    "_pair_steps",
    _LOOP_ARGS,
    _named_loop(
        ("x", "y"),
        ["capture = {capture}"],
        ("{dx}", "{dy}"),
        ["capture = {capture}", "flat_block[k] = {dx}", "flat_block[k + 1] = {dy}"],
    ),
    """steps(start, stop) of the model's block loop for the parameters p and
    one solve's constants and arrays; see the comments above.""",
    _LOOP_GLOBALS,
)


@functools.cache
def _named_steps(n: int):
    """The block loop factory of any rhs on a state of n <= _MAX_NAMED
    components, the template's n-component instance, compiled when a solve
    first needs it.  It keeps the ndarray contract of _vector_steps, with
    the same operations in the same order: it hands rhs a fresh array and
    stores what rhs returns into the node's row of the block buffer, which
    casts and broadcasts it."""
    names = [f"v{j}" for j in range(n)]
    call = f"row[...] = rhs(np.array([{', '.join(names)}]))"
    rates = [f"f{j}" for j in range(n)]
    body = _named_loop(names, [call, f"{_target(rates)} = row.tolist()"], rates, [call], rows=True)
    return _exec_factory(f"_named_steps_{n}", ("rhs",) + _LOOP_ARGS, body, _named_steps.__doc__, _LOOP_GLOBALS)


def _vector_steps(rhs, anchor, c_pred, c_corr, sweeps, h, states, rates, hist, tails, in_sums):
    """The block loop of any rhs on whole state arrays.  numpy's elementwise
    add and multiply round each component as Python floats do.  rhs gets a
    copy of each state, so a ZeroDivisionError reports the state as rhs got
    it; what rhs returns is stored into the node's row of the block buffer,
    which casts and broadcasts it."""
    u0 = np.array(anchor)
    block_rates, prefixes = _block_buffer(tails, states)
    sweep_range = range(sweeps)

    def steps(start, stop):
        try:
            for i, (out_pred, out_corr), tail, prefix, row in zip(
                range(start, stop), hist[start:stop], tails, prefixes, block_rates
            ):
                in_pred, in_corr = tail.dot(prefix, in_sums)
                value = u0 + c_pred * (out_pred + in_pred)
                corr_sums = out_corr + in_corr
                for _ in sweep_range:
                    row[...] = rhs(value.copy())
                    value = u0 + c_corr * (row + corr_sums)
                # "not <=" also catches NaN and inf
                if not (abs(value) <= ESCAPE_BOUND).all():
                    raise SolverDivergenceError(i * h, value)
                states[i] = value
                row[...] = rhs(value.copy())
        except ZeroDivisionError:
            raise SolverDivergenceError(i * h, value) from None
        rates[start:stop] = block_rates[: stop - start]

    return steps


def pece_solve(rhs: Callable, x0, m: float, cfg: SolverConfig) -> Trajectory:
    """Integrate D^m u = rhs(u) from u(0) = x0 on the uniform grid.

    rhs maps a state vector, passed as a fresh float64 array, to its rate
    vector, or to anything that broadcasts to the state's shape (autonomous
    field).  x0 is the start state, a non-empty 1-D sequence of numbers.
    The field of model.vector_field is instead inlined into a step loop of
    its own on the state's two floats; any other rhs is stepped on named
    floats up to _MAX_NAMED (8) state components and on whole state arrays
    above.  The loop is chosen once, before the first step, and all give
    the same bits.  The predictor convolves the history with
    rectangle-rule weights, the corrector with trapezoid-rule weights,
    repeated cfg.corrector_sweeps times; the final evaluation seeds the next
    step's history.  Raises SolverDivergenceError at the first node with a
    component beyond ESCAPE_BOUND or not finite, or whose state makes the
    field divide by zero (the model's prey pole), and ValueError, before
    allocating, when x0 is not a non-empty 1-D state, or, for the model's
    field, not the pair model._pair takes, or when the grid's steps times
    state size times corrector sweeps exceed MAX_GRID_VALUES.
    """
    _check_order(m)
    h = cfg.step
    u0 = np.array(x0, dtype=float)  # a copy: rhs gets it at node 0 and may mutate it
    if u0.ndim != 1 or u0.size == 0:
        raise ValueError(f"x0 must be a non-empty 1-D state, got shape {u0.shape}")
    if isinstance(rhs, _VectorField):
        _pair(u0)
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
    # the model's field has two components (checked on entry) and takes its
    # own loop, compiled with the field inlined; any other rhs takes the
    # loop on named floats of its state size, or the vector loop above
    # _MAX_NAMED components
    if isinstance(rhs, _VectorField):
        make_steps, field = _pair_steps, rhs.params
    elif u0.size <= _MAX_NAMED:
        make_steps, field = _named_steps(u0.size), rhs
    else:
        make_steps, field = _vector_steps, rhs
    step_block = make_steps(field, anchor, c_pred, c_corr, sweeps, h, states, rates, hist, tails, in_sums)

    # the kernel spectra of the levels so far, by span, each kept while a
    # later level of its span remains
    spectra = {}
    for start in range(1, n_steps + 1, _BLOCK):
        stop = min(start + _BLOCK, n_steps + 1)
        step_block(start, stop)
        if stop <= n_steps:
            # The blocks so far end a left half of the dyadic node tree whose
            # size is _BLOCK times the lowest set bit of the block count.
            blocks = (stop - 1) // _BLOCK
            low_bit = blocks & -blocks
            width = _BLOCK * low_bit
            dst = hist[stop : stop + width]
            span = width + len(dst) - 1
            # Levels of one width come 2 width nodes apart, and share their
            # span while their sums end inside the grid.
            if stop + 3 * width <= n_steps + 1:
                # a later level has this span
                spectrum = spectra.get(span)
                if spectrum is None:
                    spectrum = spectra[span] = _kernel_spectrum(kernels, span)
            elif blocks == low_bit or len(dst) < width:
                # no other level has this span, as at the top of the tree:
                # held spectra would add to the level's peak memory
                spectra.clear()
                spectrum = None
            else:
                # the last level of a span that an earlier one kept
                spectrum = spectra.pop(span, None)
            _add_history(rates[stop - width : stop], kernels, dst, spectrum)

    times = np.arange(n_steps + 1, dtype=float) * h
    return Trajectory(times=times, states=states)
