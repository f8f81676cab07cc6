"""Exponential smoothing factor sets and feature banks, batch and streaming.

The core recurrence is y(t) = alpha*x(t) + (1-alpha)*y(t-1) with
y(0) = mean(x_0 .. x_{M-1}).  The init window M grows as alpha shrinks so
heavily damped filters start near the local signal level instead of at a
single noisy sample.  A feature bank runs N such filters with decreasing
alphas over one normalized conductance signal; those N columns are the
regression features.

One pass (_filter_pass) builds every bank: it seeds each filter with the
mean of its window, then maps one step over the signal, a function
generated once per filter count (_step_template) that keeps the N filter
values in closure cells.  A single filter is a one-column bank.  The stream
bank (make_bank / bank_push) runs the pass over its first max(M_i)
samples and keeps its step, so each emitted row equals the batch row bit
for bit (the network on top then makes the stream equal the batch to
within 1e-12; see mlp.forward).  The steps run on Python floats, the same
IEEE doubles as numpy's float64 scalars at a fraction of the cost.  A
bank holds no network.  A stream session (pipeline.StreamSession) keeps
a bank of its own and hands its network to that bank's warm-up
(_bank_step), whose step then also runs the network's straight-line body
(mlp._net_lines) on the filter values, so a push is one call; a net too
large for one runs after the step as mlp's one-row numpy pass.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import DataError, _finite, _integer, _positive, _shown
from .mlp import MlpModel, _compile_factory, _flat_params, _float_net, _net_lines
from .series import UniformSeries, fmt

BASELINE_ALPHAS = (0.5, 0.1, 0.025, 0.0025)


def _alphas(alphas) -> None:
    """Raise DataError unless every smoothing factor lies in (0, 1]."""
    for a in alphas:
        if not 0.0 < a <= 1.0:
            raise DataError(f"alpha must lie in (0, 1], got {a!r}")


@dataclass(frozen=True)
class AlphaSet:
    """Decreasing smoothing factors, optionally generated as 1/a, 1/a^2, ..., 1/a^N."""

    alphas: tuple[float, ...]
    base: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if len(self.alphas) < 1:
            raise DataError("alpha set needs at least one factor")
        _alphas(self.alphas)
        if any(b >= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise DataError("alphas must be strictly decreasing")
        if self.base is not None:
            for i, a in enumerate(self.alphas):
                want = 1.0 / self.base ** (i + 1)
                if abs(a - want) > 1e-12:
                    raise DataError("alphas inconsistent with base")

    def __len__(self) -> int:
        return len(self.alphas)

    @property
    def label(self) -> str:
        if self.base is None:
            return "baseline"
        return f"a{fmt(self.base)}_n{len(self.alphas)}"


def alpha_set(a: float, n: int) -> AlphaSet:
    """Geometric factor set (1/a, 1/a^2, ..., 1/a^n)."""
    if not _finite(a) or a <= 1:
        raise DataError(f"base a must be a finite number > 1, got {a!r}")
    n = _integer("count", n, 1)
    try:
        return AlphaSet(tuple(1.0 / a ** (i + 1) for i in range(n)), base=float(a))
    except OverflowError:
        raise DataError(f"base {a!r} to the power {n} overflows") from None


def baseline_alpha_set() -> AlphaSet:
    """The hand-picked quadruple (0.5, 0.1, 0.025, 0.0025)."""
    return AlphaSet(BASELINE_ALPHAS, base=None)


def init_window(alpha: float, rate_hz: float, available: int) -> int:
    """Init window M = ceil(1/(rate*alpha)), clamped to [1, available].

    The window grows as the filter's drag grows (small alpha) and as the
    sample rate drops, so the seed average spans a comparable wall-clock
    stretch for every filter.
    """
    _alphas((alpha,))
    _positive("rate_hz", rate_hz)
    available = _integer("available", available, 1)
    # tiny slack keeps exact integer quotients from rounding up spuriously;
    # clamping before ceil keeps a quotient that overflows to inf finite
    return max(1, math.ceil(min(1.0 / (rate_hz * alpha) - 1e-9, available)))


def _seed_mean(xs: np.ndarray, m: int) -> float:
    # centered so a constant prefix seeds exactly at the constant
    return float(xs[0] + np.mean(xs[:m] - xs[0]))


def _bank_settings(alphas, windows, length: int | None = None) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Alphas as floats in (0, 1] and init windows as ints >= 1, paired, nonempty and none above length if given."""
    alphas = tuple(float(a) for a in alphas)
    windows = tuple(_integer("init window", m, 1) for m in windows)
    if len(alphas) != len(windows) or not alphas:
        raise DataError("alphas and windows must pair up and be nonempty")
    _alphas(alphas)
    if length is not None and max(windows) > length:
        raise DataError("init window must satisfy 1 <= m <= len(xs)")
    return alphas, windows


def _filter_pass(xs: np.ndarray, alphas: tuple[float, ...], windows: tuple[int, ...]):
    """Seed each filter with its window's mean, then step them all over xs[1:] on Python floats.

    The recurrence is evaluated as y = x + (1-alpha)*(y - x), which keeps
    constant inputs (and the alpha=1 identity) exact in floating point.

    Returns the step (_step_template's bank-only one, which returns the
    list of the N filter values, left at the last sample) and the
    (len(xs), N) rows of filter values: the seeds, then each step's list.
    """
    seeds = [_seed_mean(xs, m) for m in windows]
    step = _step_template(len(seeds), None)(*seeds, *(1.0 - a for a in alphas))
    values = chain(seeds, chain.from_iterable(map(step, memoryview(xs)[1:])))
    rows = np.fromiter(values, dtype=float, count=xs.size * len(seeds)).reshape(xs.size, len(seeds))
    return step, rows


@dataclass(frozen=True)
class FeatureMatrix:
    """N smoothed variants of one uniform signal, one column per alpha."""

    rate_hz: float
    t0: float
    alphas: tuple[float, ...]
    values: np.ndarray  # shape (n_samples, n_alphas)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 2 or self.values.shape[1] != len(self.alphas):
            raise DataError("feature matrix shape inconsistent with alpha count")

    def __len__(self) -> int:
        return int(self.values.shape[0])


def bank_windows(aset: AlphaSet, rate_hz: float, available: int) -> tuple[int, ...]:
    return tuple(init_window(a, rate_hz, available) for a in aset.alphas)


def feature_bank_with_windows(series: UniformSeries, alphas, windows) -> FeatureMatrix:
    """Smooth one series with explicit per-filter init windows, in one _filter_pass."""
    alphas, windows = _bank_settings(alphas, windows, len(series))
    return FeatureMatrix(series.rate_hz, series.t0, alphas, _filter_pass(series.values, alphas, windows)[1])


@lru_cache(maxsize=64)
def _step_template(n: int, sizes: tuple[int, ...] | None):
    """The compiled factory of the step of n filters and, unless sizes is None, a network.

    factory(y0, ..., beta0, ..., *params) returns step(x).  The filter
    values y_j and their weights beta_j = 1 - alpha_j are closure cells,
    and each step advances every filter by y_j = x + beta_j*(y_j - x), the
    one place the recurrence is written.  With sizes None (the step of
    _filter_pass and bank_push) step returns the list of the new values,
    for every n; otherwise it runs the straight-line body of the net of
    those layer sizes (mlp._net_lines, whose parameters follow the betas)
    on them and returns its output.  None where _net_lines gives no body,
    as for mlp._kernel_template.
    """
    ys = [f"y{j}" for j in range(n)]
    body = [f"nonlocal {', '.join(ys)}", *(f"{y} = x + beta{j} * ({y} - x)" for j, y in enumerate(ys))]
    params: list[str] = []
    if sizes is None:
        body.append(f"return [{', '.join(ys)}]")
    else:
        net = _net_lines(sizes, ys)
        if net is None:
            return None
        params, lines = net
        body += lines
    return _compile_factory(f"<knitrect step {n} {sizes}>", [*ys, *(f"beta{j}" for j in range(n)), *params], body)


@dataclass
class BankState:
    """Streaming bank: emits nothing until max(windows) samples arrived, then one row per push.

    The first samples are kept in buffer.  The push that completes it
    runs _filter_pass over it and binds _step, a function that
    _step_template generates: it holds the N filter values as closure
    cells, so a push after the warm-up is one call of it on a Python float.
    The bank holds no network: the warm-up that binds _step takes the one
    it runs, if any (_bank_step), so a plain bank's step returns the filter
    values and a stream session's private bank's step its net's output.
    Settings that _bank_settings refuses raise DataError when the bank is
    made.
    """

    alphas: tuple[float, ...]
    windows: tuple[int, ...]
    buffer: list[float] = field(default_factory=list, init=False)
    _step: Callable[[float], list[float] | float] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.alphas, self.windows = _bank_settings(self.alphas, self.windows)


def make_bank(alphas, windows) -> BankState:
    return BankState(alphas, windows)


def _bank_step(bank: BankState, x: float, head: MlpModel | None):
    """A finite float x into the bank: None while buffering, then bank._step(x).

    The push that completes the buffer runs _filter_pass over it, binds
    _step and returns what _step would: the output of head, the network
    of the stream session that owns the bank, on the filter values after
    that push, or with head None (bank_push) a fresh list of them.  Head
    counts only at that push; after it, _step runs what it bound.  Without
    head, _step is the pass's own step; with head, one function that runs
    the filters from those values and head's straight-line body; for a
    head too large for one (_step_template gives None), the pass's step
    and then _float_net(head), mlp's one-row numpy pass.  Either way each
    output is forward(head, row) on the row bank_push gives, bit for bit.
    """
    if bank._step is not None:
        return bank._step(x)
    bank.buffer.append(x)
    if len(bank.buffer) < max(bank.windows):
        return None
    filters, rows = _filter_pass(np.asarray(bank.buffer), bank.alphas, bank.windows)
    bank.buffer = []
    ys = rows[-1].tolist()
    if head is None:
        bank._step = filters
        return ys
    net = _float_net(head)
    factory = _step_template(len(ys), tuple(map(int, head.layer_sizes)))  # ints only reach the source
    if factory is None:
        bank._step = lambda v: net(filters(v))
    else:
        bank._step = factory(*ys, *(1.0 - a for a in bank.alphas), *_flat_params(head))
    return net(ys)


def bank_push(bank: BankState, x: float) -> np.ndarray | None:
    """Feed one sample; returns the feature row once initialization completes.

    The first max(M_i) samples are buffered.  On the final buffered sample
    the batch filter pass runs over the buffer; after that each push
    advances every filter by one more step of that pass, so each emitted
    row equals the batch feature row over the same prefix, bit for bit.
    The row is a fresh array.  A sample that float() refuses or that is
    not finite raises DataError.
    """
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"bank sample must be a number, got {_shown(x)}") from None
    if not math.isfinite(x):
        raise DataError("non-finite sample pushed into bank")
    y = _bank_step(bank, x, None)
    return None if y is None else np.array(y)
