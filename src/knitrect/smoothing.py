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
values in closure cells and returns them as a list.  A single filter is
a one-column bank.  The stream bank (make_bank / bank_push) runs the pass
over its first max(M_i) samples and keeps its step, so each emitted row
equals the batch row bit for bit.  The steps run on Python floats, the
same IEEE doubles as numpy's float64 scalars at a fraction of the cost.
A bank only filters: a stream session (pipeline.StreamSession) runs the
network on each of its bank's lists with mlp.forward's own evaluator.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import DataError, _finite, _integer, _positive, _shown
from .mlp import _compile_factory
from .series import UniformSeries, fmt

BASELINE_ALPHAS = (0.5, 0.1, 0.025, 0.0025)


def _alphas(alphas) -> tuple[float, ...]:
    """The smoothing factors as floats; DataError unless each lies in (0, 1]."""
    floats = []
    for a in alphas:
        try:
            f = float(a)
        except (TypeError, ValueError, OverflowError):  # no number, or an int past the float range
            f = math.nan
        if not 0.0 < f <= 1.0:
            raise DataError(f"alpha must lie in (0, 1], got {_shown(a)}")
        floats.append(f)
    return tuple(floats)


@dataclass(frozen=True)
class AlphaSet:
    """Decreasing smoothing factors, optionally generated as 1/a, 1/a^2, ..., 1/a^N."""

    alphas: tuple[float, ...]
    base: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphas", _alphas(self.alphas))
        if len(self.alphas) < 1:
            raise DataError("alpha set needs at least one factor")
        if any(b >= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise DataError("alphas must be strictly decreasing")
        if self.base is not None:
            try:
                wants = [1.0 / self.base ** (i + 1) for i in range(len(self.alphas))]
            except OverflowError:
                raise DataError(f"base {_shown(self.base)} to the power {len(self.alphas)} overflows") from None
            if any(abs(a - want) > 1e-12 for a, want in zip(self.alphas, wants)):
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
        raise DataError(f"base a must be a finite number > 1, got {_shown(a)}")
    n = _integer("count", n, 1)
    try:
        return AlphaSet(tuple(1.0 / a ** (i + 1) for i in range(n)), base=float(a))
    except OverflowError:
        raise DataError(f"base {_shown(a)} to the power {n} overflows") from None


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
    alphas, windows = tuple(alphas), tuple(_integer("init window", m, 1) for m in windows)
    if len(alphas) != len(windows) or not alphas:
        raise DataError("alphas and windows must pair up and be nonempty")
    alphas = _alphas(alphas)
    if length is not None and max(windows) > length:
        raise DataError("init window must satisfy 1 <= m <= len(xs)")
    return alphas, windows


def _filter_pass(xs: np.ndarray, alphas: tuple[float, ...], windows: tuple[int, ...]):
    """Seed each filter with its window's mean, then step them all over xs[1:] on Python floats.

    The recurrence is evaluated as y = x + (1-alpha)*(y - x), which keeps
    constant inputs (and the alpha=1 identity) exact in floating point.

    Returns the step (_step_template's, which returns the list of the N
    filter values, left at the last sample) and the (len(xs), N) rows of
    filter values: the seeds, then each step's list.
    """
    seeds = [_seed_mean(xs, m) for m in windows]
    step = _step_template(len(seeds))(*seeds, *(1.0 - a for a in alphas))
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
def _step_template(n: int):
    """The compiled factory of the step of n filters.

    factory(y0, ..., beta0, ...) returns step(x).  The filter values y_j
    and their weights beta_j = 1 - alpha_j are closure cells, and each
    step advances every filter by y_j = x + beta_j*(y_j - x), the one
    place the recurrence is written, and returns the list of the new
    values.
    """
    ys = [f"y{j}" for j in range(n)]
    body = [f"nonlocal {', '.join(ys)}", *(f"{y} = x + beta{j} * ({y} - x)" for j, y in enumerate(ys)), f"return [{', '.join(ys)}]"]
    return _compile_factory(f"<knitrect step {n}>", [*ys, *(f"beta{j}" for j in range(n))], body)


@dataclass
class BankState:
    """Streaming bank: emits nothing until max(windows) samples arrived, then one row per push.

    The first samples are kept in buffer.  The push that completes it
    runs _filter_pass over it and binds _step, that pass's step: it holds
    the N filter values as closure cells, so a push after the warm-up is
    one call of it on a Python float, which returns the list of the
    filter values.  Settings that _bank_settings refuses raise DataError
    when the bank is made.
    """

    alphas: tuple[float, ...]
    windows: tuple[int, ...]
    buffer: list[float] = field(default_factory=list, init=False)
    _step: Callable[[float], list[float]] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.alphas, self.windows = _bank_settings(self.alphas, self.windows)


def make_bank(alphas, windows) -> BankState:
    return BankState(alphas, windows)


def _bank_step(bank: BankState, x: float) -> list[float] | None:
    """A finite float x into the bank: None while buffering, then the list of the filter values.

    The push that completes the buffer runs _filter_pass over it, binds
    its step as _step and returns a fresh list of the values after that
    push; each later push is bank._step(x).
    """
    if bank._step is not None:
        return bank._step(x)
    bank.buffer.append(x)
    if len(bank.buffer) < max(bank.windows):
        return None
    bank._step, rows = _filter_pass(np.asarray(bank.buffer), bank.alphas, bank.windows)
    bank.buffer = []
    return rows[-1].tolist()


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
    y = _bank_step(bank, x)
    return None if y is None else np.array(y)
