"""Exponential smoothing factor sets and feature banks, batch and streaming.

The core recurrence is y(t) = alpha*x(t) + (1-alpha)*y(t-1) with
y(0) = mean(x_0 .. x_{M-1}).  The init window M grows as alpha shrinks so
heavily damped filters start near the local signal level instead of at a
single noisy sample.  A feature bank runs N such filters with decreasing
alphas over one normalized conductance signal; those N columns are the
regression features.

The stream bank (make_bank / bank_push) runs the same filters one sample
at a time: it buffers the first max(M_i) samples, replays `smooth` over
that buffer to seed every filter, and then steps all N filters per sample
with the same formula, so each emitted row equals the batch row bit for
bit (the network on top then makes the stream equal the batch to within
1e-12; see mlp.forward).  Both loops run on Python floats, which carry the
same IEEE doubles as numpy's float64 scalars at a fraction of the
per-operation cost.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .series import UniformSeries, fmt

BASELINE_ALPHAS = (0.5, 0.1, 0.025, 0.0025)


@dataclass(frozen=True)
class AlphaSet:
    """Decreasing smoothing factors, optionally generated as 1/a, 1/a^2, ..., 1/a^N."""

    alphas: tuple[float, ...]
    base: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if len(self.alphas) < 1:
            raise DataError("alpha set needs at least one factor")
        if any(not (0.0 < a <= 1.0) for a in self.alphas):
            raise DataError("alphas must lie in (0, 1]")
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
    if a <= 1:
        raise DataError("base a must be > 1")
    if n < 1:
        raise DataError("count must be >= 1")
    return AlphaSet(tuple(1.0 / a ** (i + 1) for i in range(n)), base=float(a))


def baseline_alpha_set() -> AlphaSet:
    """The hand-picked quadruple (0.5, 0.1, 0.025, 0.0025)."""
    return AlphaSet(BASELINE_ALPHAS, base=None)


def init_window(alpha: float, rate_hz: float, available: int) -> int:
    """Init window M = ceil(1/(rate*alpha)), clamped to [1, available].

    The window grows as the filter's drag grows (small alpha) and as the
    sample rate drops, so the seed average spans a comparable wall-clock
    stretch for every filter.
    """
    if not (0.0 < alpha <= 1.0):
        raise DataError("alpha must lie in (0, 1]")
    if rate_hz <= 0:
        raise DataError("rate_hz must be positive")
    if available < 1:
        raise DataError("available must be >= 1")
    # tiny slack keeps exact integer quotients from rounding up spuriously
    m = math.ceil(1.0 / (rate_hz * alpha) - 1e-9)
    return max(1, min(int(m), int(available)))


def _seed_mean(xs: np.ndarray, m: int) -> float:
    # centered so a constant prefix seeds exactly at the constant
    return float(xs[0] + np.mean(xs[:m] - xs[0]))


def smooth(xs, alpha: float, m: int) -> np.ndarray:
    """Batch exponential smoothing seeded with the mean of the first m samples.

    The recurrence is evaluated as y = x + (1-alpha)*(y - x), which keeps
    constant inputs (and the alpha=1 identity) exact in floating point.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise DataError("smooth expects a 1-D sequence")
    if xs.size == 0:
        raise DataError("cannot smooth an empty sequence")
    if not (0.0 < alpha <= 1.0):
        raise DataError("alpha must lie in (0, 1]")
    if not (1 <= m <= xs.size):
        raise DataError("init window must satisfy 1 <= m <= len(xs)")
    # a memoryview yields one Python float at a time, so no list of them is built
    steps = _recurrence(_seed_mean(xs, m), 1.0 - float(alpha), memoryview(xs)[1:])
    return np.fromiter(steps, dtype=float, count=xs.size)


def _recurrence(y: float, beta: float, xs) -> Iterator[float]:
    """y, then y = x + beta*(y - x) for each x of xs, in Python floats."""
    yield y
    for x in xs:
        y = x + beta * (y - x)
        yield y


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
    """Smooth one series with explicit per-filter init windows."""
    alphas = tuple(float(a) for a in alphas)
    windows = tuple(int(m) for m in windows)
    if len(alphas) != len(windows):
        raise DataError("alphas and windows must pair up")
    cols = [smooth(series.values, a, m) for a, m in zip(alphas, windows)]
    return FeatureMatrix(series.rate_hz, series.t0, alphas, np.column_stack(cols))


@dataclass
class BankState:
    """Streaming bank: emits nothing until max(windows) samples arrived, then one row per push.

    y holds the N filter values once seeded (None while buffering); beta
    is 1 - alphas, the per-filter weight of the previous value.  Both are
    float lists: a per-sample step over a handful of filters costs less in
    Python floats than in numpy calls.
    """

    alphas: tuple[float, ...]
    windows: tuple[int, ...]
    y: list[float] | None = None
    buffer: list[float] = field(default_factory=list)
    beta: list[float] = field(init=False, repr=False)

    def __post_init__(self):
        self.beta = [1.0 - a for a in self.alphas]


def make_bank(alphas, windows) -> BankState:
    alphas = tuple(float(a) for a in alphas)
    windows = tuple(int(m) for m in windows)
    if len(alphas) != len(windows) or not alphas:
        raise DataError("alphas and windows must pair up and be nonempty")
    if any(m < 1 for m in windows):
        raise DataError("init windows must be >= 1")
    return BankState(alphas, windows)


def _bank_step(bank: BankState, x: float) -> list[float] | None:
    """bank_push on a float, returning the bank's own y list (callers must not mutate it)."""
    if not math.isfinite(x):
        raise DataError("non-finite sample pushed into bank")
    if bank.y is None:
        bank.buffer.append(x)
        if len(bank.buffer) < max(bank.windows):
            return None
        buf = np.asarray(bank.buffer)
        bank.y = [float(smooth(buf, a, m)[-1]) for a, m in zip(bank.alphas, bank.windows)]
        bank.buffer = []
    else:
        bank.y = [x + b * (y - x) for b, y in zip(bank.beta, bank.y)]
    return bank.y


def bank_push(bank: BankState, x: float) -> np.ndarray | None:
    """Feed one sample; returns the feature row once initialization completes.

    The first max(M_i) samples are buffered.  On the final buffered sample
    every filter is seeded by running `smooth` over the buffer; after that
    each push advances every filter by one step of the same recurrence, so
    each emitted row equals the batch feature row over the same prefix,
    bit for bit.  The row is a fresh array.
    """
    y = _bank_step(bank, float(x))
    return None if y is None else np.array(y)
