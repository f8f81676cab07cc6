"""Scoring: trend-agreement r^2, gain, combined two-test error, binned RSE.

r^2 follows the pipeline's own convention: the denominator is centered on
the mean of the ESTIMATE, not of the truth.  On standardized signals this
agrees with the conventional form; on shifted ones it does not.  Only the
estimate-centered form is provided.

Binned RSE is one BinnedCurve per estimate.  binned_rse bins by the truth
alone, so two estimates of one truth at one bin width get the same bins,
and write_binned_rse_csv writes such a pair side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, _finite, _positive, _shown
from .series import _write_table


def r_squared(truth, estimate) -> float:
    """Estimate-centered coefficient of determination: 1 - sum((x-y)^2) / sum((x-mean(y))^2).

    A NaN or +-inf in either input raises DataError, and a sum that
    overflows the float range, on finite inputs near its limit,
    NumericError; neither emits a numpy warning.
    """
    x = np.asarray(truth, dtype=float)
    y = np.asarray(estimate, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise DataError("r_squared needs equal nonzero-length sequences")
    with np.errstate(over="ignore", invalid="ignore"):
        den = _sum_of_squares(x - float(np.mean(y)))
        num = _sum_of_squares(x - y)
    if not (math.isfinite(den) and math.isfinite(num)):
        # the inputs are looked at only here, so valid data pays no extra pass
        _check_finite("r_squared", x, y)
        raise NumericError("r_squared overflows the float range")
    if den == 0.0:
        raise DataError("r_squared denominator is zero (constant truth at the centering mean)")
    return 1.0 - num / den


def _sum_of_squares(d: np.ndarray) -> float:
    """sum(d**2) as np.sum adds it, squaring d in place."""
    return float(np.sum(np.square(d, out=d)))


def _check_finite(name: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise DataError(f"{name} needs finite numbers")


def gain(pre: float, post: float) -> float:
    """Score improvement attributable to the pipeline."""
    return post - pre


def combined_error(r2_a: float, r2_b: float) -> float:
    """Mean squared shortfall from perfect scores on two test sets.

    A score that is not a finite number raises DataError, and an error
    that overflows the float range NumericError.
    """
    if not (_finite(r2_a) and _finite(r2_b)):
        raise DataError(f"combined_error needs finite scores, got {_shown(r2_a)} and {_shown(r2_b)}")
    # each square halved before the sum, which then cannot overflow; halving
    # is exact, so this is (a**2 + b**2) / 2 bit for bit where that is finite
    try:
        return (1.0 - float(r2_a)) ** 2 / 2.0 + (1.0 - float(r2_b)) ** 2 / 2.0
    except OverflowError:  # a Python float's ** 2 raises it where numpy warns
        raise NumericError("combined_error overflows the float range") from None


@dataclass(frozen=True)
class ScoreCard:
    """Pre/post r^2 pair for one evaluation."""

    r2_pre: float
    r2_post: float

    @property
    def gain(self) -> float:
        return gain(self.r2_pre, self.r2_post)

    def rows(self, suffix: str = "") -> list[tuple[str, float]]:
        tag = f"_{suffix}" if suffix else ""
        return [
            (f"r2_pre{tag}", self.r2_pre),
            (f"r2_post{tag}", self.r2_post),
            (f"gain{tag}", self.gain),
        ]


@dataclass(frozen=True)
class BinnedCurve:
    """Relative squared error per truth-value bin for one estimate.

    bin_edges has length n_bins+1; bin b spans [edges[b], edges[b+1]).
    Empty bins carry rse None, never 0.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    rse: tuple[float | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "bin_edges", np.asarray(self.bin_edges, dtype=float))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=int))
        if self.bin_edges.size != self.counts.size + 1 or len(self.rse) != self.counts.size:
            raise DataError("binned curve arrays inconsistent")


def binned_rse(truth, estimate, bin_width: float = 1.0) -> BinnedCurve:
    """Bin samples by truth value; per-bin RSE with an overall-mean denominator.

    RSE of bin b = sum_b (est-truth)^2 / sum_b (truth - mean(all truth))^2.
    The shared overall mean keeps bins comparable; a per-bin mean would make
    low-variance bins explode.  A NaN or +-inf in either input raises
    DataError, and a sum that overflows the float range, on finite inputs
    near its limit, NumericError; neither emits a numpy warning.  So does
    a bin width whose bin edges would not be distinct finite floats: too
    fine for the truth values' magnitude (width 1 at 1e20), or so coarse
    that an edge overflows.
    """
    f = np.asarray(truth, dtype=float)
    p = np.asarray(estimate, dtype=float)
    _positive("bin_width", bin_width)
    if f.size == 0 or f.shape != p.shape:
        raise DataError("binned_rse needs equal nonzero-length sequences")
    _check_finite("binned_rse", f, p)
    if np.all(f == f[0]):
        raise DataError("binned_rse needs non-constant truth")
    # Python floats, whose division overflows to inf without a warning
    lo, hi = float(f.min()) / bin_width, float(f.max()) / bin_width
    if not hi - lo <= 1e6:
        raise DataError(f"bin_width {bin_width!r} makes more than a million bins")
    # a float: numpy 1.x takes no Python int past the int64 range
    lo_bin = float(math.floor(lo))
    n_bins = math.floor(hi) - math.floor(lo) + 1
    with np.errstate(over="ignore"):
        edges = (lo_bin + np.arange(n_bins + 1)) * bin_width
    if not (np.isfinite(edges).all() and (np.diff(edges) > 0).all()):
        raise DataError(f"bin_width {bin_width!r} gives bin edges that are not distinct finite floats at these truth values")
    # whole numbers at most a million apart, so the difference is exact
    idx = (np.floor(f / bin_width) - lo_bin).astype(int)
    counts = np.bincount(idx, minlength=n_bins)
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.bincount(idx, weights=(p - f) ** 2, minlength=n_bins)
        den = np.bincount(idx, weights=(f - float(np.mean(f))) ** 2, minlength=n_bins)
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise NumericError("binned_rse overflows the float range")
    # a degenerate bin sitting exactly on the overall mean has den 0: its
    # rse is 0 for a perfect estimate there, else inf
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0, num / den, np.where(num == 0.0, 0.0, np.inf))
    return BinnedCurve(edges, counts, tuple(None if c == 0 else float(r) for c, r in zip(counts, ratio)))


def write_metric_rows_csv(rows: list[tuple[str, float]], sink) -> None:
    _write_table(sink, "metric,value", rows)


def write_binned_rse_csv(pre: BinnedCurve, post: BinnedCurve, sink) -> None:
    """Pre and post binned-RSE curves side by side; they must share their bins, and empty bins are empty cells."""
    if not (np.array_equal(pre.bin_edges, post.bin_edges) and np.array_equal(pre.counts, post.counts)):
        raise DataError("binned-RSE curves must share their bins")
    edges = pre.bin_edges
    rows = zip(edges[:-1], edges[1:], pre.counts, pre.rse, post.rse)
    _write_table(sink, "bin_lo_n,bin_hi_n,count,rse_pre,rse_post", rows)
