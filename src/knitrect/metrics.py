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

from .errors import DataError, _positive
from .series import _write_table


def r_squared(truth, estimate) -> float:
    """Estimate-centered coefficient of determination: 1 - sum((x-y)^2) / sum((x-mean(y))^2)."""
    x = np.asarray(truth, dtype=float)
    y = np.asarray(estimate, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise DataError("r_squared needs equal nonzero-length sequences")
    mu = float(np.mean(y))
    den = float(np.sum((x - mu) ** 2))
    if den == 0.0:
        raise DataError("r_squared denominator is zero (constant truth at the centering mean)")
    num = float(np.sum((x - y) ** 2))
    return 1.0 - num / den


def gain(pre: float, post: float) -> float:
    """Score improvement attributable to the pipeline."""
    return post - pre


def combined_error(r2_a: float, r2_b: float) -> float:
    """Mean squared shortfall from perfect scores on two test sets."""
    return ((1.0 - r2_a) ** 2 + (1.0 - r2_b) ** 2) / 2.0


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
    low-variance bins explode.
    """
    f = np.asarray(truth, dtype=float)
    p = np.asarray(estimate, dtype=float)
    _positive("bin_width", bin_width)
    if f.size == 0 or f.shape != p.shape or not np.isfinite(f).all():
        raise DataError("binned_rse needs equal nonzero-length sequences with finite truth")
    if np.all(f == f[0]):
        raise DataError("binned_rse needs non-constant truth")
    if not f.max() / bin_width - f.min() / bin_width <= 1e6:
        raise DataError(f"bin_width {bin_width!r} makes more than a million bins")
    mu = float(np.mean(f))
    lo_bin = int(math.floor(f.min() / bin_width))
    hi_bin = int(math.floor(f.max() / bin_width))
    n_bins = hi_bin - lo_bin + 1
    idx = np.floor(f / bin_width).astype(int) - lo_bin
    counts = np.bincount(idx, minlength=n_bins)
    num = np.bincount(idx, weights=(p - f) ** 2, minlength=n_bins)
    den = np.bincount(idx, weights=(f - mu) ** 2, minlength=n_bins)
    rse_list: list[float | None] = []
    for b in range(n_bins):
        if counts[b] == 0:
            rse_list.append(None)
        elif den[b] > 0:
            rse_list.append(float(num[b] / den[b]))
        else:
            # degenerate bin sitting exactly on the overall mean
            rse_list.append(0.0 if num[b] == 0.0 else float("inf"))
    rse = tuple(rse_list)
    edges = (lo_bin + np.arange(n_bins + 1)) * bin_width
    return BinnedCurve(edges, counts, rse)


def write_metric_rows_csv(rows: list[tuple[str, float]], sink) -> None:
    _write_table(sink, "metric,value", rows)


def write_binned_rse_csv(pre: BinnedCurve, post: BinnedCurve, sink) -> None:
    """Pre and post binned-RSE curves side by side; they must share their bins, and empty bins are empty cells."""
    if not (np.array_equal(pre.bin_edges, post.bin_edges) and np.array_equal(pre.counts, post.counts)):
        raise DataError("binned-RSE curves must share their bins")
    edges = pre.bin_edges
    rows = zip(edges[:-1], edges[1:], pre.counts, pre.rse, post.rse)
    _write_table(sink, "bin_lo_n,bin_hi_n,count,rse_pre,rse_post", rows)
