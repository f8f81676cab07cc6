"""Scoring: trend-agreement r^2, gain, combined two-test error, binned RSE.

The default r^2 follows the pipeline's own convention: the denominator is
centered on the mean of the ESTIMATE, not of the truth.  On standardized
signals the two variants agree; on shifted ones they do not, so the
conventional form is exposed as well for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .series import _open_text, fmt


def r_squared(truth, estimate, center: str = "estimate") -> float:
    """Coefficient of determination between a truth and an estimate sequence.

    center="estimate" (default): 1 - sum((x-y)^2) / sum((x-mean(y))^2).
    center="truth": the conventional form with mean(x) in the denominator.
    """
    x = np.asarray(truth, dtype=float)
    y = np.asarray(estimate, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise DataError("r_squared needs equal nonzero-length sequences")
    if center == "estimate":
        mu = float(np.mean(y))
    elif center == "truth":
        mu = float(np.mean(x))
    else:
        raise DataError("center must be 'estimate' or 'truth'")
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
        return self.r2_post - self.r2_pre

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


@dataclass(frozen=True)
class BinnedRse:
    """Pre/post binned-RSE curves over a shared truth binning."""

    bin_edges: np.ndarray
    counts: np.ndarray
    rse_pre: tuple[float | None, ...]
    rse_post: tuple[float | None, ...]


def binned_rse(truth, estimate, bin_width: float = 1.0) -> BinnedCurve:
    """Bin samples by truth value; per-bin RSE with an overall-mean denominator.

    RSE of bin b = sum_b (est-truth)^2 / sum_b (truth - mean(all truth))^2.
    The shared overall mean keeps bins comparable; a per-bin mean would make
    low-variance bins explode.
    """
    f = np.asarray(truth, dtype=float)
    p = np.asarray(estimate, dtype=float)
    if bin_width <= 0:
        raise DataError("bin_width must be positive")
    if f.size == 0 or f.shape != p.shape:
        raise DataError("binned_rse needs equal nonzero-length sequences")
    if np.all(f == f[0]):
        raise DataError("binned_rse needs non-constant truth")
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


def binned_rse_pair(truth, est_pre, est_post, bin_width: float = 1.0) -> BinnedRse:
    """Binned RSE of two estimates of the same truth, on one shared binning."""
    pre = binned_rse(truth, est_pre, bin_width)
    post = binned_rse(truth, est_post, bin_width)
    return BinnedRse(pre.bin_edges, pre.counts, pre.rse, post.rse)


def write_metric_rows_csv(rows: list[tuple[str, float]], sink) -> None:
    with _open_text(sink, "w") as stream:
        stream.write("metric,value\n")
        for name, value in rows:
            stream.write(f"{name},{fmt(value)}\n")


def write_binned_rse_csv(br: BinnedRse, sink) -> None:
    with _open_text(sink, "w") as stream:
        stream.write("bin_lo_n,bin_hi_n,count,rse_pre,rse_post\n")
        for b in range(br.counts.size):
            pre = "" if br.rse_pre[b] is None else fmt(br.rse_pre[b])
            post = "" if br.rse_post[b] is None else fmt(br.rse_post[b])
            stream.write(
                f"{fmt(br.bin_edges[b])},{fmt(br.bin_edges[b + 1])},{int(br.counts[b])},{pre},{post}\n"
            )
