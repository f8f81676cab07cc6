"""Recording ingest, uniform resampling, conductivity, and standardization.

A raw recording is an irregularly timestamped table of (time, force,
resistance, displacement).  Everything downstream works on fixed-rate
series, so the first processing step is linear-interpolation resampling
onto a uniform grid, followed by the resistance->conductivity flip and
zero-mean/unit-variance scaling.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import DataError

RECORDING_HEADER = ("t_s", "force_n", "resistance_ohm", "displacement_mm")
SERIES_HEADER = ("t_s", "value")

# all CSV writers emit at least 9 significant digits
FLOAT_FMT = "%.12g"


def fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


@dataclass(frozen=True)
class RawRecording:
    """Irregularly sampled acquisition rows: time, force, resistance, displacement."""

    t_s: np.ndarray
    force_n: np.ndarray
    resistance_ohm: np.ndarray
    displacement_mm: np.ndarray
    source_label: str = ""

    def __post_init__(self):
        for name in ("t_s", "force_n", "resistance_ohm", "displacement_mm"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.t_s.size
        if n < 2:
            raise DataError("recording needs at least 2 rows")
        for name in ("force_n", "resistance_ohm", "displacement_mm"):
            if getattr(self, name).size != n:
                raise DataError("recording columns have unequal lengths")
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"non-finite value in {name}")
        if not np.all(np.isfinite(self.t_s)):
            raise DataError("non-finite timestamp")
        if np.any(np.diff(self.t_s) <= 0):
            raise DataError("timestamps must be strictly increasing")
        if np.any(self.resistance_ohm <= 0):
            raise DataError("non-positive resistance")
        if np.any(self.force_n < 0):
            raise DataError("negative force")
        if np.any(self.displacement_mm < 0):
            raise DataError("negative displacement")

    def __len__(self) -> int:
        return int(self.t_s.size)


@dataclass(frozen=True)
class UniformSeries:
    """Fixed-rate scalar sequence; sample k sits at t0 + k/rate_hz."""

    rate_hz: float
    t0: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.rate_hz <= 0:
            raise DataError("rate_hz must be positive")
        if not np.all(np.isfinite(self.values)):
            raise DataError("non-finite value in uniform series")

    def __len__(self) -> int:
        return int(self.values.size)

    def timestamps(self) -> np.ndarray:
        return self.t0 + np.arange(self.values.size) / self.rate_hz


@dataclass(frozen=True)
class ScalerParams:
    """Zero-mean/unit-variance affine map fitted on one signal."""

    mean: float
    scale: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.scale) and self.scale > 0):
            raise DataError("scaler needs finite mean and positive scale")

    def transform(self, xs) -> np.ndarray:
        return (np.asarray(xs, dtype=float) - self.mean) / self.scale

    def inverse(self, xs) -> np.ndarray:
        return np.asarray(xs, dtype=float) * self.scale + self.mean


@contextmanager
def _open_text(source, mode: str) -> Iterator[TextIO]:
    """Yield a text stream: a path is opened and closed, a caller's stream is left open."""
    if isinstance(source, (str, Path)):
        with open(source, mode, newline="") as stream:
            yield stream
    else:
        yield source


def _parse_rows(stream: TextIO, n_cols: int, header) -> Iterator[tuple[int, list[float]]]:
    reader = csv.reader(stream)
    try:
        first = next(reader)
    except StopIteration:
        raise DataError("empty file, expected CSV header") from None
    if [c.strip() for c in first] != list(header):
        raise DataError(f"bad header, expected {','.join(header)!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n_cols:
            raise DataError(f"malformed row at line {lineno}: expected {n_cols} fields")
        try:
            vals = [float(c) for c in row]
        except ValueError:
            raise DataError(f"malformed row at line {lineno}: non-numeric field") from None
        if not all(np.isfinite(vals)):
            raise DataError(f"non-finite value at line {lineno}")
        yield lineno, vals


def load_recording(source) -> RawRecording:
    """Parse a recording CSV (header `t_s,force_n,resistance_ohm,displacement_mm`).

    Accepts a path or a text stream.  Violations are reported with the
    offending line number (header = line 1).
    """
    label = str(source) if isinstance(source, (str, Path)) else getattr(source, "name", "")
    with _open_text(source, "r") as stream:
        rows = []
        prev_t = None
        for lineno, (t, f, r, d) in _parse_rows(stream, 4, RECORDING_HEADER):
            if prev_t is not None and t <= prev_t:
                raise DataError(f"non-increasing timestamp at line {lineno}")
            if r <= 0:
                raise DataError(f"non-positive resistance at line {lineno}")
            if f < 0:
                raise DataError(f"negative force at line {lineno}")
            if d < 0:
                raise DataError(f"negative displacement at line {lineno}")
            prev_t = t
            rows.append((t, f, r, d))
        if len(rows) < 2:
            raise DataError("recording needs at least 2 rows")
    cols = np.asarray(rows, dtype=float).T
    return RawRecording(cols[0], cols[1], cols[2], cols[3], source_label=label)


def write_recording(rec: RawRecording, sink) -> None:
    with _open_text(sink, "w") as stream:
        stream.write(",".join(RECORDING_HEADER) + "\n")
        for t, f, r, d in zip(rec.t_s, rec.force_n, rec.resistance_ohm, rec.displacement_mm):
            stream.write(f"{fmt(t)},{fmt(f)},{fmt(r)},{fmt(d)}\n")


def recording_to_csv(rec: RawRecording) -> str:
    buf = io.StringIO()
    write_recording(rec, buf)
    return buf.getvalue()


def resample(t, x, rate_hz: float) -> UniformSeries:
    """Linear-interpolation resampling onto a uniform grid.

    The grid starts at the first input timestamp and advances by 1/rate_hz
    up to (never past) the last input timestamp, so endpoints are
    reproduced and nothing is extrapolated.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if rate_hz <= 0:
        raise DataError("rate_hz must be positive")
    if t.size < 2:
        raise DataError("need at least 2 points to resample")
    if t.shape != x.shape:
        raise DataError("t and x must have equal lengths")
    if np.any(np.diff(t) <= 0):
        raise DataError("timestamps must be strictly increasing")
    # small slack so a span that is an exact multiple of the step keeps its endpoint
    n = int(np.floor((t[-1] - t[0]) * rate_hz + 1e-9)) + 1
    grid = t[0] + np.arange(n) / rate_hz
    return UniformSeries(rate_hz=float(rate_hz), t0=float(t[0]), values=np.interp(grid, t, x))


def resample_recording(rec: RawRecording, rate_hz: float) -> dict[str, UniformSeries]:
    """Resample every channel of a recording on its shared timestamp column."""
    return {
        "force_n": resample(rec.t_s, rec.force_n, rate_hz),
        "resistance_ohm": resample(rec.t_s, rec.resistance_ohm, rate_hz),
        "displacement_mm": resample(rec.t_s, rec.displacement_mm, rate_hz),
    }


def conductivity(series: UniformSeries) -> UniformSeries:
    """Elementwise reciprocal (resistance -> conductance), rate and t0 kept."""
    if np.any(series.values <= 0):
        raise DataError("conductivity needs strictly positive values")
    return UniformSeries(series.rate_hz, series.t0, 1.0 / series.values)


def scaler_fit(xs) -> ScalerParams:
    """Fit mean and population (1/n) standard deviation."""
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2:
        raise DataError("need at least 2 values to fit a scaler")
    if not np.all(np.isfinite(xs)):
        raise DataError("non-finite value in scaler input")
    scale = float(np.std(xs))
    # min == max catches constant input even when rounding in the mean
    # leaves the computed deviations at float-dust level instead of zero
    if scale == 0.0 or xs.min() == xs.max():
        raise DataError("zero variance input, cannot scale")
    return ScalerParams(mean=float(np.mean(xs)), scale=scale)


def scaler_transform(p: ScalerParams, xs) -> np.ndarray:
    return p.transform(xs)


def scaler_inverse(p: ScalerParams, xs) -> np.ndarray:
    return p.inverse(xs)


def write_series_csv(series: UniformSeries, sink) -> None:
    with _open_text(sink, "w") as stream:
        stream.write(",".join(SERIES_HEADER) + "\n")
        for t, v in zip(series.timestamps(), series.values):
            stream.write(f"{fmt(t)},{fmt(v)}\n")
