"""Recording ingest, uniform resampling, conductivity, and standardization.

A raw recording is an irregularly timestamped table of (time, force,
resistance, displacement).  Everything downstream works on fixed-rate
series, so the first processing step is linear-interpolation resampling
onto a uniform grid, followed by the resistance->conductivity flip and
zero-mean/unit-variance scaling.

Recording CSVs are read on one of two paths that give the same result.
A plain table (exactly the header line, then unquoted rows without
carriage returns or over-long lines) whose rows keep the recording rules
is parsed by numpy's C reader in one call.  Every other input goes
through the row reader: a table with quoting or CRLF line ends, one
numpy's reader rejects, and a plain one with a row that breaks a rule.
The row reader alone names the line of a bad row.
"""

from __future__ import annotations

import csv
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import DataError, _finite, _positive, _shown

RECORDING_HEADER = ("t_s", "force_n", "resistance_ohm", "displacement_mm")
_HEADER_LINE = ",".join(RECORDING_HEADER) + "\n"

# the recording rules, in the order each row is checked against them
_RULES = (
    "non-finite value",
    "non-increasing timestamp",
    "non-positive resistance",
    "negative force",
    "negative displacement",
)

# _write_rows formats this many rows per string join; larger blocks hold more
# row text at once (4096 raised peak RSS by ~2 MiB)
_BLOCK_ROWS = 1024

# the simulator and _first_violation work on arrays this many samples at a
# time (164 s at 100 Hz, 128 KiB per float array), so that their working
# memory does not grow with the recording
_BLOCK = 2**14

# the most samples a setting may ask one series for: a day at 100 Hz,
# 80 MB per float column
MAX_SAMPLES = 10**7

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
        if any(getattr(self, name).size != n for name in ("force_n", "resistance_ohm", "displacement_mm")):
            raise DataError("recording columns have unequal lengths")
        bad = _first_violation(self.t_s, self.force_n, self.resistance_ohm, self.displacement_mm)
        if bad is not None:
            raise DataError(f"{bad[1]} at index {bad[0]}")

    def __len__(self) -> int:
        return int(self.t_s.size)


@dataclass(frozen=True)
class UniformSeries:
    """Fixed-rate scalar sequence, a 1-D array of finite values; sample k sits at t0 + k/rate_hz.

    A value that float() refuses, a non-finite t0 and a rate that is not
    a positive finite number raise DataError.
    """

    rate_hz: float
    t0: float
    values: np.ndarray

    def __post_init__(self):
        try:
            object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        except (TypeError, ValueError, OverflowError):
            raise DataError("uniform series values must be numbers") from None
        _positive("rate_hz", self.rate_hz)
        if not _finite(self.t0):
            raise DataError(f"uniform series t0 must be a finite number, got {_shown(self.t0)}")
        if self.values.ndim != 1:
            raise DataError("a uniform series is a 1-D sequence")
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
        if not (_finite(self.mean) and _finite(self.scale) and self.scale > 0):
            raise DataError("scaler needs finite mean and positive scale")

    def transform(self, xs) -> np.ndarray:
        return (np.asarray(xs, dtype=float) - self.mean) / self.scale

    def inverse(self, xs) -> np.ndarray:
        return np.asarray(xs, dtype=float) * self.scale + self.mean


def _source_name(source) -> str:
    return str(source) if isinstance(source, (str, Path)) else getattr(source, "name", "")


@contextmanager
def _open_text(source, mode: str) -> Iterator[TextIO]:
    """Yield a text stream: a path is opened and closed, a caller's stream is left open.

    Bytes that do not decode, met anywhere in the with body, raise DataError.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, mode, newline="") as stream:
                yield stream
        else:
            yield source
    except UnicodeDecodeError as exc:
        raise DataError(f"{_source_name(source) or 'input'} is not {exc.encoding} text: {exc.reason}") from None


def _first_violation(t, f, r, d) -> tuple[int, str] | None:
    """The first row that breaks a recording rule, and the rule it breaks first.

    Rows are checked in order, _BLOCK at a time, and each row against the
    rules in _RULES order; the timestamp rule compares a row with the one
    before it.
    """
    for lo in range(0, t.size, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        prev = max(lo - 1, 0)
        not_increasing = np.zeros(t[rows].shape, dtype=bool)
        with np.errstate(invalid="ignore", over="ignore"):  # a gap beyond the float range is inf, still increasing
            not_increasing[prev + 1 - lo :] = np.diff(t[prev : lo + _BLOCK]) <= 0
        broken = (
            ~(np.isfinite(t[rows]) & np.isfinite(f[rows]) & np.isfinite(r[rows]) & np.isfinite(d[rows])),
            not_increasing,
            r[rows] <= 0,
            f[rows] < 0,
            d[rows] < 0,
        )
        any_broken = np.logical_or.reduce(broken)
        if any_broken.any():
            row = int(np.argmax(any_broken))
            return lo + row, next(rule for rule, mask in zip(_RULES, broken) if mask[row])
    return None


def _plain_values(lines: list[str]) -> np.ndarray | None:
    """The rows of a plain recording table parsed by np.loadtxt, or None when the row reader must read it.

    A table is plain when its first line is exactly the header, no line
    holds a quote or a carriage return or reaches the csv module's field
    size limit, and the body holds a row.  The result is kept only when it
    has 4 columns; anything else is left to the row reader, which names the
    bad line.  The recording rules are not checked here: load_recording
    checks them on the result and hands a table that breaks one to the row
    reader, which names its line.  (A single row passes, and RawRecording
    rejects it with the row reader's message.)
    """
    if len(lines) < 2 or not isinstance(lines[0], str) or lines[0] != _HEADER_LINE:
        return None
    # np.loadtxt skips only "\n" lines, and warns when it finds no row at all
    if lines.count("\n") == len(lines) - 1 or max(map(len, lines)) >= csv.field_size_limit():
        return None
    # joined 256 lines at a time: five times faster than a test per line,
    # and unlike one join of the whole table (~0.9 MiB at 8 minutes) it does
    # not raise peak RSS
    for start in range(0, len(lines), 256):
        block = "".join(lines[start : start + 256])
        if '"' in block or "\r" in block:
            return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, skiprows=1, ndmin=2)
    except ValueError:  # a field that is no float to numpy's reader (e.g. 1_0), or a ragged row
        return None
    if values.shape[1] != len(RECORDING_HEADER):
        return None
    return values


def _read_rows(lines) -> np.ndarray:
    """A recording table's rows parsed one by one, as an (n, 4) float array; else DataError naming the first bad line.

    Each row of lines is split by csv.reader and its fields read by
    float().  Rows are read up to the first malformed one; a row before it
    that breaks a recording rule wins over it.
    """
    reader = csv.reader(lines)
    try:
        first = next(reader, None)
    except csv.Error as exc:
        raise DataError(f"bad header: {exc}") from None
    if first is None:
        raise DataError("empty file, expected CSV header")
    if [c.strip() for c in first] != list(RECORDING_HEADER):
        raise DataError(f"bad header, expected {','.join(RECORDING_HEADER)!r}")
    n_cols = len(RECORDING_HEADER)
    values, linenos, error = array("d"), [], None
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                error = f"malformed row at line {lineno}: expected {n_cols} fields"
                break
            values.extend([float(c) for c in row])
            linenos.append(lineno)
    except csv.Error as exc:  # a row the csv module cannot split, e.g. one over its field size limit
        error = f"malformed row at line {reader.line_num}: {exc}"
    except ValueError:  # a field float() does not read
        error = f"malformed row at line {lineno}: non-numeric field"
    rows = np.frombuffer(values, dtype=float).reshape(-1, n_cols)
    bad = _first_violation(*rows.T)
    if bad is not None:
        raise DataError(f"{bad[1]} at line {linenos[bad[0]]}")
    if error is not None:
        raise DataError(error)
    return rows


def load_recording(source) -> RawRecording:
    """Parse a recording CSV (header `t_s,force_n,resistance_ohm,displacement_mm`).

    Accepts a path or a text stream.  Violations are reported with the
    offending line number (header = line 1); of several, the one on the
    earliest line wins.  The whole input is decoded first, so bytes that
    do not decode raise DataError before any row is parsed.  A plain table
    (see _plain_values) whose rows keep the recording rules is parsed by
    np.loadtxt alone.  Every other input goes through the row reader, which
    alone names a bad line; both paths give the same recording.
    """
    with _open_text(source, "r") as stream:
        lines = stream.readlines()
    values = _plain_values(lines)
    if values is None or _first_violation(*values.T) is not None:
        values = _read_rows(lines)
    return RawRecording(*values.T, source_label=_source_name(source))


def _write_rows(stream: TextIO, cols) -> None:
    """Write equal-length float columns as CSV rows of FLOAT_FMT fields, _BLOCK_ROWS rows per write.

    Each block is formatted by one % of the row format repeated per row.
    The bytes equal a per-row ",".join(fmt(x) for x in row) + "\n".
    """
    row_fmt = ",".join([FLOAT_FMT] * len(cols)) + "\n"
    for start in range(0, len(cols[0]), _BLOCK_ROWS):
        block = np.column_stack([np.asarray(c[start : start + _BLOCK_ROWS], dtype=float) for c in cols])
        stream.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _write_table(sink, header: str, rows) -> None:
    """Write a CSV table: the header line, then one line per row of cells.

    A cell that is None is written empty, a str as it is, and any other
    value (a float or an int, Python's or numpy's) through fmt.
    """
    with _open_text(sink, "w") as stream:
        stream.write(header + "\n")
        for row in rows:
            stream.write(",".join("" if c is None else c if isinstance(c, str) else fmt(c) for c in row) + "\n")


def write_recording(rec: RawRecording, sink) -> None:
    with _open_text(sink, "w") as stream:
        stream.write(_HEADER_LINE)
        _write_rows(stream, (rec.t_s, rec.force_n, rec.resistance_ohm, rec.displacement_mm))


def resample(t, x, rate_hz: float) -> UniformSeries:
    """Linear-interpolation resampling onto a uniform grid.

    The grid starts at the first input timestamp and advances by 1/rate_hz
    up to (never past) the last input timestamp, so endpoints are
    reproduced and nothing is extrapolated.  t and x must be 1-D, of one
    length of at least 2 and all finite, and t strictly increasing (else
    DataError).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    _positive("rate_hz", rate_hz)
    if t.ndim != 1 or x.ndim != 1:
        raise DataError(f"t and x must be 1-D, got shapes {t.shape} and {x.shape}")
    if t.size < 2:
        raise DataError("need at least 2 points to resample")
    if t.shape != x.shape:
        raise DataError("t and x must have equal lengths")
    if not (np.isfinite(t).all() and np.isfinite(x).all()):
        raise DataError("t and x must be finite numbers")
    with np.errstate(over="ignore"):  # a span beyond the float range is inf, and too many samples below
        gaps, span = np.diff(t), float(t[-1] - t[0])
    if np.any(gaps <= 0):
        raise DataError("timestamps must be strictly increasing")
    # small slack so a span that is an exact multiple of the step keeps its endpoint
    steps = span * float(rate_hz) + 1e-9
    if not steps < MAX_SAMPLES:
        raise DataError(f"rate_hz {rate_hz!r} asks for more than {MAX_SAMPLES} samples")
    n = int(np.floor(steps)) + 1
    grid = t[0] + np.arange(n) / rate_hz
    return UniformSeries(rate_hz=float(rate_hz), t0=float(t[0]), values=np.interp(grid, t, x))


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
