"""Recording ingest, resampling, conductivity, and scaler behavior."""

import csv
import io
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import knitrect as kr
from knitrect import series
from knitrect.errors import DataError
from knitrect.series import _open_text, fmt

HEADER = "t_s,force_n,resistance_ohm,displacement_mm"


def _csv(*rows):
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


# --- load_recording -------------------------------------------------------------


def test_load_three_rows():
    rec = kr.load_recording(_csv("0,1,1e6,0", "0.025,1,1e6,0", "0.05,1,1e6,0"))
    assert len(rec) == 3
    assert np.allclose(rec.t_s, [0, 0.025, 0.05])
    assert np.all(rec.resistance_ohm == 1e6)


def test_load_rejects_non_increasing_timestamp_with_line_number():
    with pytest.raises(DataError, match="non-increasing timestamp at line 3"):
        kr.load_recording(_csv("0.1,1,1e6,0", "0.1,1,1e6,0"))


def test_load_rejects_negative_resistance():
    with pytest.raises(DataError, match="non-positive resistance at line 2"):
        kr.load_recording(_csv("0,1,-5,0", "1,1,1e6,0"))


def test_load_rejects_zero_resistance():
    with pytest.raises(DataError, match="non-positive resistance"):
        kr.load_recording(_csv("0,1,1e6,0", "1,1,0,0"))


def test_load_rejects_negative_force_and_displacement():
    with pytest.raises(DataError, match="negative force at line 2"):
        kr.load_recording(_csv("0,-1,1e6,0", "1,1,1e6,0"))
    with pytest.raises(DataError, match="negative displacement at line 3"):
        kr.load_recording(_csv("0,1,1e6,0", "1,1,1e6,-2"))


def test_load_rejects_malformed_rows():
    with pytest.raises(DataError, match="malformed row at line 2"):
        kr.load_recording(_csv("0,1,1e6"))
    with pytest.raises(DataError, match="malformed row at line 3"):
        kr.load_recording(_csv("0,1,1e6,0", "a,b,c,d"))
    with pytest.raises(DataError, match="non-finite value at line 2"):
        kr.load_recording(_csv("nan,1,1e6,0", "1,1,1e6,0"))


def test_load_rejects_bad_header_and_short_files():
    with pytest.raises(DataError, match="bad header"):
        kr.load_recording(io.StringIO("time,f,r,d\n0,1,1e6,0\n"))
    with pytest.raises(DataError, match="at least 2 rows"):
        kr.load_recording(_csv("0,1,1e6,0"))
    with pytest.raises(DataError, match="empty file"):
        kr.load_recording(io.StringIO(""))


def test_load_rejects_rows_the_csv_module_cannot_split():
    # a lone carriage return inside a row of a stream that is not read in
    # universal-newline mode, and a field over the csv module's size limit
    stray_cr = io.StringIO(HEADER + "\n0,1,2,3\r1,1,2,3\n")
    with pytest.raises(DataError, match="malformed row at line 2: new-line character"):
        kr.load_recording(stray_cr)
    with pytest.raises(DataError, match="malformed row at line 3: field larger than field limit"):
        kr.load_recording(_csv("0,1,1e6,0", "1," + "1" * 200_000 + ",1e6,0"))
    with pytest.raises(DataError, match="bad header: new-line character"):
        kr.load_recording(io.StringIO("t_s,force_n\rresistance_ohm,displacement_mm\n0,1,2,3\n"))
    # an earlier bad row still wins
    with pytest.raises(DataError, match="non-increasing timestamp at line 3"):
        kr.load_recording(_csv("1,1,1e6,0", "0,1,1e6,0", "2," + "1" * 200_000 + ",1e6,0"))


@pytest.mark.parametrize("rows", [2, 254, 255, 300])
@pytest.mark.parametrize(
    "last",
    ['{t},1,"1e6",0', '{t},1,1e6,"-5"', '{t},1,1e6,"0', "{t},1,1e6,0\r", "{t},1,1e6,-5\r", "{t},1,1e6,0\r1e9,1,1e6,0"],
)
def test_a_quote_or_carriage_return_on_the_last_line_goes_to_the_row_reader(rows, last):
    # the plain-table check reads the lines in blocks; a quote or a carriage
    # return on the last line alone, at the end of a block (254 rows), at the
    # start of one (255) or inside one, still sends the table to the row reader
    text = "\n".join([HEADER, *(f"{t},1,1e6,0" for t in range(rows)), last.format(t=rows)]) + "\n"
    with mock.patch.object(series, "_read_rows", wraps=series._read_rows) as read_rows:
        _assert_loads_as(_reference_load(text), io.StringIO(text))
    read_rows.assert_called_once()


@pytest.mark.parametrize(
    "body, want",
    [
        (["", "", "0,1,1e6,0", "1,1,1e6,-2", "2,1,1e6,0"], "negative displacement at line 5"),
        (["0,1,1e6,0", "", "", "1,1,1e6,0", "", "2,1,1e6,-2", "3,1,1e6,0"], "negative displacement at line 7"),
        (["0,1,1e6,0", "", "0,1,1e6,0", "", ""], "non-increasing timestamp at line 4"),
        (["", "0,-1,1e6,0"], "negative force at line 3"),
    ],
)
def test_a_broken_rule_after_blank_lines_is_named_by_its_line(body, want):
    text = "\n".join([HEADER, *body]) + "\n"
    assert _reference_load(text) == want
    _assert_loads_as(want, io.StringIO(text))


@settings(max_examples=300, deadline=None)
@given(
    header=st.booleans(),
    body=st.text() | st.text(alphabet=st.sampled_from(list("0123456789.,-+eEinfa \"\r\n\x00"))),
)
def test_load_recording_gives_a_recording_or_a_data_error_on_any_text(header, body):
    text = (HEADER + "\n" if header else "") + body
    try:
        rec = kr.load_recording(io.StringIO(text))
    except DataError:
        return
    assert isinstance(rec, kr.RawRecording)


def test_recording_roundtrip_through_csv(tmp_path):
    rec = kr.RawRecording([0.0, 0.031, 0.07], [0.0, 1.5, 2.25], [1e6, 9.7e5, 9.4e5], [0.0, 3.0, 6.0])
    path = tmp_path / "rec.csv"
    kr.write_recording(rec, path)
    back = kr.load_recording(path)
    assert np.allclose(back.t_s, rec.t_s, rtol=1e-11, atol=0)
    assert np.allclose(back.resistance_ohm, rec.resistance_ohm, rtol=1e-11, atol=0)
    assert back.source_label == str(path)


# floats whose text is easy to get wrong: signed zeros, subnormals, the
# largest magnitudes and integral values
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 3.0, -42.0, 2.0**53, 1e16])
column_floats = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.sampled_from([0, 1, 2, 3, 4, 5, 9]))
def test_written_rows_equal_the_per_row_format(data, n):
    cols = [np.array(data.draw(st.lists(column_floats, min_size=n, max_size=n)), dtype=float) for _ in range(4)]
    # blocks of 4 rows: lengths 0, 1, block - 1, block, block + 1 and 2 * block + 1
    with mock.patch.object(series, "_BLOCK_ROWS", 4):
        sink = io.StringIO()
        series._write_rows(sink, cols)
        assert sink.getvalue() == "".join(f"{fmt(a)},{fmt(b)},{fmt(c)},{fmt(d)}\n" for a, b, c, d in zip(*cols))
        if n < 2:
            return
        # the same floats made into a valid recording: distinct timestamps in
        # order, non-negative force and displacement (-0.0 kept), positive resistance
        t = sorted(data.draw(st.lists(column_floats, min_size=n, max_size=n, unique=True)))
        f, r, d = (np.where(c < 0, -c, c) for c in cols[1:])
        rec = kr.RawRecording(t, f, np.where(r > 0, r, 5e-324), d)
        sink = io.StringIO()
        kr.write_recording(rec, sink)
        rows = zip(rec.t_s, rec.force_n, rec.resistance_ohm, rec.displacement_mm)
        assert sink.getvalue() == HEADER + "\n" + "".join(f"{fmt(a)},{fmt(b)},{fmt(c)},{fmt(d)}\n" for a, b, c, d in rows)


# NaN, the infinities, both zeros, a tiny normal, a subnormal and a repeating fraction
SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 0.0, 5e-324, 1 / 3]


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("n", [1, 2, series._BLOCK_ROWS, 2 * series._BLOCK_ROWS + 3])
def test_written_rows_of_special_values_equal_the_per_row_join(n, width):
    # one row, a single block, and two full blocks then a partial one
    cols = [np.array([SPECIAL_FLOATS[(i + 3 * j) % len(SPECIAL_FLOATS)] for i in range(n)]) for j in range(width)]
    sink = io.StringIO()
    series._write_rows(sink, cols)
    assert sink.getvalue() == "".join(",".join(fmt(x) for x in row) + "\n" for row in zip(*cols))


def test_open_text_closes_paths_but_not_caller_streams(tmp_path):
    path = tmp_path / "x.txt"
    with _open_text(path, "w") as stream:
        stream.write("a")
    assert stream.closed and path.read_text() == "a"
    caller = io.StringIO()
    with pytest.raises(RuntimeError):
        with _open_text(caller, "w") as stream:
            assert stream is caller
            raise RuntimeError
    assert not caller.closed
    with pytest.raises(DataError):
        kr.load_recording(tmp_path / "x.txt")
    with open(path) as fh:
        with pytest.raises(DataError):
            kr.load_recording(fh)
        assert not fh.closed


def test_load_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(f"{HEADER}\n0,1,1e6,0\n1,1,\xff,0\n".encode("latin-1"))
    with pytest.raises(DataError, match="latin1.csv is not utf-8 text"):
        kr.load_recording(path)
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(DataError, match="latin1.csv is not utf-8 text"):
            kr.load_recording(fh)


def test_load_keeps_its_errors_for_bytes_header_only_and_undecodable_input(tmp_path):
    with pytest.raises(DataError, match=r"^bad header: iterator should return strings, not bytes"):
        kr.load_recording(io.BytesIO(f"{HEADER}\n0,1,1e6,0\n1,1,1e6,0\n".encode()))
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(HEADER + "\n")
    # np.loadtxt warns on a body with no row; such bodies must not reach it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in (header_only, *(io.StringIO(HEADER + body) for body in ("", "\n", "\n\n", "\n\r\n", "\n\n0,1,1e6,0\n"))):
            with pytest.raises(DataError, match="^recording needs at least 2 rows$"):
                kr.load_recording(source)
    # the whole input is decoded before any row is parsed, so of a malformed
    # row and bytes that do not decode 5,000 rows later, the bytes win
    both = tmp_path / "both.csv"
    rows = "".join(f"{i},1,1e6,0\n" for i in range(1, 5000))
    both.write_bytes(f"{HEADER}\n0,1,1e6\n{rows}1,1,\xff,0\n".encode("latin-1"))
    with pytest.raises(DataError, match="both.csv is not utf-8 text"):
        kr.load_recording(both)


def test_recording_invariants_on_direct_construction():
    with pytest.raises(DataError):
        kr.RawRecording([0.0], [1.0], [1e6], [0.0])
    with pytest.raises(DataError):
        kr.RawRecording([0, 1], [1, 1], [1e6, -1], [0, 0])
    with pytest.raises(DataError):
        kr.RawRecording([0, 0], [1, 1], [1e6, 1e6], [0, 0])


# --- resample -------------------------------------------------------------------


def test_resample_hand_example():
    out = kr.resample([0.0, 1.0], [0.0, 2.0], 2.0)
    assert out.rate_hz == 2.0 and out.t0 == 0.0
    assert np.array_equal(out.values, [0.0, 1.0, 2.0])
    assert np.array_equal(out.timestamps(), [0.0, 0.5, 1.0])


def test_resample_uniform_input_is_identity():
    t = np.arange(50) / 20.0
    x = np.sin(t)
    out = kr.resample(t, x, 20.0)
    assert np.array_equal(out.values, x)


def test_resample_reproduces_linear_signal_from_jittered_timestamps():
    rng = np.random.default_rng(3)
    rates = np.clip(rng.normal(41.5, 14.2, 3000), 2.0, 200.0)
    t = np.concatenate(([0.0], np.cumsum(1.0 / rates)))
    y = 3.0 * t - 1.0
    out = kr.resample(t, y, 20.0)
    assert np.all(np.abs(out.values - (3.0 * out.timestamps() - 1.0)) <= 1e-12)


def test_resample_never_extrapolates():
    out = kr.resample([0.0, 0.97], [1.0, 2.0], 10.0)
    assert out.timestamps()[-1] <= 0.97


@pytest.mark.parametrize(
    "t, x, rate",
    [
        ([0, 1, 2, np.nan, 4], [0, 1, 2, 3, 4], 0.5),
        ([0, 1, 2, 3, np.inf], [0, 1, 2, 3, 4], 0.5),
        ([-np.inf, 1, 2, 3, 4], [0, 1, 2, 3, 4], 0.5),
        ([0, 0.5, 1], [0, np.nan, 1], 1.0),
        ([0, 0.5, 1], [0, 1, -np.inf], 1.0),
    ],
    ids=["nan-timestamp", "inf-last-timestamp", "-inf-first-timestamp", "nan-between-grid-points", "-inf-value"],
)
def test_resample_rejects_a_non_finite_number(t, x, rate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="t and x must be finite numbers"):
            kr.resample(t, x, rate)


def test_resample_errors():
    with pytest.raises(DataError):
        kr.resample([0.0], [1.0], 10.0)
    with pytest.raises(DataError):
        kr.resample([0.0, 1.0], [1.0, 2.0], 0.0)
    with pytest.raises(DataError):
        kr.resample([0.0, 0.0], [1.0, 2.0], 10.0)
    for rate in (float("nan"), float("inf"), "20", True):
        with pytest.raises(DataError, match="rate_hz"):
            kr.resample([0.0, 1.0], [1.0, 2.0], rate)
    for shape in ((3, 2), (3, 1)):
        with pytest.raises(DataError, match="must be 1-D"):
            kr.resample(np.zeros(shape), np.zeros(shape), 10.0)
    with pytest.raises(DataError, match="must be 1-D"):
        kr.resample(np.arange(3.0)[:, None], np.arange(3.0), 10.0)


def test_a_span_beyond_the_float_range_loads_and_resamples_without_a_warning(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("t_s,force_n,resistance_ohm,displacement_mm\n-9e307,1,1,1\n9e307,1,1,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = kr.load_recording(path)
        with pytest.raises(DataError, match="more than 10000000 samples"):
            kr.resample(rec.t_s, rec.resistance_ohm, 20.0)


@pytest.mark.parametrize(
    "values", [["abc"], [1.0, "x"], [[1.0, 2.0], [3.0]], [10**400]], ids=["text", "mixed", "ragged", "int-past-float"]
)
def test_uniform_series_rejects_values_that_float_refuses(values):
    with pytest.raises(DataError, match="uniform series values must be numbers"):
        kr.UniformSeries(1.0, 0.0, values)


@pytest.mark.parametrize(
    "t0", [float("inf"), float("-inf"), float("nan"), "0", None, 10**400], ids=["inf", "-inf", "nan", "text", "None", "int-past-float"]
)
def test_uniform_series_rejects_a_t0_that_is_not_a_finite_number(t0):
    # t0=inf gave timestamps() that were all inf
    with pytest.raises(DataError, match="t0 must be a finite number"):
        kr.UniformSeries(1.0, t0, [1.0, 2.0])


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_uniform_series_rejects_a_rate_that_is_not_positive_and_finite(rate):
    with pytest.raises(DataError, match="rate_hz"):
        kr.UniformSeries(rate, 0.0, [1.0, 2.0])


# --- conductivity ---------------------------------------------------------------


def test_conductivity_examples():
    s = kr.UniformSeries(1.0, 0.0, [2.0])
    assert np.array_equal(kr.conductivity(s).values, [0.5])
    s = kr.UniformSeries(1.0, 0.0, [1e6, 5e5])
    assert np.array_equal(kr.conductivity(s).values, [1e-6, 2e-6])


def test_conductivity_rejects_non_positive():
    with pytest.raises(DataError):
        kr.conductivity(kr.UniformSeries(1.0, 0.0, [0.0]))
    with pytest.raises(DataError):
        kr.conductivity(kr.UniformSeries(1.0, 0.0, [1.0, -2.0]))


def test_conductivity_is_an_involution():
    s = kr.UniformSeries(20.0, 0.5, np.linspace(0.3, 9.0, 40))
    back = kr.conductivity(kr.conductivity(s))
    assert np.allclose(back.values, s.values, rtol=1e-12, atol=0)
    assert back.rate_hz == s.rate_hz and back.t0 == s.t0


# --- scalers --------------------------------------------------------------------


def test_scaler_fit_hand_examples():
    p = kr.scaler_fit([1.0, 2.0, 3.0])
    assert p.mean == 2.0
    assert abs(p.scale - np.sqrt(2.0 / 3.0)) <= 1e-12
    p2 = kr.scaler_fit([-1.0, 1.0])
    assert p2.mean == 0.0 and p2.scale == 1.0


def test_scaler_fit_rejects_constant_input():
    with pytest.raises(DataError, match="zero variance"):
        kr.scaler_fit([5.0, 5.0, 5.0])


def test_scaler_transform_hand_example():
    p = kr.ScalerParams(2.0, 0.816497)
    out = p.transform([1.0, 2.0, 3.0])
    assert np.allclose(out, [-1.224745, 0.0, 1.224745], atol=1e-5)


def test_identity_scaler_passes_through():
    p = kr.ScalerParams(0.0, 1.0)
    xs = np.array([3.5, -2.0, 0.0])
    assert np.array_equal(p.transform(xs), xs)
    assert np.array_equal(p.inverse(xs), xs)


def test_scaler_params_validation():
    with pytest.raises(DataError):
        kr.ScalerParams(0.0, 0.0)
    with pytest.raises(DataError):
        kr.ScalerParams(float("nan"), 1.0)
    # the package's one number rule: a bool or a str is no number
    for mean, scale in ((True, 1.0), (0.0, True), (True, True), ("1", 1.0), (0.0, "1")):
        with pytest.raises(DataError, match="scaler needs finite mean and positive scale"):
            kr.ScalerParams(mean, scale)


# --- properties -----------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(finite, min_size=2, max_size=40),
    rate=st.sampled_from([5.0, 20.0, 40.0]),
    t0=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_resample_idempotent_on_uniform_grids(xs, rate, t0):
    t = t0 + np.arange(len(xs)) / rate
    out = kr.resample(t, xs, rate)
    assert len(out) == len(xs)
    assert np.array_equal(out.values, np.asarray(xs, dtype=float))


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(finite, min_size=2, max_size=30),
    a=st.floats(min_value=-100, max_value=100, allow_nan=False),
    b=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_resample_commutes_with_affine_maps(xs, a, b):
    rng = np.random.default_rng(len(xs))
    t = np.cumsum(rng.uniform(0.01, 0.2, size=len(xs)))
    lhs = kr.resample(t, a * np.asarray(xs) + b, 7.0).values
    rhs = a * kr.resample(t, xs, 7.0).values + b
    scale = max(1.0, np.abs(lhs).max())
    assert np.all(np.abs(lhs - rhs) <= 1e-9 * scale)


@settings(max_examples=80, deadline=None)
@given(xs=st.lists(finite, min_size=2, max_size=50))
def test_scaler_roundtrip_and_normalized_stats(xs):
    arr = np.asarray(xs, dtype=float)
    if np.std(arr) == 0.0 or arr.min() == arr.max():
        with pytest.raises(DataError):
            kr.scaler_fit(arr)
        return
    # below ~1e-150 the squared deviations go subnormal and np.std itself
    # loses digits; the unit-variance claim only makes sense above that
    assume(np.std(arr) > 1e-100)
    p = kr.scaler_fit(arr)
    z = p.transform(arr)
    spread = max(1.0, np.abs(arr).max())
    assert np.all(np.abs(p.inverse(z) - arr) <= 1e-9 * spread)
    assert abs(np.mean(z)) < 1e-9
    assert abs(np.var(z) - 1.0) < 1e-9



# --- load_recording against a row-by-row reference ------------------------------


def _reference_load(text):
    """Row-by-row parse with the recording rules checked per row as each row is read.

    Returns the rows as float lists, or the DataError message the first bad
    line earns.
    """
    reader = csv.reader(io.StringIO(text))
    next(reader)
    rows, prev_t = [], None
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                return f"malformed row at line {lineno}: expected 4 fields"
            try:
                vals = [float(c) for c in row]
            except ValueError:
                return f"malformed row at line {lineno}: non-numeric field"
            if not all(math.isfinite(v) for v in vals):
                return f"non-finite value at line {lineno}"
            t, f, r, d = vals
            if prev_t is not None and t <= prev_t:
                return f"non-increasing timestamp at line {lineno}"
            if r <= 0:
                return f"non-positive resistance at line {lineno}"
            if f < 0:
                return f"negative force at line {lineno}"
            if d < 0:
                return f"negative displacement at line {lineno}"
            prev_t = t
            rows.append(vals)
    except csv.Error as exc:  # a field over the csv module's size limit
        return f"malformed row at line {reader.line_num}: {exc}"
    if len(rows) < 2:
        return "recording needs at least 2 rows"
    return rows


def _underscored(v):
    """repr(v) with an underscore between its first two adjacent digits: float() reads it, np.loadtxt does not."""
    return re.sub(r"(\d)(\d)", r"\1_\2", repr(v), count=1)


# the text forms a recording's floats are drawn in
FORMS = (repr, "%.12g".__mod__, "%.17g".__mod__, "%.3e".__mod__, lambda v: "+" + repr(v), lambda v: f" {v!r} ", _underscored)

# a csv field size limit that many drawn fields exceed and many do not
SMALL_FIELD_LIMIT = 16

FAULTS = ("swap_t", "repeat_t", "zero_r", "neg_r", "neg_f", "neg_d", "nan", "inf", "text", "short", "long", "blank")


def _apply_fault(lines, kind, i, col):
    """Corrupt row i (a list of cells) of lines in place; blank lines are empty lists.

    Column numbers wrap, since an earlier fault may have dropped a cell.
    """
    rows = [k for k, line in enumerate(lines) if line]
    k = rows[i % len(rows)]
    cells = lines[k]
    col = {"zero_r": 2, "neg_r": 2, "neg_f": 1, "neg_d": 3}.get(kind, col) % len(cells)
    if kind == "swap_t":
        nxt = lines[rows[(i + 1) % len(rows)]]
        cells[0], nxt[0] = nxt[0], cells[0]
    elif kind == "repeat_t":
        lines[rows[(i + 1) % len(rows)]][0] = cells[0]
    elif kind == "zero_r":
        cells[col] = "0"
    elif kind in ("neg_r", "neg_f", "neg_d"):
        cells[col] = "-" + ("0.5" if cells[col] in ("0", "0.0") else cells[col].lstrip("-"))
    elif kind in ("nan", "inf"):
        cells[col] = kind if col % 2 else "-" + kind
    elif kind == "text":
        cells[col] = ("abc", "", "1..2", "0x10")[col]
    elif kind == "short":
        del cells[col]
    elif kind == "long":
        cells.insert(col, "1")
    else:
        lines.insert(k, [])


@st.composite
def faulty_recordings(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    steps = draw(st.lists(st.floats(0.001, 10.0), min_size=n, max_size=n))
    t = np.cumsum(steps) - steps[0]
    f = draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n))
    r = draw(st.lists(st.floats(1.0, 1e7), min_size=n, max_size=n))
    d = draw(st.lists(st.floats(0.0, 30.0), min_size=n, max_size=n))
    form = draw(st.sampled_from(FORMS))
    lines = [[form(float(v)) for v in row] for row in zip(t, f, r, d)]
    faults = draw(
        st.lists(
            st.tuples(st.sampled_from(FAULTS), st.integers(0, 5), st.integers(0, 3)),
            max_size=3,
        )
    )
    for kind, i, col in faults:
        _apply_fault(lines, kind, i, col)
    return lines


def _table(lines, newline="\n"):
    return newline.join([HEADER, *(",".join(cells) for cells in lines)]) + newline


def _assert_loads_as(want, source):
    """load_recording(source) gives want's rows bit for bit, or raises DataError with want's text, warning nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(want, str):
            with pytest.raises(DataError) as err:
                kr.load_recording(source)
            assert str(err.value) == want
        else:
            rec = kr.load_recording(source)
            got = np.column_stack([rec.t_s, rec.force_n, rec.resistance_ohm, rec.displacement_mm])
            assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(lines=faulty_recordings(), quoted_cell=st.integers(0, 10**6))
def test_load_recording_matches_the_row_by_row_reference(lines, quoted_cell, tmp_path_factory):
    # each table is loaded as drawn (the plain-table path where it parses),
    # and as a CRLF file and with one field quoted (the row reader only)
    text = _table(lines)
    crlf_path = tmp_path_factory.getbasetemp() / "crlf.csv"
    crlf_path.write_bytes(_table(lines, "\r\n").encode())
    quoted = [list(cells) for cells in lines]
    k, j = [(k, j) for k, cells in enumerate(quoted) for j in range(len(cells))][quoted_cell % sum(map(len, quoted))]
    quoted[k][j] = f'"{quoted[k][j]}"'
    quoted_text = _table(quoted)
    want = _reference_load(text)
    _assert_loads_as(want, io.StringIO(text))
    _assert_loads_as(want, crlf_path)
    _assert_loads_as(_reference_load(quoted_text), io.StringIO(quoted_text))
    # a field over the csv module's size limit is an error on every path
    limit = csv.field_size_limit(SMALL_FIELD_LIMIT)
    try:
        _assert_loads_as(_reference_load(text), io.StringIO(text))
    finally:
        csv.field_size_limit(limit)
    # the same rules guard direct construction, wherever every row parses
    rows = [row for row in csv.reader(io.StringIO(text))][1:]
    rows = [row for row in rows if row]
    try:
        cols = np.array([[float(c) for c in row] for row in rows]).T
    except ValueError:
        return
    if cols.shape[0] != 4:
        return
    if isinstance(want, str):
        with pytest.raises(DataError):
            kr.RawRecording(*cols)
    else:
        kr.RawRecording(*cols)


@pytest.mark.parametrize("broken", [False, True], ids=["clean", "negative-force-on-the-last-row"])
def test_a_simulated_recording_loads_alike_plain_as_crlf_and_quoted(broken, tmp_path):
    # thousands of rows through both paths: the plain table through np.loadtxt
    # (or, broken, on to the row reader), the CRLF file and the table with one
    # quoted field through the row reader alone
    sink = io.StringIO()
    kr.write_recording(kr.simulate_sensor(kr.gen_trajectory(5, 120.0), kr.PES_PRESET, 6), sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) > 3000
    if broken:
        t, _, r, d = lines[-1].split(",")
        lines[-1] = f"{t},-1,{r},{d}"
    text = "\n".join(lines) + "\n"
    want = _reference_load(text)
    if broken:
        assert want == f"negative force at line {len(lines)}"
    else:
        assert len(want) == len(lines) - 1
    crlf_path = tmp_path / "crlf.csv"
    crlf_path.write_bytes(text.replace("\n", "\r\n").encode())
    quoted = list(lines)
    mid = len(quoted) // 2
    t, rest = quoted[mid].split(",", 1)
    quoted[mid] = f'"{t}",{rest}'
    for source in (io.StringIO(text), crlf_path, io.StringIO("\n".join(quoted) + "\n")):
        _assert_loads_as(want, source)
