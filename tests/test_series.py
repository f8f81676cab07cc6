"""Recording ingest, resampling, conductivity, and scaler behavior."""

import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import knitrect as kr
from knitrect.errors import DataError
from knitrect.series import _open_text

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


def test_recording_roundtrip_through_csv(tmp_path):
    rec = kr.RawRecording([0.0, 0.031, 0.07], [0.0, 1.5, 2.25], [1e6, 9.7e5, 9.4e5], [0.0, 3.0, 6.0])
    path = tmp_path / "rec.csv"
    kr.write_recording(rec, path)
    back = kr.load_recording(path)
    assert np.allclose(back.t_s, rec.t_s, rtol=1e-11, atol=0)
    assert np.allclose(back.resistance_ohm, rec.resistance_ohm, rtol=1e-11, atol=0)
    assert back.source_label == str(path)


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


def test_resample_errors():
    with pytest.raises(DataError):
        kr.resample([0.0], [1.0], 10.0)
    with pytest.raises(DataError):
        kr.resample([0.0, 1.0], [1.0, 2.0], 0.0)
    with pytest.raises(DataError):
        kr.resample([0.0, 0.0], [1.0, 2.0], 10.0)


def test_resample_recording_shares_grid(pes_small):
    channels = kr.resample_recording(pes_small[0], 20.0)
    lens = {len(s) for s in channels.values()}
    assert len(lens) == 1
    assert channels["force_n"].rate_hz == 20.0


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
    out = kr.scaler_transform(p, [1.0, 2.0, 3.0])
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
    assert np.all(np.abs(kr.scaler_inverse(p, z) - arr) <= 1e-9 * spread)
    assert abs(np.mean(z)) < 1e-9
    assert abs(np.var(z) - 1.0) < 1e-9


def test_series_csv_writer_emits_nine_significant_digits(tmp_path):
    s = kr.UniformSeries(20.0, 0.0, [0.123456789123, 1.0])
    path = tmp_path / "s.csv"
    kr.write_series_csv(s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,value"
    assert lines[1].split(",")[1] == "0.123456789123"
