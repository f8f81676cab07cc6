"""Alpha sets, init windows, batch smoothing, and the streaming bank."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knitrect as kr
from knitrect.errors import DataError

# --- alpha sets -----------------------------------------------------------------


def test_alpha_set_geometric_examples():
    assert np.allclose(kr.alpha_set(2.5, 4).alphas, (0.4, 0.16, 0.064, 0.0256), rtol=0, atol=1e-12)
    assert np.allclose(kr.alpha_set(10, 3).alphas, (0.1, 0.01, 0.001), rtol=0, atol=1e-12)
    assert np.allclose(kr.alpha_set(5, 4).alphas, (0.2, 0.04, 0.008, 0.0016), rtol=0, atol=1e-12)


def test_alpha_set_rejects_bad_parameters():
    with pytest.raises(DataError):
        kr.alpha_set(1.0, 4)
    with pytest.raises(DataError):
        kr.alpha_set(2.5, 0)


def test_baseline_alpha_set():
    aset = kr.baseline_alpha_set()
    assert aset.alphas == (0.5, 0.1, 0.025, 0.0025)
    assert len(aset) == 4
    assert aset.base is None
    assert all(b < a for a, b in zip(aset.alphas, aset.alphas[1:]))


def test_alpha_set_labels():
    assert kr.alpha_set(2.5, 7).label == "a2.5_n7"
    assert kr.baseline_alpha_set().label == "baseline"


def test_alpha_set_validates_consistency():
    with pytest.raises(DataError, match="inconsistent with base"):
        kr.AlphaSet((0.4, 0.2), base=2.5)
    with pytest.raises(DataError, match="strictly decreasing"):
        kr.AlphaSet((0.1, 0.4))
    with pytest.raises(DataError, match="lie in"):
        kr.AlphaSet((1.5,))


# --- init window ----------------------------------------------------------------


def test_init_window_examples():
    assert kr.init_window(0.5, 20.0, 1000) == 1
    assert kr.init_window(0.0025, 20.0, 1000) == 20
    assert kr.init_window(0.0016384, 20.0, 10) == 10  # ceil(30.52)=31, clamped


def test_init_window_grows_as_alpha_shrinks():
    windows = [kr.init_window(a, 20.0, 10_000) for a in (0.4, 0.16, 0.064, 0.0256, 0.01024)]
    assert windows == sorted(windows)
    assert kr.init_window(1.0, 20.0, 5) == 1


def test_init_window_errors():
    with pytest.raises(DataError):
        kr.init_window(0.0, 20.0, 10)
    with pytest.raises(DataError):
        kr.init_window(0.5, 0.0, 10)
    with pytest.raises(DataError):
        kr.init_window(0.5, 20.0, 0)


# --- batch smoothing ------------------------------------------------------------


def test_smooth_alpha_one_is_identity_after_first_sample():
    xs = np.array([3.0, -1.0, 4.0, 1.5])
    out = kr.smooth(xs, 1.0, 2)
    assert abs(out[0] - np.mean(xs[:2])) <= 1e-12
    assert np.array_equal(out[1:], xs[1:])


def test_smooth_constant_input_is_fixed_point():
    xs = np.full(30, 2.75)
    for alpha, m in ((1.0, 1), (0.4, 3), (0.0025, 20)):
        assert np.array_equal(kr.smooth(xs, alpha, m), xs)


def test_smooth_hand_recurrence():
    assert np.array_equal(kr.smooth([0.0, 2.0, 2.0], 0.5, 1), [0.0, 1.0, 1.5])


def test_smooth_errors():
    with pytest.raises(DataError):
        kr.smooth([], 0.5, 1)
    with pytest.raises(DataError):
        kr.smooth([1.0, 2.0], 0.5, 3)
    with pytest.raises(DataError):
        kr.smooth([1.0, 2.0], 0.0, 1)


# --- feature bank ---------------------------------------------------------------


def test_feature_bank_single_identity_column():
    series = kr.UniformSeries(20.0, 0.0, np.arange(10.0))
    mat = kr.feature_bank_with_windows(series, (1.0,), (1,))
    assert mat.values.shape == (10, 1)
    assert np.array_equal(mat.values[1:, 0], series.values[1:])


def test_feature_bank_constant_series():
    series = kr.UniformSeries(20.0, 0.0, np.full(50, 0.7))
    mat = kr.feature_bank(series, kr.baseline_alpha_set())
    assert np.all(mat.values == 0.7)


def test_feature_bank_step_response_separates_fast_and_slow_filters():
    xs = np.zeros(200)
    xs[100:] = 1.0
    series = kr.UniformSeries(20.0, 0.0, xs)
    mat = kr.feature_bank(series, kr.baseline_alpha_set())
    # within 7 samples of the step: alpha=0.5 has nearly converged,
    # alpha=0.0025 has barely moved (closed form 1-(1-alpha)^k)
    assert mat.values[106, 0] > 0.99
    assert mat.values[106, 3] < 0.05
    assert np.all(mat.values[:100] == 0.0)


def test_feature_bank_column_order_matches_alpha_order():
    rng = np.random.default_rng(5)
    series = kr.UniformSeries(20.0, 0.0, rng.normal(size=120))
    aset = kr.alpha_set(2.5, 4)
    mat = kr.feature_bank(series, aset)
    assert mat.alphas == aset.alphas
    for i, alpha in enumerate(aset.alphas):
        m = kr.init_window(alpha, 20.0, 120)
        assert np.array_equal(mat.values[:, i], kr.smooth(series.values, alpha, m))


def test_features_csv_header(tmp_path):
    series = kr.UniformSeries(20.0, 0.0, np.arange(5.0))
    mat = kr.feature_bank(series, kr.alpha_set(2.5, 3))
    path = tmp_path / "f.csv"
    kr.write_features_csv(mat, path)
    assert path.read_text().splitlines()[0] == "t_s,g1,g2,g3"


# --- streaming bank -------------------------------------------------------------


def test_bank_push_buffers_then_matches_batch_row():
    rng = np.random.default_rng(11)
    xs = rng.normal(size=60)
    alphas = (0.5, 0.0025)
    windows = (1, 20)
    bank = kr.make_bank(alphas, windows)
    outs = [kr.bank_push(bank, x) for x in xs]
    assert all(o is None for o in outs[:19])
    assert outs[19] is not None
    series = kr.UniformSeries(20.0, 0.0, xs)
    batch = kr.feature_bank_with_windows(series, alphas, windows).values
    assert np.array_equal(np.array(outs[19:]), batch[19:])


def test_bank_push_rows_do_not_alias_the_bank_state():
    bank = kr.make_bank((0.5, 0.1), (1, 1))
    row = kr.bank_push(bank, 1.0)
    row[:] = 99.0
    assert np.array_equal(kr.bank_push(bank, 1.0), [1.0, 1.0])


def test_bank_push_alpha_one_passes_samples_through():
    bank = kr.make_bank((1.0,), (1,))
    for x in (0.3, -2.0, 5.5):
        out = kr.bank_push(bank, x)
        assert out is not None and out[0] == x


def test_make_bank_validation():
    with pytest.raises(DataError):
        kr.make_bank((0.5, 0.1), (1,))
    with pytest.raises(DataError):
        kr.make_bank((), ())
    with pytest.raises(DataError):
        kr.make_bank((0.5,), (0,))
    bank = kr.make_bank((0.5,), (1,))
    with pytest.raises(DataError):
        kr.bank_push(bank, float("nan"))


# --- properties -----------------------------------------------------------------

alpha_st = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=50),
    alpha=alpha_st,
    data=st.data(),
)
def test_smooth_output_is_bounded_by_input_range(xs, alpha, data):
    m = data.draw(st.integers(min_value=1, max_value=len(xs)))
    out = kr.smooth(xs, alpha, m)
    assert out.min() >= min(xs) - 1e-12
    assert out.max() <= max(xs) + 1e-12


@settings(max_examples=40, deadline=None)
@given(alpha=alpha_st, value=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_smooth_constant_fixed_point_exact(alpha, value):
    xs = np.full(25, value)
    assert np.array_equal(kr.smooth(xs, alpha, 5), xs)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(min_value=0.01, max_value=0.99), j=st.integers(min_value=1, max_value=5))
def test_smooth_impulse_response_closed_form(alpha, j):
    xs = np.zeros(j + 60)
    xs[j] = 1.0
    out = kr.smooth(xs, alpha, 1)
    for k in range(51):
        want = alpha * (1.0 - alpha) ** k
        assert abs(out[j + k] - want) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    a1=st.floats(min_value=0.3, max_value=1.0),
    a2=st.floats(min_value=0.01, max_value=0.25),
)
def test_smooth_monotone_lag_on_step(a1, a2):
    xs = np.zeros(120)
    xs[40:] = 1.0
    y1 = kr.smooth(xs, a1, 1)
    y2 = kr.smooth(xs, a2, 1)
    assert np.all(y1[40:] >= y2[40:] - 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=25, max_value=120),
    aset=st.sampled_from(kr.enumerate_feature_sets()),
)
def test_stream_and_batch_banks_agree(seed, n, aset):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=n)
    windows = kr.bank_windows(aset, 20.0, n)
    series = kr.UniformSeries(20.0, 0.0, xs)
    batch = kr.feature_bank_with_windows(series, aset.alphas, windows).values
    bank = kr.make_bank(aset.alphas, windows)
    outs = [kr.bank_push(bank, x) for x in xs]
    m_max = max(windows)
    assert all(o is None for o in outs[: m_max - 1])
    assert np.array_equal(np.array(outs[m_max - 1 :]), batch[m_max - 1 :])
