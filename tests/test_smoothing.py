"""Alpha sets, init windows, batch smoothing, and the streaming bank."""

import re

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
    for a, n in [("3", 2), (float("nan"), 2), (True, 2), (2.5, 7.5), (2.5, "7"), (2.5, False)]:
        with pytest.raises(DataError, match="must be"):
            kr.alpha_set(a, n)
    assert kr.alpha_set(2.5, 7.0) == kr.alpha_set(2.5, 7)  # an integral count, as in a config
    for a, n in [(1e308, 3), (2.5, 10**4)]:
        with pytest.raises(DataError, match="overflows"):
            kr.alpha_set(a, n)


def test_baseline_alpha_set():
    aset = kr.baseline_alpha_set()
    assert aset.alphas == (0.5, 0.1, 0.025, 0.0025)
    assert len(aset) == 4
    assert aset.base is None
    assert all(b < a for a, b in zip(aset.alphas, aset.alphas[1:]))


def test_alpha_set_labels():
    assert kr.alpha_set(2.5, 7).label == "a2.5_n7"
    assert kr.baseline_alpha_set().label == "baseline"


@pytest.mark.parametrize("base", [0, 0.0, float("nan"), "x", -2, 1])
def test_alpha_set_rejects_a_base_that_is_not_a_finite_number_above_one(base):
    # 0 raised ZeroDivisionError, "x" TypeError, and a NaN base was taken
    with pytest.raises(DataError, match=f"base a must be a finite number > 1, got {re.escape(repr(base))}"):
        kr.AlphaSet((0.5,), base=base)


def test_alpha_set_and_its_constructor_share_the_base_rule():
    for a, n in [(1e308, 3), (2.5, 10**4)]:
        with pytest.raises(DataError, match=re.escape(f"base {a!r} to the power {n} overflows")):
            kr.AlphaSet(tuple(1.0 / (i + 2) for i in range(n)), base=a)
    assert kr.AlphaSet(kr.alpha_set(3, 4).alphas, base=3) == kr.alpha_set(3, 4)


@pytest.mark.parametrize("base", [np.float64(1e200), np.float64(1e300)])
def test_alpha_set_overflows_a_numpy_float_base_with_its_own_message(base):
    # np.float64(1e200) ** 2 gave inf with a RuntimeWarning, and then the
    # alpha 0.0 was refused instead of the base
    with pytest.raises(DataError, match=re.escape(f"base {float(base)!r} to the power 2 overflows")):
        kr.alpha_set(base, 2)
    assert kr.alpha_set(np.float64(2.5), 3) == kr.alpha_set(2.5, 3)


@pytest.mark.parametrize("alphas", [0.5, None, np.float64(0.5), np.array(0.5)])
def test_alpha_set_rejects_alphas_that_are_not_a_sequence(alphas):
    # AlphaSet(0.5) raised TypeError
    with pytest.raises(DataError, match="alphas must be a sequence"):
        kr.AlphaSet(alphas)


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


def test_init_window_rejects_a_nan_rate():
    with pytest.raises(DataError, match="rate_hz"):
        kr.init_window(0.5, float("nan"), 10)


def test_init_window_rejects_an_infinite_rate():
    with pytest.raises(DataError, match="rate_hz"):
        kr.init_window(0.5, float("inf"), 10)


def test_init_window_clamps_a_window_beyond_the_float_range():
    assert kr.init_window(0.5, 1e-310, 10) == 10


def test_init_window_rejects_a_fractional_available_count():
    with pytest.raises(DataError, match="available"):
        kr.init_window(0.01, 20.0, 2.5)


# --- batch smoothing ------------------------------------------------------------


def _one_filter(xs, alpha, m):
    """One filter over xs, seeded with the mean of its first m samples: a one-column bank."""
    return kr.feature_bank_with_windows(kr.UniformSeries(20.0, 0.0, xs), (alpha,), (m,)).values[:, 0]


def test_one_filter_alpha_one_is_identity_after_first_sample():
    xs = np.array([3.0, -1.0, 4.0, 1.5])
    out = _one_filter(xs, 1.0, 2)
    assert abs(out[0] - np.mean(xs[:2])) <= 1e-12
    assert np.array_equal(out[1:], xs[1:])


def test_one_filter_constant_input_is_fixed_point():
    xs = np.full(30, 2.75)
    for alpha, m in ((1.0, 1), (0.4, 3), (0.0025, 20)):
        assert np.array_equal(_one_filter(xs, alpha, m), xs)


def test_one_filter_hand_recurrence():
    assert np.array_equal(_one_filter([0.0, 2.0, 2.0], 0.5, 1), [0.0, 1.0, 1.5])


def test_one_filter_errors():
    with pytest.raises(DataError):
        _one_filter([], 0.5, 1)
    with pytest.raises(DataError):
        _one_filter([1.0, 2.0], 0.5, 3)
    with pytest.raises(DataError):
        _one_filter([1.0, 2.0], 0.0, 1)
    # a bank over a 2-D or 0-d series once raised TypeError or IndexError
    with pytest.raises(DataError, match="1-D"):
        _one_filter([[1.0, 2.0], [3.0, 4.0]], 0.5, 1)
    with pytest.raises(DataError, match="1-D"):
        _one_filter(1.0, 0.5, 1)


# --- feature bank ---------------------------------------------------------------


def _bank(series, aset):
    """The feature bank with init windows from the series' own length, as fit_pipeline builds it."""
    windows = kr.bank_windows(aset, series.rate_hz, len(series))
    return kr.feature_bank_with_windows(series, aset.alphas, windows)


def test_feature_bank_single_identity_column():
    series = kr.UniformSeries(20.0, 0.0, np.arange(10.0))
    mat = kr.feature_bank_with_windows(series, (1.0,), (1,))
    assert mat.values.shape == (10, 1)
    assert np.array_equal(mat.values[1:, 0], series.values[1:])


def test_feature_bank_constant_series():
    series = kr.UniformSeries(20.0, 0.0, np.full(50, 0.7))
    mat = _bank(series, kr.baseline_alpha_set())
    assert np.all(mat.values == 0.7)


def test_feature_bank_step_response_separates_fast_and_slow_filters():
    xs = np.zeros(200)
    xs[100:] = 1.0
    series = kr.UniformSeries(20.0, 0.0, xs)
    mat = _bank(series, kr.baseline_alpha_set())
    # within 7 samples of the step: alpha=0.5 has nearly converged,
    # alpha=0.0025 has barely moved (closed form 1-(1-alpha)^k)
    assert mat.values[106, 0] > 0.99
    assert mat.values[106, 3] < 0.05
    assert np.all(mat.values[:100] == 0.0)


def test_feature_bank_column_order_matches_alpha_order():
    rng = np.random.default_rng(5)
    series = kr.UniformSeries(20.0, 0.0, rng.normal(size=120))
    aset = kr.alpha_set(2.5, 4)
    mat = _bank(series, aset)
    assert mat.alphas == aset.alphas
    for i, alpha in enumerate(aset.alphas):
        m = kr.init_window(alpha, 20.0, 120)
        assert np.array_equal(mat.values[:, i], _one_filter(series.values, alpha, m))


def test_one_filter_rejects_a_fractional_init_window():
    with pytest.raises(DataError, match="init window"):
        _one_filter(np.arange(5.0), 0.5, 2.5)


@pytest.mark.parametrize("window", [2.7, True])
@pytest.mark.parametrize("build", ["feature_bank_with_windows", "make_bank", "BankState"])
def test_banks_reject_a_window_that_is_not_an_integer(build, window):
    series = kr.UniformSeries(20.0, 0.0, np.arange(5.0))
    args = (series, (0.5,), (window,)) if build == "feature_bank_with_windows" else ((0.5,), (window,))
    with pytest.raises(DataError, match="init window"):
        getattr(kr, build)(*args)


def test_feature_bank_rejects_an_empty_filter_set():
    with pytest.raises(DataError, match="nonempty"):
        kr.feature_bank_with_windows(kr.UniformSeries(20.0, 0.0, np.arange(5.0)), (), ())


def test_feature_bank_rejects_an_alpha_above_one():
    with pytest.raises(DataError, match="lie in"):
        kr.feature_bank_with_windows(kr.UniformSeries(20.0, 0.0, [0.0, 2.0, 2.0]), (2.0,), (1,))


def test_make_bank_rejects_an_alpha_above_one_when_created():
    with pytest.raises(DataError, match="lie in"):
        kr.make_bank((2.0,), (3,))


# --- streaming bank -------------------------------------------------------------


@pytest.mark.parametrize(
    "alphas, windows, match",
    [
        ((0.5,), (0,), "init window"),
        ((2.0,), (1,), "lie in"),
        ((2.0, 0.5), (1,), "alphas and init windows must pair up"),
        (("x",), (1,), "lie in"),
        ((None,), (1,), "lie in"),
    ],
)
def test_bank_state_checks_its_settings_when_made(alphas, windows, match):
    # the constructor once took any settings: a nan row after numpy
    # warnings, an unstable filter, a TypeError at the first push; an
    # alpha that float() refuses raised its ValueError or TypeError
    with pytest.raises(DataError, match=match):
        kr.BankState(alphas, windows)


def test_bank_state_holds_its_settings_as_make_bank_does():
    bank = kr.BankState([0.5, 0.1], [1, 2.0])
    assert (bank.alphas, bank.windows, bank.buffer) == ((0.5, 0.1), (1, 2), [])
    assert bank == kr.make_bank((0.5, 0.1), (1, 2))


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


def test_one_filter_bank_push_matches_batch_rows():
    # a one-filter pass steps without a list per sample; the stream still
    # gets one-element rows from the step it keeps
    xs = np.random.default_rng(12).normal(size=40)
    bank = kr.make_bank((0.1,), (5,))
    outs = [kr.bank_push(bank, x) for x in xs]
    assert all(o is None for o in outs[:4])
    batch = kr.feature_bank_with_windows(kr.UniformSeries(20.0, 0.0, xs), (0.1,), (5,)).values
    assert all(o.shape == (1,) for o in outs[4:])
    assert np.array(outs[4:]).tobytes() == batch[4:].tobytes()


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


@pytest.mark.parametrize(
    "x",
    # 10**5000 has more digits than repr prints (sys.get_int_max_str_digits)
    [None, 1j, [1.0], "x", 10**400, pytest.param(10**5000, id="int-past-the-repr-limit")],
    ids=lambda x: type(x).__name__,
)
def test_bank_push_rejects_a_sample_that_is_not_a_number(x):
    bank, fresh = kr.make_bank((0.5, 0.1), (1, 3)), kr.make_bank((0.5, 0.1), (1, 3))
    for _ in range(2):
        with pytest.raises(DataError, match="bank sample must be a number"):
            kr.bank_push(bank, x)
    for v in (0.3, -2.0, 5.5, 1.25):  # as if the bad sample never came
        a, b = kr.bank_push(bank, v), kr.bank_push(fresh, v)
        assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())


@pytest.mark.parametrize("alphas, windows", [(0.5, (1,)), ((0.5,), 1), (None, None), (np.float64(0.5), np.int64(1))])
def test_make_bank_rejects_alphas_or_windows_that_are_not_sequences(alphas, windows):
    # make_bank(0.5, (1,)) raised TypeError: 'float' object is not iterable
    with pytest.raises(DataError, match="alphas and init windows must be sequences, got"):
        kr.make_bank(alphas, windows)


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
def test_one_filter_output_is_bounded_by_input_range(xs, alpha, data):
    m = data.draw(st.integers(min_value=1, max_value=len(xs)))
    out = _one_filter(xs, alpha, m)
    assert out.min() >= min(xs) - 1e-12
    assert out.max() <= max(xs) + 1e-12


def _smooth_reference(xs, alpha, m):
    """One filter as a loop over numpy float64 scalars, as the bank ran it before it moved to Python floats."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty_like(xs)
    y = float(xs[0] + np.mean(xs[:m] - xs[0]))
    out[0] = y
    beta = 1.0 - alpha
    for i in range(1, xs.size):
        x = xs[i]
        y = x + beta * (y - x)
        out[i] = y
    return out


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=80),
    alpha=st.one_of(st.just(1.0), alpha_st),
    data=st.data(),
)
def test_one_filter_matches_the_numpy_scalar_reference_loop(xs, alpha, data):
    m = data.draw(st.integers(min_value=1, max_value=len(xs)))
    got = _one_filter(np.asarray(xs), alpha, m)
    want = _smooth_reference(xs, alpha, m)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=80),
    data=st.data(),
)
def test_feature_bank_columns_match_the_numpy_scalar_reference_loop(xs, data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    alphas = data.draw(st.lists(st.one_of(st.just(1.0), alpha_st), min_size=n, max_size=n))
    windows = data.draw(st.lists(st.integers(min_value=1, max_value=len(xs)), min_size=n, max_size=n))
    windows[data.draw(st.integers(min_value=0, max_value=n - 1))] = len(xs)  # one window spans the signal
    bank = kr.feature_bank_with_windows(kr.UniformSeries(20.0, 0.0, xs), alphas, windows).values
    assert bank.shape == (len(xs), n)
    for j, (alpha, m) in enumerate(zip(alphas, windows)):
        assert bank[:, j].tobytes() == _smooth_reference(xs, alpha, m).tobytes()


def test_one_filter_matches_the_reference_loop_on_long_and_strided_input():
    xs = np.random.default_rng(5).normal(size=(5000, 2))
    for col in (xs[:, 0], xs[:, 1], xs[::3, 0]):
        for alpha, m in ((1.0, 1), (0.4, 3), (0.0016, 400)):
            assert np.array_equal(_one_filter(col, alpha, m), _smooth_reference(col, alpha, m))


@settings(max_examples=40, deadline=None)
@given(alpha=alpha_st, value=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_one_filter_constant_fixed_point_exact(alpha, value):
    xs = np.full(25, value)
    assert np.array_equal(_one_filter(xs, alpha, 5), xs)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(min_value=0.01, max_value=0.99), j=st.integers(min_value=1, max_value=5))
def test_one_filter_impulse_response_closed_form(alpha, j):
    xs = np.zeros(j + 60)
    xs[j] = 1.0
    out = _one_filter(xs, alpha, 1)
    for k in range(51):
        want = alpha * (1.0 - alpha) ** k
        assert abs(out[j + k] - want) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    a1=st.floats(min_value=0.3, max_value=1.0),
    a2=st.floats(min_value=0.01, max_value=0.25),
)
def test_one_filter_monotone_lag_on_step(a1, a2):
    xs = np.zeros(120)
    xs[40:] = 1.0
    y1 = _one_filter(xs, a1, 1)
    y2 = _one_filter(xs, a2, 1)
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
