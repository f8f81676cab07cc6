"""r^2 variants, gain, combined error, and binned relative squared error."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knitrect as kr
from knitrect.errors import DataError, NumericError

# --- r_squared ------------------------------------------------------------------


def test_r_squared_perfect_estimate():
    x = [1.0, 2.0, 3.0]
    assert kr.r_squared(x, x) == 1.0


def test_r_squared_hand_example_estimate_centered():
    # num = 1, den = sum((x - 5/3)^2) = 7/3  ->  1 - 3/7
    got = kr.r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 2.0])
    assert abs(got - (1.0 - 3.0 / 7.0)) <= 1e-12


def test_r_squared_variants_agree_on_standardized_signals():
    rng = np.random.default_rng(8)
    x = rng.normal(size=500)
    y = x + rng.normal(scale=0.3, size=500)
    xs = kr.scaler_fit(x).transform(x)
    ys = kr.scaler_fit(y).transform(y)
    a = kr.r_squared(xs, ys)
    # the conventional, truth-centered form
    b = 1.0 - np.sum((xs - ys) ** 2) / np.sum((xs - np.mean(xs)) ** 2)
    # both means are ~0, so the two denominators nearly coincide
    assert abs(a - b) < 1e-6


def test_r_squared_zero_denominator_is_an_error():
    with pytest.raises(DataError, match="denominator"):
        kr.r_squared([2.0, 2.0], [1.0, 3.0])  # truth constant at mean(estimate)


def test_r_squared_validation():
    with pytest.raises(DataError):
        kr.r_squared([], [])
    with pytest.raises(DataError):
        kr.r_squared([1.0], [1.0, 2.0])


def test_r_squared_constant_estimate_scores_zero():
    # with estimate-centering, a constant estimate makes num == den exactly
    x = np.array([0.5, 1.5, 4.0, -2.0])
    assert kr.r_squared(x, np.full(4, 7.7)) == 0.0


# a NaN or an infinity in the truth or in the estimate, and finite inputs
# whose squared errors overflow the float range
NON_FINITE = [
    pytest.param([1.0, 2.0, np.nan], [1.0, 2.0, 2.0], id="nan-truth"),
    pytest.param([1.0, 2.0, 3.0], [np.nan, 1.0, 2.0], id="nan-estimate"),
    pytest.param([1.0, np.inf, 3.0], [1.0, 2.0, 2.0], id="inf-truth"),
    pytest.param([1.0, 2.0, 3.0], [1.0, 2.0, -np.inf], id="minus-inf-estimate"),
]
OVERFLOWING = [
    pytest.param([1e200, -1e200, 3e200], [2e200, 1e200, -1e200], id="both"),
    pytest.param([1.0, 2.0, 3.0], [1e200, 1.0, 2.0], id="estimate"),
]


@pytest.mark.parametrize("truth, estimate", NON_FINITE)
def test_r_squared_rejects_a_non_finite_number(truth, estimate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="finite numbers"):
            kr.r_squared(truth, estimate)


@pytest.mark.parametrize("truth, estimate", OVERFLOWING)
def test_r_squared_that_overflows_raises_a_numeric_error_without_a_warning(truth, estimate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflows the float range"):
            kr.r_squared(truth, estimate)


# --- gain and combined error ------------------------------------------------------


def test_gain_tabulated_values():
    assert abs(kr.gain(0.471, 0.791) - 0.320) <= 1e-12
    assert abs(kr.gain(0.734, 0.828) - 0.094) <= 1e-12
    assert kr.gain(0.5, 0.5) == 0.0


def test_combined_error_examples():
    assert kr.combined_error(1.0, 1.0) == 0.0
    assert kr.combined_error(0.0, 0.0) == 1.0
    assert abs(kr.combined_error(0.791, 0.767) - 0.048985) <= 1e-9


@pytest.mark.parametrize("scores", [(np.nan, 0.5), (0.5, np.inf), (-np.inf, 0.5), (None, 0.5), (True, 0.5)], ids=repr)
def test_combined_error_rejects_a_score_that_is_not_a_finite_number(scores):
    # a nan score once came back as a nan error
    with pytest.raises(DataError, match="finite scores"):
        kr.combined_error(*scores)


@pytest.mark.parametrize("scores", [(1e200, 0.5), (0.5, -1e200), (np.float64(1e200), 0.5)], ids=repr)
def test_combined_error_that_overflows_raises_a_numeric_error_without_a_warning(scores):
    # a Python float's ** 2 once raised OverflowError, a traceback for evaluate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflows the float range"):
            kr.combined_error(*scores)


def test_scorecard_gain_and_rows():
    card = kr.ScoreCard(r2_pre=0.4, r2_post=0.9)
    assert card.gain == 0.5
    rows = card.rows("test_a")
    assert [name for name, _ in rows] == ["r2_pre_test_a", "r2_post_test_a", "gain_test_a"]
    assert [name for name, _ in card.rows()] == ["r2_pre", "r2_post", "gain"]


# --- binned RSE -------------------------------------------------------------------


def test_binned_rse_perfect_estimate_is_zero_everywhere():
    f = np.array([0.2, 1.4, 2.9, 3.3, 0.8])
    curve = kr.binned_rse(f, f, 1.0)
    assert all(r == 0.0 for r in curve.rse if r is not None)


def test_binned_rse_constant_mean_estimate_in_single_bin_is_one():
    f = np.array([1.0, 2.0, 3.0])
    curve = kr.binned_rse(f, np.full(3, 2.0), 10.0)
    assert curve.counts.tolist() == [3]
    assert curve.rse == (1.0,)


def test_binned_rse_hand_example():
    curve = kr.binned_rse([1.0, 1.0, 3.0, 3.0], [1.0, 1.0, 3.0, 5.0], 2.0)
    assert curve.counts.tolist() == [2, 2]
    assert curve.rse[0] == 0.0
    assert abs(curve.rse[1] - 2.0) <= 1e-12
    assert np.array_equal(curve.bin_edges, [0.0, 2.0, 4.0])


def test_binned_rse_marks_empty_bins_none():
    curve = kr.binned_rse([0.5, 10.5], [0.0, 11.0], 1.0)
    assert curve.counts[0] == 1 and curve.counts[-1] == 1
    assert all(c == 0 for c in curve.counts[1:-1])
    assert all(r is None for r in curve.rse[1:-1])
    assert curve.rse[0] is not None


def test_binned_rse_handles_negative_truth_values():
    curve = kr.binned_rse([-1.5, -0.5, 0.5], [-1.0, -0.5, 0.5], 1.0)
    assert curve.bin_edges[0] == -2.0
    assert curve.counts.tolist() == [1, 1, 1]


def test_binned_rse_validation():
    with pytest.raises(DataError):
        kr.binned_rse([1.0, 2.0], [1.0, 2.0], 0.0)
    with pytest.raises(DataError):
        kr.binned_rse([2.0, 2.0], [1.0, 2.0], 1.0)  # constant truth
    with pytest.raises(DataError):
        kr.binned_rse([1.0], [1.0, 2.0], 1.0)
    with pytest.raises(DataError):
        kr.binned_rse([1.0, np.nan], [1.0, 2.0], 1.0)
    # a non-finite width, or one so fine that the bin count overflows
    for width in (float("nan"), float("inf"), 1e-300, True):
        with pytest.raises(DataError, match="bin"):
            kr.binned_rse([1.0, 2.0], [1.0, 2.0], width)


@pytest.mark.parametrize("truth, estimate", NON_FINITE)
def test_binned_rse_rejects_a_non_finite_number(truth, estimate):
    # a non-finite estimate once wrote nan and inf cells through write_binned_rse_csv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="finite numbers"):
            kr.binned_rse(truth, estimate, 1.0)


@pytest.mark.parametrize("truth, estimate", OVERFLOWING)
def test_binned_rse_that_overflows_raises_a_numeric_error_without_a_warning(truth, estimate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflows the float range"):
            kr.binned_rse(truth, estimate, 1e200)


@pytest.mark.parametrize(
    "truth, width",
    [
        ([1e20, 1e20 + 2e5], 1.0),  # edges 1 apart at 1e20 are one float
        ([1e300, -1e300, 0.0], 1e-10),  # the bin count overflows
        ([1.7e308, 0.0], 1e308),  # the last edge overflows
        ([-1.7e308, 0.0], 1e308),  # so does the first
    ],
)
def test_binned_rse_rejects_bins_that_floats_cannot_hold_without_a_warning(truth, width):
    # the first case once warned of an invalid cast and ended in
    # OverflowError, the second warned of an overflow before its DataError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="bin"):
            kr.binned_rse(truth, [0.0] * len(truth), width)


def test_binned_rse_bins_large_truth_values_exactly():
    # bin indices near 2**52 still come out whole: the edges are distinct
    # floats and every sample lands in its own bin
    base = 2.0**52
    curve = kr.binned_rse([base, base + 4.0], [base, base + 1.0], 1.0)
    assert np.array_equal(curve.bin_edges, base + np.arange(6.0))
    assert curve.counts.tolist() == [1, 0, 0, 0, 1]
    assert curve.rse == (0.0, None, None, None, 9.0 / 4.0)


def test_binned_rse_pair_shares_binning():
    f = np.array([1.0, 1.0, 3.0, 3.0])
    pre, post = kr.binned_rse(f, [1.0, 1.0, 3.0, 5.0], 2.0), kr.binned_rse(f, f, 2.0)
    assert np.array_equal(pre.bin_edges, [0.0, 2.0, 4.0])
    assert np.array_equal(post.bin_edges, pre.bin_edges)
    assert post.rse == (0.0, 0.0)
    assert abs(pre.rse[1] - 2.0) <= 1e-12


# --- CSV export -------------------------------------------------------------------


def test_metric_rows_csv(tmp_path):
    path = tmp_path / "card.csv"
    kr.write_metric_rows_csv([("r2_pre", 0.25), ("r2_post", 0.875)], path)
    assert path.read_text() == "metric,value\nr2_pre,0.25\nr2_post,0.875\n"


def test_binned_rse_csv_empty_bins_are_empty_cells(tmp_path):
    truth = [0.5, 2.5]
    pre, post = kr.binned_rse(truth, [0.4, 2.7], 1.0), kr.binned_rse(truth, truth, 1.0)
    path = tmp_path / "rse.csv"
    kr.write_binned_rse_csv(pre, post, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo_n,bin_hi_n,count,rse_pre,rse_post"
    assert lines[2].startswith("1,2,0,,")  # the empty middle bin


def test_binned_rse_csv_rejects_curves_on_different_bins(tmp_path):
    pre = kr.binned_rse([0.5, 2.5], [0.4, 2.7], 1.0)
    for other in (
        kr.binned_rse([0.5, 2.5], [0.4, 2.7], 0.5),  # other edges
        kr.binned_rse([0.5, 2.6, 2.7], [0.4, 2.7, 2.7], 1.0),  # same edges, other counts
    ):
        for curves in ((pre, other), (other, pre)):
            with pytest.raises(DataError, match="share their bins"):
                kr.write_binned_rse_csv(*curves, tmp_path / "rse.csv")
    assert not (tmp_path / "rse.csv").exists()


# Each table writer's cells against lines written out by hand: None is an
# empty cell, text is written as it is, and every number, float or int,
# Python's or numpy's, is "%.12g" of its float.
_FS, _BASE = kr.alpha_set(2.5, 4), kr.baseline_alpha_set()


def _write_binned(rows, sink):
    lo, hi, counts, pre, post = zip(*rows)
    edges = [*lo, hi[-1]]
    kr.write_binned_rse_csv(kr.BinnedCurve(edges, counts, pre), kr.BinnedCurve(edges, counts, post), sink)


_TABLES = {
    "metric rows": (
        kr.write_metric_rows_csv,
        "metric,value",
        [
            (("r2_pre", np.float64(0.123456789012345)), "r2_pre,0.123456789012"),
            (("r2_post", np.float32(0.1)), "r2_post,0.10000000149"),
            (("gain", -0.0), "gain,-0"),
            (("E", math.inf), "E,inf"),
            (("E_b", -math.inf), "E_b,-inf"),
            (("r2_pre_b", math.nan), "r2_pre_b,nan"),
            (("rows", 7), "rows,7"),
            (("bins", np.int64(12)), "bins,12"),
        ],
    ),
    "binned rse": (
        _write_binned,
        "bin_lo_n,bin_hi_n,count,rse_pre,rse_post",
        [
            ((-1.5, -0.0, 3, np.float32(0.25), 1 / 3), "-1.5,-0,3,0.25,0.333333333333"),
            ((-0.0, 2.5, 0, None, None), "-0,2.5,0,,"),
            ((2.5, 1e13, 123456, math.inf, math.nan), "2.5,1e+13,123456,inf,nan"),
        ],
    ),
    "grid report": (
        lambda rows, sink: kr.write_report_csv(kr.SearchReport([kr.GridRow(*r) for r in rows]), sink),
        "config_id,feature_set,alphas,hidden_sizes,r2_train,r2_testA,r2_testB,E,seconds,status",
        [
            (
                (0, kr.GridConfig(_FS, 0, (4, 2)), 0.5, np.float64(0.25), np.float32(0.1), -0.0, None, "ok"),
                "0,a2.5_n4,0.4 0.16 0.064 0.0256,4x2,0.5,0.25,0.10000000149,-0,,ok",
            ),
            (
                (np.int64(911), kr.GridConfig(_BASE, 7, (32, 16, 8)), None, None, None, None, None, "failed"),
                "911,baseline,0.5 0.1 0.025 0.0025,32x16x8,,,,,,failed",
            ),
            (
                (12, kr.GridConfig(_FS, 0, (2, 2)), math.nan, -math.inf, 1e-7, math.inf, 1.25, "diverged"),
                "12,a2.5_n4,0.4 0.16 0.064 0.0256,2x2,nan,-inf,1e-07,inf,1.25,diverged",
            ),
        ],
    ),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_table_writers_write_each_cell_by_the_one_rule(table, tmp_path):
    write, header, rows = _TABLES[table]
    path = tmp_path / "table.csv"
    write([cells for cells, _ in rows], path)
    assert path.read_bytes() == "".join(f"{line}\n" for line in [header, *(line for _, line in rows)]).encode()


# --- properties -------------------------------------------------------------------

vals = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=40))
def test_r_squared_never_exceeds_one_and_one_means_equality(data, n):
    x = np.array(data.draw(st.lists(vals, min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(vals, min_size=n, max_size=n)))
    try:
        r2 = kr.r_squared(x, y)
    except DataError:
        return  # zero-denominator inputs are rejected, not scored
    assert r2 <= 1.0
    if np.array_equal(x, y):
        assert r2 == 1.0
    if r2 == 1.0:
        # equality at float resolution: residuals vanish against the spread
        spread = np.sqrt(np.sum((x - np.mean(y)) ** 2))
        assert np.all(np.abs(x - y) <= 2.0**-20 * spread)


@settings(max_examples=60, deadline=None)
@given(a=vals, b=vals)
def test_gain_is_antisymmetric(a, b):
    assert kr.gain(a, b) == -kr.gain(b, a)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(min_value=-5, max_value=1), b=st.floats(min_value=-5, max_value=1))
def test_combined_error_symmetric_and_minimized_at_perfect_scores(a, b):
    e = kr.combined_error(a, b)
    assert e == kr.combined_error(b, a)
    assert e >= 0.0
    if e == 0.0:
        assert a == 1.0 and b == 1.0


@settings(max_examples=60, deadline=None)
@given(
    f=st.lists(vals, min_size=2, max_size=50),
    width=st.floats(min_value=0.1, max_value=100.0),
)
def test_binned_rse_of_perfect_estimate_is_zero_for_any_width(f, width):
    arr = np.asarray(f, dtype=float)
    if np.all(arr == arr[0]):
        return
    if (arr.max() - arr.min()) / width > 1e6:
        return  # avoid pathological bin counts
    curve = kr.binned_rse(arr, arr, width)
    assert all(r == 0.0 for r in curve.rse if r is not None)
    assert int(curve.counts.sum()) == arr.size
    assert math.isclose(curve.bin_edges[1] - curve.bin_edges[0], width, rel_tol=1e-9)
