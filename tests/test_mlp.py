"""Network construction, forward pass, backprop gradients, and (lockstep) training."""

import dataclasses
import json
import operator
import struct
import tracemalloc
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knitrect as kr
from knitrect import mlp
from knitrect.errors import DataError, NumericError, TrainingDiverged


def _manual_model(layer_sizes, weights, biases):
    return kr.MlpModel(
        tuple(layer_sizes),
        [np.asarray(w, dtype=float) for w in weights],
        [np.asarray(b, dtype=float) for b in biases],
        seed=0,
    )


# --- construction ---------------------------------------------------------------


def test_mlp_new_is_deterministic():
    a = kr.mlp_new((7, 4, 2, 2, 1), seed=1)
    b = kr.mlp_new((7, 4, 2, 2, 1), seed=1)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_mlp_new_seed_changes_weights():
    a = kr.mlp_new((7, 4, 2, 2, 1), seed=1)
    b = kr.mlp_new((7, 4, 2, 2, 1), seed=2)
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_param_count_of_best_topology_is_51():
    model = kr.mlp_new((7, 4, 2, 2, 1), seed=0)
    assert model.param_count() == 51


def test_mlp_new_init_bounds_and_zero_biases():
    model = kr.mlp_new((7, 4, 2, 2, 1), seed=3)
    for w, (nin, nout) in zip(model.weights, zip(model.layer_sizes, model.layer_sizes[1:])):
        bound = np.sqrt(6.0 / (nin + nout))
        assert np.all(np.abs(w) <= bound)
    for b in model.biases:
        assert np.all(b == 0.0)


def test_mlp_new_rejects_bad_sizes():
    with pytest.raises(DataError):
        kr.mlp_new((7,), seed=0)
    with pytest.raises(DataError):
        kr.mlp_new((7, 4, 2), seed=0)  # output width must be 1
    with pytest.raises(DataError):
        kr.mlp_new((7, 1, 1), seed=0)  # hidden width below 2
    with pytest.raises(DataError):
        kr.mlp_new((0, 1), seed=0)


@pytest.mark.parametrize(
    "sizes, seed",
    [
        ((7, 2.9, 1), 0),
        ((True, 2, 1), 0),
        ((7, 2, True), 0),
        ((7, "3", 1), 0),
        ((7, float("nan"), 1), 0),
        ((7, 2, 1), -1),
        ((7, 2, 1), 2.5),
        ((7, 2, 1), True),
        ((7, 2, 1), "1"),
        # more digits than repr prints (sys.get_int_max_str_digits)
        pytest.param((7, 2, 1), -(10**5000), id="seed-past-the-repr-limit"),
    ],
)
def test_mlp_new_takes_integers_only(sizes, seed):
    with pytest.raises(DataError, match="must be an integer"):
        kr.mlp_new(sizes, seed=seed)


@pytest.mark.parametrize(
    "sizes",
    [(7, 10**12, 1), (2, 2, 10**40, 1), (7, 10**5000, 1), (10**5, 1), (3, 4999, 20, 1)],
    ids=["10**12-wide", "10**40-wide", "past-the-float-range", "wide-input", "two-hidden-layers"],
)
def test_mlp_new_refuses_a_net_past_the_size_bound(sizes):
    assert mlp._param_count(sizes) > mlp._NET_MAX_PARAMS
    with pytest.raises(DataError, match="parameters"):
        kr.mlp_new(sizes)


def test_mlp_new_takes_a_net_at_the_size_bound():
    # (n, 1) has n + 1 parameters
    assert kr.mlp_new((mlp._NET_MAX_PARAMS - 1, 1)).param_count() == mlp._NET_MAX_PARAMS


@pytest.mark.parametrize(
    "sizes",
    [7, 7.0, None, "741", b"\x07\x04\x01", iter((7, 4, 1)), {7: 0, 4: 0, 1: 0}, np.array(7), np.array([[7, 4, 1]])],
    ids=["int", "float", "None", "str", "bytes", "iterator", "dict", "0-d array", "2-d array"],
)
def test_mlp_new_takes_a_sequence_of_sizes_only(sizes):
    with pytest.raises(DataError, match="must be a sequence"):
        kr.mlp_new(sizes)


def test_mlp_new_takes_a_tuple_a_list_or_a_1d_array_of_sizes():
    want = kr.mlp_new((7, 4, 1), seed=2)
    for sizes in ([7, 4, 1], np.array([7, 4, 1]), np.array([7.0, 4.0, 1.0])):
        model = kr.mlp_new(sizes, seed=2)
        assert model.layer_sizes == (7, 4, 1) and all(type(n) is int for n in model.layer_sizes)
        assert _same_bytes(model.weights, want.weights)


def test_mlp_new_takes_integral_floats_as_ints():
    model = kr.mlp_new((7.0, 4.0, 1.0), seed=3.0)
    assert model.layer_sizes == (7, 4, 1) and model.seed == 3
    assert all(type(n) is int for n in (*model.layer_sizes, model.seed))
    assert np.array_equal(model.weights[0], kr.mlp_new((7, 4, 1), seed=3).weights[0])


# --- forward --------------------------------------------------------------------


def test_forward_zero_weights_returns_output_bias():
    model = _manual_model((3, 2, 1), [np.zeros((3, 2)), np.zeros((2, 1))], [np.zeros(2), [4.5]])
    for x in ([0, 0, 0], [1, -2, 3], [100, 100, 100]):
        assert kr.forward(model, x) == 4.5


def test_forward_relu_clips_negative_preactivation():
    model = _manual_model((1, 1, 1), [[[1.0]], [[1.0]]], [[0.0], [0.0]])
    assert kr.forward(model, [-3.0]) == 0.0
    assert kr.forward(model, [2.0]) == 2.0


def test_forward_batch_shape_and_dimension_check():
    model = kr.mlp_new((3, 2, 1), seed=0)
    out = kr.forward_batch(model, np.zeros((5, 3)))
    assert out.shape == (5,)
    assert kr.forward_batch(model, np.zeros((0, 3))).shape == (0,)
    (one,) = kr.forward_batch(model, [[0.5, -1.0, 2.0]])
    assert abs(one - _reference_forward(model, np.array([[0.5, -1.0, 2.0]]))[0]) <= 1e-12
    with pytest.raises(DataError):
        kr.forward_batch(model, np.zeros((5, 4)))
    with pytest.raises(DataError):
        kr.forward(model, np.zeros((2, 3)))
    with pytest.raises(DataError):
        kr.forward(model, np.zeros((1, 3)))
    for width in (2, 4):
        with pytest.raises(DataError, match="input width"):
            kr.forward(model, np.zeros(width))


def _reference_forward(model, X):
    """The plain 2-D forward pass with the biases apart: `a @ w + b` per layer."""
    a = X
    last = len(model.weights) - 1
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if li != last:
            a = np.maximum(a, 0.0)
    return a[:, 0]


# single layers whose folded sums round differently from `a @ w + b`
_ROUNDING_LAYERS = [(9, 1), (16, 4, 1), (33, 2, 1)]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.one_of(
        st.sampled_from(_ROUNDING_LAYERS),
        st.builds(lambda n_in, hidden: (n_in, *hidden, 1), st.integers(1, 40), st.lists(st.integers(2, 40), max_size=3)),
    ),
    n=st.one_of(st.sampled_from([mlp._CHUNK_ROWS - 1, mlp._CHUNK_ROWS, mlp._CHUNK_ROWS + 1]), st.integers(0, 30)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_forward_batch_matches_the_plain_reference(sizes, n, seed):
    # forward_batch is the stacked, chunked pass on a stack of one
    rng = np.random.default_rng(seed)
    model = kr.mlp_new(sizes, seed=seed)
    for b in model.biases:
        b += rng.normal(scale=0.5, size=b.shape)
    X = rng.normal(scale=2.0, size=(n, sizes[0]))
    got, ref = kr.forward_batch(model, X), _reference_forward(model, X)
    assert got.shape == ref.shape == (n,)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=60, deadline=None)
@given(
    n_in=st.integers(min_value=1, max_value=9),
    hidden=st.lists(st.integers(min_value=2, max_value=8), max_size=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_forward_matches_forward_batch_within_rounding(n_in, hidden, seed):
    # 1 to 4 weight layers; forward sums each dot product in its own order
    rng = np.random.default_rng(seed)
    model = kr.mlp_new((n_in, *hidden, 1), seed=seed)
    for b in model.biases:
        b += rng.normal(scale=0.5, size=b.shape)
    for x in rng.normal(scale=2.0, size=(5, n_in)):
        assert abs(kr.forward(model, x) - kr.forward_batch(model, x[None])[0]) <= 1e-12


# (bound, 1) has one parameter more than mlp._KERNEL_MAX_PARAMS; (3, h, 1)
# has 5h + 1, so (3, (bound - 1) // 5 + 1, 1) is the narrowest net on three
# inputs past it; (10, 16, 8, 8, 1) is a grid net past it, and (3, 1500, 1)
# has 7,501
@pytest.mark.parametrize(
    "sizes",
    [(mlp._KERNEL_MAX_PARAMS, 1), (3, (mlp._KERNEL_MAX_PARAMS - 1) // 5 + 1, 1), (10, 16, 8, 8, 1), (3, 1500, 1)],
    ids=lambda s: "x".join(map(str, s)),
)
def test_forward_of_a_net_above_the_kernel_bound_equals_forward_batch_bit_for_bit(sizes):
    # forward runs forward_batch's pass on the one row
    rng = np.random.default_rng(6)
    model = kr.mlp_new(sizes, seed=6)
    for b in model.biases:
        b += rng.normal(scale=0.5, size=b.shape)
    assert model.param_count() > mlp._KERNEL_MAX_PARAMS
    assert mlp._kernel_template(sizes) is None
    for x in rng.normal(scale=2.0, size=(5, sizes[0])):
        assert struct.pack("d", kr.forward(model, x)) == struct.pack("d", kr.forward_batch(model, x[None])[0])


def _loop_reference(model, x):
    """The network on the input list x, unit by unit: the order the compiled kernel must keep.

    Each unit sums its products left to right from 0.0 and then adds its
    bias (reduce, not sum: sum compensates the rounding of floats from
    Python 3.12 on).  The ReLU lets a NaN through, as np.maximum does.
    """
    add, mul = operator.add, operator.mul
    layers = [(w.T.tolist(), b.tolist()) for w, b in zip(model.weights, model.biases)]
    a = list(x)
    for cols, bs in layers[:-1]:
        a = [0.0 if (z := reduce(add, map(mul, a, col), 0.0) + b) < 0.0 else z for col, b in zip(cols, bs)]
    cols, bs = layers[-1]
    return reduce(add, map(mul, a, cols[0]), 0.0) + bs[0]


_kernel_inputs = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan")]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    # nets within the kernel bound, so forward runs the compiled kernel
    sizes=st.builds(
        lambda n_in, hidden: (n_in, *hidden, 1),
        st.integers(min_value=1, max_value=10),
        st.lists(st.integers(min_value=2, max_value=16), max_size=4),
    ).filter(lambda sizes: mlp._param_count(sizes) <= mlp._KERNEL_MAX_PARAMS),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_forward_kernel_equals_the_unit_loop_bit_for_bit(sizes, seed, data):
    rng = np.random.default_rng(seed)
    model = kr.mlp_new(sizes, seed=seed)
    for b in model.biases:
        b += rng.normal(scale=0.5, size=b.shape) * (rng.random(b.shape) < 0.8)  # some biases stay exact zeros
    for _ in range(4):
        x = data.draw(st.lists(_kernel_inputs, min_size=sizes[0], max_size=sizes[0]))
        got = kr.forward(model, x)
        assert struct.pack("d", got) == struct.pack("d", _loop_reference(model, x))


def test_forward_kernel_is_compiled_once_per_shape_without_weights():
    a, b = kr.mlp_new((7, 4, 2, 2, 1), seed=1), kr.mlp_new((7, 4, 2, 2, 1), seed=2)
    b.weights[0][0, 0] = 0.123456789
    net_a, net_b = mlp._float_net(a), mlp._float_net(b)
    assert net_a.__code__ is net_b.__code__
    assert set(net_b.__code__.co_consts) <= {None, 0.0}  # no weight is a constant of the code
    assert 0.123456789 in [cell.cell_contents for cell in net_b.__closure__]
    x = [0.5, -1.0, 2.0, 0.0, 1.5, -0.25, 3.0]
    assert (net_a(x), net_b(x)) == (_loop_reference(a, x), _loop_reference(b, x))


def test_forward_kernel_of_the_widest_unit_within_the_bound_keeps_its_order():
    # one output unit of bound - 1 products and its bias, one statement
    sizes = (mlp._KERNEL_MAX_PARAMS - 1, 1)
    model = kr.mlp_new(sizes, seed=3)
    model.biases[0] += 0.25
    assert model.param_count() == mlp._KERNEL_MAX_PARAMS
    assert mlp._kernel_template(sizes) is not None
    for x in np.random.default_rng(3).normal(size=(3, sizes[0])).tolist():
        assert struct.pack("d", kr.forward(model, x)) == struct.pack("d", _loop_reference(model, x))


def test_forward_propagates_nan_like_forward_batch():
    model = _manual_model((2, 2, 1), [[[np.nan, 1.0], [1.0, 1.0]], [[1.0], [1.0]]], [[0.0, 0.0], [0.0]])
    assert np.isnan(kr.forward_batch(model, [[1.0, 1.0]])[0])
    assert np.isnan(kr.forward(model, [1.0, 1.0]))


def test_forward_final_layer_is_positively_homogeneous():
    rng = np.random.default_rng(4)
    model = kr.mlp_new((4, 3, 2, 1), seed=4)
    X = rng.normal(size=(20, 4))
    base = kr.forward_batch(model, X)
    model.weights[-1] *= 2.0
    model.biases[-1] *= 2.0
    assert np.array_equal(kr.forward_batch(model, X), 2.0 * base)


# --- loss -----------------------------------------------------------------------


def test_loss_examples():
    ident = _manual_model((1, 1), [[[1.0]]], [[0.0]])
    X = np.array([[1.0], [2.0]])
    assert kr.mse_loss(ident, X, [1.0, 2.0]) == 0.0

    zero = _manual_model((1, 1), [[[0.0]]], [[0.0]])
    assert kr.mse_loss(zero, X, [1.0, -1.0]) == 1.0

    const3 = _manual_model((1, 1), [[[0.0]]], [[3.0]])
    assert kr.mse_loss(const3, np.array([[0.0]]), [1.0]) == 4.0

    with pytest.raises(DataError):
        kr.mse_loss(ident, np.empty((0, 1)), [])


def test_mse_loss_rejects_a_target_that_is_not_1d():
    # a (n, 1) target would broadcast against the (n,) predictions into an
    # n x n mean instead of the loss
    model, X, y = _random_net_and_batch(3)
    with pytest.raises(DataError, match="matching y"):
        kr.mse_loss(model, X, y[:, None])
    with pytest.raises(DataError, match="matching y"):
        kr.mse_loss(model, X, y[:-1])


# --- gradients ------------------------------------------------------------------


def _random_net_and_batch(seed, sizes=(5, 4, 2, 2, 1), n=8):
    """Random net with nonzero biases so the loss is differentiable at the point."""
    rng = np.random.default_rng(seed + 1000)
    model = kr.mlp_new(sizes, seed)
    for b in model.biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
    return model, rng.normal(size=(n, sizes[0])), rng.normal(size=n)


def _finite_difference_worst_error(model, X, y, eps=1e-5):
    gw, gb = kr.gradient(model, X, y)
    worst = 0.0
    for grads, params in ((gw, model.weights), (gb, model.biases)):
        for g, p in zip(grads, params):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p[ix]
                p[ix] = orig + eps
                lp = kr.mse_loss(model, X, y)
                p[ix] = orig - eps
                lm = kr.mse_loss(model, X, y)
                p[ix] = orig
                fd = (lp - lm) / (2.0 * eps)
                worst = max(worst, abs(g[ix] - fd) / max(abs(g[ix]) + abs(fd), 1e-8))
    return worst


def test_gradient_matches_central_differences():
    model, X, y = _random_net_and_batch(0)
    assert _finite_difference_worst_error(model, X, y) < 1e-4


def test_gradient_zero_input_zero_bias_kills_first_layer():
    model = kr.mlp_new((3, 4, 2, 1), seed=2)
    X = np.zeros((6, 3))
    gw, _ = kr.gradient(model, X, np.ones(6))
    assert np.all(gw[0] == 0.0)


def test_gradient_mean_is_invariant_to_sample_duplication():
    model, X, y = _random_net_and_batch(5)
    one_w, one_b = kr.gradient(model, X[:1], y[:1])
    dup_w, dup_b = kr.gradient(model, np.repeat(X[:1], 4, axis=0), np.repeat(y[:1], 4))
    for a, b in zip(one_w + one_b, dup_w + dup_b):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_gradient_validates_batch():
    model = kr.mlp_new((3, 2, 1), seed=0)
    with pytest.raises(DataError):
        kr.gradient(model, np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(DataError):
        kr.gradient(model, np.zeros((4, 3)), np.zeros(5))


def _reference_gradient(model, X, y):
    """Plain 2-D backprop with the biases apart: `@ w + b` forward, `delta.sum(axis=0)` back."""
    last = len(model.weights) - 1
    acts, zs = [X], []
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        zs.append(acts[-1] @ w + b)
        acts.append(zs[-1] if li == last else np.maximum(zs[-1], 0.0))
    delta = (2.0 / y.size) * (acts[-1][:, 0] - y)[:, None]
    gw, gb = [None] * (last + 1), [None] * (last + 1)
    for li in range(last, -1, -1):
        gw[li] = acts[li].T @ delta
        gb[li] = delta.sum(axis=0)
        if li > 0:
            delta = (delta @ model.weights[li].T) * (zs[li - 1] > 0.0)
    return gw, gb


@settings(max_examples=60, deadline=None)
@given(
    n_in=st.integers(1, 6),
    hidden=st.lists(st.integers(2, 6), max_size=3),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_matches_the_plain_reference(n_in, hidden, n, seed):
    rng = np.random.default_rng(seed)
    model = kr.mlp_new((n_in, *hidden, 1), seed)
    model.biases = [rng.normal(size=b.shape) for b in model.biases]
    X = rng.normal(size=(n, n_in))
    y = rng.normal(size=n)
    gw, gb = kr.gradient(model, X, y)
    ref_w, ref_b = _reference_gradient(model, X, y)
    assert [g.shape for g in gw + gb] == [g.shape for g in ref_w + ref_b]
    for got, want in zip(gw + gb, ref_w + ref_b):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# Nets whose gradient and forward_batch bytes are pinned in
# data/gradient_bytes.json, each at each batch size: one without a hidden
# layer, the default net and a grid-sized one.
GRADIENT_SHAPES = [(3, 1), (7, 4, 2, 2, 1), (5, 16, 8, 1)]
GRADIENT_BATCHES = [1, 37, 200]


def _gradient_bytes(sizes, n) -> dict:
    """gradient and forward_batch of a net of these layer sizes on n samples, as float.hex, row by row."""
    # at seed n + 2 every net has live units on one sample, and so gradients
    rng = np.random.default_rng(n + 2)
    model = kr.mlp_new(sizes, seed=n + 2)
    model.biases = [rng.normal(0.5, 0.5, size=b.shape) for b in model.biases]
    X = rng.normal(size=(n, sizes[0]))
    y = rng.normal(size=n)
    gw, gb = kr.gradient(model, X, y)
    return {
        "weights": [_hex_floats(g) for g in gw],
        "biases": [_hex_floats(g) for g in gb],
        "forward_batch": _hex_floats(kr.forward_batch(model, X)),
    }


@pytest.mark.parametrize("n", GRADIENT_BATCHES)
@pytest.mark.parametrize("sizes", GRADIENT_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_gradient_and_forward_batch_give_the_recorded_bytes(sizes, n):
    # the fixture was written before the stack-of-one passes called the C
    # function behind np.dot; the calls may change, the bytes may not
    want = json.loads((Path(__file__).parent / "data" / "gradient_bytes.json").read_text())["cases"]
    assert _gradient_bytes(sizes, n) == want[f"{'-'.join(map(str, sizes))}/{n}"]


# --- training -------------------------------------------------------------------


def test_train_fits_linear_target():
    X = np.linspace(-1.0, 1.0, 64)[:, None]
    y = 2.0 * X[:, 0] + 1.0
    model = kr.mlp_new((1, 4, 2, 2, 1), seed=0)
    trained, report = kr.train(model, X, y, kr.TrainConfig(max_iter=2000, batch_size=16, tol=0.0, seed=0))
    assert report.best_loss < 1e-3
    assert report.epochs_run <= 2000
    assert kr.mse_loss(trained, X, y) < 1e-3


def test_train_memorizes_tiny_dataset():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    model = kr.mlp_new((2, 16, 8, 1), seed=1)
    _, report = kr.train(model, X, y, kr.TrainConfig(max_iter=10000, tol=0.0, seed=1))
    assert report.best_loss < 1e-4


def test_train_is_deterministic_and_leaves_input_model_untouched():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(40, 3))
    y = X @ [1.0, -0.5, 0.25]
    model = kr.mlp_new((3, 4, 2, 1), seed=7)
    before = [w.copy() for w in model.weights]
    cfg = kr.TrainConfig(max_iter=50, seed=3)
    _, rep1 = kr.train(model, X, y, cfg)
    _, rep2 = kr.train(model, X, y, cfg)
    assert rep1.loss_history == rep2.loss_history
    for w0, w1 in zip(before, model.weights):
        assert np.array_equal(w0, w1)


def test_train_reports_best_observed_loss():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    model = kr.mlp_new((2, 4, 1), seed=2)
    _, report = kr.train(model, X, y, kr.TrainConfig(max_iter=40, seed=2))
    assert report.best_loss == min(report.loss_history)
    assert len(report.loss_history) == report.epochs_run


def test_train_divergence_raises_instead_of_returning_garbage():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(32, 3))
    y = rng.normal(size=32)
    model = kr.mlp_new((3, 4, 1), seed=0)
    with pytest.raises(TrainingDiverged):
        kr.train(model, X, y, kr.TrainConfig(max_iter=50, learning_rate=1e6, seed=0))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("call", ["train", "train_many", "gradient"])
def test_training_rejects_a_non_finite_input_or_target(call, where, value):
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(32, 3)), rng.normal(size=32)
    (X if where == "X" else y)[5] = value
    model, cfg = kr.mlp_new((3, 4, 1), seed=0), kr.TrainConfig(max_iter=5, seed=0)
    calls = {
        "train": lambda: kr.train(model, X, y, cfg),
        "train_many": lambda: kr.train_many([model], [X], y, cfg, [0]),
        "gradient": lambda: kr.gradient(model, X, y),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="finite"):
            calls[call]()


@pytest.mark.parametrize("learning_rate, scale", [(1e300, 1.0), (1e-3, 1e308)], ids=["learning-rate-1e300", "input-1e308"])
def test_an_overflowing_fit_diverges_without_a_warning(learning_rate, scale):
    rng = np.random.default_rng(0)
    X, y = scale * rng.uniform(-1.0, 1.0, size=(32, 3)), rng.normal(size=32)
    model = kr.mlp_new((3, 4, 1), seed=0)
    cfg = kr.TrainConfig(max_iter=50, learning_rate=learning_rate, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged):
            kr.train(model, X, y, cfg)
        (outcome,) = kr.train_many([model], [X], y, cfg, [0])
    assert isinstance(outcome, TrainingDiverged)


@pytest.mark.parametrize("call", ["gradient", "mse_loss"])
def test_gradient_and_loss_that_overflow_raise_a_numeric_error_without_a_warning(call):
    rng = np.random.default_rng(0)
    X, y = 1e308 * rng.uniform(-1.0, 1.0, size=(32, 3)), rng.normal(size=32)
    model = kr.mlp_new((3, 4, 1), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflows the float range"):
            getattr(kr, call)(model, X, y)


def test_train_early_stops_on_plateau():
    X = np.linspace(-1.0, 1.0, 32)[:, None]
    y = np.zeros(32)
    model = kr.mlp_new((1, 2, 1), seed=0)
    _, report = kr.train(model, X, y, kr.TrainConfig(max_iter=10000, tol=1e-3, patience=5, seed=0))
    assert report.converged
    assert report.epochs_run < 10000


def test_train_config_validation():
    with pytest.raises(DataError):
        kr.TrainConfig(max_iter=0)
    with pytest.raises(DataError):
        kr.TrainConfig(learning_rate=0.0)
    with pytest.raises(DataError):
        kr.TrainConfig(tol=-1.0)
    with pytest.raises(DataError):
        kr.TrainConfig(patience=0)
    with pytest.raises(DataError):
        kr.TrainConfig(batch_size=0)
    bad = [
        {"max_iter": 1.5},
        {"max_iter": True},
        {"max_iter": "50"},
        {"patience": None},
        {"seed": -1},
        {"seed": "z"},
        {"batch_size": "32"},
        {"batch_size": 0.5},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": "fast"},
        {"tol": float("inf")},
        {"tol": False},
        # more digits than repr prints (sys.get_int_max_str_digits)
        {"learning_rate": 10**5000},
        {"tol": 10**5000},
    ]
    for kwargs in bad:
        with pytest.raises(DataError):
            kr.TrainConfig(**kwargs)
    # an integral float is stored as an int
    cfg = kr.TrainConfig(max_iter=50.0, batch_size=32.0, seed=3.0)
    assert (cfg.max_iter, cfg.batch_size, cfg.seed) == (50, 32, 3)
    assert all(type(v) is int for v in (cfg.max_iter, cfg.batch_size, cfg.seed))


def test_trained_parameters_stay_finite(small_bundle):
    for w in small_bundle.model.weights:
        assert np.all(np.isfinite(w))
    for b in small_bundle.model.biases:
        assert np.all(np.isfinite(b))


# --- lockstep training -----------------------------------------------------------


def _reference_train(model, X, y, cfg):
    """The per-model loop train_many replaced: 2-D passes and one Adam update per array.

    Samples run along columns, as in train_many's buffers.  A layer's
    output, and its weight and bias gradients, are one product each with a
    row of ones appended to its input, the bias being the weight of a
    constant-1 input.  Adding the bias after the product instead (`w.T @ a
    + b`) sums in another order, and misses train_many by an ulp on about
    one net in ten (one to four hidden layers of widths 2-6 on the data
    here); test_gradient_matches_the_plain_reference checks that form.
    """
    net = model.copy()
    n = y.size
    batch = min(200, n) if cfg.batch_size == "auto" else min(int(cfg.batch_size), n)
    rng = np.random.default_rng(cfg.seed)
    params = net.weights + net.biases
    m = [np.zeros_like(q) for q in params]
    v = [np.zeros_like(q) for q in params]
    best, stall, step, history, converged = float("inf"), 0, 0, [], False
    for _ in range(cfg.max_iter):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            idx = order[lo : lo + batch]
            acts, zs = [X[idx].T], []
            for li, (w, b) in enumerate(zip(net.weights, net.biases)):
                zs.append(np.hstack((w.T, b[:, None])) @ np.vstack((acts[-1], np.ones(idx.size))))
                acts.append(zs[-1] if li == len(net.weights) - 1 else np.maximum(zs[-1], 0.0))
            delta = (2.0 / idx.size) * (acts[-1][0] - y[idx])[None]
            gw, gb = [None] * len(net.weights), [None] * len(net.weights)
            for li in range(len(net.weights) - 1, -1, -1):
                g = delta @ np.vstack((acts[li], np.ones(idx.size))).T
                gw[li], gb[li] = g[:, :-1].T, g[:, -1]
                if li > 0:
                    delta = (np.ascontiguousarray(net.weights[li]) @ delta) * (zs[li - 1] > 0.0)
            step += 1
            c1, c2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            for i, g in enumerate(gw + gb):
                m[i] = 0.9 * m[i] + (1 - 0.9) * g
                v[i] = 0.999 * v[i] + (1 - 0.999) * g**2
                params[i] -= cfg.learning_rate * (m[i] / c1) / (np.sqrt(v[i] / c2) + 1e-8)
        loss = kr.mse_loss(net, X, y)
        history.append(loss)
        if loss < best - cfg.tol:
            best, stall = loss, 0
        else:
            stall += 1
            if stall >= cfg.patience:
                converged = True
                break
    return net, history, converged


def _same_bytes(xs, ys) -> bool:
    """Whether two lists of float arrays hold the same values bit for bit.

    np.array_equal would take -0.0 for 0.0 (and fail on a NaN), so the
    shapes and the bytes are compared instead.
    """
    xs, ys = [np.asarray(x, dtype=float) for x in xs], [np.asarray(y, dtype=float) for y in ys]
    return len(xs) == len(ys) and all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


def _group_data(seed, in_widths, n=24):
    rng = np.random.default_rng(seed)
    banks = [rng.normal(size=(n, w)) for w in in_widths]
    y = np.tanh(banks[0].sum(axis=1)) + 0.1 * rng.normal(size=n)
    return banks, y


@pytest.mark.parametrize(
    "chunk_rows, hidden, zero_rows",
    [
        pytest.param(1, (5, 2), False, id="1"),
        pytest.param(7, (5, 2), False, id="7"),
        pytest.param(None, (5, 2), False, id="default"),
        pytest.param(None, (), False, id="hidden-0"),
        pytest.param(None, (5,), False, id="hidden-1"),
        pytest.param(None, (5, 4, 3), False, id="hidden-3"),
        pytest.param(None, (5, 4, 3, 2), False, id="hidden-4"),
        *(pytest.param(None, h, True, id=f"zero-rows-hidden-{len(h)}") for h in ((5,), (5, 2), (5, 4, 3), (5, 4, 3, 2))),
    ],
)
def test_train_matches_the_reference_loop_bit_for_bit(chunk_rows, hidden, zero_rows, monkeypatch):
    # the epoch losses run in chunks of _CHUNK_ROWS rows; 24 rows fit in one
    # chunk by default, in 24 one-row chunks at 1, and end on a 3-row chunk at
    # 7.  Batches of 7 end each epoch on a short batch of 3, whose 2/n is
    # its own.  All-zero input rows give pre-activations of exactly 0 while
    # the biases are still 0 (the first step), which the ReLU and its mask
    # take as not positive, as the reference's `zs > 0.0` does.
    if chunk_rows is not None:
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", chunk_rows)
    banks, y = _group_data(4, [3])
    if zero_rows:
        banks[0][::5] = 0.0
    model = kr.mlp_new((3, *hidden, 1), seed=8)
    cfg = kr.TrainConfig(max_iter=30, batch_size=7, tol=1e-3, patience=3, seed=6)
    trained, report = kr.train(model, banks[0], y, cfg)
    ref, history, converged = _reference_train(model, banks[0], y, cfg)
    assert _same_bytes(trained.weights + trained.biases, ref.weights + ref.biases)
    assert _same_bytes([report.loss_history], [history])
    assert report.converged == converged
    ((solo, solo_report),) = kr.train_many([model], [banks[0]], y, cfg, [cfg.seed])
    assert _same_bytes(trained.weights + trained.biases, solo.weights + solo.biases)
    assert _same_bytes([solo_report.loss_history], [report.loss_history])


def test_epoch_losses_are_the_mean_squared_errors_of_the_stacked_outputs(monkeypatch):
    # the losses are squared and averaged in place of the outputs; their
    # bytes are those of the plain expression on a copy of them
    banks, y = _group_data(7, [2, 3])
    sizes = [(2, 3, 1), (3, 3, 1), (2, 2, 1)]
    assert mlp.lockstep_groups(sizes) == [[0, 1, 2]]
    outputs = []
    real = mlp._outputs

    def recording(*args):
        out = real(*args)
        outputs.append(out.copy())
        return out

    monkeypatch.setattr(mlp, "_outputs", recording)
    cfg = kr.TrainConfig(max_iter=4, batch_size=8, tol=0.0, patience=10)
    outcomes = kr.train_many([kr.mlp_new(s, i) for i, s in enumerate(sizes)], [banks[0], banks[1], banks[0]], y, cfg, [1, 2, 3])
    assert len(outputs) == 5  # the initial losses, then one pass per epoch
    histories = np.array([report.loss_history for _, report in outcomes])
    want = np.array([np.mean((out - y) ** 2, axis=1) for out in outputs[1:]]).T
    assert histories.tobytes() == want.tobytes()


def test_default_fit_matches_the_recorded_weights(pes_8min):
    ref = json.loads((Path(__file__).parent / "data" / "default_fit_100_epochs.json").read_text())
    base = kr.default_best_config()
    cfg = dataclasses.replace(base, train=dataclasses.replace(base.train, max_iter=100, patience=100))
    bundle, report = kr.fit_pipeline(pes_8min[0], cfg)
    assert list(bundle.model.layer_sizes) == ref["layer_sizes"]
    assert report.epochs_run == ref["epochs_run"]
    for got, want in zip(bundle.model.weights + bundle.model.biases, ref["weights"] + ref["biases"]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@st.composite
def mixed_depth_groups(draw):
    in_widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    slots = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(in_widths) - 1),
                st.lists(st.integers(2, 5), min_size=1, max_size=3),
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**32 - 1),
            ),
            min_size=2,
            max_size=5,
        )
    )
    # tol and patience large enough that slots converge, at different epochs, before max_iter
    return in_widths, slots, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([3e-3, 1e-2, 3e-2])), draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(group=mixed_depth_groups())
def test_train_many_slots_match_solo_training(group):
    in_widths, slots, data_seed, tol, patience = group
    banks, y = _group_data(data_seed, in_widths)
    models = [kr.mlp_new((in_widths[b], *hidden, 1), init) for b, hidden, init, _ in slots]
    xs = [banks[b] for b, *_ in slots]
    seeds = [shuffle for *_, shuffle in slots]
    cfg = kr.TrainConfig(max_iter=25, batch_size=8, tol=tol, patience=patience)
    outcomes = kr.train_many(models, xs, y, cfg, seeds)
    assert len(outcomes) == len(models)
    # a slot as wide as its lockstep group is not padded, and trains exactly as alone
    sizes = [model.layer_sizes for model in models]
    group_widths = {i: tuple(map(max, zip(*(sizes[j] for j in g)))) for g in mlp.lockstep_groups(sizes) for i in g}
    for i, (model, X, seed, (trained, report)) in enumerate(zip(models, xs, seeds, outcomes)):
        solo, solo_report = kr.train(model, X, y, dataclasses.replace(cfg, seed=seed))
        assert [w.shape for w in trained.weights] == list(zip(sizes[i], sizes[i][1:]))
        assert [b.shape for b in trained.biases] == [(s,) for s in sizes[i][1:]]
        assert report.epochs_run == solo_report.epochs_run
        assert report.converged == solo_report.converged
        if group_widths[i] == sizes[i]:
            assert _same_bytes(trained.weights + trained.biases, solo.weights + solo.biases)
            assert _same_bytes([report.loss_history], [solo_report.loss_history])
        else:
            for a, b in zip(trained.weights + trained.biases, solo.weights + solo.biases):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            np.testing.assert_allclose(report.loss_history, solo_report.loss_history, rtol=0, atol=1e-12)


def test_train_many_stops_slots_at_different_epochs():
    banks, y = _group_data(1, [2, 3])
    models = [kr.mlp_new(s, i) for i, s in enumerate([(2, 3, 1), (3, 5, 1), (2, 2, 1), (3, 4, 1)])]
    cfg = kr.TrainConfig(max_iter=60, batch_size=8, tol=1e-2, patience=2)
    outcomes = kr.train_many(models, [banks[0], banks[1], banks[0], banks[1]], y, cfg, [1, 2, 3, 4])
    epochs = [report.epochs_run for _, report in outcomes]
    assert len(set(epochs)) == len(epochs)
    assert {report.converged for _, report in outcomes} == {True, False}


def test_train_many_matches_solo_training_when_the_last_batch_is_short():
    # 30 samples in batches of 8: every epoch ends on a 6-sample batch
    banks, y = _group_data(5, [2, 3], n=30)
    sizes = [(2, 3, 2, 1), (3, 4, 2, 1), (2, 2, 3, 1), (3, 3, 3, 1)]
    models = [kr.mlp_new(s, i) for i, s in enumerate(sizes)]
    xs = [banks[0], banks[1], banks[0], banks[1]]
    seeds = [1, 2, 3, 4]
    cfg = kr.TrainConfig(max_iter=40, batch_size=8, tol=1e-2, patience=2)
    assert len(mlp.lockstep_groups(sizes)) == 1
    outcomes = kr.train_many(models, xs, y, cfg, seeds)
    for model, X, seed, (trained, report) in zip(models, xs, seeds, outcomes):
        solo, solo_report = kr.train(model, X, y, dataclasses.replace(cfg, seed=seed))
        for a, b in zip(trained.weights + trained.biases, solo.weights + solo.biases):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        assert report.epochs_run == solo_report.epochs_run
        np.testing.assert_allclose(report.loss_history, solo_report.loss_history, rtol=0, atol=1e-12)
    # the stack shrinks as slots stop, so its batch buffers are rebuilt
    assert len({report.epochs_run for _, report in outcomes}) > 1


def test_train_many_isolates_a_diverging_slot():
    banks, y = _group_data(2, [3])
    models = [kr.mlp_new((3, 4, 1), seed=s) for s in range(3)]
    models[1].weights = [w * 1e200 for w in models[1].weights]
    cfg = kr.TrainConfig(max_iter=10, batch_size=8)
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = kr.train_many(models, [banks[0]] * 3, y, cfg, [5, 6, 7])
    assert isinstance(outcomes[1], TrainingDiverged)
    for k in (0, 2):
        solo, _ = kr.train(models[k], banks[0], y, dataclasses.replace(cfg, seed=5 + k))
        trained, _ = outcomes[k]
        for a, b in zip(trained.weights + trained.biases, solo.weights + solo.biases):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


# Three lockstep groups whose trained weights and loss histories are pinned
# in data/lockstep_groups.json: name -> (bank widths, (bank, hidden) per
# slot, samples, batch size, _CHUNK_ROWS).  In "interleaved" the slots'
# banks alternate, so every run of stack rows that share a bank has one
# row, and the batches of 32 on 8 padded inputs are grid-like.  In "runs"
# they come as runs of 3, 2 and 2 rows, which shrink as slots stop at
# epochs 3, 19 and 20; every epoch ends on a short batch of 12 and the
# losses run in chunks of 7 rows, the last of 4.  OpenBLAS sums layer 0's
# weight gradient in another order for a column-major operand at both
# batch shapes, on 8 padded inputs from 32 rows and on 4 below 32.  "wide"
# has the grid's shapes at widths where OpenBLAS takes other kernels than
# at 4: a 16-unit first layer on 8 padded inputs, batches of 200 and a
# short one of 100, and the losses in the default chunks of 1,200 rows and
# a tail of 100; its banks come in runs of 2, 1, 1 and 2 rows, which
# shrink as slots stop from epoch 30 on.
LOCKSTEP_CASES = {
    "interleaved": ([4, 7], [(0, (4, 3)), (1, (4, 3)), (0, (3, 4)), (1, (3, 3)), (0, (4, 4))], 96, 32, None),
    "runs": ([2, 3, 1], [(0, (3, 2, 2)), (0, (2, 3, 2)), (0, (3, 3, 2)), (1, (2, 2, 3)), (1, (3, 2, 2)), (2, (2, 2, 2)), (2, (3, 3, 3))], 60, 16, 7),
    "wide": ([7, 5], [(0, (16, 8)), (0, (16, 6)), (1, (16, 8)), (0, (16, 4)), (1, (16, 4)), (1, (16, 8))], 1300, 200, None),
}


# Shapes that no other fixture pins, with their trained bytes in
# data/shape_fits.json, in the form of LOCKSTEP_CASES: "no-hidden" is a net
# without a hidden layer, layer sizes (3, 1), whose 60 rows run in batches
# of 16 and a last one of 12; "short-last-batch" a stack of one whose 1,300
# rows run in batches of 200 and a last one of 100; "no-hidden-stack" three
# nets without a hidden layer in one lockstep group.
SHAPE_CASES = {
    "no-hidden": ([3], [(0, ())], 60, 16, None),
    "short-last-batch": ([5], [(0, (8, 4))], 1300, 200, None),
    "no-hidden-stack": ([3, 2], [(0, ()), (1, ()), (0, ())], 60, 16, None),
}


def _lockstep_case(name, monkeypatch):
    """The outcomes of train_many on the named case of LOCKSTEP_CASES or SHAPE_CASES, which trains as one lockstep group."""
    in_widths, slots, n, batch, chunk_rows = {**LOCKSTEP_CASES, **SHAPE_CASES}[name]
    if chunk_rows is not None:
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", chunk_rows)
    banks, _ = _group_data(11, in_widths, n=n)
    y = np.tanh(sum(bank.sum(axis=1) for bank in banks))  # so every slot's losses depend on its bank
    # from these init seeds on, no slot's net is dead (a constant output
    # would not show which bank it read)
    models = [kr.mlp_new((in_widths[b], *hidden, 1), seed=190 + i) for i, (b, hidden) in enumerate(slots)]
    assert len(mlp.lockstep_groups([mo.layer_sizes for mo in models])) == 1
    cfg = kr.TrainConfig(max_iter=40, batch_size=batch, tol=3e-3, patience=2)
    return kr.train_many(models, [banks[b] for b, _ in slots], y, cfg, [30 + i for i in range(len(slots))])


def _hex_floats(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _assert_recorded_bytes(name, fixture, monkeypatch):
    """Assert that the named case trains to the bytes recorded in data/<fixture>."""
    want = json.loads((Path(__file__).parent / "data" / fixture).read_text())["cases"][name]
    outcomes = _lockstep_case(name, monkeypatch)
    assert len(outcomes) == len(want)
    for (net, report), slot in zip(outcomes, want):
        assert [_hex_floats(w) for w in net.weights] == slot["weights"]
        assert [_hex_floats(b) for b in net.biases] == slot["biases"]
        assert _hex_floats(report.loss_history) == slot["loss_history"]
        assert report.converged == slot["converged"]


@pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
def test_lockstep_groups_train_to_the_recorded_bytes(name, monkeypatch):
    # the fixture was written by the row-major stack layout that gathered
    # every slot's bank rows; the layout may change, the bytes may not
    _assert_recorded_bytes(name, "lockstep_groups.json", monkeypatch)


@pytest.mark.parametrize("name", sorted(SHAPE_CASES))
def test_shapes_train_to_the_recorded_bytes(name, monkeypatch):
    # the fixture was written before a step ran as one generated function
    _assert_recorded_bytes(name, "shape_fits.json", monkeypatch)


def test_the_step_is_generated_once_per_restack_and_minibatch_size(monkeypatch):
    # a build costs about a millisecond, more than many steps: one per
    # epoch or step would show in every fit
    builds = []
    real = mlp._traced_step

    def counting(step, ops, buf):
        builds.append(buf.y.shape)  # (stack rows, minibatch size)
        return real(step, ops, buf)

    monkeypatch.setattr(mlp, "_traced_step", counting)
    _lockstep_case("short-last-batch", monkeypatch)
    assert sorted(builds) == [(1, 100), (1, 200)]
    builds.clear()
    # 60 rows in batches of 16 and a last one of 12; the stack shrinks as slots stop
    ends = [report.epochs_run for _, report in _lockstep_case("runs", monkeypatch)]
    stacks = [len(ends)]
    for epoch in sorted(set(ends))[:-1]:
        stacks.append(stacks[-1] - ends.count(epoch))
    assert len(stacks) > 2
    assert sorted(builds) == sorted((k, size) for k in stacks for size in (16, 12))


@pytest.mark.parametrize("k", [1, 3])
def test_the_transposed_weight_views_are_whole_blocks_of_the_stack(k):
    # BLAS reads a transposed operand in place only when each matrix is one
    # memory segment, so the views keep the bias column and the output
    # layer's zero row, and they are views of the stack, not of a copy
    widths = (7, 4, 2, 2, 1)
    params = mlp._fold([kr.mlp_new(widths, seed=s) for s in range(k)], widths)
    for view, block in zip(mlp._layer_views(params, widths, transposed=True), mlp._layer_views(params, widths)):
        assert np.shares_memory(view, params)
        slots = view if k > 1 else view[None]
        assert all(slot.T.flags.c_contiguous for slot in slots)
        assert np.array_equal(view.swapaxes(-2, -1)[..., : block.shape[-2], :], block)
    assert not view[..., 1].any()  # the output layer's zero second unit


@pytest.mark.parametrize("k, calls", [(1, 6 * 4 + 13), (3, 6 * 4 + 14)])
def test_the_generated_step_makes_6l_plus_13_numpy_calls(k, calls, monkeypatch):
    # two gathers, 6L - 2 calls for the pass and 13 for Adam; a larger
    # stack copies its rows into layer 0's block once more.  The backward
    # products read the parameter stack in place, with no gather of it
    bodies, steps = [], []
    real_factory, real_step = mlp._step_factory, mlp._traced_step

    def recording(cells, body):
        bodies.append([line for line in body if not line.startswith("nonlocal ")])
        return real_factory(cells, body)

    def keeping(*args):
        steps.append(real_step(*args))
        return steps[-1]

    monkeypatch.setattr(mlp, "_step_factory", recording)
    monkeypatch.setattr(mlp, "_traced_step", keeping)
    banks, y = _group_data(4, [7], n=40)
    models = [kr.mlp_new((7, 4, 2, 2, 1), seed=s) for s in range(k)]
    kr.train_many(models, [banks[0]] * k, y, kr.TrainConfig(max_iter=1, batch_size=40), list(range(k)))
    assert [len(body) for body in bodies] == [calls]
    assert not any(".take(" in line and "axis=1" in line for line in bodies[0])
    # no call goes through numpy's Python-level dispatcher: the step binds
    # the C function behind it, which numpy exposes as _implementation
    (step,) = steps
    cells = [cell.cell_contents for cell in step.__closure__]
    assert not any(callable(c) and hasattr(c, "_implementation") for c in cells)
    c_function = np.dot._implementation if k == 1 else np.copyto._implementation
    assert any(c is c_function for c in cells)


def test_the_trace_records_an_array_function_as_its_c_function_and_any_other_as_itself():
    trace = mlp._Trace()
    a, b = trace.stand_in([np.zeros(3), np.ones(3)])

    def plain(x, out=None):  # a function without _implementation
        pass

    np.copyto(a, b)  # through the stand-in's __array_function__
    trace.stand_in(plain)(a, out=b)
    np.add(a, b, out=a)
    assert trace.lines == ["c2(c0, c1)", "c3(c0, out=c1)", "c4(c0, c1, out=c0)"]
    assert [type(c) for c in trace.cells[:2]] == [np.ndarray, np.ndarray]
    assert trace.cells[2] is np.copyto._implementation
    assert trace.cells[3] is plain
    assert trace.cells[4] is np.add


def _training_peak(X, y, epochs: int) -> int:
    """The traced peak, in bytes, of training one model on X for exactly `epochs` epochs."""
    cfg = kr.TrainConfig(max_iter=epochs, patience=epochs, batch_size=200)
    model = kr.mlp_new((X.shape[1], 4, 2, 1), seed=1)
    tracemalloc.start()
    try:
        kr.train(model, X, y, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_does_not_grow_with_the_epoch_count():
    # 4,000 samples in 20 steps an epoch: an (n,) or (K, n) array that a
    # step or an epoch left behind would add 32 KB per epoch to the peak
    banks, y = _group_data(9, [3], n=4000)
    _training_peak(banks[0], y, 1)  # lazy set-up stays out of the compared runs
    once, twice = _training_peak(banks[0], y, 3), _training_peak(banks[0], y, 6)
    assert abs(twice - once) < 4 * 1024


def test_train_many_validates_its_group():
    banks, y = _group_data(3, [2])
    cfg = kr.TrainConfig(max_iter=2)
    shallow = kr.mlp_new((2, 3, 1))
    with pytest.raises(DataError, match="one seed per model"):
        kr.train_many([shallow], [banks[0]], y, cfg, [0, 1])
    with pytest.raises(DataError, match="one seed per model"):
        kr.train_many([], [], y, cfg, [])
    with pytest.raises(DataError, match="input width"):
        kr.train_many([kr.mlp_new((3, 2, 1))], [banks[0]], y, cfg, [0])
    with pytest.raises(DataError, match="matching y"):
        kr.train_many([shallow], [banks[0]], y[:-1], cfg, [0])


@pytest.mark.parametrize("seed", [2.5, True, -1, "a", None, float("nan")], ids=repr)
def test_train_many_takes_integer_seeds_only(seed):
    banks, y = _group_data(3, [2])
    with pytest.raises(DataError, match="seed must be an integer"):
        kr.train_many([kr.mlp_new((2, 3, 1))], [banks[0]], y, kr.TrainConfig(max_iter=2), [seed])


def test_gradient_and_train_many_reject_a_target_that_is_not_1d():
    banks, y = _group_data(3, [2])
    model = kr.mlp_new((2, 3, 1))
    with pytest.raises(DataError, match="matching y"):
        kr.gradient(model, banks[0], y[:, None])
    with pytest.raises(DataError, match="matching y"):
        kr.train_many([model], [banks[0]], y[:, None], kr.TrainConfig(max_iter=2), [0])


def test_train_many_checks_every_input_before_any_group_trains(monkeypatch):
    banks, y = _group_data(3, [2])

    def no_training(*args):
        raise AssertionError("a group trained before every input was checked")

    monkeypatch.setattr(mlp, "_train_group", no_training)
    models = [kr.mlp_new((2, 3, 1)), kr.mlp_new((3, 2, 2, 1))]  # the second expects 3 inputs
    with pytest.raises(DataError, match="input width"):
        kr.train_many(models, [banks[0]] * 2, y, kr.TrainConfig(max_iter=2), [0, 1])


def test_lockstep_groups_split_by_depth_and_cover_every_net_once():
    sizes = [(4, 2, 2, 1), (10, 32, 32, 1), (4, 2, 2, 2, 1), (7, 3, 3, 1), (10, 32, 16, 1), (3, 4, 1)]
    groups = mlp.lockstep_groups(sizes)
    assert sorted(i for g in groups for i in g) == list(range(len(sizes)))
    for g in groups:
        assert g == sorted(g)
        assert len({len(sizes[i]) for i in g}) == 1
    assert mlp.lockstep_groups([]) == []


def test_lockstep_groups_pad_narrow_nets_together_but_not_to_wide_ones():
    narrow = [(n_in, *hidden, 1) for n_in in (4, 7) for hidden in ((2, 2), (3, 3), (4, 4), (4, 2))]
    wide = [(10, 32, 32, 1), (4, 32, 32, 1)]
    groups = mlp.lockstep_groups(narrow + wide)
    assert list(range(len(narrow))) in groups
    assert all(set(g) <= set(range(len(narrow))) or set(g) <= {8, 9} for g in groups)
    # two identical wide nets share a step for free
    assert mlp.lockstep_groups([(10, 32, 32, 1)] * 2) == [[0, 1]]
