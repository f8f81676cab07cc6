"""Network construction, forward pass, backprop gradients, and (lockstep) training."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knitrect as kr
from knitrect import mlp
from knitrect.errors import DataError, TrainingDiverged


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
    with pytest.raises(DataError):
        kr.forward_batch(model, np.zeros((5, 4)))
    with pytest.raises(DataError):
        kr.forward(model, np.zeros((2, 3)))


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


def test_trained_parameters_stay_finite(small_bundle):
    for w in small_bundle.model.weights:
        assert np.all(np.isfinite(w))
    for b in small_bundle.model.biases:
        assert np.all(np.isfinite(b))


# --- lockstep training -----------------------------------------------------------


def _reference_train(model, X, y, cfg):
    """The per-model loop train_many replaced: 2-D passes and one Adam update per array."""
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
            acts, zs = [X[idx]], []
            for li, (w, b) in enumerate(zip(net.weights, net.biases)):
                zs.append(acts[-1] @ w + b)
                acts.append(zs[-1] if li == len(net.weights) - 1 else np.maximum(zs[-1], 0.0))
            delta = (2.0 / idx.size) * (acts[-1][:, 0] - y[idx])[:, None]
            gw, gb = [None] * len(net.weights), [None] * len(net.weights)
            for li in range(len(net.weights) - 1, -1, -1):
                gw[li] = acts[li].T @ delta
                gb[li] = delta.sum(axis=0)
                if li > 0:
                    delta = (delta @ net.weights[li].T) * (zs[li - 1] > 0.0)
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


def _group_data(seed, in_widths, n=24):
    rng = np.random.default_rng(seed)
    banks = [rng.normal(size=(n, w)) for w in in_widths]
    y = np.tanh(banks[0].sum(axis=1)) + 0.1 * rng.normal(size=n)
    return banks, y


def test_train_matches_the_reference_loop_bit_for_bit():
    banks, y = _group_data(4, [3])
    model = kr.mlp_new((3, 5, 2, 1), seed=8)
    cfg = kr.TrainConfig(max_iter=30, batch_size=7, tol=1e-3, patience=3, seed=6)
    trained, report = kr.train(model, banks[0], y, cfg)
    ref, history, converged = _reference_train(model, banks[0], y, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(trained.weights + trained.biases, ref.weights + ref.biases))
    assert report.loss_history == history
    assert report.converged == converged
    ((solo, solo_report),) = kr.train_many([model], [banks[0]], y, cfg, [cfg.seed])
    assert all(np.array_equal(a, b) for a, b in zip(trained.weights + trained.biases, solo.weights + solo.biases))
    assert solo_report.loss_history == report.loss_history


@st.composite
def same_depth_groups(draw):
    depth = draw(st.integers(1, 3))
    in_widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    slots = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(in_widths) - 1),
                st.lists(st.integers(2, 5), min_size=depth, max_size=depth),
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
@given(group=same_depth_groups())
def test_train_many_slots_match_solo_training(group):
    in_widths, slots, data_seed, tol, patience = group
    banks, y = _group_data(data_seed, in_widths)
    models = [kr.mlp_new((in_widths[b], *hidden, 1), init) for b, hidden, init, _ in slots]
    xs = [banks[b] for b, *_ in slots]
    seeds = [shuffle for *_, shuffle in slots]
    cfg = kr.TrainConfig(max_iter=25, batch_size=8, tol=tol, patience=patience)
    outcomes = kr.train_many(models, xs, y, cfg, seeds)
    assert len(outcomes) == len(models)
    for model, X, seed, (trained, report) in zip(models, xs, seeds, outcomes):
        solo, solo_report = kr.train(model, X, y, dataclasses.replace(cfg, seed=seed))
        sizes = model.layer_sizes
        assert [w.shape for w in trained.weights] == list(zip(sizes, sizes[1:]))
        assert [b.shape for b in trained.biases] == [(s,) for s in sizes[1:]]
        for a, b in zip(trained.weights + trained.biases, solo.weights + solo.biases):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        assert report.epochs_run == solo_report.epochs_run
        assert report.converged == solo_report.converged
        np.testing.assert_allclose(report.loss_history, solo_report.loss_history, rtol=0, atol=1e-12)


def test_train_many_stops_slots_at_different_epochs():
    banks, y = _group_data(1, [2, 3])
    models = [kr.mlp_new(s, i) for i, s in enumerate([(2, 3, 1), (3, 5, 1), (2, 2, 1), (3, 4, 1)])]
    cfg = kr.TrainConfig(max_iter=60, batch_size=8, tol=1e-2, patience=2)
    outcomes = kr.train_many(models, [banks[0], banks[1], banks[0], banks[1]], y, cfg, [1, 2, 3, 4])
    epochs = [report.epochs_run for _, report in outcomes]
    assert len(set(epochs)) == len(epochs)
    assert {report.converged for _, report in outcomes} == {True, False}


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


def test_train_many_validates_its_group():
    banks, y = _group_data(3, [2])
    cfg = kr.TrainConfig(max_iter=2)
    shallow, deep = kr.mlp_new((2, 3, 1)), kr.mlp_new((2, 3, 3, 1))
    with pytest.raises(DataError, match="one depth"):
        kr.train_many([shallow, deep], [banks[0]] * 2, y, cfg, [0, 1])
    with pytest.raises(DataError, match="one seed per model"):
        kr.train_many([shallow], [banks[0]], y, cfg, [0, 1])
    with pytest.raises(DataError, match="one seed per model"):
        kr.train_many([], [], y, cfg, [])
    with pytest.raises(DataError, match="input width"):
        kr.train_many([kr.mlp_new((3, 2, 1))], [banks[0]], y, cfg, [0])
    with pytest.raises(DataError, match="matching y"):
        kr.train_many([shallow], [banks[0]], y[:-1], cfg, [0])


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
