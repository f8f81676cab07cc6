"""End-to-end rectifier assembly: config, preparation, fitting, streaming, bundles."""

import dataclasses
import io
import json
import re
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knitrect as kr
from knitrect import mlp, pipeline
from knitrect.errors import DataError, NumericError
from knitrect.series import fmt

# --- configuration ---------------------------------------------------------------


def test_default_best_config_values():
    cfg = kr.default_best_config()
    assert cfg.rate_hz == 20.0
    assert cfg.alpha_base == 2.5
    assert cfg.alpha_count == 7
    assert cfg.hidden == (4, 2, 2)
    assert cfg.target == "force"
    assert cfg.init_seed == 0
    assert cfg.feature_set().label == "a2.5_n7"


def test_config_dict_round_trip():
    cfg = kr.PipelineConfig(
        rate_hz=10.0,
        alpha_base=5.0,
        alpha_count=4,
        hidden=(8, 4),
        target="displacement",
        train=kr.TrainConfig(max_iter=500, batch_size=32, seed=9),
        init_seed=3,
    )
    assert kr.config_from_dict(kr.config_to_dict(cfg)) == cfg


def test_config_from_partial_dict_keeps_defaults():
    cfg = kr.config_from_dict({"hidden": [8, 4], "train": {"max_iter": 50}})
    assert cfg.hidden == (8, 4)
    assert cfg.train.max_iter == 50
    assert cfg.rate_hz == 20.0
    assert cfg.train.learning_rate == kr.TrainConfig().learning_rate


def test_config_explicit_null_base_selects_baseline():
    cfg = kr.config_from_dict({"alpha_base": None})
    assert cfg.feature_set().label == "baseline"


# configs whose feature set or network smoothing's or mlp's rules refuse
UNBUILDABLE_CONFIGS = [
    pytest.param({"alpha_base": 1.0}, "base a must be a finite number > 1, got 1.0", id="base-1"),
    pytest.param({"alpha_base": 1e308, "alpha_count": 3}, re.escape("base 1e+308 to the power 3 overflows"), id="base-overflows"),
    pytest.param({"hidden": [5000, 5000]}, "at most 100,000 parameters", id="net-past-the-cap"),
]


@pytest.mark.parametrize("doc, match", UNBUILDABLE_CONFIGS)
def test_config_checks_its_feature_set_and_network_when_made(doc, match):
    # each was taken, and failed only once training had read its recording
    with pytest.raises(DataError, match=match):
        kr.PipelineConfig(**doc)
    with pytest.raises(DataError, match=match):
        kr.load_config(io.StringIO(json.dumps(doc)))


def test_config_dict_rejects_unknown_keys():
    with pytest.raises(DataError, match="unknown config keys"):
        kr.config_from_dict({"rate": 20.0})
    with pytest.raises(DataError, match="unknown train config keys"):
        kr.config_from_dict({"train": {"lr": 0.1}})
    with pytest.raises(DataError, match="'train' must be an object"):
        kr.config_from_dict({"train": 5})


def test_config_validation():
    with pytest.raises(DataError):
        kr.PipelineConfig(rate_hz=0.0)
    with pytest.raises(DataError):
        kr.PipelineConfig(hidden=(4, 1))
    with pytest.raises(DataError):
        kr.PipelineConfig(target="velocity")
    with pytest.raises(DataError):
        kr.PipelineConfig(alpha_count=0)
    assert kr.PipelineConfig(hidden=[8.0, 4]).hidden == (8, 4)
    bad = [
        {"rate_hz": float("nan")},
        {"rate_hz": float("inf")},
        {"rate_hz": "fast"},
        {"rate_hz": True},
        {"alpha_base": float("nan")},
        {"alpha_base": "2.5"},
        {"alpha_count": None},
        {"alpha_count": 2.5},
        {"hidden": 5},
        {"hidden": "42"},
        {"hidden": [4, 2.5]},
        {"hidden": [True, 4]},
        {"hidden": [4, None]},
        {"init_seed": -1},
        {"init_seed": "z"},
    ]
    for kwargs in bad:
        with pytest.raises(DataError):
            kr.PipelineConfig(**kwargs)
    assert kr.PipelineConfig(alpha_base=None, alpha_count=None).feature_set().label == "baseline"
    assert type(kr.PipelineConfig(hidden=[8.0]).hidden[0]) is int


# JSON-like trees whose object keys are mostly real config field names
CONFIG_KEYS = st.sampled_from(
    [f.name for f in dataclasses.fields(kr.PipelineConfig)] + [f.name for f in dataclasses.fields(kr.TrainConfig)]
) | st.text(max_size=6)
JSON_SCALARS = st.none() | st.booleans() | st.integers(0, 64) | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(CONFIG_KEYS, inner, max_size=4),
    max_leaves=12,
)


def _replace_one_field(data, parent, key):
    """Walk down from parent[key] to a drawn field and replace it with a drawn JSON value."""
    while isinstance(parent[key], (dict, list)) and parent[key] and not data.draw(st.booleans()):
        node = parent[key]
        parent, key = node, data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    parent[key] = data.draw(JSON_VALUES)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_config_from_dict_returns_a_config_or_raises_data_error(data):
    # either a random tree or a full config with one field replaced
    holder = {"doc": kr.config_to_dict(kr.PipelineConfig())}
    if data.draw(st.booleans()):
        holder["doc"] = data.draw(st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=6) | JSON_VALUES)
    else:
        _replace_one_field(data, holder, "doc")
    try:
        cfg = kr.config_from_dict(holder["doc"])
    except DataError:
        return
    assert isinstance(cfg, kr.PipelineConfig)
    plain = kr.config_to_dict(cfg)
    json.dumps(plain, allow_nan=False)
    assert kr.config_from_dict(plain) == cfg


def test_load_config_reads_a_path_or_a_stream(tmp_path):
    doc = {"alpha_base": 5.0, "alpha_count": 4, "hidden": [8, 4], "train": {"max_iter": 500}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    want = kr.config_from_dict(doc)
    assert kr.load_config(path) == want
    assert kr.load_config(str(path)) == want
    stream = io.StringIO(json.dumps(doc))
    assert kr.load_config(stream) == want
    assert not stream.closed  # a caller's stream stays open


def test_load_config_rejects_bad_json_undecodable_bytes_and_bad_settings(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"hidden": [4, 2')
    with pytest.raises(DataError, match=r"bad config file .*cfg\.json: "):
        kr.load_config(path)
    with pytest.raises(DataError, match="bad config file input: "):
        kr.load_config(io.StringIO("not json"))
    path.write_bytes(b'{"target": "f\xffrce"}')
    with pytest.raises(DataError, match="cfg.json is not utf-8 text"):
        kr.load_config(path)
    with pytest.raises(DataError, match="unknown config keys"):
        kr.load_config(io.StringIO('{"colour": 1}'))


@pytest.mark.parametrize(
    "text", ['{"init_seed": 1' + "0" * 5000 + "}", "[" * 100_000 + "]" * 100_000], ids=["long integer", "deep nesting"]
)
def test_json_loaders_turn_every_parse_failure_into_a_data_error(text):
    with pytest.raises(DataError, match="bad config file input: "):
        kr.load_config(io.StringIO(text))
    with pytest.raises(DataError, match="corrupted bundle file: "):
        kr.load_bundle(io.StringIO(text))


# --- preparation -----------------------------------------------------------------


def test_prepare_resamples_and_standardizes(pes_small):
    rec = pes_small[0]
    prep = kr.prepare(rec, 20.0, "force")
    span = rec.t_s[-1] - rec.t_s[0]
    assert len(prep) == int(np.floor(span * 20.0 + 1e-9)) + 1
    assert abs(prep.g_bar.mean()) < 1e-9
    assert abs(prep.g_bar.std() - 1.0) < 1e-6
    assert abs(prep.target_bar.mean()) < 1e-9
    assert prep.scaler_source == rec.source_label == "pes-train-seed7"


def test_prepare_feature_channel_is_target_independent(pes_small):
    rec = pes_small[0]
    by_force = kr.prepare(rec, 20.0, "force")
    by_disp = kr.prepare(rec, 20.0, "displacement")
    assert np.array_equal(by_force.g_bar, by_disp.g_bar)
    assert not np.array_equal(by_force.target_bar, by_disp.target_bar)


def test_prepare_rejects_flat_resistance():
    t = np.linspace(0.0, 5.0, 200)
    rec = kr.RawRecording(t, np.sin(t) + 2.0, np.full(t.size, 100.0), np.zeros(t.size))
    with pytest.raises(DataError, match="zero variance"):
        kr.prepare(rec, 20.0, "force")


def test_prepare_with_scalers_reuses_training_parameters(pes_small):
    train = kr.prepare(pes_small[0], 20.0, "force")
    test = kr.prepare_with_scalers(
        pes_small[1], 20.0, "force", train.scaler_g, train.scaler_t, train.scaler_source
    )
    assert test.scaler_g == train.scaler_g
    assert test.scaler_source == "pes-train-seed7"
    assert test.source_label == "pes-test_a-seed7"
    # borrowed scalers mean the test channel is not re-centered on itself
    assert abs(test.g_bar.mean()) > 1e-9


# --- fitting and prediction --------------------------------------------------------


def test_fit_pipeline_is_deterministic(pes_small, quick_config):
    cfg = dataclasses.replace(quick_config, train=dataclasses.replace(quick_config.train, max_iter=60))
    b1, r1 = kr.fit_pipeline(pes_small[0], cfg)
    b2, r2 = kr.fit_pipeline(pes_small[0], cfg)
    for w1, w2 in zip(b1.model.weights, b2.model.weights):
        assert np.array_equal(w1, w2)
    for c1, c2 in zip(b1.model.biases, b2.model.biases):
        assert np.array_equal(c1, c2)
    assert r1.loss_history == r2.loss_history


def test_fit_pipeline_rejects_a_dead_network(pes_8min):
    # init seed 1 switches every ReLU path off within a few epochs: a constant output
    cfg = dataclasses.replace(kr.default_best_config(), init_seed=1)
    with pytest.raises(NumericError, match="init seed 1 gave a dead network"):
        kr.fit_pipeline(pes_8min[0], cfg)


def test_fit_pipeline_records_provenance(small_bundle):
    prov = small_bundle.provenance
    assert prov["train_source"] == "pes-train-seed7"
    assert prov["init_seed"] == 0
    assert prov["shuffle_seed"] == 0
    assert prov["train_epochs"] >= 1
    assert np.isfinite(prov["train_best_loss"])
    assert "created_utc" in prov


def test_predict_on_training_data_matches_fit_time_score(small_bundle, pes_small):
    prepared = kr.prepare(pes_small[0], small_bundle.config.rate_hz, small_bundle.config.target)
    feats = kr.feature_bank_with_windows(
        prepared.g_series(), small_bundle.alphas, small_bundle.init_windows
    )
    fit_r2 = kr.r_squared(prepared.target_bar, kr.forward_batch(small_bundle.model, feats.values))
    _, card = kr.predict_batch(small_bundle, pes_small[0])
    assert abs(card.r2_post - fit_r2) <= 1e-9


def test_predict_batch_improves_on_raw_channel(small_bundle, pes_small):
    _, card = kr.predict_batch(small_bundle, pes_small[1])
    assert card.r2_post > card.r2_pre
    assert card.gain == card.r2_post - card.r2_pre


def test_write_prediction_csv(small_bundle, pes_small, tmp_path):
    out = tmp_path / "pred.csv"
    card = kr.write_prediction_csv(small_bundle, pes_small[1], out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,g_bar,p,target_bar"
    series, card2 = kr.predict_batch(small_bundle, pes_small[1])
    assert len(lines) - 1 == series.values.size
    assert card == card2


def test_evaluate_scores_both_tests_and_pools_raw_units(small_bundle, pes_small):
    ev = kr.evaluate(small_bundle, pes_small[1], pes_small[2])
    (series_a, card_a), (series_b, card_b) = (kr.predict_batch(small_bundle, rec) for rec in pes_small[1:])
    assert (ev.card_a, ev.card_b) == (card_a, card_b)
    assert ev.combined_error == kr.combined_error(card_a.r2_post, card_b.r2_post)
    assert ev.rows() == card_a.rows("test_a") + card_b.rows("test_b") + [("combined_error", ev.combined_error)]
    rate = small_bundle.config.rate_hz
    truth = [kr.resample(rec.t_s, rec.force_n, rate).values for rec in pes_small[1:]]
    assert np.array_equal(ev.truth, np.concatenate(truth))
    assert np.array_equal(ev.post, small_bundle.scaler_t.inverse(np.concatenate([series_a.values, series_b.values])))
    assert ev.pre.shape == ev.truth.shape


def _identity_bundle(rec):
    """A bundle whose network passes its one filter's column through unchanged.

    Its single filter has alpha 1/2 and an init window of 1 sample at 20 Hz,
    so the bank has no warm-up; returns the bundle and that column.
    """
    cfg = kr.PipelineConfig(alpha_base=2.0, alpha_count=1, hidden=())
    prep = kr.prepare(rec, cfg.rate_hz, cfg.target)
    aset = cfg.feature_set()
    windows = kr.bank_windows(aset, cfg.rate_hz, len(prep))
    assert windows == (1,)
    model = kr.MlpModel(
        layer_sizes=(1, 1),
        weights=[np.array([[1.0]])],
        biases=[np.array([0.0])],
        seed=0,
    )
    bundle = kr.PipelineBundle(
        config=cfg,
        alphas=aset.alphas,
        init_windows=windows,
        scaler_g=prep.scaler_g,
        scaler_t=prep.scaler_t,
        model=model,
        provenance={"train_source": rec.source_label},
    )
    column = kr.feature_bank_with_windows(prep.g_series(), aset.alphas, windows).values[:, 0]
    return bundle, prep, column


def test_identity_network_passes_the_first_filter_through(pes_small):
    bundle, prep, column = _identity_bundle(pes_small[0])
    series, card = kr.predict_batch(bundle, pes_small[0])
    assert np.array_equal(series.values, column)
    assert card.r2_pre == kr.r_squared(prep.target_bar, prep.g_bar)
    assert card.r2_post == kr.r_squared(prep.target_bar, column)


def test_bundle_cross_validation():
    model = kr.mlp_new((3, 2, 1), 0)
    with pytest.raises(DataError, match="input width"):
        kr.PipelineBundle(
            config=kr.PipelineConfig(),
            alphas=(0.5, 0.1),
            init_windows=(1, 1),
            scaler_g=kr.ScalerParams(0.0, 1.0),
            scaler_t=kr.ScalerParams(0.0, 1.0),
            model=model,
            provenance={},
        )
    with pytest.raises(DataError, match="init windows"):
        kr.PipelineBundle(
            config=kr.PipelineConfig(),
            alphas=(0.5, 0.1, 0.025),
            init_windows=(1, 1),
            scaler_g=kr.ScalerParams(0.0, 1.0),
            scaler_t=kr.ScalerParams(0.0, 1.0),
            model=model,
            provenance={},
        )


@pytest.mark.parametrize("alphas, init_windows", [(0.5, (1,)), ((0.5, 0.1, 0.025), 1)])
def test_a_bundle_whose_alphas_or_windows_are_not_sequences_cannot_be_built(small_bundle, alphas, init_windows):
    # alphas=0.5 raised TypeError: 'float' object is not iterable
    with pytest.raises(DataError, match="alphas and init windows must be sequences"):
        dataclasses.replace(small_bundle, alphas=alphas, init_windows=init_windows)


def test_a_bundle_whose_alphas_disagree_with_its_config_cannot_be_built(small_bundle):
    # such a bundle would save, and then fail to load
    with pytest.raises(DataError, match="bundle alphas disagree with the config's feature set"):
        dataclasses.replace(small_bundle, config=dataclasses.replace(small_bundle.config, alpha_base=5.0))


@pytest.fixture(scope="module")
def lycra_8min():
    """Three 8-minute Lycra recordings with the calibration seed."""
    return kr.make_dataset(42, kr.LYCRA_PRESET, duration_s=480.0)


@pytest.mark.parametrize("target", ["force", "displacement"])
def test_default_config_rectifies_the_lycra_sensor(lycra_8min, target):
    cfg = dataclasses.replace(kr.default_best_config(), target=target)
    bundle, _ = kr.fit_pipeline(lycra_8min[0], cfg)
    ev = kr.evaluate(bundle, lycra_8min[1], lycra_8min[2])
    for card in (ev.card_a, ev.card_b):
        assert card.r2_post >= 0.90 and card.gain >= 0.10, card


# --- streaming -------------------------------------------------------------------


def test_stream_matches_batch_after_warmup(small_bundle, pes_small):
    rec = pes_small[1]
    rate = small_bundle.config.rate_hz
    r_series = kr.resample(rec.t_s, rec.resistance_ohm, rate)
    batch, _ = kr.predict_batch(small_bundle, rec)

    session = kr.open_stream(small_bundle)
    warmup = max(small_bundle.init_windows) - 1
    outs = []
    for i, r in enumerate(r_series.values):
        out = kr.stream_push(session, (r_series.t0 + i / rate, float(r)))
        if i < warmup:
            assert out is None
        else:
            outs.append(out)
    assert len(outs) == batch.values.size - warmup
    assert np.abs(np.asarray(outs) - batch.values[warmup:]).max() <= 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), duration_s=st.floats(min_value=5.0, max_value=60.0))
def test_stream_equals_the_tail_of_predict_batch_on_any_recording(small_bundle, seed, duration_s):
    traj_seed, sensor_seed = kr.SimSeed(seed).recording_seeds(1)
    rec = kr.simulate_sensor(kr.gen_trajectory(traj_seed, duration_s), kr.PES_PRESET, sensor_seed)
    r_series = kr.resample(rec.t_s, rec.resistance_ohm, small_bundle.config.rate_hz)
    batch, _ = kr.predict_batch(small_bundle, rec)
    session = kr.open_stream(small_bundle)
    outs = [kr.stream_push(session, (t, r)) for t, r in zip(r_series.timestamps().tolist(), r_series.values.tolist())]
    warmup = max(small_bundle.init_windows) - 1
    assert all(o is None for o in outs[:warmup])
    assert len(outs) - warmup == batch.values.size - warmup > 0
    assert np.abs(np.asarray(outs[warmup:]) - batch.values[warmup:]).max() <= 1e-12


# scaler of the drawn stream bundles: g_bar = (1/R - 2e-4) / 1e-4 lies in
# [-1, 8] for R in [1e3, 1e4]
STREAM_SCALER_G = kr.ScalerParams(2e-4, 1e-4)
STREAM_R = st.floats(1e3, 1e4)
# rejected after the warm-up: NaN, non-positive, and a conductance that overflows
BAD_R = (float("nan"), 0.0, -5.0, 1e-320)


def _stream_bundle(base, windows, sizes, seed):
    """A bundle of len(windows) geometric filters and a net of these layer sizes with nonzero biases."""
    cfg = kr.PipelineConfig(alpha_base=base, alpha_count=len(windows), hidden=tuple(sizes[1:-1]))
    model = kr.mlp_new(sizes, seed)
    rng = np.random.default_rng(seed)
    for b in model.biases:
        b += rng.normal(scale=0.5, size=b.size)
    return kr.PipelineBundle(
        config=cfg,
        alphas=cfg.feature_set().alphas,
        init_windows=tuple(windows),
        scaler_g=STREAM_SCALER_G,
        scaler_t=kr.ScalerParams(0.0, 1.0),
        model=model,
        provenance={},
    )


def _bits(x):
    return None if x is None else struct.pack("d", x)


def _assert_stream_is_bank_push_then_forward(bundle, rs):
    session = kr.open_stream(bundle)
    bank = kr.make_bank(bundle.alphas, bundle.init_windows)
    scaler = bundle.scaler_g
    warmup = max(bundle.init_windows) - 1
    for i, r in enumerate(rs):
        row = kr.bank_push(bank, (1.0 / r - scaler.mean) / scaler.scale)
        want = None if row is None else kr.forward(bundle.model, row)
        assert (row is None) == (i < warmup)
        assert _bits(kr.stream_push(session, (0.0, r))) == _bits(want)
    assert session.samples_seen == len(rs)


def test_stream_push_is_bank_push_then_forward_bit_for_bit(small_bundle, pes_small):
    rec = pes_small[2]
    r_series = kr.resample(rec.t_s, rec.resistance_ohm, small_bundle.config.rate_hz)
    _assert_stream_is_bank_push_then_forward(small_bundle, r_series.values.tolist())


@st.composite
def stream_bundles(draw):
    windows = draw(st.lists(st.integers(1, 8), min_size=1, max_size=10))
    hidden = draw(st.lists(st.integers(2, 6), max_size=2))  # depth 1-3
    base = draw(st.floats(1.05, 20.0))
    return _stream_bundle(base, windows, (len(windows), *hidden, 1), draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None)
@given(bundle=stream_bundles(), data=st.data())
def test_stream_session_is_bank_push_then_forward_bit_for_bit(bundle, data):
    # from one sample short of the first output to a few past it
    warmup = max(bundle.init_windows) - 1
    rs = data.draw(st.lists(STREAM_R, min_size=warmup, max_size=warmup + 12))
    _assert_stream_is_bank_push_then_forward(bundle, rs)


# (3, h, 1) has 5h + 1 parameters, so (3, (bound - 1) // 5, 1) is the
# widest net on three filters within mlp._KERNEL_MAX_PARAMS and streams
# through forward's straight-line kernel, as does the grid net
# (7, 16, 8, 1); the next width, the grid net (10, 16, 8, 8, 1) and
# (3, 1500, 1) stream through the one-row numpy pass
_WIDEST = (mlp._KERNEL_MAX_PARAMS - 1) // 5


@pytest.mark.parametrize(
    "sizes, kernel",
    [
        ((3, _WIDEST, 1), True),
        ((7, 16, 8, 1), True),
        ((3, _WIDEST + 1, 1), False),
        ((10, 16, 8, 8, 1), False),
        ((3, 1500, 1), False),
    ],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_stream_session_on_both_sides_of_the_kernel_bound_is_bank_push_then_forward(sizes, kernel):
    n = sizes[0]
    bundle = _stream_bundle(2.0, tuple(range(1, 2 * n, 2)), sizes, seed=4)
    assert (mlp._param_count(sizes) <= mlp._KERNEL_MAX_PARAMS) == kernel
    rs = np.random.default_rng(4).uniform(1e3, 1e4, size=2 * n + 14).tolist()
    _assert_stream_is_bank_push_then_forward(bundle, rs)


@settings(max_examples=40, deadline=None)
@given(bundle=stream_bundles(), data=st.data())
def test_a_sample_rejected_after_warmup_leaves_the_stream_as_if_unseen(bundle, data):
    warmup = max(bundle.init_windows) - 1
    rs = data.draw(st.lists(STREAM_R, min_size=warmup + 2, max_size=warmup + 10))
    at = data.draw(st.integers(warmup + 1, len(rs) - 1))  # after the first output
    bad = data.draw(st.sampled_from(BAD_R))
    seen, unseen = kr.open_stream(bundle), kr.open_stream(bundle)
    for i, r in enumerate(rs):
        if i == at:
            with pytest.raises(DataError):
                kr.stream_push(seen, (0.0, bad))
            assert seen.samples_seen == unseen.samples_seen == i
        assert _bits(kr.stream_push(seen, (0.0, r))) == _bits(kr.stream_push(unseen, (0.0, r)))
    assert seen.samples_seen == unseen.samples_seen == len(rs)


def test_stream_of_a_net_above_the_kernel_bound_matches_forward_batch(small_bundle, pes_small):
    # (3, 5000, 1) has 25,001 parameters, past mlp._KERNEL_MAX_PARAMS, so it
    # streams through the filter step and then the one-row numpy pass; a
    # compiled unit of 5,000 terms in one expression would raise
    # RecursionError
    cfg = dataclasses.replace(small_bundle.config, alpha_count=3, hidden=(5000,))
    aset = cfg.feature_set()
    model = kr.mlp_new((3, 5000, 1), seed=5)
    model.biases[0] += np.random.default_rng(5).normal(scale=0.5, size=5000)
    bundle = dataclasses.replace(
        small_bundle,
        config=cfg,
        alphas=aset.alphas,
        init_windows=kr.bank_windows(aset, cfg.rate_hz, 10**6),
        model=model,
    )
    rec = pes_small[2]
    r_series = kr.resample(rec.t_s, rec.resistance_ohm, cfg.rate_hz)
    n = 60
    assert max(bundle.init_windows) == 1  # so the first n rows need only the first n samples
    session = kr.open_stream(bundle)
    outs = [kr.stream_push(session, (0.0, r)) for r in r_series.values[:n].tolist()]
    batch = kr.predict_batch(bundle, rec)[0].values[:n]
    assert np.abs(np.asarray(outs) - batch).max() <= 1e-12


def test_a_plain_bank_and_an_assigned_bank_leave_a_stream_session_alone(small_bundle, pes_small):
    # the session's bank was once its public field: a bank assigned to it
    # took the session's pushes, and once warm stream_push returned the
    # list of its filter values; bank_push into it moved the session's
    # filters
    rec = pes_small[2]
    rs = kr.resample(rec.t_s, rec.resistance_ohm, small_bundle.config.rate_hz).values[: max(small_bundle.init_windows) + 3].tolist()
    scaler = small_bundle.scaler_g
    session, lone = kr.open_stream(small_bundle), kr.open_stream(small_bundle)
    bank = kr.make_bank(small_bundle.alphas, small_bundle.init_windows)
    session.bank = bank
    for i, r in enumerate(rs):
        kr.bank_push(bank, (1.0 / r - scaler.mean) / scaler.scale)
        if i == len(rs) // 2:
            session.bank = kr.make_bank(small_bundle.alphas, small_bundle.init_windows)
        out = kr.stream_push(session, (0.0, r))
        assert out is None or type(out) is float
        assert _bits(out) == _bits(kr.stream_push(lone, (0.0, r)))
    assert session.samples_seen == lone.samples_seen == len(rs)


def test_stream_identity_bundle_is_exact(pes_small):
    bundle, _, column = _identity_bundle(pes_small[0])
    session = kr.open_stream(bundle)
    rate = bundle.config.rate_hz
    r_series = kr.resample(pes_small[0].t_s, pes_small[0].resistance_ohm, rate)
    outs = [kr.stream_push(session, (0.0, float(r))) for r in r_series.values]
    assert np.array_equal(np.asarray(outs), column)  # no warmup with window 1


def test_stream_rejects_bad_samples(small_bundle):
    session = kr.open_stream(small_bundle)
    with pytest.raises(DataError, match="non-positive resistance"):
        kr.stream_push(session, (0.0, 0.0))
    with pytest.raises(DataError, match="non-positive resistance"):
        kr.stream_push(session, (0.0, float("nan")))
    assert session.samples_seen == 0


def _assert_stream_as_if_fresh(bundle, session):
    # the next pushes, past the warm-up, match a fresh session's bit for bit
    fresh = kr.open_stream(bundle)
    for i in range(max(bundle.init_windows) + 3):
        sample = (0.0, 1000.0 + 10.0 * i)
        assert _bits(kr.stream_push(session, sample)) == _bits(kr.stream_push(fresh, sample))
    assert session.samples_seen == fresh.samples_seen


@pytest.mark.parametrize(
    "sample",
    [
        5.0,
        (0.0, "x"),
        (0.0, 1000.0, 1.0),
        (0.0, None),
        (0.0, 1j),
        pytest.param((0.0, 10**400), id="(0.0, 10**400)"),
        # more digits than repr prints (sys.get_int_max_str_digits)
        pytest.param((0.0, 10**5000), id="(0.0, 10**5000)"),
    ],
    ids=repr,
)
def test_stream_rejects_a_malformed_sample(small_bundle, sample):
    session = kr.open_stream(small_bundle)
    for _ in range(2):
        with pytest.raises(DataError, match="must be a \\(t, R\\) pair"):
            kr.stream_push(session, sample)
    assert session.samples_seen == 0
    _assert_stream_as_if_fresh(small_bundle, session)


@pytest.mark.parametrize("r", [1e-320, 5e-324])
def test_stream_rejects_a_resistance_whose_conductance_overflows(small_bundle, r):
    session = kr.open_stream(small_bundle)
    for _ in range(2):
        with pytest.raises(DataError, match=f"R={r!r}.*overflows"):
            kr.stream_push(session, (0.0, r))
    assert session.samples_seen == 0
    _assert_stream_as_if_fresh(small_bundle, session)


# --- serialization ---------------------------------------------------------------


def test_bundle_round_trip_is_loss_free(small_bundle, tmp_path):
    path = tmp_path / "rectifier.json"
    kr.save_bundle(small_bundle, path)
    back = kr.load_bundle(path)
    assert back.config == small_bundle.config
    assert back.alphas == small_bundle.alphas
    assert back.init_windows == small_bundle.init_windows
    assert back.scaler_g == small_bundle.scaler_g
    assert back.scaler_t == small_bundle.scaler_t
    assert back.provenance == small_bundle.provenance
    assert back.model.layer_sizes == small_bundle.model.layer_sizes
    for w1, w2 in zip(back.model.weights, small_bundle.model.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(back.model.biases, small_bundle.model.biases):
        assert np.array_equal(b1, b2)


def test_bundle_reformatted_file_still_loads(small_bundle, tmp_path):
    path = tmp_path / "rectifier.json"
    kr.save_bundle(small_bundle, path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(doc))  # strip indentation, reorder nothing
    back = kr.load_bundle(path)
    assert back.alphas == small_bundle.alphas


def test_bundle_rejects_corruption(small_bundle, tmp_path):
    path = tmp_path / "rectifier.json"
    kr.save_bundle(small_bundle, path)
    text = path.read_text()

    truncated = tmp_path / "cut.json"
    truncated.write_text(text[: len(text) // 2])
    with pytest.raises(DataError, match="corrupted bundle file"):
        kr.load_bundle(truncated)

    doc = json.loads(text)
    doc["payload"]["alphas"][0] = 0.123
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="checksum mismatch"):
        kr.load_bundle(edited)

    doc = json.loads(text)
    doc["format"] = "something-else"
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="not a rectifier bundle"):
        kr.load_bundle(other)

    doc = json.loads(text)
    doc["version"] = 99
    vers = tmp_path / "vers.json"
    vers.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="unsupported bundle version"):
        kr.load_bundle(vers)


def _resigned(doc, tmp_path, name):
    """Write doc with its checksum recomputed, so only the payload check can reject it."""
    doc["sha256"] = pipeline._payload_checksum(doc["payload"])
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_bundle_returns_a_bundle_or_raises_data_error(small_bundle, data):
    sink = io.StringIO()
    kr.save_bundle(small_bundle, sink)
    doc = json.loads(sink.getvalue())
    _replace_one_field(data, doc, "payload")
    doc["sha256"] = pipeline._payload_checksum(doc["payload"])
    try:
        bundle = kr.load_bundle(io.StringIO(json.dumps(doc)))
    except DataError:
        return
    assert isinstance(bundle, kr.PipelineBundle)


V1_PAYLOAD_KEYS = {
    "alphas": None,
    "config": {
        "alpha_base": None,
        "alpha_count": None,
        "hidden": None,
        "init_seed": None,
        "rate_hz": None,
        "target": None,
        "train": {
            "batch_size": None,
            "learning_rate": None,
            "max_iter": None,
            "patience": None,
            "seed": None,
            "tol": None,
        },
    },
    "init_windows": None,
    "model": {"biases": None, "layer_sizes": None, "seed": None, "weights": None},
    "provenance": {
        "created_utc": None,
        "init_seed": None,
        "shuffle_seed": None,
        "train_best_loss": None,
        "train_epochs": None,
        "train_source": None,
    },
    "scaler_g": {"mean": None, "scale": None},
    "scaler_t": {"mean": None, "scale": None},
}
V1_DATA = Path(__file__).parent / "data"


def _key_tree(node):
    return {k: _key_tree(v) for k, v in node.items()} if isinstance(node, dict) else None


def test_bundle_file_keeps_the_v1_layout(small_bundle):
    sink = io.StringIO()
    kr.save_bundle(small_bundle, sink)
    for text in (sink.getvalue(), (V1_DATA / "bundle_v1.json").read_text()):
        doc = json.loads(text)
        assert sorted(doc) == ["format", "payload", "sha256", "version"]
        assert (doc["format"], doc["version"]) == ("knitrect-bundle", 1)
        assert _key_tree(doc["payload"]) == V1_PAYLOAD_KEYS


@pytest.mark.parametrize("doc, match", UNBUILDABLE_CONFIGS)
def test_load_bundle_rejects_a_v1_bundle_whose_config_cannot_be_built(doc, match, tmp_path):
    bundle_doc = json.loads((V1_DATA / "bundle_v1.json").read_text())
    bundle_doc["payload"]["config"].update(doc)
    with pytest.raises(DataError, match=match):
        kr.load_bundle(_resigned(bundle_doc, tmp_path, "edited.json"))


def test_a_v1_bundle_file_loads_predicts_and_saves_as_written(tmp_path):
    """tests/data holds a bundle, an input and its prediction CSV written by the v1 code."""
    bundle = kr.load_bundle(V1_DATA / "bundle_v1.json")
    out = tmp_path / "predict.csv"
    kr.write_prediction_csv(bundle, kr.load_recording(V1_DATA / "bundle_v1_input.csv"), out)
    assert out.read_text() == (V1_DATA / "bundle_v1_predict.csv").read_text()
    sink = io.StringIO()
    kr.save_bundle(bundle, sink)
    assert sink.getvalue() == (V1_DATA / "bundle_v1.json").read_text()


def test_write_prediction_csv_equals_the_per_row_format():
    bundle = kr.load_bundle(V1_DATA / "bundle_v1.json")
    rec = kr.load_recording(V1_DATA / "bundle_v1_input.csv")
    cfg = bundle.config
    prepared = kr.prepare_with_scalers(rec, cfg.rate_hz, cfg.target, bundle.scaler_g, bundle.scaler_t, "")
    predicted, _ = kr.predict_batch(bundle, rec)
    rows = zip(predicted.timestamps(), prepared.g_bar, predicted.values, prepared.target_bar)
    want = "t_s,g_bar,p,target_bar\n" + "".join(f"{fmt(t)},{fmt(g)},{fmt(p)},{fmt(tb)}\n" for t, g, p, tb in rows)
    assert want == (V1_DATA / "bundle_v1_predict.csv").read_text()
    n = len(predicted)
    for block_rows in (1, 7, n - 1, n, n + 1):
        with mock.patch("knitrect.series._BLOCK_ROWS", block_rows):
            sink = io.StringIO()
            kr.write_prediction_csv(bundle, rec, sink)
            assert sink.getvalue() == want


def test_load_bundle_rejects_a_non_finite_weight(nonfinite_weight_bundle):
    with pytest.raises(DataError, match="weights and biases must be finite"):
        kr.load_bundle(nonfinite_weight_bundle)


def test_load_bundle_rejects_a_config_that_disagrees_with_its_model(config_model_mismatch):
    path, message = config_model_mismatch
    with pytest.raises(DataError, match=message):
        kr.load_bundle(path)


def test_bundle_rejects_non_numeric_fields(small_bundle, tmp_path):
    path = tmp_path / "rectifier.json"
    kr.save_bundle(small_bundle, path)
    text = path.read_text()

    doc = json.loads(text)
    doc["payload"]["alphas"][0] = "x"
    with pytest.raises(DataError, match="corrupted bundle file"):
        kr.load_bundle(_resigned(doc, tmp_path, "alphas.json"))

    doc = json.loads(text)
    doc["payload"]["config"]["hidden"] = "ab"
    with pytest.raises(DataError, match="corrupted bundle file"):
        kr.load_bundle(_resigned(doc, tmp_path, "hidden.json"))

    # integer fields that hold an infinity, a fraction, a bool or a value
    # below their minimum, a float field with an int no float can hold, and
    # scaler fields that hold a bool or a str
    n_filters = len(small_bundle.alphas)
    windows = list(small_bundle.init_windows)
    sizes = list(small_bundle.model.layer_sizes)
    for name, where, value in [
        ("seed", ("model",), float("inf")),
        ("seed", ("model",), 1.9),
        ("seed", ("model",), True),
        ("seed", ("model",), -1),
        ("init_windows", (), [float("inf")] * n_filters),
        ("init_windows", (), [windows[0] + 0.7, *windows[1:]]),
        ("init_windows", (), [0] * n_filters),
        ("init_windows", (), [True] * n_filters),
        ("layer_sizes", ("model",), [sizes[0] + 0.9, *sizes[1:]]),
        ("layer_sizes", ("model",), [*sizes[:-1], True]),
        ("alphas", (), [10**400] * n_filters),
        ("mean", ("scaler_g",), True),
        ("scale", ("scaler_g",), True),
        ("scale", ("scaler_t",), True),
        ("mean", ("scaler_t",), "0"),
    ]:
        doc = json.loads(text)
        node = doc["payload"]
        for step in where:
            node = node[step]
        node[name] = value
        with pytest.raises(DataError, match="corrupted bundle file"):
            kr.load_bundle(_resigned(doc, tmp_path, f"{name}.json"))


def test_bundle_rejects_weights_that_disagree_with_layer_sizes(small_bundle, tmp_path):
    path = tmp_path / "rectifier.json"
    kr.save_bundle(small_bundle, path)
    text = path.read_text()

    doc = json.loads(text)
    doc["payload"]["model"]["weights"][1] = [row[:-1] for row in doc["payload"]["model"]["weights"][1]]
    with pytest.raises(DataError, match="disagree with its layer sizes"):
        kr.load_bundle(_resigned(doc, tmp_path, "weights.json"))

    doc = json.loads(text)
    doc["payload"]["model"]["biases"][0].append(0.0)
    with pytest.raises(DataError, match="disagree with its layer sizes"):
        kr.load_bundle(_resigned(doc, tmp_path, "biases.json"))

    doc = json.loads(text)
    del doc["payload"]["model"]["weights"][-1]
    with pytest.raises(DataError, match="disagree with its layer sizes"):
        kr.load_bundle(_resigned(doc, tmp_path, "layers.json"))

    model = small_bundle.model.copy()
    model.weights[0] = model.weights[0].T
    with pytest.raises(DataError, match="disagree with its layer sizes"):
        dataclasses.replace(small_bundle, model=model)

    # consistent shapes, but two outputs where prediction reads one
    doc = json.loads(text)
    m = doc["payload"]["model"]
    m["layer_sizes"][-1] = 2
    m["weights"][-1] = [row + [0.5] for row in m["weights"][-1]]
    m["biases"][-1].append(0.1)
    with pytest.raises(DataError, match="exactly one output unit"):
        kr.load_bundle(_resigned(doc, tmp_path, "outputs.json"))


def test_bundle_rejects_undecodable_bytes(small_bundle, tmp_path):
    path = tmp_path / "rectifier.json"
    kr.save_bundle(small_bundle, path)
    path.write_bytes(path.read_bytes().replace(b'"payload"', b'"pay\xffload"', 1))
    with pytest.raises(DataError, match="rectifier.json is not utf-8 text"):
        kr.load_bundle(path)
