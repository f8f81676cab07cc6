"""End-to-end rectifier assembly: config, preparation, fitting, streaming, bundles."""

import dataclasses
import io
import json

import numpy as np
import pytest

import knitrect as kr
from knitrect.errors import DataError

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
    """A bundle whose output is exactly its standardized input channel."""
    cfg = kr.PipelineConfig(alpha_base=1.0, alpha_count=1, hidden=())
    prep = kr.prepare(rec, cfg.rate_hz, cfg.target)
    model = kr.MlpModel(
        layer_sizes=(1, 1),
        weights=[np.array([[1.0]])],
        biases=[np.array([0.0])],
        seed=0,
    )
    return kr.PipelineBundle(
        config=cfg,
        alphas=(1.0,),
        init_windows=(1,),
        scaler_g=prep.scaler_g,
        scaler_t=prep.scaler_t,
        model=model,
        provenance={"train_source": rec.source_label},
    ), prep


def test_identity_bundle_passes_the_raw_channel_through(pes_small):
    bundle, prep = _identity_bundle(pes_small[0])
    series, card = kr.predict_batch(bundle, pes_small[0])
    assert np.array_equal(series.values, prep.g_bar)
    assert card.gain == 0.0


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
    assert np.abs(np.asarray(outs) - batch.values[warmup:]).max() <= 1e-9


def test_stream_identity_bundle_is_exact(pes_small):
    bundle, prep = _identity_bundle(pes_small[0])
    session = kr.open_stream(bundle)
    rate = bundle.config.rate_hz
    r_series = kr.resample(pes_small[0].t_s, pes_small[0].resistance_ohm, rate)
    outs = [kr.stream_push(session, (0.0, float(r))) for r in r_series.values]
    assert np.array_equal(np.asarray(outs), prep.g_bar)  # no warmup with window 1


def test_stream_rejects_bad_samples(small_bundle):
    session = kr.open_stream(small_bundle)
    with pytest.raises(DataError, match="non-positive resistance"):
        kr.stream_push(session, (0.0, 0.0))
    with pytest.raises(DataError, match="non-positive resistance"):
        kr.stream_push(session, (0.0, float("nan")))


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
