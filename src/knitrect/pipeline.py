"""Rectifier assembly: preprocessing -> feature bank -> network.

fit_pipeline trains everything on one recording and freezes the result
into a PipelineBundle: rate, scalers, smoothing factors, init windows,
network weights.  The bundle then rectifies fresh recordings in batch
(predict_batch) or sample-by-sample (StreamSession; equal to the batch to
within 1e-12 on the same resampled recording), is scored on two test
recordings (evaluate), and serializes to a versioned, checksummed JSON
file.

Scalers are always the training recording's; applying them verbatim to
test data is part of the contract (a deployed filter cannot refit on
unseen ground truth), and provenance labels make violations detectable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import DataError
from .metrics import ScoreCard, combined_error, r_squared
from .mlp import MlpModel, TrainConfig, TrainReport, _forward_floats, _unit_weights, forward_batch, mlp_new
from .mlp import train as train_mlp
from .series import (
    RawRecording,
    ScalerParams,
    UniformSeries,
    _open_text,
    conductivity,
    fmt,
    resample,
    scaler_fit,
)
from .smoothing import (
    AlphaSet,
    BankState,
    _bank_step,
    alpha_set,
    bank_windows,
    baseline_alpha_set,
    feature_bank_with_windows,
    make_bank,
)

BUNDLE_FORMAT = "knitrect-bundle"
BUNDLE_VERSION = 1

TARGETS = ("force", "displacement")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that defines one rectifier variant before training.

    alpha_base=None selects the hand-picked baseline factor quadruple and
    alpha_count is then ignored.  The defaults are the grid-search winner:
    factor set base 2.5 with 7 filters, hidden sizes (4, 2, 2), 20 Hz.
    """

    rate_hz: float = 20.0
    alpha_base: float | None = 2.5
    alpha_count: int | None = 7
    hidden: tuple[int, ...] = (4, 2, 2)
    target: str = "force"
    train: TrainConfig = field(default_factory=TrainConfig)
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.rate_hz <= 0:
            raise DataError("rate_hz must be positive")
        if self.target not in TARGETS:
            raise DataError(f"target must be one of {TARGETS}")
        if any(h < 2 for h in self.hidden):
            raise DataError("hidden layer widths must be >= 2")
        if self.alpha_base is not None and (self.alpha_count is None or self.alpha_count < 1):
            raise DataError("alpha_count must be >= 1 when alpha_base is set")

    def feature_set(self) -> AlphaSet:
        if self.alpha_base is None:
            return baseline_alpha_set()
        return alpha_set(self.alpha_base, self.alpha_count)


def default_best_config() -> PipelineConfig:
    """The configuration that won the full hyperparameter grid."""
    return PipelineConfig()


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {
        "rate_hz": cfg.rate_hz,
        "alpha_base": cfg.alpha_base,
        "alpha_count": cfg.alpha_count,
        "hidden": list(cfg.hidden),
        "target": cfg.target,
        "init_seed": cfg.init_seed,
        "train": {
            "max_iter": cfg.train.max_iter,
            "learning_rate": cfg.train.learning_rate,
            "batch_size": cfg.train.batch_size,
            "tol": cfg.train.tol,
            "patience": cfg.train.patience,
            "seed": cfg.train.seed,
        },
    }


def config_from_dict(doc: dict) -> PipelineConfig:
    """Build a config from a (possibly partial) dict; missing keys keep defaults.

    Use an explicit null alpha_base to select the baseline factor set.
    """
    defaults = PipelineConfig()
    known = {"rate_hz", "alpha_base", "alpha_count", "hidden", "target", "init_seed", "train"}
    unknown = set(doc) - known
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    tr = doc.get("train", {})
    if not isinstance(tr, dict):
        raise DataError("config 'train' must be an object")
    tr_known = {"max_iter", "learning_rate", "batch_size", "tol", "patience", "seed"}
    tr_unknown = set(tr) - tr_known
    if tr_unknown:
        raise DataError(f"unknown train config keys: {sorted(tr_unknown)}")
    dt = defaults.train
    train_cfg = TrainConfig(
        max_iter=tr.get("max_iter", dt.max_iter),
        learning_rate=tr.get("learning_rate", dt.learning_rate),
        batch_size=tr.get("batch_size", dt.batch_size),
        tol=tr.get("tol", dt.tol),
        patience=tr.get("patience", dt.patience),
        seed=tr.get("seed", dt.seed),
    )
    return PipelineConfig(
        rate_hz=doc.get("rate_hz", defaults.rate_hz),
        alpha_base=doc.get("alpha_base", defaults.alpha_base),
        alpha_count=doc.get("alpha_count", defaults.alpha_count),
        hidden=tuple(doc.get("hidden", defaults.hidden)),
        target=doc.get("target", defaults.target),
        init_seed=doc.get("init_seed", defaults.init_seed),
        train=train_cfg,
    )


@dataclass(frozen=True)
class PreparedData:
    """One recording after resampling, conductivity flip, and standardization."""

    rate_hz: float
    t0: float
    g_bar: np.ndarray
    target_bar: np.ndarray
    scaler_g: ScalerParams
    scaler_t: ScalerParams
    target: str
    source_label: str
    scaler_source: str  # label of the recording the scalers were fitted on

    def g_series(self) -> UniformSeries:
        return UniformSeries(self.rate_hz, self.t0, self.g_bar)

    def __len__(self) -> int:
        return int(self.g_bar.size)


def _target_column(rec: RawRecording, target: str) -> np.ndarray:
    if target == "force":
        return rec.force_n
    if target == "displacement":
        return rec.displacement_mm
    raise DataError(f"target must be one of {TARGETS}")


def prepare(rec: RawRecording, rate_hz: float = 20.0, target: str = "force") -> PreparedData:
    """Resample, flip resistance to conductance, fit scalers on this recording."""
    return _prepare(rec, rate_hz, target, None, rec.source_label)


def prepare_with_scalers(
    rec: RawRecording,
    rate_hz: float,
    target: str,
    scaler_g: ScalerParams,
    scaler_t: ScalerParams,
    scaler_source: str,
) -> PreparedData:
    """Same as prepare, but applying previously fitted (training) scalers."""
    return _prepare(rec, rate_hz, target, (scaler_g, scaler_t), scaler_source)


def _prepare(
    rec: RawRecording,
    rate_hz: float,
    target: str,
    scalers: tuple[ScalerParams, ScalerParams] | None,  # (g, t); None fits both on rec
    scaler_source: str,
) -> PreparedData:
    t_series = resample(rec.t_s, _target_column(rec, target), rate_hz)
    g_series = conductivity(resample(rec.t_s, rec.resistance_ohm, rate_hz))
    if scalers is None:
        scalers = (scaler_fit(g_series.values), scaler_fit(t_series.values))
    scaler_g, scaler_t = scalers
    return PreparedData(
        rate_hz=float(rate_hz),
        t0=t_series.t0,
        g_bar=scaler_g.transform(g_series.values),
        target_bar=scaler_t.transform(t_series.values),
        scaler_g=scaler_g,
        scaler_t=scaler_t,
        target=target,
        source_label=rec.source_label,
        scaler_source=scaler_source,
    )


@dataclass(frozen=True)
class PipelineBundle:
    """Frozen, serializable rectifier: config, scalers, filters, network."""

    config: PipelineConfig
    alphas: tuple[float, ...]
    init_windows: tuple[int, ...]
    scaler_g: ScalerParams
    scaler_t: ScalerParams
    model: MlpModel
    provenance: dict

    def __post_init__(self):
        m = self.model
        want = [((n_in, n_out), (n_out,)) for n_in, n_out in zip(m.layer_sizes, m.layer_sizes[1:])]
        got = [(w.shape, b.shape) for w, b in zip(m.weights, m.biases)]
        if not want or len(m.weights) != len(m.biases) or got != want:
            raise DataError("model weight and bias shapes disagree with its layer sizes")
        if m.layer_sizes[-1] != 1:
            raise DataError("model must have exactly one output unit")
        if m.layer_sizes[0] != len(self.alphas):
            raise DataError("model input width must equal the filter count")
        if len(self.init_windows) != len(self.alphas):
            raise DataError("init windows must pair with alphas")


def fit_pipeline(train_rec: RawRecording, cfg: PipelineConfig) -> tuple[PipelineBundle, TrainReport]:
    """Train the full rectifier on one recording."""
    prepared = prepare(train_rec, cfg.rate_hz, cfg.target)
    aset = cfg.feature_set()
    windows = bank_windows(aset, cfg.rate_hz, len(prepared))
    feats = feature_bank_with_windows(prepared.g_series(), aset.alphas, windows)
    model = mlp_new((len(aset), *cfg.hidden, 1), cfg.init_seed)
    trained, report = train_mlp(model, feats.values, prepared.target_bar, cfg.train)
    bundle = PipelineBundle(
        config=cfg,
        alphas=aset.alphas,
        init_windows=windows,
        scaler_g=prepared.scaler_g,
        scaler_t=prepared.scaler_t,
        model=trained,
        provenance={
            "train_source": prepared.source_label,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "init_seed": int(cfg.init_seed),
            "shuffle_seed": int(cfg.train.seed),
            "train_epochs": report.epochs_run,
            "train_best_loss": report.best_loss,
        },
    )
    return bundle, report


def _run_bundle(bundle: PipelineBundle, rec: RawRecording) -> tuple[PreparedData, np.ndarray]:
    cfg = bundle.config
    prepared = prepare_with_scalers(
        rec,
        cfg.rate_hz,
        cfg.target,
        bundle.scaler_g,
        bundle.scaler_t,
        bundle.provenance.get("train_source", ""),
    )
    feats = feature_bank_with_windows(prepared.g_series(), bundle.alphas, bundle.init_windows)
    return prepared, forward_batch(bundle.model, feats.values)


def _score(prepared: PreparedData, p: np.ndarray) -> ScoreCard:
    return ScoreCard(
        r2_pre=r_squared(prepared.target_bar, prepared.g_bar),
        r2_post=r_squared(prepared.target_bar, p),
    )


def predict_batch(bundle: PipelineBundle, rec: RawRecording) -> tuple[UniformSeries, ScoreCard]:
    """Rectify a recording with a fitted bundle; scores use the bundle's scalers."""
    prepared, p = _run_bundle(bundle, rec)
    return UniformSeries(bundle.config.rate_hz, prepared.t0, p), _score(prepared, p)


def write_prediction_csv(bundle: PipelineBundle, rec: RawRecording, sink) -> ScoreCard:
    """Rectify and dump `t_s,g_bar,p,target_bar` rows; returns the scorecard."""
    prepared, p = _run_bundle(bundle, rec)
    ts = prepared.t0 + np.arange(p.size) / prepared.rate_hz
    with _open_text(sink, "w") as stream:
        stream.write("t_s,g_bar,p,target_bar\n")
        for t, g, pv, tb in zip(ts, prepared.g_bar, p, prepared.target_bar):
            stream.write(f"{fmt(t)},{fmt(g)},{fmt(pv)},{fmt(tb)}\n")
    return _score(prepared, p)


@dataclass(frozen=True)
class Evaluation:
    """A bundle scored on two test recordings.

    truth, pre and post pool both recordings in raw target units (truth
    resampled, pre and post mapped back through the training scaler), as
    the binned RSE wants them.
    """

    card_a: ScoreCard
    card_b: ScoreCard
    combined_error: float
    truth: np.ndarray
    pre: np.ndarray
    post: np.ndarray

    def rows(self) -> list[tuple[str, float]]:
        """The scorecard CSV rows: both cards, then the combined error."""
        return self.card_a.rows("test_a") + self.card_b.rows("test_b") + [("combined_error", self.combined_error)]


def evaluate(bundle: PipelineBundle, test_a: RawRecording, test_b: RawRecording) -> Evaluation:
    """Score a bundle on two test recordings with the training scalers."""
    cfg = bundle.config
    cards, truth, pre, post = [], [], [], []
    for rec in (test_a, test_b):
        prepared, p = _run_bundle(bundle, rec)
        cards.append(_score(prepared, p))
        truth.append(resample(rec.t_s, _target_column(rec, cfg.target), cfg.rate_hz).values)
        pre.append(bundle.scaler_t.inverse(prepared.g_bar))
        post.append(bundle.scaler_t.inverse(p))
    return Evaluation(
        card_a=cards[0],
        card_b=cards[1],
        combined_error=combined_error(cards[0].r2_post, cards[1].r2_post),
        truth=np.concatenate(truth),
        pre=np.concatenate(pre),
        post=np.concatenate(post),
    )


# --- streaming ----------------------------------------------------------------


@dataclass
class StreamSession:
    """Single-owner streaming state over one shared immutable bundle.

    samples_seen counts the samples accepted into the bank.
    """

    bundle: PipelineBundle
    bank: BankState
    samples_seen: int = 0
    # the bundle's network as float lists, converted once per session
    _layers: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._layers = _unit_weights(self.bundle.model)


def open_stream(bundle: PipelineBundle) -> StreamSession:
    return StreamSession(bundle, make_bank(bundle.alphas, bundle.init_windows))


def stream_push(session: StreamSession, sample: tuple[float, float]) -> float | None:
    """Feed one (t, R) sample; returns the rectified value once initialized.

    Samples must arrive at the bundle's rate (the caller resamples); the
    timestamp is accepted for interface symmetry but the filters are
    purely sample-indexed.  Each value equals `forward(model, row)` on the
    bank row `bank_push` gives for the same sample, bit for bit, and so
    equals predict_batch on the same resampled recording to within 1e-12.
    A rejected sample raises DataError and leaves the session unchanged.
    """
    _, r = sample
    r = float(r)
    if not math.isfinite(r) or r <= 0:
        raise DataError("non-positive resistance in stream")
    scaler = session.bundle.scaler_g
    g_bar = (1.0 / r - scaler.mean) / scaler.scale
    if not math.isfinite(g_bar):
        raise DataError(f"stream sample R={r!r} is too small: its standardized conductance overflows")
    vec = _bank_step(session.bank, g_bar)
    session.samples_seen += 1
    if vec is None:
        return None
    return _forward_floats(session._layers, vec)


# --- serialization --------------------------------------------------------------


def _bundle_payload(bundle: PipelineBundle) -> dict:
    return {
        "config": config_to_dict(bundle.config),
        "alphas": list(bundle.alphas),
        "init_windows": list(bundle.init_windows),
        "scaler_g": {"mean": bundle.scaler_g.mean, "scale": bundle.scaler_g.scale},
        "scaler_t": {"mean": bundle.scaler_t.mean, "scale": bundle.scaler_t.scale},
        "model": {
            "layer_sizes": list(bundle.model.layer_sizes),
            "seed": bundle.model.seed,
            "weights": [w.tolist() for w in bundle.model.weights],
            "biases": [b.tolist() for b in bundle.model.biases],
        },
        "provenance": dict(bundle.provenance),
    }


def _payload_checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_bundle(bundle: PipelineBundle, sink) -> None:
    """Write a human-readable, checksummed JSON bundle."""
    payload = _bundle_payload(bundle)
    doc = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "sha256": _payload_checksum(payload),
        "payload": payload,
    }
    with _open_text(sink, "w") as stream:
        json.dump(doc, stream, indent=2, sort_keys=True)
        stream.write("\n")


def load_bundle(source) -> PipelineBundle:
    """Read a bundle; rejects unknown versions and corrupted payloads."""
    try:
        with _open_text(source, "r") as stream:
            doc = json.load(stream)
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupted bundle file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != BUNDLE_FORMAT:
        raise DataError("not a rectifier bundle file")
    if doc.get("version") != BUNDLE_VERSION:
        raise DataError(f"unsupported bundle version {doc.get('version')!r} (want {BUNDLE_VERSION})")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise DataError("corrupted bundle file: missing payload")
    if _payload_checksum(payload) != doc.get("sha256"):
        raise DataError("bundle checksum mismatch: file corrupted or edited")
    try:
        cfg = config_from_dict(payload["config"])
        m = payload["model"]
        model = MlpModel(
            layer_sizes=tuple(int(s) for s in m["layer_sizes"]),
            weights=[np.asarray(w, dtype=float) for w in m["weights"]],
            biases=[np.asarray(b, dtype=float) for b in m["biases"]],
            seed=int(m["seed"]),
        )
        return PipelineBundle(
            config=cfg,
            alphas=tuple(float(a) for a in payload["alphas"]),
            init_windows=tuple(int(w) for w in payload["init_windows"]),
            scaler_g=ScalerParams(**payload["scaler_g"]),
            scaler_t=ScalerParams(**payload["scaler_t"]),
            model=model,
            provenance=dict(payload["provenance"]),
        )
    except KeyError as exc:
        raise DataError(f"corrupted bundle file: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"corrupted bundle file: {exc}") from None
