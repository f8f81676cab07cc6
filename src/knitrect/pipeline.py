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
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .errors import DataError, NumericError, _finite, _integer, _integers, _positive, _shown
from .metrics import ScoreCard, combined_error, r_squared
from .mlp import MlpModel, TrainConfig, TrainReport, _float_net, forward_batch, mlp_new
from .mlp import train as train_mlp
from .series import (
    RawRecording,
    ScalerParams,
    UniformSeries,
    _open_text,
    _source_name,
    _write_rows,
    conductivity,
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

    Its fields (TrainConfig's under `train`) are the keys of a config file
    and of a bundle's config; alpha_base=None selects the baseline factor
    quadruple.  The defaults are the paper's published grid-search winner:
    base 2.5 with 7 filters, hidden sizes (4, 2, 2), 20 Hz.  A malformed value raises
    DataError: rate_hz and a set alpha_base must be finite numbers, and
    int fields take integral numbers (8.0 is stored as 8), never a bool.
    """

    rate_hz: float = 20.0
    alpha_base: float | None = 2.5
    alpha_count: int | None = 7
    hidden: tuple[int, ...] = (4, 2, 2)
    target: str = "force"
    init_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not isinstance(self.hidden, (list, tuple)):
            raise DataError(f"hidden must be a list of layer widths, got {_shown(self.hidden)}")
        object.__setattr__(self, "hidden", tuple(_integer("hidden layer width", h, 2) for h in self.hidden))
        _integers(self, init_seed=0)
        if self.alpha_base is not None or self.alpha_count is not None:
            _integers(self, alpha_count=1)
        _positive("rate_hz", self.rate_hz)
        if not (self.alpha_base is None or _finite(self.alpha_base)):
            raise DataError(f"alpha_base must be a finite number or null, got {_shown(self.alpha_base)}")
        if self.target not in TARGETS:
            raise DataError(f"target must be one of {TARGETS}")

    def feature_set(self) -> AlphaSet:
        if self.alpha_base is None:
            return baseline_alpha_set()
        return alpha_set(self.alpha_base, self.alpha_count)


def default_best_config() -> PipelineConfig:
    """The paper's published winner of its full hyperparameter grid.

    That is the paper's result on its own recordings; the grid has not been
    swept on the simulator's data.
    """
    return PipelineConfig()


def _plain(value):
    """A JSON-ready tree: a dataclass as its fields by name, tuples as lists, arrays as nested lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def config_to_dict(cfg: PipelineConfig) -> dict:
    """The config as a JSON-ready dict keyed by its field names; config_from_dict reads it back."""
    return _plain(cfg)


def config_from_dict(doc: dict) -> PipelineConfig:
    """Build a config from a (possibly partial) dict; missing keys keep defaults.

    The keys are the field names, TrainConfig's under "train"; an explicit
    null alpha_base selects the baseline factor set.  An unknown key or a
    malformed value raises DataError.
    """
    return _overlay(PipelineConfig(), doc, "")


def load_config(source) -> PipelineConfig:
    """Read a config JSON file (a path or a text stream) through config_from_dict.

    Text that is not JSON, bytes that are not UTF-8 text and every
    config_from_dict rejection raise DataError, as in load_bundle.
    """
    return config_from_dict(_read_json(source, f"bad config file {_source_name(source) or 'input'}"))


def _read_json(source, what: str):
    """The JSON document in source (a path or a text stream).

    Text that is not JSON raises DataError("<what>: <reason>"), and so do
    an integer literal too long for int() and nesting too deep to decode,
    which json raises as ValueError and RecursionError.
    """
    with _open_text(source, "r") as stream:
        text = stream.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{what}: {exc}") from None


def _overlay(base, doc, name: str):
    """base with the fields doc names replaced; a dataclass field takes a nested object."""
    if not isinstance(doc, dict):
        raise DataError(f"config {name!r} must be an object" if name else "config must be an object")
    unknown = set(doc) - {f.name for f in fields(base)}
    if unknown:
        raise DataError(f"unknown {name + ' ' if name else ''}config keys: {sorted(map(str, unknown))}")
    changes = {}
    for key, value in doc.items():
        current = getattr(base, key)
        changes[key] = _overlay(current, value, key) if is_dataclass(current) else value
    try:
        return replace(base, **changes)
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed config: {exc}") from None


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
    """Frozen, serializable rectifier: config, scalers, filters, network.

    A model whose shapes disagree with its layer sizes, with the filters or
    with the config, or that holds a weight or bias that is not a finite
    number, raises DataError, and so does an init window that is not an
    integer >= 1 (an integral float such as 8.0 is stored as 8).

    A fitted bundle's provenance train_best_loss is the training report's
    best_loss: the lowest epoch loss, which need not be the loss of the
    model it holds, whose weights are the last epoch's (see TrainReport).
    """

    config: PipelineConfig
    alphas: tuple[float, ...]
    init_windows: tuple[int, ...]
    scaler_g: ScalerParams
    scaler_t: ScalerParams
    model: MlpModel
    provenance: dict

    def __post_init__(self):
        object.__setattr__(self, "init_windows", tuple(_integer("init window", w, 1) for w in self.init_windows))
        m = self.model
        want = [((n_in, n_out), (n_out,)) for n_in, n_out in zip(m.layer_sizes, m.layer_sizes[1:])]
        got = [(w.shape, b.shape) for w, b in zip(m.weights, m.biases)]
        if not want or len(m.weights) != len(m.biases) or got != want:
            raise DataError("model weight and bias shapes disagree with its layer sizes")
        if not all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in zip(m.weights, m.biases)):
            raise DataError("model weights and biases must be finite numbers")
        if m.layer_sizes[-1] != 1:
            raise DataError("model must have exactly one output unit")
        if m.layer_sizes[0] != len(self.alphas):
            raise DataError("model input width must equal the filter count")
        if len(self.init_windows) != len(self.alphas):
            raise DataError("init windows must pair with alphas")
        if tuple(m.layer_sizes[1:-1]) != self.config.hidden:
            raise DataError("model hidden layer sizes disagree with the config's hidden")
        if tuple(self.alphas) != self.config.feature_set().alphas:
            raise DataError("bundle alphas disagree with the config's feature set")


def fit_pipeline(train_rec: RawRecording, cfg: PipelineConfig) -> tuple[PipelineBundle, TrainReport]:
    """Train the full rectifier on one recording.

    Raises NumericError if training diverges, or if it ends in a dead
    network: one whose ReLU paths are all off, so that its output is the
    same on every sample of the training recording.
    """
    prepared = prepare(train_rec, cfg.rate_hz, cfg.target)
    aset = cfg.feature_set()
    windows = bank_windows(aset, cfg.rate_hz, len(prepared))
    feats = feature_bank_with_windows(prepared.g_series(), aset.alphas, windows)
    model = mlp_new((len(aset), *cfg.hidden, 1), cfg.init_seed)
    trained, report = train_mlp(model, feats.values, prepared.target_bar, cfg.train)
    if np.ptp(forward_batch(trained, feats.values)) == 0.0:
        raise NumericError(
            f"training from init seed {cfg.init_seed} gave a dead network: its output is constant on the training recording"
        )
    bundle = PipelineBundle(
        config=cfg,
        alphas=aset.alphas,
        init_windows=windows,
        scaler_g=prepared.scaler_g,
        scaler_t=prepared.scaler_t,
        model=trained,
        provenance=dict(
            train_source=prepared.source_label,
            created_utc=datetime.now(timezone.utc).isoformat(),
            init_seed=cfg.init_seed,
            shuffle_seed=cfg.train.seed,
            train_epochs=report.epochs_run,
            train_best_loss=report.best_loss,
        ),
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
        _write_rows(stream, (ts, prepared.g_bar, p, prepared.target_bar))
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

    samples_seen counts the samples accepted into the session's filter
    bank, which the session makes from the bundle's alphas and init
    windows and keeps to itself: only stream_push feeds it.  The session
    also binds the bundle's network, as it is when the session is made,
    to forward's own evaluator (mlp._float_net), which stream_push runs on
    each list of filter values that the bank gives.
    """

    bundle: PipelineBundle
    samples_seen: int = 0
    _bank: BankState = field(init=False)
    _net: Callable[[list[float]], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._bank = make_bank(self.bundle.alphas, self.bundle.init_windows)
        self._net = _float_net(self.bundle.model)


def open_stream(bundle: PipelineBundle) -> StreamSession:
    return StreamSession(bundle)


def stream_push(session: StreamSession, sample: tuple[float, float]) -> float | None:
    """Feed one (t, R) sample; returns the rectified value once initialized.

    Samples must arrive at the bundle's rate (the caller resamples); the
    timestamp is accepted for interface symmetry but the filters are
    purely sample-indexed.  After the checks, a push is one step of the
    session's bank (smoothing._bank_step) and, past the warm-up, the
    session's network on the filter values: forward's evaluator on the
    row that bank_push gives for the same sample, so each value equals
    `forward(model, row)` bit for bit, and predict_batch on the same
    resampled recording to within 1e-12.  A rejected sample, a malformed
    one (not a pair, or an R that float() refuses) included, raises
    DataError and leaves the session unchanged.
    """
    try:
        _, r = sample
        r = float(r)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"stream sample must be a (t, R) pair with a numeric R, got {_shown(sample)}") from None
    if not math.isfinite(r) or r <= 0:
        raise DataError("non-positive resistance in stream")
    scaler = session.bundle.scaler_g
    g_bar = (1.0 / r - scaler.mean) / scaler.scale
    if not math.isfinite(g_bar):
        raise DataError(f"stream sample R={r!r} is too small: its standardized conductance overflows")
    step = session._bank._step
    ys = _bank_step(session._bank, g_bar) if step is None else step(g_bar)
    session.samples_seen += 1
    return None if ys is None else session._net(ys)


# --- serialization --------------------------------------------------------------


def _payload_checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_bundle(bundle: PipelineBundle, sink) -> None:
    """Write a human-readable, checksummed JSON bundle."""
    payload = _plain(bundle)
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
    """Read a bundle; rejects unknown versions and corrupted payloads.

    Layer sizes, the model seed and init windows must be integers (an
    integral float such as 8.0 passes, a bool or 7.9 does not), as in a
    config file.
    """
    doc = _read_json(source, "corrupted bundle file")
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
            layer_sizes=tuple(_integer("layer size", s, 1) for s in m["layer_sizes"]),
            weights=[np.asarray(w, dtype=float) for w in m["weights"]],
            biases=[np.asarray(b, dtype=float) for b in m["biases"]],
            seed=_integer("model seed", m["seed"], 0),
        )
        return PipelineBundle(
            config=cfg,
            alphas=tuple(float(a) for a in payload["alphas"]),
            init_windows=tuple(payload["init_windows"]),
            scaler_g=ScalerParams(**payload["scaler_g"]),
            scaler_t=ScalerParams(**payload["scaler_t"]),
            model=model,
            provenance=dict(payload["provenance"]),
        )
    except KeyError as exc:
        raise DataError(f"corrupted bundle file: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"corrupted bundle file: {exc}") from None
