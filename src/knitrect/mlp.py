"""Minimal ReLU multilayer perceptron for scalar regression.

Plain numpy implementation: Glorot-uniform init, reverse-mode gradients,
minibatch Adam with early stopping.  Networks here are tiny (tens of
parameters), so clarity wins over cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrainingDiverged

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DIVERGENCE_FACTOR = 1e6


@dataclass
class MlpModel:
    """Feed-forward net: ReLU hidden layers, identity scalar output.

    weights[l] has shape (n_l, n_{l+1}); biases[l] has shape (n_{l+1},).
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self) -> "MlpModel":
        return MlpModel(
            self.layer_sizes,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.seed,
        )


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings; defaults mirror a stock small-regressor setup."""

    max_iter: int = 10000
    learning_rate: float = 1e-3
    batch_size: int | str = "auto"  # "auto" = min(200, n_samples)
    tol: float = 1e-4
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise DataError("max_iter must be >= 1")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        if self.tol < 0:
            raise DataError("tol must be >= 0")
        if self.patience < 1:
            raise DataError("patience must be >= 1")
        if self.batch_size != "auto" and int(self.batch_size) < 1:
            raise DataError("batch_size must be 'auto' or >= 1")


@dataclass
class TrainReport:
    """Per-run training trace."""

    epochs_run: int
    loss_history: list[float]
    converged: bool
    best_loss: float = field(default=float("inf"))


def _check_sizes(layer_sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise DataError("need at least input and output layer sizes")
    if sizes[-1] != 1:
        raise DataError("output layer width must be exactly 1")
    if sizes[0] < 1:
        raise DataError("input width must be >= 1")
    if any(h < 2 for h in sizes[1:-1]):
        raise DataError("hidden layer widths must be >= 2")
    return sizes


def mlp_new(layer_sizes, seed: int = 0) -> MlpModel:
    """Fresh network: Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    sizes = _check_sizes(layer_sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for nin, nout in zip(sizes, sizes[1:]):
        bound = np.sqrt(6.0 / (nin + nout))
        weights.append(rng.uniform(-bound, bound, size=(nin, nout)))
        biases.append(np.zeros(nout))
    return MlpModel(sizes, weights, biases, int(seed))


def forward_batch(model: MlpModel, X) -> np.ndarray:
    """Predictions for an (n, n_in) batch; returns shape (n,)."""
    a = np.asarray(X, dtype=float)
    if a.ndim != 2 or a.shape[1] != model.layer_sizes[0]:
        raise DataError("input width does not match the model")
    last = len(model.weights) - 1
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if li != last:
            a = np.maximum(a, 0.0)
    return a[:, 0]


def forward(model: MlpModel, x) -> float:
    """Prediction for a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError("forward expects a single input vector")
    return float(forward_batch(model, x[None, :])[0])


def mse_loss(model: MlpModel, X, y) -> float:
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise DataError("loss needs at least one sample")
    pred = forward_batch(model, X)
    if pred.size != y.size:
        raise DataError("X and y must have equal lengths")
    return float(np.mean((pred - y) ** 2))


def gradient(model: MlpModel, X, y) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradient of the mean squared error over the batch.

    ReLU subgradient at 0 is taken as 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size or y.size == 0:
        raise DataError("gradient needs a nonempty (n, n_in) batch with matching y")
    n_layers = len(model.weights)
    acts = [X]
    zs = []
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        zs.append(z)
        acts.append(z if li == n_layers - 1 else np.maximum(z, 0.0))
    n = y.size
    delta = (2.0 / n) * (acts[-1][:, 0] - y)[:, None]
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    for li in range(n_layers - 1, -1, -1):
        grads_w[li] = acts[li].T @ delta
        grads_b[li] = delta.sum(axis=0)
        if li > 0:
            delta = (delta @ model.weights[li].T) * (zs[li - 1] > 0.0)
    return grads_w, grads_b


def train(model: MlpModel, X, y, cfg: TrainConfig) -> tuple[MlpModel, TrainReport]:
    """Minibatch Adam with per-epoch shuffling and best-loss early stopping.

    Stops when the best epoch loss has not improved by cfg.tol for
    cfg.patience consecutive epochs, or at cfg.max_iter.  The input model
    is left untouched; the trained copy is returned.  Raises
    TrainingDiverged if the loss blows up or goes non-finite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size or y.size == 0:
        raise DataError("train needs a nonempty (n, n_in) batch with matching y")
    net = model.copy()
    n = y.size
    batch = min(200, n) if cfg.batch_size == "auto" else min(int(cfg.batch_size), n)
    rng = np.random.default_rng(cfg.seed)

    # one Adam state per parameter array; the arrays are updated in place
    params = net.weights + net.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]

    initial = mse_loss(net, X, y)
    guard = DIVERGENCE_FACTOR * (initial + 1e-12)
    best = float("inf")
    stall = 0
    step = 0
    history: list[float] = []
    converged = False

    for epoch in range(1, cfg.max_iter + 1):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            idx = order[lo : lo + batch]
            gw, gb = gradient(net, X[idx], y[idx])
            step += 1
            c1 = 1.0 - ADAM_BETA1**step
            c2 = 1.0 - ADAM_BETA2**step
            for i, g in enumerate(gw + gb):
                m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g
                v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * g**2
                params[i] -= cfg.learning_rate * (m[i] / c1) / (np.sqrt(v[i] / c2) + ADAM_EPS)
        loss = mse_loss(net, X, y)
        history.append(loss)
        if not np.isfinite(loss) or loss > guard:
            raise TrainingDiverged(
                f"training diverged at epoch {epoch}: loss {loss:g} (initial {initial:g})"
            )
        if loss < best - cfg.tol:
            best = loss
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                converged = True
                break

    best = min(best, min(history)) if history else best
    return net, TrainReport(len(history), history, converged, best)
