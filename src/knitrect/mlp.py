"""Minimal ReLU multilayer perceptron for scalar regression.

Plain numpy implementation: Glorot-uniform init, reverse-mode gradients,
minibatch Adam with early stopping.  Networks here are tiny (tens of
parameters), so a training step costs little arithmetic and much Python
overhead per numpy call.  `train_many` therefore trains K models of one
depth in lockstep: their parameters are zero-padded to the widest layers
and stacked, and one step is a batched forward/backward pass plus one
Adam update on the stack.  `train` is its one-model case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrainingDiverged

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DIVERGENCE_FACTOR = 1e6
# The fixed cost of one lockstep step (train_many) in units of per-slot
# arithmetic: it equals the work of about this many padded parameters.
# Measured with numpy 2.4 on a 2-core x86 VM, 9600 samples, batch 200:
# 4.7 ms per epoch per group plus 0.0126 ms per epoch per padded parameter
# and slot.
STEP_COST_PARAMS = 375


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


def _backprop(ws, bs, X, y, gws, gbs) -> None:
    """Mean-squared-error gradients of K stacked nets, written into gws and gbs.

    ws[l] has shape (K, n_l, n_{l+1}), bs[l] (K, n_{l+1}), X (K, n, n_0) and
    y (K, n); gws and gbs take the shapes of ws and bs.  Slot k's gradient
    is that of its own batch only.  ReLU subgradient at 0 is taken as 0.
    """
    last = len(ws) - 1
    acts = [X]
    zs = []
    for li, (w, b) in enumerate(zip(ws, bs)):
        z = acts[-1] @ w + b[:, None, :]
        zs.append(z)
        acts.append(z if li == last else np.maximum(z, 0.0))
    delta = (2.0 / y.shape[1]) * (acts[-1][:, :, 0] - y)[:, :, None]
    for li in range(last, -1, -1):
        np.matmul(acts[li].transpose(0, 2, 1), delta, out=gws[li])
        np.sum(delta, axis=1, out=gbs[li])
        if li > 0:
            delta = (delta @ ws[li].transpose(0, 2, 1)) * (zs[li - 1] > 0.0)


def gradient(model: MlpModel, X, y) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradient of the mean squared error over the batch.

    ReLU subgradient at 0 is taken as 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size or y.size == 0:
        raise DataError("gradient needs a nonempty (n, n_in) batch with matching y")
    if X.shape[1] != model.layer_sizes[0]:
        raise DataError("input width does not match the model")
    gws = [np.empty((1, *w.shape)) for w in model.weights]
    gbs = [np.empty((1, *b.shape)) for b in model.biases]
    ws = [w[None] for w in model.weights]
    bs = [b[None] for b in model.biases]
    _backprop(ws, bs, X[None], y[None], gws, gbs)
    return [g[0] for g in gws], [g[0] for g in gbs]


def _param_count(widths) -> int:
    return sum(nin * nout + nout for nin, nout in zip(widths, widths[1:]))


def lockstep_groups(layer_sizes) -> list[list[int]]:
    """Split networks into groups that train faster together than apart.

    layer_sizes[i] holds network i's layer sizes.  A lockstep step costs a
    fixed overhead plus arithmetic that grows with the group size times the
    padded parameter count, so padding a narrow net to a wide one can cost
    more than the step it saves.  Networks of one depth are taken from
    fewest to most parameters.  Each joins the current group if the padding
    this adds, summed over the group, stays within STEP_COST_PARAMS, and
    starts a new group otherwise.  Returns index lists, each ascending,
    that cover every network once; the split depends only on the sizes.
    """
    by_depth: dict[int, list[int]] = {}
    for i, sizes in enumerate(layer_sizes):
        by_depth.setdefault(len(sizes), []).append(i)
    groups: list[list[int]] = []
    for members in by_depth.values():
        group: list[int] = []
        for i in sorted(members, key=lambda i: (_param_count(layer_sizes[i]), i)):
            sizes = list(layer_sizes[i])
            if group:
                wider = [max(a, b) for a, b in zip(widths, sizes)]
                k = len(group)
                if (k + 1) * _param_count(wider) - k * _param_count(widths) - _param_count(sizes) <= STEP_COST_PARAMS:
                    group.append(i)
                    widths = wider
                    continue
                groups.append(sorted(group))
            group, widths = [i], sizes
        groups.append(sorted(group))
    return groups


def _layer_views(flat: np.ndarray, widths) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (K, n_l, n_{l+1}) weight and (K, n_{l+1}) bias views of a (K, P) array."""
    k = flat.shape[0]
    ws, bs = [], []
    off = 0
    for nin, nout in zip(widths, widths[1:]):
        ws.append(flat[:, off : off + nin * nout].reshape(k, nin, nout))
        off += nin * nout
    for nout in widths[1:]:
        bs.append(flat[:, off : off + nout])
        off += nout
    return ws, bs


def _slot_model(ws, bs, row: int, model: MlpModel) -> MlpModel:
    """model's unpadded weights as views into row `row` of the stack."""
    sizes = model.layer_sizes
    return MlpModel(
        sizes,
        [w[row, :nin, :nout] for w, nin, nout in zip(ws, sizes, sizes[1:])],
        [b[row, :nout] for b, nout in zip(bs, sizes[1:])],
        model.seed,
    )


def train_many(
    models, Xs, y, cfg: TrainConfig, seeds
) -> list[tuple[MlpModel, TrainReport] | TrainingDiverged]:
    """Train K models of one depth in lockstep, each exactly as `train` would.

    Slot k trains models[k] on Xs[k] against the shared target y, shuffled
    by seeds[k] (cfg.seed is not used).  Parameters are zero-padded to the
    group's widest layers and stacked in one (K, P) array with Adam's m and
    v beside it, so one step is a batched forward/backward pass plus one
    Adam update for every slot.  The padding is exact: a padded unit has
    z = 0, so its ReLU delta and gradient are 0, and Adam started at
    m = v = 0 never moves it.  Inputs that are the same array object are
    stacked once.

    The epoch loss is computed per slot on its unpadded weights, so the
    early-stopping decisions are those of a solo run.  A slot leaves the
    stack when it converges, diverges or reaches cfg.max_iter.  Returns one
    entry per slot: the trained copy with its report, or the
    TrainingDiverged that ended it.  The input models are left untouched.
    """
    models = list(models)
    seeds = [int(s) for s in seeds]
    if not models or len(Xs) != len(models) or len(seeds) != len(models):
        raise DataError("train_many needs one input matrix and one seed per model")
    depth = len(models[0].layer_sizes)
    if any(len(mo.layer_sizes) != depth for mo in models):
        raise DataError("train_many needs models of one depth")
    y = np.asarray(y, dtype=float)
    n = y.size

    # one stacked input bank per distinct input array, zero-padded to the widest
    banks: list[np.ndarray] = []
    bank_by_id: dict[int, int] = {}
    bank_of = []
    for X, mo in zip(Xs, models):
        if id(X) not in bank_by_id:
            arr = np.asarray(X, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != n or n == 0:
                raise DataError("train needs a nonempty (n, n_in) batch with matching y")
            bank_by_id[id(X)] = len(banks)
            banks.append(arr)
        bank_of.append(bank_by_id[id(X)])
        if banks[bank_of[-1]].shape[1] != mo.layer_sizes[0]:
            raise DataError("input width does not match the model")
    widths = [max(mo.layer_sizes[li] for mo in models) for li in range(depth)]
    X_stack = np.zeros((len(banks), n, widths[0]))
    for i, arr in enumerate(banks):
        X_stack[i, :, : arr.shape[1]] = arr

    k = len(models)
    params = np.zeros((k, _param_count(widths)))
    ws, bs = _layer_views(params, widths)
    for row, mo in enumerate(models):
        for w, src in zip(ws, mo.weights):
            w[row, : src.shape[0], : src.shape[1]] = src
        for b, src in zip(bs, mo.biases):
            b[row, : src.size] = src
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    grads = np.zeros_like(params)
    gws, gbs = _layer_views(grads, widths)

    batch = min(200, n) if cfg.batch_size == "auto" else min(int(cfg.batch_size), n)
    rngs = [np.random.default_rng(s) for s in seeds]
    live = list(range(k))  # the slot held by each stack row
    nets = [_slot_model(ws, bs, row, mo) for row, mo in enumerate(models)]
    initial = [mse_loss(net, banks[bank_of[s]], y) for s, net in enumerate(nets)]
    guard = [DIVERGENCE_FACTOR * (loss + 1e-12) for loss in initial]
    best = [float("inf")] * k
    stall = [0] * k
    history: list[list[float]] = [[] for _ in range(k)]
    results: list = [None] * k
    step = 0

    def finish(s: int, converged: bool) -> None:
        hist = history[s]
        results[s] = (nets[s].copy(), TrainReport(len(hist), hist, converged, min(hist)))

    for epoch in range(1, cfg.max_iter + 1):
        rows_bank = np.array([bank_of[s] for s in live])[:, None]
        order = np.stack([rngs[s].permutation(n) for s in live])
        for lo in range(0, n, batch):
            idx = order[:, lo : lo + batch]
            _backprop(ws, bs, X_stack[rows_bank, idx], y[idx], gws, gbs)
            step += 1
            c1 = 1.0 - ADAM_BETA1**step
            c2 = 1.0 - ADAM_BETA2**step
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grads
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grads**2
            params -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

        done = []
        for row, s in enumerate(live):
            loss = mse_loss(nets[s], banks[bank_of[s]], y)
            history[s].append(loss)
            if not np.isfinite(loss) or loss > guard[s]:
                results[s] = TrainingDiverged(
                    f"training diverged at epoch {epoch}: loss {loss:g} (initial {initial[s]:g})"
                )
                done.append(row)
            elif loss < best[s] - cfg.tol:
                best[s] = loss
                stall[s] = 0
            else:
                stall[s] += 1
                if stall[s] >= cfg.patience:
                    finish(s, True)
                    done.append(row)
        if done:
            keep = [row for row in range(len(live)) if row not in done]
            live = [live[row] for row in keep]
            if not live:
                break
            params, m, v, grads = params[keep], m[keep], v[keep], grads[keep]
            ws, bs = _layer_views(params, widths)
            gws, gbs = _layer_views(grads, widths)
            for row, s in enumerate(live):
                nets[s] = _slot_model(ws, bs, row, models[s])

    for s in live:
        finish(s, False)
    return results


def train(model: MlpModel, X, y, cfg: TrainConfig) -> tuple[MlpModel, TrainReport]:
    """Minibatch Adam with per-epoch shuffling and best-loss early stopping.

    Stops when the best epoch loss has not improved by cfg.tol for
    cfg.patience consecutive epochs, or at cfg.max_iter.  The input model
    is left untouched; the trained copy is returned.  Raises
    TrainingDiverged if the loss blows up or goes non-finite.  This is
    train_many with one slot.
    """
    (outcome,) = train_many([model], [X], y, cfg, [cfg.seed])
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome
