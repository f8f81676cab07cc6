"""Minimal ReLU multilayer perceptron for scalar regression.

Plain numpy implementation: Glorot-uniform init, reverse-mode gradients,
minibatch Adam with early stopping.  Networks here are tiny (tens of
parameters), so a training step costs little arithmetic and much Python
overhead per numpy call.  `train_many` therefore trains K models in
lockstep: `lockstep_groups` splits them into groups of one depth and
similar widths, each group's parameters are zero-padded to its widest
layers and stacked, and one step is a batched forward/backward pass plus
one Adam update on the stack.  `train` is its one-model case.  Each
layer's biases are the last row of its weight block and every layer input
ends in a column of ones, so one matmul gives a layer's output and one
more its weight and bias gradient; a step writes into preallocated
buffers and updates Adam's state in place.  `gradient` runs the same
pass on a stack of one.

For the same reason `forward` evaluates one input vector on Python floats
rather than as a one-row `forward_batch`: its dot products sum in their
own order, so it matches `forward_batch` to within rounding (1e-12 on the
nets here), not bit for bit.  The stream path uses the same evaluator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrainingDiverged, _finite, _integers

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DIVERGENCE_FACTOR = 1e6
# The fixed cost of one lockstep step (train_many) in units of per-slot
# arithmetic: it equals the work of about this many padded parameters.
# Measured with numpy 2.4 on a 2-core x86 VM, 9600 samples, batch 200,
# depths 2-4, epoch losses left out: 1.7-2.5 ms per epoch per group plus
# 0.0026-0.0030 ms per epoch per padded parameter and slot, a ratio of
# 630-850.  The value is older than those figures and is kept, so that the
# grid's lockstep groups, and with them its report digits, stay as they are.
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
    """Optimizer settings; defaults mirror a stock small-regressor setup.

    The fields are a config file's `train` keys.  int fields take integral
    numbers (8.0 is stored as 8), learning_rate and tol finite ones, and a
    bool is no number; anything else raises DataError.
    """

    max_iter: int = 10000
    learning_rate: float = 1e-3
    batch_size: int | str = "auto"  # "auto" = min(200, n_samples)
    tol: float = 1e-4
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        _integers(self, max_iter=1, patience=1, seed=0)
        if self.batch_size != "auto":
            _integers(self, batch_size=1)
        if not _finite(self.learning_rate) or self.learning_rate <= 0:
            raise DataError(f"learning_rate must be a positive finite number, got {self.learning_rate!r}")
        if not _finite(self.tol) or self.tol < 0:
            raise DataError(f"tol must be a finite number >= 0, got {self.tol!r}")


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


def _batch(model: MlpModel, X, y=None) -> tuple[np.ndarray, np.ndarray | None]:
    """X as an (n, n_in) float batch for model and y, if given, as its n >= 1 targets; else DataError.

    An argument that is already a float array is returned as the same object.
    """
    X = np.asarray(X, dtype=float)
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or y.size == 0 or X.ndim != 2 or X.shape[0] != y.size:
            raise DataError("expected a nonempty (n, n_in) batch with matching y")
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise DataError("input width does not match the model")
    return X, y


def forward_batch(model: MlpModel, X) -> np.ndarray:
    """Predictions for an (n, n_in) batch; returns shape (n,)."""
    a, _ = _batch(model, X)
    last = len(model.weights) - 1
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if li != last:
            a = np.maximum(a, 0.0)
    return a[:, 0]


def _unit_weights(model: MlpModel) -> list[tuple[list[list[float]], list[float]]]:
    """Per layer: each unit's incoming weights as a float list, and the biases."""
    return [(w.T.tolist(), b.tolist()) for w, b in zip(model.weights, model.biases)]


def _forward_floats(layers, a: list[float]) -> float:
    """The network on one input list, with layers from _unit_weights."""
    mul = operator.mul
    for cols, bs in layers[:-1]:
        # ReLU written so that a NaN passes through, as in np.maximum
        a = [0.0 if (z := sum(map(mul, a, col)) + b) < 0.0 else z for col, b in zip(cols, bs)]
    cols, bs = layers[-1]
    return sum(map(mul, a, cols[0])) + bs[0]


def forward(model: MlpModel, x) -> float:
    """Prediction for a single input vector.

    Equals forward_batch on the one-row batch to within rounding (1e-12
    here), since each dot product sums in its own order; the stream path
    (pipeline.stream_push) runs this same evaluation, so the two agree bit
    for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError("forward expects a single input vector")
    if x.size != model.layer_sizes[0]:
        raise DataError("input width does not match the model")
    return _forward_floats(_unit_weights(model), x.tolist())


def mse_loss(model: MlpModel, X, y) -> float:
    """Mean squared error of the predictions for the batch X against the targets y."""
    X, y = _batch(model, X, y)
    return float(np.mean((forward_batch(model, X) - y) ** 2))


class _Buffers:
    """The arrays one forward/backward pass of K stacked nets writes, for batches of n samples.

    acts[l] (K, n, n_l + 1) is layer l's input with a trailing column of
    ones, which multiplies the bias row of the folded weights, and acts[-1]
    the (K, n, 1) output; zs[l] is the part of acts[l + 1] that layer l's
    matmul writes.  deltas[l] is the error at acts[l + 1], of its shape,
    and dzs[l] its part at zs[l].  The ReLU and its derivative run over
    whole buffers, ones column included, because numpy is slower on the
    strided parts.  y holds the (K, n, 1) targets, and rows the
    stacked-bank rows that the trainer gathers into acts[0].
    """

    def __init__(self, k: int, n: int, widths):
        self.acts = [np.empty((k, n, w + 1)) for w in widths[:-1]] + [np.empty((k, n, 1))]
        for a in self.acts[:-1]:
            a[:, :, -1] = 1.0
        self.acts_t = [a.transpose(0, 2, 1) for a in self.acts[:-1]]
        self.zs = [a[:, :, :-1] for a in self.acts[1:-1]] + [self.acts[-1]]
        self.deltas = [np.empty_like(a) for a in self.acts[1:]]
        self.dzs = [d[:, :, :-1] for d in self.deltas[:-1]] + [self.deltas[-1]]
        self.y = np.empty((k, n, 1))
        self.rows = np.empty((k, n), dtype=np.intp)


def _backprop(ws, buf: _Buffers, gws) -> None:
    """Mean-squared-error gradients of K stacked nets, written into gws.

    ws[l] has shape (K, n_l + 1, n_{l+1}): layer l's weights with its
    biases as the last row, and gws takes the same shapes.  buf.acts[0]
    holds the (K, n, n_0 + 1) input batches, each row ending in a one, and
    buf.y the targets.  Slot k's gradient is that of its own batch only.
    The ones column carries the bias, so one matmul gives a layer's output
    and one more its weight and bias gradient.  ReLU subgradient at 0 is
    taken as 0.
    """
    last = len(ws) - 1
    for li, (a, w, z) in enumerate(zip(buf.acts, ws, buf.zs)):
        np.matmul(a, w, out=z)
        if li != last:
            np.maximum(buf.acts[li + 1], 0.0, out=buf.acts[li + 1])  # the ones stay ones
    delta = buf.deltas[last]
    np.subtract(buf.acts[-1], buf.y, out=delta)
    delta *= 2.0 / buf.y.shape[1]
    for li in range(last, -1, -1):
        np.matmul(buf.acts_t[li], buf.dzs[li], out=gws[li])
        if li > 0:
            # nothing reads acts[li] again, so it takes its ReLU's derivative
            # in place: 1 where positive (the ones column too), else 0
            a, below = buf.acts[li], buf.deltas[li - 1]
            np.greater(a, 0.0, out=a)
            np.matmul(buf.dzs[li], ws[li].transpose(0, 2, 1), out=below)
            below *= a


def gradient(model: MlpModel, X, y) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradient of the mean squared error over the batch.

    ReLU subgradient at 0 is taken as 0.
    """
    X, y = _batch(model, X, y)
    ws = [np.concatenate((w, b[None]))[None] for w, b in zip(model.weights, model.biases)]
    gws = [np.empty_like(w) for w in ws]
    buf = _Buffers(1, y.size, model.layer_sizes)
    buf.acts[0][0, :, :-1] = X
    buf.y[0, :, 0] = y
    _backprop(ws, buf, gws)
    return [g[0, :-1] for g in gws], [g[0, -1] for g in gws]


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


def _layer_views(flat: np.ndarray, widths) -> list[np.ndarray]:
    """Per-layer (K, n_l + 1, n_{l+1}) views of a (K, P) array: weights, then biases as the last row."""
    k = flat.shape[0]
    views = []
    off = 0
    for nin, nout in zip(widths, widths[1:]):
        views.append(flat[:, off : off + (nin + 1) * nout].reshape(k, nin + 1, nout))
        off += (nin + 1) * nout
    return views


def _slot_model(ws, row: int, model: MlpModel) -> MlpModel:
    """model's unpadded weights and biases as views into row `row` of the stack."""
    sizes = model.layer_sizes
    return MlpModel(
        sizes,
        [w[row, :nin, :nout] for w, nin, nout in zip(ws, sizes, sizes[1:])],
        [w[row, -1, :nout] for w, nout in zip(ws, sizes[1:])],
        model.seed,
    )


def train_many(
    models, Xs, y, cfg: TrainConfig, seeds
) -> list[tuple[MlpModel, TrainReport] | TrainingDiverged]:
    """Train K models, of any depths, each exactly as `train` would.

    Slot k trains models[k] on Xs[k] against the shared target y, shuffled
    by seeds[k] (cfg.seed is not used).  The models are split by
    lockstep_groups, and each group trains in lockstep (_train_group), so a
    caller needs no grouping of its own.  A slot that diverges does not
    stop the others.  Every input is checked before any group trains.
    Returns one entry per slot, in input order: the trained copy with its
    report, or the TrainingDiverged that ended it.  The input models are
    left untouched.
    """
    models = list(models)
    seeds = [int(s) for s in seeds]
    if not models or len(Xs) != len(models) or len(seeds) != len(models):
        raise DataError("train_many needs one input matrix and one seed per model")
    arrays = {id(X): np.asarray(X, dtype=float) for X in Xs}  # an input given twice stays one array
    Xs = [arrays[id(X)] for X in Xs]
    for X, mo in zip(Xs, models):
        _, y = _batch(mo, X, y)
    results: list = [None] * len(models)
    for group in lockstep_groups([mo.layer_sizes for mo in models]):
        outcomes = _train_group([models[i] for i in group], [Xs[i] for i in group], y, cfg, [seeds[i] for i in group])
        for i, outcome in zip(group, outcomes):
            results[i] = outcome
    return results


def _train_group(models, Xs, y: np.ndarray, cfg: TrainConfig, seeds) -> list:
    """train_many's body for one group of models of one depth, on checked inputs.

    Parameters are zero-padded to the group's widest layers and stacked in
    one (K, P) array beside Adam's m and v.  Each layer is one (K, n_l + 1,
    n_{l+1}) block of that array, its biases the last row, and the stacked
    input banks end in a column of ones, so a layer's bias rides in its
    matmul.  One step gathers each slot's minibatch into preallocated
    buffers (one set per minibatch size: the full one and a shorter last
    one), runs one batched forward/backward pass (_backprop) and one Adam
    update in place, and allocates no array memory.  The padding is exact:
    a padded unit has z = 0, so its ReLU delta and gradient are 0, and Adam
    started at m = v = 0 never moves it.  Inputs that are the same array
    object are stacked once.

    The epoch loss is computed per slot on its unpadded weights, so the
    early-stopping decisions are those of a solo run.  A slot leaves the
    stack when it converges, diverges or reaches cfg.max_iter.
    """
    n = y.size

    # one stacked input bank per distinct input array, zero-padded to the
    # widest and ending in the column of ones
    banks = list({id(X): X for X in Xs}.values())
    bank_index = {id(X): i for i, X in enumerate(banks)}
    bank_of = [bank_index[id(X)] for X in Xs]
    widths = [max(col) for col in zip(*(mo.layer_sizes for mo in models))]
    X_stack = np.zeros((len(banks), n, widths[0] + 1))
    X_stack[:, :, -1] = 1.0
    for i, arr in enumerate(banks):
        X_stack[i, :, : arr.shape[1]] = arr
    X_rows = X_stack.reshape(len(banks) * n, widths[0] + 1)
    y_col = y[:, None]

    k = len(models)
    state = np.zeros((3, k, _param_count(widths)))  # the parameters, then Adam's m and v
    ws = _layer_views(state[0], widths)
    for row, mo in enumerate(models):
        for w, src, b in zip(ws, mo.weights, mo.biases):
            w[row, : src.shape[0], : src.shape[1]] = src
            w[row, -1, : b.size] = b

    batch = min(200, n) if cfg.batch_size == "auto" else min(int(cfg.batch_size), n)
    batch_sizes = {batch, n % batch or batch}
    rngs = [np.random.default_rng(s) for s in seeds]
    live = list(range(k))  # the slot held by each stack row
    nets = [_slot_model(ws, row, mo) for row, mo in enumerate(models)]
    initial = [mse_loss(net, banks[bank_of[s]], y) for s, net in enumerate(nets)]
    guard = [DIVERGENCE_FACTOR * (loss + 1e-12) for loss in initial]
    best = [float("inf")] * k
    stall = [0] * k
    history: list[list[float]] = [[] for _ in range(k)]
    results: list = [None] * k
    step = 0
    restack = True

    def finish(s: int, converged: bool) -> None:
        hist = history[s]
        results[s] = (nets[s].copy(), TrainReport(len(hist), hist, converged, min(hist)))

    for epoch in range(1, cfg.max_iter + 1):
        if restack:  # the live slots' views and scratch arrays
            params, m, v = state
            grads, num, den = np.empty_like(state)
            ws, gws = _layer_views(params, widths), _layer_views(grads, widths)
            buffers = {size: _Buffers(len(live), size, widths) for size in batch_sizes}
            offsets = n * np.array([bank_of[s] for s in live])[:, None]
            for row, s in enumerate(live):
                nets[s] = _slot_model(ws, row, models[s])
            restack = False
        order = np.stack([rngs[s].permutation(n) for s in live])
        for lo in range(0, n, batch):
            buf = buffers[min(batch, n - lo)]
            idx = order[:, lo : lo + batch]
            np.add(idx, offsets, out=buf.rows)
            # mode="clip" lets take write straight into out; every index is in range
            X_rows.take(buf.rows, axis=0, out=buf.acts[0], mode="clip")
            y_col.take(idx, axis=0, out=buf.y, mode="clip")
            _backprop(ws, buf, gws)
            step += 1
            c1 = 1.0 - ADAM_BETA1**step
            c2 = 1.0 - ADAM_BETA2**step
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
            # params -= lr * (m/c1) / (sqrt(v/c2) + eps), in that order
            m *= ADAM_BETA1
            np.multiply(grads, 1 - ADAM_BETA1, out=num)
            m += num
            v *= ADAM_BETA2
            np.square(grads, out=num)
            num *= 1 - ADAM_BETA2
            v += num
            np.divide(m, c1, out=num)
            num *= cfg.learning_rate
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            num /= den
            params -= num

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
            state = state[:, keep]
            restack = True

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
