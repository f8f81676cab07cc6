"""Minimal ReLU multilayer perceptron for scalar regression.

Plain numpy implementation: Glorot-uniform init, reverse-mode gradients,
minibatch Adam with early stopping.  Networks here are tiny (tens of
parameters), so a training step costs little arithmetic and much Python
overhead per numpy call.  `train_many` therefore trains K models in
lockstep: `lockstep_groups` splits them into groups of one depth and
similar widths, each group's parameters are zero-padded to its widest
layers and stacked, and one step is a batched forward/backward pass plus
one Adam update on the stack.  `train` is its one-model case.  The layout
is feature-major: each layer is an (n_{l+1}, n_l + 1) block of the stack,
its biases the last column, and samples run along the last axis of every
buffer, whose layer inputs end in a row of ones, so one product gives a
layer's output and one more its weight and bias gradient.  A stack of one
drops its K axis and runs every product as a 2-D dot, the cheapest call
numpy has for it, through the C function behind np.dot (_dot): np.dot
first runs numpy's Python-level __array_function__ dispatcher (NEP 18),
which adds over a quarter to a step's (4, 8) @ (8, 200) product (0.70
against 0.55 us a call, one BLAS thread, 2-core x86 VM, numpy 2.4.6).
Larger stacks run np.matmul, a ufunc, which has no such dispatcher, on a
unit-major layout: a layer's activations, and its deltas, are one
(units, K, n) block, so each ReLU, mask and masked multiply is one call
on a contiguous block, while the products read the block as K matrices whose
row stride K*n BLAS takes as a leading dimension.  A step copies its
gathered minibatch rows into such a block for layer 0.  A scoring pass
(_outputs) reads its banks in place instead: per run of stack rows that
share a bank, layer 0 multiplies the run's weights by the bank's rows
through a transposed view, one broadcast product.  The backward
products multiply by transposed views of the stack's whole layer blocks,
bias column included, which BLAS reads in place as one memory segment
each.  So each hidden layer's delta block has a spare last row, which
the product through the bias column fills and nothing reads, and the
output layer's block carries a zero second unit, so its rank-1 backward
product has an inner size of 2 and runs in BLAS.  A step writes into
preallocated buffers and makes 6L + 13 numpy calls for L weight layers
(37 for the default net): two gathers (the minibatch rows and their
targets), 6L - 2 for the forward/backward pass, and 13 for Adam, which
updates m and v as one stack in place: two fills of its bias
corrections and eleven ufunc calls.  A larger stack adds one, the copy
of its rows into layer 0's block.  No operand of a step is a Python
scalar, and none is broadcast across the m and v stack: numpy converts a
Python float anew on every call, and a broadcast operand splits a call's
loop into short pieces, each costing more than the arithmetic on arrays
this small.  So the ReLU's zero, 2/n, the learning rate, epsilon and the
bias corrections are 0-d arrays, and Adam's betas have the full shape of
the stack.  Each holds the float64 of the number it stands for, so the
step computes what it would with Python floats, bit for bit.

On arrays this small those calls cost little more than the Python
around them (the attribute and list lookups, loops and branches of
_backprop and _forward), so a step runs as one generated function.  Its
code, the trainer's train_step, which calls _backprop, runs only on
stand-ins that record each numpy call (_traced_step), once per minibatch
size each time the stack is built or shrinks.  The recorded calls, in
order, are the body of one straight-line function, compiled once per
source, to which every array, ufunc, bound method and 0-d scalar they
name is bound as a closure cell; an array function (np.copyto) is bound
as the C function behind its dispatcher, which the stand-ins need but
the arrays do not.  A step is then one Python call, given its index
slice and Adam's two bias corrections, that makes the same numpy
computations on the same arrays in the same order, so it computes what
train_step would, bit for bit.  `gradient` runs the same pass on a
stack of one, calling _backprop itself: for one call, a build costs more
than it saves.

For the same reason `forward` runs a small net on one input vector in
Python floats rather than as a one-row `forward_batch`.  A net of at most
_KERNEL_MAX_PARAMS (384) parameters, about the size from which the
grid's nets run faster as a one-row batch, is compiled once per tuple of
layer sizes into one straight-line function (`h0_0 = 0.0 + a0*w0_0_0 +
... + b0_0`, then its ReLU, and so on to the output unit), one statement
per unit, whose source holds no weight: the weights are bound to it as
closure cells.  Each unit sums its products left to right from 0.0 and
then adds its bias; numpy sums in another order, so `forward` matches
`forward_batch` to within rounding (1e-12 on the nets here), not bit for
bit.  Larger nets run the one-row numpy pass instead, so for them
`forward` equals `forward_batch` exactly.

There is one numpy forward pass, `_forward`: the first half of every
step, and the core of `_outputs`, which runs K stacked nets over whole
banks a fixed number of rows at a time, reading each bank in place once
per run of stack rows, for a stack of one as for a larger one.  Every epoch's
losses, all of a group's live nets at once, come from one `_outputs`
call, and `forward_batch` is `_outputs` on a stack of one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import DataError, NumericError, TrainingDiverged, _finite, _integer, _integers, _positive, _shown

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DIVERGENCE_FACTOR = 1e6
# The ReLU's zero as a read-only 0-d array: numpy converts a Python float
# operand anew on every call, which costs more than a ReLU on a tiny net.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False
# The C function behind np.dot, which skips numpy's Python-level
# __array_function__ dispatcher: the product of every stack of one.
_dot = getattr(np.dot, "_implementation", np.dot)
# The fixed cost of one lockstep step (train_many) in units of per-slot
# arithmetic: it equals the work of about this many padded parameters.
# Measured on the unit-major step (numpy 2.4.6, Python 3.11.7, a 2-core x86
# VM, one BLAS thread): 9600 samples, batch 200, epoch losses left out,
# groups of 1, 4 and 8 nets of 7 inputs and hidden widths 4 or 16 with 2, 3
# and 4 weight layers, min of 21 runs of 4 epochs, fit as a + b * K * P in
# two runs: 1.7-1.9, 2.3-2.4 and 2.9 ms per epoch per group plus 5.4-5.7,
# 3.8-3.9 and 3.4-3.5 us per epoch per padded parameter and slot, ratios of
# about 300-350, 600-620 and 820-860 (the row-major step before it,
# measured alongside: 7.1, 4.4-4.6 and 3.9-4.0 us, ratios 230, 550-590
# and 770-900).  The fit is loose (residuals up to 2.7 ms): a stack of one runs
# np.dot and costs less than the line, a larger one np.matmul.  The value
# is older than these figures and is kept, so that the grid's lockstep
# groups, and with them its report digits, stay as they are.
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
        return _param_count(self.layer_sizes)

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
        _positive("learning_rate", self.learning_rate)
        if not _finite(self.tol) or self.tol < 0:
            raise DataError(f"tol must be a finite number >= 0, got {_shown(self.tol)}")


@dataclass
class TrainReport:
    """Per-run training trace.

    best_loss is the lowest epoch loss in loss_history, but the trained
    model holds the last epoch's weights, not the best epoch's, so its
    loss is loss_history[-1], which can be above best_loss.
    """

    epochs_run: int
    loss_history: list[float]
    converged: bool
    best_loss: float = field(default=float("inf"))


# The most parameters a net may have, which bounds its buffers.  Every net
# has more than three parameters per hidden unit ((n, h, 1) has
# (n + 2)h + 1), so its hidden layers hold fewer than 33,334 units.  A
# training step keeps two blocks of batch rows per hidden unit, 107 MB at
# most at the auto batch of 200 rows, and a scoring pass (_outputs) one
# block of _CHUNK_ROWS (1,200) rows, 320 MB at most; the weights, their
# gradient and Adam's state take a few MB.  The widest net that the tests
# run, (3, 5000, 1), has 25,001.
_NET_MAX_PARAMS = 10**5


def _check_sizes(layer_sizes) -> tuple[int, ...]:
    """The layer sizes as ints: input >= 1, hidden >= 2, output exactly 1; an integral float passes.

    layer_sizes is a sequence (a tuple, a list or a 1-D array); anything
    else, a string or bytes included, raises DataError, as does a net of
    more than _NET_MAX_PARAMS parameters.
    """
    sequence = isinstance(layer_sizes, Sequence) and not isinstance(layer_sizes, (str, bytes, bytearray))
    if not (sequence or isinstance(layer_sizes, np.ndarray) and layer_sizes.ndim == 1):
        raise DataError(f"layer sizes must be a sequence of integers, got {_shown(layer_sizes)}")
    sizes = tuple(layer_sizes)
    if len(sizes) < 2:
        raise DataError("need at least input and output layer sizes")
    if _integer("output layer width", sizes[-1], 1) != 1:
        raise DataError("output layer width must be exactly 1")
    sizes = (_integer("input width", sizes[0], 1), *(_integer("hidden layer width", h, 2) for h in sizes[1:-1]), 1)
    if _param_count(sizes) > _NET_MAX_PARAMS:
        raise DataError(f"a net may have at most {_NET_MAX_PARAMS:,} parameters; layer sizes {_shown(sizes)} give more")
    return sizes


def mlp_new(layer_sizes, seed: int = 0) -> MlpModel:
    """Fresh network: Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases.

    layer_sizes is a sequence (a tuple, a list or a 1-D array), and the
    layer sizes and the seed (>= 0) are integers, an integral float such
    as 8.0 included; anything else, a string included, raises DataError.
    """
    sizes = _check_sizes(layer_sizes)
    seed = _integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for nin, nout in zip(sizes, sizes[1:]):
        bound = np.sqrt(6.0 / (nin + nout))
        weights.append(rng.uniform(-bound, bound, size=(nin, nout)))
        biases.append(np.zeros(nout))
    return MlpModel(sizes, weights, biases, seed)


def _batch(model: MlpModel, X, y=None) -> tuple[np.ndarray, np.ndarray | None]:
    """X as an (n, n_in) float batch for model and y, if given, as its n >= 1 targets; else DataError.

    Given y, every number of X and y must be finite, as training needs.  An
    argument that is already a float array is returned as the same object.
    """
    X = np.asarray(X, dtype=float)
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or y.size == 0 or X.ndim != 2 or X.shape[0] != y.size:
            raise DataError("expected a nonempty (n, n_in) batch with matching y")
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise DataError("input width does not match the model")
    if y is not None and not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataError("training inputs and targets must be finite numbers")
    return X, y


# Nets of up to this many parameters get a straight-line kernel
# (_kernel_template), which forward and the stream run; larger ones run the
# one-row numpy pass (_float_net).  No other module reads the bound.  The
# kernel's cost grows with the parameters and the numpy pass's with the
# hidden layers, so no one count is the crossover at every depth: it lies
# near 300 parameters for two hidden layers, 370 for three and 400 for
# four.  384 is where the grid's own nets (enumerate_topologies on 3, 4, 7
# and 10 inputs) cross over.  Per call, kernel against numpy pass, min of
# 11 x 1,000 interleaved calls (2 cores, Python 3.11.7, numpy 2.4.6): 51
# parameters (7, 4, 2, 2, 1) 1.0 against 7.6 us; 273 (7, 16, 8, 1) 5.8
# against 6.0, 369 (4, 16, 16, 1) 7.4 against 5.7; 353 (10, 16, 8, 4, 1)
# 7.8 against 7.9, 393 (10, 16, 8, 8, 1) 9.1 against 7.6; 373
# (10, 16, 8, 4, 4, 1) 9.5 against 10.0, 433 (3, 6, 12, 12, 12, 1) 10.6
# against 9.3.  Of the 125 grid nets of 200 to 560 parameters, 11 take the
# slower path at this bound, none by more than 1.7 us, against 52 at 256
# and 32 at 512.  Single runs on a shared host vary by up to 2x.  Within
# the bound a unit has at most 385 terms, far below the size of one
# expression that CPython's compiler rejects with RecursionError (a sum of
# 3,000 terms on 3.11).
_KERNEL_MAX_PARAMS = 384


def _compile_factory(label: str, params: list[str], body: list[str], args: str = "x"):
    """The compiled `factory(*params)`, which returns `kernel(args)` running body with params as its closure cells."""
    source = "\n".join(
        [f"def factory({', '.join(params)}):", f"    def kernel({args}):", *(f"        {line}" for line in body), "    return kernel\n"]
    )
    namespace: dict = {}
    exec(compile(source, label, "exec"), namespace)
    return namespace["factory"]


@lru_cache(maxsize=64)
def _kernel_template(sizes: tuple[int, ...]):
    """The compiled factory of the straight-line kernel for nets of these layer sizes.

    None for nets of more than _KERNEL_MAX_PARAMS parameters.
    factory(*params), given a net's parameters as floats in _flat_params
    order, returns kernel(x), which computes the net on the input list x
    unit by unit.  Its source names every weight, bias and activation by
    its indices and holds no number but 0.0, so it depends on the sizes
    only; the weights become closure cells of the kernel.  Each unit is
    one statement, whose sum runs left to right from 0.0 and then adds its
    bias.
    """
    if _param_count(sizes) > _KERNEL_MAX_PARAMS:
        return None
    ins = [f"a{i}" for i in range(sizes[0])]
    params, body = [], [f"{', '.join(ins)}, = x"]
    last = len(sizes) - 2
    for li, (nin, nout) in enumerate(zip(sizes, sizes[1:])):
        params += [f"w{li}_{i}_{j}" for i in range(nin) for j in range(nout)]
        params += [f"b{li}_{j}" for j in range(nout)]
        outs = [f"h{li}_{j}" for j in range(nout)]
        for j, h in enumerate(outs):
            terms = [f"{a}*w{li}_{i}_{j}" for i, a in enumerate(ins)]
            body.append(f"{h} = {' + '.join(['0.0', *terms, f'b{li}_{j}'])}")
            if li != last:
                # ReLU that lets a NaN and -0.0 through
                body.append(f"if {h} < 0.0: {h} = 0.0")
        ins = outs
    body.append(f"return {ins[0]}")
    return _compile_factory(f"<knitrect kernel {sizes}>", params, body)


def _flat_params(model: MlpModel) -> list[float]:
    """Per layer, the weights row by row and then the biases, as floats."""
    flat: list[float] = []
    for w, b in zip(model.weights, model.biases):
        flat += w.ravel().tolist() + b.tolist()
    return flat


def _float_net(model: MlpModel):
    """The network as a function of one input list of Python floats, returning a float.

    Nets of up to _KERNEL_MAX_PARAMS parameters run a straight-line
    kernel compiled once per tuple of layer sizes (_kernel_template), with
    this model's weights bound to it.  Larger ones run the input as one
    row through _outputs on the weights folded here, the pass that
    forward_batch runs, so they give its value bit for bit.
    """
    factory = _kernel_template(tuple(map(int, model.layer_sizes)))  # ints only reach the source
    if factory is not None:
        return factory(*_flat_params(model))
    widths, buffers = model.layer_sizes, {}
    ws = _layer_views(_fold([model], widths), widths)
    return lambda x: _outputs(ws, widths, np.array([[[*x, 1.0]]]), [0], 1, buffers).item()


def forward(model: MlpModel, x) -> float:
    """Prediction for a single input vector.

    Evaluated by _float_net: nets of up to _KERNEL_MAX_PARAMS (384)
    parameters run a straight-line kernel on Python floats, compiled once
    per shape, which sums each unit's products left to right from 0.0 and
    then adds its bias.  That order is not numpy's, so the result equals
    forward_batch on the one-row batch to within rounding (1e-12 here), not
    bit for bit.  Larger nets run forward_batch's own pass on the one row
    and equal it exactly.  The stream path (pipeline.stream_push) runs the
    same evaluator, so the two agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError("forward expects a single input vector")
    if x.size != model.layer_sizes[0]:
        raise DataError("input width does not match the model")
    return _float_net(model)(x.tolist())


class _Buffers:
    """The arrays one pass of K stacked nets writes, for batches of n samples.

    The layout is feature-major and, for K > 1, unit-major: hidden layer
    l's activations are one (n_l + 1, K, n) block, per unit a row of K
    slots of n samples, with the row of ones last, which multiplies the
    bias column of the folded weights.  acts[l] is the output of weight
    layer l, the block of hidden layer l + 1 as the (K, n_{l+1} + 1, n)
    view that the products take, whose row stride K*n BLAS reads as the
    leading dimension of a 2-D matrix, also as out=; zs[l] is the part of
    it that layer l's product writes, its rows but the ones; and relus[l]
    is that part as one contiguous (n_{l+1}, K, n) block, on which the ReLU
    and its mask run.  acts[-1] is the (K, 1, n) output and output the
    same numbers as (K, n).  A
    stack of one drops its K axis, so each of these is a 2-D (rows, n)
    block and `product` is _dot, the C function behind np.dot, else
    np.matmul: a 2-D dot is the cheaper call, its out= takes such blocks,
    and without np.dot's Python-level dispatcher it is cheaper still.  A
    traced step records product as the function it is (_Trace.stand_in).

    That is all a scoring pass (_outputs, scoring=True) makes: its layer 0
    reads the banks in place.  A training step gathers its input rows,
    each ending in a one, into x (K, n, n_0 + 1), and first is layer 0's
    input as _forward takes it, one run that the whole stack reads.  A
    stack of one reads the rows in place, through x's transposed view.  A
    larger one copies them (np.copyto) through x_t, a (K, n, n_0 + 1) view
    of an (n_0 + 1, K, n) block that first views as acts views the hidden
    layers' blocks; x_t is None for a stack of one.  The step also keeps:
    acts_t, the transposed views of acts[:-1] that the weight gradients
    multiply by, after x itself for layer 0 (by the block's transposed
    view OpenBLAS sums that product in another order at some sizes, which
    moves the last bits of the trained weights); y (K, n), the gathered
    targets, and target, the same numbers shaped like acts[-1]; deltas[l],
    the error at layer l's output, the (K, n_{l+1}, n) view of a
    unit-major block, which the backward product through layer l reads;
    delta_outs[l], for a hidden layer, its whole block (K, n_{l+1} + 1, n),
    which the backward product through layer l + 1 writes: that product
    runs on the whole transposed weight block (_layer_views), so its last
    row, the bias column's, lands in a spare row that nothing reads;
    delta_blocks[l], the real rows of that block as one contiguous
    (n_{l+1}, K, n) block, which the mask multiplies; and dzs, the deltas
    that the weight gradients read.  The output layer's delta has two
    rows: the second stays zero, so that the backward product through the
    output layer has an inner size of 2 and runs in BLAS rather than in
    numpy's loop for a rank-1 product.  scale is 2/n as a 0-d array, the
    factor of the output delta.
    """

    def __init__(self, k: int, n: int, widths, scoring: bool = False):
        slots = (lambda a: a[:, 0]) if k == 1 else (lambda a: a.transpose(1, 0, 2))
        blocks = (lambda a: a[:, 0]) if k == 1 else (lambda a: a)
        self.product = _dot if k == 1 else np.matmul
        hidden = [np.empty((w + 1, k, n)) for w in widths[1:-1]]
        for a in hidden:
            a[-1] = 1.0
        out = np.empty((1, k, n))
        self.acts = [*map(slots, hidden), slots(out)]
        self.zs = [a[..., :-1, :] for a in self.acts[:-1]] + [self.acts[-1]]
        self.relus = [blocks(a[:-1]) for a in hidden]
        self.output = out.reshape(k, n)
        if scoring:
            return
        self.x = np.empty((k, n, widths[0] + 1))
        self.x[:, :, -1] = 1.0
        if k == 1:
            first, self.x_t = self.x[0].T, None
        else:
            block = np.empty((widths[0] + 1, k, n))
            first, self.x_t = slots(block), block.transpose(1, 2, 0)
        self.first = [(..., first)]
        self.acts_t = [self.x[0] if k == 1 else self.x, *(a.swapaxes(-2, -1) for a in self.acts[:-1])]
        self.y = np.empty((k, n))
        self.scale = np.array(2.0 / n)
        self.target = self.y.reshape(self.acts[-1].shape)
        units = [np.empty((w + 1, k, n)) for w in widths[1:-1]]
        self.delta_outs = [slots(a) for a in units]
        self.deltas = [slots(a[:-1]) for a in units] + [slots(np.zeros((2, k, n)))]
        self.delta_blocks = [blocks(a[:-1]) for a in units]
        self.dzs = self.deltas[:-1] + [self.deltas[-1][..., :1, :]]


def _forward(ws, first, buf: _Buffers) -> None:
    """The outputs of K stacked nets on the input `first`, written into buf.acts.

    ws[l] has shape (K, n_{l+1}, n_l + 1): layer l's weights with its
    biases as the last column, which the ones row of its input multiplies.
    first is layer 0's input as runs, (rows, x) pairs: the stack rows
    `rows` (a slice, or ... for the whole stack) all read x, which has
    n_0 + 1 rows of n samples, and layer 0 is one product per run, a
    broadcast one where x is 2-D and the stack is not.  A scoring pass
    gives each run's bank rows as a transposed view, a training step its
    one run buf.first.  Each layer above is one product and, below it, one
    ReLU on the contiguous block of units it reads (buf.relus).
    """
    for rows, x in first:
        buf.product(ws[0][rows], x, out=buf.zs[0][rows])
    for w, relu, x, z in zip(ws[1:], buf.relus, buf.acts, buf.zs[1:]):
        np.maximum(relu, _ZERO, out=relu)
        buf.product(w, x, out=z)


# Rows per pass of _outputs: its buffers hold K x _CHUNK_ROWS rows per
# layer, a few MB at most for the nets here, whatever the length of the
# recording.
_CHUNK_ROWS = 1200


def _bank_runs(banks) -> list[tuple]:
    """The runs of a stack whose row i reads bank banks[i]: (rows, bank) per maximal slice of rows that share a bank.

    A bank that the whole stack reads is one run whose rows are `...`,
    which also indexes the 2-D weights of a stack of one.
    """
    bounds = [0, *(i for i in range(1, len(banks)) if banks[i] != banks[i - 1]), len(banks)]
    if len(bounds) == 2:
        return [(..., banks[0])]
    return [(slice(lo, hi), banks[lo]) for lo, hi in zip(bounds, bounds[1:])]


def _outputs(ws, widths, banks: np.ndarray, bank_of, n: int, buffers: dict) -> np.ndarray:
    """The (K, n) outputs of K stacked nets on the first n rows of their banks.

    ws are the nets' layers as _forward takes them, padded to the layer
    widths `widths`; banks is a (B, n, n_0 + 1) stack of input rows that
    end in a one, and stack row i reads bank bank_of[i].  The rows run
    through _forward _CHUNK_ROWS at a time, in scoring _Buffers that
    `buffers` keeps by row count; one that is missing is made and kept
    there.  Per run of stack rows that share a bank (_bank_runs), layer 0
    multiplies the run's weights by that bank's chunk of rows in place,
    through its transposed view, for a stack of one as for a larger one:
    no row is gathered or copied.
    """
    runs = _bank_runs(bank_of)
    out = np.empty((len(bank_of), n))
    for lo in range(0, n, _CHUNK_ROWS):
        size = min(_CHUNK_ROWS, n - lo)
        buf = buffers.get(size)
        if buf is None:
            buf = buffers[size] = _Buffers(len(bank_of), size, widths, scoring=True)
        _forward(ws, [(rows, banks[bank, lo : lo + size].T) for rows, bank in runs], buf)
        out[:, lo : lo + size] = buf.output
    return out


def forward_batch(model: MlpModel, X) -> np.ndarray:
    """Predictions for an (n, n_in) batch; returns shape (n,).

    This is the stacked pass of training (_outputs) on a stack of one:
    the folded weights, and X with a column of ones that carries the
    biases.  Each output sums its products and its bias in the order of
    numpy's matrix product.
    """
    X, _ = _batch(model, X)
    sizes = model.layer_sizes
    bank = np.hstack((X, np.ones((len(X), 1))))[None]
    return _outputs(_layer_views(_fold([model], sizes), sizes), sizes, bank, [0], len(X), {})[0]


def mse_loss(model: MlpModel, X, y) -> float:
    """Mean squared error of the predictions for the batch X against the targets y.

    X and y must be finite (else DataError).  A loss that overflows the
    float range, on inputs near its limit, raises NumericError.
    """
    X, y = _batch(model, X, y)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(np.mean((forward_batch(model, X) - y) ** 2))
    if not _finite(loss):
        raise NumericError("mean squared error overflows the float range")
    return loss


def _backprop(ws, wts, buf: _Buffers, gws) -> None:
    """Mean-squared-error gradients of K stacked nets, written into gws.

    ws[l] has shape (K, n_{l+1}, n_l + 1): layer l's weights with its
    biases as the last column, and gws takes the same shapes.  wts[l] is
    the transposed view of layer l's whole block of the same stack,
    (K, n_l + 1, n_{l+1}), the output layer's with its zero second row
    (K, n_L + 1, 2) (_layer_views), so each backward product reads one
    memory segment per slot, which BLAS takes without a copy; its last
    output row, the bias column's, is a spare row of the delta block
    below (buf.delta_outs) that nothing reads.  buf.x holds the
    (K, n, n_0 + 1) input batches, each row ending in a one, and buf.y
    the targets.  Slot k's gradient is that of its own batch only.  The
    ones row of each layer input carries the bias, so one product gives a
    layer's output and one more its weight and bias gradient.  ReLU
    subgradient at 0 is taken as 0.
    """
    _forward(ws, buf.first, buf)
    last = len(ws) - 1
    delta = buf.dzs[last]
    np.subtract(buf.acts[-1], buf.target, out=delta)
    delta *= buf.scale
    for li in range(last, -1, -1):
        buf.product(buf.dzs[li], buf.acts_t[li], out=gws[li])
        if li > 0:
            # nothing reads layer li - 1's units again, so they take their
            # ReLU's derivative in place: 1 where positive, else 0
            z, below = buf.relus[li - 1], buf.delta_blocks[li - 1]
            np.greater(z, _ZERO, out=z)
            buf.product(wts[li], buf.deltas[li], out=buf.delta_outs[li - 1])
            below *= z


def gradient(model: MlpModel, X, y) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradient of the mean squared error over the batch.

    ReLU subgradient at 0 is taken as 0.  X and y must be finite (else
    DataError).  A gradient that overflows the float range, on inputs near
    its limit, raises NumericError.
    """
    X, y = _batch(model, X, y)
    sizes = model.layer_sizes
    params = _fold([model], sizes)
    grads = np.zeros_like(params)
    ws, wts, gws = _layer_views(params, sizes), _layer_views(params, sizes, transposed=True), _layer_views(grads, sizes)
    buf = _Buffers(1, y.size, sizes)
    buf.x[0, :, :-1] = X
    buf.y[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        _backprop(ws, wts, buf, gws)
    if not np.isfinite(grads).all():
        raise NumericError("gradient overflows the float range")
    return _unfold(gws, sizes)


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


def _block_shapes(widths) -> list[tuple[int, int]]:
    """(rows, n_l) of each layer's block in a parameter stack: one row per unit, and two for the output unit.

    The output layer's second row is held at zero; see _Buffers.
    """
    return [(nout, nin) for nin, nout in zip(widths[:-2], widths[1:-1])] + [(2, widths[-2])]


def _fold(models, widths) -> np.ndarray:
    """The (K, P) parameter stack of the models, zero-padded to the layer widths `widths`; see _layer_views."""
    params = np.zeros((len(models), sum(rows * (nin + 1) for rows, nin in _block_shapes(widths))))
    for row, mo in enumerate(models):
        for block, w, b in zip(_layer_views(params[row], widths), mo.weights, mo.biases):
            block[: w.shape[1], : w.shape[0]] = w.T
            block[: b.size, -1] = b
    return params


def _unfold(blocks, sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The weights (n_l, n_{l+1}) and biases of a net of these layer sizes, as views of its layer blocks."""
    pairs = list(zip(sizes, sizes[1:]))
    return [b[:nout, :nin].T for b, (nin, nout) in zip(blocks, pairs)], [b[:nout, -1] for b, (_, nout) in zip(blocks, pairs)]


def _layer_views(flat: np.ndarray, widths, transposed: bool = False) -> list[np.ndarray]:
    """Per-layer views of a (K, P) parameter stack, or with transposed their transposes.

    The stack holds layer l as an (n_{l+1}, n_l + 1) block: one row per
    unit, its weights and then its bias.  The output layer's block has a
    second row, held at zero.  Without transposed the views are the
    blocks, the output layer's cut to its real row.  With transposed they
    are the whole blocks transposed, (K, n_l + 1, rows), bias column and
    zero row included: a block that is one memory segment, which BLAS
    reads transposed in place (a view without the bias column is not one
    segment, and np.dot copies it).  A stack of one drops its K axis, as
    does a 1-D flat.
    """
    if flat.ndim == 2 and len(flat) == 1:
        flat = flat[0]
    views, off = [], 0
    for rows, nin in _block_shapes(widths):
        views.append(flat[..., off : off + rows * (nin + 1)].reshape(*flat.shape[:-1], rows, nin + 1))
        off += rows * (nin + 1)
    if transposed:
        return [v.swapaxes(-2, -1) for v in views]
    views[-1] = views[-1][..., :1, :]
    return views


# The arguments of a generated training step (_traced_step): the (K, n)
# index slice of its minibatch and Adam's two bias corrections, as floats.
_STEP_ARGS = ("idx", "corr1", "corr2")


class _Trace:
    """The numpy calls that one run of a training step makes on stand-ins (_StandIn), as the lines of a function.

    Each call is one line, in the order the step made it.  It names each
    array, function, ufunc and bound method it takes by a closure cell
    c<i>, one per object (cells keeps them alive, so their ids stay
    theirs); an int, str, bool or None by its literal; and a step argument
    by its name.  An array function is recorded as the C function behind
    its dispatcher (its _implementation), which computes the same on
    arrays without running numpy's Python-level __array_function__
    dispatch; a function without one is recorded as itself.  An in-place
    operator (`a *= b`) stays one, on a cell that the function declares
    nonlocal (updated).
    """

    def __init__(self):
        self.cells: list = []
        self.names: dict[int, str] = {}
        self.lines: list[str] = []
        self.updated: dict[str, None] = {}

    def name(self, value) -> str:
        if isinstance(value, _StandIn):
            return value._name or self.name(value._value)
        if value is None or isinstance(value, (bool, int, str)):
            return repr(value)
        if id(value) not in self.names:
            self.names[id(value)] = f"c{len(self.cells)}"
            self.cells.append(value)
        return self.names[id(value)]

    def call(self, func, args, kwargs):
        operands = [*map(self.name, args), *(f"{key}={self.name(v)}" for key, v in kwargs.items())]
        self.lines.append(f"{self.name(getattr(func, '_implementation', func))}({', '.join(operands)})")
        return kwargs.get("out")

    def update(self, target: _StandIn, op: str, operand) -> _StandIn:
        name = self.name(target)
        self.updated[name] = None
        self.lines.append(f"{name} {op}= {self.name(operand)}")
        return target

    def stand_in(self, value):
        """value with each array in it, also in a list, a tuple or the attributes of _Buffers or a namespace, as a stand-in.

        A function there (_Buffers.product) becomes one that records its
        calls: the C dot takes no stand-in.
        """
        if isinstance(value, np.ndarray):
            return _StandIn(self, value)
        if callable(value):
            return lambda *args, **kwargs: self.call(value, args, kwargs)
        if isinstance(value, (list, tuple)):
            return type(value)(map(self.stand_in, value))
        if isinstance(value, (_Buffers, SimpleNamespace)):
            return SimpleNamespace(**{key: self.stand_in(v) for key, v in vars(value).items()})
        return value


class _StandIn:
    """An array, or a step argument, in a traced step: numpy calls on it are recorded in its _Trace, not run.

    A ufunc, an array function (np.copyto), a method
    (`a.take(...)`, recorded on the bound method) and an in-place operator
    record themselves.  Indexing gives a stand-in of the view, and iterating
    one per row, so each view the step takes is a cell of its own.  A
    branch on a stand-in raises TypeError: the trace records one path.
    """

    def __init__(self, trace: _Trace, value, name: str | None = None):
        self._trace, self._value, self._name = trace, value, name

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if method != "__call__":
            return NotImplemented
        if len(kwargs.get("out", ())) == 1:
            kwargs["out"] = kwargs["out"][0]
        return self._trace.call(ufunc, args, kwargs)

    def __array_function__(self, func, types, args, kwargs):
        return self._trace.call(func, args, kwargs)

    def __getitem__(self, key):
        return _StandIn(self._trace, self._value[key])

    def __iter__(self):
        return (self[i] for i in range(len(self._value)))

    def __getattr__(self, attr: str):
        if attr.startswith("__"):
            raise AttributeError(attr)
        method = getattr(self._value, attr)
        return lambda *args, **kwargs: self._trace.call(method, args, kwargs)

    def __bool__(self):
        raise TypeError("a traced step cannot branch on an array")

    def __imul__(self, other):
        return self._trace.update(self, "*", other)

    def __iadd__(self, other):
        return self._trace.update(self, "+", other)

    def __isub__(self, other):
        return self._trace.update(self, "-", other)

    def __itruediv__(self, other):
        return self._trace.update(self, "/", other)


@lru_cache(maxsize=64)
def _step_factory(cells: int, body: tuple[str, ...]):
    """The compiled factory(c0, ..., c<cells - 1>) of a generated training step with this body."""
    return _compile_factory("<knitrect training step>", [f"c{i}" for i in range(cells)], list(body), ", ".join(_STEP_ARGS))


def _traced_step(step, *operands):
    """step(*operands, idx, corr1, corr2) as one generated straight-line function of (idx, corr1, corr2).

    step runs once, on stand-ins of the operands and of its arguments
    (_Trace).  The calls it makes, in order, are the body of a function
    compiled once per source (_step_factory), with every object they name
    bound to it as a closure cell, an array function as the C function
    behind its dispatcher (_Trace.call).  So that function runs the same
    numpy computations on the same arrays in the same order as step on the
    operands, and its results are step's bit for bit, but it runs none of
    step's Python, no attribute or list lookup, loop or branch, and none of
    numpy's array-function dispatch.
    """
    trace = _Trace()
    step(*map(trace.stand_in, operands), *(_StandIn(trace, None, name) for name in _STEP_ARGS))
    body = [f"nonlocal {', '.join(trace.updated)}"] if trace.updated else []
    return _step_factory(len(trace.cells), (*body, *trace.lines))(*trace.cells)


def train_many(
    models, Xs, y, cfg: TrainConfig, seeds
) -> list[tuple[MlpModel, TrainReport] | TrainingDiverged]:
    """Train K models, of any depths, each exactly as `train` would.

    Slot k trains models[k] on Xs[k] against the shared target y, shuffled
    by seeds[k] (cfg.seed is not used).  The models are split by
    lockstep_groups, and each group trains in lockstep (_train_group), so a
    caller needs no grouping of its own.  A slot that diverges does not
    stop the others, and a loss that overflows or goes NaN ends its slot
    in TrainingDiverged, with no numpy warning.  Every input is checked
    before any group trains: a non-finite number in X or y is a DataError.
    Returns one entry per slot, in input order: the trained copy with its
    report, or the TrainingDiverged that ended it.  The input models are
    left untouched.
    """
    models = list(models)
    seeds = [_integer("seed", s, 0) for s in seeds]
    if not models or len(Xs) != len(models) or len(seeds) != len(models):
        raise DataError("train_many needs one input matrix and one seed per model")
    arrays = {id(X): np.asarray(X, dtype=float) for X in Xs}  # an input given twice stays one array
    Xs = [arrays[id(X)] for X in Xs]
    for X, mo in zip(Xs, models):
        _, y = _batch(mo, X, y)
    results: list = [None] * len(models)
    for group in lockstep_groups([mo.layer_sizes for mo in models]):
        # a loss that overflows, or goes NaN, ends its slot in TrainingDiverged
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = _train_group([models[i] for i in group], [Xs[i] for i in group], y, cfg, [seeds[i] for i in group])
        for i, outcome in zip(group, outcomes):
            results[i] = outcome
    return results


def _train_group(models, Xs, y: np.ndarray, cfg: TrainConfig, seeds) -> list:
    """train_many's body for one group of models of one depth, on checked inputs.

    Parameters are zero-padded to the group's widest layers and stacked in
    one (K, P) array beside Adam's m and v (_fold).  Each layer is one
    (K, n_{l+1}, n_l + 1) block of that array, its biases the last column,
    and the stacked input banks end in a column of ones, so a layer's bias
    rides in its product.  Each epoch draws every live slot's shuffle and adds its
    bank's row offset once, so the shuffled indices address the stacked
    rows X_rows and the targets y_rows (y repeated once per bank) alike.
    One step (train_step) takes each slot's minibatch rows and targets
    with one gather each into preallocated buffers (one set per minibatch
    size: the full one and a shorter last one); a stack of more than one
    copies the rows on into layer 0's unit-major block (_Buffers.x_t).  It
    then runs one batched forward/backward pass (_backprop), whose
    backward products read transposed views of the parameter stack's
    layer blocks in place, fills Adam's bias corrections and
    runs one Adam update in place, on the operands `ops`, m and v as one
    stack.  train_step runs only on stand-ins: each time the stack is built
    or shrinks, _traced_step makes it one generated function per minibatch
    size, with that stack's operands and buffers bound to it, and each step
    calls that function with its index slice and the two bias corrections.
    The output layer's zero row (see _Buffers) has a zero gradient, so Adam
    leaves it at zero.  A step allocates no array memory but the index
    copies numpy's take makes of a strided minibatch slice (K > 1).
    The padding is exact: a padded unit has z = 0, so its ReLU delta and
    gradient are 0, and Adam started at m = v = 0 never moves it.  Inputs
    that are the same array object are stacked once.

    Every live slot's epoch loss comes from one stacked forward pass over
    its whole bank (_outputs), on the padded stack.  That pass reads each
    bank in place, once per run, a maximal slice of stack rows whose slots
    share the bank (_bank_runs).  The stack rows keep the slots' order, so
    slots of one bank that come together make one run.  Padding can move the last bits of a loss, so
    the early-stopping decisions match a solo run's to within rounding,
    not exactly.  A slot leaves the stack when it converges, diverges or
    reaches cfg.max_iter; only then is its model cut from the stack.
    """
    n = y.size

    # one stacked input bank per distinct input array, zero-padded to the
    # widest and ending in the column of ones
    banks = list({id(X): X for X in Xs}.values())
    bank_index = {id(X): i for i, X in enumerate(banks)}
    bank_of = [bank_index[id(X)] for X in Xs]
    widths = tuple(max(col) for col in zip(*(mo.layer_sizes for mo in models)))
    X_stack = np.zeros((len(banks), n, widths[0] + 1))
    X_stack[:, :, -1] = 1.0
    for i, arr in enumerate(banks):
        X_stack[i, :, : arr.shape[1]] = arr
    X_rows = X_stack.reshape(len(banks) * n, widths[0] + 1)
    y_rows = np.tile(y, len(banks))  # row i's target, so one index takes both

    k = len(models)
    params = _fold(models, widths)
    state = np.stack((params, np.zeros_like(params), np.zeros_like(params)))  # the parameters, then Adam's m and v
    # every operand of the step is an array: Adam's bias corrections c1 and
    # c2, filled each step, and the learning rate and epsilon as 0-d arrays
    ops = SimpleNamespace(X_rows=X_rows, y_rows=y_rows)
    ops.c1, ops.c2, ops.lr, ops.eps = np.empty(()), np.empty(()), np.array(cfg.learning_rate, dtype=float), np.array(ADAM_EPS)

    def train_step(ops, buf, idx, corr1, corr2) -> None:
        """One step on the stack rows idx of X_rows and y_rows, with Adam's bias corrections corr1 and corr2.

        ops holds the step's operands and buf its _Buffers.  It runs only on
        stand-ins of them, once per minibatch size each time the stack is
        built or shrinks, to generate the function that runs (_traced_step).
        """
        # mode="clip" lets take write straight into out; every index is in range
        ops.X_rows.take(idx, axis=0, out=buf.x, mode="clip")
        if buf.x_t is not None:  # K > 1: the rows as the unit-major block of layer 0
            np.copyto(buf.x_t, buf.x)
        ops.y_rows.take(idx, out=buf.y, mode="clip")
        _backprop(ops.ws, ops.wts, buf, ops.gws)
        ops.c1.fill(corr1)
        ops.c2.fill(corr2)
        # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g**2 as one stack;
        # params -= lr * (m/c1) / (sqrt(v/c2) + eps), in that order
        (m, v), (g, g_sq), (num, den) = ops.moments, ops.grads, ops.hats
        ops.moments *= ops.betas
        np.square(g, out=g_sq)
        ops.grads *= ops.gains
        ops.moments += ops.grads
        np.divide(m, ops.c1, out=num)
        np.divide(v, ops.c2, out=den)
        num *= ops.lr
        np.sqrt(den, out=den)
        den += ops.eps
        num /= den
        ops.params -= num

    batch = min(200, n) if cfg.batch_size == "auto" else min(int(cfg.batch_size), n)
    batch_sizes = {batch, n % batch or batch}
    rngs = [np.random.default_rng(s) for s in seeds]
    live = list(range(k))  # the slot held by each stack row
    best = [float("inf")] * k
    stall = [0] * k
    history: list[list[float]] = [[] for _ in range(k)]
    results: list = [None] * k
    step = 0
    restack = True

    def losses() -> list[float]:
        """The live slots' mean squared errors over their banks, in stack row order."""
        err = _outputs(ops.ws, widths, X_stack, live_banks, n, scoring)
        err -= y
        np.square(err, out=err)
        return np.mean(err, axis=1).tolist()

    def finish(row: int, s: int, converged: bool) -> None:
        hist = history[s]
        sizes = models[s].layer_sizes
        net = MlpModel(sizes, *_unfold(_layer_views(state[0, row], widths), sizes), models[s].seed).copy()
        results[s] = (net, TrainReport(len(hist), hist, converged, min(hist)))

    for epoch in range(1, cfg.max_iter + 1):
        if restack:  # the live slots' views and scratch arrays, and their steps
            ops.params, ops.moments = state[0], state[1:]
            # g beside g**2 and m/c1 beside v/c2; the step writes all of g
            # but the output layer's zero row, so g starts at zero
            ops.grads, ops.hats = np.zeros_like(ops.moments), np.empty_like(ops.moments)
            # (beta1, beta2) and (1 - beta1, 1 - beta2) at the full shape of
            # the m and v stack, which they scale cheaper than broadcast
            ops.betas = np.stack((np.full_like(ops.params, ADAM_BETA1), np.full_like(ops.params, ADAM_BETA2)))
            ops.gains = np.stack((np.full_like(ops.params, 1 - ADAM_BETA1), np.full_like(ops.params, 1 - ADAM_BETA2)))
            ops.ws, ops.gws = _layer_views(ops.params, widths), _layer_views(ops.grads[0], widths)
            ops.wts = _layer_views(ops.params, widths, transposed=True)
            steps = {size: _traced_step(train_step, ops, _Buffers(len(live), size, widths)) for size in batch_sizes}
            scoring: dict = {}  # the forward-only buffers of the epoch losses
            live_banks = [bank_of[s] for s in live]
            offsets = n * np.array(live_banks)[:, None]
            restack = False
        if epoch == 1:
            initial = losses()
            guard = [DIVERGENCE_FACTOR * (loss + 1e-12) for loss in initial]
        order = np.stack([rngs[s].permutation(n) for s in live])
        order += offsets  # rows of X_rows and y_rows
        for lo in range(0, n, batch):
            step += 1
            steps[min(batch, n - lo)](order[:, lo : lo + batch], 1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step)

        done = []
        for row, (s, loss) in enumerate(zip(live, losses())):
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
                    finish(row, s, True)
                    done.append(row)
        if done:
            keep = [row for row in range(len(live)) if row not in done]
            live = [live[row] for row in keep]
            if not live:
                break
            state = state[:, keep]
            restack = True

    for row, s in enumerate(live):
        finish(row, s, False)
    return results


def train(model: MlpModel, X, y, cfg: TrainConfig) -> tuple[MlpModel, TrainReport]:
    """Minibatch Adam with per-epoch shuffling and best-loss early stopping.

    Stops when the best epoch loss has not improved by cfg.tol for
    cfg.patience consecutive epochs, or at cfg.max_iter.  The input model
    is left untouched; the trained copy is returned.  Raises DataError
    for a non-finite number in X or y, and TrainingDiverged if the loss
    blows up or goes non-finite.  This is train_many with one slot.
    """
    (outcome,) = train_many([model], [X], y, cfg, [cfg.seed])
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome
