"""Minimal trainable feed-forward stack: dense + 1-D conv + max-pool layers,
class-weighted softmax cross-entropy, plain SGD with an optional proximal
pull toward reference weights, frozen-prefix training, and a central
finite-difference gradient checker.

Training weighs each example by balanced_class_weights of the whole batch
train_local (or gradient_check) is given, never of a minibatch: a client's
training windows, or a centralized run's pooled set.

Everything is plain NumPy and deterministic for a fixed seed.  The dense
flatten of spatial activations is channel-major (channel c of a [T, C] map
occupies rows [c*T, (c+1)*T) of the flattened vector); see fabric.py for why
that ordering matters when layers grow.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .arch import CONV1D, DENSE, MAXPOOL1D, PARAM_KINDS, SOFTMAX_OUTPUT, ModelArch
from .fabric import LayerWeights, ModelWeights, ShapeError

LOG_CLAMP = 1e-12  # probability floor inside cross-entropy, avoids -inf
_SLICE = 32  # windows per slice of _window_prefix and forward (forward-only)


class DivergenceError(ShapeError):
    """Training reached a non-finite value.  The message names the layer;
    diverged_in adds the client, phase and round on the way out."""


@contextmanager
def diverged_in(where: str):
    """Prefix a DivergenceError leaving the block with `where`."""
    try:
        yield
    except DivergenceError as exc:
        raise DivergenceError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class Batch:
    """A stack of examples, inputs [n, window, channels] (or [n, features])
    plus one class label each: the one client-data record, from
    data.window() through ClientRuntime.data to train_local.

    rows, when set, selects the batch's examples from inputs, in order: a
    split side is its client's window view plus the rows it holds, so both
    sides share the view.  Without rows every input is an example.  Read
    the examples' inputs through take(), which gathers only the rows asked
    for."""

    inputs: np.ndarray
    labels: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.inputs.ndim not in (2, 3):
            raise ShapeError(f"inputs must be 2-D or 3-D, got {self.inputs.ndim}-D")
        count = len(self.inputs)
        if self.rows is not None:
            rows = self.rows
            if rows.ndim != 1 or len(rows) and not 0 <= rows.min() <= rows.max() < count:
                raise ShapeError(f"rows must be a vector of indices in [0, {count})")
            count = len(rows)
        if self.labels.ndim != 1 or len(self.labels) != count:
            raise ShapeError("labels must be a vector matching the example count")

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, sel=slice(None)) -> np.ndarray:
        """The inputs of the examples at positions sel (a slice or an index
        array): a view of inputs for a slice of a batch without rows, else
        a gather of those rows alone."""
        return self.inputs[sel] if self.rows is None else self.inputs[self.rows[sel]]


@dataclass(frozen=True)
class TrainingConfig:
    """Client-side training knobs.

    No knob sets class weights: train_local weighs each example by
    balanced_class_weights of the batch it is given.  frozen_prefix counts
    leading parameterized layers excluded from updates.  Setting
    reference_weights adds FedProx's proximal term
    (mu/2)*||w - reference||^2, mu = proximal_coefficient, over the
    trainable parameters to the objective; fedprox_round sets it to the
    server model it distributes, and without it mu is unused.
    """

    local_epochs: int = 5
    learning_rate: float = 0.05
    batch_size: int = 16
    frozen_prefix: int = 0
    proximal_coefficient: float = 0.01
    reference_weights: ModelWeights | None = None

    def __post_init__(self) -> None:
        for name in ("learning_rate", "proximal_coefficient"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.frozen_prefix < 0:
            raise ValueError("frozen_prefix must be >= 0")
        if self.proximal_coefficient < 0:
            raise ValueError("proximal_coefficient must be >= 0")


def balanced_class_weights(labels: np.ndarray, classes: int) -> np.ndarray:
    """Standard balanced weighting: n / (k_present * count_c).

    Classes absent from `labels` get weight 1.0; they never contribute to a
    weighted loss computed on this data.
    """
    counts = np.bincount(np.asarray(labels, dtype=np.intp), minlength=classes)
    weights = np.ones(classes, dtype=np.float64)
    present = counts > 0
    k = int(present.sum())
    if k:
        weights[present] = len(labels) / (k * counts[present])
    return weights


def _check_entry(model: ModelWeights, arch: ModelArch, inputs,
                 labels: np.ndarray | None = None,
                 cfg: TrainingConfig | None = None) -> None:
    """Check model and inputs, a Batch or an array, against arch: the one
    check on the way into nn, so the layer kernels below check nothing.
    Each layer's weights must have the shape arch traces at the model's
    widths, the inputs must meet the input contract, labels, when given,
    must name a class of the model's output, and cfg, when given, must
    freeze at most every layer and hold reference_weights, if any, of the
    model's shape."""
    params = arch.param_indices()
    if len(model.layers) != len(params):
        raise ShapeError(f"model has {len(model.layers)} parameterized layers, "
                         f"architecture has {len(params)}")
    for i, layer, shape in zip(params, model.layers, arch.trace(model.shape_signature)):
        if layer.incoming.shape != shape.incoming_shape:
            raise ShapeError(f"layer {i} ({arch.layers[i].kind}): weights "
                             f"{layer.incoming.shape}, expected {shape.incoming_shape}")
    shape = np.shape(inputs.inputs if isinstance(inputs, Batch) else inputs)[1:]
    flat = arch.input_channels == 1 and shape == (arch.input_length,)
    if shape != (arch.input_length, arch.input_channels) and not flat:
        raise ShapeError(
            f"input shape {shape} does not match the "
            f"model contract ({arch.input_length}, {arch.input_channels})"
        )
    classes = model.layers[-1].out_width
    if labels is not None and len(labels) and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(
            f"labels must lie in [0, {classes}), got [{labels.min()}, {labels.max()}]"
        )
    if cfg is not None and cfg.frozen_prefix > len(model.layers):
        raise ValueError(f"frozen_prefix {cfg.frozen_prefix} exceeds "
                         f"{len(model.layers)} layers")
    ref = cfg.reference_weights if cfg is not None else None
    if ref is not None and ref.layer_shapes() != model.layer_shapes():
        raise ShapeError("reference_weights shape does not match the model")


def _gather(inputs, dtype, sel=slice(None)) -> np.ndarray:
    """The examples at positions sel of inputs, a Batch or an array that
    passed _check_entry, as a [m, T, C] array of dtype: the one read of
    input windows in nn.  Only the rows gathered are converted, never a
    Batch's whole window view."""
    x = np.asarray(inputs.take(sel) if isinstance(inputs, Batch) else inputs[sel],
                   dtype=dtype)
    return x[:, :, None] if x.ndim == 2 else x


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the logits z, computed in place in z, which it
    returns: every caller passes logits that a layer has just allocated."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _activate(spec, z, backward):
    """Apply the layer's activation to the pre-activation z, in place; the
    backward closure (None in forward-only mode) gains the activation's
    derivative.  Its relu mask reads the activation: relu(z) > 0 exactly
    where z > 0.  The mask multiplies the incoming gradient in place: every
    layer's backward returns an input gradient that it allocated."""
    if spec.activation != "relu":
        return z, backward
    np.maximum(z, 0, out=z)
    if backward is None:
        return z, None
    return z, lambda da, need_dx: backward(np.multiply(da, z > 0, out=da), need_dx)


def _slots(a: np.ndarray, k: int) -> np.ndarray:
    """The max-pool blocks of a [N, T, C] as slots [k, N, T // k, C]:
    slots[i] is slot i of every block, a strided view."""
    n, t, c = a.shape
    return a[:, :t // k * k, :].reshape(n, t // k, k, c).transpose(2, 0, 1, 3)


def _block_max(slots: np.ndarray) -> np.ndarray:
    """Each block's max, from slots [k, ...] (slots[i] is slot i of every
    block): the one statement of the pooled max.  The reduction steps
    acc = maximum(acc, next), and np.maximum returns its second operand on
    a tie, so over the slots in reverse order the result holds the bits of
    the first slot with the block max, the one argmax picks (a signed zero
    included); a NaN passes on."""
    return np.maximum.reduce(slots[::-1], axis=0)


def _winners(slots: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each block's winning slot, the first holding its max out: the number
    of leading slots below the max.  A block holding a NaN routes to slot
    0; its objective is NaN, so that gradient is never applied."""
    miss = slots[0] < out
    winner = miss.astype(np.intp)
    for plane in slots[1:-1]:
        miss &= plane < out
        winner += miss
    return winner


def _flat_index(winner: np.ndarray, k: int, t: int) -> np.ndarray:
    """Flat index of each winning slot in the [N, t, C] array the blocks of
    kernel k were cut from: its block's first row plus the slot."""
    n, t_out, c = winner.shape
    winner *= c
    winner += np.arange(n * t * c).reshape(n, t, c)[:, :t_out * k:k, :]
    return winner.ravel()


def _maxpool1d(spec, layer, a, keep):
    n, t, c = a.shape
    # The slots are copied once into contiguous planes: a reduction or an
    # elementwise op on the strided views runs inner loops of only C elements.
    slots = np.ascontiguousarray(_slots(a, spec.kernel))
    out = _block_max(slots)
    if not keep:
        return out, None
    flat = _flat_index(_winners(slots, out), spec.kernel, t)

    def backward(da, need_dx):
        # A pool is never the lowest trainable layer: its input gradient
        # is always needed.  Rows that won nothing, the t % k trailing
        # rows among them, get +0.0.
        dx = np.zeros(n * t * c, dtype=da.dtype)
        dx[flat] = da.ravel()
        return dx.reshape(n, t, c), None

    return out, backward


def _im2col(a: np.ndarray, k: int) -> np.ndarray:
    """im2col view [N, T-k+1, k*C] of a [N, T, C]: row t of window i is
    a[i, t:t+k, :] flattened.  The rows overlap, so it is read-only.  It
    copies a only when a is not contiguous, and the strides come from the
    shape: numpy calls an array contiguous whatever the stride of a size-1
    axis, such as the 0 of x[:, :, None].  Built by the ndarray
    constructor, which costs a quarter of as_strided: forward builds one
    per slice and training one per minibatch."""
    a = np.ascontiguousarray(a)
    n, t, c = a.shape
    size = a.itemsize
    cols = np.ndarray((n, t - k + 1, k * c), a.dtype, a, 0, (t * c * size, c * size, size))
    cols.flags.writeable = False
    return cols


def _conv1d(spec, layer, a, keep):
    k, c_in, c_out = layer.incoming.shape
    cols = _im2col(a, k)
    if keep:
        # A training minibatch copies its im2col rows once: the forward
        # gemm reads them and the backward's dW gemm reuses them.
        cols = np.ascontiguousarray(cols)
    # A 3-D matmul runs one gemm per window, so a window's output does not
    # depend on the other windows in the call: training and _window_prefix
    # rely on it.  The bias is added in place, broadcast over the last axis.
    z = cols @ layer.incoming.reshape(k * c_in, c_out)
    z += layer.bias
    if not keep:
        return _activate(spec, z, None)
    return _activate(spec, z, lambda dzl, need_dx: _conv_backward(
        layer, cols, dzl, dzl.sum(axis=(0, 1)), need_dx))


def _conv_backward(layer, cols, dzl, db, need_dx):
    """(input gradient or None, (dW, db)) of a conv whose kept im2col rows
    are cols [N, T_out, k*C_in], from the gradient dzl [N, T_out, C_out] of
    its pre-activation and the bias gradient db."""
    k, c_in, c_out = layer.incoming.shape
    n, t_out, _ = dzl.shape
    dw = cols.reshape(-1, k * c_in).T @ dzl.reshape(-1, c_out)
    grad = (dw.reshape(k, c_in, c_out), db)
    if not need_dx:
        return None, grad
    dcols = dzl @ layer.incoming.reshape(k * c_in, c_out).T
    dcols = dcols.reshape(n, t_out, k, c_in)
    dx = np.zeros((n, t_out + k - 1, c_in), dtype=dcols.dtype)
    for i in range(k):
        dx[:, i:i + t_out, :] += dcols[:, :, i, :]
    return dx, grad


def _conv_pool(spec, layer, pool, a):
    """Training's conv1d followed by a maxpool1d of kernel `pool`, as one
    block at pooled resolution, with every bit of running the two layers
    (keep=True) in order: the output, and dW, db and the input gradient.

    The conv's gemm runs as _conv1d runs it, and the bias is added to the
    positions the pool reads.  Each block's winner is the first slot with
    the max of z + b, as the pool after a plain activation picks it; with
    relu, a block whose max is <= 0 relus to a tie of zeros, so it routes
    to slot 0.  Relu and its backward mask then run on the pooled output
    alone.  The backward scatters the pooled gradient into the conv's
    full-size gradient, the matrix the dW gemm reads in _conv1d.  db adds
    the pooled gradient rows in (window, block) order: the nonzero terms
    _conv1d's sum over every row adds, in the same order, and both numpy
    reductions start from +0.0, so the +0.0 rows that lost change no
    bit."""
    k, c_in, c_out = layer.incoming.shape
    n, t, _ = a.shape
    t_out = t - k + 1
    cols = np.ascontiguousarray(_im2col(a, k))
    z = cols @ layer.incoming.reshape(k * c_in, c_out)
    # z + b for every slot the pool reads, copied once into contiguous planes
    slots = _slots(z, pool)
    slots = np.add(slots, layer.bias, out=np.empty(slots.shape, z.dtype))
    out = _block_max(slots)
    winner = _winners(slots, out)
    relu = spec.activation == "relu"
    if relu:
        alive = out > 0
        winner *= alive
        np.maximum(out, 0, out=out)
    flat = _flat_index(winner, pool, t_out)

    def backward(da, need_dx):
        # the pooled gradient, C-contiguous: its rows in (window, block) order
        dp = (np.multiply(da, alive, out=np.empty(alive.shape, da.dtype)) if relu
              else np.ascontiguousarray(da)).reshape(-1, c_out)
        dzl = np.zeros(n * t_out * c_out, dtype=dp.dtype)
        dzl[flat] = dp.ravel()
        return _conv_backward(layer, cols, dzl.reshape(n, t_out, c_out),
                              np.add.reduce(dp, axis=0), need_dx)

    return out, backward


def _dense(spec, layer, a, keep):
    # Also the softmax-output layer: its activation is "none", and callers
    # of _walk apply the softmax to the logits this returns.
    spatial = a.ndim == 3
    if spatial:  # channel-major flatten: [N, T, C] -> [N, C*T]
        n, t, c = a.shape
        a = a.transpose(0, 2, 1).reshape(n, c * t)
    z = a @ layer.incoming + layer.bias
    if not keep:
        return _activate(spec, z, None)

    def backward(dzl, need_dx):
        grad = (a.T @ dzl, dzl.sum(axis=0))
        if not need_dx:
            return None, grad
        dx = dzl @ layer.incoming.T
        if spatial:
            dx = dx.reshape(n, c, t).transpose(0, 2, 1)
        return dx, grad

    return _activate(spec, z, backward)


# The one dispatch on layer kind: forward(spec, layer, a, keep) returns
# the layer output and, when keep is true, a closure backward(d, need_dx)
# mapping the gradient of that output to (gradient of the input, or None
# when need_dx is false; (dW, db), or None for a layer without parameters).
_FORWARD = {DENSE: _dense, CONV1D: _conv1d, MAXPOOL1D: _maxpool1d,
            SOFTMAX_OUTPUT: _dense}

# Kinds that map each window on its own, bit for bit whatever else is in the
# batch, so a leading run of them may go through _window_prefix in slices.
_PER_WINDOW_KINDS = (CONV1D, MAXPOOL1D)


def _lowest_trainable(arch: ModelArch, frozen_prefix: int) -> int:
    """arch.layers index of parameter layer frozen_prefix, the lowest layer
    training updates; len(arch.layers) when every layer is frozen."""
    params = arch.param_indices()
    return params[frozen_prefix] if frozen_prefix < len(params) else len(arch.layers)


def _walk(model: ModelWeights, arch: ModelArch, a: np.ndarray, first: int = 0,
          last: int | None = None, lowest: int | None = None):
    """Run layers [first, last) of the stack (to the end by default) on a,
    the input of layer first; returns (output of the last layer run, the
    backward closures of layers lowest.. in layer order).  Layers below
    lowest, and all of them when it is None, run forward-only.  A kept
    conv1d directly followed by a maxpool1d runs with it as one block
    (_conv_pool), which leaves one closure for the two."""
    last = len(arch.layers) if last is None else last
    li = sum(spec.kind in PARAM_KINDS for spec in arch.layers[:first])
    backwards = []
    i = first
    while i < last:
        spec = arch.layers[i]
        layer = None
        if spec.kind in PARAM_KINDS:
            layer = model.layers[li]
            li += 1
        keep = lowest is not None and i >= lowest
        if keep and spec.kind == CONV1D and i + 1 < last \
                and arch.layers[i + 1].kind == MAXPOOL1D:
            i += 1
            a, backward = _conv_pool(spec, layer, arch.layers[i].kernel, a)
        else:
            a, backward = _FORWARD[spec.kind](spec, layer, a, keep)
        if keep:
            backwards.append(backward)
        i += 1
    return a, backwards


def _window_prefix(model: ModelWeights, arch: ModelArch, inputs,
                   below: int) -> tuple[Batch | np.ndarray, int]:
    """Run the leading conv1d/maxpool1d layers of the stack that lie below
    arch layer `below` on inputs (checked by _check_entry), _SLICE windows
    at a time, so that the gathered windows, the conv's im2col rows and
    its output exist for one slice only.  Returns (their output, the index
    of the first layer not run); inputs itself and 0 when there are none.
    Bit-identical to running them over every window at once: the conv is
    one gemm per window (_conv1d), and these outputs are train_local's
    frozen-prefix features."""
    first = 0
    while first < below and arch.layers[first].kind in _PER_WINDOW_KINDS:
        first += 1
    if first == 0:
        return inputs, 0
    features = None
    # Empty inputs still make one (empty) slice, which carries the shape.
    for lo in range(0, max(len(inputs), 1), _SLICE):
        out, _ = _walk(model, arch, _gather(inputs, model.dtype, slice(lo, lo + _SLICE)),
                       0, first)
        if features is None:
            features = np.empty((len(inputs),) + out.shape[1:], dtype=out.dtype)
        features[lo:lo + len(out)] = out
    return features, first


def _checked(models: list[ModelWeights], arch: ModelArch, inputs):
    """inputs as scoring reads them, an array or a Batch, after the entry
    check of each model; the models must share one dtype, the dtype each
    slice is gathered in."""
    if not isinstance(inputs, Batch):
        inputs = np.asarray(inputs)
    if not models:
        raise ValueError("no model to score")
    for model in models:
        _check_entry(model, arch, inputs)
        if model.dtype != models[0].dtype:
            raise ValueError(f"models scored together must share one dtype, got "
                             f"{models[0].dtype} and {model.dtype}")
    return inputs


def _shared_cut(models: list[ModelWeights], arch: ModelArch) -> int:
    """The arch index of the first layer each scored model runs on its own:
    the parameterized layers below it are the same LayerWeights objects in
    every model, and so is everything they compute.  The output layer is
    never shared, so every model computes its own logits.  A lone model,
    and models that share nothing, give the index of the first
    parameterized layer."""
    params = arch.param_indices()
    lead = models[0].layers
    shared = 0
    while len(models) > 1 and shared < len(params) - 1 and all(
            model.layers[shared] is lead[shared] for model in models[1:]):
        shared += 1
    return params[shared]


def _infer(model: ModelWeights, arch: ModelArch, xs: np.ndarray, last: int | None,
           z_buf: np.ndarray | None) -> np.ndarray:
    """Layers [0, last) of the stack (to the end when last is None) on a
    gathered slice xs, forward-only, as scoring runs them.

    A leading conv runs as one gemm per output position t over the slice's
    m windows: item t of the transposed im2col view is an [m, k*C] matrix
    whose leading dimension is the window stride, which BLAS reads in
    place, so no im2col row is copied (the per-window gemm's rows overlap
    with a stride of C elements, below k*C, so numpy copies them).  The
    gemms write the reused buffer z_buf, position-major [T, m, C_out].
    When a maxpool1d follows the conv, the gemms skip the trailing
    positions the pool never reads, the pool takes the max over whole
    [m, C_out] planes of the raw gemm output, and only the pooled quarter
    gets the bias and the activation.  That is exact, bit for bit: rounding
    z + b is monotone in z, and so is relu, so
    max_i relu(z_i + b) == relu(max_i z_i + b); relu maps -0.0 to +0.0, and
    _block_max keeps the first slot of a tie.  A conv with no pool after it
    adds the bias and activates every position.  The output may differ in
    the last bit from the per-window path training runs (_walk)."""
    if arch.layers[0].kind != CONV1D:
        return _walk(model, arch, xs, 0, last)[0]
    spec, layer = arch.layers[0], model.layers[0]
    k, c_in, c_out = layer.incoming.shape
    # softmax-output comes last, so a conv always has a layer above it
    pool = arch.layers[1].kernel if arch.layers[1].kind == MAXPOOL1D else 0
    t_run = arch.input_length - k + 1
    if pool:
        t_run -= t_run % pool  # the rows the pool reads
    m = len(xs)
    z = z_buf[:t_run * m * c_out].reshape(t_run, m, c_out)
    # cols[t, i]: row t of window i
    cols = _im2col(xs, k).transpose(1, 0, 2)[:t_run]
    np.matmul(cols, layer.incoming.reshape(k * c_in, c_out), out=z)
    if pool:
        z = _block_max(z.reshape(t_run // pool, pool, m, c_out).transpose(1, 0, 2, 3))
    z += layer.bias
    a = _activate(spec, z, None)[0].transpose(1, 0, 2)
    return _walk(model, arch, a, 2 if pool else 1, last)[0]


def _slice_logits(models: list[ModelWeights], arch: ModelArch, inputs):
    """The one scoring path: yields (lo, the logits of each model) for each
    _SLICE-window slice of inputs, checked by _checked.  Each slice is
    gathered once, in the models' dtype, which bounds the memory of scoring
    a large test set.  The layers below _shared_cut run once on it, and
    each model runs the rest of its own stack on their output.  Each
    model's logits are those of scoring it alone, bit for bit: the same
    operations on the same values, and the same slices, so every gemm
    keeps its row count."""
    cut = _shared_cut(models, arch)
    heads = models[:1] if cut else models  # the models that run layer 0
    dtype = models[0].dtype
    z_buf = None
    if arch.layers[0].kind == CONV1D:
        t = arch.input_length - arch.layers[0].kernel + 1
        z_buf = np.empty(t * _SLICE * max(model.layers[0].out_width for model in heads),
                         dtype=dtype)
    for lo in range(0, len(inputs), _SLICE):
        xs = _gather(inputs, dtype, slice(lo, lo + _SLICE))
        if cut:
            a = _infer(models[0], arch, xs, cut, z_buf)
            yield lo, [_walk(model, arch, a, cut)[0] for model in models]
        else:
            yield lo, [_infer(model, arch, xs, None, z_buf) for model in models]


def forward(model: ModelWeights, arch: ModelArch, inputs) -> np.ndarray:
    """Class-probability matrix [examples, classes] of inputs, a Batch or
    an array of windows; rows sum to 1.  The stack runs on _SLICE-window
    slices (_slice_logits), a leading conv and its pool as _infer runs
    them."""
    inputs = _checked([model], arch, inputs)
    probs = np.empty((len(inputs), model.layers[-1].out_width), dtype=model.dtype)
    for lo, (logits,) in _slice_logits([model], arch, inputs):
        probs[lo:lo + len(logits)] = _softmax(logits)
    return probs


def loss(probs: np.ndarray, labels: np.ndarray,
         class_weights: np.ndarray | None = None) -> float:
    """Weighted mean cross-entropy: mean_i w[y_i] * -log p_i[y_i].

    Probabilities are floored at 1e-12 so a zero at the true class is never
    an error.
    """
    labels = np.asarray(labels, dtype=np.intp)
    weight = (None if class_weights is None
              else np.asarray(class_weights, dtype=probs.dtype)[labels])
    return _cross_entropy(probs[np.arange(len(labels)), labels], weight)


def _cross_entropy(p_true: np.ndarray, weight: np.ndarray | None) -> float:
    """loss from each example's probability of its true class and, when
    given, its class weight."""
    ce = -np.log(np.maximum(p_true, LOG_CLAMP))
    if weight is not None:
        ce = ce * weight
    return float(ce.mean())


def _working_copy(model: ModelWeights, start: int) -> ModelWeights:
    """model with the layers from `start` on copied, for in-place updates."""
    return ModelWeights(tuple(
        layer if i < start else LayerWeights(layer.incoming.copy(), layer.bias.copy())
        for i, layer in enumerate(model.layers)))


def _objective(model: ModelWeights, arch: ModelArch, x: np.ndarray,
               labels: np.ndarray, class_weights: np.ndarray,
               cfg: TrainingConfig, lowest: int | None, first: int = 0):
    """The training objective on one batch: the cross-entropy weighted by
    class_weights plus, when cfg.reference_weights is set, the proximal term
    over the trainable layers (model.layers[cfg.frozen_prefix:]).  x is the
    input of arch layer first: the gathered windows, or train_local's cached
    features.  class_weights are those of the whole batch the caller
    trains on, not of this minibatch.
    lowest is _lowest_trainable(arch, cfg.frozen_prefix), which callers
    compute once per call, or None for the value alone.

    Returns (value, grads): grads is None when lowest is None, else the
    (dW, db) of each trainable layer in order, the proximal gradient
    included.  Frozen layers get no backward pass: they run forward-only,
    the backward walk stops at the lowest trainable layer, and that layer
    computes no input gradient.
    """
    logits, backwards = _walk(model, arch, x, first, lowest=lowest)
    probs = _softmax(logits)
    rows = np.arange(len(labels))
    weight = np.asarray(class_weights, dtype=probs.dtype)[labels]
    value = _cross_entropy(probs[rows, labels], weight)
    start, mu, ref = cfg.frozen_prefix, cfg.proximal_coefficient, cfg.reference_weights
    trainable = model.layers[start:]
    if ref is not None:
        drift = [(layer.incoming - r.incoming, layer.bias - r.bias)
                 for layer, r in zip(trainable, ref.layers[start:])]
        acc = 0.0
        for rw, rb in drift:
            acc += float(np.sum(rw ** 2)) + float(np.sum(rb ** 2))
        value += 0.5 * mu * acc
    if lowest is None:
        return value, None

    # dz is written into the probabilities, this step's own array
    dz = probs
    dz[rows, labels] -= 1.0
    dz *= (weight / len(labels))[:, None]

    grads = []
    for j, backward in enumerate(reversed(backwards), 1):
        dz, grad = backward(dz, j < len(backwards))
        if grad is not None:
            grads.append(grad)
    grads.reverse()
    if ref is not None:
        # in place: dw, db, rw and rb are all arrays this call allocated
        for (dw, db), (rw, rb) in zip(grads, drift):
            dw += np.multiply(rw, mu, out=rw)
            db += np.multiply(rb, mu, out=rb)
    return value, grads


def _divergence_site(model: ModelWeights, arch: ModelArch, x: np.ndarray) -> str:
    """Where a non-finite objective on the batch x comes from: the first
    layer with a non-finite output, else the proximal term."""
    a = x
    for i, spec in enumerate(arch.layers):
        a, _ = _walk(model, arch, a, i, i + 1)
        if not np.isfinite(a).all():
            return f"first non-finite output at layer {i} ({spec.kind})"
    return "non-finite proximal term"


def train_local(model: ModelWeights, arch: ModelArch, batch: Batch,
                cfg: TrainingConfig, seed) -> tuple[ModelWeights, list[float]]:
    """Run local SGD for cfg.local_epochs epochs and return the new weights
    plus the mean objective per epoch.

    Layers below cfg.frozen_prefix are returned bit-identical to the input
    and get no backward pass.  The leading frozen conv1d/maxpool1d layers
    run once per call over every window of the batch, not once per
    minibatch; each minibatch starts from those cached features, with the
    same bits as running them per minibatch.  Otherwise each minibatch
    gathers its own windows from the batch.  An empty dataset is an
    explicit no-op: (input model, []).  Each example's cross-entropy is
    weighted by balanced_class_weights of the labels of the whole batch,
    computed once per call.  With cfg.reference_weights set the
    optimized objective is loss + (mu/2)*||w - reference||^2 over the
    trainable parameters.  A non-finite objective value raises
    DivergenceError at its minibatch, as do non-finite trained weights.
    """
    labels = np.asarray(batch.labels, dtype=np.intp)
    _check_entry(model, arch, batch, labels, cfg)
    if len(batch) == 0:
        return model, []
    weights = balanced_class_weights(labels, arch.classes)
    start = cfg.frozen_prefix
    work = _working_copy(model, start)
    params = [(layer.incoming, layer.bias) for layer in work.layers[start:]]

    lowest = _lowest_trainable(arch, start)
    features, first = _window_prefix(work, arch, batch, lowest)

    rng = np.random.default_rng(seed)
    lr = cfg.learning_rate
    epoch_losses: list[float] = []
    for epoch in range(1, cfg.local_epochs + 1):
        order = rng.permutation(len(labels))
        batch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            value, grads = _objective(work, arch, _gather(features, work.dtype, sel),
                                      labels[sel], weights, cfg, lowest, first)
            if not math.isfinite(value):
                raise DivergenceError(
                    f"diverged, layer parameters must be finite: objective "
                    f"{value} at epoch {epoch}, minibatch "
                    f"{lo // cfg.batch_size + 1}; "
                    f"{_divergence_site(work, arch, _gather(batch, work.dtype, sel))}")
            batch_losses.append(value)
            if lr != 0:
                # the gradients are this step's own arrays: scaled in place
                for (w, b), (dw, db) in zip(params, grads):
                    w -= np.multiply(dw, lr, out=dw)
                    b -= np.multiply(db, lr, out=db)
        epoch_losses.append(float(np.mean(batch_losses)))
    # Rebuilt so that LayerWeights checks the trained values are finite.
    trained = []
    for i, (w, b) in zip(arch.param_indices()[start:], params):
        try:
            trained.append(LayerWeights(w, b))
        except ShapeError as exc:  # shapes are unchanged: a non-finite value
            raise DivergenceError(f"diverged, {exc}: layer {i} ({arch.layers[i].kind}) "
                                  f"after the last step (epoch {epoch}, minibatch "
                                  f"{lo // cfg.batch_size + 1})") from exc
    return ModelWeights(work.layers[:start] + tuple(trained)), epoch_losses


def evaluate(models, arch: ModelArch, inputs) -> np.ndarray:
    """Predicted class per example of inputs, a Batch or an array of
    windows, for one model ([examples]) or for each of a list of models of
    one dtype ([models, examples]): argmax of forward's probabilities, ties
    broken toward the lowest class index.  A list is scored in one pass
    (_slice_logits): each slice is gathered once, and the leading layers
    every model holds as the same objects run once on it; each model's
    predictions are those of scoring it alone."""
    one = isinstance(models, ModelWeights)
    models = [models] if one else list(models)
    inputs = _checked(models, arch, inputs)
    preds = np.empty((len(models), len(inputs)), dtype=np.intp)
    for lo, logits in _slice_logits(models, arch, inputs):
        for row, z in zip(preds, logits):
            np.argmax(_softmax(z), axis=1, out=row[lo:lo + len(z)])
    return preds[0] if one else preds


def gradient_check(model: ModelWeights, arch: ModelArch, batch: Batch,
                   cfg: TrainingConfig, epsilon: float = 1e-5,
                   max_params_per_tensor: int | None = None) -> float:
    """Max guarded relative error between the gradients train_local steps
    along and central finite differences of the same training objective,
    class-weighted over the whole batch.

    Error per coordinate is |a - n| / max(1, max|a|, max|n|) within its
    tensor.  Checks trainable tensors only; set max_params_per_tensor to
    probe a fixed pseudo-random subsample on large models.  A check of
    nothing (an empty batch, every layer frozen, max_params_per_tensor < 1)
    raises ValueError, and a non-finite gradient or central difference
    raises FloatingPointError naming its layer and tensor.
    """
    if not 1e-7 < epsilon < 1e-3:
        raise ValueError("epsilon must lie in (1e-7, 1e-3)")
    if max_params_per_tensor is not None and max_params_per_tensor < 1:
        raise ValueError("max_params_per_tensor must be >= 1")
    labels = np.asarray(batch.labels, dtype=np.intp)
    _check_entry(model, arch, batch, labels, cfg)
    start = cfg.frozen_prefix
    if len(batch) == 0 or start == len(model.layers):
        raise ValueError(f"nothing to check: {len(batch)} examples, "
                         f"{len(model.layers) - start} trainable layers")
    x = _gather(batch, model.dtype)
    weights = balanced_class_weights(labels, arch.classes)
    work = _working_copy(model, start)
    _, grads = _objective(work, arch, x, labels, weights, cfg,
                          _lowest_trainable(arch, start))

    rng = np.random.default_rng(0)
    worst = 0.0
    for li, (layer, analytic) in enumerate(zip(work.layers[start:], grads), start):
        for tensor, a, name in ((layer.incoming, analytic[0], "weights"),
                                (layer.bias, analytic[1], "bias")):
            if not np.isfinite(a).all():
                raise FloatingPointError(
                    f"non-finite gradient in layer {li} {name}"
                )
            flat_idx = np.arange(tensor.size)
            if max_params_per_tensor is not None and tensor.size > max_params_per_tensor:
                flat_idx = np.sort(rng.choice(tensor.size, max_params_per_tensor,
                                              replace=False))
            scale = max(1.0, float(np.abs(a).max()))
            view = tensor.reshape(-1)  # the copy is contiguous: a view
            a_flat = a.reshape(-1)
            for j in flat_idx:
                orig = view[j]
                view[j] = orig + epsilon
                hi, _ = _objective(work, arch, x, labels, weights, cfg, None)
                view[j] = orig - epsilon
                lo, _ = _objective(work, arch, x, labels, weights, cfg, None)
                view[j] = orig
                numeric = (hi - lo) / (2 * epsilon)
                if not math.isfinite(numeric):
                    raise FloatingPointError(
                        f"non-finite central difference in layer {li} {name}")
                err = abs(float(a_flat[j]) - numeric) / max(scale, abs(numeric))
                worst = max(worst, err)
    return worst
