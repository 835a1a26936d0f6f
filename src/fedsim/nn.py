"""Minimal trainable feed-forward stack: dense + 1-D conv + max-pool layers,
class-weighted softmax cross-entropy, plain SGD with an optional proximal
pull toward reference weights, frozen-prefix training, and a central
finite-difference gradient checker.

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
_FEATURE_CHUNK = 256  # windows per call when train_local caches frozen features


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
    """A stack of examples: inputs [n, window, channels] plus class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.inputs.ndim not in (2, 3):
            raise ShapeError(f"inputs must be 2-D or 3-D, got {self.inputs.ndim}-D")
        if self.labels.ndim != 1 or len(self.labels) != len(self.inputs):
            raise ShapeError("labels must be a vector matching the input count")

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class TrainingConfig:
    """Client-side training knobs.

    frozen_prefix counts leading parameterized layers excluded from updates.
    Setting reference_weights adds FedProx's proximal term
    (mu/2)*||w - reference||^2, mu = proximal_coefficient, over the
    trainable parameters to the objective; fedprox_round sets it to the
    server model it distributes, and without it mu is unused.
    """

    local_epochs: int = 5
    learning_rate: float = 0.05
    batch_size: int = 16
    class_weights: np.ndarray | None = None
    frozen_prefix: int = 0
    proximal_coefficient: float = 0.01
    reference_weights: ModelWeights | None = None

    def __post_init__(self) -> None:
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
        if self.class_weights is not None and np.any(np.asarray(self.class_weights) <= 0):
            raise ValueError("class_weights must be positive")


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


def _as_batch_array(inputs: np.ndarray, arch: ModelArch, dtype) -> np.ndarray:
    x = np.asarray(inputs, dtype=dtype)
    if x.ndim == 2:
        if arch.input_channels != 1:
            raise ShapeError(
                f"flat input needs input_channels == 1, arch has {arch.input_channels}"
            )
        x = x[:, :, None]
    if x.ndim != 3 or x.shape[1] != arch.input_length or x.shape[2] != arch.input_channels:
        raise ShapeError(
            f"input shape {tuple(np.shape(inputs))[1:]} does not match the "
            f"model contract ({arch.input_length}, {arch.input_channels})"
        )
    return x


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _activate(spec, z, backward):
    """Apply the layer's activation to the pre-activation z; the backward
    closure (None in forward-only mode) gains the activation's derivative."""
    if spec.activation != "relu":
        return z, backward
    if backward is None:
        return np.maximum(z, 0), None
    return np.maximum(z, 0), lambda da, need_dx: backward(da * (z > 0), need_dx)


def _maxpool1d(spec, layer, a, where, keep):
    if a.ndim != 3:
        raise ShapeError(f"{where}: needs spatial input")
    k = spec.kernel
    n, t, c = a.shape
    t_out = t // k
    if t_out < 1:
        raise ShapeError(f"{where}: pool kernel {k} exceeds length {t}")
    blocks = a[:, :t_out * k, :].reshape(n, t_out, k, c)
    if not keep:
        return blocks.max(axis=2), None
    idx = blocks.argmax(axis=2)
    out = np.take_along_axis(blocks, idx[:, :, None, :], axis=2)[:, :, 0, :]

    def backward(da, need_dx):
        # A pool is never the lowest trainable layer: its input gradient
        # is always needed.
        dblocks = np.zeros((n, t_out, k, c), dtype=da.dtype)
        np.put_along_axis(dblocks, idx[:, :, None, :], da[:, :, None, :], axis=2)
        full = np.zeros((n, t, c), dtype=da.dtype)
        full[:, :t_out * k, :] = dblocks.reshape(n, t_out * k, c)
        return full, None

    return out, backward


def _conv1d(spec, layer, a, where, keep):
    if a.ndim != 3:
        raise ShapeError(f"{where}: needs spatial input")
    if layer.kind != CONV1D:
        raise ShapeError(f"{where}: weights are {layer.kind}")
    k, c_in, c_out = layer.incoming.shape
    n, t, c = a.shape
    if c != c_in:
        raise ShapeError(f"{where}: {c} input channels, weights expect {c_in}")
    if t < k:
        raise ShapeError(f"{where}: kernel {k} exceeds length {t}")
    t_out = t - k + 1
    win = np.lib.stride_tricks.sliding_window_view(a, k, axis=1)  # [N,T_out,C,k]
    cols = win.transpose(0, 1, 3, 2).reshape(n, t_out, k * c_in)
    # A 3-D @ runs one gemm per window, so a window's output does not depend
    # on the other windows in the call (train_local's feature cache needs it).
    z = cols @ layer.incoming.reshape(k * c_in, c_out) + layer.bias
    if not keep:
        return _activate(spec, z, None)

    def backward(dzl, need_dx):
        dw = cols.reshape(-1, k * c_in).T @ dzl.reshape(-1, c_out)
        grad = (dw.reshape(k, c_in, c_out), dzl.sum(axis=(0, 1)))
        if not need_dx:
            return None, grad
        dcols = dzl @ layer.incoming.reshape(k * c_in, c_out).T
        dcols = dcols.reshape(n, t_out, k, c_in)
        dx = np.zeros((n, t, c_in), dtype=dcols.dtype)
        for i in range(k):
            dx[:, i:i + t_out, :] += dcols[:, :, i, :]
        return dx, grad

    return _activate(spec, z, backward)


def _dense(spec, layer, a, where, keep):
    # Also the softmax-output layer: its activation is "none", and callers
    # of _walk apply the softmax to the logits this returns.
    spatial = a.ndim == 3
    if spatial:  # channel-major flatten: [N, T, C] -> [N, C*T]
        n, t, c = a.shape
        a = a.transpose(0, 2, 1).reshape(n, c * t)
    if layer.kind != DENSE:
        raise ShapeError(f"{where}: weights are {layer.kind}")
    if a.shape[1] != layer.incoming.shape[0]:
        raise ShapeError(
            f"{where}: {a.shape[1]} inputs, weights expect "
            f"{layer.incoming.shape[0]}"
        )
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


# The one dispatch on layer kind: forward(spec, layer, a, where, keep) returns
# the layer output and, when keep is true, a closure backward(d, need_dx)
# mapping the gradient of that output to (gradient of the input, or None
# when need_dx is false; (dW, db), or None for a layer without parameters).
_FORWARD = {DENSE: _dense, CONV1D: _conv1d, MAXPOOL1D: _maxpool1d,
            SOFTMAX_OUTPUT: _dense}

# Kinds that map each window on its own, bit for bit whatever else is in the
# batch, so train_local may compute a frozen run of them once per call.
_PER_WINDOW_KINDS = (CONV1D, MAXPOOL1D)


def _lowest_trainable(arch: ModelArch, frozen_prefix: int) -> int:
    """arch.layers index of parameter layer frozen_prefix, the lowest layer
    training updates; len(arch.layers) when every layer is frozen."""
    params = [i for i, spec in enumerate(arch.layers) if spec.kind in PARAM_KINDS]
    return params[frozen_prefix] if frozen_prefix < len(params) else len(arch.layers)


def _walk(model: ModelWeights, arch: ModelArch, a: np.ndarray, first: int = 0,
          last: int | None = None, lowest: int | None = None):
    """Run layers [first, last) of the stack (to the end by default) on a,
    the input of layer first; returns (output of the last layer run, the
    backward closures of layers lowest.. in layer order).  Layers below
    lowest, and all of them when it is None, run forward-only."""
    last = len(arch.layers) if last is None else last
    li = sum(spec.kind in PARAM_KINDS for spec in arch.layers[:first])
    backwards = []
    for i in range(first, last):
        spec = arch.layers[i]
        layer = None
        if spec.kind in PARAM_KINDS:
            layer = model.layers[li]
            li += 1
        keep = lowest is not None and i >= lowest
        a, backward = _FORWARD[spec.kind](spec, layer, a,
                                          f"layer {i} ({spec.kind})", keep)
        if keep:
            backwards.append(backward)
    return a, backwards


def forward(model: ModelWeights, arch: ModelArch, inputs: np.ndarray) -> np.ndarray:
    """Class-probability matrix [examples, classes]; rows sum to 1."""
    x = _as_batch_array(inputs, arch, model.dtype)
    logits, _ = _walk(model, arch, x)
    return _softmax(logits)


def loss(probs: np.ndarray, labels: np.ndarray,
         class_weights: np.ndarray | None = None) -> float:
    """Weighted mean cross-entropy: mean_i w[y_i] * -log p_i[y_i].

    Probabilities are floored at 1e-12 so a zero at the true class is never
    an error.
    """
    labels = np.asarray(labels, dtype=np.intp)
    p_true = probs[np.arange(len(labels)), labels]
    ce = -np.log(np.maximum(p_true, LOG_CLAMP))
    if class_weights is not None:
        ce = ce * np.asarray(class_weights, dtype=probs.dtype)[labels]
    return float(ce.mean())


def _working_copy(model: ModelWeights, start: int) -> ModelWeights:
    """model with the layers from `start` on copied, for in-place updates."""
    return ModelWeights(tuple(
        layer if i < start else LayerWeights(layer.incoming.copy(), layer.bias.copy())
        for i, layer in enumerate(model.layers)))


def _objective(model: ModelWeights, arch: ModelArch, x: np.ndarray,
               labels: np.ndarray, cfg: TrainingConfig, keep: bool,
               first: int = 0):
    """The training objective on one batch: the weighted cross-entropy plus,
    when cfg.reference_weights is set, the proximal term over the trainable
    layers (model.layers[cfg.frozen_prefix:]).  x is the input of arch
    layer first: the batch itself, or train_local's cached features.

    Returns (value, grads): grads is None unless keep, else the (dW, db) of
    each trainable layer in order, the proximal gradient included.  Frozen
    layers get no backward pass: they run forward-only, the backward walk
    stops at the lowest trainable layer, and that layer computes no input
    gradient.
    """
    lowest = _lowest_trainable(arch, cfg.frozen_prefix) if keep else None
    logits, backwards = _walk(model, arch, x, first, lowest=lowest)
    probs = _softmax(logits)
    n = len(labels)
    if n and (labels.min() < 0 or labels.max() >= probs.shape[1]):
        raise ValueError(
            f"labels must lie in [0, {probs.shape[1]}), got "
            f"[{labels.min()}, {labels.max()}]"
        )
    value = loss(probs, labels, cfg.class_weights)
    start, mu, ref = cfg.frozen_prefix, cfg.proximal_coefficient, cfg.reference_weights
    trainable = model.layers[start:]
    if ref is not None:
        acc = 0.0
        for layer, r in zip(trainable, ref.layers[start:]):
            acc += (float(np.sum((layer.incoming - r.incoming) ** 2))
                    + float(np.sum((layer.bias - r.bias) ** 2)))
        value += 0.5 * mu * acc
    if not keep:
        return value, None

    if cfg.class_weights is not None:
        w_ex = np.asarray(cfg.class_weights, dtype=probs.dtype)[labels]
    else:
        w_ex = np.ones(n, dtype=probs.dtype)
    dz = probs.copy()
    dz[np.arange(n), labels] -= 1.0
    dz *= (w_ex / n)[:, None]

    grads = []
    for j, backward in enumerate(reversed(backwards), 1):
        dz, grad = backward(dz, j < len(backwards))
        if grad is not None:
            grads.append(grad)
    grads.reverse()
    if ref is not None:
        grads = [(dw + mu * (layer.incoming - r.incoming), db + mu * (layer.bias - r.bias))
                 for (dw, db), layer, r in zip(grads, trainable, ref.layers[start:])]
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
    same bits as running them per minibatch.  An empty dataset is an
    explicit no-op: (input model, []).  With cfg.reference_weights set the
    optimized objective is loss + (mu/2)*||w - reference||^2 over the
    trainable parameters.  A non-finite objective value raises
    DivergenceError at its minibatch, as do non-finite trained weights.
    """
    if cfg.frozen_prefix > len(model.layers):
        raise ValueError(
            f"frozen_prefix {cfg.frozen_prefix} exceeds {len(model.layers)} layers"
        )
    if len(batch) == 0:
        return model, []
    ref = cfg.reference_weights
    if ref is not None and ref.layer_shapes() != model.layer_shapes():
        raise ShapeError("reference_weights shape does not match the model")

    x = _as_batch_array(batch.inputs, arch, model.dtype)
    labels = np.asarray(batch.labels, dtype=np.intp)
    start = cfg.frozen_prefix
    work = _working_copy(model, start)
    params = [(layer.incoming, layer.bias) for layer in work.layers[start:]]

    lowest = _lowest_trainable(arch, start)
    first = 0
    while first < lowest and arch.layers[first].kind in _PER_WINDOW_KINDS:
        first += 1
    features = x if first == 0 else np.concatenate([
        _walk(work, arch, x[lo:lo + _FEATURE_CHUNK], 0, first)[0]
        for lo in range(0, len(x), _FEATURE_CHUNK)])

    rng = np.random.default_rng(seed)
    lr = cfg.learning_rate
    epoch_losses: list[float] = []
    for epoch in range(1, cfg.local_epochs + 1):
        order = rng.permutation(len(labels))
        batch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            value, grads = _objective(work, arch, features[sel], labels[sel], cfg,
                                      keep=True, first=first)
            if not math.isfinite(value):
                raise DivergenceError(
                    f"diverged, layer parameters must be finite: objective "
                    f"{value} at epoch {epoch}, minibatch "
                    f"{lo // cfg.batch_size + 1}; "
                    f"{_divergence_site(work, arch, x[sel])}")
            batch_losses.append(value)
            if lr != 0:
                for (w, b), (dw, db) in zip(params, grads):
                    w -= lr * dw
                    b -= lr * db
        epoch_losses.append(float(np.mean(batch_losses)))
    # Rebuilt so that LayerWeights checks the trained values are finite.
    trained = []
    for i, (w, b) in zip(arch.param_indices()[start:], params):
        try:
            trained.append(LayerWeights(w, b))
        except ShapeError as exc:  # shapes are unchanged: a non-finite value
            raise DivergenceError(
                f"{exc}: layer {i} ({arch.layers[i].kind}) after the last step"
            ) from exc
    return ModelWeights(work.layers[:start] + tuple(trained)), epoch_losses


def evaluate(model: ModelWeights, arch: ModelArch, inputs: np.ndarray,
             chunk: int = 4096) -> np.ndarray:
    """Predicted class per example: argmax of forward probabilities, ties
    broken toward the lowest class index."""
    out = []
    for lo in range(0, len(inputs), chunk):
        probs = forward(model, arch, inputs[lo:lo + chunk])
        out.append(np.argmax(probs, axis=1))
    return np.concatenate(out) if out else np.zeros(0, dtype=np.intp)


def gradient_check(model: ModelWeights, arch: ModelArch, batch: Batch,
                   cfg: TrainingConfig, epsilon: float = 1e-5,
                   max_params_per_tensor: int | None = None) -> float:
    """Max guarded relative error between the gradients train_local steps
    along and central finite differences of the same training objective.

    Error per coordinate is |a - n| / max(1, max|a|, max|n|) within its
    tensor.  Checks trainable tensors only; set max_params_per_tensor to
    probe a fixed pseudo-random subsample on large models.
    """
    if not 1e-7 < epsilon < 1e-3:
        raise ValueError("epsilon must lie in (1e-7, 1e-3)")
    x = _as_batch_array(batch.inputs, arch, model.dtype)
    labels = np.asarray(batch.labels, dtype=np.intp)
    start = cfg.frozen_prefix
    work = _working_copy(model, start)
    _, grads = _objective(work, arch, x, labels, cfg, keep=True)

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
                hi, _ = _objective(work, arch, x, labels, cfg, keep=False)
                view[j] = orig - epsilon
                lo, _ = _objective(work, arch, x, labels, cfg, keep=False)
                view[j] = orig
                numeric = (hi - lo) / (2 * epsilon)
                err = abs(float(a_flat[j]) - numeric) / max(scale, abs(numeric))
                worst = max(worst, err)
    return worst
