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

from dataclasses import dataclass

import numpy as np

from .arch import CONV1D, DENSE, MAXPOOL1D, PARAM_KINDS, SOFTMAX_OUTPUT, ModelArch
from .fabric import LayerWeights, ModelWeights, ShapeError

LOG_CLAMP = 1e-12  # probability floor inside cross-entropy, avoids -inf


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
    A positive proximal_coefficient adds (mu/2)*||w - reference||^2 over the
    trainable parameters to the objective.
    """

    local_epochs: int = 5
    learning_rate: float = 0.05
    batch_size: int = 16
    class_weights: np.ndarray | None = None
    frozen_prefix: int = 0
    proximal_coefficient: float = 0.0
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
    return np.maximum(z, 0), (lambda da: backward(da * (z > 0))) if backward else None


def _maxpool1d(spec, layer, a, where, keep):
    if a.ndim != 3:
        raise ShapeError(f"{where}: needs spatial input")
    k = spec.kernel
    n, t, c = a.shape
    t_out = t // k
    if t_out < 1:
        raise ShapeError(f"{where}: pool kernel {k} exceeds length {t}")
    blocks = a[:, :t_out * k, :].reshape(n, t_out, k, c)
    idx = blocks.argmax(axis=2)
    out = np.take_along_axis(blocks, idx[:, :, None, :], axis=2)[:, :, 0, :]

    def backward(da):
        dblocks = np.zeros((n, t_out, k, c), dtype=da.dtype)
        np.put_along_axis(dblocks, idx[:, :, None, :], da[:, :, None, :], axis=2)
        full = np.zeros((n, t, c), dtype=da.dtype)
        full[:, :t_out * k, :] = dblocks.reshape(n, t_out * k, c)
        return full, None

    return out, backward if keep else None


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
    z = cols @ layer.incoming.reshape(k * c_in, c_out) + layer.bias

    def backward(dzl):
        dw = np.einsum("ntf,nto->fo", cols, dzl).reshape(k, c_in, c_out)
        db = dzl.sum(axis=(0, 1))
        dcols = dzl @ layer.incoming.reshape(k * c_in, c_out).T
        dcols = dcols.reshape(n, t_out, k, c_in)
        dx = np.zeros((n, t, c_in), dtype=dcols.dtype)
        for i in range(k):
            dx[:, i:i + t_out, :] += dcols[:, :, i, :]
        return dx, (dw, db)

    return _activate(spec, z, backward if keep else None)


def _dense(spec, layer, a, where, keep):
    # Also the softmax-output layer: its activation is "none", and _walk
    # applies the softmax to the logits this returns.
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

    def backward(dzl):
        dx = dzl @ layer.incoming.T
        if spatial:
            dx = dx.reshape(n, c, t).transpose(0, 2, 1)
        return dx, (a.T @ dzl, dzl.sum(axis=0))

    return _activate(spec, z, backward if keep else None)


# The one dispatch on layer kind: forward(spec, layer, a, where, keep) returns
# the layer output and, when keep is true, a closure mapping the gradient of
# that output to (gradient of the input, (dW, db) or None).
_FORWARD = {DENSE: _dense, CONV1D: _conv1d, MAXPOOL1D: _maxpool1d,
            SOFTMAX_OUTPUT: _dense}


def _walk(model: ModelWeights, arch: ModelArch, x: np.ndarray, keep: bool):
    """Run the stack; returns (probabilities, backward closures in layer
    order), the closures being None when keep is False."""
    backwards = []
    a = x
    li = 0
    for i, spec in enumerate(arch.layers):
        layer = None
        if spec.kind in PARAM_KINDS:
            layer = model.layers[li]
            li += 1
        a, backward = _FORWARD[spec.kind](spec, layer, a,
                                          f"layer {i} ({spec.kind})", keep)
        backwards.append(backward)
    return _softmax(a), backwards


def forward(model: ModelWeights, arch: ModelArch, inputs: np.ndarray) -> np.ndarray:
    """Class-probability matrix [examples, classes]; rows sum to 1."""
    x = _as_batch_array(inputs, arch, model.dtype)
    probs, _ = _walk(model, arch, x, keep=False)
    return probs


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


def _proximal_value(layers, ref: ModelWeights, mu: float, start: int) -> float:
    acc = 0.0
    for i in range(start, len(layers)):
        w, b = layers[i]
        r = ref.layers[i]
        acc += float(np.sum((w - r.incoming) ** 2)) + float(np.sum((b - r.bias) ** 2))
    return 0.5 * mu * acc


def _gradients(model: ModelWeights, arch: ModelArch, x: np.ndarray,
               labels: np.ndarray, class_weights: np.ndarray | None):
    """Analytic gradients of the data loss for every parameterized layer.

    Returns (loss_value, [(dW, db), ...]) ordered like model.layers.
    """
    probs, backwards = _walk(model, arch, x, keep=True)
    labels = np.asarray(labels, dtype=np.intp)
    n = len(labels)
    if n and (labels.min() < 0 or labels.max() >= probs.shape[1]):
        raise ValueError(
            f"labels must lie in [0, {probs.shape[1]}), got "
            f"[{labels.min()}, {labels.max()}]"
        )
    data_loss = loss(probs, labels, class_weights)

    if class_weights is not None:
        w_ex = np.asarray(class_weights, dtype=probs.dtype)[labels]
    else:
        w_ex = np.ones(n, dtype=probs.dtype)
    dz = probs.copy()
    dz[np.arange(n), labels] -= 1.0
    dz *= (w_ex / n)[:, None]

    grads = []
    for backward in reversed(backwards):
        dz, grad = backward(dz)
        if grad is not None:
            grads.append(grad)
    return data_loss, grads[::-1]


def train_local(model: ModelWeights, arch: ModelArch, batch: Batch,
                cfg: TrainingConfig, seed) -> tuple[ModelWeights, list[float]]:
    """Run local SGD for cfg.local_epochs epochs and return the new weights
    plus the mean objective per epoch.

    Layers below cfg.frozen_prefix are returned bit-identical to the input.
    An empty dataset is an explicit no-op: (input model, []).  With a
    positive proximal coefficient the optimized objective is
    loss + (mu/2)*||w - reference||^2 over the trainable parameters.
    """
    if cfg.frozen_prefix > len(model.layers):
        raise ValueError(
            f"frozen_prefix {cfg.frozen_prefix} exceeds {len(model.layers)} layers"
        )
    if len(batch) == 0:
        return model, []
    mu = cfg.proximal_coefficient
    ref = cfg.reference_weights
    if mu > 0:
        if ref is None:
            raise ValueError("proximal_coefficient > 0 needs reference_weights")
        if ref.layer_shapes() != model.layer_shapes():
            raise ShapeError("reference_weights shape does not match the model")

    x = _as_batch_array(batch.inputs, arch, model.dtype)
    labels = np.asarray(batch.labels, dtype=np.intp)
    start = cfg.frozen_prefix
    params = [(l.incoming, l.bias) if i < start else (l.incoming.copy(), l.bias.copy())
              for i, l in enumerate(model.layers)]

    rng = np.random.default_rng(seed)
    lr = cfg.learning_rate
    epoch_losses: list[float] = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(labels))
        batch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            current = ModelWeights(tuple(LayerWeights(w, b) for w, b in params))
            value, grads = _gradients(current, arch, x[sel], labels[sel],
                                      cfg.class_weights)
            if mu > 0:
                value += _proximal_value(params, ref, mu, start)
            batch_losses.append(value)
            if lr != 0:
                for i in range(start, len(params)):
                    w, b = params[i]
                    dw, db = grads[i]
                    if mu > 0:
                        dw = dw + mu * (w - ref.layers[i].incoming)
                        db = db + mu * (b - ref.layers[i].bias)
                    w -= lr * dw
                    b -= lr * db
        epoch_losses.append(float(np.mean(batch_losses)))
    result = ModelWeights(tuple(LayerWeights(w, b) for w, b in params))
    return result, epoch_losses


def evaluate(model: ModelWeights, arch: ModelArch, inputs: np.ndarray,
             chunk: int = 4096) -> np.ndarray:
    """Predicted class per example: argmax of forward probabilities, ties
    broken toward the lowest class index."""
    out = []
    for lo in range(0, len(inputs), chunk):
        probs = forward(model, arch, inputs[lo:lo + chunk])
        out.append(np.argmax(probs, axis=1))
    return np.concatenate(out) if out else np.zeros(0, dtype=np.intp)


def _objective(model: ModelWeights, arch: ModelArch, x, labels, cfg) -> float:
    probs, _ = _walk(model, arch, x, keep=False)
    value = loss(probs, labels, cfg.class_weights)
    if cfg.proximal_coefficient > 0:
        layers = [(l.incoming, l.bias) for l in model.layers]
        value += _proximal_value(layers, cfg.reference_weights,
                                 cfg.proximal_coefficient, cfg.frozen_prefix)
    return value


def gradient_check(model: ModelWeights, arch: ModelArch, batch: Batch,
                   cfg: TrainingConfig, epsilon: float = 1e-5,
                   max_params_per_tensor: int | None = None,
                   sample_seed: int = 0) -> float:
    """Max guarded relative error between analytic and central
    finite-difference gradients of the training objective.

    Error per coordinate is |a - n| / max(1, max|a|, max|n|) within its
    tensor.  Checks trainable tensors only; set max_params_per_tensor to
    probe a deterministic subsample on large models.
    """
    if not 1e-7 < epsilon < 1e-3:
        raise ValueError("epsilon must lie in (1e-7, 1e-3)")
    x = _as_batch_array(batch.inputs, arch, model.dtype)
    labels = np.asarray(batch.labels, dtype=np.intp)
    _, grads = _gradients(model, arch, x, labels, cfg.class_weights)
    mu, ref = cfg.proximal_coefficient, cfg.reference_weights

    arrays = [(l.incoming.copy(), l.bias.copy()) for l in model.layers]

    def rebuild() -> ModelWeights:
        return ModelWeights(tuple(LayerWeights(w, b) for w, b in arrays))

    rng = np.random.default_rng(sample_seed)
    worst = 0.0
    for li in range(cfg.frozen_prefix, len(model.layers)):
        analytic = list(grads[li])
        if mu > 0:
            analytic[0] = analytic[0] + mu * (arrays[li][0] - ref.layers[li].incoming)
            analytic[1] = analytic[1] + mu * (arrays[li][1] - ref.layers[li].bias)
        for slot, name in ((0, "weights"), (1, "bias")):
            a = analytic[slot]
            if not np.isfinite(a).all():
                raise FloatingPointError(
                    f"non-finite gradient in layer {li} {name}"
                )
            tensor = arrays[li][slot]
            flat_idx = np.arange(tensor.size)
            if max_params_per_tensor is not None and tensor.size > max_params_per_tensor:
                flat_idx = np.sort(rng.choice(tensor.size, max_params_per_tensor,
                                              replace=False))
            scale = max(1.0, float(np.abs(a).max()))
            view = tensor.reshape(-1)
            a_flat = a.reshape(-1)
            for j in flat_idx:
                orig = view[j]
                view[j] = orig + epsilon
                hi = _objective(rebuild(), arch, x, labels, cfg)
                view[j] = orig - epsilon
                lo = _objective(rebuild(), arch, x, labels, cfg)
                view[j] = orig
                numeric = (hi - lo) / (2 * epsilon)
                err = abs(float(a_flat[j]) - numeric) / max(scale, abs(numeric))
                worst = max(worst, err)
    return worst
