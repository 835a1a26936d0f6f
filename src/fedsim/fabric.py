"""Weight containers and shape manipulation.

ModelWeights values are treated as immutable once built: every operation in
this module returns a new value and never mutates its inputs, so models can
be shared freely across concurrently training clients.

Unit/filter growth always appends at the tail of a layer, so pre-existing
coordinates keep their identity.

Unit-axis rule: a layer's own units are the last axis of its incoming array
(dense [fan_in, out], conv1d [kernel, in_channels, out]); the units of its
predecessor are axis ndim-2 (dense rows, conv input channels).  Growing a
layer appends along the former and widens its successor along the latter,
whatever the two kinds are.  Each predecessor unit owns a contiguous block
of rows on that axis: one conv input channel, one dense row after a dense
layer, or (pooled time length) dense rows after a conv layer, because the
dense input is flattened channel-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import CONV1D, DENSE, ModelArch


class ShapeError(ValueError):
    """Raised when weight shapes do not line up."""


@dataclass(frozen=True)
class LayerWeights:
    """Parameters of one layer.

    incoming: dense [fan_in, out]; conv1d [kernel, in_channels, out].
    bias: [out].
    """

    incoming: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        if self.incoming.ndim not in (2, 3):
            raise ShapeError(f"incoming must be 2-D or 3-D, got {self.incoming.ndim}-D")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.incoming.shape[-1]:
            raise ShapeError(
                f"bias length {self.bias.shape} does not match out width "
                f"{self.incoming.shape[-1]}"
            )
        if not (np.isfinite(self.incoming).all() and np.isfinite(self.bias).all()):
            raise ShapeError("layer parameters must be finite")

    @property
    def kind(self) -> str:
        return DENSE if self.incoming.ndim == 2 else CONV1D

    @property
    def out_width(self) -> int:
        return int(self.incoming.shape[-1])

    @property
    def fan_in(self) -> int:
        """Flat incoming size per unit (kernel * in_channels for conv)."""
        return int(np.prod(self.incoming.shape[:-1]))

    @property
    def size(self) -> int:
        return self.incoming.size + self.bias.size


@dataclass(frozen=True)
class ModelWeights:
    """Ordered parameterized layers of one model.

    Pool layers carry no parameters and do not appear here; they live only
    in the architecture.
    """

    layers: tuple[LayerWeights, ...]

    def __post_init__(self) -> None:
        if len(self.layers) < 1:
            raise ShapeError("a model needs at least one parameterized layer")

    @property
    def shape_signature(self) -> tuple[int, ...]:
        return tuple(layer.out_width for layer in self.layers)

    @property
    def dtype(self) -> np.dtype:
        return self.layers[0].incoming.dtype

    @property
    def parameter_count(self) -> int:
        return sum(layer.size for layer in self.layers)

    def layer_shapes(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple((layer.incoming.shape, layer.bias.shape[0]) for layer in self.layers)


def init_model(arch: ModelArch, seed, dtype=np.float64) -> ModelWeights:
    """Randomly initialize weights for an architecture.

    He-scaled normal for relu layers, Glorot-scaled for the rest; zero bias.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for p in arch.trace():
        fan_in = int(np.prod(p.incoming_shape[:-1]))
        fan_out = p.width
        if p.activation == "relu":
            std = np.sqrt(2.0 / fan_in)
        else:
            std = np.sqrt(2.0 / (fan_in + fan_out))
        w = rng.normal(0.0, std, size=p.incoming_shape).astype(dtype)
        b = np.zeros(p.width, dtype=dtype)
        layers.append(LayerWeights(w, b))
    return ModelWeights(tuple(layers))


def neuron_vector(layer: LayerWeights, unit: int) -> np.ndarray:
    """Flatten unit `unit` of a layer into a vector: its incoming weights in
    storage order, then its bias."""
    if not 0 <= unit < layer.out_width:
        raise IndexError(f"unit {unit} out of range for width {layer.out_width}")
    return np.concatenate([layer.incoming[..., unit].ravel(),
                           layer.bias[unit:unit + 1]])


def weighted_average(models, fractions) -> ModelWeights:
    """Fraction-weighted elementwise average of shape-identical models."""
    models = list(models)
    fractions = np.asarray(fractions, dtype=np.float64)
    if len(models) == 0:
        raise ValueError("no models to average")
    if len(fractions) != len(models):
        raise ValueError("one fraction per model required")
    if np.any(fractions < 0):
        raise ValueError("fractions must be non-negative")
    total = float(fractions.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {total!r}, expected 1 within 1e-9")
    ref = models[0].layer_shapes()
    for m in models[1:]:
        shapes = m.layer_shapes()
        if shapes != ref:
            for i, (a, b) in enumerate(zip(ref, shapes)):
                if a != b:
                    raise ShapeError(f"layer {i}: shape {b} does not match {a}")
            raise ShapeError("models have different layer counts")

    # Conservation: the aggregate of identical models is that model, exactly.
    # Without this, k * (1/k) accumulation leaves rounding residue that a
    # downstream distance threshold could mistake for divergence.
    def same(a: ModelWeights, b: ModelWeights) -> bool:
        return all(np.array_equal(x.incoming, y.incoming)
                   and np.array_equal(x.bias, y.bias)
                   for x, y in zip(a.layers, b.layers))

    if all(same(m, models[0]) for m in models[1:]):
        return models[0]

    layers = []
    for i in range(len(ref)):
        inc = fractions[0] * models[0].layers[i].incoming
        bias = fractions[0] * models[0].layers[i].bias
        for f, m in zip(fractions[1:], models[1:]):
            inc = inc + f * m.layers[i].incoming
            bias = bias + f * m.layers[i].bias
        dtype = models[0].layers[i].incoming.dtype
        layers.append(LayerWeights(inc.astype(dtype, copy=False),
                                   bias.astype(dtype, copy=False)))
    return ModelWeights(tuple(layers))


# Axis of an incoming array indexed by the predecessor's units (the unit-axis
# rule in the module docstring), the one `[..., lo:hi, :]` slices; the
# layer's own units are axis -1.
_UNIT_AXIS = -2


def successor_rows_per_unit(model: ModelWeights, layer: int) -> int:
    """How many successor-incoming rows one unit of `layer` feeds, along
    the successor's unit axis.

    1 for dense -> dense and for a conv successor (one input channel); the
    pooled time length for conv -> dense (the flatten is channel-major so
    each filter owns a contiguous row block).
    """
    succ = model.layers[layer + 1]
    width = model.layers[layer].out_width
    rows = succ.incoming.shape[_UNIT_AXIS]
    if rows % width != 0:
        raise ShapeError(
            f"layer {layer + 1}: {rows} incoming rows not divisible by "
            f"predecessor width {width}"
        )
    return rows // width


def donor_successor_rows(model: ModelWeights, layer: int, unit: int) -> np.ndarray:
    """Extract the successor-layer weights fed by unit `unit` of `layer`.

    These are the outgoing weights copied alongside a donated neuron so the
    appended unit is functional immediately: the unit's row block on the
    successor's unit axis, a [rows, out] block for a dense successor and a
    [kernel, 1, out] channel slice for a conv successor.
    """
    succ = model.layers[layer + 1]
    r = successor_rows_per_unit(model, layer)
    return succ.incoming[..., unit * r:(unit + 1) * r, :].copy()


def append_neuron(model: ModelWeights, layer: int, source: np.ndarray,
                  successor_rows: np.ndarray) -> ModelWeights:
    """Append one unit (`source`, a neuron_vector) at the tail of `layer`.

    The successor layer's incoming array gains `successor_rows` (the block
    donor_successor_rows returns) at the tail of its unit axis so the
    widened model stays well-formed.  All pre-existing parameters are
    untouched.  The output layer can never be grown.
    """
    if not 0 <= layer < len(model.layers) - 1:
        raise ShapeError(
            f"cannot grow layer {layer}: the output layer is never grown"
        )
    target = model.layers[layer]
    if source.shape != (target.fan_in + 1,):
        raise ShapeError(
            f"source length {source.shape[0]} != fan-in+1 = {target.fan_in + 1}"
        )
    new_in = source[:-1].reshape(target.incoming.shape[:-1])
    dtype = target.incoming.dtype
    incoming = np.concatenate(
        [target.incoming, new_in[..., None].astype(dtype)], axis=-1)
    bias = np.concatenate([target.bias, np.asarray([source[-1]], dtype=dtype)])
    grown = LayerWeights(incoming, bias)

    succ = model.layers[layer + 1]
    r = successor_rows_per_unit(model, layer)
    block = succ.incoming.shape[:_UNIT_AXIS] + (r, succ.out_width)
    rows = np.asarray(successor_rows, dtype=succ.incoming.dtype)
    if rows.shape != block:
        raise ShapeError(f"successor rows shape {rows.shape} != {block}")
    succ_in = np.concatenate([succ.incoming, rows], axis=_UNIT_AXIS)
    new_succ = LayerWeights(succ_in, succ.bias)

    layers = list(model.layers)
    layers[layer] = grown
    layers[layer + 1] = new_succ
    return ModelWeights(tuple(layers))


def conform_to_shape(client: ModelWeights, server: ModelWeights,
                     upto_layer: int) -> ModelWeights:
    """Make a client dimension-compatible with a (possibly grown) server.

    Layers up to and including `upto_layer` are replaced by the server's;
    the next layer's incoming matrix is widened with the server's appended
    tail rows; everything above keeps the client's own weights.

    Idempotent: conforming twice with the same arguments equals once.
    """
    if len(client.layers) != len(server.layers):
        raise ShapeError("client and server have different layer counts")
    sig_c, sig_s = client.shape_signature, server.shape_signature
    if any(s < c for c, s in zip(sig_c, sig_s)):
        raise ShapeError("server layers may only be wider than the client's")
    if not 0 <= upto_layer < len(client.layers) - 1:
        raise ShapeError(f"cannot conform up to layer {upto_layer}")
    if sig_c[upto_layer + 1:] != sig_s[upto_layer + 1:]:
        raise ShapeError("widths above the conformed layer must already match")

    layers = list(client.layers)
    for i in range(upto_layer + 1):
        layers[i] = server.layers[i]

    s = upto_layer + 1
    succ_c, succ_s = client.layers[s], server.layers[s]
    have = succ_c.incoming.shape[_UNIT_AXIS]
    if succ_s.incoming.shape[_UNIT_AXIS] > have:
        widened = np.concatenate(
            [succ_c.incoming, succ_s.incoming[..., have:, :]], axis=_UNIT_AXIS)
        layers[s] = LayerWeights(widened, succ_c.bias)
    return ModelWeights(tuple(layers))


def shape_lines(model: ModelWeights) -> list[str]:
    """Human-readable shape dump: one line per layer (kind, in, out), where
    a conv layer's in is kernel x in_channels."""
    return [f"{layer.kind} {'x'.join(map(str, layer.incoming.shape[:-1]))} "
            f"{layer.out_width}" for layer in model.layers]
