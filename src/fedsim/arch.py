"""Model architecture descriptions: layer specs and static shape tracing.

An architecture is the fixed skeleton of a network (layer kinds, kernels,
activations, input window geometry).  Layer widths recorded here are the
*initial* widths; actual widths live in the weight containers and may grow,
so the shapes a grown model's weights must have are the trace at its widths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DENSE = "dense"
CONV1D = "conv1d"
MAXPOOL1D = "maxpool1d"
SOFTMAX_OUTPUT = "softmax-output"

# The fields each layer kind takes; a spec that sets any other is rejected.
# A relu after a max pool equals one before it (relu commutes with max, and
# so does adding a bias, since rounding is monotone), so the pool takes no
# activation, and nn.forward adds a conv's bias and relu after its pool;
# softmax-output applies its own.
LAYER_FIELDS = {
    DENSE: ("width", "activation"),
    CONV1D: ("width", "kernel", "activation"),
    MAXPOOL1D: ("kernel",),
    SOFTMAX_OUTPUT: ("width",),
}
PARAM_KINDS = tuple(kind for kind, fields in LAYER_FIELDS.items() if "width" in fields)
ACTIVATIONS = ("relu", "none")


class ArchError(ValueError):
    """Raised for invalid architecture descriptions."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network skeleton.

    width is the unit/filter count (dense units, conv output channels, or
    class count for the softmax output); kernel is the window length for
    conv/pool layers.
    """

    kind: str
    width: int | None = None
    kernel: int | None = None
    activation: str = "none"

    def __post_init__(self) -> None:
        fields = LAYER_FIELDS.get(self.kind)
        if fields is None:
            raise ArchError(f"unknown layer kind {self.kind!r}")
        for name in ("width", "kernel"):
            value = getattr(self, name)
            if name not in fields and value is not None:
                raise ArchError(f"{self.kind} layer takes no {name}")
            if name in fields and (value is None or value < 1):
                raise ArchError(f"{self.kind} layer needs {name} >= 1")
        if self.activation not in ACTIVATIONS:
            raise ArchError(f"unknown activation {self.activation!r}")
        if "activation" not in fields and self.activation != "none":
            raise ArchError(f"{self.kind} layer takes no activation")


@dataclass(frozen=True)
class ParamShape:
    """Static shape info for one parameterized layer."""

    incoming_shape: tuple[int, ...]  # dense: (fan_in, width); conv: (kernel, in_ch, width)
    width: int
    activation: str


@dataclass(frozen=True)
class ModelArch:
    """Network skeleton plus the input contract (window length x channels).

    Flat (non-windowed) inputs use input_channels = 1.
    """

    input_length: int
    input_channels: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if self.input_length < 1 or self.input_channels < 1:
            raise ArchError("input dimensions must be >= 1")
        if len(self.layers) < 2:
            raise ArchError("a model needs at least 2 layers")
        if self.layers[-1].kind != SOFTMAX_OUTPUT:
            raise ArchError("final layer must be softmax-output")
        for i, spec in enumerate(self.layers[:-1]):
            if spec.kind == SOFTMAX_OUTPUT:
                raise ArchError(f"layer {i}: softmax-output only allowed last")
        # Walk shapes once so bad stacks fail at construction.
        self.trace()

    @property
    def classes(self) -> int:
        w = self.layers[-1].width
        assert w is not None
        return w

    def trace(self, widths: tuple[int, ...] | None = None) -> list[ParamShape]:
        """Walk the stack and return per-parameterized-layer shapes, at
        `widths` (one per parameterized layer; the specs' own by default):
        the one statement of the shape each layer's weights must have.

        Spatial state is tracked as (time, channels); the first dense layer
        flattens it channel-major (unit c occupies rows [c*T, (c+1)*T) of the
        dense input), which keeps appended conv filters at the tail of the
        flattened vector.
        """
        time: int | None = self.input_length
        channels = self.input_channels
        flat: int | None = None
        out: list[ParamShape] = []
        widths = iter(widths or [s.width for s in self.layers if s.kind in PARAM_KINDS])
        for i, spec in enumerate(self.layers):
            if spec.kernel is not None:  # conv1d or maxpool1d
                if time is None:
                    raise ArchError(f"layer {i}: {spec.kind} after flatten")
                if time < spec.kernel:
                    raise ArchError(f"layer {i}: {spec.kind} kernel {spec.kernel} "
                                    f"exceeds length {time}")
            if spec.kind == CONV1D:
                channels_in, channels = channels, next(widths)
                out.append(ParamShape((spec.kernel, channels_in, channels),
                                      channels, spec.activation))
                time = time - spec.kernel + 1
            elif spec.kind == MAXPOOL1D:
                time = time // spec.kernel
            else:  # dense or softmax-output
                if flat is None:
                    assert time is not None
                    flat = time * channels
                    time = None
                width = next(widths)
                out.append(ParamShape((flat, width), width, spec.activation))
                flat = width
        return out

    def param_indices(self) -> list[int]:
        """Spec indices of parameterized layers, in order."""
        return [i for i, spec in enumerate(self.layers) if spec.kind in PARAM_KINDS]

    def with_widths(self, widths: tuple[int, ...] | list[int]) -> "ModelArch":
        """Same skeleton with parameterized-layer widths replaced.

        Used to re-instantiate a grown shape from a shape signature.  The
        output width must stay equal to the class count.
        """
        idx = self.param_indices()
        if len(widths) != len(idx):
            raise ArchError(
                f"shape has {len(widths)} widths, architecture has {len(idx)} "
                "parameterized layers"
            )
        if widths[-1] != self.classes:
            raise ArchError("output width must equal the class count")
        layers = list(self.layers)
        for w, i in zip(widths, idx):
            if w < layers[i].width:  # type: ignore[operator]
                raise ArchError(f"layer {i}: width {w} below base width")
            layers[i] = replace(layers[i], width=int(w))
        return ModelArch(self.input_length, self.input_channels, tuple(layers))
