"""Shared builders for toy architectures, models, and clients."""

from __future__ import annotations

import numpy as np
import pytest

from fedsim import LayerSpec, ModelArch, ModelWeights, TrainingConfig
from fedsim.aggregation import ClientRuntime
from fedsim.fabric import LayerWeights, ShapeError
from fedsim.nn import Batch


def dense_arch(inputs: int, hidden: int, classes: int,
               activation: str = "relu") -> ModelArch:
    return ModelArch(inputs, 1, (
        LayerSpec("dense", width=hidden, activation=activation),
        LayerSpec("softmax-output", width=classes),
    ))


def conv_arch(length: int = 20, channels: int = 2, filters: int = 6,
              kernel: int = 5, pool: int = 2, hidden: int = 10,
              classes: int = 4) -> ModelArch:
    return ModelArch(length, channels, (
        LayerSpec("conv1d", width=filters, kernel=kernel, activation="relu"),
        LayerSpec("maxpool1d", kernel=pool),
        LayerSpec("dense", width=hidden, activation="relu"),
        LayerSpec("softmax-output", width=classes),
    ))


def models_bit_equal(a: ModelWeights, b: ModelWeights) -> bool:
    if len(a.layers) != len(b.layers):
        return False
    return all(
        np.array_equal(la.incoming, lb.incoming) and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)
    )


def write_neuron(layer: LayerWeights, unit: int, values: np.ndarray) -> LayerWeights:
    """Write a flat neuron vector back into unit `unit`; returns a new layer."""
    if values.shape != (layer.fan_in + 1,):
        raise ShapeError(
            f"neuron vector length {values.shape[0]} != fan-in+1 = {layer.fan_in + 1}"
        )
    incoming = layer.incoming.copy()
    incoming[..., unit] = values[:-1].reshape(layer.incoming.shape[:-1])
    bias = layer.bias.copy()
    bias[unit] = values[-1]
    return LayerWeights(incoming, bias)


def make_clients(arch: ModelArch, sizes, cfg: TrainingConfig, seed: int = 0,
                 same_data: bool = False, same_train_seed: int | None = None):
    """Clients with random data; same_data shares one dataset across all."""
    rng = np.random.default_rng(seed)
    classes = arch.classes
    shape = ((arch.input_length,) if arch.input_channels == 1
             else (arch.input_length, arch.input_channels))
    shared = None
    clients = []
    for k, n in enumerate(sizes):
        if same_data:
            if shared is None:
                shared = (rng.normal(size=(n, *shape)), rng.integers(0, classes, n))
            x, y = shared
        else:
            x, y = rng.normal(size=(n, *shape)), rng.integers(0, classes, n)
        train_seed = same_train_seed if same_train_seed is not None else 1000 + k
        clients.append(ClientRuntime(id=k, data=Batch(x, y), cfg=cfg,
                                     seed=train_seed))
    return clients


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
