"""Flat binary container for model weights; also the wire payload.

Layout (little-endian):

    header (12 bytes):
        magic    4s   = b"MWC1"
        version  u16  = 1
        dtype    u8   (0 = float32, 1 = float64)
        flags    u8   (reserved, 0)
        layers   u32

    per-layer record:
        kind     u8   (0 = dense, 1 = conv1d; must match ndim)
        ndim     u8   (2 for dense, 3 for conv1d)
        dims     u32 * ndim       incoming shape
        bias_len u32
        incoming floats, C order
        bias     floats

The same container is used for the final-model artifact on disk and for
communication-cost accounting: uploading a subset of layers costs one
header plus the included records.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .fabric import LayerWeights, ModelWeights, ShapeError

MAGIC = b"MWC1"
VERSION = 1
HEADER_SIZE = 12

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}
_KIND_CODES = {"dense": 0, "conv1d": 1}


class ContainerError(ValueError):
    """Raised for malformed containers."""


def _dtype_code(dtype) -> int:
    try:
        return _DTYPE_CODES[np.dtype(dtype)]
    except KeyError:
        raise ContainerError(f"unsupported dtype {dtype}") from None


def record_size(layer: LayerWeights) -> int:
    """Serialized size in bytes of one layer record."""
    ndim = layer.incoming.ndim
    return 2 + 4 * ndim + 4 + layer.size * layer.incoming.dtype.itemsize


def byte_size(model: ModelWeights, layer_indices=None) -> int:
    """Payload size of the container holding the given layers (default all)."""
    if layer_indices is None:
        layer_indices = range(len(model.layers))
    return HEADER_SIZE + sum(record_size(model.layers[i]) for i in layer_indices)


def shape_metadata_size(model: ModelWeights) -> int:
    """Size of the per-round shape broadcast (layer count + kind/in/out)."""
    return 8 + 12 * len(model.layers)


def serialize_model(model: ModelWeights) -> bytes:
    """Serialize every layer of the model into container bytes."""
    out = [struct.pack("<4sHBBI", MAGIC, VERSION, _dtype_code(model.dtype), 0,
                       len(model.layers))]
    for layer in model.layers:
        shape = layer.incoming.shape
        out.append(struct.pack(f"<BB{len(shape)}II", _KIND_CODES[layer.kind],
                               len(shape), *shape, layer.bias.shape[0]))
        out.append(np.ascontiguousarray(layer.incoming).tobytes())
        out.append(layer.bias.tobytes())
    return b"".join(out)


def deserialize_model(blob: bytes) -> ModelWeights:
    """Parse container bytes back into ModelWeights."""
    if len(blob) < HEADER_SIZE:
        raise ContainerError("truncated header")
    magic, version, dtype_code, _flags, n_layers = struct.unpack_from(
        "<4sHBBI", blob, 0)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ContainerError(f"unsupported version {version}")
    if dtype_code not in _CODE_DTYPES:
        raise ContainerError(f"unknown dtype code {dtype_code}")
    dtype = _CODE_DTYPES[dtype_code]

    offset = HEADER_SIZE
    layers = []
    for i in range(n_layers):
        try:
            kind_code, ndim = struct.unpack_from("<BB", blob, offset)
            offset += 2
            dims = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            (bias_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
        except struct.error as exc:
            raise ContainerError(f"layer {i}: truncated record") from exc
        n_in = math.prod(dims)
        need = (n_in + bias_len) * dtype.itemsize
        if offset + need > len(blob):
            raise ContainerError(f"layer {i}: truncated payload")
        incoming = np.frombuffer(blob, dtype=dtype, count=n_in,
                                 offset=offset).reshape(dims).copy()
        offset += n_in * dtype.itemsize
        bias = np.frombuffer(blob, dtype=dtype, count=bias_len, offset=offset).copy()
        offset += bias_len * dtype.itemsize
        try:
            layer = LayerWeights(incoming, bias)
        except ShapeError as exc:
            raise ContainerError(f"layer {i}: {exc}") from exc
        if _KIND_CODES[layer.kind] != kind_code:
            raise ContainerError(f"layer {i}: kind code {kind_code} does not "
                                 f"match {ndim}-D {layer.kind} weights")
        layers.append(layer)
    if offset != len(blob):
        raise ContainerError(f"{len(blob) - offset} trailing bytes")
    try:
        return ModelWeights(tuple(layers))
    except ShapeError as exc:
        raise ContainerError(f"header: {exc}") from exc
