"""Weight-fabric tests: neuron views, averaging, growth, conforming, and the
binary container."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import (
    LayerSpec,
    ModelArch,
    ModelWeights,
    append_neuron,
    byte_size,
    conform_to_shape,
    deserialize_model,
    forward,
    init_model,
    neuron_vector,
    serialize_model,
    weighted_average,
)
from fedsim.container import HEADER_SIZE, MAGIC, ContainerError, shape_metadata_size
from fedsim.fabric import (
    LayerWeights,
    ShapeError,
    donor_successor_rows,
    shape_lines,
    successor_rows_per_unit,
)

from conftest import conv_arch, dense_arch, models_bit_equal, write_neuron


def small_dense_model(seed=0, inputs=2, hidden=2, classes=2):
    arch = dense_arch(inputs, hidden, classes)
    return init_model(arch, seed), arch


class TestNeuronVector:
    def test_dense_readout(self):
        layer = LayerWeights(np.array([[1.0, 9.0], [2.0, 9.0]]),
                             np.array([3.0, 9.0]))
        nv = neuron_vector(layer, 0)
        assert nv.tolist() == [1.0, 2.0, 3.0]

    def test_conv_filter_length(self):
        # kernel 3, 1 input channel: vector length 3*1 + 1
        layer = LayerWeights(np.arange(12, dtype=float).reshape(3, 1, 4),
                             np.zeros(4))
        for j in range(4):
            assert neuron_vector(layer, j).shape == (4,)

    def test_round_trip_write_read(self, rng):
        layer = LayerWeights(rng.normal(size=(5, 2, 3)), rng.normal(size=3))
        values = rng.normal(size=5 * 2 + 1)
        written = write_neuron(layer, 1, values)
        assert np.array_equal(neuron_vector(written, 1), values)
        # untouched units stay bit-identical
        assert np.array_equal(written.incoming[..., 0], layer.incoming[..., 0])

    def test_out_of_range(self):
        layer = LayerWeights(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(IndexError):
            neuron_vector(layer, 2)


class TestWeightedAverage:
    def test_scalar_arithmetic(self):
        a = ModelWeights((LayerWeights(np.array([[1.0]]), np.array([1.0])),))
        b = ModelWeights((LayerWeights(np.array([[3.0]]), np.array([3.0])),))
        avg = weighted_average([a, b], [0.5, 0.5])
        assert avg.layers[0].incoming[0, 0] == 2.0
        assert avg.layers[0].bias[0] == 2.0

    def test_unit_fraction_returns_that_model(self):
        models = [small_dense_model(seed)[0] for seed in range(3)]
        avg = weighted_average(models, [0.0, 1.0, 0.0])
        assert models_bit_equal(avg, models[1])

    def test_matches_bruteforce_elementwise_oracle(self):
        arch = conv_arch()
        sizes = np.array([1, 2, 3, 4, 10], dtype=float)
        fractions = sizes / sizes.sum()
        models = [init_model(arch, 100 + i) for i in range(5)]
        avg = weighted_average(models, fractions)
        for li in range(len(avg.layers)):
            expected_inc = np.zeros_like(models[0].layers[li].incoming)
            expected_bias = np.zeros_like(models[0].layers[li].bias)
            for f, m in zip(fractions, models):
                expected_inc += f * m.layers[li].incoming
                expected_bias += f * m.layers[li].bias
            assert np.abs(avg.layers[li].incoming - expected_inc).max() < 1e-12
            assert np.abs(avg.layers[li].bias - expected_bias).max() < 1e-12

    def test_fraction_sum_enforced(self):
        m, _ = small_dense_model()
        with pytest.raises(ValueError, match="sum"):
            weighted_average([m, m], [0.6, 0.5])

    def test_shape_mismatch_names_layer(self):
        a, arch = small_dense_model()
        b = init_model(dense_arch(2, 3, 2), 0)
        with pytest.raises(ShapeError, match="layer 0"):
            weighted_average([a, b], [0.5, 0.5])

    @given(st.integers(0, 4), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_basis_fraction_identity(self, pick, count):
        pick = pick % count
        models = [small_dense_model(seed)[0] for seed in range(count)]
        fractions = np.zeros(count)
        fractions[pick] = 1.0
        assert models_bit_equal(weighted_average(models, fractions), models[pick])


def _grow_dense(model, layer, seed=0):
    rng = np.random.default_rng(seed)
    fan = model.layers[layer].fan_in
    out_next = model.layers[layer + 1].out_width
    r = successor_rows_per_unit(model, layer)
    nv = rng.normal(size=fan + 1)
    rows = rng.normal(size=(r, out_next))
    return append_neuron(model, layer, nv, rows), nv, rows


class TestAppendNeuron:
    def test_structural_growth_2_2_2(self):
        model, arch = small_dense_model()
        grown, nv, rows = _grow_dense(model, 0)
        assert grown.shape_signature == (3, 2)
        assert np.array_equal(grown.layers[0].incoming[:, :2],
                              model.layers[0].incoming)
        assert np.array_equal(grown.layers[0].bias[:2], model.layers[0].bias)
        assert np.array_equal(grown.layers[1].incoming[:2, :],
                              model.layers[1].incoming)
        assert np.array_equal(grown.layers[0].incoming[:, 2], nv[:-1])
        assert grown.layers[0].bias[2] == nv[-1]
        assert np.array_equal(grown.layers[1].incoming[2:, :], rows)

    def test_grown_model_forward_is_well_formed(self, rng):
        model, arch = small_dense_model(3)
        grown, _, _ = _grow_dense(model, 0, seed=1)
        probs = forward(grown, arch, rng.normal(size=(4, 2)))
        assert np.abs(probs.sum(axis=1) - 1).max() < 1e-12

    def test_donor_append_matches_matrix_oracle(self, rng):
        # append a donor unit, then verify the widened product directly
        model, arch = small_dense_model(4, inputs=3, hidden=4, classes=3)
        donor = init_model(dense_arch(3, 4, 3), 99)
        nv = neuron_vector(donor.layers[0], 2)
        rows = donor_successor_rows(donor, 0, 2)
        grown = append_neuron(model, 0, nv, rows)

        x = rng.normal(size=(5, 3))
        w0 = np.column_stack([model.layers[0].incoming, donor.layers[0].incoming[:, 2]])
        b0 = np.append(model.layers[0].bias, donor.layers[0].bias[2])
        w1 = np.vstack([model.layers[1].incoming, donor.layers[1].incoming[2:3, :]])
        hidden = np.maximum(x @ w0 + b0, 0)
        logits = hidden @ w1 + model.layers[1].bias
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(forward(grown, arch, x), expected, atol=1e-13)

    def test_conv_to_dense_block_growth(self):
        arch = conv_arch()
        model = init_model(arch, 5)
        donor = init_model(arch, 6)
        pooled = (20 - 5 + 1) // 2  # conv output length after the pool
        assert successor_rows_per_unit(model, 0) == pooled
        nv = neuron_vector(donor.layers[0], 1)
        rows = donor_successor_rows(donor, 0, 1)
        assert rows.shape == (pooled, 10)
        grown = append_neuron(model, 0, nv, rows)
        assert grown.layers[0].incoming.shape == (5, 2, 7)
        assert grown.layers[1].incoming.shape == ((7) * pooled, 10)
        # donor block lands at the tail
        assert np.array_equal(grown.layers[1].incoming[6 * pooled:, :], rows)

    def test_conv_to_conv_channel_growth(self, rng):
        arch = ModelArch(24, 2, (
            LayerSpec("conv1d", width=3, kernel=3, activation="relu"),
            LayerSpec("conv1d", width=4, kernel=5, activation="relu"),
            LayerSpec("maxpool1d", kernel=2),
            LayerSpec("dense", width=5, activation="relu"),
            LayerSpec("softmax-output", width=3),
        ))
        model = init_model(arch, 21)
        donor = init_model(arch, 22)
        assert successor_rows_per_unit(model, 0) == 1
        nv = neuron_vector(donor.layers[0], 1)
        rows = donor_successor_rows(donor, 0, 1)
        grown = append_neuron(model, 0, nv, rows)
        assert grown.shape_signature == (4, 4, 5, 3)
        assert grown.layers[0].incoming.shape == (3, 2, 4)
        assert grown.layers[1].incoming.shape == (5, 4, 4)
        # existing coordinates are untouched
        assert np.array_equal(grown.layers[0].incoming[..., :3],
                              model.layers[0].incoming)
        assert np.array_equal(grown.layers[0].bias[:3], model.layers[0].bias)
        assert np.array_equal(grown.layers[1].incoming[:, :3, :],
                              model.layers[1].incoming)
        assert np.array_equal(grown.layers[1].bias, model.layers[1].bias)
        for i in (2, 3):
            assert np.array_equal(grown.layers[i].incoming, model.layers[i].incoming)
        # the donor filter and its channel slice land at the tail
        assert np.array_equal(grown.layers[0].incoming[..., 3],
                              donor.layers[0].incoming[..., 1])
        assert grown.layers[0].bias[3] == donor.layers[0].bias[1]
        assert np.array_equal(grown.layers[1].incoming[:, 3, :],
                              donor.layers[1].incoming[:, 1, :])
        x = rng.normal(size=(6, 24, 2))
        assert np.abs(forward(grown, arch, x).sum(axis=1) - 1).max() < 1e-12

        client = init_model(arch, 23)
        conformed = conform_to_shape(client, grown, upto_layer=0)
        assert conformed.shape_signature == grown.shape_signature
        assert np.array_equal(conformed.layers[0].incoming, grown.layers[0].incoming)
        assert np.array_equal(conformed.layers[1].incoming[:, :3, :],
                              client.layers[1].incoming)
        assert np.array_equal(conformed.layers[1].incoming[:, 3, :],
                              grown.layers[1].incoming[:, 3, :])
        assert np.array_equal(conformed.layers[1].bias, client.layers[1].bias)
        assert np.abs(forward(conformed, arch, x).sum(axis=1) - 1).max() < 1e-12

    def test_output_layer_growth_rejected(self):
        model, _ = small_dense_model()
        nv = np.zeros(3)
        with pytest.raises(ShapeError, match="output layer"):
            append_neuron(model, 1, nv, np.zeros((1, 2)))

    def test_append_order_commutes_up_to_suffix(self):
        model, _ = small_dense_model(7)
        rng = np.random.default_rng(8)
        u1 = (rng.normal(size=3), rng.normal(size=(1, 2)))
        u2 = (rng.normal(size=3), rng.normal(size=(1, 2)))
        ab = append_neuron(append_neuron(model, 0, *u1), 0, *u2)
        ba = append_neuron(append_neuron(model, 0, *u2), 0, *u1)
        assert ab.shape_signature == ba.shape_signature
        # same unit sets; the appended suffix order is swapped
        assert np.array_equal(ab.layers[0].incoming[:, 2], ba.layers[0].incoming[:, 3])
        assert np.array_equal(ab.layers[0].incoming[:, 3], ba.layers[0].incoming[:, 2])
        assert np.array_equal(ab.layers[0].incoming[:, :2], ba.layers[0].incoming[:, :2])


class TestConformToShape:
    def test_no_growth_copies_frozen_stack_only(self):
        client, arch = small_dense_model(1, inputs=3, hidden=4, classes=3)
        server = init_model(dense_arch(3, 4, 3), 2)
        out = conform_to_shape(client, server, upto_layer=0)
        assert np.array_equal(out.layers[0].incoming, server.layers[0].incoming)
        assert np.array_equal(out.layers[1].incoming, client.layers[1].incoming)

    def test_one_appended_unit_gains_exactly_the_server_row(self):
        client, _ = small_dense_model(3)
        server, _, rows = _grow_dense(init_model(dense_arch(2, 2, 2), 4), 0, seed=2)
        out = conform_to_shape(client, server, upto_layer=0)
        assert out.shape_signature == server.shape_signature
        assert np.array_equal(out.layers[0].incoming, server.layers[0].incoming)
        assert np.array_equal(out.layers[1].incoming[:2, :], client.layers[1].incoming)
        assert np.array_equal(out.layers[1].incoming[2:, :],
                              server.layers[1].incoming[2:, :])
        assert np.array_equal(out.layers[1].bias, client.layers[1].bias)

    def test_idempotent(self):
        client, _ = small_dense_model(5)
        server, _, _ = _grow_dense(init_model(dense_arch(2, 2, 2), 6), 0, seed=3)
        once = conform_to_shape(client, server, upto_layer=0)
        twice = conform_to_shape(once, server, upto_layer=0)
        assert models_bit_equal(once, twice)

    def test_conformed_forward_matches_oracle(self, rng):
        client, arch = small_dense_model(11)
        server, _, _ = _grow_dense(init_model(dense_arch(2, 2, 2), 12), 0, seed=5)
        out = conform_to_shape(client, server, upto_layer=0)
        x = rng.normal(size=(6, 2))
        hidden = np.maximum(x @ out.layers[0].incoming + out.layers[0].bias, 0)
        logits = hidden @ out.layers[1].incoming + out.layers[1].bias
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.allclose(forward(out, arch, x), e / e.sum(axis=1, keepdims=True))

    def test_narrower_server_rejected(self):
        grown, _, _ = _grow_dense(init_model(dense_arch(2, 2, 2), 13), 0, seed=6)
        narrow = init_model(dense_arch(2, 2, 2), 14)
        with pytest.raises(ShapeError):
            conform_to_shape(grown, narrow, upto_layer=0)


class TestContainer:
    def test_empty_layer_selection_is_header_only(self):
        model, _ = small_dense_model()
        assert byte_size(model, []) == HEADER_SIZE

    def test_documented_arithmetic_dense_4x3(self):
        layer = LayerWeights(np.zeros((4, 3), dtype=np.float32),
                             np.zeros(3, dtype=np.float32))
        model = ModelWeights((layer,))
        record = 2 + 4 * 2 + 4 + 15 * 4  # kind+ndim, dims, bias_len, 15 floats
        assert byte_size(model) == HEADER_SIZE + record
        assert len(serialize_model(model)) == byte_size(model)

    def test_per_layer_sizes_add_up(self):
        arch = conv_arch()
        model = init_model(arch, 0)
        per_layer = [byte_size(model, [i]) - HEADER_SIZE
                     for i in range(len(model.layers))]
        assert HEADER_SIZE + sum(per_layer) == byte_size(model)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip(self, dtype, rng):
        arch = conv_arch()
        model = init_model(arch, 1, dtype=dtype)
        blob = serialize_model(model)
        back = deserialize_model(blob)
        assert back.dtype == np.dtype(dtype)
        assert models_bit_equal(model, back)

    def test_corrupt_blobs_rejected(self):
        model, _ = small_dense_model()
        blob = serialize_model(model)
        with pytest.raises(ContainerError, match="magic"):
            deserialize_model(b"XXXX" + blob[4:])
        with pytest.raises(ContainerError, match="truncated"):
            deserialize_model(blob[:-4])
        with pytest.raises(ContainerError, match="trailing"):
            deserialize_model(blob + b"\x00")
        # a conv record relabelled as dense (kind byte 0) must not load as conv
        conv_blob = serialize_model(init_model(conv_arch(), 0))
        assert conv_blob[HEADER_SIZE] == 1
        relabelled = conv_blob[:HEADER_SIZE] + b"\x00" + conv_blob[HEADER_SIZE + 1:]
        with pytest.raises(ContainerError, match="kind code 0"):
            deserialize_model(relabelled)
        # conv dims whose product is 2**64: wrapped in int64, it would read as 0
        huge = (struct.pack("<4sHBBI", MAGIC, 1, 1, 0, 1)
                + struct.pack("<BB3II", 1, 3, 2**21, 2**21, 2**22, 0))
        with pytest.raises(ContainerError, match="layer 0: truncated payload"):
            deserialize_model(huge)
        # records the weight types reject must name their layer
        one_layer = struct.pack("<4sHBBI", MAGIC, 1, 1, 0, 1)
        flat = one_layer + struct.pack("<BB1II", 0, 1, 3, 3) + bytes(8 * 6)
        with pytest.raises(ContainerError, match="layer 0: incoming must be 2-D or 3-D"):
            deserialize_model(flat)
        short_bias = one_layer + struct.pack("<BB2II", 0, 2, 2, 3, 2) + bytes(8 * 8)
        with pytest.raises(ContainerError, match=r"layer 0: bias length \(2,\)"):
            deserialize_model(short_bias)
        with pytest.raises(ContainerError, match="at least one parameterized layer"):
            deserialize_model(struct.pack("<4sHBBI", MAGIC, 1, 1, 0, 0))

    def test_shape_metadata_is_fixed_size(self):
        a, _ = small_dense_model(1)
        b, _ = small_dense_model(2)
        assert shape_metadata_size(a) == shape_metadata_size(b)
        grown, _, _ = _grow_dense(a, 0)
        assert shape_metadata_size(grown) == shape_metadata_size(a)


def test_shape_lines_dump():
    arch = conv_arch()
    model = init_model(arch, 3)
    lines = shape_lines(model)
    assert lines[0] == "conv1d 5x2 6"
    assert lines[1] == "dense 48 10"
    assert lines[2] == "dense 10 4"
