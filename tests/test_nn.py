"""Neural-core tests: forward, loss, local training, gradient fidelity."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import (
    LayerSpec,
    ModelArch,
    ModelWeights,
    TrainingConfig,
    balanced_class_weights,
    evaluate,
    forward,
    gradient_check,
    init_model,
    loss,
    stratified_split,
    train_local,
    window,
)
from fedsim import nn
from fedsim.fabric import LayerWeights, ShapeError
from fedsim.nn import (
    Batch,
    DivergenceError,
    _activate,
    _block_max,
    _conv1d,
    _conv_pool,
    _gather,
    _im2col,
    _lowest_trainable,
    _maxpool1d,
    _objective,
    _slots,
    _softmax,
    _walk,
    _window_prefix,
)

from conftest import conv_arch, dense_arch, models_bit_equal


def identity_model(n: int) -> tuple[ModelWeights, ModelArch]:
    arch = ModelArch(n, 1, (
        LayerSpec("dense", width=n, activation="none"),
        LayerSpec("softmax-output", width=n),
    ))
    eye = np.eye(n, dtype=np.float64)
    zeros = np.zeros(n)
    model = ModelWeights((LayerWeights(eye.copy(), zeros.copy()),
                          LayerWeights(eye.copy(), zeros.copy())))
    return model, arch


class TestForward:
    def test_zero_logits_give_uniform(self):
        model, arch = identity_model(2)
        probs = forward(model, arch, np.zeros((1, 2)))
        assert np.allclose(probs, [[0.5, 0.5]])

    def test_rows_sum_to_one_over_many_samples(self):
        # 1000+ random (weights, input) samples across several shapes
        rng = np.random.default_rng(7)
        total = 0
        for trial in range(25):
            arch = dense_arch(int(rng.integers(2, 10)), int(rng.integers(2, 8)),
                              int(rng.integers(2, 6)))
            model = init_model(arch, int(rng.integers(1 << 30)))
            x = rng.normal(size=(48, arch.input_length)) * rng.uniform(0.1, 3)
            probs = forward(model, arch, x)
            assert np.all(probs >= 0)
            assert np.abs(probs.sum(axis=1) - 1).max() < 1e-6
            total += len(x)
        assert total >= 1000

    def test_matches_hand_computed_matrix_chain(self):
        # independent oracle: explicit matrix arithmetic on toy values
        arch = ModelArch(2, 1, (
            LayerSpec("dense", width=2, activation="none"),
            LayerSpec("softmax-output", width=2),
        ))
        w0 = np.array([[0.1, -0.2], [0.3, 0.4]])
        b0 = np.array([0.05, -0.05])
        w1 = np.array([[0.7, -0.1], [0.2, 0.6]])
        b1 = np.array([0.0, 0.1])
        model = ModelWeights((LayerWeights(w0, b0), LayerWeights(w1, b1)))
        x = np.array([[1.0, 2.0], [-0.5, 0.25]])

        hidden = x @ w0 + b0
        logits = hidden @ w1 + b1
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = e / e.sum(axis=1, keepdims=True)

        assert np.allclose(forward(model, arch, x), expected, atol=1e-15)

    def test_shape_mismatch_names_offending_layer(self):
        arch = conv_arch()
        model = init_model(arch, 0)
        bad = np.zeros((2, arch.input_length, arch.input_channels + 1))
        with pytest.raises(ShapeError, match="model contract"):
            forward(model, arch, bad)
        # mid-stack mismatch: grown dense without growing its feeder
        layers = list(model.layers)
        inc = layers[1].incoming
        layers[1] = LayerWeights(np.vstack([inc, inc[:1]]), layers[1].bias)
        broken = ModelWeights(tuple(layers))
        with pytest.raises(ShapeError, match=r"layer 2 \(dense\)"):
            forward(broken, arch, np.zeros((1, 20, 2)))


def _mismatched(case: str):
    """(model, arch, the ShapeError message expected) for a model whose
    weights do not fit arch: conv_arch's stack, input 20 x 2, pool 2."""
    arch = conv_arch(kernel=4)
    model = init_model(arch, 40)
    layers = list(model.layers)
    if case == "extra-layer":
        extra = LayerWeights(np.zeros((4, 4)), np.zeros(4))
        return ModelWeights((*layers, extra)), arch, "4 parameterized layers, architecture has 3"
    if case == "missing-layer":
        return ModelWeights(tuple(layers[:-1])), arch, "2 parameterized layers, architecture has 3"
    if case == "conv-kernel":
        # kernel 5 pools to length 8, as the declared kernel 4 does
        return init_model(conv_arch(kernel=5), 41), arch, r"layer 0 \(conv1d\)"
    if case == "conv-channels":
        wide = init_model(conv_arch(kernel=4, channels=3), 42)
        return ModelWeights((wide.layers[0], *layers[1:])), arch, r"layer 0 \(conv1d\)"
    inc = layers[1].incoming  # "dense-fan-in": one row more than the pool gives
    layers[1] = LayerWeights(np.vstack([inc, inc[:1]]), layers[1].bias)
    return ModelWeights(tuple(layers)), arch, r"layer 2 \(dense\): weights \(49, 10\)"


class TestEntryCheck:
    """forward, train_local and gradient_check check the model against the
    architecture once, on the way in; the layer kernels check nothing."""

    @pytest.mark.parametrize("entry", ["forward", "train_local", "gradient_check"])
    @pytest.mark.parametrize("case", ["extra-layer", "missing-layer", "conv-kernel",
                                      "conv-channels", "dense-fan-in"])
    def test_mismatch_is_named_at_the_entry(self, case, entry):
        model, arch, message = _mismatched(case)
        rng = np.random.default_rng(43)
        batch = Batch(rng.normal(size=(6, 20, 2)), rng.integers(0, 4, 6))
        cfg = TrainingConfig(local_epochs=1, batch_size=4)
        call = {"forward": lambda: forward(model, arch, batch.inputs),
                "train_local": lambda: train_local(model, arch, batch, cfg, 0),
                "gradient_check": lambda: gradient_check(model, arch, batch, cfg)}
        with pytest.raises(ShapeError, match=message):
            call[entry]()

    @pytest.mark.parametrize("widths", [(6, 10, 4), (9, 10, 4), (6, 13, 4), (8, 12, 4)])
    def test_grown_model_passes(self, widths):
        # FedDist's models outgrow the architecture's widths
        arch = conv_arch()
        assert arch.trace(widths) == arch.with_widths(widths).trace()
        model = init_model(arch.with_widths(widths), 46)
        assert forward(model, arch, np.zeros((2, 20, 2))).shape == (2, 4)

    def test_label_range_is_checked_before_the_first_minibatch(self, monkeypatch):
        arch = conv_arch()
        model = init_model(arch, 44)
        rng = np.random.default_rng(45)
        labels = np.arange(12) % 4
        labels[-1] = 4  # only the last window names a class the model lacks
        batch = Batch(rng.normal(size=(12, 20, 2)), labels)
        cfg = TrainingConfig(local_epochs=1, batch_size=4)
        assert 11 not in np.random.default_rng(0).permutation(12)[:4]  # seed 0's shuffle
        calls = []
        objective = nn._objective
        monkeypatch.setattr(nn, "_objective",
                            lambda *args, **kw: calls.append(1) or objective(*args, **kw))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\), got \[0, 4\]"):
            train_local(model, arch, batch, cfg, 0)
        with pytest.raises(ValueError, match="labels must lie in"):
            gradient_check(model, arch, batch, cfg)
        assert calls == []


class TestLoss:
    def test_perfect_prediction_is_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert loss(probs, np.array([0, 1])) < 1e-6

    def test_uniform_prediction_is_log_c(self):
        for c in (2, 5, 8):
            probs = np.full((3, c), 1.0 / c)
            labels = np.array([0, 1, c - 1])
            assert loss(probs, labels) == pytest.approx(math.log(c), abs=1e-12)

    def test_weighted_hand_arithmetic(self):
        # per-class weights (1, 3), true-class probabilities (0.5, 0.25)
        probs = np.array([[0.5, 0.5], [0.75, 0.25]])
        labels = np.array([0, 1])
        weights = np.array([1.0, 3.0])
        expected = (1 * math.log(2) + 3 * math.log(4)) / 2
        assert loss(probs, labels, weights) == pytest.approx(expected, abs=1e-12)

    def test_zero_probability_clamped_not_error(self):
        probs = np.array([[0.0, 1.0]])
        value = loss(probs, np.array([0]))
        assert np.isfinite(value)
        assert value == pytest.approx(-math.log(1e-12))


def _separable_batch(n=60, seed=3) -> Batch:
    # two Gaussian blobs pushed apart along a fixed direction
    rng = np.random.default_rng(seed)
    direction = np.array([1.0, -0.5]) / np.linalg.norm([1.0, -0.5])
    xs, ys = [], []
    for cls, sign in ((0, -1), (1, 1)):
        pts = rng.normal(scale=0.4, size=(n // 2, 2)) + sign * 2.0 * direction
        xs.append(pts)
        ys.append(np.full(n // 2, cls))
    return Batch(np.concatenate(xs), np.concatenate(ys))


def _linearly_separable(batch: Batch) -> bool:
    """Oracle: exhaustive search over line angles and offsets."""
    x, y = batch.inputs, batch.labels
    for angle in np.linspace(0, np.pi, 360, endpoint=False):
        w = np.array([np.cos(angle), np.sin(angle)])
        proj = x @ w
        order = np.argsort(proj)
        sorted_labels = y[order]
        # try every threshold between consecutive projections
        for i in range(len(proj) + 1):
            left, right = sorted_labels[:i], sorted_labels[i:]
            if ((np.all(left == 0) and np.all(right == 1))
                    or (np.all(left == 1) and np.all(right == 0))):
                return True
    return False


class TestTrainLocal:
    def test_zero_learning_rate_is_identity(self):
        arch = dense_arch(3, 4, 2)
        model = init_model(arch, 1)
        batch = Batch(np.random.default_rng(0).normal(size=(10, 3)),
                      np.array([0, 1] * 5))
        cfg = TrainingConfig(local_epochs=2, learning_rate=0.0, batch_size=4)
        out, losses = train_local(model, arch, batch, cfg, 0)
        assert models_bit_equal(out, model)
        assert len(losses) == 2

    def test_all_layers_frozen_is_identity(self):
        arch = dense_arch(3, 4, 2)
        model = init_model(arch, 2)
        batch = Batch(np.random.default_rng(1).normal(size=(10, 3)),
                      np.array([0, 1] * 5))
        cfg = TrainingConfig(local_epochs=3, learning_rate=0.5, batch_size=4,
                             frozen_prefix=2)
        out, _ = train_local(model, arch, batch, cfg, 0)
        assert models_bit_equal(out, model)

    def test_learns_a_separable_toy_problem(self):
        batch = _separable_batch()
        assert _linearly_separable(batch)  # oracle first
        arch = dense_arch(2, 8, 2)
        model = init_model(arch, 5)
        cfg = TrainingConfig(local_epochs=50, learning_rate=0.2, batch_size=16)
        trained, losses = train_local(model, arch, batch, cfg, 7)
        preds = evaluate(trained, arch, batch.inputs)
        assert (preds == batch.labels).mean() >= 0.95
        assert losses[-1] < losses[0]

    def test_default_config_trains_the_balanced_objective(self):
        # one full-batch epoch at learning rate 0: the epoch loss is the
        # objective at the start model, weighted over the whole batch.  The
        # start model favours the majority class, so that the weighted and
        # the plain mean cross-entropy differ (1.56 against 0.73)
        arch = dense_arch(3, 4, 3)
        start = init_model(arch, 74)
        model = ModelWeights(start.layers[:-1] + (
            LayerWeights(start.layers[-1].incoming, np.array([2.0, 0.0, 0.0])),))
        labels = np.array([0] * 9 + [1] * 2 + [2])
        batch = Batch(np.random.default_rng(75).normal(size=(12, 3)), labels)
        cfg = replace(TrainingConfig(), local_epochs=1, learning_rate=0.0,
                      batch_size=12)
        _, losses = train_local(model, arch, batch, cfg, 0)
        expected = loss(forward(model, arch, batch.inputs), labels,
                        balanced_class_weights(labels, 3))
        assert losses == [pytest.approx(expected, abs=1e-12)]

    def test_empty_dataset_is_noop(self):
        arch = dense_arch(3, 4, 2)
        model = init_model(arch, 3)
        batch = Batch(np.zeros((0, 3)), np.zeros(0, dtype=int))
        out, losses = train_local(model, arch, batch, TrainingConfig(), 0)
        assert out is model
        assert losses == []

    def test_deterministic_for_fixed_seed(self):
        arch = conv_arch()
        model = init_model(arch, 4)
        rng = np.random.default_rng(9)
        batch = Batch(rng.normal(size=(14, 20, 2)), rng.integers(0, 4, 14))
        cfg = TrainingConfig(local_epochs=3, learning_rate=0.1, batch_size=4)
        a, la = train_local(model, arch, batch, cfg, 11)
        b, lb = train_local(model, arch, batch, cfg, 11)
        assert models_bit_equal(a, b)
        assert la == lb

    @pytest.mark.parametrize("frozen", [0, 1, 2])
    def test_frozen_prefix_layers_bit_identical(self, frozen):
        arch = conv_arch()
        model = init_model(arch, 6)
        rng = np.random.default_rng(13)
        batch = Batch(rng.normal(size=(12, 20, 2)), rng.integers(0, 4, 12))
        cfg = TrainingConfig(local_epochs=2, learning_rate=0.3, batch_size=4,
                             frozen_prefix=frozen)
        out, _ = train_local(model, arch, batch, cfg, 2)
        for i in range(frozen):
            assert np.array_equal(out.layers[i].incoming, model.layers[i].incoming)
            assert np.array_equal(out.layers[i].bias, model.layers[i].bias)

    def test_proximal_first_step_matches_plain_sgd(self):
        # one full-batch step: the proximal gradient at w == reference is zero
        arch = dense_arch(3, 5, 2)
        model = init_model(arch, 8)
        rng = np.random.default_rng(2)
        batch = Batch(rng.normal(size=(8, 3)), rng.integers(0, 2, 8))
        plain = TrainingConfig(local_epochs=1, learning_rate=0.1, batch_size=8)
        prox = TrainingConfig(local_epochs=1, learning_rate=0.1, batch_size=8,
                              proximal_coefficient=5.0, reference_weights=model)
        a, _ = train_local(model, arch, batch, plain, 3)
        b, _ = train_local(model, arch, batch, prox, 3)
        assert models_bit_equal(a, b)

    def test_proximal_without_reference_is_plain_sgd(self):
        # the term applies only once fedprox_round attaches a reference
        arch = conv_arch()
        model = init_model(arch, 8)
        rng = np.random.default_rng(2)
        batch = Batch(rng.normal(size=(10, 20, 2)), rng.integers(0, 4, 10))
        plain = TrainingConfig(local_epochs=2, learning_rate=0.1, batch_size=4,
                               proximal_coefficient=0.0)
        unset = replace(plain, proximal_coefficient=1.0)
        a, la = train_local(model, arch, batch, plain, 3)
        b, lb = train_local(model, arch, batch, unset, 3)
        assert models_bit_equal(a, b)
        assert la == lb

    @pytest.mark.parametrize("frozen", [0, 1])
    @pytest.mark.parametrize("own_reference", [False, True], ids=["other", "start"])
    def test_in_place_steps_leave_the_inputs_alone(self, frozen, own_reference):
        # Each step updates the arrays it allocated (relu mask, proximal
        # gradient, learning-rate scaling); the start model, its frozen
        # layers and the reference, which fedprox_round makes the start
        # model itself, keep every byte
        arch = conv_arch()
        model = init_model(arch, 70)
        reference = model if own_reference else init_model(arch, 71)
        rng = np.random.default_rng(72)
        batch = Batch(rng.normal(size=(40, 20, 2)), rng.integers(0, 4, 40))
        cfg = TrainingConfig(local_epochs=2, learning_rate=0.1, batch_size=8,
                             frozen_prefix=frozen, proximal_coefficient=0.5,
                             reference_weights=reference)

        def snapshot(m):
            return [(layer.incoming.tobytes(), layer.bias.tobytes())
                    for layer in m.layers]

        before, ref_before = snapshot(model), snapshot(reference)
        trained, _ = train_local(model, arch, batch, cfg, 73)
        assert snapshot(model) == before and snapshot(reference) == ref_before
        assert snapshot(trained)[:frozen] == before[:frozen]
        assert snapshot(trained)[frozen:] != before[frozen:]

    def test_step_follows_objective_gradient(self):
        # one full-batch step moves each trainable tensor by exactly
        # -lr * the gradient _objective returns, proximal part included
        arch = conv_arch()
        model = init_model(arch, 10)
        ref = init_model(arch, 11)
        rng = np.random.default_rng(12)
        batch = Batch(rng.normal(size=(6, 20, 2)), rng.integers(0, 4, 6))
        cfg = TrainingConfig(local_epochs=1, learning_rate=0.1, batch_size=6,
                             frozen_prefix=1, proximal_coefficient=0.5,
                             reference_weights=ref)
        out, _ = train_local(model, arch, batch, cfg, 13)
        order = np.random.default_rng(13).permutation(6)  # train_local's shuffle
        x = _gather(batch, model.dtype)[order]
        _, grads = _objective(model, arch, x, batch.labels[order],
                              balanced_class_weights(batch.labels, 4), cfg,
                              _lowest_trainable(arch, 1))
        assert np.array_equal(out.layers[0].incoming, model.layers[0].incoming)
        assert np.array_equal(out.layers[0].bias, model.layers[0].bias)
        assert len(grads) == len(model.layers) - 1
        for old, new, (dw, db) in zip(model.layers[1:], out.layers[1:], grads):
            assert np.array_equal(new.incoming, old.incoming - 0.1 * dw)
            assert np.array_equal(new.bias, old.bias - 0.1 * db)
            assert np.any(dw != 0)

    def test_diverging_client_raises(self):
        arch = dense_arch(2, 2, 2, activation="none")
        model = ModelWeights((
            LayerWeights(np.full((2, 2), 1e200), np.zeros(2)),
            LayerWeights(np.full((2, 2), 1e200), np.zeros(2)),
        ))
        batch = Batch(np.ones((4, 2)), np.array([0, 1, 0, 1]))
        cfg = TrainingConfig(local_epochs=1, learning_rate=0.05, batch_size=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ShapeError, match="layer parameters must be finite"):
                train_local(model, arch, batch, cfg, 0)

    def test_divergence_names_epoch_minibatch_and_layer(self):
        # the objective is checked per minibatch, so training stops at the
        # first non-finite value instead of running on to the end of the call
        arch = dense_arch(2, 2, 2, activation="none")
        model = ModelWeights((
            LayerWeights(np.full((2, 2), 1e200), np.zeros(2)),
            LayerWeights(np.full((2, 2), 1e200), np.zeros(2)),
        ))
        batch = Batch(np.ones((4, 2)), np.array([0, 1, 0, 1]))
        cfg = TrainingConfig(local_epochs=3, learning_rate=0.05, batch_size=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch 1, minibatch 1; "
                               r"first non-finite output at layer 1 \(softmax-output\)"):
                train_local(model, arch, batch, cfg, 0)

    def test_divergence_names_a_non_finite_proximal_term(self):
        # every layer's output is finite; the drift from reference weights
        # 1e200 away squares to inf
        arch = dense_arch(3, 4, 2)
        model = init_model(arch, 1)
        ref = ModelWeights(tuple(LayerWeights(layer.incoming + 1e200, layer.bias + 1e200)
                                 for layer in model.layers))
        rng = np.random.default_rng(4)
        batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 2, 6))
        cfg = TrainingConfig(local_epochs=1, batch_size=4, proximal_coefficient=1.0,
                             reference_weights=ref)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match=r"^diverged, layer parameters "
                               r"must be finite: objective inf at epoch 1, minibatch 1; "
                               r"non-finite proximal term$"):
                train_local(model, arch, batch, cfg, 0)

    def test_divergence_after_the_last_step_names_its_epoch_and_minibatch(self):
        # one minibatch: its objective is finite, and the step it takes
        # leaves the weights non-finite with no later objective to catch it
        arch = dense_arch(3, 4, 2)
        model = init_model(arch, 1)
        rng = np.random.default_rng(4)
        batch = Batch(rng.normal(size=(6, 3)) * 1e3, rng.integers(0, 2, 6))
        cfg = TrainingConfig(local_epochs=1, batch_size=8, learning_rate=1e308)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match=r"^diverged, layer parameters "
                               r"must be finite: layer 0 \(dense\) after the last "
                               r"step \(epoch 1, minibatch 1\)$"):
                train_local(model, arch, batch, cfg, 0)


DESK_ARCH = ModelArch(128, 6, (
    LayerSpec("conv1d", width=16, kernel=16, activation="relu"),
    LayerSpec("maxpool1d", kernel=4),
    LayerSpec("dense", width=64, activation="relu"),
    LayerSpec("softmax-output", width=8),
))


class TestFrozenPrefixShortcuts:
    """train_local gives frozen layers no backward pass and computes the
    leading frozen conv/pool features once per call; both must leave every
    bit of the training result as a plain per-minibatch loop gives it."""

    @pytest.mark.parametrize("frozen", [1, 2])
    def test_cached_features_match_per_minibatch_loop(self, frozen):
        arch = conv_arch()
        model = init_model(arch, 14)
        rng = np.random.default_rng(15)
        size, lr, epochs = 5, 0.2, 3
        cfg = TrainingConfig(local_epochs=epochs, learning_rate=lr,
                             batch_size=size, frozen_prefix=frozen)
        # 23 windows leave a 3-window tail minibatch; 70 make the cached
        # features cross two 32-window slice boundaries
        for n in (23, 70):
            batch = Batch(rng.normal(size=(n, 20, 2)), rng.integers(0, 4, n))
            out, losses = train_local(model, arch, batch, cfg, 16)
            weights = balanced_class_weights(batch.labels, 4)  # the whole batch's

            work = ModelWeights(tuple(
                LayerWeights(layer.incoming.copy(), layer.bias.copy())
                for layer in model.layers))
            params = [(layer.incoming, layer.bias) for layer in work.layers[frozen:]]
            shuffle = np.random.default_rng(16)  # train_local's shuffle
            expected = []
            for _ in range(epochs):
                order = shuffle.permutation(n)
                values = []
                for lo in range(0, n, size):
                    sel = order[lo:lo + size]
                    value, grads = _objective(work, arch, batch.inputs[sel],
                                              batch.labels[sel], weights, cfg,
                                              _lowest_trainable(arch, frozen),
                                              first=0)
                    values.append(value)
                    for (w, b), (dw, db) in zip(params, grads):
                        w -= lr * dw
                        b -= lr * db
                expected.append(float(np.mean(values)))
            assert models_bit_equal(out, work), n
            assert losses == expected, n

    def test_conv_pool_prefix_is_computed_per_window(self):
        # The cache is exact only while a conv/pool window's output does not
        # depend on the other windows in the call (numpy's 3-D @ runs one
        # gemm per window); a numpy or BLAS change that breaks that fails here.
        model = init_model(DESK_ARCH, 17)
        rng = np.random.default_rng(18)
        x = rng.normal(size=(52, 128, 6))
        for last in (1, 2):  # conv output, pool output
            whole, _ = _walk(model, DESK_ARCH, x, 0, last)
            for _ in range(6):
                rows = rng.choice(len(x), 16, replace=False)
                part, _ = _walk(model, DESK_ARCH, x[rows], 0, last)
                assert np.array_equal(part, whole[rows])
            tail, _ = _walk(model, DESK_ARCH, x[-4:], 0, last)
            assert np.array_equal(tail, whole[-4:])

    def test_backward_stops_at_lowest_trainable_layer(self):
        arch = conv_arch()
        model = init_model(arch, 19)
        x = np.random.default_rng(20).normal(size=(3, 20, 2))
        _, backwards = _walk(model, arch, x, lowest=2)
        assert len(backwards) == 2  # dense and softmax-output; conv, pool none
        dx, (dw, db) = backwards[0](np.ones((3, 10)), False)
        assert dx is None and dw.shape == (48, 10) and db.shape == (10,)

    def test_conv_weight_gradient_matches_einsum(self):
        # desk shapes: batch 16, 128 x 6 windows, 16 filters of kernel 16
        rng = np.random.default_rng(21)
        n, t, c, k, o = 16, 128, 6, 16, 16
        t_out = t - k + 1
        layer = LayerWeights(rng.normal(size=(k, c, o)), rng.normal(size=o))
        a = rng.normal(size=(n, t, c))
        dz = rng.normal(size=(n, t_out, o))
        _, backward = _conv1d(LayerSpec("conv1d", width=o, kernel=k), layer, a,
                              keep=True)
        dx, (dw, db) = backward(dz, False)
        cols = np.stack([a[:, i:i + t_out, :] for i in range(k)], axis=2)
        ref = np.einsum("ntf,nto->fo", cols.reshape(n, t_out, k * c), dz)
        assert dx is None
        assert np.abs(dw - ref.reshape(k, c, o)).max() <= 1e-12 * np.abs(ref).max()
        assert np.allclose(db, dz.sum(axis=(0, 1)), rtol=0, atol=1e-12)


def pool_by_blocks(a: np.ndarray, k: int, da: np.ndarray):
    """Reference max-pool, one block at a time: (output, input gradient of
    da).  The winner is the first slot holding the block's maximum, as
    argmax picks it; every other input row, the trailing t % k included,
    gets +0.0."""
    n, t, c = a.shape
    out = np.zeros((n, t // k, c))
    dx = np.zeros((n, t, c))
    for i in range(n):
        for j in range(t // k):
            for ch in range(c):
                block = [float(v) for v in a[i, j * k:(j + 1) * k, ch]]
                s = block.index(max(block))
                out[i, j, ch] = block[s]
                dx[i, j * k + s, ch] = da[i, j, ch]
    return out, dx


def _pool_input(case: str, rng) -> tuple[np.ndarray, int]:
    if case == "positive-ties":  # small integers: most blocks hold a tied max
        return rng.integers(0, 3, size=(3, 12, 4)).astype(np.float64) + 1.0, 4
    if case == "zero-blocks":  # relu of mostly negative values
        return np.maximum(rng.normal(-1.5, 1.0, size=(3, 12, 4)), 0), 3
    if case == "signed-zeros":  # -0.0 and +0.0 tie; the first one's bits win
        return rng.choice([-0.0, 0.0, 0.0, 1.0], size=(3, 12, 4)), 4
    if case == "k1":
        return rng.normal(size=(2, 7, 3)), 1
    a = np.maximum(rng.normal(size=(2, 11, 3)), 0)  # "trailing": 11 = 2*4 + 3
    a[:, 8:, :] = 100.0  # above every pooled value, and still dropped
    return a, 4


class TestMaxPool:
    """_maxpool1d against a per-block loop: value, first-index winner and
    gradient routing, bit for bit."""

    @pytest.mark.parametrize("case", ["positive-ties", "zero-blocks", "signed-zeros",
                                      "k1", "trailing"])
    def test_matches_per_block_loop(self, case):
        rng = np.random.default_rng(31)
        a, k = _pool_input(case, rng)
        n, t, c = a.shape
        da = -rng.uniform(0.5, 2.0, size=(n, t // k, c))  # negative: -0.0 would show
        spec = LayerSpec("maxpool1d", kernel=k)
        out, backward = _maxpool1d(spec, None, a, keep=True)
        plain, none = _maxpool1d(spec, None, a, keep=False)
        ref_out, ref_dx = pool_by_blocks(a, k, da)
        dx, grad = backward(da, True)
        assert none is None and grad is None
        assert out.tobytes() == ref_out.tobytes()
        assert plain.tobytes() == out.tobytes()
        assert dx.shape == a.shape and dx.tobytes() == ref_dx.tobytes()
        assert not np.signbit(dx[dx == 0]).any()
        assert np.count_nonzero(dx) == da.size


def block_max_by_loop(a: np.ndarray, k: int) -> np.ndarray:
    """Reference pooled max of a [N, T, C], one block at a time: the first
    slot holding the block's max, or the block's first NaN."""
    n, t, c = a.shape
    out = np.empty((n, t // k, c), dtype=a.dtype)
    for i in range(n):
        for j in range(t // k):
            for ch in range(c):
                best = a[i, j * k, ch]
                for v in a[i, j * k + 1:(j + 1) * k, ch]:
                    if not np.isnan(best) and (np.isnan(v) or v > best):
                        best = v
                out[i, j, ch] = best
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n, c", [(3, 4), (2, 1), (1, 1)])
def test_block_max_matches_per_block_loop(n, c, k, dtype):
    # Blocks full of -0.0/+0.0 ties, other ties and NaNs, and three planted
    # in every column: -0.0 then +0.0s, +0.0 then -0.0s, and a NaN in the
    # last slot.  The t % k trailing rows (k > 1) hold a value above every
    # block and are dropped.  Every layout a caller pools: the strided
    # slots, their contiguous copy (_maxpool1d, _conv_pool) and
    # position-major planes (_infer).
    rng = np.random.default_rng(41 + k)
    t = 7 * k + (k - 1)
    values = np.array([-0.0, 0.0, 1.0, -1.0, np.nan], dtype=dtype)
    a = rng.choice(values, p=[0.3, 0.3, 0.15, 0.15, 0.1], size=(n, t, c))
    a[:, :2 * k] = -0.0
    a[:, 1:k] = 0.0
    a[:, k] = 0.0
    a[:, 3 * k - 1] = np.nan
    a[:, t - t % k:] = 100.0
    want = block_max_by_loop(a, k)
    assert np.signbit(want[:, 0]).all() and not np.signbit(want[:, 1]).any()
    assert np.isnan(want[:, 2]).all()
    slots = _slots(a, k)
    planes = np.ascontiguousarray(a[:, :t - t % k].transpose(1, 0, 2))
    for got in (_block_max(slots), _block_max(np.ascontiguousarray(slots)),
                _block_max(planes.reshape(t // k, k, n, c).transpose(1, 0, 2, 3))
                .transpose(1, 0, 2)):
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestConvKeep:
    def test_training_and_inference_outputs_bit_equal(self):
        # desk shapes: batch 16, 128 x 6 windows, 16 filters of kernel 16
        rng = np.random.default_rng(33)
        spec = LayerSpec("conv1d", width=16, kernel=16, activation="relu")
        layer = LayerWeights(rng.normal(size=(16, 6, 16)), rng.normal(size=16))
        for n in (16, 5):
            a = rng.normal(size=(n, 128, 6))
            kept, _ = _conv1d(spec, layer, a, keep=True)
            plain, _ = _conv1d(spec, layer, a, keep=False)
            assert kept.tobytes() == plain.tobytes()

    def test_non_finite_conv_weight_names_conv_layer(self):
        # The first step routes a huge gradient through the pool and leaves
        # the conv weights non-finite.  The pool passes the conv's NaN on
        # (np.maximum propagates it), so the site named is the conv, at the
        # minibatch after that step.
        arch = conv_arch()
        model = init_model(arch, 34)
        model.layers[2].incoming[...] *= 1e300
        rng = np.random.default_rng(35)
        batch = Batch(rng.normal(size=(12, 20, 2)), rng.integers(0, 4, 12))
        cfg = TrainingConfig(local_epochs=3, learning_rate=1e10, batch_size=4)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch 1, minibatch 2; "
                               r"first non-finite output at layer 0 \(conv1d\)"):
                train_local(model, arch, batch, cfg, 36)


class TestConvPoolBlock:
    """Training runs a kept conv1d directly followed by a maxpool1d as one
    block at pooled resolution (_conv_pool); it must give every bit of the
    two layers run in order: the output, dW, db and the input gradient."""

    @given(seed=st.integers(0, 2 ** 32 - 1), width=st.sampled_from([16, 18, 66]),
           kernel=st.integers(1, 4), pool=st.integers(1, 4), blocks=st.integers(1, 4),
           trailing=st.integers(0, 3), channels=st.integers(1, 3),
           windows=st.integers(1, 4), activation=st.sampled_from(["relu", "none"]),
           dtype=st.sampled_from([np.float64, np.float32]), need_dx=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_conv_then_pool(self, seed, width, kernel, pool, blocks, trailing,
                                    channels, windows, activation, dtype, need_dx):
        rng = np.random.default_rng(seed)
        # t_out % pool is nonzero whenever trailing % pool is
        t = pool * blocks + trailing % pool + kernel - 1
        a = rng.normal(size=(windows, t, channels))
        # zero windows give gemm outputs of exactly zero, and -0.0 inputs
        # signed zeros among them
        a[rng.random(windows) < 0.3] = 0.0
        a[rng.random(a.shape) < 0.1] = -0.0
        # Per filter: an ordinary bias; one that kills every block (all
        # blocks <= 0, relu's tie of zeros); one so large that slots whose
        # z differ tie in z + b; and signed zeros.
        huge = 2.0 ** (np.finfo(dtype).nmant + 3)
        bias = rng.choice([0.3, -40.0, huge, -huge, -0.0, 0.0], size=width)
        bias = np.where(bias == 0.3, rng.normal(size=width), bias)
        layer = LayerWeights(rng.normal(size=(kernel, channels, width)).astype(dtype),
                             bias.astype(dtype))
        a = a.astype(dtype)
        # mostly negative upstream gradients, so a dead winner's masked
        # gradient is -0.0, and some exact -0.0
        da = rng.uniform(-2.0, 0.5, size=(windows, (t - kernel + 1) // pool, width))
        da[rng.random(da.shape) < 0.1] = -0.0
        da = da.astype(dtype)
        spec = LayerSpec("conv1d", width=width, kernel=kernel, activation=activation)

        conv_out, conv_back = _conv1d(spec, layer, a, keep=True)
        ref_out, pool_back = _maxpool1d(LayerSpec("maxpool1d", kernel=pool), None,
                                        conv_out, keep=True)
        ref_dx, (ref_dw, ref_db) = conv_back(pool_back(da.copy(), True)[0], need_dx)
        out, back = _conv_pool(spec, layer, pool, a)
        dx, (dw, db) = back(da.copy(), need_dx)

        assert out.dtype == ref_out.dtype and out.shape == ref_out.shape
        assert out.tobytes() == ref_out.tobytes()
        assert dw.dtype == ref_dw.dtype and dw.tobytes() == ref_dw.tobytes()
        assert db.dtype == ref_db.dtype and db.tobytes() == ref_db.tobytes()
        if need_dx:
            assert dx.shape == a.shape and dx.tobytes() == ref_dx.tobytes()
        else:
            assert dx is None and ref_dx is None

    def test_walk_keeps_one_closure_for_the_block(self):
        # conv1d -> maxpool1d -> dense -> softmax-output, every layer kept
        arch = conv_arch()
        model = init_model(arch, 37)
        x = np.random.default_rng(38).normal(size=(3, 20, 2))
        out, backwards = _walk(model, arch, x, lowest=0)
        assert len(backwards) == 3
        assert out.tobytes() == _walk(model, arch, x)[0].tobytes()


CONV_ON_CONV = ModelArch(32, 3, (
    LayerSpec("conv1d", width=4, kernel=5, activation="relu"),
    LayerSpec("conv1d", width=5, kernel=3, activation="relu"),
    LayerSpec("maxpool1d", kernel=2),
    LayerSpec("dense", width=6, activation="relu"),
    LayerSpec("softmax-output", width=3),
))


class TestGradientCheck:
    def test_small_dense_model(self):
        arch = dense_arch(3, 4, 2, activation="none")
        model = init_model(arch, 1)
        rng = np.random.default_rng(4)
        batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 2, 6))
        assert gradient_check(model, arch, batch, TrainingConfig()) < 1e-4

    def test_all_layer_kinds(self):
        arch = conv_arch()
        model = init_model(arch, 2)
        rng = np.random.default_rng(5)
        batch = Batch(rng.normal(size=(3, 20, 2)), rng.integers(0, 4, 3))
        assert gradient_check(model, arch, batch, TrainingConfig()) < 1e-4

    @pytest.mark.parametrize("arch, frozen", [
        pytest.param(conv_arch(), 1, id="1"),
        pytest.param(conv_arch(), 2, id="2"),
        pytest.param(CONV_ON_CONV, 0, id="conv-on-conv-0"),
        pytest.param(CONV_ON_CONV, 1, id="conv-on-conv-1"),
    ])
    def test_frozen_prefix(self, arch, frozen):
        # the backward walk ends at the lowest trainable layer; at prefix 0
        # the upper conv of CONV_ON_CONV passes an input gradient down
        model = init_model(arch, 2)
        rng = np.random.default_rng(5)
        batch = Batch(rng.normal(size=(3, arch.input_length, arch.input_channels)),
                      rng.integers(0, arch.classes, 3))
        cfg = TrainingConfig(frozen_prefix=frozen)
        assert gradient_check(model, arch, batch, cfg) < 1e-4

    def test_with_proximal_term(self):
        arch = dense_arch(3, 4, 2)
        model = init_model(arch, 3)
        ref = init_model(arch, 4)
        rng = np.random.default_rng(6)
        batch = Batch(rng.normal(size=(5, 3)), rng.integers(0, 2, 5))
        cfg = TrainingConfig(proximal_coefficient=0.5, reference_weights=ref)
        assert gradient_check(model, arch, batch, cfg) < 1e-4

    def test_zero_input_conv_gradient_is_zero(self):
        arch = conv_arch()
        model = init_model(arch, 7)
        batch = Batch(np.zeros((2, 20, 2)), np.array([0, 1]))
        eps, cfg = 1e-5, TrainingConfig()
        weights = balanced_class_weights(batch.labels, 4)
        base, grads = _objective(model, arch, batch.inputs, batch.labels, weights,
                                 cfg, _lowest_trainable(arch, 0))
        assert np.all(grads[0][0] == 0)  # conv weights see only zeros
        # central differences agree: perturbing a conv weight changes nothing
        for idx in [(0, 0, 0), (2, 1, 3), (4, 1, 5)]:
            inc = model.layers[0].incoming.copy()
            inc[idx] += eps
            bumped = ModelWeights((LayerWeights(inc, model.layers[0].bias),)
                                  + model.layers[1:])
            value, _ = _objective(bumped, arch, batch.inputs, batch.labels, weights,
                                  cfg, None)
            assert value == base

    def test_epsilon_range_enforced(self):
        arch = dense_arch(2, 2, 2)
        model = init_model(arch, 0)
        batch = Batch(np.zeros((1, 2)), np.array([0]))
        with pytest.raises(ValueError):
            gradient_check(model, arch, batch, TrainingConfig(), epsilon=1e-2)

    def test_nonfinite_gradient_raises_with_parameter_name(self):
        arch = dense_arch(2, 2, 2, activation="none")
        huge = 1e200
        model = ModelWeights((
            LayerWeights(np.full((2, 2), huge), np.zeros(2)),
            LayerWeights(np.full((2, 2), huge), np.zeros(2)),
        ))
        batch = Batch(np.ones((2, 2)), np.array([0, 1]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="layer"):
                gradient_check(model, arch, batch, TrainingConfig())

    # A check that checks nothing raises; it never reports a pass of 0.0.
    @staticmethod
    def small_case(examples=5):
        arch = dense_arch(3, 4, 3)
        rng = np.random.default_rng(8)
        batch = Batch(rng.normal(size=(examples, 3)), rng.integers(0, 3, examples))
        return init_model(arch, 8), arch, batch

    def test_frozen_prefix_past_the_model_is_train_locals_error(self):
        model, arch, batch = self.small_case()
        cfg = TrainingConfig(frozen_prefix=5)
        for check in (gradient_check, lambda *a: train_local(*a, seed=0)):
            with pytest.raises(ValueError, match="frozen_prefix 5 exceeds 2 layers"):
                check(model, arch, batch, cfg)

    def test_every_layer_frozen_raises(self):
        model, arch, batch = self.small_case()
        with pytest.raises(ValueError, match="0 trainable layers"):
            gradient_check(model, arch, batch, TrainingConfig(frozen_prefix=2))

    def test_no_parameter_per_tensor_raises(self):
        model, arch, batch = self.small_case()
        with pytest.raises(ValueError, match="max_params_per_tensor must be >= 1"):
            gradient_check(model, arch, batch, TrainingConfig(), max_params_per_tensor=0)

    def test_empty_batch_raises(self):
        model, arch, batch = self.small_case(examples=0)
        with pytest.raises(ValueError, match="0 examples"):
            gradient_check(model, arch, batch, TrainingConfig())

    def test_reference_of_another_shape_is_train_locals_error(self):
        model, arch, batch = self.small_case()
        cfg = TrainingConfig(proximal_coefficient=0.5,
                             reference_weights=init_model(dense_arch(3, 5, 3), 9))
        for check in (gradient_check, lambda *a: train_local(*a, seed=0)):
            with pytest.raises(ShapeError, match="reference_weights shape"):
                check(model, arch, batch, cfg)

    def test_nonfinite_central_difference_raises_with_parameter_name(self, monkeypatch):
        # max(worst, nan) keeps worst, so a nan difference must raise itself
        model, arch, batch = self.small_case()
        objective = nn._objective

        def value_nan(model, arch, x, labels, class_weights, cfg, lowest, first=0):
            value, grads = objective(model, arch, x, labels, class_weights, cfg,
                                     lowest, first)
            return (math.nan if lowest is None else value), grads

        monkeypatch.setattr(nn, "_objective", value_nan)
        with pytest.raises(FloatingPointError,
                           match="non-finite central difference in layer 0 weights"):
            gradient_check(model, arch, batch, TrainingConfig())


def assert_scores_one_path(model, arch, x):
    """evaluate is forward's argmax, and forward's probabilities stay
    within 1e-12 of the per-window path training runs.  The worst gap
    measured 1.1e-15, at desk shapes with conv widths 16 to 20."""
    probs = forward(model, arch, x)
    assert np.array_equal(evaluate(model, arch, x), np.argmax(probs, axis=1))
    logits, _ = _walk(model, arch, _gather(x, model.dtype))
    assert np.abs(probs - _softmax(logits)).max() <= 1e-12


class TestEvaluate:
    def test_argmax(self):
        model, arch = identity_model(2)
        # logits equal the inputs; (q, 1-q) probabilities follow monotonically
        preds = evaluate(model, arch, np.array([[0.2, 0.8], [0.9, 0.1]]))
        assert preds.tolist() == [1, 0]

    def test_exact_tie_breaks_to_lowest_class(self):
        model, arch = identity_model(3)
        preds = evaluate(model, arch, np.zeros((2, 3)))
        assert preds.tolist() == [0, 0]

    def test_matches_bruteforce_argmax(self, rng):
        # 40 windows: one full 32-window slice and a partial one
        arch = conv_arch()
        model = init_model(arch, 9)
        x = rng.normal(size=(40, 20, 2))
        assert_scores_one_path(model, arch, x)

    @pytest.mark.parametrize("width", [16, 17, 18, 19, 20])
    def test_conv_widths_match_forward_per_slice(self, width):
        # conv widths 16 to 20, as FedDist growth makes them, reach the
        # gemm's edge tiles; 70 windows are two full 32-window slices and a
        # partial one, 33 a full one and a single window, and 1 window is
        # one slice of one
        arch = replace(DESK_ARCH, layers=(
            replace(DESK_ARCH.layers[0], width=width),) + DESK_ARCH.layers[1:])
        model = init_model(arch, 30 + width)
        for windows in (1, 7, 33, 70):
            x = np.random.default_rng(26).normal(size=(windows, 128, 6))
            assert evaluate(model, arch, x).dtype == np.intp
            assert_scores_one_path(model, arch, x)
        assert evaluate(model, arch, x[:0]).shape == (0,)

    @pytest.mark.parametrize("arch", [
        dense_arch(20, 10, 4),
        ModelArch(20, 2, (LayerSpec("maxpool1d", kernel=2),
                          LayerSpec("dense", width=10, activation="relu"),
                          LayerSpec("softmax-output", width=4))),
    ], ids=["dense", "maxpool"])
    def test_non_conv_first_layer_matches_forward_per_slice(self, arch):
        # A stack without a leading conv is walked slice by slice: 70
        # windows are two full slices and a partial one
        model = init_model(arch, 28)
        x = np.random.default_rng(29).normal(
            size=(70, 20) if arch.input_channels == 1 else (70, 20, 2))
        assert_scores_one_path(model, arch, x)

    def test_flat_and_strided_inputs_read_right(self, rng):
        # A flat input becomes x[:, :, None], whose channel stride is 0;
        # views that step over windows, run backwards or step inside a
        # window are not contiguous.  The conv must read each of them as
        # its contiguous copy.
        arch = ModelArch(20, 1, (
            LayerSpec("conv1d", width=4, kernel=3, activation="relu"),
            LayerSpec("maxpool1d", kernel=2),
            LayerSpec("softmax-output", width=3),
        ))
        model = init_model(arch, 27)
        flat = rng.normal(size=(140, 20))
        windows = flat[:, :, None]
        wide = rng.normal(size=(70, 40, 1))
        for given in (flat, flat[::2], windows[::2], windows[::-1], wide[:, ::2]):
            same = np.ascontiguousarray(given).reshape(-1, 20, 1)
            assert np.array_equal(forward(model, arch, given), forward(model, arch, same))
            assert np.array_equal(evaluate(model, arch, given), evaluate(model, arch, same))

    def test_sliced_conv_pool_prefix_matches_one_walk(self):
        # 70 windows: two full 32-window slices and a partial one.  The
        # sliced prefix is train_local's frozen features, bit for bit.
        model = init_model(DESK_ARCH, 22)
        x = np.random.default_rng(23).normal(size=(70, 128, 6))
        features, first = _window_prefix(model, DESK_ARCH, x, 2)
        assert first == 2
        assert np.array_equal(features, _walk(model, DESK_ARCH, x, 0, 2)[0])

    def test_scoring_a_pooled_test_set_stays_small(self):
        # The conv's output takes 26 MB for all 1,800 windows at once; in
        # 32-window slices into one reused conv output buffer (0.5 MB)
        # scoring peaks near 0.8 MB
        model = init_model(DESK_ARCH, 24)
        x = np.random.default_rng(25).normal(size=(1800, 128, 6))
        tracemalloc.start()
        try:
            evaluate(model, DESK_ARCH, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("frozen", [0, 1])
    def test_row_indexed_batch_trains_and_scores_like_its_gathered_copy(self, dtype,
                                                                       frozen):
        # a split side reads its client's window view through its rows; every
        # gemm sees the rows of the copy the split used to gather, in order
        rng = np.random.default_rng(26)
        series = Batch(rng.normal(size=(3000, 6)), np.arange(3000) // 375)
        for side in stratified_split(window(series), 0.8, 0):
            copy = Batch(side.take(), side.labels)
            model = init_model(DESK_ARCH, 27, dtype)
            cfg = TrainingConfig(local_epochs=2, batch_size=16, frozen_prefix=frozen)
            a, la = train_local(model, DESK_ARCH, side, cfg, 28)
            b, lb = train_local(model, DESK_ARCH, copy, cfg, 28)
            assert models_bit_equal(a, b) and la == lb
            assert forward(a, DESK_ARCH, side).tobytes() == forward(a, DESK_ARCH,
                                                                    copy.inputs).tobytes()

    def test_float32_model_converts_only_the_rows_it_gathers(self):
        # 3,124 float64 windows of a 200,000-sample series; converting the
        # whole view to float32 would copy every window (9.6 MB) on each
        # call.  Gathered 16-window minibatches peak near 1.6 MB, gathered
        # 32-window scoring slices near 0.7 MB
        rng = np.random.default_rng(29)
        series = Batch(rng.normal(size=(200_000, 6)), np.arange(200_000) // 1000 % 8)
        windows = window(series)
        train, test = stratified_split(windows, 0.8, 0)
        model = init_model(DESK_ARCH, 30, np.float32)
        cfg = TrainingConfig(local_epochs=1, batch_size=16)
        assert len(windows) * 128 * 6 * 4 > 9e6
        for call in (lambda: train_local(model, DESK_ARCH, train, cfg, 31),
                     lambda: evaluate(model, DESK_ARCH, train),
                     lambda: evaluate(model, DESK_ARCH, test)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3e6


def forward_in_layer_order(model, arch, inputs):
    """forward with the leading conv run in layer order: its per-position
    gemm over every output position into a window-major buffer, then the
    bias and the activation on every position, and then the pool and the
    rest of the stack through _walk."""
    layer = model.layers[0]
    k, c_in, c_out = layer.incoming.shape
    probs = []
    for lo in range(0, len(inputs), 32):
        xs = _gather(inputs, model.dtype, slice(lo, lo + 32))
        z = np.empty((len(xs), xs.shape[1] - k + 1, c_out), dtype=model.dtype)
        np.matmul(_im2col(xs, k).transpose(1, 0, 2),
                  layer.incoming.reshape(k * c_in, c_out), out=z.transpose(1, 0, 2))
        z += layer.bias
        z, _ = _activate(arch.layers[0], z, None)
        logits, _ = _walk(model, arch, z, 1)
        probs.append(_softmax(logits))
    return np.concatenate(probs)


def with_biases(model, rng, shift=-0.5):
    """model with normal biases shifted by `shift`, mostly negative, so
    that relu zeroes a good share of the conv's positions."""
    return ModelWeights(tuple(
        LayerWeights(layer.incoming,
                     (rng.normal(size=layer.bias.shape) + shift).astype(layer.bias.dtype))
        for layer in model.layers))


class TestScoringOrder:
    """forward pools a leading conv's raw gemm output and adds the bias and
    the activation to the pooled positions only; that must give the bits
    of running the layers in order."""

    @staticmethod
    def assert_same_bits(model, arch, inputs):
        assert (forward(model, arch, inputs).tobytes()
                == forward_in_layer_order(model, arch, inputs).tobytes())

    @pytest.mark.parametrize("width", [16, 17, 18, 19, 20])
    def test_desk_conv_widths(self, width):
        # 70 windows: two full 32-window slices and a partial one
        arch = replace(DESK_ARCH, layers=(
            replace(DESK_ARCH.layers[0], width=width),) + DESK_ARCH.layers[1:])
        rng = np.random.default_rng(40 + width)
        model = with_biases(init_model(arch, 40 + width), rng)
        self.assert_same_bits(model, arch, rng.normal(size=(70, 128, 6)))

    @pytest.mark.parametrize("activation", ["relu", "none"])
    @pytest.mark.parametrize("pool", [0, 1, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_trailing_positions_activations_and_no_pool(self, activation, pool, dtype):
        # input 20 and kernel 5 give 16 conv positions: a pool of 3 never
        # reads the last one, a pool of 4 reads them all, and without a
        # pool (0) the dense layer reads every position
        layers = [LayerSpec("conv1d", width=6, kernel=5, activation=activation)]
        layers += [LayerSpec("maxpool1d", kernel=pool)] if pool else []
        arch = ModelArch(20, 2, tuple(layers) + (
            LayerSpec("dense", width=10, activation="relu"),
            LayerSpec("softmax-output", width=4)))
        rng = np.random.default_rng(50 + pool)
        for shift in (-0.5, -3.0, 0.0):
            model = with_biases(init_model(arch, 51, dtype), rng, shift)
            self.assert_same_bits(model, arch, rng.normal(size=(45, 20, 2)))

    def test_exact_ties(self):
        # Repeated windows tie across windows; constant windows tie every
        # position of a pool block; zero windows give gemm outputs of
        # exactly zero, and biases of exactly -0.0 or +0.0 leave the sign
        # of those zeros to the order of bias, relu and pool.
        rng = np.random.default_rng(60)
        x = rng.normal(size=(40, 20, 2))
        x[20:] = x[:20]
        x[5] = 1.5
        x[6] = 0.0
        x[7] = -0.0
        arch = conv_arch(pool=3)
        model = with_biases(init_model(arch, 61), rng)
        self.assert_same_bits(model, arch, x)
        for zero in (-0.0, 0.0):
            conv = model.layers[0]
            signed = ModelWeights(
                (LayerWeights(conv.incoming, np.full_like(conv.bias, zero)),)
                + model.layers[1:])
            self.assert_same_bits(signed, arch, x)
            self.assert_same_bits(signed, replace(arch, layers=(
                replace(arch.layers[0], activation="none"),) + arch.layers[1:]), x)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_indexed_batch(self, dtype):
        rng = np.random.default_rng(62)
        series = Batch(rng.normal(size=(3000, 6)), np.arange(3000) // 375)
        model = with_biases(init_model(DESK_ARCH, 63, dtype), rng)
        for side in stratified_split(window(series), 0.8, 0):
            self.assert_same_bits(model, DESK_ARCH, side)


def test_balanced_class_weights():
    labels = np.array([0, 0, 0, 1])
    w = balanced_class_weights(labels, 3)
    # 4 examples, 2 present classes: 4/(2*3) and 4/(2*1); absent class -> 1
    assert w == pytest.approx([4 / 6, 4 / 2, 1.0])
    assert np.all(w > 0)
