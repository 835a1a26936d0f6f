"""Neural-core tests: forward, loss, local training, gradient fidelity."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

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
    train_local,
)
from fedsim.fabric import LayerWeights, ShapeError
from fedsim.nn import (
    Batch,
    DivergenceError,
    _as_batch_array,
    _conv1d,
    _objective,
    _walk,
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
        x = _as_batch_array(batch.inputs, arch, model.dtype)[order]
        _, grads = _objective(model, arch, x, batch.labels[order], cfg, keep=True)
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
        n, size, lr, epochs = 23, 5, 0.2, 3  # a 3-window tail minibatch
        batch = Batch(rng.normal(size=(n, 20, 2)), rng.integers(0, 4, n))
        cfg = TrainingConfig(local_epochs=epochs, learning_rate=lr,
                             batch_size=size, frozen_prefix=frozen)
        out, losses = train_local(model, arch, batch, cfg, 16)

        work = ModelWeights(tuple(LayerWeights(layer.incoming.copy(), layer.bias.copy())
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
                                          batch.labels[sel], cfg, keep=True, first=0)
                values.append(value)
                for (w, b), (dw, db) in zip(params, grads):
                    w -= lr * dw
                    b -= lr * db
            expected.append(float(np.mean(values)))
        assert models_bit_equal(out, work)
        assert losses == expected

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
                              "conv", keep=True)
        dx, (dw, db) = backward(dz, False)
        cols = np.stack([a[:, i:i + t_out, :] for i in range(k)], axis=2)
        ref = np.einsum("ntf,nto->fo", cols.reshape(n, t_out, k * c), dz)
        assert dx is None
        assert np.abs(dw - ref.reshape(k, c, o)).max() <= 1e-12 * np.abs(ref).max()
        assert np.allclose(db, dz.sum(axis=(0, 1)), rtol=0, atol=1e-12)


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
        cfg = TrainingConfig(class_weights=balanced_class_weights(batch.labels, 4))
        assert gradient_check(model, arch, batch, cfg) < 1e-4

    @pytest.mark.parametrize("frozen", [1, 2])
    def test_frozen_prefix(self, frozen):
        # the backward walk ends at the lowest trainable layer
        arch = conv_arch()
        model = init_model(arch, 2)
        rng = np.random.default_rng(5)
        batch = Batch(rng.normal(size=(3, 20, 2)), rng.integers(0, 4, 3))
        cfg = TrainingConfig(class_weights=balanced_class_weights(batch.labels, 4),
                             frozen_prefix=frozen)
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
        base, grads = _objective(model, arch, batch.inputs, batch.labels, cfg,
                                 keep=True)
        assert np.all(grads[0][0] == 0)  # conv weights see only zeros
        # central differences agree: perturbing a conv weight changes nothing
        for idx in [(0, 0, 0), (2, 1, 3), (4, 1, 5)]:
            inc = model.layers[0].incoming.copy()
            inc[idx] += eps
            bumped = ModelWeights((LayerWeights(inc, model.layers[0].bias),)
                                  + model.layers[1:])
            value, _ = _objective(bumped, arch, batch.inputs, batch.labels, cfg,
                                  keep=False)
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
        arch = conv_arch()
        model = init_model(arch, 9)
        x = rng.normal(size=(17, 20, 2))
        probs = forward(model, arch, x)
        expected = [int(np.argmax(row)) for row in probs]
        assert evaluate(model, arch, x, chunk=5).tolist() == expected


def test_balanced_class_weights():
    labels = np.array([0, 0, 0, 1])
    w = balanced_class_weights(labels, 3)
    # 4 examples, 2 present classes: 4/(2*3) and 4/(2*1); absent class -> 1
    assert w == pytest.approx([4 / 6, 4 / 2, 1.0])
    assert np.all(w > 0)
