"""Metrics tests: confusion counts, F1 conventions, and the three
evaluation views."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from fedsim import (
    ExperimentConfig,
    LayerSpec,
    ModelArch,
    ModelWeights,
    SyntheticSpec,
    TrainingConfig,
    confusion,
    evaluate,
    evaluate_generalization,
    evaluate_global,
    evaluate_personalization,
    forward,
    generate_synthetic,
    init_model,
    run_experiment,
    score_bundle,
)
from fedsim.data import concat_window_sets
from fedsim.fabric import LayerWeights
from fedsim import nn
from fedsim.aggregation import FedDistConfig, feddist_round
from fedsim.metrics import score_model, score_models, spread
from fedsim.nn import Batch

from conftest import conv_arch, dense_arch, make_clients


def cm(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        truth = np.array([0, 1, 2, 1, 0])
        out = confusion(truth, truth, 3)
        assert np.array_equal(out, np.diag([2, 2, 1]))

    def test_constant_predictor_fills_one_column(self):
        truth = np.array([0, 1, 2, 2])
        out = confusion(truth, np.zeros(4, dtype=int), 3)
        assert np.array_equal(out[:, 0], [1, 1, 2])
        assert out[:, 1:].sum() == 0

    def test_matches_counting_loop_oracle(self, rng):
        truth = rng.integers(0, 5, size=100)
        preds = rng.integers(0, 5, size=100)
        out = confusion(truth, preds, 5)
        expected = np.zeros((5, 5), dtype=int)
        for t, p in zip(truth, preds):
            expected[t, p] += 1
        assert np.array_equal(out, expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="truth"):
            confusion([0, 1], [0], 2)

    def test_out_of_range_labels_rejected(self):
        # a negative label would index the counts from the end
        for truth, preds in ([0, 3], [0, 1]), ([0, -1], [0, 1]), ([0, 1], [0, -2]):
            with pytest.raises(ValueError, match="class count"):
                confusion(truth, preds, 3)


class TestMacroF1:
    def test_perfect_diagonal_is_one(self):
        assert score_bundle(cm([[5, 0], [0, 7]])).macro_f1 == 1.0

    def test_symmetric_half_case(self):
        # per-class precision = recall = 0.5 -> per-class F1 = 0.5
        assert score_bundle(cm([[1, 1], [1, 1]])).macro_f1 == pytest.approx(0.5)

    def test_absent_class_excluded_from_mean(self):
        # class 2 never predicted and absent from truth
        matrix = cm([[4, 0, 0], [0, 6, 0], [0, 0, 0]])
        assert score_bundle(matrix).macro_f1 == 1.0

    def test_zero_division_inside_class_gives_zero_f1(self):
        # class 1 has support but is never predicted
        matrix = cm([[3, 0], [2, 0]])
        per_class_0 = 2 * (3 / 5) * 1.0 / ((3 / 5) + 1.0)
        assert score_bundle(matrix).macro_f1 == pytest.approx(
            (per_class_0 + 0.0) / 2)

    def test_permutation_invariance(self, rng):
        truth = rng.integers(0, 4, size=200)
        preds = rng.integers(0, 4, size=200)
        base = score_bundle(confusion(truth, preds, 4)).macro_f1
        for _ in range(5):
            perm = rng.permutation(4)
            permuted = confusion(perm[truth], perm[preds], 4)
            assert score_bundle(permuted).macro_f1 == pytest.approx(base)

    def test_weighted_f1_and_accuracy(self):
        matrix = cm([[8, 2], [1, 9]])
        assert score_bundle(matrix).accuracy == pytest.approx(17 / 20)
        assert score_bundle(matrix).weighted_f1 <= 1.0
        assert score_bundle(cm([[0, 0], [0, 5]])).macro_f1 == 1.0


def perfect_two_class_setup():
    """A hand-built model that classifies sign(x) perfectly."""
    arch = ModelArch(1, 1, (
        LayerSpec("dense", width=2, activation="none"),
        LayerSpec("softmax-output", width=2),
    ))
    model = ModelWeights((
        LayerWeights(np.array([[-5.0, 5.0]]), np.zeros(2)),
        LayerWeights(np.eye(2) * 4.0, np.zeros(2)),
    ))
    x = np.array([[-1.0], [-0.5], [0.5], [1.0]])[:, :, None]
    labels = np.array([0, 0, 1, 1])
    return model, arch, Batch(x, labels)


class TestEvaluateGlobal:
    def test_perfect_toy_model_scores_one(self):
        model, arch, ws = perfect_two_class_setup()
        bundle = evaluate_global(model, arch, [ws])
        assert bundle.accuracy == bundle.macro_f1 == 1.0

    def test_majority_predictor_accuracy_vs_macro_f1(self):
        # hand-built 90/10 set scored by an always-majority model
        arch = ModelArch(1, 1, (
            LayerSpec("dense", width=2, activation="none"),
            LayerSpec("softmax-output", width=2),
        ))
        model = ModelWeights((
            LayerWeights(np.zeros((1, 2)), np.array([5.0, 0.0])),
            LayerWeights(np.eye(2), np.zeros(2)),
        ))
        x = np.zeros((10, 1, 1))
        labels = np.array([0] * 9 + [1])
        bundle = evaluate_global(model, arch, [Batch(x, labels)])
        assert bundle.accuracy == pytest.approx(0.9)
        # majority share 0.9 but class 1 contributes F1 = 0
        assert bundle.macro_f1 == pytest.approx((2 * 0.9 / 1.9) / 2)
        assert bundle.macro_f1 < bundle.accuracy - 0.3

    def test_equals_prediction_metric_composition(self, rng):
        arch = dense_arch(4, 6, 3)
        model = init_model(arch, 1)
        ws = Batch(rng.normal(size=(40, 4, 1)), rng.integers(0, 3, 40))
        bundle = evaluate_global(model, arch, [ws])
        preds = evaluate(model, arch, ws.inputs)
        counts = confusion(ws.labels, preds, 3)
        assert bundle.macro_f1 == score_bundle(counts).macro_f1

    def test_empty_test_set_rejected(self):
        model, arch, _ = perfect_two_class_setup()
        empty = Batch(np.zeros((0, 1, 1)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            evaluate_global(model, arch, [empty])


class TestPersonalizationAndGeneralization:
    def test_single_client_std_zero(self):
        model, arch, ws = perfect_two_class_setup()
        scores = evaluate_personalization([(model, ws)], arch)
        assert spread(scores) == (scores[0], 0.0)

    def test_two_client_arithmetic(self):
        # population stats of scores 0.9 and 0.7
        scores = np.array([0.9, 0.7])
        assert scores.mean() == pytest.approx(0.8)
        assert scores.std() == pytest.approx(0.1)

    def test_matches_loop_oracle(self, rng):
        arch = dense_arch(4, 6, 3)
        entries = []
        for k in range(5):
            model = init_model(arch, 50 + k)
            ws = Batch(rng.normal(size=(30, 4, 1)), rng.integers(0, 3, 30))
            entries.append((model, ws))
        scores = evaluate_personalization(entries, arch)
        expected = [score_model(m, arch, [w]).macro_f1 for m, w in entries]
        assert scores == expected
        mean, std = spread(scores)
        assert mean == pytest.approx(float(np.mean(expected)))
        assert std == pytest.approx(float(np.std(expected)))

    def test_generalization_scores_each_snapshot_on_the_global_set(self, rng):
        arch = dense_arch(4, 6, 3)
        ws = Batch(rng.normal(size=(30, 4, 1)), rng.integers(0, 3, 30))
        models = [init_model(arch, 1), init_model(arch, 2)]
        assert evaluate_generalization(models, arch, [ws]) == [
            score_model(m, arch, [ws]).macro_f1 for m in models]


DESK_CONV = ModelArch(128, 6, (
    LayerSpec("conv1d", width=16, kernel=16, activation="relu"),
    LayerSpec("maxpool1d", kernel=4),
    LayerSpec("dense", width=64, activation="relu"),
    LayerSpec("softmax-output", width=8),
))
DENSE_ONLY = ModelArch(128, 6, (
    LayerSpec("dense", width=12, activation="relu"),
    LayerSpec("softmax-output", width=8),
))


class TestScoresAddAcrossTestSets:
    """A confusion matrix over a concatenation is the sum of its parts', so
    scoring a list of test sets must equal scoring their pooled copy."""

    @pytest.mark.parametrize("arch", [DESK_CONV, DENSE_ONLY], ids=["desk-conv", "dense-only"])
    def test_views_equal_scoring_the_pooled_copy(self, arch, rng):
        # 0, 1, 31, 33 and 70 windows: an empty set and both sides of
        # forward's 32-window slices
        sets = [Batch(rng.normal(size=(n, 128, 6)), rng.integers(0, 8, n))
                for n in (0, 1, 31, 33, 70)]
        pooled = [concat_window_sets(sets)]
        models = [init_model(arch, seed) for seed in (1, 2, 3)]
        assert len(np.unique(evaluate(models[0], arch, pooled[0].inputs))) > 1
        for model in models:
            assert evaluate_global(model, arch, sets) == score_model(model, arch, pooled)
        assert evaluate_generalization(models, arch, sets) == [
            score_model(m, arch, pooled).macro_f1 for m in models]

    def test_sets_without_windows_rejected(self):
        model = init_model(DENSE_ONLY, 1)
        empty = Batch(np.zeros((0, 128, 6)), np.zeros(0, dtype=np.intp))
        for tests in ([], [empty], [empty, empty]):
            with pytest.raises(ValueError, match="empty test set"):
                evaluate_global(model, DENSE_ONLY, tests)
            with pytest.raises(ValueError, match="empty test set"):
                evaluate_generalization([model], DENSE_ONLY, tests)

    def test_scoring_many_clients_builds_no_pooled_set(self):
        # fedprox-wide-eval's clients: 32 of 18,000 samples, 11 MB of test windows
        spec = SyntheticSpec(clients=32, classes=8, dirichlet_alpha=0.1,
                             samples_per_client=(18000, 18000), seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # singleton classes
            tests = [test for _train, test in generate_synthetic(spec)]
        model = init_model(DESK_CONV, 1)
        tracemalloc.start()
        try:
            evaluate_global(model, DESK_CONV, tests)
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(test) for test in tests) * 128 * 6 * 8 > 10e6
        assert allocated < 1e6


class TestOnePassScoring:
    """A view scores all of its models on a test set in one nn.evaluate
    pass: each slice gathered once, the layers every model holds as the
    same objects run once on it.  Its predictions and counts must equal
    scoring each model alone, by nn.forward's argmax, exactly."""

    ARCH = conv_arch()  # conv1d 6 x k5 -> maxpool1d 2 -> dense 10 -> softmax 4

    @staticmethod
    def scored_sets(rng, arch):
        # 1, 31, 32, 33 and 56 windows: both sides of the 32-window slice,
        # an empty set, and the rows of a window view, as a split side is
        sets = [Batch(rng.normal(size=(n, arch.input_length, arch.input_channels)),
                      rng.integers(0, arch.classes, n)) for n in (1, 31, 32, 0, 33)]
        view = rng.normal(size=(90, arch.input_length, arch.input_channels))
        rows = np.sort(rng.choice(90, 56, replace=False))
        return sets + [Batch(view, rng.integers(0, arch.classes, 56), rows)]

    @staticmethod
    def assert_one_pass(models, arch, tests):
        for test in tests:
            together = evaluate(models, arch, test)
            assert together.shape == (len(models), len(test))
            for model, predictions in zip(models, together):
                alone = np.argmax(forward(model, arch, test), axis=1)
                assert np.array_equal(predictions, alone)
        oracle = []
        for model in models:
            counts = np.zeros((arch.classes, arch.classes), dtype=np.int64)
            for test in tests:
                if len(test):
                    predictions = np.argmax(forward(model, arch, test), axis=1)
                    for truth, predicted in zip(test.labels, predictions):
                        counts[truth, predicted] += 1
            oracle.append(score_bundle(counts))
        assert score_models(models, arch, tests) == oracle
        assert evaluate_generalization(models, arch, tests) == [
            bundle.macro_f1 for bundle in oracle]

    def test_models_of_a_growing_feddist_round(self, rng):
        arch = self.ARCH
        server = init_model(arch, 70)
        cfg = TrainingConfig(local_epochs=2, learning_rate=0.1, batch_size=8)
        clients = make_clients(arch, [40, 24, 56, 32], cfg, seed=71)
        grown, ledger, client_models = feddist_round(
            server, arch, clients, FedDistConfig(beta=0.0, base_sigma_multiplier=1.0), 1)
        assert ledger.units_added == {0: 3, 1: 3}
        models = [grown, *client_models]
        # the last sub-round froze the conv and the dense layer: every
        # client holds the server's objects, so only the output layer is
        # each model's own
        assert nn._shared_cut(models, arch) == arch.param_indices()[-1]
        tests = self.scored_sets(rng, arch)
        self.assert_one_pass(models, arch, tests)
        # with the round's starting server, of another shape, nothing is shared
        assert nn._shared_cut([server, *models], arch) == 0
        self.assert_one_pass([server, *models], arch, tests)

    def test_unrelated_models_share_nothing(self, rng):
        # FedAvg's and FedProx's client models hold no layer in common
        models = [init_model(self.ARCH, seed) for seed in (72, 73, 74)]
        assert nn._shared_cut(models, self.ARCH) == 0
        self.assert_one_pass(models, self.ARCH, self.scored_sets(rng, self.ARCH))

    def test_equal_values_in_distinct_objects_are_not_shared(self, rng, monkeypatch):
        arch = self.ARCH
        model = init_model(arch, 75)
        twin = ModelWeights(tuple(LayerWeights(layer.incoming.copy(), layer.bias.copy())
                                  for layer in model.layers))
        assert nn._shared_cut([model, twin], arch) == 0
        calls = []
        infer = nn._infer
        monkeypatch.setattr(nn, "_infer",
                            lambda m, *args: calls.append(m) or infer(m, *args))
        tests = self.scored_sets(rng, arch)
        self.assert_one_pass([model, twin], arch, tests)
        together = evaluate([model, twin], arch, tests[-1])  # 56 windows, 2 slices
        assert np.array_equal(together[0], together[1])
        # each model ran the whole stack on every slice
        assert calls[-4:] == [model, twin, model, twin]

    def test_float32_models_sharing_a_stack(self, rng):
        arch = self.ARCH
        model = init_model(arch, 76, np.float32)
        other = init_model(arch, 77, np.float32)
        sibling = ModelWeights(model.layers[:-1] + other.layers[-1:])
        assert nn._shared_cut([model, sibling], arch) == arch.param_indices()[-1]
        self.assert_one_pass([model, sibling, other], arch, self.scored_sets(rng, arch))
        self.assert_one_pass([model, sibling], arch, self.scored_sets(rng, arch))

    def test_models_of_two_dtypes_are_refused(self):
        arch = self.ARCH
        models = [init_model(arch, 78), init_model(arch, 78, np.float32)]
        with pytest.raises(ValueError, match="share one dtype"):
            evaluate(models, arch, np.zeros((2, 20, 2)))


class TestSnapshotTracking:
    def _tiny_run(self, algorithm="local-only", seed=6, rounds=6):
        arch = ModelArch(128, 6, (
            LayerSpec("dense", width=8, activation="relu"),
            LayerSpec("softmax-output", width=4),
        ))
        data = SyntheticSpec(clients=3, classes=4, dirichlet_alpha=0.5,
                             samples_per_client=(1200, 1500), seed=seed)
        cfg = ExperimentConfig(
            algorithm=algorithm, model=arch, data=data, rounds=rounds,
            training=TrainingConfig(local_epochs=2, learning_rate=0.05,
                                    batch_size=16),
            seed=seed, eval_every=1)
        return arch, run_experiment(cfg)

    def test_round_one_best_equals_current(self):
        arch, res = self._tiny_run(rounds=1)
        for st in res.states:
            assert st.best.round == 1
            assert st.best.model is st.model

    def test_best_is_running_max(self):
        arch, res = self._tiny_run()
        for st in res.states:
            history = [r.per_client_personalization[st.id] for r in res.reports]
            assert st.best.personalization == pytest.approx(max(history))
            assert st.best.round == history.index(max(history)) + 1

    def test_generalization_matches_exhaustive_rescoring_oracle(self):
        # oracle: re-score every historical snapshot; best per client must be
        # the one the tracker kept
        arch, res = self._tiny_run(seed=8)
        final = res.reports[-1]
        pooled = [concat_window_sets(st.test for st in res.states)]
        for st in res.states:
            history = [r.per_client_personalization[st.id] for r in res.reports]
            assert st.best.personalization == max(history)
            expected = score_model(st.best.model, arch, pooled).macro_f1
            assert final.per_client_generalization[st.id] == pytest.approx(expected)


def test_heterogeneity_gap_ordering():
    # local-only gap (personalization - generalization) shrinks as clients
    # become homogeneous; strict ordering across two fixed-seed corpora
    arch = ModelArch(128, 6, (
        LayerSpec("dense", width=16, activation="relu"),
        LayerSpec("softmax-output", width=8),
    ))
    tr = TrainingConfig(local_epochs=5, learning_rate=0.05, batch_size=16)
    gaps = {}
    for alpha in (0.1, 100.0):
        data = SyntheticSpec(clients=5, classes=8, dirichlet_alpha=alpha,
                             samples_per_client=(2000, 2500), seed=3)
        res = run_experiment(ExperimentConfig(
            algorithm="local-only", model=arch, data=data, rounds=6,
            training=tr, seed=3, eval_every=6))
        report = res.reports[-1]
        gaps[alpha] = report.pers_mean - report.gen_mean
    assert gaps[0.1] > gaps[100.0]
