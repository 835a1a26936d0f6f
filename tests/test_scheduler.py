"""Scheduler tests: scenario schedules, experiment loop, snapshots of idle
clients, and the final-shape ablation rerun."""

from __future__ import annotations

import re

import numpy as np
import pytest

import fedsim.aggregation as aggregation
from fedsim import (
    DivergenceError,
    ExperimentConfig,
    LayerSpec,
    ModelArch,
    ModelWeights,
    ScenarioSpec,
    SyntheticSpec,
    TrainingConfig,
    active_clients,
    init_model,
    rerun_with_final_shape,
    run_experiment,
    train_local,
)
from fedsim.fabric import neuron_vector, write_neuron
from fedsim.nn import Batch

from conftest import models_bit_equal


def rng_for(t: int, seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, t)))


class TestActiveClients:
    def test_incrementing_starts_with_two(self):
        spec = ScenarioSpec(kind="incrementing")
        assert active_clients(spec, 1, 15, rng_for(1)) == (0, 1)

    def test_incrementing_adds_one_every_interval(self):
        spec = ScenarioSpec(kind="incrementing", interval_rounds=14)
        assert len(active_clients(spec, 14, 15, rng_for(14))) == 2
        assert len(active_clients(spec, 15, 15, rng_for(15))) == 3
        assert len(active_clients(spec, 29, 15, rng_for(29))) == 4

    def test_decrementing_never_below_one(self):
        spec = ScenarioSpec(kind="decrementing", interval_rounds=14)
        assert len(active_clients(spec, 1, 15, rng_for(1))) == 15
        assert active_clients(spec, 10_000, 15, rng_for(10_000)) == (0,)

    def test_full_is_everyone(self):
        spec = ScenarioSpec(kind="full")
        assert active_clients(spec, 3, 4, rng_for(3)) == (0, 1, 2, 3)

    def test_interchanging_samples_without_replacement(self):
        spec = ScenarioSpec(kind="interchanging", sample_size=8)
        seen = set()
        for t in range(1, 30):
            picked = active_clients(spec, t, 15, rng_for(t))
            assert len(picked) == 8
            assert len(set(picked)) == 8
            assert all(0 <= i < 15 for i in picked)
            seen.add(picked)
        assert len(seen) > 1  # the pool actually fluctuates

    def test_interchanging_deterministic_per_round_seed(self):
        spec = ScenarioSpec(kind="interchanging", sample_size=5)
        assert (active_clients(spec, 7, 12, rng_for(7))
                == active_clients(spec, 7, 12, rng_for(7)))

    @pytest.mark.parametrize("kind", ["incrementing", "decrementing"])
    def test_closed_forms_over_500_rounds(self, kind):
        pool, interval, start = 15, 14, 2
        spec = ScenarioSpec(kind=kind, start_count=start, interval_rounds=interval)
        for t in range(1, 501):
            got = active_clients(spec, t, pool, rng_for(t))
            if kind == "incrementing":
                expected = min(pool, start + (t - 1) // interval)
            else:
                expected = max(1, pool - (t - 1) // interval)
            assert got == tuple(range(expected))

    def test_rounds_are_one_based(self):
        with pytest.raises(ValueError):
            active_clients(ScenarioSpec(), 0, 4, rng_for(0))

    def test_pool_bounds_validated(self):
        cfg_kwargs = dict(kind="interchanging", sample_size=9)
        with pytest.raises(ValueError, match="sample_size"):
            ScenarioSpec(**cfg_kwargs).check_pool(8)


def tiny_arch(hidden=8, classes=4) -> ModelArch:
    return ModelArch(128, 6, (
        LayerSpec("dense", width=hidden, activation="relu"),
        LayerSpec("softmax-output", width=classes),
    ))


def tiny_config(algorithm="fedavg", rounds=3, clients=3, seed=5, **kw) -> ExperimentConfig:
    data = SyntheticSpec(clients=clients, classes=4, dirichlet_alpha=0.5,
                         samples_per_client=(1200, 1500), seed=seed)
    defaults = dict(
        algorithm=algorithm, model=tiny_arch(), data=data, rounds=rounds,
        training=TrainingConfig(local_epochs=2, learning_rate=0.05, batch_size=16),
        seed=seed, eval_every=1)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_single_client_single_round_equals_local_training(self):
        cfg = tiny_config(rounds=1, clients=1)
        res = run_experiment(cfg)
        assert len(res.reports) == 1
        st = res.states[0]
        init = init_model(cfg.model, np.random.SeedSequence(cfg.seed, spawn_key=(0, 0)),
                          cfg.dtype)
        from fedsim.scheduler import _train_seed
        expected, _ = train_local(init, cfg.model,
                                  Batch(st.train.windows, st.train.labels),
                                  st.cfg, _train_seed(cfg.seed, 1, 0))
        assert models_bit_equal(res.final_model, expected)

    def test_fedprox_default_training_is_not_fedavg(self):
        # TrainingConfig's own proximal_coefficient is the YAML default
        prox = run_experiment(tiny_config(algorithm="fedprox", rounds=2))
        avg = run_experiment(tiny_config(algorithm="fedavg", rounds=2))
        assert not models_bit_equal(prox.final_model, avg.final_model)

    def test_rerun_bit_identical_reports(self):
        cfg = tiny_config(algorithm="feddist", rounds=3)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [r.csv_row() for r in a.reports] == [r.csv_row() for r in b.reports]
        assert models_bit_equal(a.final_model, b.final_model)

    def test_feddist_displacement_rig_reports_growth(self, monkeypatch):
        original = aggregation._default_client_update

        def displacing(client, model, arch, cfg, seed, phase):
            trained = original(client, model, arch, cfg, seed, phase)
            if phase == ("main",) and client.id == 1:
                layers = list(trained.layers)
                nv = neuron_vector(layers[0], 0)
                layers[0] = write_neuron(layers[0], 0, nv.values + 1000.0)
                trained = ModelWeights(tuple(layers))
            return trained

        monkeypatch.setattr(aggregation, "_default_client_update", displacing)
        data = SyntheticSpec(clients=2, classes=4, dirichlet_alpha=1.0,
                             samples_per_client=(4000, 4000), seed=9)
        # 16 units x 2 clients gives the pooled statistics enough mass for a
        # halved displacement (equal-weight average) to cross mu + 3 sigma
        cfg = tiny_config(algorithm="feddist", rounds=1, clients=2, seed=9,
                          data=data, model=tiny_arch(hidden=16))
        res = run_experiment(cfg)
        assert res.reports[0].units_added >= 1
        assert res.final_model.shape_signature[0] > 16

    def test_report_sequence_matches_eval_cadence(self):
        cfg = tiny_config(rounds=6, eval_every=2)
        res = run_experiment(cfg)
        assert [r.round for r in res.reports] == [2, 4, 6]

    def test_idle_clients_untouched(self):
        # client 2 never activates in 3 rounds of slow incrementing
        cfg = tiny_config(rounds=3,
                          scenario=ScenarioSpec(kind="incrementing",
                                                start_count=2,
                                                interval_rounds=10))
        res = run_experiment(cfg)
        idle = res.states[2]
        init = init_model(cfg.model, np.random.SeedSequence(cfg.seed, spawn_key=(0, 0)),
                          cfg.dtype)
        assert models_bit_equal(idle.model, init)
        assert idle.best_model is None and idle.best_score is None
        # active clients were trained and snapshotted
        assert res.states[0].best_model is not None

    def test_fractions_recomputed_over_active_pool(self):
        # a decrementing run must keep aggregating (fractions sum to 1 per round)
        cfg = tiny_config(rounds=4, clients=3,
                          scenario=ScenarioSpec(kind="decrementing",
                                                interval_rounds=2))
        res = run_experiment(cfg)
        assert len(res.reports) == 4

    def test_interchanging_personalization_covers_sampled_clients(self):
        cfg = tiny_config(rounds=2, clients=4,
                          scenario=ScenarioSpec(kind="interchanging", sample_size=2))
        res = run_experiment(cfg)
        for report in res.reports:
            assert len(report.per_client_personalization) == 2

    def test_centralized_has_no_client_views(self):
        cfg = tiny_config(algorithm="centralized", rounds=2)
        res = run_experiment(cfg)
        for report in res.reports:
            assert report.global_f1 is not None
            assert report.pers_mean is None and report.gen_mean is None

    def test_local_only_has_no_global_view(self):
        cfg = tiny_config(algorithm="local-only", rounds=2)
        res = run_experiment(cfg)
        assert res.final_model is None
        for report in res.reports:
            assert report.global_f1 is None
            assert report.pers_mean is not None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("algorithm, threads, phase", [
        ("feddist", 1, "main phase"),
        ("feddist", 2, "main phase"),
        ("local-only", 1, "local training"),
    ])
    def test_diverging_run_names_round_client_phase_layer(self, algorithm,
                                                          threads, phase):
        # a step this large overflows the logits within the first round
        cfg = tiny_config(algorithm=algorithm, rounds=2, threads=threads,
                          training=TrainingConfig(local_epochs=2, learning_rate=1e150,
                                                  batch_size=16))
        with pytest.raises(DivergenceError) as info:
            run_experiment(cfg)
        assert re.match(rf"round 1: client \d+, {phase}: diverged, .* at epoch \d+, "
                        r"minibatch \d+; first non-finite output at layer \d+ \(",
                        str(info.value)), str(info.value)

    def test_threads_do_not_change_results(self):
        cfg = tiny_config(rounds=2, clients=3)
        threaded = tiny_config(rounds=2, clients=3, threads=4)
        a = run_experiment(cfg)
        b = run_experiment(threaded)
        assert [r.csv_row() for r in a.reports] == [r.csv_row() for r in b.reports]


class TestRerunWithFinalShape:
    def test_base_shape_behaves_as_plain_fedavg(self):
        cfg = tiny_config(algorithm="feddist", rounds=2)
        base_shape = (8, 4)
        res = rerun_with_final_shape(cfg, base_shape)
        assert all(r.algorithm == "fedavg" for r in res.reports)
        assert res.final_model.shape_signature == base_shape

    def test_grown_shape_reflected_in_param_counts(self):
        cfg = tiny_config(rounds=2)
        grown = (13, 4)
        res = rerun_with_final_shape(cfg, grown)
        assert res.final_model.shape_signature == grown
        expected_params = 768 * 13 + 13 + 13 * 4 + 4
        assert res.reports[-1].params == expected_params

    def test_initialization_is_rederived(self):
        cfg = tiny_config(rounds=1)
        a = run_experiment(cfg)
        b = rerun_with_final_shape(cfg, (8, 4))
        assert not models_bit_equal(a.final_model, b.final_model)

    def test_malformed_shape_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            rerun_with_final_shape(cfg, (8, 9))  # output width must stay 4
        with pytest.raises(ValueError):
            rerun_with_final_shape(cfg, (4, 4))  # below the base width

    def test_full_ablation_end_to_end(self, monkeypatch):
        original = aggregation._default_client_update

        def displacing(client, model, arch, cfg, seed, phase):
            trained = original(client, model, arch, cfg, seed, phase)
            if phase == ("main",) and client.id == 1:
                layers = list(trained.layers)
                nv = neuron_vector(layers[0], 0)
                layers[0] = write_neuron(layers[0], 0, nv.values + 800.0)
                trained = ModelWeights(tuple(layers))
            return trained

        monkeypatch.setattr(aggregation, "_default_client_update", displacing)
        grow_cfg = tiny_config(algorithm="feddist", rounds=2, clients=2, seed=9,
                               model=tiny_arch(hidden=16),
                               data=SyntheticSpec(clients=2, classes=4,
                                                  dirichlet_alpha=1.0,
                                                  samples_per_client=(4000, 4000),
                                                  seed=9))
        grown = run_experiment(grow_cfg)
        final_shape = grown.final_model.shape_signature
        assert final_shape[0] > 16
        monkeypatch.setattr(aggregation, "_default_client_update", original)
        ablation = rerun_with_final_shape(grow_cfg, final_shape)
        assert ablation.final_model.shape_signature == final_shape
        assert ablation.reports[-1].gen_mean is not None


class TestPrecisionAndCsvSources:
    def test_float32_runs_end_to_end(self):
        cfg = tiny_config(rounds=2, precision="float32")
        res = run_experiment(cfg)
        assert res.final_model.dtype == np.float32
        assert all(np.isfinite(r.global_f1) for r in res.reports)

    def test_float32_and_float64_differ_but_agree_roughly(self):
        a = run_experiment(tiny_config(rounds=2, precision="float64"))
        b = run_experiment(tiny_config(rounds=2, precision="float32"))
        assert abs(a.reports[-1].global_f1 - b.reports[-1].global_f1) < 0.1

    def test_csv_sources_through_full_pipeline(self, tmp_path):
        from fedsim.data import CSV_HEADER
        from fedsim.scheduler import CsvDataSpec

        rng = np.random.default_rng(31)
        paths = []
        for k in range(2):
            rows = [",".join(CSV_HEADER)]
            for i in range(1600):
                label = (i // 400) % 2
                vals = rng.normal(loc=label * 2.0, size=6)
                rows.append(f"{i}," + ",".join(f"{v:.5f}" for v in vals) + f",{label}")
            path = tmp_path / f"client{k}.csv"
            path.write_text("\n".join(rows) + "\n")
            paths.append(str(path))

        arch = ModelArch(128, 6, (
            LayerSpec("dense", width=8, activation="relu"),
            LayerSpec("softmax-output", width=2),
        ))
        cfg = ExperimentConfig(
            algorithm="fedavg", model=arch,
            data=CsvDataSpec(paths=tuple(paths), classes=2),
            rounds=2,
            training=TrainingConfig(local_epochs=2, learning_rate=0.1,
                                    batch_size=8),
            seed=3, eval_every=1)
        res = run_experiment(cfg)
        assert len(res.reports) == 2
        assert res.reports[-1].global_f1 > 0.5  # offset-separated classes
