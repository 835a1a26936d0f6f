"""Scheduler tests: scenario schedules, experiment loop, snapshots of idle
clients, and the final-shape ablation rerun."""

from __future__ import annotations

import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import fedsim.aggregation as aggregation
import fedsim.scheduler as scheduler
from fedsim import (
    DivergenceError,
    ExperimentConfig,
    FedDistConfig,
    LayerGrowth,
    LayerSpec,
    ModelArch,
    ModelWeights,
    ScenarioSpec,
    SyntheticSpec,
    TrainingConfig,
    active_clients,
    init_model,
    ledger_totals,
    rerun_with_final_shape,
    run_experiment,
    train_local,
)
from fedsim.config import parse_config_dict
from fedsim.data import concat_window_sets
from fedsim.fabric import neuron_vector
from fedsim.metrics import score_model
from fedsim.nn import Batch

from conftest import models_bit_equal, write_neuron


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
                                  st.train,
                                  cfg.training, _train_seed(cfg.seed, 1, 0))
        assert models_bit_equal(res.final_model, expected)

    def test_centralized_round_trains_the_pooled_set_with_the_run_config(self):
        # the pooled set is weighed as one batch, under the run's own config
        cfg = tiny_config(algorithm="centralized", rounds=1)
        res = run_experiment(cfg)
        init = init_model(cfg.model, np.random.SeedSequence(cfg.seed, spawn_key=(0, 0)),
                          cfg.dtype)
        pooled = concat_window_sets(st.train for st in res.states)
        expected, _ = train_local(init, cfg.model, pooled, cfg.training,
                                  scheduler._train_seed(cfg.seed, 1, 0))
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

        def displacing(client, model, arch, phase):
            trained = original(client, model, arch, phase)
            if phase == "main phase" and client.id == 1:
                layers = list(trained.layers)
                nv = neuron_vector(layers[0], 0)
                layers[0] = write_neuron(layers[0], 0, nv + 1000.0)
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
        # the final round is reported even when it is off the cadence
        for rounds, expected in ((6, [2, 4, 6]), (7, [2, 4, 6, 7])):
            res = run_experiment(tiny_config(rounds=rounds, eval_every=2))
            assert [r.round for r in res.reports] == expected

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
        assert idle.best is None
        # active clients were trained and snapshotted
        assert res.states[0].best is not None

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
    @pytest.mark.parametrize("algorithm, threads, prefix", [
        ("feddist", 1, r"client \d+, main phase"),
        ("feddist", 2, r"client \d+, main phase"),
        ("local-only", 1, r"client \d+, local training"),
        ("local-only", 2, r"client \d+, local training"),
        ("fedprox", 1, r"client \d+, main phase"),
        ("centralized", 1, "every client pooled, centralized training"),
    ], ids=["feddist-1-main phase", "feddist-2-main phase",
            "local-only-1-local training", "local-only-2-local training",
            "fedprox-1-main phase", "centralized-1-pooled"])
    def test_diverging_run_names_round_client_phase_layer(self, algorithm,
                                                          threads, prefix):
        # a step this large overflows the logits within the first round
        cfg = tiny_config(algorithm=algorithm, rounds=2, threads=threads,
                          training=TrainingConfig(local_epochs=2, learning_rate=1e150,
                                                  batch_size=16))
        with pytest.raises(DivergenceError) as info:
            run_experiment(cfg)
        assert re.match(rf"round 1: {prefix}: diverged, .* at epoch \d+, "
                        r"minibatch \d+; first non-finite output at layer \d+ \(",
                        str(info.value)), str(info.value)

    @pytest.mark.parametrize("algorithm", scheduler.ALGORITHMS)
    def test_federated_rounds_open_with_the_scenario_draw(self, monkeypatch, algorithm):
        # The benchmark's round clock replaces scheduler.active_clients and
        # starts a round's timer from its call, so a federated round must make
        # it first and exactly once; local-only and centralized draw nothing.
        draw, update = scheduler.active_clients, aggregation._default_client_update
        draws, updates = [], []

        def recording_draw(spec, round_index, pool, rng):
            draws.append(round_index)
            return draw(spec, round_index, pool, rng)

        def recording_update(client, model, arch, phase):
            updates.append(len(draws))  # the round whose draw came last
            return update(client, model, arch, phase)

        monkeypatch.setattr(scheduler, "active_clients", recording_draw)
        monkeypatch.setattr(aggregation, "_default_client_update", recording_update)
        run_experiment(tiny_config(algorithm, rounds=3))
        if algorithm in ("local-only", "centralized"):
            assert draws == []
        else:
            assert draws == [1, 2, 3]
            assert sorted(set(updates)) == [1, 2, 3]

    def test_local_only_scores_everyone_whatever_the_scenario(self):
        cfg = tiny_config("local-only", rounds=2, clients=4,
                          scenario=ScenarioSpec(kind="interchanging", sample_size=2))
        for report in run_experiment(cfg).reports:
            assert sorted(report.per_client_personalization) == [0, 1, 2, 3]

    def test_threads_do_not_change_results(self):
        for algorithm in ("fedavg", "feddist", "local-only"):
            cfg = tiny_config(algorithm, rounds=2, clients=3)
            threaded = tiny_config(algorithm, rounds=2, clients=3, threads=4)
            a = run_experiment(cfg)
            b = run_experiment(threaded)
            assert ([r.csv_row() for r in a.reports]
                    == [r.csv_row() for r in b.reports]), algorithm

    def test_local_only_trains_through_the_client_update(self, monkeypatch):
        original = aggregation._default_client_update
        calls = []

        def recording(client, model, arch, phase):
            calls.append((client.id, phase))
            return original(client, model, arch, phase)

        monkeypatch.setattr(aggregation, "_default_client_update", recording)
        run_experiment(tiny_config("local-only", rounds=2, clients=3))
        assert calls == [(k, "local training") for _ in range(2) for k in range(3)]


class TestFedDistMemory:
    # The desk model (about 30,000 weights) on ten clients, growing both
    # layers by two units: a generation of client models is about 2.4 MB.
    GROWING_DESK = {
        "algorithm": "feddist", "rounds": 1, "local_epochs": 1, "seed": 3,
        "model": {"input": [128, 6], "layers": [
            {"kind": "conv1d", "width": 16, "kernel": 16, "activation": "relu"},
            {"kind": "maxpool1d", "kernel": 4},
            {"kind": "dense", "width": 64, "activation": "relu"},
            {"kind": "softmax-output", "width": 8},
        ]},
        "training": {"learning_rate": 0.03, "batch_size": 16},
        "feddist": {"max_new_units_per_layer_per_round": 2},
        "data": {"synthetic": {"clients": 10, "classes": 8, "dirichlet_alpha": 0.1,
                               "samples_per_client": [600, 600]}},
    }

    def test_a_round_holds_one_generation_of_client_models_a_phase(self):
        # Traced peak 11.5 MB when the main phase's models lived to the end
        # of the round and each sub-round conformed all its starts up front;
        # 6.2 MB with both released as the sub-rounds go.
        tracemalloc.start()
        try:
            result = run_experiment(parse_config_dict(self.GROWING_DESK))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.ledgers[0].units_added == {0: 2, 1: 2}
        assert peak < 9e6


class TestGeneralizationScoredOnce:
    """The generalization view scores a best snapshot on every client's test
    set once; an interchanging pool leaves idle clients on old snapshots, whose
    kept scores must be reused, and replaced snapshots rescored."""

    @staticmethod
    def _ticks(monkeypatch, eval_every):
        """Per tick: (report, models scored since the previous tick, each
        snapshotted client's (best.round, best.model) as the report left)."""
        # seed 6 replaces a kept snapshot at both cadences
        cfg = tiny_config(rounds=12, clients=5, seed=6, eval_every=eval_every,
                          scenario=ScenarioSpec(kind="interchanging", sample_size=3))
        runs, scored, ticks = [], [], []
        tick, score = scheduler._evaluate_tick, scheduler.evaluate_generalization

        def recording_tick(cfg, run, *args):
            runs.append(run)
            return tick(cfg, run, *args)

        def counting_score(best_models, *args):
            scored.append(len(best_models))
            return score(best_models, *args)

        def on_report(report):
            held = {st.id: (st.best.round, st.best.model) for st in runs[-1].states
                    if st.best is not None}
            ticks.append((report, sum(scored), held))
            scored.clear()

        monkeypatch.setattr(scheduler, "_evaluate_tick", recording_tick)
        monkeypatch.setattr(scheduler, "evaluate_generalization", counting_score)
        res = run_experiment(cfg, on_report=on_report)
        return cfg, res, ticks

    @pytest.mark.parametrize("eval_every", [1, 3])
    def test_scorings_per_tick_equal_changed_snapshots(self, monkeypatch, eval_every):
        _, _, ticks = self._ticks(monkeypatch, eval_every)
        previous, reused, replaced = {}, 0, 0
        for _, count, held in ticks:
            changed = [k for k, (best_round, _) in held.items()
                       if previous.get(k, (None,))[0] != best_round]
            assert count == len(changed)
            reused += len(held) - len(changed)
            replaced += len(set(changed) & previous.keys())
            previous = held
        # the run both keeps old snapshots and replaces some
        assert reused > 0 and replaced > 0

    @pytest.mark.parametrize("eval_every", [1, 3])
    def test_every_tick_reports_the_held_snapshots_scores(self, monkeypatch,
                                                          eval_every):
        cfg, res, ticks = self._ticks(monkeypatch, eval_every)
        pooled = [concat_window_sets(st.test for st in res.states)]
        for report, _, held in ticks:
            assert report.per_client_generalization.keys() == held.keys()
            for k, (_, best_model) in held.items():
                expected = score_model(best_model, cfg.model, pooled).macro_f1
                assert report.per_client_generalization[k] == expected


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

        def displacing(client, model, arch, phase):
            trained = original(client, model, arch, phase)
            if phase == "main phase" and client.id == 1:
                layers = list(trained.layers)
                nv = neuron_vector(layers[0], 0)
                layers[0] = write_neuron(layers[0], 0, nv + 800.0)
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

    def test_csv_label_outside_classes_names_the_file(self, tmp_path):
        from fedsim.data import CSV_HEADER
        from fedsim.scheduler import CsvDataSpec

        # label 9 is a minority in every window, so it would vanish unseen
        rows = [",".join(CSV_HEADER)]
        rows += [f"{i},1,2,3,4,5,6,{9 if i % 10 == 0 else i // 200 % 4}"
                 for i in range(800)]
        path = tmp_path / "client0.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig(
            algorithm="fedavg", model=tiny_arch(),
            data=CsvDataSpec(paths=(str(path),), classes=4), rounds=1)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: label 9"):
            run_experiment(cfg)


class TestGrowthEvents:
    """Each appended unit is one GrowthEvent on the ledger of its round."""

    @pytest.mark.parametrize("rounds, eval_every", [(6, 1), (6, 3), (7, 3)],
                             ids=["1", "3", "3-rounds-7"])
    def test_events_account_for_every_appended_unit(self, monkeypatch, rounds,
                                                     eval_every):
        cfg = tiny_config(algorithm="feddist", rounds=rounds, clients=7,
                          eval_every=eval_every,
                          scenario=ScenarioSpec(kind="interchanging", sample_size=3),
                          feddist=FedDistConfig(base_sigma_multiplier=1.0))
        active = {}

        def recording_active(spec, round_index, pool, rng):
            active[round_index] = active_clients(spec, round_index, pool, rng)
            return active[round_index]

        monkeypatch.setattr(scheduler, "active_clients", recording_active)
        res = run_experiment(cfg)

        events = [e for led in res.ledgers for e in led.growth]
        initial = init_model(cfg.model, 0).shape_signature
        final = res.final_model.shape_signature
        assert events and final != initial
        assert Counter(e.layer for e in events) == {
            layer: f - i for layer, (i, f) in enumerate(zip(initial, final)) if f > i}
        for led in res.ledgers:
            assert {e.client_id for e in led.growth} <= set(active[led.round_index])
        assert sum(r.units_added for r in res.reports) == len(events)

    @pytest.mark.parametrize("eval_every", [1, 3])
    def test_layer_growth_records_back_every_view(self, eval_every):
        # Two hidden layers under a cap of 1: over five rounds some layers
        # stay idle, some grow and one has a selection truncated.
        arch = ModelArch(128, 6, (LayerSpec("dense", width=8, activation="relu"),
                                  LayerSpec("dense", width=8, activation="relu"),
                                  LayerSpec("softmax-output", width=4)))
        fcfg = FedDistConfig(base_sigma_multiplier=2.0,
                             max_new_units_per_layer_per_round=1)
        res = run_experiment(tiny_config(algorithm="feddist", rounds=5, model=arch,
                                         eval_every=eval_every, feddist=fcfg))

        records = [rec for led in res.ledgers for rec in led.layer_growth]
        assert {(len(rec.events), rec.candidates > len(rec.events))
                for rec in records} == {(0, False), (1, False), (1, True)}
        for led in res.ledgers:
            recs = led.layer_growth
            assert all(type(rec) is LayerGrowth for rec in recs)
            assert [rec.layer for rec in recs] == [0, 1]
            assert all(e.layer == rec.layer for rec in recs for e in rec.events)
            assert led.growth == [e for rec in recs for e in rec.events]
            assert list(led.units_added.items()) == [
                (rec.layer, len(rec.events)) for rec in recs if rec.events]
            assert led.total_units_added == sum(len(rec.events) for rec in recs)
            assert led.sub_rounds == sum(1 for rec in recs if rec.events)
            assert led.truncated_selections == sum(
                rec.candidates - len(rec.events) for rec in recs)

        previous = 0
        for report in res.reports:
            since = [rec for led in res.ledgers[previous:report.round]
                     for rec in led.layer_growth]
            assert report.units_added == sum(len(rec.events) for rec in since)
            assert report.sub_rounds == sum(1 for rec in since if rec.events)
            previous = report.round
        assert previous == 5
        assert ledger_totals(res.ledgers).layer_growth == records


class TestRejoinStartsFromServer:
    """A FedDist client that sat out while the server grew rejoins with a
    stored model narrower than the server; its main-phase update starts from
    the round's server all the same, so nothing reads the stored model."""

    def test_every_main_phase_update_starts_from_the_rounds_server(self, monkeypatch):
        cfg = tiny_config(algorithm="feddist", rounds=6, clients=7,
                          scenario=ScenarioSpec(kind="interchanging", sample_size=3),
                          feddist=FedDistConfig(base_sigma_multiplier=1.0))
        servers, active, starts, narrow_rejoins = {}, {}, {}, []
        stored = {}  # client id -> shape of the model the scheduler keeps for it
        round_fn, update = scheduler.feddist_round, aggregation._default_client_update

        def recording_round(server, arch, clients, fcfg, round_index, **kw):
            servers[round_index] = server
            active[round_index] = {c.id for c in clients}
            narrow_rejoins.extend(
                (round_index, c.id) for c in clients if c.id in stored
                and any(h < s for h, s in zip(stored[c.id], server.shape_signature)))
            outcome = round_fn(server, arch, clients, fcfg, round_index, **kw)
            stored.update((k, m.shape_signature)
                          for k, m in outcome.client_models.items())
            return outcome

        def recording_update(client, model, arch, phase):
            if phase == "main phase":
                starts[len(servers), client.id] = model
            return update(client, model, arch, phase)

        monkeypatch.setattr(scheduler, "feddist_round", recording_round)
        monkeypatch.setattr(aggregation, "_default_client_update", recording_update)
        run_experiment(cfg)

        assert narrow_rejoins
        assert starts.keys() == {(t, k) for t, ids in active.items() for k in ids}
        for (t, k), model in starts.items():
            assert models_bit_equal(model, servers[t]), (t, k)


class TestTrainingSeeds:
    """Each client trains a round's main phase on the stream spawned at
    (2, t, k) from the experiment seed, and FedDist's sub-round of layer l
    on the stream spawned at (l + 1,) from that seed."""

    def test_main_phase_and_sub_round_seeds_follow_their_literal_keys(self, monkeypatch):
        cfg = tiny_config(algorithm="feddist", rounds=3,
                          feddist=FedDistConfig(base_sigma_multiplier=0.5))
        rounds, seen = [], []
        round_fn, update = scheduler.feddist_round, aggregation._default_client_update

        def recording_round(server, arch, clients, fcfg, round_index, **kw):
            rounds.append(round_index)
            return round_fn(server, arch, clients, fcfg, round_index, **kw)

        def recording_update(client, model, arch, phase):
            seen.append((rounds[-1], client.id, phase, client.seed))
            return update(client, model, arch, phase)

        monkeypatch.setattr(scheduler, "feddist_round", recording_round)
        monkeypatch.setattr(aggregation, "_default_client_update", recording_update)
        run_experiment(cfg)

        main = {}
        for t, k, phase, seed in seen:
            if phase == "main phase":
                state = np.random.SeedSequence(cfg.seed, spawn_key=(2, t, k)).generate_state(2)
                assert seed == int(state[0]) << 32 | int(state[1]), (t, k)
                main[t, k] = seed
        sub_rounds = [(t, k, phase, seed) for t, k, phase, seed in seen
                      if phase != "main phase"]
        assert main.keys() == {(t, k) for t in range(1, 4) for k in range(3)}
        assert sub_rounds
        for t, k, phase, seed in sub_rounds:
            layer = int(re.fullmatch(r"layer-wise sub-round of layer (\d+)", phase)[1])
            expected = np.random.SeedSequence(main[t, k], spawn_key=(layer + 1,))
            assert (seed.entropy, seed.spawn_key) == (expected.entropy, expected.spawn_key)
            assert np.array_equal(seed.generate_state(4), expected.generate_state(4))
