"""Aggregation tests: the three round procedures, distances, thresholds,
divergent-unit selection, and communication accounting."""

from __future__ import annotations

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.aggregation as aggregation
from fedsim import (
    FedDistConfig,
    ModelWeights,
    TrainingConfig,
    distance_matrix,
    divergence_threshold,
    fedavg_round,
    feddist_round,
    fedprox_round,
    init_model,
    ledger_totals,
    select_divergent,
)
from fedsim.aggregation import (
    ClientRuntime,
    _default_client_update,
    cost_ratio,
)
from fedsim.container import shape_metadata_size
from fedsim.fabric import LayerWeights, ShapeError, neuron_vector
from fedsim.nn import Batch, train_local

from conftest import conv_arch, dense_arch, make_clients, models_bit_equal, write_neuron

CFG = TrainingConfig(local_epochs=1, learning_rate=0.05, batch_size=8)


def displacement_hook(displaced_client: int, layers: tuple[int, ...],
                      unit: int = 0, shift: float = 1000.0):
    """Wrap the standard client update; after main-phase training, push one
    unit of each listed layer far away for the chosen client."""

    def update(client, model, arch, phase):
        trained = _default_client_update(client, model, arch, phase)
        if phase == "main phase" and client.id == displaced_client:
            new_layers = list(trained.layers)
            for layer in layers:
                nv = neuron_vector(new_layers[layer], unit)
                new_layers[layer] = write_neuron(new_layers[layer], unit,
                                                 nv + shift)
            trained = ModelWeights(tuple(new_layers))
        return trained

    return update


class TestFedAvgRound:
    def test_single_client_round_returns_its_model(self):
        arch = dense_arch(4, 6, 3)
        server = init_model(arch, 0)
        (client,) = make_clients(arch, [12], CFG, seed=1)
        out = fedavg_round(server, arch, [client])
        expected, _ = train_local(server, arch, client.data,
                                  CFG, client.seed)
        assert models_bit_equal(out.server, expected)
        assert out.client_models[0] is not None

    def test_identical_clients_collapse_to_one_model(self):
        arch = dense_arch(4, 6, 3)
        server = init_model(arch, 1)
        clients = make_clients(arch, [10] * 4, CFG, seed=2, same_data=True,
                               same_train_seed=77)
        out = fedavg_round(server, arch, clients)
        single = out.client_models[0]
        for k in range(1, 4):
            assert models_bit_equal(out.client_models[k], single)
        # averaging identical models with fractions summing to 1.0 exactly
        assert np.allclose(out.server.layers[0].incoming,
                           single.layers[0].incoming, atol=1e-15)

    def test_matches_weighted_elementwise_oracle(self):
        arch = dense_arch(4, 6, 3)
        server = init_model(arch, 3)
        clients = make_clients(arch, [10, 20, 70], CFG, seed=4)
        out = fedavg_round(server, arch, clients)
        for li in range(len(server.layers)):
            expected = sum(
                f * out.client_models[k].layers[li].incoming
                for k, f in zip(range(3), (0.1, 0.2, 0.7))
            )
            assert np.abs(out.server.layers[li].incoming - expected).max() < 1e-12

    def test_empty_pool_is_rejected(self):
        arch = dense_arch(4, 6, 3)
        server = init_model(arch, 5)
        with pytest.raises(ValueError, match="no training data"):
            fedavg_round(server, arch, [])
        with pytest.raises(ValueError, match="no training data"):
            feddist_round(server, arch, [], FedDistConfig(), 1)

    def test_ledger_counts_full_model_both_ways(self):
        arch = dense_arch(4, 6, 3)
        server = init_model(arch, 6)
        clients = make_clients(arch, [8, 8], CFG, seed=7)
        out = fedavg_round(server, arch, clients)
        from fedsim import byte_size
        assert out.ledger.bytes_down == 2 * byte_size(server)
        assert out.ledger.bytes_up == 2 * byte_size(server)

    def test_client_order_does_not_matter(self):
        arch = dense_arch(4, 6, 3)
        server = init_model(arch, 8)
        clients = make_clients(arch, [5, 9, 13], CFG, seed=9)
        a = fedavg_round(server, arch, clients)
        b = fedavg_round(server, arch, list(reversed(clients)))
        assert models_bit_equal(a.server, b.server)


class TestFedProxRound:
    def test_zero_coefficient_reduces_to_fedavg_bitwise(self):
        arch = dense_arch(4, 6, 3)
        server = init_model(arch, 10)
        cfg = TrainingConfig(local_epochs=2, learning_rate=0.05, batch_size=8,
                             proximal_coefficient=0.0)
        clients = make_clients(arch, [10, 14], cfg, seed=11)
        a = fedavg_round(server, arch, clients)
        b = fedprox_round(server, arch, clients)
        assert models_bit_equal(a.server, b.server)

    def test_large_coefficient_shrinks_drift(self):
        arch = dense_arch(6, 8, 3)
        server = init_model(arch, 12)
        plain_cfg = TrainingConfig(local_epochs=3, learning_rate=0.05, batch_size=8)
        prox_cfg = TrainingConfig(local_epochs=3, learning_rate=0.05, batch_size=8,
                                  proximal_coefficient=10.0)
        plain = make_clients(arch, [16, 16, 16], plain_cfg, seed=13)
        proxed = [ClientRuntime(c.id, c.data, prox_cfg, c.seed)
                  for c in plain]

        def drift(outcome, reference):
            total = 0.0
            for model in outcome.client_models:
                for la, lb in zip(model.layers, reference.layers):
                    total += np.sum((la.incoming - lb.incoming) ** 2)
                    total += np.sum((la.bias - lb.bias) ** 2)
            return math.sqrt(total)

        a = fedavg_round(server, arch, plain)
        p = fedprox_round(server, arch, proxed)
        assert drift(p, server) < drift(a, server)

    def test_single_step_matches_fedavg_exactly(self):
        # with one full-batch step the proximal gradient at w_t is zero
        arch = dense_arch(4, 6, 3)
        server = init_model(arch, 14)
        cfg = TrainingConfig(local_epochs=1, learning_rate=0.1, batch_size=64,
                             proximal_coefficient=7.0)
        clients = make_clients(arch, [12, 12], cfg, seed=15)
        plain = [ClientRuntime(c.id, c.data,
                               TrainingConfig(local_epochs=1, learning_rate=0.1,
                                              batch_size=64), c.seed)
                 for c in clients]
        assert models_bit_equal(fedprox_round(server, arch, clients).server,
                                fedavg_round(server, arch, plain).server)


    def test_two_threads_match_one(self):
        # Every client's reference is the one server model, shared by the
        # threads; each step updates only arrays of its own
        from concurrent.futures import ThreadPoolExecutor

        arch = conv_arch()
        server = init_model(arch, 16)
        kept = [(layer.incoming.copy(), layer.bias.copy()) for layer in server.layers]
        cfg = TrainingConfig(local_epochs=3, learning_rate=0.05, batch_size=8,
                             proximal_coefficient=0.5)
        clients = make_clients(arch, [40, 56, 48, 64], cfg, seed=17)
        one = fedprox_round(server, arch, clients)
        with ThreadPoolExecutor(2) as executor:
            two = fedprox_round(server, arch, clients, executor=executor)
        assert models_bit_equal(one.server, two.server)
        assert len(one.client_models) == len(two.client_models) == 4
        assert all(models_bit_equal(a, b)
                   for a, b in zip(one.client_models, two.client_models))
        assert models_bit_equal(server, ModelWeights(tuple(
            LayerWeights(w, b) for w, b in kept)))


class TestDistanceMatrix:
    def test_identical_layers_give_zeros(self):
        layer = LayerWeights(np.arange(6, dtype=float).reshape(2, 3),
                             np.array([1.0, 2.0, 3.0]))
        pi = distance_matrix(layer, [layer, layer])
        assert pi.shape == (3, 2)
        assert np.all(pi == 0)
        assert pi.mean() == 0 and pi.std() == 0

    def test_3_4_5_triangle(self):
        server = LayerWeights(np.array([[0.0]]), np.array([0.0]))
        client = LayerWeights(np.array([[3.0]]), np.array([4.0]))
        pi = distance_matrix(server, [client])
        assert pi[0, 0] == pytest.approx(5.0, abs=1e-15)

    def test_matches_scalar_loop_oracle(self, rng):
        server = LayerWeights(rng.normal(size=(12, 8)), rng.normal(size=8))
        clients = [LayerWeights(rng.normal(size=(12, 8)), rng.normal(size=8))
                   for _ in range(5)]
        pi = distance_matrix(server, clients)
        for d in range(8):
            for k in range(5):
                acc = 0.0
                for i in range(12):
                    diff = server.incoming[i, d] - clients[k].incoming[i, d]
                    acc += diff * diff
                diff = server.bias[d] - clients[k].bias[d]
                acc += diff * diff
                assert abs(pi[d, k] - math.sqrt(acc)) < 1e-12

    def test_conv_filters_flattened(self, rng):
        server = LayerWeights(rng.normal(size=(3, 2, 4)), rng.normal(size=4))
        client = LayerWeights(rng.normal(size=(3, 2, 4)), rng.normal(size=4))
        pi = distance_matrix(server, [client])
        for d in range(4):
            expected = math.sqrt(
                np.sum((server.incoming[:, :, d] - client.incoming[:, :, d]) ** 2)
                + (server.bias[d] - client.bias[d]) ** 2)
            assert abs(pi[d, 0] - expected) < 1e-12

    def test_shape_mismatch_rejected(self):
        a = LayerWeights(np.zeros((2, 2)), np.zeros(2))
        b = LayerWeights(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            distance_matrix(a, [b])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pooled_statistics_property(self, seed):
        rng = np.random.default_rng(seed)
        server = LayerWeights(rng.normal(size=(4, 6)), rng.normal(size=6))
        clients = [LayerWeights(rng.normal(size=(4, 6)), rng.normal(size=6))
                   for _ in range(3)]
        pi = distance_matrix(server, clients)
        assert pi.shape == (6, 3)
        assert np.all(pi >= 0)


class TestThresholdAndSelection:
    def test_threshold_arithmetic(self):
        fcfg = FedDistConfig(beta=0.0)
        assert divergence_threshold(1, fcfg, mu=1.0, sigma=0.5) == pytest.approx(2.5)
        assert divergence_threshold(5, fcfg, mu=1.0, sigma=0.0) == pytest.approx(1.0)
        fcfg = FedDistConfig(beta=0.1)
        assert divergence_threshold(10, fcfg, mu=2.0, sigma=1.0) == pytest.approx(6.0)

    def test_threshold_strictly_increasing_in_round(self):
        fcfg = FedDistConfig(beta=0.2)
        values = [divergence_threshold(t, fcfg, mu=1.0, sigma=0.7)
                  for t in range(1, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_select_empty_when_all_below(self):
        assert select_divergent(np.full((4, 3), 0.5), 1.0) == []

    def test_select_single_entry(self):
        entries = np.full((4, 3), 0.1)
        entries[2, 1] = 9.0
        assert select_divergent(entries, 5.0) == [(1, 2, 9.0)]

    def test_matches_sort_and_truncate_oracle(self, rng):
        entries = rng.uniform(0, 10, size=(6, 4))
        threshold, cap = 5.0, 3
        picked = select_divergent(entries, threshold)[:cap]

        # oracle: gather, de-duplicate per unit keeping the farthest client,
        # sort descending, truncate
        best_per_unit = {}
        for d in range(6):
            for k in range(4):
                v = entries[d, k]
                if v > threshold and (d not in best_per_unit
                                      or v > best_per_unit[d][1]):
                    best_per_unit[d] = (k, v)
        expected = sorted(((k, d, v) for d, (k, v) in best_per_unit.items()),
                          key=lambda t: -t[2])[:cap]
        assert picked == expected

    def test_one_selection_per_unit_most_distant_wins(self):
        entries = np.zeros((2, 3))
        entries[0] = [7.0, 9.0, 8.0]
        assert select_divergent(entries, 1.0) == [(1, 0, 9.0)]


class TestFedDistRound:
    def test_identical_clients_bit_identical_to_fedavg(self):
        arch = dense_arch(4, 8, 3)
        server = init_model(arch, 20)
        clients = make_clients(arch, [10] * 5, CFG, seed=21, same_data=True,
                               same_train_seed=5)
        fa = fedavg_round(server, arch, clients, round_index=1)
        fd = feddist_round(server, arch, clients, FedDistConfig(), 1)
        assert models_bit_equal(fa.server, fd.server)
        assert fd.ledger.total_units_added == 0
        assert fd.ledger.sub_rounds == 0

    def test_unreachable_threshold_equals_fedavg(self):
        arch = dense_arch(4, 8, 3)
        server = init_model(arch, 22)
        clients = make_clients(arch, [10, 20, 30], CFG, seed=23)
        fcfg = FedDistConfig(beta=1e9)
        for t in range(1, 4):
            fa = fedavg_round(server, arch, clients, round_index=t)
            fd = feddist_round(server, arch, clients, fcfg, t)
            assert models_bit_equal(fa.server, fd.server)
            assert fd.ledger.total_units_added == 0
            server = fd.server

    def test_displacement_rig_appends_exactly_one_unit(self, monkeypatch):
        arch = dense_arch(4, 8, 3)
        server = init_model(arch, 24)
        cfg = TrainingConfig(local_epochs=1, learning_rate=0.05, batch_size=64)
        clients = make_clients(arch, [54, 6], cfg, seed=25)
        monkeypatch.setattr(aggregation, "_default_client_update",
                            displacement_hook(1, (0,)))
        out = feddist_round(server, arch, clients, FedDistConfig(beta=0.0), 1)
        assert len(out.ledger.growth) == 1
        event = out.ledger.growth[0]
        assert (event.layer, event.unit, event.client_id) == (0, 0, 1)
        assert out.server.shape_signature == (9, 3)
        assert out.ledger.sub_rounds == 1
        assert out.ledger.units_added == {0: 1}
        # every client came back conformed to the grown shape
        for model in out.client_models:
            assert model.shape_signature == (9, 3)

    def test_growth_cap_truncates_silently_into_ledger(self, monkeypatch):
        # wide layer + equal displacements: several units cross the pooled bar
        arch = dense_arch(4, 32, 3)
        server = init_model(arch, 26)
        cfg = TrainingConfig(local_epochs=1, learning_rate=0.0, batch_size=64)
        clients = make_clients(arch, [54, 6], cfg, seed=27)

        def displace_many(client, model, arch_, phase):
            trained = _default_client_update(client, model, arch_, phase)
            if phase == "main phase" and client.id == 1:
                layers = list(trained.layers)
                for unit in range(4):
                    nv = neuron_vector(layers[0], unit)
                    layers[0] = write_neuron(layers[0], unit, nv + 1000.0)
                trained = ModelWeights(tuple(layers))
            return trained

        fcfg = FedDistConfig(beta=0.0, max_new_units_per_layer_per_round=2)
        monkeypatch.setattr(aggregation, "_default_client_update", displace_many)
        out = feddist_round(server, arch, clients, fcfg, 1)
        assert out.ledger.units_added == {0: 2}
        assert out.ledger.truncated_selections == 2
        grown = out.ledger.layer_growth[0]
        assert (grown.layer, grown.candidates, len(grown.events)) == (0, 4, 2)

    def test_growth_monotone_and_coordinates_stable(self, monkeypatch):
        arch = dense_arch(4, 8, 3)
        server = init_model(arch, 28)
        cfg = TrainingConfig(local_epochs=1, learning_rate=0.02, batch_size=16)
        signatures = [server.shape_signature]
        for t in range(1, 5):
            clients = make_clients(arch, [40, 8], cfg, seed=29 + t,
                                   same_train_seed=None)
            monkeypatch.setattr(aggregation, "_default_client_update",
                                displacement_hook(1, (0,), unit=t % 8, shift=500.0))
            before = server
            out = feddist_round(server, arch, clients, FedDistConfig(beta=0.0), t)
            server = out.server
            signatures.append(server.shape_signature)
            # pre-existing coordinate block is where growth never reorders
            w_new = server.layers[0].incoming
            assert w_new.shape[1] >= before.layers[0].incoming.shape[1]
        widths = [s[0] for s in signatures]
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    def test_threshold_reads_the_pooled_statistics_of_the_matrix(self, monkeypatch):
        # the threshold gets the population mean and std of every entry of
        # the layer's distance matrix, as Python floats
        matrices, stats = [], []
        distances = aggregation.distance_matrix
        threshold = aggregation.divergence_threshold

        def distances_kept(server_layer, client_layers):
            matrices.append(distances(server_layer, client_layers))
            return matrices[-1]

        def threshold_seen(round_index, fcfg, mu, sigma):
            stats.append((mu, sigma))
            return threshold(round_index, fcfg, mu, sigma)

        arch = dense_arch(4, 8, 3)
        server = init_model(arch, 24)
        cfg = TrainingConfig(local_epochs=1, learning_rate=0.05, batch_size=64)
        clients = make_clients(arch, [54, 6], cfg, seed=25)
        monkeypatch.setattr(aggregation, "distance_matrix", distances_kept)
        monkeypatch.setattr(aggregation, "divergence_threshold", threshold_seen)
        monkeypatch.setattr(aggregation, "_default_client_update",
                            displacement_hook(1, (0,)))
        out = feddist_round(server, arch, clients, FedDistConfig(beta=0.0), 1)
        assert out.ledger.units_added == {0: 1}
        assert len(matrices) == len(stats) == 1
        (pi,), ((mu, sigma),) = matrices, stats
        assert pi.shape == (8, 2)
        assert type(mu) is float and type(sigma) is float
        assert mu == float(pi.mean()) and sigma == float(pi.std())

    @pytest.mark.parametrize("layerwise, sub_round_epochs", [(2, 2), (None, 3)])
    def test_sub_rounds_train_layerwise_epochs(self, monkeypatch, layerwise,
                                               sub_round_epochs):
        epochs = {}
        displaced = displacement_hook(2, (0, 1))

        def update(client, model, arch_, phase):
            epochs.setdefault(phase, set()).add(client.cfg.local_epochs)
            return displaced(client, model, arch_, phase)

        arch = conv_arch()
        server = init_model(arch, 36)
        cfg = TrainingConfig(local_epochs=3, learning_rate=0.05, batch_size=64)
        clients = make_clients(arch, [40, 30, 6], cfg, seed=37)
        monkeypatch.setattr(aggregation, "_default_client_update", update)
        fcfg = FedDistConfig(beta=0.0, layerwise_epochs=layerwise)
        out = feddist_round(server, arch, clients, fcfg, 1)
        assert out.ledger.units_added == {0: 1, 1: 1}
        assert epochs == {"main phase": {3},
                          "layer-wise sub-round of layer 0": {sub_round_epochs},
                          "layer-wise sub-round of layer 1": {sub_round_epochs}}

    def test_sub_round_uploads_cover_unfrozen_layers_only(self, monkeypatch):
        arch = dense_arch(4, 8, 3)
        server = init_model(arch, 30)
        cfg = TrainingConfig(local_epochs=1, learning_rate=0.05, batch_size=64)
        clients = make_clients(arch, [54, 6], cfg, seed=31)
        # the FedAvg baseline runs before the hook goes in: an unhooked round
        fa = fedavg_round(server, arch, clients, round_index=1)
        monkeypatch.setattr(aggregation, "_default_client_update",
                            displacement_hook(1, (0,)))
        out = feddist_round(server, arch, clients, FedDistConfig(beta=0.0), 1)
        from fedsim import byte_size
        grown = out.server
        # one sub-round: every client uploads exactly the layers above layer 0
        expected_extra_up = 2 * byte_size(grown, [1])
        assert out.ledger.bytes_up - fa.ledger.bytes_up == pytest.approx(
            expected_extra_up, abs=0)


class TestFedDistLifetimes:
    """On one thread, a sub-round conforms each client's start just before
    that client trains, and the model it was conformed from is gone then."""

    @staticmethod
    def grow_two_layers(monkeypatch, before, after=lambda phase, client_id, trained: None):
        """A round on a conv model where client 2's main phase displaces one
        unit of both growable layers; every client update calls
        before(phase, client_id) first and after(phase, client_id, trained)
        once it has trained."""
        arch = conv_arch()
        server = init_model(arch, 36)
        cfg = TrainingConfig(local_epochs=1, learning_rate=0.05, batch_size=64)
        clients = make_clients(arch, [40, 30, 6], cfg, seed=37)
        displaced = displacement_hook(2, (0, 1))

        def update(client, model, arch_, phase):
            before(phase, client.id)
            trained = displaced(client, model, arch_, phase)
            after(phase, client.id, trained)
            return trained

        monkeypatch.setattr(aggregation, "_default_client_update", update)
        out = feddist_round(server, arch, clients, FedDistConfig(beta=0.0), 1)
        assert out.ledger.units_added == {0: 1, 1: 1}

    def test_each_start_is_conformed_as_its_client_trains(self, monkeypatch):
        order = []
        conform = aggregation.conform_to_shape

        def conform_logged(client, server, upto_layer):
            order.append(("conform", upto_layer))
            return conform(client, server, upto_layer)

        monkeypatch.setattr(aggregation, "conform_to_shape", conform_logged)
        self.grow_two_layers(monkeypatch,
                             lambda phase, client_id: order.append((phase, client_id)))
        expected = [("main phase", k) for k in range(3)]
        for layer in (0, 1):
            for k in range(3):
                expected += [("conform", layer),
                             (f"layer-wise sub-round of layer {layer}", k)]
        assert order == expected

    def test_previous_model_is_released_before_its_client_trains(self, monkeypatch):
        latest, alive = {}, []

        def before(phase, client_id):
            if phase != "main phase":
                alive.append(latest[client_id]() is not None)

        def after(phase, client_id, trained):
            latest[client_id] = weakref.ref(trained)

        self.grow_two_layers(monkeypatch, before, after)
        assert alive == [False] * 6


class TestLedgers:
    def test_zero_growth_round_costs_fedavg_plus_metadata(self):
        arch = dense_arch(4, 8, 3)
        server = init_model(arch, 32)
        clients = make_clients(arch, [10, 20], CFG, seed=33, same_data=True,
                               same_train_seed=3)
        fa = fedavg_round(server, arch, clients)
        fd = feddist_round(server, arch, clients, FedDistConfig(), 1)
        meta = 2 * shape_metadata_size(server)
        assert fd.ledger.shape_metadata_bytes == meta
        assert fd.ledger.total_bytes == fa.ledger.total_bytes + meta
        fa_bytes = fa.ledger.total_bytes
        assert cost_ratio(fd.ledger, fa.ledger) == (fa_bytes + meta) / fa_bytes > 1

    def test_totals_additive_and_trajectory(self, monkeypatch):
        arch = dense_arch(4, 8, 3)
        server = init_model(arch, 34)
        cfg = TrainingConfig(local_epochs=1, learning_rate=0.0, batch_size=64)
        ledgers = []
        monkeypatch.setattr(aggregation, "_default_client_update",
                            displacement_hook(1, (0,)))
        for t in (1, 2):
            clients = make_clients(arch, [54, 6], cfg, seed=35)
            out = feddist_round(server, arch, clients, FedDistConfig(beta=0.0), t)
            server = out.server
            ledgers.append(out.ledger)
        summary = ledger_totals(ledgers)
        assert summary.total_bytes == sum(l.total_bytes for l in ledgers)
        assert summary.sub_rounds == 2
        assert summary.growth == ledgers[0].growth + ledgers[1].growth
        assert [e.layer for e in summary.growth] == [0, 0]
        assert summary.units_added == {0: 2}
        assert summary.round_index == 0

    def test_empty_sequence_is_zero_summary(self):
        summary = ledger_totals([])
        assert summary.total_bytes == 0
        assert summary.growth == []
        with pytest.raises(ValueError):
            cost_ratio(summary, summary)
