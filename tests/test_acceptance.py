"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import fedsim.aggregation as aggregation
from fedsim import (
    ExperimentConfig,
    FedDistConfig,
    LayerSpec,
    ModelArch,
    ModelWeights,
    ScenarioSpec,
    SyntheticSpec,
    TrainingConfig,
    active_clients,
    distance_matrix,
    fedavg_round,
    feddist_round,
    fedprox_round,
    forward,
    gradient_check,
    init_model,
    run_experiment,
    stratified_split,
    window,
    z_normalize,
)
from fedsim.aggregation import ClientRuntime, _default_client_update
from fedsim.container import byte_size, shape_metadata_size
from fedsim.fabric import LayerWeights, neuron_vector
from fedsim.nn import Batch

from conftest import (conv_arch, dense_arch, make_clients, models_bit_equal,
                      write_neuron)


def report(criterion: int, label: str, started: float, detail: str = "") -> None:
    elapsed = time.monotonic() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion:02d} PASS {label} ({elapsed:.1f}s){suffix}")


def displacement_hook(displaced: int, layers, unit=0, shift=1000.0,
                      rounds=None):
    def update(client, model, arch, phase):
        trained = _default_client_update(client, model, arch, phase)
        round_ok = rounds is None or update.round_index in rounds
        if phase == "main phase" and client.id == displaced and round_ok:
            new_layers = list(trained.layers)
            for layer in layers:
                nv = neuron_vector(new_layers[layer], unit)
                new_layers[layer] = write_neuron(new_layers[layer], unit,
                                                 nv + shift)
            trained = ModelWeights(tuple(new_layers))
        return trained

    update.round_index = 0
    return update


def random_toy_arch(rng) -> ModelArch:
    if rng.random() < 0.5:
        return dense_arch(int(rng.integers(3, 10)), int(rng.integers(2, 8)),
                          int(rng.integers(2, 5)))
    length = int(rng.integers(10, 18))
    kernel = int(rng.integers(2, 5))
    layers = [LayerSpec("conv1d", width=int(rng.integers(2, 5)), kernel=kernel,
                        activation="relu")]
    if rng.random() < 0.5:
        layers.append(LayerSpec("maxpool1d", kernel=2))
    layers.append(LayerSpec("dense", width=int(rng.integers(4, 8)),
                            activation="relu"))
    layers.append(LayerSpec("softmax-output", width=int(rng.integers(2, 5))))
    return ModelArch(length, int(rng.integers(1, 3)), tuple(layers))


def test_criterion_01_aggregation_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        arch = random_toy_arch(rng)
        server = init_model(arch, int(rng.integers(1 << 30)))
        cfg = TrainingConfig(local_epochs=1,
                             learning_rate=float(rng.uniform(0.01, 0.2)),
                             batch_size=8)
        sizes = [int(rng.integers(4, 20)) for _ in range(int(rng.integers(2, 6)))]
        clients = make_clients(arch, sizes, cfg, seed=trial)
        out = fedavg_round(server, arch, clients)
        n = sum(sizes)
        for li in range(len(server.layers)):
            inc = sum((s / n) * out.client_models[k].layers[li].incoming
                      for k, s in enumerate(sizes))
            bias = sum((s / n) * out.client_models[k].layers[li].bias
                       for k, s in enumerate(sizes))
            worst = max(worst,
                        float(np.abs(out.server.layers[li].incoming - inc).max()),
                        float(np.abs(out.server.layers[li].bias - bias).max()))
    assert worst < 1e-12
    assert time.monotonic() - started < 10.0
    report(1, "fedavg_round matches brute-force weighted sum", started,
           f"max dev {worst:.2e}, 100 trials")


def test_criterion_02_distance_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        units = int(rng.integers(2, 9))
        n_clients = int(rng.integers(2, 6))
        if trial % 2 == 0:
            shape = (int(rng.integers(2, 13)), units)
        else:
            shape = (int(rng.integers(2, 5)), int(rng.integers(1, 4)), units)
        server = LayerWeights(rng.normal(size=shape), rng.normal(size=units))
        clients = [LayerWeights(rng.normal(size=shape), rng.normal(size=units))
                   for _ in range(n_clients)]
        pi = distance_matrix(server, clients)
        for d in range(units):
            for k in range(n_clients):
                acc = 0.0
                s_flat = server.incoming[..., d].ravel()
                c_flat = clients[k].incoming[..., d].ravel()
                for a, b in zip(s_flat.tolist(), c_flat.tolist()):
                    acc += (a - b) ** 2
                acc += (server.bias[d] - clients[k].bias[d]) ** 2
                worst = max(worst, abs(pi.entries[d, k] - math.sqrt(acc)))
    assert worst < 1e-12
    assert time.monotonic() - started < 10.0
    report(2, "distance_matrix matches scalar-loop Euclidean oracle", started,
           f"max dev {worst:.2e}, dense + conv")


def test_criterion_03_gradient_fidelity():
    started = time.monotonic()
    rng = np.random.default_rng(303)

    # every layer kind in one stack
    arch = conv_arch()
    model = init_model(arch, 33)
    batch = Batch(rng.normal(size=(3, 20, 2)), rng.integers(0, 4, 3))
    err_small = gradient_check(model, arch, batch, TrainingConfig())
    assert err_small < 1e-4

    # reference CNN shape at one-eighth scale, deterministic parameter sample
    arch8 = ModelArch(128, 6, (
        LayerSpec("conv1d", width=24, kernel=16, activation="relu"),
        LayerSpec("maxpool1d", kernel=4),
        LayerSpec("dense", width=128, activation="relu"),
        LayerSpec("softmax-output", width=8),
    ))
    model8 = init_model(arch8, 88)
    batch8 = Batch(rng.normal(size=(2, 128, 6)), rng.integers(0, 8, 2))
    err_big = gradient_check(model8, arch8, batch8, TrainingConfig(),
                             max_params_per_tensor=25)
    assert err_big < 1e-4
    assert time.monotonic() - started < 30.0
    report(3, "gradient fidelity on dense/conv/pool/softmax", started,
           f"errors {err_small:.1e} and {err_big:.1e} vs 1e-4")


def test_criterion_04_feddist_degeneracy_20_rounds():
    started = time.monotonic()
    arch = dense_arch(6, 16, 4)
    cfg = TrainingConfig(local_epochs=2, learning_rate=0.05, batch_size=8)
    rng = np.random.default_rng(404)
    x, y = rng.normal(size=(32, 6)), rng.integers(0, 4, 32)

    server_avg = init_model(arch, 44)
    server_dist = server_avg
    total_units = 0
    for t in range(1, 21):
        clients = [ClientRuntime(k, Batch(x, y), cfg, seed=7000 + t) for k in range(5)]
        out_avg = fedavg_round(server_avg, arch, clients, round_index=t)
        out_dist = feddist_round(server_dist, arch, clients, FedDistConfig(), t)
        server_avg, server_dist = out_avg.server, out_dist.server
        total_units += out_dist.ledger.total_units_added
        assert models_bit_equal(server_avg, server_dist), f"round {t} diverged"
    assert total_units == 0
    assert time.monotonic() - started < 120.0
    report(4, "identical clients: FedDist == FedAvg bitwise for 20 rounds",
           started, "zero units added")


def test_criterion_05_controlled_growth_rig(monkeypatch):
    started = time.monotonic()
    arch = dense_arch(4, 8, 3)
    server = init_model(arch, 55)
    cfg = TrainingConfig(local_epochs=1, learning_rate=0.05, batch_size=64)
    rng = np.random.default_rng(505)
    clients = make_clients(arch, [54, 6], cfg, seed=56)

    hook = displacement_hook(1, (0,), rounds={2})
    monkeypatch.setattr(aggregation, "_default_client_update", hook)
    growth_by_round = {}
    for t in (1, 2):
        hook.round_index = t
        out = feddist_round(server, arch, clients, FedDistConfig(beta=0.0), t)
        growth_by_round[t] = out
        server = out.server

    assert growth_by_round[1].ledger.total_units_added == 0
    assert growth_by_round[1].ledger.sub_rounds == 0
    event = growth_by_round[2].ledger.growth
    assert len(event) == 1
    assert (event[0].layer, event[0].unit, event[0].client_id) == (0, 0, 1)
    assert growth_by_round[2].ledger.sub_rounds == 1
    assert server.shape_signature == (9, 3)

    # grown forward pass against a direct widened matrix product
    x = rng.normal(size=(6, 4))
    hidden = np.maximum(x @ server.layers[0].incoming + server.layers[0].bias, 0)
    logits = hidden @ server.layers[1].incoming + server.layers[1].bias
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    oracle = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(forward(server, arch, x), oracle, atol=1e-12)
    assert time.monotonic() - started < 60.0
    report(5, "displacement rig: one unit appended at layer 0, round 2",
           started, "forward matches matrix oracle; sub-round ran")


def test_criterion_06_communication_accounting(monkeypatch):
    started = time.monotonic()

    # zero-growth rounds cost FedAvg bytes plus the fixed shape broadcast
    arch = dense_arch(6, 16, 4)
    server = init_model(arch, 66)
    cfg = TrainingConfig(local_epochs=1, learning_rate=0.05, batch_size=8)
    clients = make_clients(arch, [10, 10, 10], cfg, seed=67, same_data=True,
                           same_train_seed=9)
    fa = fedavg_round(server, arch, clients)
    fd = feddist_round(server, arch, clients, FedDistConfig(), 1)
    meta = 3 * shape_metadata_size(server)
    assert fd.ledger.total_units_added == 0
    assert fd.ledger.total_bytes == fa.ledger.total_bytes + meta

    # forced growth at every growable layer of an equal-size 3-layer model
    d = 64
    arch3 = ModelArch(d, 1, (
        LayerSpec("dense", width=d, activation="relu"),
        LayerSpec("dense", width=d, activation="relu"),
        LayerSpec("softmax-output", width=d),
    ))
    server3 = init_model(arch3, 68)
    sizes = byte_size(server3, [0]), byte_size(server3, [1]), byte_size(server3, [2])
    assert len(set(sizes)) == 1  # equal-size layers by construction
    cfg0 = TrainingConfig(local_epochs=1, learning_rate=0.0, batch_size=64)
    rng = np.random.default_rng(606)
    big = ClientRuntime(0, Batch(rng.normal(size=(135, d)), rng.integers(0, d, 135)),
                        cfg0, 1)
    small = ClientRuntime(1, Batch(rng.normal(size=(15, d)), rng.integers(0, d, 15)),
                          cfg0, 2)
    fa3 = fedavg_round(server3, arch3, [big, small])
    monkeypatch.setattr(aggregation, "_default_client_update",
                        displacement_hook(1, (0, 1)))
    fd3 = feddist_round(server3, arch3, [big, small], FedDistConfig(beta=0.0), 1)
    assert fd3.ledger.units_added == {0: 1, 1: 1}
    ratio = fd3.ledger.total_bytes / fa3.ledger.total_bytes
    expected = 1 + (3 - 1) / 2
    assert abs(ratio - expected) <= 0.1 * expected
    report(6, "comm accounting: zero-growth exact; forced-growth ratio",
           started, f"ratio {ratio:.3f} vs {expected:.1f} within 10%")


DESK_ARCH = ModelArch(128, 6, (
    LayerSpec("dense", width=32, activation="relu"),
    LayerSpec("softmax-output", width=8),
))
DESK_TRAINING = TrainingConfig(local_epochs=5, learning_rate=0.05, batch_size=16)
DESK_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def desk_runs():
    """K=10, C=8, alpha=0.1, dense-32 model, T=50, E=5 over three seeds.
    FedDist runs on two client threads, whose reports equal one thread's:
    it takes 15 s a run there against 20 s on one.  FedAvg and local-only
    stay on one, which takes them 3 s against 5 s on two."""
    runs = {}
    for seed in DESK_SEEDS:
        data = SyntheticSpec(clients=10, classes=8, dirichlet_alpha=0.1,
                             samples_per_client=(3000, 6000), seed=seed)
        for algorithm in ("fedavg", "feddist", "local-only"):
            cfg = ExperimentConfig(
                algorithm=algorithm, model=DESK_ARCH, data=data, rounds=50,
                training=DESK_TRAINING, seed=seed, eval_every=5,
                threads=2 if algorithm == "feddist" else 1)
            runs[(algorithm, seed)] = run_experiment(cfg)
    return runs


def test_criterion_07_directional_local_vs_fl_gap(desk_runs):
    started = time.monotonic()
    pers_wins = 0
    for seed in DESK_SEEDS:
        fl_gen = np.mean([desk_runs[(a, seed)].reports[-1].gen_mean
                          for a in ("fedavg", "feddist")])
        local_gen = desk_runs[("local-only", seed)].reports[-1].gen_mean
        assert fl_gen - local_gen >= 0.10, (
            f"seed {seed}: FL gen {fl_gen:.3f} vs local {local_gen:.3f}")
        local_pers = max(r.pers_mean
                         for r in desk_runs[("local-only", seed)].reports)
        fl_pers = max(max(r.pers_mean for r in desk_runs[(a, seed)].reports)
                      for a in ("fedavg", "feddist"))
        if local_pers >= fl_pers:
            pers_wins += 1
    assert pers_wins >= 2
    report(7, "FL generalization beats local by >= 10 points on every seed",
           started, f"local personalization tops {pers_wins}/3 seeds")


def test_criterion_08_fedprox_reductions():
    started = time.monotonic()
    arch = dense_arch(6, 12, 4)
    plain_cfg = TrainingConfig(local_epochs=2, learning_rate=0.05, batch_size=8)
    prox_cfg = TrainingConfig(local_epochs=2, learning_rate=0.05, batch_size=8,
                              proximal_coefficient=10.0)
    zero_cfg = TrainingConfig(local_epochs=2, learning_rate=0.05, batch_size=8,
                              proximal_coefficient=0.0)

    # mu = 0 reproduces FedAvg bit-identically
    server = init_model(arch, 80)
    clients = make_clients(arch, [12, 18, 24], plain_cfg, seed=81)
    zeroed = [ClientRuntime(c.id, c.data, zero_cfg, c.seed)
              for c in clients]
    assert models_bit_equal(fedavg_round(server, arch, clients).server,
                            fedprox_round(server, arch, zeroed).server)

    # mu = 10 strictly shrinks mean client drift at every measured round
    def mean_drift(outcome, reference):
        drifts = []
        for model in outcome.client_models.values():
            acc = 0.0
            for la, lb in zip(model.layers, reference.layers):
                acc += float(np.sum((la.incoming - lb.incoming) ** 2))
                acc += float(np.sum((la.bias - lb.bias) ** 2))
            drifts.append(math.sqrt(acc))
        return float(np.mean(drifts))

    server_avg = server_prox = init_model(arch, 82)
    for t in range(1, 6):
        clients = make_clients(arch, [12, 18, 24], plain_cfg, seed=82 + t,
                               same_train_seed=None)
        proxed = [ClientRuntime(c.id, c.data, prox_cfg, c.seed)
                  for c in clients]
        out_avg = fedavg_round(server_avg, arch, clients, round_index=t)
        out_prox = fedprox_round(server_prox, arch, proxed, round_index=t)
        assert mean_drift(out_prox, server_prox) < mean_drift(out_avg, server_avg), (
            f"round {t}: proximal drift not smaller")
        server_avg, server_prox = out_avg.server, out_prox.server
    report(8, "FedProx: mu=0 bitwise FedAvg; mu=10 shrinks drift each round",
           started)


def test_criterion_09_asynchronous_scenarios(desk_runs):
    started = time.monotonic()

    # closed-form cardinalities for t = 1..500
    pool, interval = 15, 14
    inc = ScenarioSpec(kind="incrementing", start_count=2, interval_rounds=interval)
    dec = ScenarioSpec(kind="decrementing", interval_rounds=interval)
    sam = ScenarioSpec(kind="interchanging", sample_size=8)
    full = ScenarioSpec(kind="full")
    for t in range(1, 501):
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(3, t)))
        assert len(active_clients(full, t, pool, rng)) == pool
        assert (len(active_clients(inc, t, pool, rng))
                == min(pool, 2 + (t - 1) // interval))
        assert (len(active_clients(dec, t, pool, rng))
                == max(1, pool - (t - 1) // interval))
        assert len(active_clients(sam, t, pool, rng)) == 8

    # decrementing growth run still generalizes beyond the local baseline
    arch = ModelArch(128, 6, (
        LayerSpec("dense", width=16, activation="relu"),
        LayerSpec("softmax-output", width=8),
    ))
    wins = 0
    for seed in DESK_SEEDS:
        data = SyntheticSpec(clients=8, classes=8, dirichlet_alpha=0.1,
                             samples_per_client=(2000, 4000), seed=seed)
        dec_cfg = ExperimentConfig(
            algorithm="feddist", model=arch, data=data, rounds=30,
            training=DESK_TRAINING, seed=seed, eval_every=10,
            scenario=ScenarioSpec(kind="decrementing", interval_rounds=4))
        loc_cfg = ExperimentConfig(
            algorithm="local-only", model=arch, data=data, rounds=30,
            training=DESK_TRAINING, seed=seed, eval_every=10)
        dec_gen = run_experiment(dec_cfg).reports[-1].gen_mean
        loc_gen = run_experiment(loc_cfg).reports[-1].gen_mean
        if dec_gen > loc_gen:
            wins += 1
    assert wins >= 2
    report(9, "scenario schedules exact for t=1..500; decrementing beats local",
           started, f"{wins}/3 seeds")


def test_criterion_10_manifest_rerun_determinism(tmp_path):
    started = time.monotonic()
    from fedsim.cli import main

    config = """
algorithm: feddist
rounds: 4
local_epochs: 2
seed: 17
model:
  input: [128, 6]
  layers:
    - {kind: dense, width: 8, activation: relu}
    - {kind: softmax-output, width: 4}
training:
  learning_rate: 0.05
  batch_size: 16
data:
  synthetic:
    clients: 3
    classes: 4
    dirichlet_alpha: 0.3
    samples_per_client: [1200, 1600]
"""
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(config)
    out1, out2 = tmp_path / "first", tmp_path / "replay"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
    report(10, "rerun from manifest produces byte-identical CSV", started)


def test_criterion_11_data_plane_fixtures():
    started = time.monotonic()
    rng = np.random.default_rng(111)

    # window count for N = 1000
    series = Batch(rng.normal(size=(1000, 6)), np.zeros(1000, dtype=np.intp))
    assert len(window(series)) == 14

    # z-normalization moments
    normalized = z_normalize(Batch(rng.normal(3.0, 2.5, size=(800, 6)),
                                   np.zeros(800, dtype=np.intp)))
    assert np.abs(normalized.inputs.mean(axis=0)).max() < 1e-9
    assert np.abs(normalized.inputs.std(axis=0) - 1).max() < 1e-9

    # exact 80/20 stratified split for divisible class counts
    labels = np.repeat(np.arange(4), 10)
    ws = Batch(rng.normal(size=(40, 4, 1)), labels)
    train, test = stratified_split(ws, 0.8, seed=7)
    assert np.bincount(train.labels).tolist() == [8, 8, 8, 8]
    assert np.bincount(test.labels).tolist() == [2, 2, 2, 2]
    report(11, "data fixtures: 14 windows, z-norm moments, exact 80/20 split",
           started)
