"""Round-level federated aggregation: FedAvg, FedProx, and the
distance-driven growth algorithm (FedDist).

A FedDist round runs in phases:

  1. distribute the server model, every active client trains locally,
     and the results are weight-averaged by data fraction (as FedAvg);
  2. layer by layer (output excluded), compare each client's units against
     the averaged server units by Euclidean distance over the unit's
     incoming weights plus bias; entries above
     (beta * round + 3) * sigma + mu (statistics pooled over the whole
     layer's distance matrix) mark units specialized enough to be appended
     to the server layer, donor outgoing weights included;
  3. whenever a layer grew, clients receive the frozen stack up to that
     layer, retrain the layers above it, and the unfrozen layers are
     averaged back before the next layer is examined.

With identical clients (or an unreachable threshold) no unit ever crosses
the bar and the round collapses to FedAvg exactly, including bit-identical
output under shared seeds.

Determinism contract: clients are sorted by id before every reduction, so
round output does not depend on client execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .arch import ModelArch
from .container import byte_size, shape_metadata_size
from .fabric import (
    LayerWeights,
    ModelWeights,
    ShapeError,
    append_neuron,
    conform_to_shape,
    donor_successor_rows,
    neuron_vector,
    weighted_average,
)
from .nn import Batch, TrainingConfig, diverged_in, train_local

PHASE_MAIN = ("main",)


@dataclass(frozen=True)
class FedDistConfig:
    """Growth knobs: threshold = (beta * round + base_sigma_multiplier) * sigma + mu."""

    beta: float = 0.1
    base_sigma_multiplier: float = 3.0
    max_new_units_per_layer_per_round: int = 8
    layerwise_epochs: int | None = None  # None: reuse the client's local_epochs

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.base_sigma_multiplier <= 0:
            raise ValueError("base_sigma_multiplier must be positive")
        if self.max_new_units_per_layer_per_round < 0:
            raise ValueError("growth cap must be >= 0")
        if self.layerwise_epochs is not None and self.layerwise_epochs < 1:
            raise ValueError("layerwise_epochs must be >= 1")


@dataclass(frozen=True)
class ClientRuntime:
    """One active client's view for a single round."""

    id: int
    inputs: np.ndarray
    labels: np.ndarray
    cfg: TrainingConfig
    seed: int

    @property
    def n_k(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class DistanceMatrix:
    """Per-layer unit-by-client Euclidean distances with pooled statistics."""

    layer: int
    entries: np.ndarray  # [units, clients]
    mu: float
    sigma: float


@dataclass(frozen=True)
class Selection:
    client_pos: int
    unit: int
    distance: float


@dataclass(frozen=True)
class GrowthEvent:
    layer: int
    unit: int
    client_id: int
    distance: float


@dataclass
class CommLedger:
    """Per-round communication accounting (bytes on the wire, sub-rounds,
    units added per layer)."""

    round_index: int = 0
    algorithm: str = ""
    bytes_down: int = 0
    bytes_up: int = 0
    shape_metadata_bytes: int = 0
    sub_rounds: int = 0
    units_added: dict[int, int] = field(default_factory=dict)
    truncated_selections: int = 0

    @property
    def total_units_added(self) -> int:
        return sum(self.units_added.values())

    @property
    def total_bytes(self) -> int:
        return self.bytes_down + self.bytes_up


@dataclass(frozen=True)
class LedgerSummary:
    bytes_down: int
    bytes_up: int
    total_bytes: int
    sub_rounds: int
    shape_metadata_bytes: int
    truncated_selections: int
    units_per_layer: dict[int, int]
    growth_trajectory: tuple[int, ...]  # units added per round, in order


@dataclass(frozen=True)
class RoundOutcome:
    server: ModelWeights
    ledger: CommLedger
    client_models: dict[int, ModelWeights]
    growth: tuple[GrowthEvent, ...] = ()
    skipped: bool = False


def _default_client_update(client: ClientRuntime, model: ModelWeights,
                           arch: ModelArch, cfg: TrainingConfig, seed,
                           phase: tuple) -> ModelWeights:
    trained, _ = train_local(model, arch, Batch(client.inputs, client.labels),
                             cfg, seed)
    return trained


def _fractions(clients: list[ClientRuntime]) -> np.ndarray:
    n = sum(c.n_k for c in clients)
    if n == 0:
        raise ValueError("active clients hold no training data")
    return np.array([c.n_k / n for c in clients], dtype=np.float64)


def _fan_out(executor, update, jobs) -> list[ModelWeights]:
    """Run client updates, concurrently when an executor is given; results
    come back in job order so scheduling never affects the reduction.  A
    DivergenceError leaves naming the client and the phase."""
    def run(client, *rest):
        phase = rest[-1]
        name = ("main phase" if phase == PHASE_MAIN
                else f"layer-wise sub-round of layer {phase[1]}")
        with diverged_in(f"client {client.id}, {name}"):
            return update(client, *rest)

    if executor is None:
        return [run(*job) for job in jobs]
    futures = [executor.submit(run, *job) for job in jobs]
    return [f.result() for f in futures]


def _plain_round(server, arch, clients, *, algorithm, round_index,
                 proximal, client_update, executor) -> RoundOutcome:
    if not clients:
        return RoundOutcome(server=server, ledger=CommLedger(round_index, algorithm),
                            client_models={}, skipped=True)
    clients = sorted(clients, key=lambda c: c.id)
    fractions = _fractions(clients)
    update = client_update or _default_client_update
    ledger = CommLedger(round_index, algorithm)
    size = byte_size(server)

    jobs = []
    for client in clients:
        cfg = client.cfg
        if proximal:
            cfg = replace(cfg, reference_weights=server)
        ledger.bytes_down += size
        jobs.append((client, server, arch, cfg, client.seed, PHASE_MAIN))
    models = _fan_out(executor, update, jobs)
    ledger.bytes_up += sum(byte_size(m) for m in models)

    new_server = weighted_average(models, fractions)
    return RoundOutcome(server=new_server, ledger=ledger,
                        client_models={c.id: m for c, m in zip(clients, models)})


def fedavg_round(server: ModelWeights, arch: ModelArch,
                 clients: list[ClientRuntime], *, round_index: int = 0,
                 client_update=None, executor=None) -> RoundOutcome:
    """One FedAvg round: distribute, train, average by data fraction.

    An empty active pool is an explicit no-op (outcome.skipped is True).
    """
    return _plain_round(server, arch, clients, algorithm="fedavg",
                        round_index=round_index, proximal=False,
                        client_update=client_update, executor=executor)


def fedprox_round(server: ModelWeights, arch: ModelArch,
                  clients: list[ClientRuntime], *, round_index: int = 0,
                  client_update=None, executor=None) -> RoundOutcome:
    """FedAvg round where each client optimizes the proximal objective
    against the distributed server model (reference is set here)."""
    return _plain_round(server, arch, clients, algorithm="fedprox",
                        round_index=round_index, proximal=True,
                        client_update=client_update, executor=executor)


def _unit_matrix(layer: LayerWeights) -> np.ndarray:
    flat = layer.incoming.reshape(-1, layer.out_width)
    return np.vstack([flat, layer.bias[None, :]]).T.astype(np.float64)


def distance_matrix(server_layer: LayerWeights, client_layers,
                    layer_index: int = 0) -> DistanceMatrix:
    """Entry (d, k): Euclidean distance between server unit d and client k's
    unit d (incoming weights plus bias).  mu/sigma are pooled over every
    entry of the matrix (population std)."""
    client_layers = list(client_layers)
    if not client_layers:
        raise ValueError("no client layers")
    ref = server_layer.incoming.shape
    server_units = _unit_matrix(server_layer)
    columns = []
    for k, layer in enumerate(client_layers):
        if layer.incoming.shape != ref or layer.bias.shape != server_layer.bias.shape:
            raise ShapeError(
                f"client {k} layer shape {layer.incoming.shape} != server {ref}"
            )
        diff = server_units - _unit_matrix(layer)
        columns.append(np.linalg.norm(diff, axis=1))
    entries = np.stack(columns, axis=1)
    return DistanceMatrix(layer=layer_index, entries=entries,
                          mu=float(entries.mean()), sigma=float(entries.std()))


def divergence_threshold(round_index: int, fcfg: FedDistConfig,
                         mu: float, sigma: float) -> float:
    """(beta * round + base multiplier) * sigma + mu; linear penalty in the
    round index raises the bar as training progresses."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return (fcfg.beta * round_index + fcfg.base_sigma_multiplier) * sigma + mu


def select_divergent(pi: DistanceMatrix, threshold: float,
                     cap: int | None = None) -> list[Selection]:
    """Entries strictly above the threshold, most distant first, at most one
    client per unit coordinate (the most distant wins), truncated to cap."""
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    candidates = [
        Selection(int(k), int(d), float(pi.entries[d, k]))
        for d, k in np.argwhere(pi.entries > threshold)
    ]
    candidates.sort(key=lambda s: (-s.distance, s.unit, s.client_pos))
    picked: list[Selection] = []
    seen_units: set[int] = set()
    for cand in candidates:
        if cand.unit in seen_units:
            continue
        seen_units.add(cand.unit)
        picked.append(cand)
    if cap is not None:
        picked = picked[:cap]
    return picked


def _widen_bytes(before: ModelWeights, after: ModelWeights, layer: int) -> int:
    """Raw float bytes of the successor rows appended while growing `layer`."""
    succ_b = before.layers[layer + 1]
    succ_a = after.layers[layer + 1]
    return (succ_a.incoming.size - succ_b.incoming.size) * succ_a.incoming.dtype.itemsize


def feddist_round(server: ModelWeights, arch: ModelArch,
                  clients: list[ClientRuntime], fcfg: FedDistConfig,
                  round_index: int, *, client_update=None,
                  executor=None) -> RoundOutcome:
    """One full FedDist round (main phase, per-layer growth, layer-wise
    retraining sub-rounds).  See the module docstring for the phases."""
    main = _plain_round(server, arch, clients, algorithm="feddist",
                        round_index=round_index, proximal=False,
                        client_update=client_update, executor=executor)
    if main.skipped:
        return main
    clients = sorted(clients, key=lambda c: c.id)
    fractions = _fractions(clients)
    update = client_update or _default_client_update
    ledger = main.ledger
    cap = fcfg.max_new_units_per_layer_per_round

    # Shape broadcast: a growing model's geometry is re-announced every round.
    ledger.shape_metadata_bytes = len(clients) * shape_metadata_size(server)
    ledger.bytes_down += ledger.shape_metadata_bytes

    models = list(main.client_models.values())
    w = main.server

    growth: list[GrowthEvent] = []
    n_layers = len(w.layers)
    for layer in range(n_layers - 1):  # the output layer is never grown
        pi = distance_matrix(w.layers[layer],
                             [m.layers[layer] for m in models], layer)
        threshold = divergence_threshold(round_index, fcfg, pi.mu, pi.sigma)
        selections = select_divergent(pi, threshold, cap=None)
        kept = selections[:cap]
        ledger.truncated_selections += len(selections) - len(kept)
        if not kept:
            continue

        before = w
        for sel in kept:
            donor = models[sel.client_pos]
            donor_id = clients[sel.client_pos].id
            source = neuron_vector(donor.layers[layer], sel.unit,
                                   origin=(donor_id, layer, sel.unit))
            rows = donor_successor_rows(donor, layer, sel.unit)
            w = append_neuron(w, layer, source, rows)
            growth.append(GrowthEvent(layer, sel.unit, donor_id, sel.distance))
        ledger.units_added[layer] = ledger.units_added.get(layer, 0) + len(kept)

        # Layer-wise sub-round: freeze the grown stack, retrain what is above.
        ledger.sub_rounds += 1
        frozen_bytes = byte_size(w, range(layer + 1)) + _widen_bytes(before, w, layer)
        upper = range(layer + 1, n_layers)
        jobs = []
        for client, model in zip(clients, models):
            conformed = conform_to_shape(model, w, upto_layer=layer)
            ledger.bytes_down += frozen_bytes
            lw_cfg = replace(client.cfg,
                             local_epochs=fcfg.layerwise_epochs or client.cfg.local_epochs,
                             frozen_prefix=layer + 1)
            seed = np.random.SeedSequence(client.seed, spawn_key=(layer + 1,))
            jobs.append((client, conformed, arch, lw_cfg, seed, ("layerwise", layer)))
        models = _fan_out(executor, update, jobs)
        ledger.bytes_up += sum(byte_size(m, upper) for m in models)
        averaged = weighted_average(models, fractions)
        w = ModelWeights(w.layers[:layer + 1] + averaged.layers[layer + 1:])

    return RoundOutcome(server=w, ledger=ledger,
                        client_models={c.id: m for c, m in zip(clients, models)},
                        growth=tuple(growth))


def ledger_totals(ledgers) -> LedgerSummary:
    """Additive aggregation of per-round ledgers."""
    ledgers = list(ledgers)
    units: dict[int, int] = {}
    for led in ledgers:
        for layer, count in led.units_added.items():
            units[layer] = units.get(layer, 0) + count
    return LedgerSummary(
        bytes_down=sum(l.bytes_down for l in ledgers),
        bytes_up=sum(l.bytes_up for l in ledgers),
        total_bytes=sum(l.total_bytes for l in ledgers),
        sub_rounds=sum(l.sub_rounds for l in ledgers),
        shape_metadata_bytes=sum(l.shape_metadata_bytes for l in ledgers),
        truncated_selections=sum(l.truncated_selections for l in ledgers),
        units_per_layer=units,
        growth_trajectory=tuple(l.total_units_added for l in ledgers),
    )


def cost_ratio(summary: LedgerSummary, baseline: LedgerSummary) -> float:
    """Total-byte ratio of one run against a baseline (e.g. FedDist/FedAvg)."""
    if baseline.total_bytes == 0:
        raise ValueError("baseline moved zero bytes")
    return summary.total_bytes / baseline.total_bytes
