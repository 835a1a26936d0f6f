"""Round-level federated aggregation: FedAvg, FedProx, and the
distance-driven growth algorithm (FedDist).

A FedDist round runs in phases:

  1. fedavg_round: distribute the server model, every active client
     trains locally, and the results are weight-averaged by data fraction;
  2. layer by layer (output excluded), compare each client's units against
     the averaged server units by Euclidean distance over the unit's
     incoming weights plus bias; entries above (beta * round + 3) * sigma
     + mu (statistics pooled over the layer's distance matrix) mark units
     specialized enough to be appended to the server layer, donor outgoing
     weights included, and the layer's LayerGrowth record goes on the ledger;
  3. whenever a layer grew, phase 1's exchange runs again on the layers
     above it: clients receive the frozen stack up to that layer, retrain
     the layers above it, and only those are averaged back before the next
     layer is examined.  Each client's start is its previous model conformed
     to the grown server just before that client trains, and the previous
     model goes at that moment, so on one thread a sub-round holds the
     models it has trained and one start.

With identical clients (or an unreachable threshold) no unit ever crosses
the bar and the round collapses to FedAvg exactly, including bit-identical
output under shared seeds.

Determinism contract: clients are sorted by id before every reduction, so
round output does not depend on client execution order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
from .seeds import sequence


@dataclass(frozen=True)
class FedDistConfig:
    """Growth knobs: threshold = (beta * round + base_sigma_multiplier) * sigma + mu."""

    beta: float = 0.1
    base_sigma_multiplier: float = 3.0
    max_new_units_per_layer_per_round: int = 8
    layerwise_epochs: int | None = None  # None: reuse the client's local_epochs

    def __post_init__(self) -> None:
        for name in ("beta", "base_sigma_multiplier"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    """One active client's view of one phase of a round: its data, and the
    phase's training config and seed."""

    id: int
    data: Batch
    cfg: TrainingConfig
    seed: int | np.random.SeedSequence


@dataclass(frozen=True)
class GrowthEvent:
    layer: int
    unit: int
    client_id: int
    distance: float


@dataclass(frozen=True)
class LayerGrowth:
    """One layer a FedDist round examined: the number of units above the
    threshold, and the growth events kept under the per-round cap."""

    layer: int
    candidates: int
    events: tuple[GrowthEvent, ...]


@dataclass
class CommLedger:
    """Communication accounting of one round (or, from ledger_totals, of a
    span of rounds): bytes on the wire and one LayerGrowth per examined
    layer, in examination order; growth, units_added, total_units_added,
    sub_rounds (one per grown layer) and truncated_selections read them."""

    round_index: int = 0
    bytes_down: int = 0
    bytes_up: int = 0
    shape_metadata_bytes: int = 0
    layer_growth: list[LayerGrowth] = field(default_factory=list)

    @property
    def growth(self) -> list[GrowthEvent]:
        return [event for rec in self.layer_growth for event in rec.events]

    @property
    def units_added(self) -> dict[int, int]:
        """Units appended per layer, layers in order of first growth."""
        return dict(Counter(event.layer for event in self.growth))

    @property
    def total_units_added(self) -> int:
        return len(self.growth)

    @property
    def sub_rounds(self) -> int:
        return sum(1 for rec in self.layer_growth if rec.events)

    @property
    def truncated_selections(self) -> int:
        return sum(rec.candidates - len(rec.events) for rec in self.layer_growth)

    @property
    def total_bytes(self) -> int:
        return self.bytes_down + self.bytes_up


class RoundOutcome(NamedTuple):
    """What a round returns, unpacked as (server, ledger, client models):
    the new server model, the round's ledger, and the model each active
    client trained in the round's last phase, in client-id order (a FedDist
    round's last phase is its last sub-round, if a layer grew)."""

    server: ModelWeights
    ledger: CommLedger
    client_models: list[ModelWeights]


def _default_client_update(client: ClientRuntime, model: ModelWeights,
                           arch: ModelArch, phase: str) -> ModelWeights:
    trained, _ = train_local(model, arch, client.data, client.cfg, client.seed)
    return trained


def train_clients(clients: list[ClientRuntime], models: list[ModelWeights],
                  arch: ModelArch, phase: str, *, executor=None) -> list[ModelWeights]:
    """Train each client from its start model with
    _default_client_update(client, model, arch, phase), concurrently when
    an executor is given; results come back in client order so scheduling
    never affects a reduction.  A DivergenceError leaves prefixed with the
    client and the phase."""

    def run(client, model):
        with diverged_in(f"client {client.id}, {phase}"):
            return _default_client_update(client, model, arch, phase)

    return list((executor.map if executor else map)(run, clients, models))


def _fractions(clients: list[ClientRuntime]) -> np.ndarray:
    n = sum(len(c.data) for c in clients)
    if n == 0:
        raise ValueError("the active pool holds no training data")
    return np.array([len(c.data) / n for c in clients], dtype=np.float64)


def _exchange(server, arch, clients, starts, phase, ledger, *, down, first=0,
              executor):
    """Send `down` bytes to every client, train each from its start model,
    and average the uploaded layers `first` and above by data fraction on
    top of the server's own lower layers.  `starts` may be an iterator: it
    is drawn from as each client begins training (all at once through an
    executor).  Returns the new server model and the trained client models
    in client order."""
    fractions = _fractions(clients)
    ledger.bytes_down += down * len(clients)
    models = train_clients(clients, starts, arch, phase, executor=executor)
    upper = range(first, len(server.layers))
    ledger.bytes_up += sum(byte_size(m, upper) for m in models)
    averaged = weighted_average([ModelWeights(m.layers[first:]) for m in models],
                                fractions)
    return ModelWeights(server.layers[:first] + averaged.layers), models


def fedavg_round(server: ModelWeights, arch: ModelArch,
                 clients: list[ClientRuntime], *, round_index: int = 0,
                 executor=None) -> RoundOutcome:
    """One FedAvg round: distribute, train, average by data fraction.
    An empty client list raises ValueError."""
    clients = sorted(clients, key=lambda c: c.id)
    ledger = CommLedger(round_index)
    new_server, models = _exchange(server, arch, clients, [server] * len(clients),
                                   "main phase", ledger, down=byte_size(server),
                                   executor=executor)
    return RoundOutcome(new_server, ledger, models)


def fedprox_round(server: ModelWeights, arch: ModelArch,
                  clients: list[ClientRuntime], *, round_index: int = 0,
                  executor=None) -> RoundOutcome:
    """FedAvg round where each client optimizes the proximal objective
    against the distributed server model (reference is set here)."""
    clients = [replace(c, cfg=replace(c.cfg, reference_weights=server))
               for c in clients]
    return fedavg_round(server, arch, clients, round_index=round_index,
                        executor=executor)


def _unit_matrix(layer: LayerWeights) -> np.ndarray:
    flat = layer.incoming.reshape(-1, layer.out_width)
    return np.vstack([flat, layer.bias[None, :]]).T.astype(np.float64)


def distance_matrix(server_layer: LayerWeights, client_layers) -> np.ndarray:
    """The [units, clients] matrix whose entry (d, k) is the Euclidean
    distance between server unit d and client k's unit d (incoming weights
    plus bias)."""
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
    return np.stack(columns, axis=1)


def divergence_threshold(round_index: int, fcfg: FedDistConfig,
                         mu: float, sigma: float) -> float:
    """(beta * round + base multiplier) * sigma + mu; linear penalty in the
    round index raises the bar as training progresses."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return (fcfg.beta * round_index + fcfg.base_sigma_multiplier) * sigma + mu


def select_divergent(pi: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """(client position, unit, distance) for each unit of the [units,
    clients] matrix pi whose largest entry is strictly above the threshold,
    most distant first, each with its most distant client (the lowest
    position on a tie)."""
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    top = pi.max(axis=1)
    units = sorted(np.flatnonzero(top > threshold), key=lambda d: -top[d])
    return [(int(pi[d].argmax()), int(d), float(top[d])) for d in units]


def _grow_layer(w, models, clients, layer, fcfg, round_index):
    """Phase 2 on one layer.  Returns the grown server, the layer's LayerGrowth
    and the bytes of the donors' successor rows, which the sub-round sends down."""
    pi = distance_matrix(w.layers[layer], [m.layers[layer] for m in models])
    threshold = divergence_threshold(round_index, fcfg, float(pi.mean()), float(pi.std()))
    selections = select_divergent(pi, threshold)
    events, widened = [], 0
    for pos, unit, distance in selections[:fcfg.max_new_units_per_layer_per_round]:
        donor = models[pos]
        rows = donor_successor_rows(donor, layer, unit)
        w = append_neuron(w, layer, neuron_vector(donor.layers[layer], unit), rows)
        widened += rows.nbytes
        events.append(GrowthEvent(layer, unit, clients[pos].id, distance))
    return w, LayerGrowth(layer, len(selections), tuple(events)), widened


def _conformed(models: list[ModelWeights], w: ModelWeights, layer: int):
    """Each of `models` in order, conformed to `w` up to `layer` when it is
    asked for.  The list is emptied as it goes, so a model is released as
    soon as its start exists."""
    models.reverse()
    while models:
        yield conform_to_shape(models.pop(), w, upto_layer=layer)


def feddist_round(server: ModelWeights, arch: ModelArch,
                  clients: list[ClientRuntime], fcfg: FedDistConfig,
                  round_index: int, *, executor=None) -> RoundOutcome:
    """One full FedDist round (main phase, per-layer growth, layer-wise
    retraining sub-rounds).  See the module docstring for the phases."""
    w, ledger, models = fedavg_round(server, arch, clients, round_index=round_index,
                                     executor=executor)
    clients = sorted(clients, key=lambda c: c.id)

    # Shape broadcast: a growing model's geometry is re-announced every round.
    ledger.shape_metadata_bytes = len(clients) * shape_metadata_size(server)
    ledger.bytes_down += ledger.shape_metadata_bytes

    for layer in range(len(w.layers) - 1):  # the output layer is never grown
        w, record, widened = _grow_layer(w, models, clients, layer, fcfg, round_index)
        ledger.layer_growth.append(record)
        if not record.events:
            continue
        # Layer-wise sub-round: freeze the grown stack, retrain what is above.
        sub_round = [
            replace(c, seed=sequence("feddist sub-round of layer l", c.seed, layer + 1),
                    cfg=replace(c.cfg, frozen_prefix=layer + 1,
                                local_epochs=fcfg.layerwise_epochs or c.cfg.local_epochs))
            for c in clients]
        w, models = _exchange(
            w, arch, sub_round, _conformed(models, w, layer),
            f"layer-wise sub-round of layer {layer}", ledger,
            down=byte_size(w, range(layer + 1)) + widened, first=layer + 1,
            executor=executor)

    return RoundOutcome(w, ledger, models)


def ledger_totals(ledgers) -> CommLedger:
    """The sum of per-round ledgers, growth records concatenated in round
    order.  A total spans rounds, so it keeps the default round_index."""
    total = CommLedger()
    for led in ledgers:
        total.bytes_down += led.bytes_down
        total.bytes_up += led.bytes_up
        total.shape_metadata_bytes += led.shape_metadata_bytes
        total.layer_growth += led.layer_growth
    return total


def cost_ratio(ledger: CommLedger, baseline: CommLedger) -> float:
    """Total-byte ratio of one run's ledger against a baseline's (e.g.
    FedDist/FedAvg totals)."""
    if baseline.total_bytes == 0:
        raise ValueError("baseline moved zero bytes")
    return ledger.total_bytes / baseline.total_bytes
