"""Guard for the benchmark's traced profile: perfbench/tracer.py wraps fedsim
functions at the module globals their callers look them up through.  A
refactor that calls one of them through a reference taken at import time
(a dispatch dict, a default argument) bypasses the wrapper, and the traced
run then reports zero for that function.  This test installs the tracer on
a one-round run of each benchmarked algorithm, FedDist and FedProx, and
of FedAvg, and checks that the spans every per-layer metric depends on are
still recorded, the round function's among them."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from fedsim.config import parse_config_dict
from fedsim.scheduler import run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

GROWING_ROUND = {
    "algorithm": "feddist",
    "rounds": 1,
    "local_epochs": 2,
    "seed": 11,
    "model": {"input": [128, 6], "layers": [
        {"kind": "dense", "width": 8, "activation": "relu"},
        {"kind": "softmax-output", "width": 4},
    ]},
    "training": {"learning_rate": 0.05, "batch_size": 16},
    "feddist": {"base_sigma_multiplier": 1.0},
    "data": {"synthetic": {"clients": 2, "classes": 4, "dirichlet_alpha": 0.5,
                           "samples_per_client": [1200, 1500]}},
}


# fedprox-wide-eval's scheduler.round.busy_s reads aggregation.fedprox_round.
PROX_ROUND = {**GROWING_ROUND, "algorithm": "fedprox"}
AVG_ROUND = {**GROWING_ROUND, "algorithm": "fedavg"}


@pytest.mark.parametrize("raw, spans", [
    (GROWING_ROUND, ("aggregation.feddist_round", "nn.train_local",
                     "aggregation.distance_matrix", "aggregation.select_divergent",
                     "fabric.append_neuron", "metrics.evaluate_generalization")),
    (PROX_ROUND, ("aggregation.fedprox_round", "nn.train_local",
                  "metrics.evaluate_generalization")),
    (AVG_ROUND, ("aggregation.fedavg_round", "nn.train_local",
                 "metrics.evaluate_generalization")),
], ids=["feddist", "fedprox", "fedavg"])
def test_tracer_sees_every_wrapped_call_site(monkeypatch, raw, spans):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        result = run_experiment(parse_config_dict(raw))
    finally:
        tracer.uninstall()
        tracer.discard_open()

    names = {span.name for span in tracer.spans}
    for name in spans:
        assert name in names, name
    frozen = {span.attrs["frozen_prefix"] for span in tracer.spans
              if span.name == "nn.train_local"}
    assert 0 in frozen
    if raw["algorithm"] == "feddist":
        assert sum(led.total_units_added for led in result.ledgers) > 0
        assert max(frozen) > 0
