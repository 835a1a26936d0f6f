"""The benchmark's correctness gate, run by pytest: config seed 0 of each
perfbench workload goes through run_experiment, and perfbench/run.py's
check_rounds compares every round with perfbench/reference.json (exact
parameter counts, growth, sub-rounds and bytes; scores within 1e-9).  A
rounding change that moves a growth decision or a score fails here, not
only in a benchmark run."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from fedsim.config import parse_config_dict
from fedsim.scheduler import run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["feddist-desk", "fedprox-wide-eval"])
def test_config_seed_zero_passes_the_gate(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # run_experiment pins BLAS to one thread, the path the reference was
    # recorded on.  Importing perfbench/run.py writes "1" into these
    # variables; setting them through monkeypatch first makes teardown
    # restore them, so later tests' subprocesses do not inherit them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")

    cfg = parse_config_dict(workloads.WORKLOADS[workload].render(0))
    result = run_experiment(cfg)
    active = [tuple(sorted(report.per_client_personalization))
              for report in result.reports]
    expected = json.loads(run.REFERENCE.read_text())[workload]["0"]
    problems = run.check_rounds(cfg, run.round_records(result), active, expected)
    assert len(problems) == cfg.rounds
    assert not any(problems), problems
