"""Config parsing and CLI behavior: strict schema, run artifacts,
manifest reruns, compare output."""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import fedsim.scheduler as scheduler
from fedsim.aggregation import FedDistConfig
from fedsim.arch import ArchError, LayerSpec
from fedsim.cli import main, summarize_run, _load_run
from fedsim.config import ConfigError, config_to_dict, parse_config, parse_config_dict
from fedsim.container import deserialize_model
from fedsim.metrics import CSV_COLUMNS
from fedsim.nn import TrainingConfig
from fedsim.scheduler import CsvDataSpec, host_facts, openblas_threading

REPO = Path(__file__).resolve().parents[1]

MINIMAL = """
algorithm: fedavg
model:
  input: [128, 6]
  layers:
    - {kind: dense, width: 8, activation: relu}
    - {kind: softmax-output, width: 4}
data:
  synthetic:
    clients: 2
    classes: 4
    dirichlet_alpha: 0.5
"""

TINY_RUN = """
algorithm: %s
rounds: 3
local_epochs: 2
seed: 11
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
    clients: 2
    classes: 4
    dirichlet_alpha: 0.5
    samples_per_client: [1200, 1500]
"""


# Client 0 gets 2 windows, of singleton classes, so both go to train.
UNTESTED = """
algorithm: %s
rounds: 1
seed: 1
model:
  input: [128, 6]
  layers:
    - {kind: dense, width: 8, activation: relu}
    - {kind: softmax-output, width: 4}
data:
  synthetic:
    clients: 3
    classes: 4
    dirichlet_alpha: 5.0
    samples_per_client: [190, 400]
    segment_range: [40, 80]
    seed: 1
"""


def write(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_export(path, rows=1000, segment=200):
    """A 6-channel export at 50 Hz: noise around a per-label offset, labels
    drawn per segment-row segment."""
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, rows // segment).repeat(segment)
    values = rng.normal(size=(rows, 6)) + 0.5 * labels[:, None]
    lines = ["timestamp,ax,ay,az,gx,gy,gz,label"]
    lines += [f"{i / 50:.2f}," + ",".join(f"{v:.6f}" for v in row) + f",{label}"
              for i, (row, label) in enumerate(zip(values, labels))]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseConfig:
    def test_minimal_config_fills_documented_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.rounds == 200
        assert cfg.training.local_epochs == 5
        assert cfg.scenario.kind == "full"
        assert cfg.feddist.beta == 0.1
        assert cfg.precision == "float64"

    def test_unknown_key_is_named(self, tmp_path):
        path = write(tmp_path, MINIMAL + "foo: 1\n")
        with pytest.raises(ConfigError, match="'foo'"):
            parse_config(path)

    def test_nested_unknown_key_carries_path(self, tmp_path):
        path = write(tmp_path, MINIMAL + "scenario:\n  jitter: 2\n")
        with pytest.raises(ConfigError, match="scenario.jitter"):
            parse_config(path)

    def test_sample_size_above_pool_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL +
                     "scenario:\n  kind: interchanging\n  sample_size: 8\n")
        with pytest.raises(ConfigError, match="sample_size"):
            parse_config(path)

    def test_data_section_required_and_exclusive(self, tmp_path):
        with pytest.raises(ConfigError, match="data"):
            parse_config(write(tmp_path, MINIMAL.split("data:")[0]))
        both = MINIMAL + "  csv:\n    paths: [x.csv]\n    classes: 4\n"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(write(tmp_path, both))

    def test_yaml_syntax_error_cites_line(self, tmp_path):
        path = write(tmp_path, "algorithm: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            parse_config(path)

    def test_wrong_type_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("rounds: 200", "") + "rounds: soon\n")
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(path)

    def test_model_class_mismatch_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("classes: 4", "classes: 5"))
        with pytest.raises(ConfigError, match="classes"):
            parse_config(path)

    def test_resolved_config_round_trips(self, tmp_path):
        cfg = parse_config(write(tmp_path, TINY_RUN % "feddist"))
        assert parse_config_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("old, new, message", [
        ("[128, 6]", "[128.9, 6]", "model.input[0] must be int, got float"),
        ("[128, 6]", "[128, true]", "model.input[1] must be int, got bool"),
        ("[128, 6]", "[abc, 6]", "model.input[0] must be int, got str"),
        ("alpha: 0.5\n", "alpha: 0.5\n    samples_per_client: [1500.7, 2000.2]\n",
         "data.synthetic.samples_per_client[0] must be int, got float"),
        ("alpha: 0.5\n", "alpha: 0.5\n    segment_range: [x, 320]\n",
         "data.synthetic.segment_range[0] must be int, got str"),
        ("fedavg\n", "fedavg\nrounds: abc\n", "rounds must be int, got str"),
    ])
    def test_elements_typed_strictly(self, tmp_path, capsys, old, new, message):
        path = write(tmp_path, MINIMAL.replace(old, new))
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            parse_config(path)
        assert main(["validate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_pool_activation_rejected(self, tmp_path):
        with pytest.raises(ArchError, match="maxpool1d"):
            LayerSpec("maxpool1d", kernel=2, activation="relu")
        pool = "    - {kind: maxpool1d, kernel: 4, activation: relu}\n"
        text = MINIMAL.replace("    - {kind: dense", pool + "    - {kind: dense")
        with pytest.raises(ConfigError, match=re.escape("model.layers[0]: maxpool1d")):
            parse_config(write(tmp_path, text))

    def test_csv_clients_key_is_unknown(self, tmp_path):
        # The pool size of a csv source is its number of paths; there is no
        # separate key that could disagree with it.
        with pytest.raises(ConfigError, match="unknown key 'clients'"):
            parse_config(write(tmp_path, CSV_CONFIG + "clients: 3\n"))


CSV_CONFIG = """
algorithm: fedavg
model:
  input: [128, 6]
  layers:
    - {kind: dense, width: 8, activation: relu}
    - {kind: softmax-output, width: 4}
data:
  csv:
    paths: [a.csv]
    classes: 4
"""


@pytest.mark.parametrize("key, value", [
    ("train_fraction", 1.5), ("train_fraction", 0.0), ("window_step", 0),
    ("window_length", -3), ("sample_rate_hz", 0), ("target_hz", 0.0),
    ("classes", 1), ("paths", []),
])
def test_csv_section_validated(tmp_path, key, value):
    with pytest.raises(ValueError, match=key):
        CsvDataSpec(**{"paths": ("a.csv",), "classes": 4, key: value})
    line = f"    {key}: {value}\n"
    keep = "" if key == "classes" else "    classes: 4\n"
    text = CSV_CONFIG.replace("    paths: [a.csv]\n", "" if key == "paths" else
                              "    paths: [a.csv]\n")
    path = write(tmp_path, text.replace("    classes: 4\n", keep + line))
    with pytest.raises(ConfigError, match=f"data.csv: {key}"):
        parse_config(path)
    assert main(["validate", "--config", str(path)]) == 2


def key_paths(mapping, prefix=""):
    """Dotted paths of every key of nested mappings (not into lists)."""
    paths = set()
    for key, value in mapping.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= key_paths(value, f"{prefix}{key}.")
    return paths


EVERY_KEY = {
    "algorithm": "fedprox", "rounds": 7, "local_epochs": 3, "seed": 9,
    "precision": "float32", "eval_every": 2, "threads": 2,
    "model": {"input": [128, 3], "layers": [
        {"kind": "conv1d", "width": 5, "kernel": 4, "activation": "relu"},
        {"kind": "maxpool1d", "kernel": 2, "activation": "none"},
        {"kind": "dense", "width": 7, "activation": "relu"},
        {"kind": "softmax-output", "width": 3, "activation": "none"},
    ]},
    "training": {"learning_rate": 0.02, "batch_size": 8, "proximal_coefficient": 0.5},
    "feddist": {"beta": 0.2, "base_sigma_multiplier": 2.5,
                "max_new_units_per_layer_per_round": 3, "layerwise_epochs": 4},
    "scenario": {"kind": "interchanging", "start_count": 3, "interval_rounds": 5,
                 "sample_size": 2},
    "data": {"synthetic": {
        "clients": 4, "classes": 3, "dirichlet_alpha": 2.0,
        "samples_per_client": [100, 200], "rotation": False, "channels": 3,
        "sample_rate": 25.0, "segment_range": [10, 20],
        "noise": 0.1, "train_fraction": 0.7, "seed": 42,
    }},
}

CSV_NULL_TARGET = {
    "algorithm": "fedavg", "rounds": 4, "local_epochs": 2, "seed": 3,
    "precision": "float64", "eval_every": 1, "threads": 1,
    "model": {**EVERY_KEY["model"], "input": [64, 6]},
    "training": {"learning_rate": 0.05, "batch_size": 16, "proximal_coefficient": 0.01},
    "feddist": {"beta": 0.1, "base_sigma_multiplier": 3.0,
                "max_new_units_per_layer_per_round": 8},
    "scenario": {"kind": "full", "start_count": 2, "interval_rounds": 14,
                 "sample_size": 1},
    "data": {"csv": {"paths": ["a.csv", "b.csv"], "classes": 3,
                     "sample_rate_hz": 100.0, "target_hz": None,
                     "train_fraction": 0.6, "window_length": 64, "window_step": 32}},
}


@pytest.mark.parametrize("raw", [EVERY_KEY, CSV_NULL_TARGET], ids=["synthetic", "csv"])
def test_every_key_round_trips(raw):
    cfg = parse_config_dict(raw)
    dumped = config_to_dict(cfg)
    assert parse_config_dict(dumped) == cfg
    assert key_paths(dumped) == key_paths(raw)
    assert dumped == raw


def test_readme_config_reference_matches_schema(capsys):
    readme = (REPO / "README.md").read_text().split("## Config reference", 1)[1]
    block = yaml.safe_load(readme.split("```yaml\n", 1)[1].split("```", 1)[0])
    assert key_paths(config_to_dict(parse_config_dict(block))) == key_paths(block)
    desk = REPO / "configs" / "feddist-desk.yaml"
    assert main(["validate", "--config", str(desk)]) == 0
    assert "feddist" in capsys.readouterr().out


class TestRunCommand:
    def test_tiny_run_completes_quickly(self, tmp_path):
        cfg = write(tmp_path, TINY_RUN % "fedavg")
        out = tmp_path / "run1"
        started = time.monotonic()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert time.monotonic() - started < 10.0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["resolved_config"]["algorithm"] == "fedavg"
        with open(out / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert list(rows[0].keys()) == CSV_COLUMNS
        model = deserialize_model((out / "model.bin").read_bytes())
        assert model.shape_signature == (8, 4)
        assert (out / "shape.txt").read_text().splitlines() == [
            "dense 768 8", "dense 8 4"]
        records = [json.loads(line) for line in
                   (out / "rounds.jsonl").read_text().splitlines()]
        assert [r["round"] for r in records] == [1, 2, 3]

    def test_local_only_run_writes_no_model(self, tmp_path):
        cfg = write(tmp_path, TINY_RUN % "local-only")
        out = tmp_path / "local"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["rounds_evaluated"] == 3
        assert manifest["outputs"]["model"] is None
        assert manifest["outputs"]["shape"] is None
        assert not (out / "model.bin").exists()
        assert not (out / "shape.txt").exists()

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg = write(tmp_path, TINY_RUN % "feddist")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
        assert (out1 / "rounds.jsonl").read_bytes() == (out2 / "rounds.jsonl").read_bytes()
        assert (out1 / "model.bin").read_bytes() == (out2 / "model.bin").read_bytes()

    def test_replay_warns_when_the_host_differs(self, tmp_path, capsys):
        cfg = write(tmp_path, TINY_RUN % "fedavg")
        first = tmp_path / "first"
        assert main(["run", "--config", str(cfg), "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        tampered = {**manifest, "host": {**manifest["host"], "numpy": "0.0.0",
                                         "source_sha256": "0" * 64}}
        hostless = {k: v for k, v in manifest.items() if k != "host"}
        capsys.readouterr()
        stderr = {}
        for name, text in [("same", manifest), ("tampered", tampered),
                           ("hostless", hostless)]:
            replay = write(tmp_path, json.dumps(text), name=f"{name}.json")
            assert main(["run", "--config", str(replay),
                         "--out", str(tmp_path / name)]) == 0
            stderr[name] = capsys.readouterr().err.splitlines()
            assert ((tmp_path / name / "rounds.csv").read_bytes()
                    == (first / "rounds.csv").read_bytes())
        assert stderr["same"] == stderr["hostless"] == []
        source, numpy_line = stderr["tampered"]
        assert source.startswith(f"warning: host source_sha256 was '{'0' * 64}' ")
        assert numpy_line == (f"warning: host numpy was '0.0.0' in the manifest, "
                              f"is '{np.__version__}' here; outputs may differ")

    def test_replay_names_a_different_blas_kernel(self, tmp_path, capsys):
        # the kernel OpenBLAS picks at load time changes a run's bits
        cfg = write(tmp_path, TINY_RUN % "fedavg")
        first = tmp_path / "first"
        assert main(["run", "--config", str(cfg), "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["host"]["blas_core"] = "Prescott"
        replay = write(tmp_path, json.dumps(manifest), name="replay.json")
        capsys.readouterr()
        assert main(["run", "--config", str(replay), "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: host blas_core was 'Prescott' in the manifest, "
            f"is {host_facts()['blas_core']!r} here; outputs may differ"]

    def test_manifest_records_what_the_bits_depend_on(self, tmp_path):
        cfg = write(tmp_path, TINY_RUN % "fedavg")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        host = json.loads((out / "manifest.json").read_text())["host"]
        assert set(host) == {"source_sha256", "numpy", "blas", "blas_threads",
                             "blas_core"}
        digest = hashlib.sha256()
        for path in sorted((REPO / "src" / "fedsim").glob("*.py")):
            for part in (path.name.encode(), path.read_bytes()):
                digest.update(len(part).to_bytes(8, "big") + part)
        assert host["source_sha256"] == digest.hexdigest()
        assert host["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert host["blas"] == f"{blas['name']} {blas['version']}"
        assert host["blas_threads"] == (1 if openblas_threading() else None)
        assert host["blas_core"] == host_facts()["blas_core"]
        # The synthetic source draws from data.synthetic.seed, which defaults
        # to the experiment seed, through its own spawn-key domains; FedDist's
        # sub-rounds spawn from each client's round training seed.
        derivation = json.loads((out / "manifest.json").read_text())["seeds"]["derivation"]
        for domain in ("data.synthetic.seed", "(101) class signatures",
                       "(102,k) client series", "(103,k) client split",
                       "feddist sub-round of layer l: SeedSequence(<(2,t,k) seed>, "
                       "spawn_key=(l+1,))"):
            assert domain in derivation

    def test_source_hash_sees_where_each_byte_lives(self, tmp_path, monkeypatch):
        # Moving a line across a module boundary or adding an empty module
        # leaves the sources' concatenated bytes as they were.
        sources = sorted((REPO / "src" / "fedsim").glob("*.py"))
        original = {p.name: p.read_bytes() for p in sources}
        first, second = sources[1].name, sources[2].name
        body, last = original[first].rstrip(b"\n").rsplit(b"\n", 1)
        moved = {**original, first: body + b"\n", second: last + b"\n" + original[second]}
        added = {**original, "zz_empty.py": b""}

        def digest(name, files):
            package = tmp_path / name / "fedsim"
            package.mkdir(parents=True)
            for file, data in files.items():
                (package / file).write_bytes(data)
            monkeypatch.setattr(scheduler, "__file__", str(package / "scheduler.py"))
            return host_facts()["source_sha256"]

        assert b"".join(moved.values()) == b"".join(original.values())
        hashes = {digest(name, files) for name, files in
                  [("original", original), ("moved", moved), ("added", added)]}
        assert len(hashes) == 3

    @pytest.mark.parametrize("rounds, eval_every", [(6, 1), (6, 3), (7, 3)],
                             ids=["1", "3", "3-rounds-7"])
    def test_shape_dump_consistent_with_csv_growth(self, tmp_path, rounds,
                                                   eval_every):
        # Rows total the growth of every round since the previous row, and
        # the final round is always a row, so the invariant holds whatever
        # the evaluation cadence.  A low threshold makes this config grow in
        # rounds that are not evaluated.
        text = (TINY_RUN % "feddist").replace("rounds: 3\n", f"rounds: {rounds}\n")
        cfg = write(tmp_path, text + f"eval_every: {eval_every}\n"
                    "feddist:\n  base_sigma_multiplier: 1.0\n")
        out = tmp_path / "fd"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        total_added = sum(int(r["units_added"]) for r in rows)
        first_width = int((out / "shape.txt").read_text().split("\n")[0].split()[-1])
        assert first_width > 8
        assert first_width == 8 + total_added

    def test_client_without_windows_is_named(self, tmp_path, capsys):
        # 100 samples are fewer than one 128-sample window
        text = (TINY_RUN % "fedavg").replace("[1200, 1500]", "[100, 100]")
        out = tmp_path / "short"
        with pytest.warns(UserWarning, match="shorter than one window"):
            code = main(["run", "--config", str(write(tmp_path, text)),
                         "--out", str(out)])
        assert code == 1
        assert "client 0 has no training windows" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox", "feddist",
                                           "local-only", "centralized"])
    def test_client_without_test_windows_is_named(self, tmp_path, capsys,
                                                  algorithm):
        # Only centralized scores no client's own test set.
        out = tmp_path / "untested"
        with pytest.warns(UserWarning, match="single window"):
            code = main(["run", "--config", str(write(tmp_path, UNTESTED % algorithm)),
                         "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        if algorithm == "centralized":
            assert code == 0 and manifest["status"] == "completed"
            return
        assert code == 1
        assert "client 0 has no test windows" in capsys.readouterr().err
        assert manifest["status"] == "failed"

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, TINY_RUN % "fedavg")
        out = write(tmp_path, "kept\n", name="taken")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert out.read_text() == "kept\n"
        assert not list(tmp_path.rglob("manifest.json"))

    def test_failed_run_marks_manifest(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, TINY_RUN % "fedavg")
        out = tmp_path / "fail"
        import fedsim.cli as cli_mod

        def boom(cfg, on_report=None):
            on_report and None
            raise RuntimeError("dataset vanished")

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "dataset vanished" in manifest["error"]
        assert (out / "rounds.csv").exists()  # partial output flushed

    @pytest.mark.parametrize("second", ["local-only", "failed"])
    def test_a_run_clears_an_earlier_runs_model(self, tmp_path, capsys, second):
        out = tmp_path / "reused"
        grown = (TINY_RUN % "feddist").replace("rounds: 3\n", "rounds: 1\n")
        assert main(["run", "--config", str(write(tmp_path, grown)),
                     "--out", str(out)]) == 0
        assert (out / "model.bin").exists() and (out / "shape.txt").exists()
        if second == "local-only":
            text, code, status = TINY_RUN % "local-only", 0, "completed"
        else:
            missing = json.dumps(str(tmp_path / "missing.csv"))
            text, code, status = CSV_CONFIG.replace("[a.csv]", f"[{missing}]"), 1, "failed"
        assert main(["run", "--config", str(write(tmp_path, text, name="second.yaml")),
                     "--out", str(out)]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == status
        assert manifest["outputs"]["model"] is None
        assert manifest["outputs"]["shape"] is None
        assert not (out / "model.bin").exists()
        assert not (out / "shape.txt").exists()

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, MINIMAL + "foo: 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "foo" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--threads", "0", "threads must be >= 1"),
    ])
    def test_bad_override_exits_2_before_the_manifest(self, tmp_path, capsys,
                                                      flag, value, message):
        cfg = write(tmp_path, TINY_RUN % "fedavg")
        out = tmp_path / "bad"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     flag, value]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", [["validate"], ["run", "--out", "x"]],
                         ids=["validate", "run"])
def test_config_that_is_not_utf8_names_the_file(tmp_path, capsys, monkeypatch,
                                                 command):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "latin1.yaml"
    cfg.write_bytes(MINIMAL.encode() + "# caf\u00e9\n".encode("latin-1"))
    assert main([*command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {cfg}: not UTF-8")
    assert not (tmp_path / "x").exists()


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        cfg = write(tmp_path, MINIMAL)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "fedavg" in capsys.readouterr().out

    def test_invalid(self, tmp_path):
        cfg = write(tmp_path, MINIMAL + "rounds: 0\n")
        assert main(["validate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, value, message", [
        ("segment_range", "[0, 0]", "lower bound must be >= 1"),
        ("segment_range", "[50, 20]", "range is inverted"),
        ("samples_per_client", "[0, 200]", "lower bound must be >= 1"),
        ("sample_rate", "0", "must be positive"),
        ("noise", "-1.0", "must be >= 0"),
    ])
    def test_synthetic_ranges_rejected(self, tmp_path, capsys, key, value, message):
        # a zero-length segment would make the generator loop forever
        cfg = write(tmp_path, MINIMAL + f"    {key}: {value}\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert f"data.synthetic: {key} {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, line", [
        ("    device:\n      scale_range: [0.8, 1.2]\n",
         "error: unknown key 'device' at data.synthetic.device"),
        ("    channels: 4\n    rotation: true\n",
         "error: data.synthetic: rotation mixes 3-axis blocks, but channels is 4; "
         "set rotation: false"),
    ], ids=["device-section", "rotation-without-3-axis-blocks"])
    def test_device_key_that_changes_nothing_rejected(self, tmp_path, capsys, extra, line):
        # z_normalize undoes a per-channel gain and offset, and rotation
        # mixes 3-axis blocks: the manifest would record keys the run ignores
        assert main(["validate", "--config", str(write(tmp_path, MINIMAL + extra))]) == 2
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("old, new, where", [
        ("    - {kind: dense", "    - {kind: maxpool1d, width: 99, kernel: 4}\n"
         "    - {kind: dense", "model.layers[0]: maxpool1d layer takes no width"),
        ("{kind: dense, width: 8,", "{kind: dense, width: 8, kernel: 5,",
         "model.layers[0]: dense layer takes no kernel"),
        ("{kind: softmax-output, width: 4}", "{kind: softmax-output, width: 4, kernel: 3}",
         "model.layers[1]: softmax-output layer takes no kernel"),
    ], ids=["maxpool1d-width", "dense-kernel", "softmax-output-kernel"])
    def test_layer_field_its_kind_ignores_rejected(self, tmp_path, capsys, old, new,
                                                   where):
        # the manifest would record the field as if it shaped the model
        text = MINIMAL.replace(old, new)
        assert text != MINIMAL
        assert main(["validate", "--config", str(write(tmp_path, text))]) == 2
        assert capsys.readouterr().err == f"error: {where}\n"

    @pytest.mark.parametrize("text, line", [
        (MINIMAL + "seed: -1\n", "error: seed must be >= 0, got -1"),
        (MINIMAL + "    seed: -1\n", "error: data.synthetic: seed must be >= 0, got -1"),
        (CSV_CONFIG + "seed: -1\n", "error: seed must be >= 0, got -1"),
    ], ids=["experiment", "synthetic", "csv"])
    def test_negative_seed_rejected(self, tmp_path, capsys, text, line):
        # the message names the key the file holds
        assert main(["validate", "--config", str(write(tmp_path, text))]) == 2
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("text, path, shown", [
        (MINIMAL + "training:\n  learning_rate: .nan\n", "training.learning_rate", "nan"),
        (MINIMAL + "training:\n  learning_rate: .inf\n", "training.learning_rate", "inf"),
        (MINIMAL + "feddist:\n  beta: .nan\n", "feddist.beta", "nan"),
        (MINIMAL + "feddist:\n  beta: -.inf\n", "feddist.beta", "-inf"),
        (MINIMAL.replace("alpha: 0.5", "alpha: .nan"), "data.synthetic.dirichlet_alpha",
         "nan"),
        (MINIMAL + "training:\n  learning_rate: 1" + "0" * 400 + "\n",
         "training.learning_rate", "an int beyond the float range"),
        (MINIMAL.replace("alpha: 0.5", "alpha: -1" + "0" * 400),
         "data.synthetic.dirichlet_alpha", "an int beyond the float range"),
    ], ids=["learning_rate-nan", "learning_rate-inf", "beta-nan", "beta--inf",
            "dirichlet_alpha-nan", "learning_rate-huge-int", "dirichlet_alpha-huge-int"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, text, path, shown):
        # nan passes every range check (each comparison is False)
        assert main(["validate", "--config", str(write(tmp_path, text))]) == 2
        assert capsys.readouterr().err == f"error: {path} must be finite, got {shown}\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["learning_rate", "proximal_coefficient", "beta",
                                       "base_sigma_multiplier", "sample_rate_hz",
                                       "target_hz"])
    def test_non_finite_field_rejected_in_python(self, field, value):
        # a config built in Python rejects what the file reader rejects: a
        # nan or inf passed every range check and failed mid-run
        make = {"learning_rate": TrainingConfig, "proximal_coefficient": TrainingConfig,
                "beta": FedDistConfig, "base_sigma_multiplier": FedDistConfig}.get(
            field, functools.partial(CsvDataSpec, paths=("a.csv",), classes=2))
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            make(**{field: value})

    @pytest.mark.parametrize("bad", ["missing.csv", "folder"])
    def test_csv_paths_must_be_files(self, tmp_path, capsys, bad):
        write_export(tmp_path / "a.csv")
        (tmp_path / "folder").mkdir()
        good = write(tmp_path, CSV_CONFIG.replace("[a.csv]", f"[{tmp_path / 'a.csv'}]"))
        assert main(["validate", "--config", str(good)]) == 0
        assert capsys.readouterr().out.startswith("ok: fedavg")
        paths = f"[{tmp_path / 'a.csv'}, {tmp_path / bad}]"
        cfg = write(tmp_path, CSV_CONFIG.replace("[a.csv]", paths))
        assert main(["validate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: data.csv.paths[1]: {tmp_path / bad} is not a file\n"

    @pytest.mark.parametrize("text, warning, message", [
        ((TINY_RUN % "fedavg").replace("[1200, 1500]", "[100, 100]"),
         "shorter than one window", "client 0 has no training windows"),
        (UNTESTED % "fedavg", "single window", "client 0 has no test windows"),
        # one window a client, each kept in train: nothing to pool for scoring
        (MINIMAL.replace("fedavg", "centralized").replace(
            "alpha: 0.5\n", "alpha: 0.5\n    samples_per_client: [150, 150]\n"
            "    segment_range: [40, 80]\n") + "rounds: 1\n",
         "single window", "no client has test windows"),
    ], ids=["train", "test", "pooled-test"])
    def test_client_without_windows_exits_2(self, tmp_path, capsys, text,
                                            warning, message):
        # validate builds every client's windows, as run does before round 1
        with pytest.warns(UserWarning, match=warning):
            code = main(["validate", "--config", str(write(tmp_path, text))])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not list(tmp_path.rglob("manifest.json"))

    def test_unparsable_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("timestamp,ax,ay,az,gx,gy,gz,label\n")
        cfg = write(tmp_path, CSV_CONFIG.replace("[a.csv]", f"[{path}]"))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 2: no data rows after the header\n")

    @pytest.mark.parametrize("text, model_input, windows", [
        (MINIMAL, "[64, 6]", "[128, 6]"),
        (MINIMAL.replace("alpha: 0.5\n", "alpha: 0.5\n    channels: 3\n"),
         "[128, 6]", "[128, 3]"),
        (CSV_CONFIG, "[128, 3]", "[128, 6]"),
        (CSV_CONFIG + "    window_length: 64\n", "[128, 6]", "[64, 6]"),
    ], ids=["synthetic-length", "synthetic-channels", "csv-channels", "csv-length"])
    def test_model_input_must_match_windows(self, tmp_path, capsys, text,
                                            model_input, windows):
        text = text.replace("input: [128, 6]", f"input: {model_input}")
        assert main(["validate", "--config", str(write(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert f"model input {model_input}" in err
        assert f"data's {windows} windows" in err


class TestCompareCommand:
    @pytest.fixture()
    def two_runs(self, tmp_path):
        cfg = write(tmp_path, TINY_RUN % "fedavg")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        return outs

    def test_identical_runs_identical_rows(self, two_runs, capsys):
        assert main(["compare", str(two_runs[0]), str(two_runs[1])]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        a = lines[-2].split(maxsplit=1)[1]
        b = lines[-1].split(maxsplit=1)[1]
        assert a == b

    def test_values_match_recomputation_from_csv(self, two_runs):
        run = _load_run(two_runs[0])
        summary = summarize_run(run)
        best = max(float(r["global_f1"]) for r in run["rows"])
        assert summary["global_best"] == pytest.approx(best)
        best_pers = max(float(r["pers_mean"]) for r in run["rows"])
        assert summary["pers_best"] == pytest.approx(best_pers)
        assert summary["gen_mean"] == pytest.approx(float(run["rows"][-1]["gen_mean"]))

    def test_mixed_algorithms_render(self, tmp_path, capsys):
        for algo, name in (("fedavg", "av"), ("feddist", "fd")):
            cfg = write(tmp_path, TINY_RUN % algo, name=f"{name}.yaml")
            assert main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
        assert main(["compare", str(tmp_path / "av"), str(tmp_path / "fd")]) == 0
        out = capsys.readouterr().out
        assert "fedavg" in out and "feddist" in out

    def test_missing_manifest_is_an_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["compare", str(tmp_path / "empty"), str(tmp_path / "empty")]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_requires_two_dirs(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compare", str(tmp_path)])

    @staticmethod
    def _drop_algorithm(run):
        manifest = json.loads((run / "manifest.json").read_text())
        del manifest["resolved_config"]["algorithm"]
        (run / "manifest.json").write_text(json.dumps(manifest))

    @staticmethod
    def _garble_score(run):
        lines = (run / "rounds.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[CSV_COLUMNS.index("global_f1")] = "high"
        lines[1] = ",".join(cells)
        (run / "rounds.csv").write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("damage, message", [
        ("_drop_algorithm", "manifest.json has no resolved_config.algorithm"),
        ("_garble_score", "rounds.csv: global_f1 'high' is not a number"),
    ], ids=["manifest-without-algorithm", "score-not-a-number"])
    def test_malformed_run_is_an_error(self, two_runs, capsys, damage, message):
        getattr(self, damage)(two_runs[1])
        assert main(["compare", str(two_runs[0]), str(two_runs[1])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing printed before the error
        assert captured.err == f"error: {two_runs[1]}: {message}\n"


class TestShapeCommand:
    def test_prints_dump(self, tmp_path, capsys):
        cfg = write(tmp_path, TINY_RUN % "fedavg")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["shape", str(out / "model.bin")]) == 0
        assert capsys.readouterr().out.splitlines() == ["dense 768 8", "dense 8 4"]

    def test_bad_container_exits_2(self, tmp_path):
        bad = tmp_path / "junk.bin"
        bad.write_bytes(b"not a container")
        assert main(["shape", str(bad)]) == 2


def test_seed_override_changes_results(tmp_path):
    cfg = write(tmp_path, TINY_RUN % "fedavg")
    outs = {}
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0
        outs[seed] = (out / "rounds.csv").read_bytes()
    assert outs[1] != outs[2]


def test_seed_override_keeps_an_explicit_data_seed(tmp_path):
    text = """
algorithm: fedavg
rounds: 1
seed: 1
model:
  input: [128, 6]
  layers:
    - {kind: dense, width: 8, activation: relu}
    - {kind: softmax-output, width: 4}
data:
  synthetic:
    clients: 2
    classes: 4
    dirichlet_alpha: 0.5
    samples_per_client: [600, 600]
    seed: 7
"""
    cfg = write(tmp_path, text)
    runs = {"plain": [], "seed-1": ["--seed", "1"]}
    for name, extra in runs.items():
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name), *extra]) == 0
    # A manifest records data seed 7, so a replay under another seed keeps it.
    replay = ["--config", str(tmp_path / "plain" / "manifest.json"), "--seed", "2"]
    assert main(["run", *replay, "--out", str(tmp_path / "replay")]) == 0
    for name, seed in (("plain", 1), ("seed-1", 1), ("replay", 2)):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["seeds"]["experiment"] == seed
        assert manifest["resolved_config"]["data"]["synthetic"]["seed"] == 7
    assert ((tmp_path / "plain" / "rounds.csv").read_bytes()
            == (tmp_path / "seed-1" / "rounds.csv").read_bytes())


def test_csv_data_section_parses(tmp_path):
    from fedsim.scheduler import CsvDataSpec
    text = """
algorithm: fedavg
model:
  input: [128, 6]
  layers:
    - {kind: dense, width: 8, activation: relu}
    - {kind: softmax-output, width: 4}
data:
  csv:
    paths: [a.csv, b.csv, c.csv]
    classes: 4
    sample_rate_hz: 100
    target_hz: 50
"""
    cfg = parse_config(write(tmp_path, text))
    assert isinstance(cfg.data, CsvDataSpec)
    assert cfg.data.clients == 3
    assert cfg.data.sample_rate_hz == 100.0
    rebuilt = parse_config_dict(config_to_dict(cfg))
    assert rebuilt == cfg
