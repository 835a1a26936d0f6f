#!/usr/bin/env python3
"""Byte-for-byte output parity between a git revision and the working tree.

    python3 tools/parity.py REV

Runs `fedsim run` from revision REV (exported with `git archive`) and from
the working tree's `src/`, on one growing desk config: conv1d(6, k16) ->
maxpool1d(4) -> dense(12) -> softmax(4), interchanging 3 of 7 synthetic
clients, 6 rounds.  Every algorithm runs at `--threads` 1 and 2 and at
`eval_every` 1 and 3.  The same model also runs fedavg, feddist and
centralized from three small CSV exports (seeded values at 50 Hz, labels in
[0, 4) in 200-row segments) at `--threads` 1 and `eval_every` 1, which
covers the CSV source and the copy that pools a centralized run's training
sets; feddist also runs on them at window steps 32 and 96, more and less
overlap than the default 64, which covers the split sides' view of the
series at other overlaps.  A dense-only model, dense(12) -> softmax(4),
runs fedavg and feddist on the synthetic clients at `--threads` 1 and
`eval_every` 1, which covers scoring without a leading conv and
dense-to-dense growth.  The conv model also runs at `precision: float32`
on the synthetic clients, feddist at `--threads` 1 and fedavg at 2, both
at `eval_every` 1, which covers the float32 row gather and the float32
model container.
Each run's rounds.csv, rounds.jsonl, model.bin and shape.txt are
compared byte for byte (local-only writes no model), and the
`resolved_config` of both sides' manifest.json is compared parsed as JSON,
so a refactor that adds, drops or changes a config key fails here too.
Exits 1 naming every file and config that differs, 0 when all are equal.
The summary line also gives both trees' `src/fedsim` line counts, as
`wc -l src/fedsim/*.py` counts them.

Every child runs with `OPENBLAS_NUM_THREADS=1`.  `run_experiment` pins BLAS
to one thread itself, but a revision from before that pin takes its BLAS
thread count from the environment, and its conv gradients reduce in another
order on more threads; the variable puts both revisions on the same path.

A change that claims to leave outputs alone (a refactor, a speed-up) should
pass this against its parent commit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
ALGORITHMS = ("fedavg", "fedprox", "feddist", "local-only", "centralized")
THREADS = (1, 2)
CADENCES = (1, 3)
OUTPUTS = ("rounds.csv", "rounds.jsonl", "model.bin", "shape.txt")
CSV_ALGORITHMS = ("fedavg", "feddist", "centralized")
CSV_CLIENTS, CSV_ROWS, CSV_SEGMENT = 3, 2000, 200
CSV_STEPS = (32, 96)  # window steps besides the default 64
DENSE_ALGORITHMS = ("fedavg", "feddist")
F32_CASES = (("feddist", 1), ("fedavg", 2))  # (algorithm, threads)

CONFIG = """\
algorithm: {algorithm}
rounds: 6
local_epochs: 2
seed: 7
eval_every: {eval_every}
model:
  input: [128, 6]
  layers:
{layers}
training:
  learning_rate: 0.05
  batch_size: 16
feddist:
  base_sigma_multiplier: 1.0
scenario:
  kind: interchanging
  sample_size: 3
data:
{data}"""

CONV_LAYERS = """\
    - {kind: conv1d, width: 6, kernel: 16, activation: relu}
    - {kind: maxpool1d, kernel: 4}
    - {kind: dense, width: 12, activation: relu}
    - {kind: softmax-output, width: 4}"""

DENSE_LAYERS = """\
    - {kind: dense, width: 12, activation: relu}
    - {kind: softmax-output, width: 4}"""

SYNTHETIC = """\
  synthetic:
    clients: 7
    classes: 4
    dirichlet_alpha: 0.5
    samples_per_client: [1200, 1500]
"""

CSV = """\
  csv:
    paths: [{paths}]
    classes: 4
"""

RUN = "import sys; from fedsim.cli import main; sys.exit(main(sys.argv[1:]))"


def export(rev: str, dest: Path) -> Path:
    """Write REV's src/ under dest and return it."""
    blob = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def line_count(src: Path) -> int:
    """Newlines in the fedsim package's *.py files, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (src / "fedsim").glob("*.py"))


def write_csv_exports(dest: Path) -> list[Path]:
    """CSV_CLIENTS deterministic 6-channel exports at 50 Hz: Gaussian noise
    around a per-label offset, labels drawn per CSV_SEGMENT-row segment."""
    rng = np.random.default_rng(5)
    paths = []
    for k in range(CSV_CLIENTS):
        labels = rng.integers(0, 4, CSV_ROWS // CSV_SEGMENT).repeat(CSV_SEGMENT)
        values = rng.normal(size=(CSV_ROWS, 6)) + 0.5 * labels[:, None]
        path = dest / f"client{k}.csv"
        with open(path, "w") as fh:
            fh.write("timestamp,ax,ay,az,gx,gy,gz,label\n")
            for i, (row, label) in enumerate(zip(values, labels)):
                fh.write(f"{i / 50:.2f}," + ",".join(f"{v:.6f}" for v in row)
                         + f",{label}\n")
        paths.append(path)
    return paths


def run(src: Path, config: Path, out: Path, threads: int) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", RUN, "run", "--config", str(config),
         "--out", str(out), "--threads", str(threads)],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"fedsim run failed for {out}:\n{proc.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="fedsim-parity-") as tmp:
        work = Path(tmp)
        trees = {"base": export(args.rev, work / "rev"), "work": REPO / "src"}
        lines = {side: line_count(src) for side, src in trees.items()}
        csv_data = CSV.format(paths=", ".join(
            json.dumps(str(p)) for p in write_csv_exports(work)))
        cases = [(f"{algorithm}-e{eval_every}-t{threads}", algorithm, eval_every,
                  threads, CONV_LAYERS, SYNTHETIC)
                 for algorithm in ALGORITHMS for eval_every in CADENCES
                 for threads in THREADS]
        cases += [(f"csv-{algorithm}-e1-t1", algorithm, 1, 1, CONV_LAYERS, csv_data)
                  for algorithm in CSV_ALGORITHMS]
        cases += [(f"csv-step{step}-feddist-e1-t1", "feddist", 1, 1, CONV_LAYERS,
                   csv_data + f"    window_step: {step}\n") for step in CSV_STEPS]
        cases += [(f"dense-{algorithm}-e1-t1", algorithm, 1, 1, DENSE_LAYERS, SYNTHETIC)
                  for algorithm in DENSE_ALGORITHMS]
        cases += [(f"f32-{algorithm}-e1-t{threads}", algorithm, 1, threads, CONV_LAYERS,
                   SYNTHETIC + "precision: float32\n")
                  for algorithm, threads in F32_CASES]
        same, configs, differ = 0, 0, []
        for name, algorithm, eval_every, threads, layers, data in cases:
            config = work / f"{name}.yaml"
            config.write_text(CONFIG.format(algorithm=algorithm, eval_every=eval_every,
                                            layers=layers, data=data))
            for side, src in trees.items():
                run(src, config, work / "out" / side / name, threads)
            for output in OUTPUTS:
                base = work / "out" / "base" / name / output
                ours = work / "out" / "work" / name / output
                if not base.exists() and not ours.exists():
                    continue
                if (base.exists() and ours.exists()
                        and base.read_bytes() == ours.read_bytes()):
                    same += 1
                else:
                    differ.append(f"{name}/{output}")
            resolved = [json.loads((work / "out" / side / name / "manifest.json")
                                   .read_text())["resolved_config"] for side in trees]
            if resolved[0] == resolved[1]:
                configs += 1
            else:
                differ.append(f"{name}/manifest.json resolved_config")
            shape = work / "out" / "work" / name / "shape.txt"
            grown = (" (final shape: "
                     + "; ".join(shape.read_text().splitlines()) + ")"
                     if algorithm == "feddist" else "")
            print(f"{name}: compared{grown}", flush=True)

    for path in differ:
        print(f"DIFFERS: {path}")
    print(f"{same} files byte-identical, {configs} resolved configs equal, "
          f"{len(differ)} differ (against {args.rev}); src/fedsim {lines['base']} "
          f"-> {lines['work']} lines ({lines['work'] - lines['base']:+d})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
