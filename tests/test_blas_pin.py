"""A run's bits do not depend on the BLAS thread count: run_experiment
pins every loaded OpenBLAS to one thread, and gives the old count back
when it returns or raises.  They do depend on the kernel OpenBLAS picks
for the CPU, which host_facts names."""

from __future__ import annotations

import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim.scheduler as scheduler
from fedsim import (
    DivergenceError,
    ExperimentConfig,
    LayerSpec,
    ModelArch,
    SyntheticSpec,
    TrainingConfig,
    run_experiment,
)

SRC = Path(__file__).resolve().parents[1] / "src"
OUTPUTS = ("rounds.csv", "rounds.jsonl", "model.bin", "shape.txt")

# The conv's dW gemm reduces over windows x positions; at width 16 OpenBLAS
# splits that reduction across threads, and the run grows the conv to 20.
GROWING = """\
algorithm: feddist
rounds: 2
local_epochs: 1
seed: 3
eval_every: 1
model:
  input: [128, 6]
  layers:
    - {kind: conv1d, width: 16, kernel: 16, activation: relu}
    - {kind: maxpool1d, kernel: 4}
    - {kind: dense, width: 12, activation: relu}
    - {kind: softmax-output, width: 4}
training:
  learning_rate: 0.05
  batch_size: 16
feddist:
  base_sigma_multiplier: 1.0
data:
  synthetic:
    clients: 2
    classes: 4
    dirichlet_alpha: 0.5
    samples_per_client: [800, 800]
"""


def run_cli(config: Path, out: Path, blas_threads: int) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(blas_threads)}
    proc = subprocess.run([sys.executable, "-m", "fedsim.cli", "run", "--config",
                           str(config), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="on one core OpenBLAS runs one thread whatever it is asked")
def test_blas_thread_count_does_not_change_outputs(tmp_path):
    config = tmp_path / "growing.yaml"
    config.write_text(GROWING)
    for threads in (1, 2):
        run_cli(config, tmp_path / f"blas{threads}", threads)
    for output in OUTPUTS:
        one = (tmp_path / "blas1" / output).read_bytes()
        two = (tmp_path / "blas2" / output).read_bytes()
        assert one == two, output
    shape = (tmp_path / "blas1" / "shape.txt").read_text().splitlines()
    assert shape[0] == "conv1d 16x6 20"


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or scheduler.host_facts()["blas_core"] is None,
                    reason="OpenBLAS names no x86-64 kernel here")
def test_blas_core_names_the_kernel_openblas_picked():
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_CORETYPE": "Haswell"}
    proc = subprocess.run([sys.executable, "-c", "from fedsim.scheduler import "
                           "host_facts; print(host_facts()['blas_core'])"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Haswell\n"


def tiny_config(**training) -> ExperimentConfig:
    arch = ModelArch(128, 3, (
        LayerSpec("conv1d", width=4, kernel=5, activation="relu"),
        LayerSpec("dense", width=6, activation="relu"),
        LayerSpec("softmax-output", width=3),
    ))
    data = SyntheticSpec(clients=2, classes=3, dirichlet_alpha=1.0, channels=3,
                         samples_per_client=(400, 480))
    return ExperimentConfig(algorithm="fedavg", model=arch, data=data, rounds=2,
                            training=TrainingConfig(local_epochs=1, batch_size=16,
                                                    **training))


@pytest.fixture
def blas():
    """The first loaded OpenBLAS's thread-count getter, with the count at two
    for the test and back at its old value afterwards."""
    libraries = scheduler.openblas_threading()
    if not libraries:
        pytest.skip("no OpenBLAS is loaded")
    get, set_ = libraries[0]
    before = get()
    set_(2)
    yield get
    set_(before)


def test_run_pins_one_thread_and_restores_the_count(blas):
    seen = []
    run_experiment(tiny_config(), on_report=lambda report: seen.append(blas()))
    assert seen == [1, 1]
    assert blas() == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_diverged_run_restores_the_count(blas):
    with pytest.raises(DivergenceError):
        run_experiment(tiny_config(learning_rate=1e150))
    assert blas() == 2


def test_openblas_found_under_a_path_with_a_space(tmp_path, monkeypatch):
    # A maps line's sixth field is the path, spaces and all; a mapping of a
    # deleted file is not opened.
    with open("/proc/self/maps") as fh:
        loaded = sorted({line.rstrip("\n").split(maxsplit=5)[5] for line in fh
                         if "openblas" in line.lower()})
    if not loaded:
        pytest.skip("no OpenBLAS is loaded")
    (tmp_path / "sp ace").mkdir()
    spaced = tmp_path / "sp ace" / Path(loaded[0]).name
    spaced.symlink_to(loaded[0])
    maps = (f"7f0000000000-7f0000001000 r-xp 00000000 08:01 1234   {spaced}\n"
            f"7f0000001000-7f0000002000 r--p 00000000 08:01 1235   "
            f"{tmp_path / 'old openblas.so'} (deleted)\n")
    monkeypatch.setattr(scheduler, "open", lambda *args: io.StringIO(maps), raising=False)
    scheduler._openblas.cache_clear()
    try:
        libraries = scheduler.openblas_threading()
    finally:
        monkeypatch.undo()
        scheduler._openblas.cache_clear()
    assert len(libraries) == 1
    get, set_ = libraries[0]
    before = get()
    set_(1)
    assert get() == 1
    set_(before)
    assert get() == before
