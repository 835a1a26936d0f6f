"""Smoke test of tools/layer_bench.py at a tiny repeat count."""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layer_bench.py"


def test_prints_host_every_layer_and_the_objective_step():
    proc = subprocess.run([sys.executable, str(TOOL), "--repeats", "1", "--batch", "2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("host: nproc=") and " blas_build=" in lines[0]
    assert " blas_threads=1" in lines[0]
    rows = {line.split()[1]: line.split()[-3:] for line in lines[3:7]}
    assert list(rows) == ["conv1d", "maxpool1d", "dense", "softmax-output"]
    assert lines[7].startswith("objective step")
    figures = [float(v) for values in rows.values() for v in values]
    figures.append(float(lines[7].split()[-1]))
    assert lines[8].startswith("conv1d+maxpool1d block")
    assert lines[8].endswith("us per minibatch, training forward and backward")
    figures.append(float(lines[8].split()[2]))
    for line, width, windows in zip(lines[9:], ("16", "18", "16"),
                                    ("1,792", "1,792", "32 row-indexed sets of 56")):
        assert line.split()[:3] == ["scoring", "conv1d", width]
        assert line.endswith(f"us per window of {windows}")
        figures.append(float(line.split()[3]))
    assert lines[12].startswith("generalization view")
    assert lines[12].endswith("ms for 10 models sharing a grown desk stack on "
                              "10 sets of 14")
    figures.append(float(lines[12].split()[2]))
    assert lines[13].startswith("set-up")
    assert lines[13].endswith("ms for generate_synthetic, fedprox-wide-eval")
    figures.append(float(lines[13].split()[1]))
    assert lines[14].startswith("memory")
    assert lines[14].endswith("MB tracemalloc peak of one feddist-desk experiment "
                              "(config seed 48)")
    figures.append(float(lines[14].split()[1]))
    assert all(math.isfinite(v) and v > 0 for v in figures)
    assert len(lines) == 15
