#!/usr/bin/env python3
"""Per-layer timings of the training kernels at desk shapes.

    python3 tools/layer_bench.py [--repeats 200] [--batch 16]

Builds the shipped desk model (conv1d 16 x k16 over 128 x 6 windows,
maxpool1d 4, dense 64, softmax-output 8) and times, on one minibatch, each
layer's forward as training runs it (keeping what its backward needs), its
forward as inference runs it, and its backward.  The lowest layer's
backward computes no input gradient, as in training.  Then it times one full
training objective step (the class-weighted loss and every layer's gradient),
and the conv1d -> maxpool1d block as training runs it, at pooled resolution:
its forward plus its backward.  Each figure is
the median over --repeats calls, in microseconds per minibatch.  The next
three rows time scoring.  The first two time nn.evaluate predicting 1,792
windows (as many windows as the 32 client test sets of perfbench's
fedprox-wide-eval hold) with a desk model at conv width 16, and at width
18, a width FedDist growth reaches where the conv's gemm runs edge tiles;
in microseconds per window, the median over at most 20 calls.  The third
scores the same number of windows the way the generalization view reads
them: 32 row-indexed test sets of 56 windows, each the rows of its own
client's window view (18,000 samples, 280 windows), so each set is one
full 32-window slice, one partial slice and a row gather per slice.  The
next row times the generalization view of a FedDist tick: 10 models that
hold one grown desk stack (conv 18, dense 66) as the same objects, each
with its own output layer, scored on ten 14-window test sets, as many as a
feddist-desk client holds; in milliseconds per view, the median over at
most 20 calls.  The next row times set-up: generate_synthetic on the data
spec of perfbench's fedprox-wide-eval (32 clients of 18,000 samples), in
milliseconds, the median over at most 5 calls.  The last row is the tracemalloc peak, in
megabytes, of run_experiment on one feddist-desk experiment as perfbench
renders it for config seed 48: unlike a run's peak RSS, it moves only with
what the program allocates, not with the order it allocates it in.  The first
line gives the host record perfbench writes (cores, numpy, the BLAS build
and its thread count); BLAS is pinned to one thread first, through
fedsim.scheduler.openblas_threading, as run_experiment pins it.
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import host_facts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402

from fedsim.arch import PARAM_KINDS, LayerSpec, ModelArch  # noqa: E402
from fedsim.config import parse_config_dict  # noqa: E402
from fedsim.data import generate_synthetic, window  # noqa: E402
from fedsim.fabric import ModelWeights, init_model  # noqa: E402
from fedsim.metrics import evaluate_generalization  # noqa: E402
from fedsim.nn import (  # noqa: E402
    _FORWARD,
    Batch,
    TrainingConfig,
    _conv_pool,
    _objective,
    balanced_class_weights,
    evaluate,
)
from fedsim.scheduler import openblas_threading, run_experiment  # noqa: E402

DESK_ARCH = ModelArch(128, 6, (
    LayerSpec("conv1d", width=16, kernel=16, activation="relu"),
    LayerSpec("maxpool1d", kernel=4),
    LayerSpec("dense", width=64, activation="relu"),
    LayerSpec("softmax-output", width=8),
))
WARM = 3
SCORED_WINDOWS = 1792
SCORING_CALLS = 20
SCORED_WIDTHS = (16, 18)
SCORED_SETS = 32  # fedprox-wide-eval's clients and test-set size
SET_WINDOWS = 56
VIEW_MODELS = 10  # feddist-desk's clients, each with a 14-window test set
VIEW_WINDOWS = 14
GROWN_WIDTHS = (18, 66, 8)
CLIENT_SAMPLES = 18000
SETUP_CALLS = 5
MEMORY_SEED = 48


def median_us(fn, repeats: int) -> float:
    for _ in range(WARM):
        fn()
    samples = []
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples) * 1e6


def layer_rows(batch: int, repeats: int):
    """(layer label, training forward, inference forward, backward) per
    layer of DESK_ARCH, in microseconds per minibatch."""
    rng = np.random.default_rng(0)
    model = init_model(DESK_ARCH, 0)
    a = rng.normal(size=(batch, DESK_ARCH.input_length, DESK_ARCH.input_channels))
    params = iter(model.layers)
    rows = []
    for i, spec in enumerate(DESK_ARCH.layers):
        layer = next(params) if spec.kind in PARAM_KINDS else None
        layer_forward = _FORWARD[spec.kind]
        train = median_us(lambda: layer_forward(spec, layer, a, True), repeats)
        infer = median_us(lambda: layer_forward(spec, layer, a, False), repeats)
        out, backward = layer_forward(spec, layer, a, True)
        upstream = rng.normal(size=out.shape)
        need_dx = i > 0
        back = median_us(lambda: backward(upstream, need_dx), repeats)
        size = {"conv1d": f"{spec.width} x k{spec.kernel}",
                "maxpool1d": str(spec.kernel)}.get(spec.kind, str(spec.width))
        rows.append((f"{i} {spec.kind} {size}", train, infer, back))
        a = out
    return rows


def objective_us(batch: int, repeats: int) -> float:
    rng = np.random.default_rng(1)
    model = init_model(DESK_ARCH, 1)
    x = rng.normal(size=(batch, DESK_ARCH.input_length, DESK_ARCH.input_channels))
    labels = rng.integers(0, DESK_ARCH.classes, size=batch)
    weights = balanced_class_weights(labels, DESK_ARCH.classes)
    cfg = TrainingConfig(batch_size=batch)
    return median_us(lambda: _objective(model, DESK_ARCH, x, labels, weights, cfg,
                                        lowest=0), repeats)


def conv_pool_us(batch: int, repeats: int) -> float:
    """Microseconds per minibatch for the conv1d -> maxpool1d training
    block's forward and backward, with no input gradient, as the lowest
    trainable layer computes it."""
    rng = np.random.default_rng(4)
    conv, pool = DESK_ARCH.layers[:2]
    layer = init_model(DESK_ARCH, 4).layers[0]
    a = rng.normal(size=(batch, DESK_ARCH.input_length, DESK_ARCH.input_channels))
    out, _ = _conv_pool(conv, layer, pool.kernel, a)
    upstream = rng.normal(size=out.shape)
    return median_us(lambda: _conv_pool(conv, layer, pool.kernel, a)[1](upstream, False),
                     repeats)


def generalization_view_ms(repeats: int) -> float:
    """Milliseconds for evaluate_generalization to score VIEW_MODELS models
    sharing a grown desk stack on VIEW_MODELS test sets of VIEW_WINDOWS."""
    rng = np.random.default_rng(5)
    grown = DESK_ARCH.with_widths(GROWN_WIDTHS)
    stack = init_model(grown, 5).layers[:-1]
    models = [ModelWeights(stack + init_model(grown, 6 + i).layers[-1:])
              for i in range(VIEW_MODELS)]
    sets = [Batch(rng.normal(size=(VIEW_WINDOWS, DESK_ARCH.input_length,
                                   DESK_ARCH.input_channels)),
                  rng.integers(0, DESK_ARCH.classes, VIEW_WINDOWS))
            for _ in range(VIEW_MODELS)]
    return median_us(lambda: evaluate_generalization(models, DESK_ARCH, sets),
                     repeats) / 1e3


def scoring_us(width: int, repeats: int) -> float:
    """Microseconds per window for nn.evaluate to score SCORED_WINDOWS
    windows with a desk model whose conv has `width` filters."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=(SCORED_WINDOWS, DESK_ARCH.input_length,
                         DESK_ARCH.input_channels))
    arch = replace(DESK_ARCH, layers=(replace(DESK_ARCH.layers[0], width=width),)
                   + DESK_ARCH.layers[1:])
    model = init_model(arch, 2)
    return median_us(lambda: evaluate(model, arch, x), repeats) / len(x)


def row_indexed_scoring_us(repeats: int) -> float:
    """Microseconds per window for nn.evaluate to score SCORED_SETS test
    sets of SET_WINDOWS windows, each a Batch of rows of its own client's
    window view, with the width-16 desk model."""
    rng = np.random.default_rng(3)
    sets = []
    for _ in range(SCORED_SETS):
        series = Batch(rng.normal(size=(CLIENT_SAMPLES, DESK_ARCH.input_channels)),
                       rng.integers(0, DESK_ARCH.classes, CLIENT_SAMPLES))
        view = window(series)  # 128-sample windows at a step of 64
        rows = np.sort(rng.choice(len(view), SET_WINDOWS, replace=False))
        sets.append(Batch(view.inputs, view.labels[rows], rows))
    model = init_model(DESK_ARCH, 2)

    def score():
        for test in sets:
            evaluate(model, DESK_ARCH, test)

    return median_us(score, repeats) / (SCORED_SETS * SET_WINDOWS)


def setup_ms(repeats: int) -> float:
    """Milliseconds for generate_synthetic to build fedprox-wide-eval's
    clients, as the benchmark's config seed 0 sets them."""
    spec = parse_config_dict(WORKLOADS["fedprox-wide-eval"].render(0)).data
    return median_us(lambda: generate_synthetic(spec), repeats) / 1e3


def memory_mb() -> float:
    """Tracemalloc peak, in megabytes, of one feddist-desk experiment at
    config seed MEMORY_SEED."""
    cfg = parse_config_dict(WORKLOADS["feddist-desk"].render(MEMORY_SEED))
    tracemalloc.start()
    try:
        run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--batch", type=int, default=16)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.batch < 1:
        parser.error("--repeats and --batch must be >= 1")
    for _get, set_threads in openblas_threading():
        set_threads(1)
    print("host: " + " ".join(f"{k}={v}" for k, v in host_facts(np).items()))
    print(f"batch {args.batch}, median of {args.repeats} calls, us per minibatch")
    print(f"{'layer':<24}{'forward':>10}{'inference':>11}{'backward':>10}")
    for label, train, infer, back in layer_rows(args.batch, args.repeats):
        print(f"{label:<24}{train:>10.1f}{infer:>11.1f}{back:>10.1f}")
    print(f"{'objective step':<24}{objective_us(args.batch, args.repeats):>10.1f}")
    print(f"{'conv1d+maxpool1d block':<24}{conv_pool_us(args.batch, args.repeats):>10.1f}"
          f"  us per minibatch, training forward and backward")
    calls = min(args.repeats, SCORING_CALLS)
    for width in SCORED_WIDTHS:
        print(f"{f'scoring conv1d {width}':<24}{scoring_us(width, calls):>10.1f}"
              f"  us per window of {SCORED_WINDOWS:,}")
    print(f"{'scoring conv1d 16':<24}{row_indexed_scoring_us(calls):>10.1f}"
          f"  us per window of {SCORED_SETS} row-indexed sets of {SET_WINDOWS}")
    print(f"{'generalization view':<24}{generalization_view_ms(calls):>10.2f}"
          f"  ms for {VIEW_MODELS} models sharing a grown desk stack on "
          f"{VIEW_MODELS} sets of {VIEW_WINDOWS}")
    print(f"{'set-up':<24}{setup_ms(min(args.repeats, SETUP_CALLS)):>10.1f}"
          f"  ms for generate_synthetic, fedprox-wide-eval")
    print(f"{'memory':<24}{memory_mb():>10.1f}  MB tracemalloc peak of one "
          f"feddist-desk experiment (config seed {MEMORY_SEED})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
