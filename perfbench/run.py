#!/usr/bin/env python3
"""fedsim benchmark.

    python3 perfbench/run.py --workload feddist-desk --seed 1 --seconds 40 --trace 0

Runs one workload from workloads.py as a series of experiments through the
public library (fedsim.config.parse_config, fedsim.scheduler.run_experiment)
and checks every round against perfbench/reference.json.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of untraced experiments.
--trace 1 runs half as many experiments, each once untraced and once traced,
and reports the per-layer metrics from the traced copies, the layer self
times and the tracing overhead (traced run_s minus untraced run_s).  The
client fan-out is timed on one more traced round, of the first config with
two client threads (Workload.fanout_probe).

Host facts, per-round figures and spans are written under perfbench/out/.
"""

import os

# Pin BLAS to one thread before numpy loads, so that `threads: 2` on a 2-core
# host runs at most two compute threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import ROUND_FUNCTIONS, Tracer, self_times  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS, config_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

IMPORT_SAMPLES = 5
IMPORTS = "import numpy, fedsim.config, fedsim.scheduler"
SCORE_TOLERANCE = 1e-9
# One reference row per round, values in this order.
FIELDS = ("round", "params", "units_added", "sub_rounds", "bytes_up", "bytes_down",
          "global_f1", "pers_mean", "gen_mean")
LAYERS = ("scheduler", "data", "fabric", "aggregation", "nn", "container", "metrics")


class RoundClock:
    """Replaces fedsim.scheduler.active_clients, which the scheduler calls
    first in every round: it marks the round's start and keeps the round's
    active clients.  In traced experiments it also opens the span roots."""

    def __init__(self, original):
        self.original = original
        self.reset()

    def reset(self, tracer=None, setup_span=None):
        self.tracer, self.setup_span = tracer, setup_span
        self.starts, self.ends, self.active = [], [], []

    def __call__(self, spec, round_index, pool, rng):
        self.starts.append(time.perf_counter())
        if self.tracer is not None:
            if self.setup_span is not None:
                self.tracer.close(self.setup_span)
                self.setup_span = None
            self.tracer.open_root("scheduler.round", round_index)
        active = self.original(spec, round_index, pool, rng)
        self.active.append(active)
        return active

    def on_report(self, report):
        self.ends.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.close_open("scheduler.eval_tick")
            self.tracer.close_open("scheduler.round")


@dataclass
class Experiment:
    seed: int
    rounds: int
    setup_s: float = math.nan
    round_s: list = field(default_factory=list)
    windows: list = field(default_factory=list)  # training windows per round
    comm_bytes: int = 0
    trajectory: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    failed_rounds: int = 0
    units_kept: int = 0
    truncated: int = 0
    sub_rounds: int = 0
    spans: list = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return sum(self.round_s)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def host_facts(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_build": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
    }


def write_config(config: dict, out_dir) -> Path:
    import yaml
    path = out_dir / f"config-{config['seed']}-r{config['rounds']}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False))
    return path


def import_samples(first: float) -> list[float]:
    """Seconds to import numpy and fedsim: this process's own import, then
    fresh interpreters run one after another, so a single cold sample does
    not decide setup_s."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {str(ROOT / 'src')!r}); {IMPORTS}; "
            "print(time.perf_counter() - t)")
    samples = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(proc.stdout))
    return samples


def round_records(result) -> list[dict]:
    """Per-round outcome; bytes and growth come from the ledgers, which keep
    every round, not from the reports."""
    out = []
    for report, ledger in zip(result.reports, result.ledgers):
        out.append({
            "round": ledger.round_index,
            "params": report.params,
            "units_added": {str(k): v for k, v in sorted(ledger.units_added.items())},
            "sub_rounds": ledger.sub_rounds,
            "bytes_up": ledger.bytes_up,
            "bytes_down": ledger.bytes_down,
            "global_f1": report.global_f1,
            "pers_mean": report.pers_mean,
            "gen_mean": report.gen_mean,
        })
    return out


def check_rounds(cfg, records, active, expected) -> list[list[str]]:
    """Problems per round: the exact reference recorded for the config seed,
    and structural checks that hold for any seed."""
    arch = cfg.model
    widths = [p.width for p in arch.trace()]
    problems = []
    for t, rec in enumerate(records):
        issues = []
        for key in ("global_f1", "pers_mean", "gen_mean"):
            value = rec[key]
            if value is None or not 0.0 <= value <= 1.0:
                issues.append(f"{key} {value} outside [0, 1]")
        shape_before = arch.with_widths(widths).trace()
        for layer, count in rec["units_added"].items():
            widths[int(layer)] += count
        shape = arch.with_widths(widths).trace()
        params = sum(math.prod(p.incoming_shape) + p.width for p in shape)
        if rec["params"] != params:
            issues.append(f"params {rec['params']} != {params} from the growth ledger")
        grown = sum(1 for count in rec["units_added"].values() if count)
        if rec["sub_rounds"] != grown:
            issues.append(f"sub_rounds {rec['sub_rounds']} != {grown} grown layers")
        if cfg.algorithm in ("fedavg", "fedprox"):
            # MWC1 container: 12-byte header, then per layer kind u8, ndim u8,
            # dims u32 x ndim, bias_len u32 and float64 values.
            size = 12 + sum(
                6 + 4 * len(p.incoming_shape)
                + 8 * (math.prod(p.incoming_shape) + p.width) for p in shape_before)
            want = len(active[t]) * size
            if rec["bytes_up"] != want or rec["bytes_down"] != want:
                issues.append(f"bytes {rec['bytes_up']}/{rec['bytes_down']} != {want}")
        if expected is None or t >= len(expected):
            issues.append("no reference recorded for this round")
        else:
            ref = dict(zip(FIELDS, expected[t]))
            for key in ("round", "params", "units_added", "sub_rounds",
                        "bytes_up", "bytes_down"):
                if rec[key] != ref[key]:
                    issues.append(f"{key} {rec[key]} != reference {ref[key]}")
            for key in ("global_f1", "pers_mean", "gen_mean"):
                if not abs(rec[key] - ref[key]) <= SCORE_TOLERANCE:
                    issues.append(f"{key} {rec[key]!r} != reference {ref[key]!r}")
        problems.append(issues)
    return problems


def warm_up(workload, seed, out_dir) -> None:
    """One untimed round: the first round in a process pays for thread and
    allocator warm-up that a long run pays once."""
    from fedsim.config import parse_config
    from fedsim.scheduler import run_experiment
    config = workload.render(seed)
    config["rounds"] = 1
    try:
        run_experiment(parse_config(write_config(config, out_dir)))
    except Exception as exc:  # the timed experiment of this seed reports it
        print(f"  warm-up seed {seed} failed: {type(exc).__name__}: {exc}")


def run_experiment_timed(workload, name, seed, out_dir, clock, reference,
                         tracer=None) -> Experiment:
    from fedsim.config import parse_config
    from fedsim.scheduler import run_experiment
    exp = Experiment(seed=seed, rounds=workload.rounds)
    path = write_config(workload.render(seed), out_dir)
    first = len(tracer.spans) if tracer else 0
    start = time.perf_counter()
    setup_span = tracer.open_root("scheduler.setup", None) if tracer else None
    clock.reset(tracer, setup_span=setup_span)
    try:
        cfg = parse_config(path)
        result = run_experiment(cfg, on_report=clock.on_report)
    except Exception as exc:  # the run continues; the rounds count as failed
        exp.problems.append([f"experiment failed: {type(exc).__name__}: {exc}"])
        exp.failed_rounds = exp.rounds
        if tracer:
            tracer.discard_open()
        return exp
    exp.setup_s = clock.starts[0] - start
    exp.round_s = [end - begin for begin, end in zip(clock.starts, clock.ends)]
    if tracer:
        exp.spans = tracer.spans[first:]

    lw_epochs = cfg.feddist.layerwise_epochs or cfg.training.local_epochs
    sizes = [len(state.train) for state in result.states]
    for active, ledger in zip(clock.active, result.ledgers):
        epochs = cfg.training.local_epochs
        if cfg.algorithm == "feddist":
            epochs += ledger.sub_rounds * lw_epochs
        exp.windows.append(epochs * sum(sizes[k] for k in active))
        exp.comm_bytes += ledger.bytes_up + ledger.bytes_down
        exp.units_kept += ledger.total_units_added
        exp.truncated += ledger.truncated_selections
        exp.sub_rounds += ledger.sub_rounds

    expected = reference.get(name, {}).get(str(seed))
    records = round_records(result)
    per_round = check_rounds(cfg, records, clock.active, expected)
    missing = exp.rounds - len(per_round)
    exp.failed_rounds = sum(1 for issues in per_round if issues) + missing
    exp.problems += [[f"round {t + 1}: {m}" for m in issues]
                     for t, issues in enumerate(per_round) if issues]
    if missing:
        exp.problems.append([f"{missing} rounds missing"])
    exp.trajectory = [
        {"round": rec["round"], "params": rec["params"],
         "units_added": rec["units_added"], "round_s": s}
        for rec, s in zip(records, exp.round_s)]
    return exp


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(experiments, imports) -> dict:
    rounds = [s for e in experiments for s in e.round_s]
    return {
        "round_s.p50": (statistics.median(rounds), "s"),
        "round_s.p90": (percentile(rounds, 90), "s"),
        "run_s": (statistics.median(e.run_s for e in experiments), "s"),
        "train_windows_per_s": (statistics.median(
            sum(e.windows) / e.run_s for e in experiments), "1/s"),
        "setup_s": (statistics.median(imports)
                    + statistics.median(e.setup_s for e in experiments), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "MB"),
        "comm_mb_per_round": (sum(e.comm_bytes for e in experiments)
                              / len(rounds) / 1e6, "MB"),
    }


def microbenchmarks(cfg) -> dict:
    """Warmed timings of public nn calls at desk shapes."""
    import numpy as np
    from dataclasses import replace
    from fedsim.fabric import init_model
    from fedsim.nn import Batch, TrainingConfig, forward, train_local

    arch = cfg.model
    model = init_model(arch, np.random.SeedSequence(cfg.seed), np.float64)
    rng = np.random.default_rng(cfg.seed)
    windows = rng.normal(size=(4096, arch.input_length, arch.input_channels))
    labels = rng.integers(0, arch.classes, size=len(windows))
    batch = Batch(windows[:16], labels[:16])
    step_cfg = TrainingConfig(local_epochs=1, batch_size=16)

    def timed(fn, warm, reps):
        for _ in range(warm):
            fn()
        samples = []
        for _ in range(reps):
            begin = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - begin)
        return statistics.median(samples)

    out = {}
    for name, frozen in (("nn.step_us.full", 0), ("nn.step_us.frozen1", 1)):
        cfg_f = replace(step_cfg, frozen_prefix=frozen)
        out[name] = (timed(lambda: train_local(model, arch, batch, cfg_f, 0), 5, 40)
                     * 1e6, "us")
    out["nn.forward.us_per_window"] = (
        timed(lambda: forward(model, arch, windows), 1, 5) / len(windows) * 1e6, "us")
    return out


def fanout_concurrency(spans) -> float:
    """Summed train_local time over the wall time of the round functions."""
    return (sum(s.duration for s in spans if s.name == "nn.train_local")
            / sum(s.duration for s in spans if s.name in ROUND_FUNCTIONS))


def per_layer(pairs, micro, probe) -> tuple[dict, dict]:
    """Per-layer metrics, per traced experiment, and the time accounting."""
    n = len(pairs)
    spans = [s for _, traced in pairs for s in traced.spans]

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return (sum(s.duration for s in named(name)) / n, "s")

    def calls(name):
        return (len(named(name)) / n, "count")

    train = named("nn.train_local")
    main = [s for s in train if s.attrs["frozen_prefix"] == 0]
    layerwise = [s for s in train if s.attrs["frozen_prefix"] > 0]

    def us_per_minibatch(group):
        batches = sum(s.attrs["minibatches"] for s in group)
        return (sum(s.duration for s in group) / batches * 1e6 if batches else 0.0, "us")

    round_fns = [s for s in spans if s.name in ROUND_FUNCTIONS]
    candidates = sum(s.attrs["candidates"] for s in named("aggregation.select_divergent"))
    kept = sum(traced.units_kept for _, traced in pairs)
    self_s, overlap = self_times(spans)
    roots = [s for s in spans if s.parent is None]
    overheads = [traced.run_s - plain.run_s for plain, traced in pairs]

    metrics = {
        "nn.train_local.main.busy_s": (sum(s.duration for s in main) / n, "s"),
        "nn.train_local.main.us_per_minibatch": us_per_minibatch(main),
        "nn.train_local.layerwise.busy_s": (sum(s.duration for s in layerwise) / n, "s"),
        "nn.train_local.layerwise.us_per_minibatch": us_per_minibatch(layerwise),
        "nn.train_local.minibatches": (sum(s.attrs["minibatches"] for s in train) / n,
                                       "count"),
        **micro,
        "aggregation.fanout.concurrency": (fanout_concurrency(probe.spans), "ratio"),
        "aggregation.distance_matrix.busy_s": busy("aggregation.distance_matrix"),
        "aggregation.select_divergent.busy_s": busy("aggregation.select_divergent"),
        "aggregation.candidates": (candidates / n, "count"),
        "aggregation.units_kept": (kept / n, "count"),
        "aggregation.truncated": (sum(t.truncated for _, t in pairs) / n, "count"),
        "aggregation.kept_ratio": (kept / candidates if candidates else 1.0, "ratio"),
        "aggregation.sub_rounds": (sum(t.sub_rounds for _, t in pairs) / n, "count"),
    }
    for fn in ("weighted_average", "conform_to_shape", "append_neuron"):
        metrics[f"fabric.{fn}.busy_s"] = busy(f"fabric.{fn}")
        metrics[f"fabric.{fn}.calls"] = calls(f"fabric.{fn}")
    metrics.update({
        "container.serialize_model.busy_s": busy("container.serialize_model"),
        "container.byte_size.calls": calls("container.byte_size"),
        "metrics.evaluate_generalization.busy_s": busy("metrics.evaluate_generalization"),
        "metrics.evaluate_global.busy_s": busy("metrics.evaluate_global"),
        "metrics.evaluate_personalization.busy_s": busy("metrics.evaluate_personalization"),
        "metrics.windows_scored": (sum(s.attrs["windows"] for s in named("nn.evaluate"))
                                   / n, "count"),
        "data.generate_synthetic.busy_s": busy("data.generate_synthetic"),
        "scheduler.round.busy_s": (sum(s.duration for s in round_fns) / n, "s"),
        "scheduler.eval_tick.busy_s": busy("scheduler.eval_tick"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s")
    remainder = sum(s.duration - sum(c.duration for c in spans if c.parent == s.id)
                    for s in roots)
    metrics.update({
        "trace.remainder_s": (remainder / n, "s"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
        "trace.spans": (len(spans) / n, "count"),
    })
    accounting = {
        "traced_wall_s": sum(s.duration for s in roots) / n,
        "layer_self_sum_s": sum(self_s.values()) / n,
        "parallel_overlap_s": overlap / n,
        "remainder_s": remainder / n,
        "untraced_run_s": statistics.median(p.run_s for p, _ in pairs),
        "traced_run_s": statistics.median(t.run_s for _, t in pairs),
    }
    return metrics, accounting


def main(argv=None) -> int:
    args = parse_args(argv)
    name = args.workload
    workload = WORKLOADS[name]

    if not (ROOT / "src" / "fedsim").is_dir():
        sys.exit(f"perfbench: {ROOT / 'src' / 'fedsim'} not found; run from a fedsim checkout")
    begin = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import fedsim.config
    import fedsim.scheduler
    import_s = time.perf_counter() - begin

    out_dir = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = json.loads(REFERENCE.read_text())
    host = host_facts(np)
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))

    count = workload.experiments(args.seconds)
    seeds = [config_seed(args.seed, i) for i in range(count)]
    if args.seed >= INPUT_SETS:
        print(f"seed {args.seed} uses input set {args.seed % INPUT_SETS}")
    warm_up(workload, seeds[0], out_dir)
    clock = RoundClock(fedsim.scheduler.active_clients)
    fedsim.scheduler.active_clients = clock
    experiments, pairs = [], []
    if args.trace:
        micro = microbenchmarks(fedsim.config.parse_config(
            write_config(workload.render(seeds[0]), out_dir)))
        tracer = Tracer()

        def traced_run(seed, traced_workload=workload):
            tracer.install()
            try:
                return run_experiment_timed(traced_workload, name, seed, out_dir, clock,
                                            reference, tracer)
            finally:
                tracer.uninstall()

        for i, seed in enumerate(seeds[:max(1, round(count / 2))]):
            # Alternate which copy runs first so order effects cancel.
            if i % 2:
                traced = traced_run(seed)
            plain = run_experiment_timed(workload, name, seed, out_dir, clock, reference)
            if not i % 2:
                traced = traced_run(seed)
            experiments += [plain, traced]
            pairs.append((plain, traced))
        probe = traced_run(seeds[0], workload.fanout_probe())
        experiments.append(probe)
    else:
        experiments = [run_experiment_timed(workload, name, seed, out_dir, clock, reference)
                       for seed in seeds]
    fedsim.scheduler.active_clients = clock.original

    attempted = sum(e.rounds for e in experiments)
    failed = sum(e.failed_rounds for e in experiments)
    good = [e for e in experiments if e.round_s]
    print(f"workload {name} seed {args.seed}: {len(experiments)} experiments "
          f"(config seeds {sorted({e.seed for e in experiments})}), "
          f"{sum(len(e.round_s) for e in good)} rounds timed")
    for e in good:
        steps = "; ".join(f"r{t['round']} params={t['params']} units={t['units_added']} "
                          f"round_s={t['round_s']:.3f}" for t in e.trajectory)
        print(f"  seed {e.seed}{' traced' if e.spans else ''}: setup_s={e.setup_s:.3f} {steps}")
    for e in experiments:
        for issues in e.problems:
            for issue in issues:
                print(f"  check seed {e.seed}: {issue}")

    detail = {"workload": name, "seed": args.seed, "trace": args.trace, "host": host,
              "experiments": [{"config_seed": e.seed, "setup_s": e.setup_s,
                               "run_s": e.run_s, "windows": e.windows,
                               "comm_bytes": e.comm_bytes, "trajectory": e.trajectory,
                               "problems": e.problems} for e in experiments]}
    metrics = {}
    pairs = [(plain, traced) for plain, traced in pairs if plain.round_s and traced.round_s]
    if pairs and probe.round_s:
        metrics, accounting = per_layer(pairs, micro, probe)
        print("  accounting per traced experiment: traced wall (set-up + rounds) "
              f"{accounting['traced_wall_s']:.3f} s = layer self times "
              f"{accounting['layer_self_sum_s']:.3f} s - parallel overlap "
              f"{accounting['parallel_overlap_s']:.3f} s; remainder outside any "
              f"wrapped call {accounting['remainder_s']:.3f} s; run_s traced "
              f"{accounting['traced_run_s']:.3f} s vs untraced "
              f"{accounting['untraced_run_s']:.3f} s")
        detail["accounting"] = accounting
        # The fan-out probe's spans come last, as experiment len(pairs).
        traced = [t for _, t in pairs] + [probe]
        with open(out_dir / "spans.jsonl", "w") as fh:
            origin = min(s.start for t in traced for s in t.spans)
            for i, experiment in enumerate(traced):
                for span in experiment.spans:
                    fh.write(json.dumps({"experiment": i, **span.record(origin)}) + "\n")
    elif good and not args.trace:
        imports = import_samples(import_s)
        metrics = end_to_end(good, imports)
        rounds_timed = sum(len(e.round_s) for e in good)
        print(f"  round_s pooled over {rounds_timed} rounds; setup_s = median of "
              f"{len(imports)} imports + median of {len(good)} set-ups")
        detail["import_s"] = imports
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} rounds)")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (out_dir / "result.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
