"""Experiment driver: runs T communication rounds over a client pool under
one of the asynchronous-availability scenarios, tracks per-client
best-personalization snapshots, and assembles RoundReports.  All five
algorithms run in one round loop, which advances one run state, the
ExperimentResult it returns.

Every seeded stream of a run is a row of seeds.STREAMS.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .aggregation import (
    ClientRuntime,
    CommLedger,
    FedDistConfig,
    RoundOutcome,
    fedavg_round,
    feddist_round,
    fedprox_round,
    ledger_totals,
    train_clients,
)
from .arch import ModelArch
# Nothing here calls serialize_model or conform_to_shape: perfbench/tracer.py's
# CALL_SITES resolves both in this module (ROADMAP items 5 and 7 end that).
from .container import serialize_model
from .data import (
    CsvDataSpec,
    SyntheticSpec,
    concat_window_sets,
    generate_synthetic,
    read_csv_clients,
)
from .fabric import ModelWeights, conform_to_shape, init_model
from .metrics import (
    RoundReport,
    evaluate_generalization,
    evaluate_global,
    evaluate_personalization,
    spread,
)
from .nn import Batch, TrainingConfig, diverged_in, train_local
from .seeds import sequence


ALGORITHMS = ("fedavg", "fedprox", "feddist", "local-only", "centralized")
SCENARIO_KINDS = ("full", "incrementing", "decrementing", "interchanging")


@dataclass(frozen=True)
class ScenarioSpec:
    """Active-pool schedule over rounds.

    incrementing: start with start_count clients, one more every
    interval_rounds; decrementing: start with everyone, one fewer every
    interval_rounds (never below one); interchanging: a fresh uniform
    sample of sample_size clients each round.
    """

    kind: str = "full"
    start_count: int = 2
    interval_rounds: int = 14
    sample_size: int = 8

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.start_count < 1 or self.sample_size < 1:
            raise ValueError("scenario client counts must be >= 1")
        if self.interval_rounds < 1:
            raise ValueError("interval_rounds must be >= 1")

    def check_pool(self, pool: int) -> None:
        if self.kind == "incrementing" and self.start_count > pool:
            raise ValueError(f"start_count {self.start_count} exceeds pool {pool}")
        if self.kind == "interchanging" and self.sample_size > pool:
            raise ValueError(f"sample_size {self.sample_size} exceeds pool {pool}")


def active_clients(spec: ScenarioSpec, round_index: int, pool: int,
                   rng: np.random.Generator) -> tuple[int, ...]:
    """Sorted ids of the clients active in the given 1-based round."""
    if round_index < 1:
        raise ValueError("rounds are 1-based")
    if spec.kind == "full":
        return tuple(range(pool))
    grown = (round_index - 1) // spec.interval_rounds
    if spec.kind == "incrementing":
        return tuple(range(min(pool, spec.start_count + grown)))
    if spec.kind == "decrementing":
        return tuple(range(max(1, pool - grown)))
    picked = rng.choice(pool, size=spec.sample_size, replace=False)
    return tuple(sorted(int(i) for i in picked))


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    model: ModelArch
    data: SyntheticSpec | CsvDataSpec
    rounds: int = 200
    scenario: ScenarioSpec = ScenarioSpec()
    training: TrainingConfig = TrainingConfig()
    feddist: FedDistConfig = FedDistConfig()
    seed: int = 0
    precision: str = "float64"
    eval_every: int = 1
    threads: int = 1
    init_variant: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.precision not in ("float32", "float64"):
            raise ValueError("precision must be float32 or float64")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        pool = self.data.clients
        if pool < 1:
            raise ValueError("need at least one client")
        self.scenario.check_pool(pool)
        if self.model.classes != self.data.classes:
            raise ValueError(
                f"model outputs {self.model.classes} classes, "
                f"data has {self.data.classes}"
            )
        windows = self.data.window_shape
        model_input = (self.model.input_length, self.model.input_channels)
        if model_input != windows:
            raise ValueError(
                f"model input {list(model_input)} does not match the data's "
                f"{list(windows)} windows (length, channels)"
            )

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32


@dataclass(frozen=True)
class Snapshot:
    """A client's best-personalization model, as the tick that took it scored
    it: the round, its macro F1 on the client's own test set, and on every
    client's test set."""

    round: int
    personalization: float
    generalization: float


@dataclass
class ClientState:
    """One simulated client across the whole experiment."""

    id: int
    train: Batch
    test: Batch
    model: ModelWeights
    best: Snapshot | None = None


@dataclass
class ExperimentResult:
    """The run state, which run_experiment builds before round 1 and
    advances: every round's ledger and every evaluated round's report so
    far, the server model (None for local-only) and the clients."""

    reports: list[RoundReport]
    ledgers: list[CommLedger]
    final_model: ModelWeights | None
    states: list[ClientState]


def _train_seed(seed: int, round_index: int, client: int) -> int:
    state = sequence("training", seed, round_index, client).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _runtime(cfg, st: ClientState, t: int) -> ClientRuntime:
    """Client st's view of round t: its training data, the run's training
    config and the client's seed."""
    return ClientRuntime(id=st.id, data=st.train, cfg=cfg.training,
                         seed=_train_seed(cfg.seed, t, st.id))


def client_datasets(cfg: ExperimentConfig) -> list[tuple[Batch, Batch]]:
    """Each client's (train, test) windows, generated or read from its CSV
    export.  A ValueError names an export that cannot be parsed, or a
    client left without training windows, or without test windows when
    the algorithm scores each client's own test set (all but centralized),
    or a pool without any test windows."""
    if isinstance(cfg.data, SyntheticSpec):
        datasets = generate_synthetic(cfg.data)
    else:
        datasets = read_csv_clients(cfg.data, cfg.seed)
    for k, (train, test) in enumerate(datasets):
        if len(train) == 0:
            raise ValueError(f"client {k} has no training windows")
        if len(test) == 0 and cfg.algorithm != "centralized":
            raise ValueError(f"client {k} has no test windows")
    if not any(len(test) for _train, test in datasets):
        raise ValueError("no client has test windows")
    return datasets


@functools.cache
def _openblas(name: str, restype=ctypes.c_int) -> tuple:
    """Function openblas_<name> of each loaded OpenBLAS, under the prefix
    and suffix its build exports it with, found once.  A maps line's sixth
    field is the mapped path, which may hold spaces; a deleted file is
    skipped."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.rstrip("\n").split(maxsplit=5)[5] for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return ()
    paths = sorted(path for path in paths if not path.endswith(" (deleted)"))
    symbols = [f"{prefix}openblas_{name}{suffix}"
               for prefix in ("", "scipy_") for suffix in ("", "64_")]
    found = tuple(getattr(lib, symbol) for lib in map(ctypes.CDLL, paths)
                  for symbol in symbols if hasattr(lib, symbol))
    for function in found:
        function.restype = restype
    return found


def openblas_threading() -> tuple:
    """(get, set) thread-count functions of each loaded OpenBLAS."""
    return tuple(zip(_openblas("get_num_threads"), _openblas("set_num_threads")))


def host_facts() -> dict:
    """What a run's bits depend on besides its config and seed: source_sha256
    hashes each of the package's modules in name order as its file name and
    its bytes, each framed by its length as 8 big-endian bytes; blas_core is
    the kernel OpenBLAS picked for this CPU at load time (OPENBLAS_CORETYPE
    overrides it), None without OpenBLAS or the symbol."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for part in (path.name.encode(), path.read_bytes()):
            digest.update(len(part).to_bytes(8, "big") + part)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas("get_corename", ctypes.c_char_p)
    return {"source_sha256": digest.hexdigest(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": 1 if openblas_threading() else None,
            "blas_core": core[0]().decode() if core else None}


def run_experiment(cfg: ExperimentConfig, on_report=None) -> ExperimentResult:
    """Execute the configured experiment and return its run state, with
    BLAS on one thread throughout, so that no core count picks the bits.

    on_report, when given, is called with each RoundReport as it is
    produced so callers can stream results to disk.
    """
    blas = [(set_threads, get()) for get, set_threads in openblas_threading()]
    for set_threads, _count in blas:
        set_threads(1)
    executor = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    try:
        datasets = client_datasets(cfg)
        server = init_model(cfg.model, sequence("init", cfg.seed, cfg.init_variant),
                            cfg.dtype)
        run = ExperimentResult([], [], server, [
            ClientState(k, train, test, server)
            for k, (train, test) in enumerate(datasets)])
        del server  # so the initial model is freed once no client holds it
        pooled = None
        if cfg.algorithm == "centralized":
            pooled = concat_window_sets(train for train, _test in datasets)
        for t in range(1, cfg.rounds + 1):
            with diverged_in(f"round {t}"):
                (run.final_model, ledger, models), active = _round(
                    cfg, t, run.states, run.final_model, pooled, executor)
            run.ledgers.append(ledger)
            for k, model in zip(active, models):
                run.states[k].model = model
            if t % cfg.eval_every == 0 or t == cfg.rounds:
                report = _evaluate_tick(cfg, run, active, t)
                run.reports.append(report)
                if on_report:
                    on_report(report)
        return run
    finally:
        for set_threads, count in blas:
            set_threads(count)
        if executor is not None:
            executor.shutdown()


def _evaluate_tick(cfg, run: ExperimentResult, active, t) -> RoundReport:
    """Score round t, the last of run.ledgers; the report totals every
    round since the previous report.  The global view needs a server
    model; the personalization and generalization views need active
    clients, so a centralized run (no clients) reports only the global
    view.  Both server and snapshots are scored on every client's test
    set, and a best snapshot only at the tick that takes it."""
    arch, server, states = cfg.model, run.final_model, run.states
    tests = [st.test for st in states]
    since = run.reports[-1].round if run.reports else 0
    totals = ledger_totals(run.ledgers[since:])
    bundle = evaluate_global(server, arch, tests) if server is not None else None
    model = server if server is not None else states[0].model
    pers = gen = None
    if active:
        scored = [states[k] for k in active]
        pers_scores = evaluate_personalization([(st.model, st.test) for st in scored],
                                               arch)
        taken = [(st, score) for st, score in zip(scored, pers_scores)
                 if st.best is None or score > st.best.personalization]
        if taken:
            fresh = evaluate_generalization([st.model for st, _ in taken], arch, tests)
            for (st, score), generalization in zip(taken, fresh):
                st.best = Snapshot(t, score, generalization)
        pers = {st.id: score for st, score in zip(scored, pers_scores)}
        gen = {st.id: st.best.generalization for st in states if st.best is not None}
    pers_mean, pers_std = spread(list(pers.values())) if pers else (None, None)
    gen_mean, gen_std = spread(list(gen.values())) if gen else (None, None)
    return RoundReport(
        round=t,
        algorithm=cfg.algorithm,
        global_f1=bundle.macro_f1 if bundle else None,
        pers_mean=pers_mean,
        pers_std=pers_std,
        gen_mean=gen_mean,
        gen_std=gen_std,
        params=model.parameter_count,
        bytes_up=totals.bytes_up,
        bytes_down=totals.bytes_down,
        units_added=totals.total_units_added,
        shape_signature=model.shape_signature,
        global_scores=bundle,
        per_client_personalization=pers,
        per_client_generalization=gen,
        sub_rounds=totals.sub_rounds,
    )


def _round(cfg, t, states, server, pooled, executor):
    """Run round t and return (its RoundOutcome, ids of the clients it
    trained); the run state is left to run_experiment.  Centralized trains
    the server on pooled, every client's training windows together, and no
    client.  Local-only trains every client's own model for E epochs a round
    (T*E in total, the gradient budget of FL), draws no scenario and has no
    server.  Every client, and the pooled set, trains with cfg.training."""
    arch = cfg.model
    if cfg.algorithm == "centralized":
        with diverged_in("every client pooled, centralized training"):
            server, _ = train_local(server, arch, pooled, cfg.training,
                                    _train_seed(cfg.seed, t, 0))
        return RoundOutcome(server, CommLedger(t), []), ()
    if cfg.algorithm == "local-only":
        models = train_clients([_runtime(cfg, st, t) for st in states],
                               [st.model for st in states], arch,
                               "local training", executor=executor)
        return RoundOutcome(None, CommLedger(t), models), tuple(range(len(states)))

    rng = np.random.default_rng(sequence("scenario", cfg.seed, t))
    active = active_clients(cfg.scenario, t, len(states), rng)
    clients = [_runtime(cfg, states[k], t) for k in active]
    if cfg.algorithm == "feddist":
        outcome = feddist_round(server, arch, clients, cfg.feddist, t, executor=executor)
    elif cfg.algorithm == "fedprox":
        outcome = fedprox_round(server, arch, clients, round_index=t, executor=executor)
    else:
        outcome = fedavg_round(server, arch, clients, round_index=t, executor=executor)
    return outcome, active


def rerun_with_final_shape(cfg: ExperimentConfig,
                           final_shape: tuple[int, ...],
                           on_report=None) -> ExperimentResult:
    """FedAvg from scratch on a model re-instantiated at a grown shape
    (typically the final shape a growth run produced).  Initialization seeds
    are re-derived so the fresh model is independent of the original run."""
    arch = cfg.model.with_widths(final_shape)
    fresh = replace(cfg, algorithm="fedavg", model=arch,
                    init_variant=cfg.init_variant + 1)
    return run_experiment(fresh, on_report=on_report)
