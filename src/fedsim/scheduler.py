"""Experiment driver: runs T communication rounds over a client pool under
one of the asynchronous-availability scenarios, tracks per-client
best-personalization snapshots, and assembles RoundReports.

Seed derivation: everything flows from one experiment seed through
np.random.SeedSequence spawn keys, namespaced by domain:

    (0, variant)      model initialization
    (1, k)            per-client data splits for CSV sources
    (2, t, k)         client k's training stream in round t
    (3, t)            round t scenario sampling

so a rerun of the same config is bit-identical, and round output never
depends on client execution order.
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
    fedavg_round,
    feddist_round,
    fedprox_round,
    ledger_totals,
    train_clients,
)
from .arch import ModelArch
from .container import serialize_model
from .data import (
    CsvDataSpec,
    CsvFormatError,
    SyntheticSpec,
    concat_window_sets,
    generate_synthetic,
    ingest_csv,
    stratified_split,
    window,
    z_normalize,
)
from .fabric import ModelWeights, conform_to_shape, init_model
from .metrics import (
    RoundReport,
    evaluate_generalization,
    evaluate_global,
    evaluate_personalization,
    spread,
)
from .nn import (
    Batch,
    TrainingConfig,
    balanced_class_weights,
    diverged_in,
    train_local,
)


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


@dataclass
class ClientState:
    """One simulated client across the whole experiment."""

    id: int
    train: Batch
    test: Batch
    cfg: TrainingConfig
    model: ModelWeights
    best_score: float | None = None
    best_round: int | None = None
    best_model: ModelWeights | None = None
    best_hash: str | None = None
    # best_model's macro F1 on the pooled test set, scored with the snapshot.
    best_generalization: float | None = None


@dataclass(frozen=True)
class ExperimentResult:
    reports: tuple[RoundReport, ...]
    ledgers: tuple[CommLedger, ...]
    final_model: ModelWeights | None
    states: tuple[ClientState, ...]
    global_test: Batch


def _seq(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=tuple(key))


def _train_seed(seed: int, round_index: int, client: int) -> int:
    state = _seq(seed, 2, round_index, client).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _runtime(cfg, st: ClientState, t: int) -> ClientRuntime:
    """Client st's view of round t: its training data, config and seed."""
    return ClientRuntime(id=st.id, data=st.train, cfg=st.cfg,
                         seed=_train_seed(cfg.seed, t, st.id))


def client_datasets(cfg: ExperimentConfig) -> list[tuple[Batch, Batch]]:
    """Each client's (train, test) windows, generated or read from its CSV
    export.  A ValueError names an export that cannot be parsed, or a
    client left without training windows, or without test windows when
    the algorithm scores each client's own test set (all but centralized)."""
    if isinstance(cfg.data, SyntheticSpec):
        datasets = generate_synthetic(cfg.data)
    else:
        spec = cfg.data
        datasets = []
        for k, path in enumerate(spec.paths):
            try:
                series = z_normalize(ingest_csv(path, spec.sample_rate_hz,
                                                spec.target_hz))
            except CsvFormatError as exc:
                raise CsvFormatError(f"{path}: {exc}") from exc
            top = int(series.labels.max(initial=0))
            if top >= spec.classes:
                raise ValueError(f"{path}: label {top} is outside [0, {spec.classes})")
            windows = window(series, spec.window_length, spec.window_step)
            datasets.append(stratified_split(windows, spec.train_fraction,
                                             _seq(cfg.seed, 1, k)))
    if len(datasets) != cfg.data.clients:
        raise ValueError(f"{len(datasets)} client datasets for a pool of "
                         f"{cfg.data.clients}")
    for k, (train, test) in enumerate(datasets):
        if len(train) == 0:
            raise ValueError(f"client {k} has no training windows")
        if len(test) == 0 and cfg.algorithm != "centralized":
            raise ValueError(f"client {k} has no test windows")
    return datasets


def _snapshot(state: ClientState, score: float, round_index: int) -> None:
    blob = serialize_model(state.model)
    state.best_score = score
    state.best_round = round_index
    state.best_model = state.model
    state.best_hash = hashlib.sha256(blob).hexdigest()


@functools.cache
def openblas_threading() -> tuple:
    """(get, set) thread-count functions of each loaded OpenBLAS, found once."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    names = [f"{prefix}openblas_%s_num_threads{suffix}"
             for prefix in ("", "scipy_") for suffix in ("", "64_")]
    return tuple((getattr(lib, name % "get"), getattr(lib, name % "set"))
                 for lib in map(ctypes.CDLL, paths) for name in names
                 if hasattr(lib, name % "set"))


def host_facts() -> dict:
    """What a run's bits depend on besides its config and seed."""
    sources = sorted(Path(__file__).parent.glob("*.py"))
    digest = hashlib.sha256(b"".join(path.read_bytes() for path in sources))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"source_sha256": digest.hexdigest(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": 1 if openblas_threading() else None}


def run_experiment(cfg: ExperimentConfig, on_report=None) -> ExperimentResult:
    """Execute the configured experiment and return every evaluated round,
    with BLAS on one thread throughout, so that no core count picks the bits.

    on_report, when given, is called with each RoundReport as it is
    produced so callers can stream results to disk.
    """
    blas = [(set_threads, get()) for get, set_threads in openblas_threading()]
    for set_threads, _count in blas:
        set_threads(1)
    executor = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    try:
        arch = cfg.model
        datasets = client_datasets(cfg)
        global_test = concat_window_sets(test for _train, test in datasets)
        init = init_model(arch, _seq(cfg.seed, 0, cfg.init_variant), cfg.dtype)

        states = []
        for k, (train, test) in enumerate(datasets):
            client_cfg = replace(
                cfg.training,
                class_weights=balanced_class_weights(train.labels, arch.classes),
            )
            states.append(ClientState(id=k, train=train, test=test,
                                      cfg=client_cfg, model=init))

        if cfg.algorithm == "centralized":
            rounds = _centralized_rounds(cfg, arch, states, init)
        elif cfg.algorithm == "local-only":
            rounds = _local_only_rounds(cfg, arch, states, executor)
        else:
            rounds = _federated_rounds(cfg, arch, states, init, executor)
        reports: list[RoundReport] = []
        ledgers: list[CommLedger] = []
        reported = 0  # rounds covered by the reports so far
        for t, (ledger, model, active) in enumerate(rounds, start=1):
            ledgers.append(ledger)
            if t % cfg.eval_every == 0 or t == cfg.rounds:
                # Report columns total every round since the previous tick.
                totals = ledger_totals(ledgers[reported:])
                reported = t
                report = _evaluate_tick(arch, states, active, model, global_test,
                                        t, totals, cfg.algorithm)
                reports.append(report)
                if on_report:
                    on_report(report)
        return ExperimentResult(tuple(reports), tuple(ledgers), model,
                                tuple(states), global_test)
    finally:
        for set_threads, count in blas:
            set_threads(count)
        if executor is not None:
            executor.shutdown()


def _evaluate_tick(arch, states, active, server, global_test, t,
                   totals: CommLedger, algorithm: str) -> RoundReport:
    """Score round t.  The global view needs a server model; the
    personalization and generalization views need active clients, so a
    centralized run (no clients) reports only the global view.  A best
    snapshot is scored on the pooled test set at the tick that takes it."""
    bundle = evaluate_global(server, arch, global_test) if server is not None else None
    model = server if server is not None else states[0].model
    pers = gen = None
    if active:
        scored = [states[k] for k in active]
        pers_scores = evaluate_personalization([(st.model, st.test) for st in scored],
                                               arch)
        taken = []
        for st, score in zip(scored, pers_scores):
            if st.best_score is None or score > st.best_score:
                _snapshot(st, score, t)
                taken.append(st)
        if taken:
            fresh = evaluate_generalization([st.best_model for st in taken],
                                            arch, global_test)
            for st, score in zip(taken, fresh):
                st.best_generalization = score
        pers = {st.id: score for st, score in zip(scored, pers_scores)}
        gen = {st.id: st.best_generalization for st in states
               if st.best_model is not None}
    pers_mean, pers_std = spread(list(pers.values())) if pers else (None, None)
    gen_mean, gen_std = spread(list(gen.values())) if gen else (None, None)
    return RoundReport(
        round=t,
        algorithm=algorithm,
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


# Round generators: each yields (ledger, model, active client ids) once per
# round, where model is the server model (None when there is none).


def _federated_rounds(cfg, arch, states, server, executor):
    for t in range(1, cfg.rounds + 1):
        rng = np.random.default_rng(_seq(cfg.seed, 3, t))
        active = active_clients(cfg.scenario, t, len(states), rng)
        runtimes = []
        for k in active:
            st = states[k]
            if (cfg.algorithm == "feddist"
                    and st.model.shape_signature != server.shape_signature):
                # Lazy conform: idle clients catch up with server growth on rejoin.
                st.model = conform_to_shape(st.model, server)
            runtimes.append(_runtime(cfg, st, t))

        with diverged_in(f"round {t}"):
            if cfg.algorithm == "feddist":
                outcome = feddist_round(server, arch, runtimes, cfg.feddist, t,
                                        executor=executor)
            elif cfg.algorithm == "fedprox":
                outcome = fedprox_round(server, arch, runtimes, round_index=t,
                                        executor=executor)
            else:
                outcome = fedavg_round(server, arch, runtimes, round_index=t,
                                       executor=executor)
        server = outcome.server
        for k, model in outcome.client_models.items():
            states[k].model = model
        yield outcome.ledger, server, active


def _local_only_rounds(cfg, arch, states, executor):
    """No aggregation: every client trains its own model for E epochs per
    round (T*E local epochs in total, matching FL gradient budgets)."""
    everyone = tuple(range(len(states)))
    for t in range(1, cfg.rounds + 1):
        with diverged_in(f"round {t}"):
            models = train_clients([_runtime(cfg, st, t) for st in states],
                                   [st.model for st in states], arch,
                                   "local training", executor=executor)
        for st, model in zip(states, models):
            st.model = model
        yield CommLedger(t, "local-only"), None, everyone


def _centralized_rounds(cfg, arch, states, init):
    """Conventional training on the pooled client data; personalization and
    generalization views do not apply, so no client is active."""
    pooled = concat_window_sets(st.train for st in states)
    central_cfg = replace(cfg.training,
                          class_weights=balanced_class_weights(pooled.labels,
                                                               arch.classes))
    model = init
    for t in range(1, cfg.rounds + 1):
        with diverged_in(f"round {t}: every client pooled, centralized training"):
            model, _ = train_local(model, arch, pooled, central_cfg,
                                   _train_seed(cfg.seed, t, 0))
        yield CommLedger(t, "centralized"), model, ()


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
