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

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import (
    ClientRuntime,
    CommLedger,
    FedDistConfig,
    LedgerSummary,
    fedavg_round,
    feddist_round,
    fedprox_round,
    ledger_totals,
)
from .arch import ModelArch
from .container import serialize_model
from .data import (
    CSV_CHANNELS,
    DEFAULT_WINDOW,
    CsvSchema,
    SyntheticSpec,
    WindowSet,
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
class CsvDataSpec:
    """Per-client CSV sources pushed through the standard pipeline
    (ingest -> normalize -> window -> split)."""

    paths: tuple[str, ...]
    classes: int
    sample_rate_hz: float = 50.0
    target_hz: float | None = 50.0
    train_fraction: float = 0.8
    window_length: int = 128
    window_step: int = 64

    def __post_init__(self) -> None:
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.window_length < 1:
            raise ValueError("window_length must be >= 1")
        if self.window_step < 1:
            raise ValueError("window_step must be >= 1")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.target_hz is not None and self.target_hz <= 0:
            raise ValueError("target_hz must be positive or null")


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
        pool = self.pool_size
        if pool < 1:
            raise ValueError("need at least one client")
        self.scenario.check_pool(pool)
        if self.model.classes != self.data.classes:
            raise ValueError(
                f"model outputs {self.model.classes} classes, "
                f"data has {self.data.classes}"
            )
        if isinstance(self.data, SyntheticSpec):
            windows = (DEFAULT_WINDOW, self.data.channels)
        else:
            windows = (self.data.window_length, CSV_CHANNELS)
        model_input = (self.model.input_length, self.model.input_channels)
        if model_input != windows:
            raise ValueError(
                f"model input {list(model_input)} does not match the data's "
                f"{list(windows)} windows (length, channels)"
            )

    @property
    def pool_size(self) -> int:
        if isinstance(self.data, SyntheticSpec):
            return self.data.clients
        return len(self.data.paths)

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32


@dataclass
class ClientState:
    """One simulated client across the whole experiment."""

    id: int
    train: WindowSet
    test: WindowSet
    cfg: TrainingConfig
    model: ModelWeights
    best_score: float | None = None
    best_round: int | None = None
    best_model: ModelWeights | None = None
    best_hash: str | None = None

    @property
    def n_k(self) -> int:
        return len(self.train)


@dataclass(frozen=True)
class ExperimentResult:
    reports: tuple[RoundReport, ...]
    ledgers: tuple[CommLedger, ...]
    final_model: ModelWeights | None
    states: tuple[ClientState, ...]
    global_test: WindowSet


def _seq(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=tuple(key))


def _train_seed(seed: int, round_index: int, client: int) -> int:
    state = _seq(seed, 2, round_index, client).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _materialize(cfg: ExperimentConfig) -> list[tuple[WindowSet, WindowSet]]:
    if isinstance(cfg.data, SyntheticSpec):
        return generate_synthetic(cfg.data)
    spec = cfg.data
    schema = CsvSchema(sample_rate_hz=spec.sample_rate_hz, target_hz=spec.target_hz)
    out = []
    for k, path in enumerate(spec.paths):
        series = z_normalize(ingest_csv(path, schema))
        ws = window(series, spec.window_length, spec.window_step)
        out.append(stratified_split(ws, spec.train_fraction, _seq(cfg.seed, 1, k)))
    return out


def _snapshot(state: ClientState, score: float, round_index: int) -> None:
    blob = serialize_model(state.model)
    state.best_score = score
    state.best_round = round_index
    state.best_model = state.model
    state.best_hash = hashlib.sha256(blob).hexdigest()


def run_experiment(cfg: ExperimentConfig, on_report=None) -> ExperimentResult:
    """Execute the configured experiment and return every evaluated round.

    on_report, when given, is called with each RoundReport as it is
    produced so callers can stream results to disk.
    """
    arch = cfg.model
    datasets = _materialize(cfg)
    pool = cfg.pool_size
    if len(datasets) != pool:
        raise ValueError(f"{len(datasets)} client datasets for a pool of {pool}")
    for k, (train, _test) in enumerate(datasets):
        if len(train) == 0:
            raise ValueError(f"client {k} has no training windows")

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

    executor = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    try:
        if cfg.algorithm == "centralized":
            rounds = _centralized_rounds(cfg, arch, states, init)
        elif cfg.algorithm == "local-only":
            rounds = _local_only_rounds(cfg, arch, states)
        else:
            rounds = _federated_rounds(cfg, arch, states, init, executor)
        reports: list[RoundReport] = []
        ledgers: list[CommLedger] = []
        for t, (ledger, model, active) in enumerate(rounds, start=1):
            ledgers.append(ledger)
            if t % cfg.eval_every == 0:
                # Report columns total every round since the previous tick.
                totals = ledger_totals(ledgers[-cfg.eval_every:])
                report = _evaluate_tick(arch, states, active, model, global_test,
                                        t, totals, cfg.algorithm)
                reports.append(report)
                if on_report:
                    on_report(report)
        return ExperimentResult(tuple(reports), tuple(ledgers), model,
                                tuple(states), global_test)
    finally:
        if executor is not None:
            executor.shutdown()


def _evaluate_tick(arch, states, active, server, global_test, t,
                   totals: LedgerSummary, algorithm: str) -> RoundReport:
    """Score round t.  The global view needs a server model; the
    personalization and generalization views need active clients, so a
    centralized run (no clients) reports only the global view."""
    bundle = evaluate_global(server, arch, global_test) if server is not None else None
    model = server if server is not None else states[0].model
    report = RoundReport(
        round=t,
        algorithm=algorithm,
        global_f1=bundle.macro_f1 if bundle else None,
        pers_mean=None, pers_std=None, gen_mean=None, gen_std=None,
        params=model.parameter_count,
        bytes_up=totals.bytes_up,
        bytes_down=totals.bytes_down,
        units_added=sum(totals.growth_trajectory),
        shape_signature=model.shape_signature,
        global_scores=bundle,
        sub_rounds=totals.sub_rounds,
    )
    if not active:
        return report

    scored = [states[k] for k in active]
    pers_mean, pers_std, pers_scores = evaluate_personalization(
        [(st.model, st.test) for st in scored], arch)
    for st, score in zip(scored, pers_scores):
        if st.best_score is None or score > st.best_score:
            _snapshot(st, score, t)

    evaluated = [st for st in states if st.best_model is not None]
    gen_mean, gen_std, gen_scores = evaluate_generalization(
        [st.best_model for st in evaluated], arch, global_test)

    return replace(
        report,
        pers_mean=pers_mean,
        pers_std=pers_std,
        gen_mean=gen_mean,
        gen_std=gen_std,
        per_client_personalization={st.id: s for st, s in zip(scored, pers_scores)},
        per_client_generalization={st.id: s for st, s in zip(evaluated, gen_scores)},
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
            runtimes.append(ClientRuntime(
                id=k, inputs=st.train.windows, labels=st.train.labels,
                cfg=st.cfg, seed=_train_seed(cfg.seed, t, k)))

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


def _local_only_rounds(cfg, arch, states):
    """No aggregation: every client trains its own model for E epochs per
    round (T*E local epochs in total, matching FL gradient budgets)."""
    everyone = tuple(range(len(states)))
    for t in range(1, cfg.rounds + 1):
        for st in states:
            with diverged_in(f"round {t}: client {st.id}, local training"):
                st.model, _ = train_local(st.model, arch,
                                          Batch(st.train.windows, st.train.labels),
                                          st.cfg, _train_seed(cfg.seed, t, st.id))
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
            model, _ = train_local(model, arch, Batch(pooled.windows, pooled.labels),
                                   central_cfg, _train_seed(cfg.seed, t, 0))
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
