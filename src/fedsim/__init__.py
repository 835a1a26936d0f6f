"""fedsim: a desk-scale federated learning simulator.

Implements weighted-averaging aggregation (FedAvg), proximal-regularized
local training (FedProx), and distance-driven dynamic model growth
(FedDist) over a simulated pool of heterogeneous sensor clients, with
communication-cost accounting, asynchronous client scenarios, and the
global / personalization / generalization evaluation views.
"""

__version__ = "0.1.0"

from .aggregation import (
    ClientRuntime,
    CommLedger,
    FedDistConfig,
    GrowthEvent,
    LayerGrowth,
    RoundOutcome,
    cost_ratio,
    distance_matrix,
    divergence_threshold,
    fedavg_round,
    feddist_round,
    fedprox_round,
    ledger_totals,
    select_divergent,
)
from .arch import LayerSpec, ModelArch
from .container import byte_size, deserialize_model, serialize_model
from .data import (
    CsvDataSpec,
    SyntheticSpec,
    client_windows,
    generate_synthetic,
    ingest_csv,
    read_csv_clients,
    stratified_split,
    window,
    z_normalize,
)
from .fabric import (
    LayerWeights,
    ModelWeights,
    append_neuron,
    conform_to_shape,
    init_model,
    neuron_vector,
    weighted_average,
)
from .metrics import (
    RoundReport,
    ScoreBundle,
    confusion,
    evaluate_generalization,
    evaluate_global,
    evaluate_personalization,
    score_bundle,
)
from .nn import (
    Batch,
    DivergenceError,
    TrainingConfig,
    balanced_class_weights,
    evaluate,
    forward,
    gradient_check,
    loss,
    train_local,
)
from .scheduler import (
    ClientState,
    ExperimentConfig,
    ExperimentResult,
    ScenarioSpec,
    Snapshot,
    active_clients,
    rerun_with_final_shape,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
