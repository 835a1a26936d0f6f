"""Classification metrics and the three federated evaluation views:

  global           - server model on the concatenation of every client's
                     test set;
  personalization  - each client's current model on its own test set;
  generalization   - each client's best-personalization snapshot on the
                     concatenation of every client's test set.

A confusion matrix over a concatenation is the sum of the matrices of its
parts, so every view scores a list of test sets, one at a time, and adds
their counts: the pooled test set is never built.  A view that scores
several models on a set scores them together (score_models): one pass over
the set's slices, which runs the layers the models share once.

Means and spreads across clients use the population standard deviation.
Macro (unweighted) F1 is the headline score; weighted F1 rides along in the
bundles for comparison.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .arch import ModelArch
from .fabric import ModelWeights

CSV_COLUMNS = ["round", "algorithm", "global_f1", "pers_mean", "pers_std",
               "gen_mean", "gen_std", "params", "bytes_up", "bytes_down",
               "units_added"]


def confusion(truth, predictions, classes: int) -> np.ndarray:
    """int64 count matrix: [i, j] = examples with truth i predicted as j."""
    truth = np.asarray(truth, dtype=np.intp)
    predictions = np.asarray(predictions, dtype=np.intp)
    if truth.shape != predictions.shape:
        raise ValueError(
            f"{len(truth)} truth labels vs {len(predictions)} predictions"
        )
    if len(truth) and (min(truth.min(), predictions.min()) < 0
                       or max(truth.max(), predictions.max()) >= classes):
        raise ValueError(f"labels must lie in [0, class count {classes})")
    counts = np.bincount(truth * classes + predictions, minlength=classes * classes)
    return counts.astype(np.int64, copy=False).reshape(classes, classes)


@dataclass(frozen=True)
class ScoreBundle:
    accuracy: float
    precision: float
    recall: float
    macro_f1: float
    weighted_f1: float


def score_bundle(counts: np.ndarray) -> ScoreBundle:
    """Every score of a count matrix from one set of per-class statistics.
    Precision, recall and macro F1 are unweighted means over the classes
    present in truth or predictions (an absent class carries no
    information); weighted F1 weighs each class by its support.  A 0/0
    inside a class counts as 0."""
    tp = np.diag(counts).astype(np.float64)
    support = counts.sum(axis=1).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)
    total = support.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    included = (support > 0) | (predicted > 0)
    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros_like(tp), where=support > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros_like(tp), where=pr > 0)
    return ScoreBundle(
        accuracy=float(tp.sum() / total),
        precision=float(precision[included].mean()),
        recall=float(recall[included].mean()),
        macro_f1=float(f1[included].mean()),
        weighted_f1=float((f1 * support).sum() / total),
    )


def score_models(models, arch: ModelArch, tests) -> list[ScoreBundle]:
    """Scores of each model on the concatenation of a list of test sets,
    from the sum of their confusion matrices.  Every model is scored on a
    set in one nn.evaluate pass, which gathers each slice of the set once
    and runs the leading layers the models share once on it."""
    if not models:
        return []
    classes = arch.classes
    counts = np.zeros((len(models), classes, classes), dtype=np.int64)
    for test in tests:
        if len(test):
            for row, predictions in zip(counts, nn.evaluate(models, arch, test)):
                row += confusion(test.labels, predictions, classes)
    if not counts.any():
        raise ValueError("empty test set")
    return [score_bundle(row) for row in counts]


def score_model(model: ModelWeights, arch: ModelArch, tests) -> ScoreBundle:
    """Scores of model on the concatenation of a list of test sets."""
    return score_models([model], arch, tests)[0]


def evaluate_global(server: ModelWeights, arch: ModelArch, tests) -> ScoreBundle:
    """Server model scored on every client's test set together."""
    return score_model(server, arch, tests)


def spread(scores: list[float]) -> tuple[float, float]:
    """(mean, population std) of per-client scores."""
    arr = np.asarray(scores, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def evaluate_personalization(entries, arch: ModelArch) -> list[float]:
    """Macro F1 of each (model, own test set) pair, in order."""
    return [score_model(model, arch, [test]).macro_f1 for model, test in entries]


def evaluate_generalization(best_models, arch: ModelArch, tests) -> list[float]:
    """Macro F1 of each best-personalization snapshot on every client's
    test set together, in order."""
    return [bundle.macro_f1 for bundle in score_models(best_models, arch, tests)]


@dataclass(frozen=True)
class RoundReport:
    """One evaluated communication round, flattened for the CSV stream."""

    round: int
    algorithm: str
    global_f1: float | None
    pers_mean: float | None
    pers_std: float | None
    gen_mean: float | None
    gen_std: float | None
    params: int
    bytes_up: int
    bytes_down: int
    units_added: int
    shape_signature: tuple[int, ...] = ()
    global_scores: ScoreBundle | None = None
    per_client_personalization: dict[int, float] | None = None
    per_client_generalization: dict[int, float] | None = None
    sub_rounds: int = 0

    def csv_row(self) -> list[str]:
        def fmt(v) -> str:
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return [fmt(getattr(self, col)) for col in CSV_COLUMNS]

    def record(self) -> dict:
        """Structured per-round record for the JSONL stream: every field,
        with per-client keys as strings and global_scores only when
        present."""
        rec = asdict(self)
        for key in ("per_client_personalization", "per_client_generalization"):
            rec[key] = _str_keys(rec[key])
        if rec["global_scores"] is None:
            del rec["global_scores"]
        return rec


def _str_keys(d: dict | None) -> dict | None:
    if d is None:
        return None
    return {str(k): v for k, v in d.items()}
