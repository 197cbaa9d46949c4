"""Confusion matrices, precision/recall/F1 reports, and k-fold cross-validation."""

from __future__ import annotations

import csv
import json
from collections import Counter
from itertools import chain
from typing import Mapping, NamedTuple, Sequence, TextIO

from .classify import (
    CLASS_INDEX, CLASSES, FEATURES, Dataset, DecisionTree, NaiveBayesModel, TreeLeaf, as_dataset,
    fit_model, histogram_minus, seeded_permutation,
)
from .errors import CrimeMinerError
from .vocab import CrimeCategory, UnifiedCrimeRecord, round_half_up

# Records to score or train on: a ``Dataset`` or a list, encoded once on entry.
Data = Dataset | Sequence[UnifiedCrimeRecord]


def __getattr__(name: str):
    # Unused here (it loads ``logging``): kept only for ``perfbench/tracer.py``, which
    # swaps it in its traced run, until ROADMAP item 1's benchmark change drops it.
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfusionMatrix(NamedTuple):
    """cells[actual][predicted], both indexed in ``CLASSES`` order."""

    cells: tuple[tuple[int, ...], ...]

    @classmethod
    def from_pairs(
        cls,
        actual: Sequence[CrimeCategory],
        predicted: Sequence[CrimeCategory],
    ) -> "ConfusionMatrix":
        if len(actual) != len(predicted):
            raise CrimeMinerError(
                f"{len(actual)} actual labels vs {len(predicted)} predictions"
            )
        return cls.from_counts(Counter((int(a) - 1, int(p) - 1) for a, p in zip(actual, predicted)))

    @classmethod
    def from_counts(cls, pairs: Mapping[tuple[int, int], int]) -> "ConfusionMatrix":
        """From counts of (actual, predicted) pairs of indices into ``CLASSES``."""
        if not pairs:
            raise CrimeMinerError("cannot build a confusion matrix from zero pairs")
        counts = [[0] * len(CLASSES) for _ in CLASSES]
        for (a, p), n in pairs.items():
            counts[a][p] += n
        return cls(cells=tuple(tuple(row) for row in counts))

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.cells)

    @property
    def trace(self) -> int:
        return sum(self.cells[i][i] for i in range(len(self.cells)))

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.cells)

    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.cells))


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int


class EvaluationReport(NamedTuple):
    matrix: ConfusionMatrix
    per_class: Mapping[CrimeCategory, ClassMetrics]
    weighted: ClassMetrics  # support-weighted averages; support == total
    accuracy: float


def classification_report(matrix: ConfusionMatrix) -> EvaluationReport:
    """Per-class and support-weighted precision/recall/F1 plus accuracy.

    Empty predicted columns give precision 0 and empty actual rows give
    recall 0, so never-predicted classes contribute zeros rather than NaNs.
    """
    total = matrix.total
    if total == 0:
        raise CrimeMinerError("all confusion matrix cells are zero")
    rows = matrix.row_sums()
    cols = matrix.col_sums()
    per_class: dict[CrimeCategory, ClassMetrics] = {}
    for i, c in enumerate(CLASSES):
        tp = matrix.cells[i][i]
        precision = tp / cols[i] if cols[i] else 0.0
        recall = tp / rows[i] if rows[i] else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[c] = ClassMetrics(precision, recall, f1, rows[i])
    weighted = ClassMetrics(
        precision=sum(m.precision * m.support for m in per_class.values()) / total,
        recall=sum(m.recall * m.support for m in per_class.values()) / total,
        f1=sum(m.f1 * m.support for m in per_class.values()) / total,
        support=total,
    )
    return EvaluationReport(
        matrix=matrix,
        per_class=per_class,
        weighted=weighted,
        accuracy=matrix.trace / total,
    )


def evaluate_split(
    train: Data,
    test: Data,
    model_kind: str,
    *,
    alpha: float = 1.0,
    max_leaves: int = 10,
) -> EvaluationReport:
    """Train on one set, predict the other, and report."""
    return classification_report(_fit_predict(train, test, model_kind, alpha, max_leaves))


def evaluate_model(model, test: Data) -> EvaluationReport:
    """Predict the test set with an already trained model (either kind), and report."""
    return classification_report(_confusion(model, test))


def _fit_predict(train, test, model_kind, alpha, max_leaves) -> ConfusionMatrix:
    return _confusion(fit_model(model_kind, train, alpha=alpha, max_leaves=max_leaves), test)


def _confusion(model, test: Data) -> ConfusionMatrix:
    """Actual against predicted class of every test record."""
    data = as_dataset(test)
    if isinstance(model, NaiveBayesModel):
        pairs = Counter(zip(map(data.labels.__getitem__, data.rows), _nb_predicted(model, data)))
    else:
        pairs = _dt_pairs(model, data)
    return ConfusionMatrix.from_counts(pairs)


# Whole-dataset scoring lives here rather than in ``classify``, so that a
# ``predict`` call, which loads ``classify`` alone, does not compile it.

def _nb_predicted(model: NaiveBayesModel, data: Dataset) -> list[int]:
    """``nb_predict``'s class of every record, as an index into ``CLASSES``.

    Each score adds the same terms in the same order as ``nb_class_scores``
    (prior, month, day, time, location), and the first class of the highest
    score wins, so every prediction is the per-record one.
    """
    codes = [list(map(data.columns[f].__getitem__, data.rows)) for f in FEATURES]
    scores = []
    for c in model.classes:
        prior = model.log_prior[c]
        month, day, time, location = (
            [model.cond_log[f][c].get(v, model.unseen_log[f][c]) for v in data.values[f]]
            for f in FEATURES
        )
        scores.append([prior + month[m] + day[d] + time[t] + location[loc]
                       for m, d, t, loc in zip(*codes)])
    winner = [CLASS_INDEX[c] for c in model.classes]
    return [winner[row.index(max(row))] for row in zip(*scores)]


def _dt_pairs(tree: DecisionTree, data: Dataset) -> Counter:
    """Counts of (actual, ``dt_predict``'s) class index pairs of every record:
    each split node splits its row list, and each leaf counts its rows' classes."""
    pairs: Counter = Counter()
    stack = [(tree.root, data.rows)]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, TreeLeaf):
            predicted = CLASS_INDEX[node.majority]
            for actual, n in Counter(map(data.labels.__getitem__, rows)).items():
                pairs[actual, predicted] += n
            continue
        column = data.columns[node.feature]
        code = data.codes[node.feature].get(node.value, -1)  # -1: a value no record has
        stack.append((node.if_true, [i for i in rows if column[i] == code]))
        stack.append((node.if_false, [i for i in rows if column[i] != code]))
    return pairs


def make_fold_indices(n: int, k: int, seed: int) -> list[list[int]]:
    """Seeded permutation sliced into k folds with sizes differing by at most 1."""
    indices = seeded_permutation(n, seed)
    folds: list[list[int]] = []
    base, extra = divmod(n, k)
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(sorted(indices[start : start + size]))
        start += size
    return folds


class CrossValidationResult(NamedTuple):
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]
    report: EvaluationReport  # pooled over all out-of-fold predictions


def cross_validate(
    dataset: Data,
    model_kind: str,
    *,
    k: int = 5,
    seed: int = 42,
    alpha: float = 1.0,
    max_leaves: int = 10,
) -> CrossValidationResult:
    """k-fold cross-validation with a seeded fold assignment.

    Each fold serves once as the test set. The mean accuracy is the
    arithmetic mean of fold accuracies; the report pools every out-of-fold
    prediction into a single confusion matrix.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if model_kind not in ("nb", "dt"):
        raise ValueError(f"model_kind must be 'nb' or 'dt', got {model_kind!r}")
    n = len(dataset)
    if n < k:
        raise CrimeMinerError(f"{n} records cannot fill {k} folds")
    folds = make_fold_indices(n, k, seed)
    data = as_dataset(dataset)
    # Each fold is counted once. The whole histogram is their sum, and a
    # training set's is the whole less its fold's.
    tests = [data.subset(fold) for fold in folds]
    whole = [list(map(sum, zip(*counts))) for counts in zip(*(test.histogram for test in tests))]
    matrices = [
        _fit_predict(data.subset(sorted(chain.from_iterable(f for f in folds if f is not fold)),
                                 histogram_minus(whole, test.histogram)),
                     test, model_kind, alpha, max_leaves)
        for fold, test in zip(folds, tests)
    ]
    fold_accuracies = tuple(m.trace / m.total for m in matrices)
    pooled = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*(m.cells for m in matrices)))
    return CrossValidationResult(
        mean_accuracy=sum(fold_accuracies) / k,
        fold_accuracies=fold_accuracies,
        report=classification_report(ConfusionMatrix(cells=pooled)),
    )


# --- report serialization ------------------------------------------------------

def _metrics_json(m: ClassMetrics) -> dict:
    return {
        "precision": m.precision,
        "recall": m.recall,
        "f1": m.f1,
        "support": m.support,
        "display": {
            "precision": round_half_up(m.precision, 2),
            "recall": round_half_up(m.recall, 2),
            "f1": round_half_up(m.f1, 2),
        },
    }


def report_to_json_dict(report: EvaluationReport) -> dict:
    return {
        "matrix": {
            "labels": [c.label for c in CLASSES],
            "cells": [list(row) for row in report.matrix.cells],
        },
        "per_class": {c.label: _metrics_json(m) for c, m in report.per_class.items()},
        "weighted_avg": _metrics_json(report.weighted),
        "accuracy": report.accuracy,
        "accuracy_display": round_half_up(report.accuracy, 2),
    }


def write_report_json(report: EvaluationReport, fp: TextIO) -> None:
    json.dump(report_to_json_dict(report), fp, indent=2, sort_keys=True)
    fp.write("\n")


def cv_result_to_json_dict(result: CrossValidationResult) -> dict:
    return {
        "mean_accuracy": result.mean_accuracy,
        "fold_accuracies": list(result.fold_accuracies),
        "report": report_to_json_dict(result.report),
    }


def write_cv_result_json(result: CrossValidationResult, fp: TextIO) -> None:
    json.dump(cv_result_to_json_dict(result), fp, indent=2, sort_keys=True)
    fp.write("\n")


def write_report_csv(report: EvaluationReport, fp: TextIO) -> None:
    """Two-decimal metrics table, one row per class plus the weighted average."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["class", "precision", "recall", "f1", "support"])
    rows = [(c.label, report.per_class[c]) for c in CLASSES]
    for name, m in rows + [("Weighted Avg", report.weighted)]:
        display = (round_half_up(x, 2) for x in (m.precision, m.recall, m.f1))
        writer.writerow([name, *display, m.support])
