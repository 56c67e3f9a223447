"""Macro metrics and the per-transition F1 matrix.

Class labels are integer indices. Macro metrics always average over all
`n_classes` classes; a class absent from the labels contributes zero to
precision, recall and F1, while macro accuracy stays the plain
one-vs-rest (TP+TN)/N mean.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def _per_class(y_true: np.ndarray, y_pred: np.ndarray,
               n_classes: int) -> list[tuple[float, float, float, float]]:
    """(precision, recall, F1, one-vs-rest accuracy) of each class."""
    scores = []
    for c in range(n_classes):
        tp = int(np.sum((y_true == c) & (y_pred == c)))
        fp = int(np.sum((y_true != c) & (y_pred == c)))
        fn = int(np.sum((y_true == c) & (y_pred != c)))
        tn = y_true.size - tp - fp - fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append((precision, recall, f1, (tp + tn) / y_true.size))
    return scores


def macro_metrics(predictions: Sequence[int], labels: Sequence[int],
                  n_classes: int = 3) -> dict[str, float]:
    """Macro F1, accuracy, precision and recall over `n_classes` classes."""
    y_pred = np.asarray(predictions)
    y_true = np.asarray(labels)
    if y_true.size == 0:
        raise ValueError("cannot compute metrics on empty input")
    if y_true.size != y_pred.size:
        raise ValueError("predictions and labels must align")
    precisions, recalls, f1s, accuracies = zip(*_per_class(y_true, y_pred, n_classes))
    return {
        "macro_f1": float(np.mean(f1s)),
        "macro_accuracy": float(np.mean(accuracies)),
        "macro_precision": float(np.mean(precisions)),
        "macro_recall": float(np.mean(recalls)),
    }


def transition_f1_matrix(
    predictions: Sequence[int],
    labels: Sequence[int],
    current_stances: Sequence[int],
    n_classes: int = 3,
) -> tuple[list[list[Optional[float]]], list[int]]:
    """F1 of each next-stance class, partitioned by the current stance.

    Cell (x, y) scores class y among the instances whose current stance
    is x. Rows without any instance come back as None and are listed in
    the second return value.
    """
    y_pred = np.asarray(predictions)
    y_true = np.asarray(labels)
    current = np.asarray(current_stances)
    matrix: list[list[Optional[float]]] = []
    missing: list[int] = []
    for x in range(n_classes):
        mask = current == x
        if not np.any(mask):
            matrix.append([None] * n_classes)
            missing.append(x)
            continue
        matrix.append([f1 for _, _, f1, _ in _per_class(y_true[mask], y_pred[mask], n_classes)])
    return matrix, missing
