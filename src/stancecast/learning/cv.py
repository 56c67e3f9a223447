"""Labelled rows and the double cross-validation protocol.

Outer folds estimate generalization; per outer fold, a random
hyperparameter search scored by inner-fold macro F1 picks a
configuration, which retrains on the full outer-training portion and
predicts the held-out fold. Inner search never touches outer test
instances; the protocol checks that itself on every run.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..features import FeatureTable
from ..stance import STANCE_INDEX, STANCE_ORDER, StanceAssignment
from .classifiers import DEFAULT_SPACES, FAMILIES, sample_params, train_predict
from .evaluation import macro_metrics, transition_f1_matrix

log = logging.getLogger("stancecast.learning")

METRIC_NAMES = ("macro_f1", "macro_accuracy", "macro_precision", "macro_recall")


@dataclass(frozen=True)
class LabeledRows:
    """Supervised instances as arrays: row i of `X` has the next stance `y[i]`.

    `y` and `current` hold STANCE_ORDER indices; `users` and `periods`
    say whose (user, period) each row describes.
    """

    X: np.ndarray
    y: np.ndarray
    current: np.ndarray
    users: tuple[str, ...]
    periods: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    def subset(self, mask: np.ndarray) -> "LabeledRows":
        """The rows where the boolean `mask` holds, in order."""
        return LabeledRows(X=self.X[mask], y=self.y[mask], current=self.current[mask],
                           users=tuple(u for u, keep in zip(self.users, mask) if keep),
                           periods=self.periods[mask])


@dataclass(frozen=True)
class ClassifierSpec:
    family: str
    space: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown classifier family {self.family!r}")
        if not self.space:
            object.__setattr__(self, "space", dict(DEFAULT_SPACES[self.family]))
        if not self.space:
            raise ValueError("hyperparameter space must be non-empty")


def make_instances(table: FeatureTable, stances: StanceAssignment) -> LabeledRows:
    """Pair each (user, t) row with the stance at t+1 where it exists."""
    y = np.array([STANCE_INDEX.get(stances.get(user, period + 1), -1)
                  for user, period in zip(table.users, table.periods.tolist())],
                 dtype=np.int64)
    rows = LabeledRows(X=table.values, y=y, current=table.current,
                       users=table.users, periods=table.periods)
    return rows.subset(y >= 0)


def _stratified_folds(y: np.ndarray, k: int, rng: random.Random) -> tuple[list[list[int]], list[str]]:
    """Deal indices round-robin per class; classes thinner than k just deal."""
    folds: list[list[int]] = [[] for _ in range(k)]
    warnings = []
    pointer = 0
    for c in sorted(set(int(v) for v in y)):
        members = [int(i) for i in np.nonzero(y == c)[0]]
        if len(members) < k:
            warnings.append(
                f"class {c} has {len(members)} member(s), fewer than {k} folds; "
                "stratification degrades to plain dealing for it")
        rng.shuffle(members)
        for idx in members:
            folds[pointer % k].append(idx)
            pointer += 1
    return [sorted(fold) for fold in folds], warnings


def _grouped_folds(users: Sequence[str], k: int, rng: random.Random) -> list[list[int]]:
    """Deal whole users to folds, keeping all their instances together."""
    unique = sorted(set(users))
    rng.shuffle(unique)
    assignment = {user: i % k for i, user in enumerate(unique)}
    folds: list[list[int]] = [[] for _ in range(k)]
    for idx, user in enumerate(users):
        folds[assignment[user]].append(idx)
    return [sorted(fold) for fold in folds]


def _candidate_seed(seed: int, fold: int, iteration: int) -> int:
    return (seed * 1_000_003 + fold * 10_007 + iteration * 101) & 0x7FFFFFFF


@dataclass
class FoldResult:
    fold: int
    params: dict
    metrics: dict[str, float]
    n_test: int

    def to_dict(self) -> dict:
        return {"fold": self.fold, "params": self.params,
                "metrics": self.metrics, "n_test": self.n_test}


@dataclass
class CVResult:
    family: str
    seed: int
    outer_k: int
    inner_k: int
    search_iters: int
    metrics_mean: dict[str, float]
    metrics_std: dict[str, float]
    folds: list[FoldResult]
    transition_f1: list[list[Optional[float]]]
    transition_missing: list[str]
    warnings: list[str]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "seed": self.seed,
            "outer_k": self.outer_k,
            "inner_k": self.inner_k,
            "search_iters": self.search_iters,
            "metrics_mean": self.metrics_mean,
            "metrics_std": self.metrics_std,
            "folds": [f.to_dict() for f in self.folds],
            "transition_f1": self.transition_f1,
            "transition_missing": self.transition_missing,
            "warnings": self.warnings,
        }


def nested_cv(
    instances: LabeledRows,
    spec: ClassifierSpec,
    outer_k: int = 10,
    inner_k: int = 5,
    search_iters: int = 500,
    seed: int = 0,
    group_by_user: bool = False,
) -> CVResult:
    """Run the double cross-validation protocol for one classifier family.

    Outer folds are stratified by label (or partitioned by user when
    `group_by_user` is set). The random search inside each outer fold is
    seeded with `seed + fold index`; the best inner macro F1 wins, first
    configuration on ties.
    """
    if len(instances) < outer_k:
        raise ValueError("need at least one instance per outer fold")
    X, y, current, users = instances.X, instances.y, instances.current, instances.users
    n = len(instances)
    structure_rng = random.Random(seed)
    if group_by_user:
        if len(set(users)) < outer_k:
            raise ValueError("need at least one user per outer fold when grouping by user")
        outer_folds = _grouped_folds(users, outer_k, structure_rng)
        warnings: list[str] = []
    else:
        outer_folds, warnings = _stratified_folds(y, outer_k, structure_rng)
    for message in warnings:
        log.warning("%s", message)

    _check_partition(outer_folds, n)

    pooled_pred = np.full(n, -1, dtype=np.int64)
    fold_results: list[FoldResult] = []
    started = time.perf_counter()
    for fold_idx, test_list in enumerate(outer_folds):
        test_idx = np.array(test_list, dtype=np.int64)
        test_mask = np.zeros(n, dtype=bool)
        test_mask[test_idx] = True
        train_idx = np.nonzero(~test_mask)[0]

        search_rng = random.Random(seed + fold_idx)
        if group_by_user:
            inner_folds = _grouped_folds([users[i] for i in train_idx], inner_k, search_rng)
        else:
            inner_folds, inner_warnings = _stratified_folds(y[train_idx], inner_k, search_rng)
            warnings.extend(inner_warnings)
        # Fold hygiene: the inner splits must cover exactly the outer
        # training portion and never touch the test fold.
        inner_union: set[int] = set()
        for local in inner_folds:
            absolute = {int(train_idx[i]) for i in local}
            if absolute & set(test_list):
                raise RuntimeError("inner fold leaked outer test instances")
            inner_union |= absolute
        if inner_union != set(int(i) for i in train_idx):
            raise RuntimeError("inner folds do not cover the outer training portion")

        best_params = None
        best_score = -1.0
        for iteration in range(search_iters):
            params = sample_params(spec.space, search_rng)
            scores = []
            for inner_i, local_val in enumerate(inner_folds):
                if not local_val:
                    continue
                val_idx = train_idx[np.array(local_val, dtype=np.int64)]
                val_mask = np.zeros(n, dtype=bool)
                val_mask[val_idx] = True
                fit_idx = train_idx[~val_mask[train_idx]]
                if np.unique(y[fit_idx]).size < 2:
                    continue
                preds = train_predict(spec.family, params, X[fit_idx], y[fit_idx],
                                      X[val_idx],
                                      seed=_candidate_seed(seed, fold_idx, iteration * inner_k + inner_i))
                scores.append(macro_metrics(preds, y[val_idx])["macro_f1"])
            mean_score = float(np.mean(scores)) if scores else -1.0
            if best_params is None or mean_score > best_score:
                best_params = params
                best_score = mean_score

        final_seed = _candidate_seed(seed, fold_idx, search_iters * inner_k + inner_k)
        preds = train_predict(spec.family, best_params, X[train_idx], y[train_idx],
                              X[test_idx], seed=final_seed)
        pooled_pred[test_idx] = preds
        fold_results.append(FoldResult(
            fold=fold_idx,
            params=best_params,
            metrics=macro_metrics(preds, y[test_idx]),
            n_test=int(test_idx.size),
        ))
        elapsed = time.perf_counter() - started
        log.info("nested_cv %s: fold %d/%d, candidates %d/%d, %.1f s elapsed, ETA %.1f s",
                 spec.family, fold_idx + 1, outer_k, (fold_idx + 1) * search_iters,
                 outer_k * search_iters, elapsed,
                 elapsed / (fold_idx + 1) * (outer_k - fold_idx - 1))

    if np.any(pooled_pred < 0):
        raise RuntimeError("some instances were never assigned to an outer test fold")

    matrix, missing = transition_f1_matrix(pooled_pred, y, current)
    metrics_mean = {
        name: float(np.mean([f.metrics[name] for f in fold_results]))
        for name in METRIC_NAMES
    }
    metrics_std = {
        name: float(np.std([f.metrics[name] for f in fold_results]))
        for name in METRIC_NAMES
    }
    return CVResult(
        family=spec.family,
        seed=seed,
        outer_k=outer_k,
        inner_k=inner_k,
        search_iters=search_iters,
        metrics_mean=metrics_mean,
        metrics_std=metrics_std,
        folds=fold_results,
        transition_f1=matrix,
        transition_missing=[STANCE_ORDER[i].value for i in missing],
        warnings=warnings,
    )


def _check_partition(folds: Sequence[Sequence[int]], n: int) -> None:
    seen: set[int] = set()
    total = 0
    for fold in folds:
        total += len(fold)
        seen.update(fold)
    if total != n or seen != set(range(n)):
        raise RuntimeError("outer folds are not a partition of the instances")
