"""Labelled rows and the double cross-validation protocol.

Outer folds estimate generalization; per outer fold, a random
hyperparameter search scored by inner-fold macro F1 picks a
configuration, which retrains on the full outer-training portion and
predicts the held-out fold. Inner search never touches outer test
instances; the protocol checks that itself on every run.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import random
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ..features import FeatureTable
from ..stance import STANCE_INDEX, STANCE_ORDER, StanceAssignment
from .classifiers import (
    DEFAULT_SPACES,
    FAMILIES,
    SEEDED_FAMILIES,
    check_rows,
    check_space,
    knn_train_predict,
    sample_params,
    train_predict,
)
from .evaluation import macro_metrics, transition_f1_matrix

log = logging.getLogger("stancecast.learning")

METRIC_NAMES = ("macro_f1", "macro_accuracy", "macro_precision", "macro_recall")


@dataclass(frozen=True)
class LabeledRows:
    """Supervised instances as arrays: row i of `X` has the next stance `y[i]`.

    `y` and `current` hold STANCE_ORDER indices; `users` and `periods`
    say whose (user, period) each row describes. Each has one entry per row.
    """

    X: np.ndarray
    y: np.ndarray
    current: np.ndarray
    users: tuple[str, ...]
    periods: np.ndarray

    def __post_init__(self) -> None:
        for name in ("y", "current", "users", "periods"):
            if len(getattr(self, name)) != len(self.X):
                raise ValueError(f"{name} has {len(getattr(self, name))} entries "
                                 f"for {len(self.X)} rows of X")

    def __len__(self) -> int:
        return len(self.users)

    def subset(self, mask: np.ndarray) -> "LabeledRows":
        """The rows where the boolean `mask` holds, in order."""
        return LabeledRows(X=self.X[mask], y=self.y[mask], current=self.current[mask],
                           users=tuple(u for u, keep in zip(self.users, mask) if keep),
                           periods=self.periods[mask])


@dataclass(frozen=True)
class ClassifierSpec:
    """A family and its search space: a dict that `check_space` passes, `{}` for the default."""

    family: str
    space: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown classifier family {self.family!r}")
        if not isinstance(self.space, dict):
            raise ValueError(f"hyperparameter space must be a dict, got {self.space!r}")
        if not self.space:
            object.__setattr__(self, "space", dict(DEFAULT_SPACES[self.family]))
        check_space(self.family, self.space)


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
        return asdict(self)


def check_cv_params(outer_k: int, inner_k: int, search_iters: int) -> None:
    """Raise `ValueError` unless the fold counts are ints >= 2 and `search_iters` >= 1."""
    for name, value, low in (("outer_k", outer_k, 2), ("inner_k", inner_k, 2),
                             ("search_iters", search_iters, 1)):
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


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
    candidate on ties.

    The folds, inner splits and candidates are all drawn up front. A task
    is rows to fit, rows to predict and the fits to run on them in serial
    order; it returns each fit's predictions, which this process scores in
    serial order. Each (outer fold, inner split) is one search task over the
    split's distinct configurations, and every candidate gets its
    configuration's score, so the result is the same bytes as fitting every
    (candidate, split) pair in serial order. Two configurations are the same
    when every value has the same type and `repr`. A search task fits:

    * nothing, when all the fold's candidates are one configuration: the
      first candidate wins whatever the scores;
    * each configuration once, for families whose fit ignores its seed;
      a random forest fits each candidate with its own seed;
    * for KNN, one neighbour ranking, which every k reads as a prefix.

    Each outer fold's refit is a task of one fit: the chosen candidate on
    the fold's training portion (KNN ranks it through the same call).
    As each fold is drawn, `check_rows` checks its search tasks' (fit, eval)
    rows, then its refit's (train, test) rows. Rows that `train_predict`
    refuses raise its `ValueError` then, before any fit: the first the
    serial loop hits, except that a fold whose candidates are all one
    configuration is checked at its refit only.

    The tasks run in two passes, every fold's search and then every fold's
    refit, on one forked worker per CPU in this process's affinity mask
    (inline when that is one CPU, or the platform cannot fork). The result
    is the same bytes either way. Any other error in a fit propagates and
    terminates the workers, whatever tasks they hold; a worker that dies ends
    the call with `concurrent.futures.process.BrokenProcessPool`.
    """
    check_cv_params(outer_k, inner_k, search_iters)
    if len(instances) < outer_k:
        raise ValueError("need at least one instance per outer fold")
    X, y, users = instances.X, instances.y, instances.users
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

    plans = [_plan_fold(instances, spec, test_list, fold_idx, inner_k, search_iters,
                        seed, group_by_user, warnings)
             for fold_idx, test_list in enumerate(outer_folds)]
    context = (spec.family, X, y)
    workers = _fit_workers(sum(len(plan.searches) for plan in plans) + len(plans))
    if workers == 1:
        fold_results = _run_plans(plans, lambda tasks: (_run_task(*context, task)
                                                        for task in tasks),
                                  y, spec.family, search_iters)
    else:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker, initargs=context) as pool:
            try:
                fold_results = _run_plans(plans, partial(_submitted, pool),
                                          y, spec.family, search_iters)
            except BaseException:  # end the tasks workers hold (3.14 adds terminate_workers)
                for worker in list(pool._processes.values()):
                    worker.terminate()
                raise

    pooled_pred = np.full(n, -1, dtype=np.int64)
    for plan, (_, preds) in zip(plans, fold_results):
        pooled_pred[plan.test_idx] = preds
    if np.any(pooled_pred < 0):
        raise RuntimeError("some instances were never assigned to an outer test fold")

    folds = [result for result, _ in fold_results]
    matrix, missing = transition_f1_matrix(pooled_pred, y, instances.current)
    scores = {name: [f.metrics[name] for f in folds] for name in METRIC_NAMES}
    return CVResult(
        family=spec.family, seed=seed, outer_k=outer_k, inner_k=inner_k,
        search_iters=search_iters,
        metrics_mean={name: float(np.mean(values)) for name, values in scores.items()},
        metrics_std={name: float(np.std(values)) for name, values in scores.items()},
        folds=folds, transition_f1=matrix,
        transition_missing=[STANCE_ORDER[i].value for i in missing], warnings=warnings)


class _Fit(NamedTuple):
    """One search fit: a configuration and its seed."""

    params: dict
    seed: int


class _Task(NamedTuple):
    """Fits on the `fit_idx` rows that predict the `eval_idx` rows, run in serial order:
    an inner split's search, or an outer fold's refit of its chosen configuration."""

    fit_idx: np.ndarray
    eval_idx: np.ndarray
    fits: list[_Fit]


@dataclass(frozen=True)
class _FoldPlan:
    """One outer fold's split, its drawn candidates and its search tasks.

    `searches` holds one task per inner split, in split order; inner splits
    with an empty validation part or a one-class fit part have none.
    Candidate i's score on a split is that of the task's fit at `slots[i]`.
    """

    test_idx: np.ndarray
    train_idx: np.ndarray
    candidates: list[dict]
    slots: list[int]
    searches: list[_Task]
    refit_seed: int

    @property
    def n_search_fits(self) -> int:
        return sum(len(search.fits) for search in self.searches)


def _config_key(params: dict) -> tuple:
    """Equal only for configurations whose every value has the same type and `repr`."""
    return tuple((name, type(value), repr(value)) for name, value in sorted(params.items()))


def _plan_fold(instances: LabeledRows, spec: ClassifierSpec, test_list: list[int],
               fold_idx: int, inner_k: int, search_iters: int, seed: int,
               group_by_user: bool, warnings: list[str]) -> _FoldPlan:
    """Draw one outer fold's inner splits and candidates, checking fold hygiene.

    Appends the inner dealing's warnings to `warnings`. Then `check_rows` checks
    each search task's (fit, eval) rows, and the refit's (train, test) rows.
    """
    X, y, n = instances.X, instances.y, len(instances)
    test_idx = np.array(test_list, dtype=np.int64)
    test_mask = np.zeros(n, dtype=bool)
    test_mask[test_idx] = True
    train_idx = np.nonzero(~test_mask)[0]

    search_rng = random.Random(seed + fold_idx)
    if group_by_user:
        inner_folds = _grouped_folds([instances.users[i] for i in train_idx], inner_k,
                                     search_rng)
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

    splits = []
    for inner_i, local_val in enumerate(inner_folds):
        if not local_val:
            continue
        val_idx = train_idx[np.array(local_val, dtype=np.int64)]
        val_mask = np.zeros(n, dtype=bool)
        val_mask[val_idx] = True
        fit_idx = train_idx[~val_mask[train_idx]]
        if np.unique(y[fit_idx]).size < 2:
            continue
        splits.append((inner_i, fit_idx, val_idx))
    candidates = [sample_params(spec.space, search_rng) for _ in range(search_iters)]
    keys = [_config_key(params) for params in candidates]
    if len(set(keys)) == 1:
        splits = []  # the first candidate wins whatever the scores
    elif spec.family in SEEDED_FAMILIES:
        keys = list(range(search_iters))
    first_draw: dict = {}
    for c, key in enumerate(keys):
        first_draw.setdefault(key, c)
    slot_of = {key: slot for slot, key in enumerate(first_draw)}
    slots = [slot_of[key] for key in keys]
    searches = [_Task(fit_idx, val_idx,
                      [_Fit(candidates[c], _candidate_seed(seed, fold_idx, c * inner_k + inner_i))
                       for c in first_draw.values()])
                for inner_i, fit_idx, val_idx in splits]
    for task in searches:
        check_rows(X[task.fit_idx], y[task.fit_idx], X[task.eval_idx])
    check_rows(X[train_idx], y[train_idx], X[test_idx])
    return _FoldPlan(test_idx=test_idx, train_idx=train_idx, candidates=candidates,
                     slots=slots, searches=searches,
                     refit_seed=_candidate_seed(seed, fold_idx, search_iters * inner_k + inner_k))


def _run_plans(plans: list[_FoldPlan], run: Callable[[Iterable], Iterator],
               y: np.ndarray, family: str,
               search_iters: int) -> list[tuple[FoldResult, np.ndarray]]:
    """Run every fold's search tasks, then every fold's refit; return (result, preds) per fold.

    `run(tasks)` yields each task's predictions in task order; they are scored here.
    """
    started = time.perf_counter()
    n_fits = sum(plan.n_search_fits + 1 for plan in plans)  # the fits dispatched
    outcomes = run(task for plan in plans for task in plan.searches)
    refits: list[_Task] = []
    fits_done = 0
    for plan in plans:
        split_scores = [[macro_metrics(preds, y[task.eval_idx])["macro_f1"]
                         for preds in next(outcomes)] for task in plan.searches]
        fits_done += plan.n_search_fits
        # Scores stay in serial order: a float mean depends on the order of its terms.
        best_params, best_score = None, -1.0
        for params, slot in zip(plan.candidates, plan.slots):
            scores = [by_config[slot] for by_config in split_scores]
            mean_score = float(np.mean(scores)) if scores else -1.0
            if best_params is None or mean_score > best_score:
                best_params, best_score = params, mean_score
        refits.append(_Task(plan.train_idx, plan.test_idx,
                            [_Fit(best_params, plan.refit_seed)]))
        elapsed = time.perf_counter() - started
        log.info("nested_cv %s: fold %d/%d, candidates %d/%d, %.1f s elapsed, "
                 "ETA %.1f s", family, len(refits), len(plans), len(refits) * search_iters,
                 len(plans) * search_iters, elapsed,
                 elapsed / max(fits_done, 1) * (n_fits - fits_done))
    return [(FoldResult(fold=fold, params=refit.fits[0].params,
                        metrics=macro_metrics(preds, y[refit.eval_idx]),
                        n_test=int(refit.eval_idx.size)), preds)
            for fold, (refit, [preds]) in enumerate(zip(refits, run(refits)))]


def _fit_workers(n_tasks: int) -> int:
    """Worker processes for `n_tasks` tasks: one per CPU in the affinity mask.

    1 means run inline, as on a platform without `sched_getaffinity` or
    `fork`.
    """
    if not hasattr(os, "sched_getaffinity") or \
            "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _run_task(family: str, X: np.ndarray, y: np.ndarray, task: _Task) -> list[np.ndarray]:
    """Run one task: each fit's predictions of the eval rows, in order."""
    rows = X[task.fit_idx], y[task.fit_idx], X[task.eval_idx]
    if family == "knn":
        predictions = knn_train_predict([fit.params for fit in task.fits], *rows)
    else:
        predictions = (train_predict(family, fit.params, *rows, seed=fit.seed)
                       for fit in task.fits)
    # Class indices fit a byte: an eighth of the bytes to send, and to hold until scored.
    return [preds.astype(np.uint8) for preds in predictions]


# Set in each forked worker by `_init_worker`; the parent never sets it.
_worker_context: tuple = ()


def _init_worker(*context) -> None:
    global _worker_context
    _worker_context = context


def _task_in_worker(task):
    return _run_task(*_worker_context, task)


def _submitted(pool: ProcessPoolExecutor, tasks: Iterable) -> Iterator:
    """Submit every task now; yield the outcomes in order. Unlike `pool.map`, cancel no
    future on an error: Python 3.10-3.11 trip over one once the workers are terminated."""
    futures = deque(pool.submit(_task_in_worker, task) for task in tasks)
    # Drop each future once read, so that its predictions live only until they are scored.
    return (futures.popleft().result() for _ in range(len(futures)))


def _check_partition(folds: Sequence[Sequence[int]], n: int) -> None:
    if sorted(i for fold in folds for i in fold) != list(range(n)):
        raise RuntimeError("outer folds are not a partition of the instances")
