"""Nested CV on a pool of forked workers against the serial loop.

`nested_cv` draws every fold's inner splits and candidates first, runs each
inner split's search as one task on one worker per CPU, fitting each distinct
configuration once, and merges scores, predictions and warnings in serial
order. The reference below is the earlier code: one loop
over outer folds, candidates and inner splits, fitting one after another.
Every comparison is exact: the same `to_dict()` bytes, or the same error.
"""

import dataclasses
import hashlib
import json
import logging
import multiprocessing
from collections import Counter
import random
import threading
import time

import numpy as np
import pytest

from stancecast.learning import cv
from stancecast.learning.cv import (
    METRIC_NAMES,
    ClassifierSpec,
    CVResult,
    FoldResult,
    LabeledRows,
    _candidate_seed,
    _check_partition,
    _grouped_folds,
    _stratified_folds,
    nested_cv,
)
from stancecast.learning.evaluation import macro_metrics, transition_f1_matrix
from stancecast.stance import STANCE_ORDER


def reference_nested_cv(instances, spec, outer_k=10, inner_k=5, search_iters=500, seed=0,
                        group_by_user=False):
    if len(instances) < outer_k:
        raise ValueError("need at least one instance per outer fold")
    X, y, current, users = instances.X, instances.y, instances.current, instances.users
    n = len(instances)
    structure_rng = random.Random(seed)
    if group_by_user:
        if len(set(users)) < outer_k:
            raise ValueError("need at least one user per outer fold when grouping by user")
        outer_folds = _grouped_folds(users, outer_k, structure_rng)
        warnings = []
    else:
        outer_folds, warnings = _stratified_folds(y, outer_k, structure_rng)
    _check_partition(outer_folds, n)

    pooled_pred = np.full(n, -1, dtype=np.int64)
    fold_results = []
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

        best_params = None
        best_score = -1.0
        for iteration in range(search_iters):
            params = cv.sample_params(spec.space, search_rng)
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
                preds = cv.train_predict(
                    spec.family, params, X[fit_idx], y[fit_idx], X[val_idx],
                    seed=_candidate_seed(seed, fold_idx, iteration * inner_k + inner_i))
                scores.append(macro_metrics(preds, y[val_idx])["macro_f1"])
            mean_score = float(np.mean(scores)) if scores else -1.0
            if best_params is None or mean_score > best_score:
                best_params = params
                best_score = mean_score

        final_seed = _candidate_seed(seed, fold_idx, search_iters * inner_k + inner_k)
        preds = cv.train_predict(spec.family, best_params, X[train_idx], y[train_idx],
                                 X[test_idx], seed=final_seed)
        pooled_pred[test_idx] = preds
        fold_results.append(FoldResult(fold=fold_idx, params=best_params,
                                       metrics=macro_metrics(preds, y[test_idx]),
                                       n_test=int(test_idx.size)))

    matrix, missing = transition_f1_matrix(pooled_pred, y, current)
    return CVResult(
        family=spec.family, seed=seed, outer_k=outer_k, inner_k=inner_k,
        search_iters=search_iters,
        metrics_mean={name: float(np.mean([f.metrics[name] for f in fold_results]))
                      for name in METRIC_NAMES},
        metrics_std={name: float(np.std([f.metrics[name] for f in fold_results]))
                     for name in METRIC_NAMES},
        folds=fold_results, transition_f1=matrix,
        transition_missing=[STANCE_ORDER[i].value for i in missing], warnings=warnings)


SPACES = {
    "logistic_regression": {"l2": ("loguniform", 0.01, 10.0)},
    "knn": {"k": ("int", 1, 9)},
    "random_forest": {"n_trees": ("int", 3, 6), "max_depth": ("int", 2, 4),
                      "max_features": ("choice", ["sqrt"])},
    "gradient_boosting": {"n_trees": ("int", 3, 6), "max_depth": ("int", 1, 2),
                          "learning_rate": ("loguniform", 0.05, 0.3)},
    "gaussian_nb": {},
}


def rows(seed, n_users=30, n_periods=3, d=4, y=None):
    """Rows with a weak signal in column 0; each user has `n_periods` rows."""
    rng = np.random.default_rng(seed)
    n = n_users * n_periods
    labels = rng.integers(0, 3, size=n) if y is None else np.asarray(y, dtype=np.int64)
    X = rng.normal(size=(n, d))
    X[:, 0] += labels
    return LabeledRows(X=X, y=labels, current=rng.integers(0, 3, size=n),
                       users=tuple(f"u{i // n_periods}" for i in range(n)),
                       periods=np.tile(np.arange(n_periods), n_users))


def dumps(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def both(instances, spec, **kwargs):
    """The pooled result and the serial loop's, as `to_dict()` JSON."""
    return dumps(nested_cv(instances, spec, **kwargs)), \
        dumps(reference_nested_cv(instances, spec, **kwargs))


@pytest.fixture
def two_workers():
    if cv._fit_workers(2) < 2:
        pytest.skip("needs fork and two CPUs in the affinity mask")


@pytest.mark.parametrize("grouped", [False, True], ids=["stratified", "grouped"])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_same_bytes_as_serial_loop(family, grouped, two_workers):
    pooled, serial = both(rows(1), ClassifierSpec(family, SPACES[family]), outer_k=3,
                          inner_k=3, search_iters=3, seed=4, group_by_user=grouped)
    assert pooled == serial


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_does_not_change_the_result(workers, monkeypatch):
    instances = rows(2)
    spec = ClassifierSpec("random_forest", SPACES["random_forest"])
    serial = dumps(reference_nested_cv(instances, spec, outer_k=4, inner_k=2,
                                       search_iters=3, seed=7))
    monkeypatch.setattr(cv, "_fit_workers", lambda n_fits: workers)
    assert dumps(nested_cv(instances, spec, outer_k=4, inner_k=2, search_iters=3,
                           seed=7)) == serial


def test_thin_class_warnings_keep_serial_order(two_workers):
    # Two AGAINST rows: fewer than the outer folds and, inside each outer
    # training portion, fewer than the inner folds.
    y = np.array([0, 0] + [1, 2] * 44)
    instances = rows(3, y=y)
    pooled, serial = both(instances, ClassifierSpec("gaussian_nb"), outer_k=3,
                          inner_k=3, search_iters=2, seed=0)
    assert pooled == serial
    warnings = json.loads(pooled)["warnings"]
    assert len(warnings) == 4 and all("fewer than" in w for w in warnings)


def test_one_class_fit_part_is_skipped_as_in_serial(two_workers):
    # Class 1 has two rows, which outer_k=2 deals to different folds, so each
    # outer training portion holds one. The inner split whose validation
    # part holds it fits on class 0 alone and is skipped.
    y = np.array([1, 1] + [0] * 58)
    instances = rows(5, n_users=20, y=y)
    for family in ("gaussian_nb", "knn"):
        pooled, serial = both(instances, ClassifierSpec(family, SPACES[family]),
                              outer_k=2, inner_k=2, search_iters=3, seed=1)
        assert pooled == serial


def test_non_finite_row_raises_the_serial_error(two_workers):
    instances = rows(6)
    instances.X[7, 2] = np.nan
    spec = ClassifierSpec("gaussian_nb")
    with pytest.raises(ValueError) as serial:
        reference_nested_cv(instances, spec, outer_k=3, inner_k=2, search_iters=2, seed=2)
    with pytest.raises(ValueError) as pooled:
        nested_cv(instances, spec, outer_k=3, inner_k=2, search_iters=2, seed=2)
    assert str(pooled.value) == str(serial.value)


def test_fold_without_search_fits_logs_progress(caplog):
    # Each outer training portion holds one row of each class, so every
    # inner split fits on one class and is skipped: no fold has a search
    # fit, and each refits its first candidate.
    instances = rows(9, n_users=4, n_periods=1, y=[0, 1, 0, 1])
    with caplog.at_level(logging.INFO, logger="stancecast.learning"):
        pooled, serial = both(instances, ClassifierSpec("gaussian_nb"), outer_k=2,
                              inner_k=2, search_iters=2, seed=0)
    assert pooled == serial
    lines = [r.getMessage() for r in caplog.records if r.name == "stancecast.learning"]
    assert [line.split(", ")[:2] for line in lines] == [
        ["nested_cv gaussian_nb: fold 1/2", "candidates 2/4"],
        ["nested_cv gaussian_nb: fold 2/2", "candidates 4/4"],
    ]


class CallLog:
    """Appends one line per call to a file, so that forked workers' calls count too."""

    def __init__(self, path):
        self.path = path

    def record(self, *fields):
        with open(self.path, "a") as f:
            f.write("\t".join(str(field) for field in fields) + "\n")

    def lines(self):
        return [line.split("\t") for line in self.path.read_text().splitlines()] \
            if self.path.exists() else []


@pytest.fixture
def calls(tmp_path, monkeypatch):
    """Log each `train_predict` call as (seed, eval rows) and each KNN ranking task."""
    log = CallLog(tmp_path / "calls.tsv")
    real_fit, real_knn = cv.train_predict, cv.knn_train_predict

    def train_predict(family, params, X, y, X_eval, seed=0):
        log.record("fit", seed, hashlib.sha256(X_eval.tobytes()).hexdigest())
        return real_fit(family, params, X, y, X_eval, seed=seed)

    def knn_train_predict(configs, X, y, X_eval):
        log.record("rank", len(configs), hashlib.sha256(X_eval.tobytes()).hexdigest())
        return real_knn(configs, X, y, X_eval)

    monkeypatch.setattr(cv, "train_predict", train_predict)
    monkeypatch.setattr(cv, "knn_train_predict", knn_train_predict)
    return log


def refit_seeds(cv_seed, outer_k, inner_k, search_iters):
    return {str(_candidate_seed(cv_seed, fold, search_iters * inner_k + inner_k))
            for fold in range(outer_k)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("family, space", [
    ("random_forest", {"n_trees": ("choice", [4]), "max_depth": ("int", 3, 3),
                       "max_features": ("choice", ["sqrt"])}),
    ("gradient_boosting", {"n_trees": ("choice", [3]), "max_depth": ("choice", [2]),
                           "learning_rate": ("choice", [0.2])}),
])
def test_one_configuration_runs_only_the_refits(family, space, workers, calls, monkeypatch):
    instances, spec = rows(10), ClassifierSpec(family, space)
    kwargs = dict(outer_k=3, inner_k=2, search_iters=5, seed=4)
    serial = dumps(reference_nested_cv(instances, spec, **kwargs))
    calls.path.unlink()
    monkeypatch.setattr(cv, "_fit_workers", lambda n_tasks: workers)
    assert dumps(nested_cv(instances, spec, **kwargs)) == serial
    assert sorted(seed for _, seed, _ in calls.lines()) == sorted(refit_seeds(4, 3, 2, 5))


@pytest.mark.parametrize("workers", [1, 2])
def test_repeated_configurations_fit_once_per_split(workers, calls, monkeypatch):
    instances = rows(11)
    spec = ClassifierSpec("logistic_regression", {"l2": ("choice", [0.1, 3.0])})
    kwargs = dict(outer_k=3, inner_k=3, search_iters=6, seed=2)
    serial = dumps(reference_nested_cv(instances, spec, **kwargs))
    calls.path.unlink()
    monkeypatch.setattr(cv, "_fit_workers", lambda n_tasks: workers)
    assert dumps(nested_cv(instances, spec, **kwargs)) == serial
    refits = refit_seeds(2, 3, 3, 6)
    per_split = Counter(rows_ for _, seed, rows_ in calls.lines() if seed not in refits)
    assert len(per_split) == 9 and max(per_split.values()) <= 2


@pytest.mark.parametrize("workers", [1, 2])
def test_knn_ranks_once_per_split(workers, calls, monkeypatch):
    instances = rows(12)
    spec = ClassifierSpec("knn", {"k": ("int", 1, 3)})
    kwargs = dict(outer_k=3, inner_k=3, search_iters=8, seed=6)
    serial = dumps(reference_nested_cv(instances, spec, **kwargs))
    calls.path.unlink()
    monkeypatch.setattr(cv, "_fit_workers", lambda n_tasks: workers)
    assert dumps(nested_cv(instances, spec, **kwargs)) == serial
    # One ranking per row set: 9 inner splits, then the 3 refits on the test folds.
    lines = calls.lines()
    rankings = Counter(rows_ for kind, _, rows_ in lines if kind == "rank")
    assert len(rankings) == 12 and set(rankings.values()) == {1}
    assert [kind for kind, _, _ in lines if kind == "fit"] == []


@pytest.mark.parametrize("workers", [1, 2])
def test_equal_values_of_other_types_stay_apart(workers, calls, monkeypatch):
    # 1 and 1.0 fit the same model, but each fold's params keep the JSON of
    # the candidate that won, so they are two configurations.
    assert len({cv._config_key({"l2": v}) for v in (1, 1.0, True, 0.0, -0.0)}) == 5
    instances = rows(13)
    spec = ClassifierSpec("logistic_regression", {"l2": ("choice", [1, 1.0])})
    kwargs = dict(outer_k=3, inner_k=2, search_iters=6, seed=3)
    serial = reference_nested_cv(instances, spec, **kwargs)
    calls.path.unlink()
    monkeypatch.setattr(cv, "_fit_workers", lambda n_tasks: workers)
    pooled = nested_cv(instances, spec, **kwargs)
    assert dumps(pooled) == dumps(serial)
    assert [json.dumps(f.params) for f in pooled.folds] == \
        [json.dumps(f.params) for f in serial.folds]
    refits = refit_seeds(3, 3, 2, 6)
    per_split = Counter(rows_ for _, seed, rows_ in calls.lines() if seed not in refits)
    assert len(per_split) == 6 and set(per_split.values()) == {2}


@pytest.mark.parametrize("workers", [1, 2])
def test_one_configuration_fold_fails_at_its_refit(workers, calls, monkeypatch):
    # The NaN row lies in fold 0's training portion. The serial loop fails at
    # fold 0's first search fit; with one configuration there is none, so
    # fold 0's refit rows are refused instead, before any fit runs.
    instances = rows(14)
    spec = ClassifierSpec("gradient_boosting", {"n_trees": ("choice", [3]),
                                                "max_depth": ("choice", [2]),
                                                "learning_rate": ("choice", [0.2])})
    kwargs = dict(outer_k=3, inner_k=2, search_iters=4, seed=9)
    test_0 = _stratified_folds(instances.y, 3, random.Random(9))[0][0]
    instances.X[next(i for i in range(len(instances)) if i not in test_0), 1] = np.nan
    monkeypatch.setattr(cv, "_fit_workers", lambda n_tasks: workers)
    with pytest.raises(ValueError, match="training features must be finite"):
        nested_cv(instances, spec, **kwargs)
    assert calls.lines() == []


def plant_row_defect(case, rng, instances, spec, kwargs):
    """Plant `case`'s defect in `instances` at a row drawn by `rng`."""
    X, y = instances.X, instances.y
    if case in ("fit row", "eval row", "test-fold row"):
        [test_list, *_], _ = _stratified_folds(y, kwargs["outer_k"], random.Random(kwargs["seed"]))
        plan = cv._plan_fold(instances, spec, test_list, 0, kwargs["inner_k"],
                             kwargs["search_iters"], kwargs["seed"], False, [])
        where = {"fit row": plan.searches[0].fit_idx, "eval row": plan.searches[0].eval_idx,
                 "test-fold row": plan.test_idx}[case]
        X[rng.choice(list(where)), rng.randrange(X.shape[1])] = \
            rng.choice([np.nan, np.inf, -np.inf])
    elif case == "one-class training portion":
        # The one row of another class makes its outer fold's training portion one class.
        majority, lone = rng.sample(range(3), 2)
        y[:] = majority
        y[rng.randrange(y.size)] = lone
    else:
        y[rng.randrange(y.size)] = rng.choice([-1, 3])


ROW_DEFECTS = {
    "fit row": "training features must be finite",
    "eval row": "eval features must be finite",
    "test-fold row": "eval features must be finite",
    "one-class training portion": "at least two classes",
    "out-of-range label": "training labels must lie in",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(ROW_DEFECTS))
def test_rows_are_refused_before_any_fit(case, workers, calls, monkeypatch):
    for sweep_seed in range(4):
        rng = random.Random(f"{case}-{sweep_seed}")
        family = rng.choice(sorted(SPACES))
        spec = ClassifierSpec(family, SPACES[family])
        kwargs = dict(outer_k=3, inner_k=2, search_iters=3, seed=rng.randrange(100))
        instances = rows(20 + sweep_seed)
        plant_row_defect(case, rng, instances, spec, kwargs)
        with pytest.raises(ValueError, match=ROW_DEFECTS[case]) as serial:
            reference_nested_cv(instances, spec, **kwargs)
        calls.path.unlink(missing_ok=True)
        monkeypatch.setattr(cv, "_fit_workers", lambda n_tasks: workers)
        with pytest.raises(ValueError) as pooled:
            nested_cv(instances, spec, **kwargs)
        assert str(pooled.value) == str(serial.value), (family, kwargs)
        assert calls.lines() == [], (family, kwargs)


@pytest.mark.parametrize("field", ["y", "current", "users", "periods"])
def test_one_value_per_row_required(field, calls, monkeypatch):
    instances = rows(7)
    drawn = []
    monkeypatch.setattr(cv, "_stratified_folds", lambda *a: drawn.append(a))
    with pytest.raises(ValueError, match=rf"^{field} has 89 entries for 90 rows of X$"):
        short = dataclasses.replace(instances, **{field: getattr(instances, field)[:-1]})
        nested_cv(short, ClassifierSpec("gaussian_nb"), outer_k=3, inner_k=2,
                  search_iters=2, seed=0)
    assert drawn == [] and calls.lines() == []


@pytest.mark.parametrize("field", ["y", "current", "users", "periods"])
def test_short_field_is_refused_when_built(field):
    fields = dataclasses.asdict(rows(7))
    fields[field] = fields[field][1:]
    with pytest.raises(ValueError, match=rf"^{field} has 89 entries for 90 rows of X$"):
        LabeledRows(**fields)


@pytest.mark.parametrize("workers", [1, 2])
def test_unexpected_fit_error_propagates(workers, monkeypatch):
    # Fold 2's first search fit breaks; every other fit runs.
    broken_seed = _candidate_seed(8, 2, 0)
    real = cv.train_predict

    def breaking(family, params, X, y, X_eval, seed=0):
        if seed == broken_seed:
            raise RuntimeError("the fit broke")
        return real(family, params, X, y, X_eval, seed=seed)

    monkeypatch.setattr(cv, "train_predict", breaking)
    monkeypatch.setattr(cv, "_fit_workers", lambda n_tasks: workers)
    with pytest.raises(RuntimeError, match="the fit broke"):
        nested_cv(rows(8), ClassifierSpec("gaussian_nb"), outer_k=3, inner_k=2,
                  search_iters=3, seed=8)


def test_first_fit_error_stops_the_pool(two_workers, tmp_path, monkeypatch):
    # The first search fit breaks. Every other fit logs itself and sleeps, so
    # the other worker still holds a search task of five fits when the error
    # reaches the parent. The pool stops there: no worker outlives the call,
    # the executor's own thread raises nothing, and the task the other worker
    # holds never reaches its last fit.
    log = CallLog(tmp_path / "calls.tsv")
    broken_seed = _candidate_seed(8, 0, 0)

    def breaking(family, params, X, y, X_eval, seed=0):
        log.record("fit", seed)
        if seed == broken_seed:
            raise RuntimeError("the fit broke")
        time.sleep(0.5)
        return np.zeros(len(X_eval), dtype=np.int64)

    thread_errors = []
    monkeypatch.setattr(threading, "excepthook", thread_errors.append)
    monkeypatch.setattr(cv, "train_predict", breaking)
    monkeypatch.setattr(cv, "_fit_workers", lambda n_tasks: 2)
    with pytest.raises(RuntimeError, match="the fit broke"):
        nested_cv(rows(8), ClassifierSpec("random_forest", SPACES["random_forest"]),
                  outer_k=4, inner_k=3, search_iters=5, seed=8)
    assert multiprocessing.active_children() == [] and thread_errors == []
    seeds = [seed for _, seed in log.lines()]
    assert seeds.count(str(broken_seed)) == 1 and len(seeds) < 1 + 5
