import dataclasses
import itertools
import json
import logging
import random
import types

import numpy as np
import pytest

from stancecast.features import FeatureTable
from stancecast.stance import STANCE_INDEX, STANCE_ORDER, Stance, StanceAssignment
from stancecast.learning import classifiers, cv
from stancecast.learning.classifiers import (
    DEFAULT_SPACES,
    FAMILIES,
    check_rows,
    sample_params,
    train_predict,
)
from stancecast.learning.cv import (
    ClassifierSpec,
    LabeledRows,
    make_instances,
    nested_cv,
)
from stancecast.learning.evaluation import macro_metrics, transition_f1_matrix

A, N, P = Stance.AGAINST, Stance.NEUTRAL, Stance.PRO


def blobs(seed=0, n=40, gap=6.0, classes=2, d=2):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in range(classes):
        center = np.zeros(d)
        center[c % d] = gap * (c + 1)
        X.append(rng.normal(0, 0.3, size=(n, d)) + center)
        y.extend([c] * n)
    return np.vstack(X), np.array(y)


def perceptron_separable(X, y, epochs=200):
    """Independent separability oracle: perceptron converges iff separable."""
    w = np.zeros(X.shape[1] + 1)
    signs = np.where(y == 1, 1.0, -1.0)
    D = np.hstack([X, np.ones((X.shape[0], 1))])
    for _ in range(epochs):
        mistakes = 0
        for i in range(X.shape[0]):
            if signs[i] * (D[i] @ w) <= 0:
                w += signs[i] * D[i]
                mistakes += 1
        if mistakes == 0:
            return True
    return False


class TestFamilies:
    def test_logistic_regression_separable_blobs(self):
        X, y = blobs(seed=3)
        assert perceptron_separable(X, y)
        preds = train_predict("logistic_regression", {"l2": 1e-3}, X, y, X, n_classes=2)
        assert np.mean(preds == y) == 1.0

    def test_knn_k1_returns_identical_point_label(self):
        X, y = blobs(seed=1)
        preds = train_predict("knn", {"k": 1}, X, y, X[:7], n_classes=2)
        assert np.array_equal(preds, y[:7])

    def test_knn_matches_exhaustive_scan(self):
        # Oracle: pure-python distance scan with the same tie conventions.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, size=60)
        y[:3] = [0, 1, 2]
        E = rng.normal(size=(25, 4))
        for k in (1, 3, 7):
            preds = train_predict("knn", {"k": k}, X, y, E, n_classes=3)
            for i in range(E.shape[0]):
                dists = sorted(
                    (sum((E[i, j] - X[t, j]) ** 2 for j in range(4)), t)
                    for t in range(60)
                )
                votes = [0, 0, 0]
                for _, t in dists[:k]:
                    votes[y[t]] += 1
                expect = votes.index(max(votes))
                assert preds[i] == expect

    def test_random_forest_reproduces_single_threshold(self):
        # Two value clusters with a wide gap: any boundary the bootstrap
        # sample picks inside the gap splits the full data exactly.
        X = np.concatenate([np.linspace(0, 0.4, 20), np.linspace(0.6, 1, 20)]).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(int)
        # Oracle: enumerate all single-feature thresholds, confirm one splits
        thresholds = [(a + b) / 2 for a, b in zip(X[:-1, 0], X[1:, 0])]
        assert any(np.array_equal((X[:, 0] > t).astype(int), y) for t in thresholds)
        preds = train_predict(
            "random_forest",
            {"n_trees": 1, "max_depth": 1, "max_features": "all"},
            X, y, X, seed=9, n_classes=2)
        assert np.array_equal(preds, y)

    def test_gradient_boosting_fits_blobs(self):
        X, y = blobs(seed=2, classes=3, d=3)
        preds = train_predict("gradient_boosting",
                              {"n_trees": 30, "max_depth": 2, "learning_rate": 0.3},
                              X, y, X, n_classes=3)
        assert np.mean(preds == y) > 0.98

    def test_gaussian_nb_fits_blobs(self):
        X, y = blobs(seed=4, classes=3, d=3)
        preds = train_predict("gaussian_nb", {}, X, y, X, n_classes=3)
        assert np.mean(preds == y) > 0.98

    def test_single_class_train_rejected(self):
        X = np.zeros((5, 2))
        y = np.zeros(5, dtype=int)
        for family in FAMILIES:
            with pytest.raises(ValueError):
                train_predict(family, {}, X, y, X, n_classes=2)

    def test_non_finite_features_rejected(self):
        X, y = blobs(seed=0)
        X[3, 1] = np.nan
        with pytest.raises(ValueError):
            train_predict("knn", {"k": 3}, X, y, X, n_classes=2)

    @pytest.mark.parametrize("label", [3, -1])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_out_of_range_label_rejected(self, family, label):
        X, y = blobs(seed=1, classes=3, d=3)
        y[5] = label
        with pytest.raises(ValueError, match=rf"training labels must lie in \[0, 3\), got {label}"):
            train_predict(family, {}, X, y, X, n_classes=3)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_label_per_row_required(self, family):
        X, y = blobs(seed=1, classes=3, d=3)
        n = len(y)
        with pytest.raises(ValueError, match=rf"{n} rows but {n - 1} labels"):
            train_predict(family, {}, X, y[:-1], X, n_classes=3)
        with pytest.raises(ValueError, match=rf"{n - 1} rows but {n} labels"):
            check_rows(X[:-1], y, X)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_training_rows_checked_once_per_fit(self, family, monkeypatch):
        X, y = blobs(seed=2, classes=3, d=3)
        checked = []
        real = classifiers._validate_training
        monkeypatch.setattr(classifiers, "_validate_training",
                            lambda *args: checked.append(family) or real(*args))
        train_predict(family, {}, X, y, X, n_classes=3)
        assert checked == [family]
        if family == "knn":
            checked.clear()
            list(classifiers.knn_train_predict([{"k": 1}, {"k": 4}], X, y, X))
            assert checked == [family]

    def test_determinism_per_family(self):
        X, y = blobs(seed=8, classes=3, d=4, n=30)
        for family in FAMILIES:
            params = sample_params(DEFAULT_SPACES[family], random.Random(1))
            if family == "random_forest":
                params["n_trees"] = 20
            if family == "gradient_boosting":
                params["n_trees"] = 20
            a = train_predict(family, params, X, y, X, seed=7, n_classes=3)
            b = train_predict(family, params, X, y, X, seed=7, n_classes=3)
            assert np.array_equal(a, b)

    def test_label_permutation_equivariance(self):
        X, y = blobs(seed=6, classes=3, d=3, n=25)
        perm = np.array([2, 0, 1])
        configs = {
            "logistic_regression": {"l2": 0.01},
            "knn": {"k": 1},
            "random_forest": {"n_trees": 1, "max_depth": 30, "max_features": "all"},
            "gradient_boosting": {"n_trees": 25, "max_depth": 2, "learning_rate": 0.3},
            "gaussian_nb": {},
        }
        for family, params in configs.items():
            base = train_predict(family, params, X, y, X, seed=5, n_classes=3)
            permuted = train_predict(family, params, X, perm[y], X, seed=5, n_classes=3)
            assert np.array_equal(permuted, perm[base]), family

    def test_tree_monotone_transform_invariance(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=50)
        y[:2] = [0, 1]
        transformed = np.sign(X) * np.abs(X) ** 3  # strictly monotone per feature
        for family, params in (
            ("random_forest", {"n_trees": 5, "max_depth": 6, "max_features": "all"}),
            ("gradient_boosting", {"n_trees": 10, "max_depth": 3, "learning_rate": 0.2}),
        ):
            a = train_predict(family, params, X, y, X, seed=3, n_classes=2)
            b = train_predict(family, params, transformed, y, transformed, seed=3, n_classes=2)
            assert np.array_equal(a, b), family


class TestMacroMetrics:
    def test_perfect_predictions(self):
        metrics = macro_metrics([0, 1, 2, 0], [0, 1, 2, 0])
        assert all(v == 1.0 for v in metrics.values())

    def test_all_neutral_on_balanced_labels(self):
        labels = [0, 1, 2] * 4
        preds = [1] * 12
        metrics = macro_metrics(preds, labels)
        assert metrics["macro_recall"] == pytest.approx(1 / 3)

    def test_order_invariance_within_class(self):
        labels = [0, 0, 1, 1, 2, 2]
        preds = [0, 1, 1, 2, 2, 0]
        base = macro_metrics(preds, labels)
        swapped = macro_metrics([1, 0, 2, 1, 0, 2], [0, 0, 1, 1, 2, 2])
        assert base == swapped

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_metrics([], [])

    def test_absent_class_contributes_zero(self):
        metrics = macro_metrics([0, 0], [0, 0])
        assert metrics["macro_f1"] == pytest.approx(1 / 3)
        assert metrics["macro_accuracy"] == 1.0


class TestTransitionMatrix:
    def test_perfect_predictor(self):
        labels = [0, 1, 2, 0, 1, 2]
        current = [0, 0, 0, 1, 1, 1]
        matrix, missing = transition_f1_matrix(labels, labels, current)
        assert missing == [2]
        assert matrix[2] == [None, None, None]
        for row in matrix[:2]:
            assert all(v in (1.0,) for v in row if v is not None)

    def test_report_shape(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 60)
        preds = rng.integers(0, 3, 60)
        current = rng.integers(0, 3, 60)
        matrix, missing = transition_f1_matrix(preds, labels, current)
        assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)
        assert not missing


def table(rows):
    """An FS1-shaped table of (user, period, value, current stance) rows."""
    return FeatureTable(
        "FS1", tuple(user for user, *_ in rows),
        np.array([period for _, period, *_ in rows], dtype=np.int64),
        np.array([(float(value), 1.0 if current is A else 0.0,
                   1.0 if current is N else 0.0, 1.0 if current is P else 0.0)
                  for *_, value, current in rows], dtype=np.float64))


def labeled_rows(rows):
    """LabeledRows of (user, period, values, label, current stance) rows."""
    return LabeledRows(
        X=np.array([values for _, _, values, _, _ in rows], dtype=np.float64),
        y=np.array([STANCE_INDEX[label] for *_, label, _ in rows], dtype=np.int64),
        current=np.array([STANCE_INDEX[current] for *_, current in rows], dtype=np.int64),
        users=tuple(user for user, *_ in rows),
        periods=np.array([period for _, period, *_ in rows], dtype=np.int64))


class TestMakeInstances:
    def test_consecutive_periods_pair_up(self):
        stances = StanceAssignment.from_truth({
            ("u", 1): A, ("u", 2): N, ("u", 3): P,
        })
        rows = table([("u", t, 0.0, stances.get("u", t)) for t in (1, 2, 3)])
        instances = make_instances(rows, stances)
        assert list(zip(instances.periods.tolist(), instances.y.tolist())) == \
            [(1, STANCE_INDEX[N]), (2, STANCE_INDEX[P])]
        assert instances.current.tolist() == [STANCE_INDEX[A], STANCE_INDEX[N]]
        assert instances.X.tolist() == rows.values[:2].tolist()

    def test_gap_produces_nothing(self):
        stances = StanceAssignment.from_truth({("u", 1): A, ("u", 3): P})
        rows = table([("u", 1, 0.0, A), ("u", 3, 0.0, P)])
        assert len(make_instances(rows, stances)) == 0

    def test_pooling_over_many_periods(self):
        periods = 15
        stances = StanceAssignment.from_truth(
            {("u", t): STANCE_ORDER[t % 3] for t in range(periods)})
        rows = table([("u", t, float(t), stances.get("u", t)) for t in range(periods)])
        instances = make_instances(rows, stances)
        assert len(instances) == periods - 1


def noise_instances(seed, n=240, d=5):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        label = STANCE_ORDER[i % 3]
        current = STANCE_ORDER[rng.integers(0, 3)]
        rows.append((f"u{i}", 0, tuple(rng.normal(size=d)), label, current))
    return labeled_rows(rows)


def planted_instances(seed, n=240):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        label = STANCE_ORDER[rng.integers(0, 3)]
        value = float(STANCE_ORDER.index(label)) + rng.normal(0, 0.05)
        rows.append((f"u{i}", 0, (value, 0.0), label, label))
    return labeled_rows(rows)


class TestNestedCV:
    def test_chance_level_on_noise(self):
        scores = [
            nested_cv(noise_instances(seed), ClassifierSpec("gaussian_nb"),
                      outer_k=5, inner_k=3, search_iters=4, seed=seed
                      ).metrics_mean["macro_f1"]
            for seed in range(4)
        ]
        assert 0.23 < float(np.mean(scores)) < 0.43

    def test_perfect_feature_recovered(self):
        result = nested_cv(planted_instances(0), ClassifierSpec("gaussian_nb"),
                           outer_k=5, inner_k=3, search_iters=4, seed=1)
        assert result.metrics_mean["macro_f1"] >= 0.99

    def test_fold_hygiene_partition(self):
        instances = noise_instances(2, n=90)
        result = nested_cv(instances, ClassifierSpec("knn", {"k": ("int", 1, 5)}),
                           outer_k=6, inner_k=3, search_iters=3, seed=0)
        assert sum(f.n_test for f in result.folds) == len(instances)

    def test_determinism(self):
        instances = noise_instances(3, n=120)
        spec = ClassifierSpec("random_forest",
                              {"n_trees": ("int", 5, 10), "max_depth": ("int", 2, 4),
                               "max_features": ("choice", ["sqrt"])})
        a = nested_cv(instances, spec, outer_k=4, inner_k=2, search_iters=3, seed=9)
        b = nested_cv(instances, spec, outer_k=4, inner_k=2, search_iters=3, seed=9)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_progress_logged_per_outer_fold(self, caplog, monkeypatch):
        instances = noise_instances(4, n=90)
        spec = ClassifierSpec("gaussian_nb")
        quiet = nested_cv(instances, spec, outer_k=3, inner_k=2, search_iters=2, seed=4)
        # The clock reads 0 s at the start and 2 s more at each fold's line.
        ticks = itertools.count(0.0, 2.0)
        monkeypatch.setattr(cv, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        with caplog.at_level(logging.INFO, logger="stancecast.learning"):
            logged = nested_cv(instances, spec, outer_k=3, inner_k=2, search_iters=2, seed=4)
        lines = [r.getMessage() for r in caplog.records if r.name == "stancecast.learning"]
        # Each fold scores 2 candidates x 2 inner splits; 12 search fits and
        # 3 refits in all, so the ETA is elapsed / fits done * fits left.
        assert lines == [
            "nested_cv gaussian_nb: fold 1/3, candidates 2/6, 2.0 s elapsed, ETA 5.5 s",
            "nested_cv gaussian_nb: fold 2/3, candidates 4/6, 4.0 s elapsed, ETA 3.5 s",
            "nested_cv gaussian_nb: fold 3/3, candidates 6/6, 6.0 s elapsed, ETA 1.5 s",
        ]
        assert json.dumps(logged.to_dict(), sort_keys=True) == \
            json.dumps(quiet.to_dict(), sort_keys=True)

    def test_thin_class_warns_and_still_partitions(self):
        # keep only 3 AGAINST labels, fewer than outer_k
        instances = noise_instances(4, n=63)
        y = instances.y.copy()
        y[np.nonzero(y == STANCE_INDEX[A])[0][3:]] = STANCE_INDEX[P]
        relabeled = dataclasses.replace(instances, y=y)
        result = nested_cv(relabeled, ClassifierSpec("gaussian_nb"),
                           outer_k=7, inner_k=2, search_iters=2, seed=0)
        assert any("fewer than" in w for w in result.warnings)
        assert sum(f.n_test for f in result.folds) == len(relabeled)

    def test_group_by_user_keeps_users_whole(self):
        rng = np.random.default_rng(6)
        instances = labeled_rows([
            (f"u{u}", t, tuple(rng.normal(size=3)), STANCE_ORDER[(u + t) % 3],
             STANCE_ORDER[u % 3])
            for u in range(30) for t in range(3)])
        result = nested_cv(instances, ClassifierSpec("gaussian_nb"),
                           outer_k=5, inner_k=2, search_iters=2, seed=3,
                           group_by_user=True)
        fold_of_user = {}
        offset = 0
        users = list(instances.users)
        for fold in result.folds:
            assert fold.n_test > 0
        # reconstruct fold membership from the partition check inside nested_cv:
        # grouped folds guarantee each user's indices stay together, asserted
        # by rebuilding the grouped dealing here.
        from stancecast.learning.cv import _grouped_folds
        folds = _grouped_folds(users, 5, random.Random(3))
        for fold_indices in folds:
            fold_users = {users[i] for i in fold_indices}
            for other in folds:
                if other is fold_indices:
                    continue
                assert fold_users.isdisjoint({users[i] for i in other})

    def test_too_few_instances_rejected(self):
        with pytest.raises(ValueError):
            nested_cv(noise_instances(0, n=5), ClassifierSpec("gaussian_nb"),
                      outer_k=10, inner_k=2, search_iters=1, seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(outer_k=1), "outer_k must be an integer of at least 2, got 1"),
        (dict(outer_k="3"), "outer_k must be an integer of at least 2, got '3'"),
        (dict(inner_k=1), "inner_k must be an integer of at least 2, got 1"),
        (dict(inner_k=True), "inner_k must be an integer of at least 2, got True"),
        (dict(search_iters=0), "search_iters must be an integer of at least 1, got 0"),
    ])
    def test_fold_and_iteration_ranges_rejected(self, kwargs, message):
        params = {**dict(outer_k=3, inner_k=2, search_iters=1, seed=0), **kwargs}
        with pytest.raises(ValueError, match=message):
            nested_cv(noise_instances(0, n=30), ClassifierSpec("gaussian_nb"), **params)

    def test_too_few_users_for_grouping_rejected(self):
        rng = np.random.default_rng(1)
        instances = labeled_rows([
            (f"u{u}", t, tuple(rng.normal(size=3)), STANCE_ORDER[t % 3], STANCE_ORDER[t % 3])
            for u in range(3) for t in range(20)])
        with pytest.raises(ValueError):
            nested_cv(instances, ClassifierSpec("gaussian_nb"),
                      outer_k=5, inner_k=2, search_iters=1, seed=0,
                      group_by_user=True)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            ClassifierSpec("svm")

    @pytest.mark.parametrize("space", [[], [["k", ["int", 1, 3]]], "k"])
    def test_space_that_is_not_a_dict_rejected(self, space):
        with pytest.raises(ValueError, match="hyperparameter space must be a dict"):
            ClassifierSpec("knn", space)
