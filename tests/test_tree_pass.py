"""The flat-array tree and block KNN against the node-object reference.

Every tree sorts each column once per fit. Boosting splits on pre-sorted
column blocks; a forest node sorts its rows' ranks in only the columns it
draws. KNN ranks neighbours with a partition and a sort of the distances at
or below it, over blocks of rows, and every k votes over a prefix of one
ranking.
The reference below is the earlier code: recursive `_Node` growers that
stable-sort every candidate column at every node, row-by-row `apply`, and a
per-row stable argsort for KNN. Every comparison is exact.
"""

import math

import numpy as np
import pytest

from stancecast.learning import classifiers
from stancecast.learning.classifiers import (
    GradientBoostingClassifier,
    KNNClassifier,
    RandomForestClassifier,
)
from stancecast.learning.trees import grow, presort


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "counts", "leaf_id")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.counts = None
        self.leaf_id = -1


def _best_split_classification(X, y, idx, features, n_classes):
    n = idx.size
    onehot = np.zeros((n, n_classes))
    best = None
    for feature in features:
        column = X[idx, feature]
        order = np.argsort(column, kind="stable")
        xs = column[order]
        boundaries = np.nonzero(xs[:-1] != xs[1:])[0]
        if boundaries.size == 0:
            continue
        onehot[:] = 0.0
        onehot[np.arange(n), y[idx][order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        total = cum[-1]
        left = cum[boundaries]
        right = total - left
        n_left = boundaries + 1.0
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        pos = int(np.argmin(weighted))
        score = float(weighted[pos])
        if best is None or score < best[0] - 1e-12:
            cut = boundaries[pos]
            best = (score, feature, (xs[cut] + xs[cut + 1]) / 2.0)
    return best


def _best_split_regression(X, y, idx, features):
    n = idx.size
    best = None
    for feature in features:
        column = X[idx, feature]
        order = np.argsort(column, kind="stable")
        xs = column[order]
        boundaries = np.nonzero(xs[:-1] != xs[1:])[0]
        if boundaries.size == 0:
            continue
        ys = y[idx][order]
        cum = np.cumsum(ys)
        cum_sq = np.cumsum(ys * ys)
        total, total_sq = cum[-1], cum_sq[-1]
        n_left = boundaries + 1.0
        n_right = n - n_left
        sum_left = cum[boundaries]
        sse_left = cum_sq[boundaries] - sum_left**2 / n_left
        sum_right = total - sum_left
        sse_right = (total_sq - cum_sq[boundaries]) - sum_right**2 / n_right
        sse = sse_left + sse_right
        pos = int(np.argmin(sse))
        score = float(sse[pos])
        if best is None or score < best[0] - 1e-12:
            cut = boundaries[pos]
            best = (score, feature, (xs[cut] + xs[cut + 1]) / 2.0)
    return best


class ReferenceClassificationTree:
    def __init__(self, max_depth=None, max_features=None, min_samples_split=2):
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.root = None
        self.n_classes = 0

    def fit(self, X, y, n_classes, rng):
        self.n_classes = n_classes
        self.root = self._grow(X, y, np.arange(X.shape[0]), depth=0, rng=rng)
        return self

    def _features_for_split(self, d, rng):
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        picked = rng.choice(d, size=self.max_features, replace=False)
        picked.sort()
        return picked

    def _grow(self, X, y, idx, depth, rng):
        node = _Node()
        counts = np.bincount(y[idx], minlength=self.n_classes)
        node.counts = counts
        if (idx.size < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or int(np.count_nonzero(counts)) <= 1):
            return node
        features = self._features_for_split(X.shape[1], rng)
        best = _best_split_classification(X, y, idx, features, self.n_classes)
        if best is None:
            return node
        _, node.feature, node.threshold = best
        mask = X[idx, node.feature] <= node.threshold
        node.left = self._grow(X, y, idx[mask], depth + 1, rng)
        node.right = self._grow(X, y, idx[~mask], depth + 1, rng)
        return node

    def predict_counts(self, X):
        out = np.empty((X.shape[0], self.n_classes))
        for i in range(X.shape[0]):
            node = self.root
            while node.left is not None:
                node = node.left if X[i, node.feature] <= node.threshold else node.right
            out[i] = node.counts
        return out


class ReferenceRegressionTree:
    def __init__(self, max_depth=None, min_samples_split=2):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.root = None
        self.n_leaves = 0

    def fit(self, X, y):
        self.n_leaves = 0
        self.root = self._grow(X, y, np.arange(X.shape[0]), depth=0)
        return self

    def _grow(self, X, y, idx, depth):
        node = _Node()
        if (idx.size >= self.min_samples_split
                and (self.max_depth is None or depth < self.max_depth)):
            best = _best_split_regression(X, y, idx, np.arange(X.shape[1]))
            if best is not None:
                _, node.feature, node.threshold = best
                mask = X[idx, node.feature] <= node.threshold
                node.left = self._grow(X, y, idx[mask], depth + 1)
                node.right = self._grow(X, y, idx[~mask], depth + 1)
                return node
        node.leaf_id = self.n_leaves
        self.n_leaves += 1
        return node

    def apply(self, X):
        out = np.empty(X.shape[0], dtype=np.int64)
        for i in range(X.shape[0]):
            node = self.root
            while node.left is not None:
                node = node.left if X[i, node.feature] <= node.threshold else node.right
            out[i] = node.leaf_id
        return out


def reference_forest_votes(X, y, n_classes, seed, n_trees, max_depth, max_features, E):
    d = X.shape[1]
    size = {"sqrt": max(1, int(math.sqrt(d))), "third": max(1, d // 3), "all": d}[max_features]
    rng = np.random.default_rng(seed)
    votes = np.zeros((E.shape[0], n_classes))
    n = X.shape[0]
    for _ in range(n_trees):
        sample = rng.integers(0, n, size=n)
        tree = ReferenceClassificationTree(max_depth=max_depth, max_features=size)
        tree.fit(X[sample], y[sample], n_classes, rng)
        votes[np.arange(E.shape[0]), np.argmax(tree.predict_counts(E), axis=1)] += 1.0
    return votes


def reference_boosting(X, y, n_classes, n_trees, max_depth, learning_rate, E):
    """(predictions on E, every stage's per-class leaf values)."""
    n = X.shape[0]
    targets = np.zeros((n_classes, n))
    for c in range(n_classes):
        targets[c] = (y == c).astype(np.float64)
    rates = np.clip(targets.mean(axis=1), 1e-6, 1.0 - 1e-6)
    base = np.log(rates / (1.0 - rates))
    scores = np.repeat(base[:, None], n, axis=1)
    stages = []
    for _ in range(n_trees):
        stage = []
        for c in range(n_classes):
            p = 1.0 / (1.0 + np.exp(-scores[c]))
            residual = targets[c] - p
            tree = ReferenceRegressionTree(max_depth=max_depth).fit(X, residual)
            leaves = tree.apply(X)
            values = np.zeros(tree.n_leaves)
            for leaf in range(tree.n_leaves):
                mask = leaves == leaf
                if not np.any(mask):
                    continue
                hessian = float(np.sum(p[mask] * (1.0 - p[mask])))
                values[leaf] = float(np.sum(residual[mask])) / max(hessian, 1e-12)
            values = np.clip(values, -8.0, 8.0)
            scores[c] += learning_rate * values[leaves]
            stage.append((tree, values))
        stages.append(stage)
    eval_scores = np.repeat(base[:, None], E.shape[0], axis=1)
    for stage in stages:
        for c, (tree, values) in enumerate(stage):
            eval_scores[c] += learning_rate * values[tree.apply(E)]
    return np.argmax(eval_scores.T, axis=1), [[v for _, v in stage] for stage in stages]


def reference_knn(X, y, n_classes, k, E):
    k = min(k, X.shape[0])
    sq = (np.sum(E**2, axis=1)[:, None] + np.sum(X**2, axis=1)[None, :] - 2.0 * E @ X.T)
    out = np.empty(E.shape[0], dtype=np.int64)
    for i in range(E.shape[0]):
        nearest = np.argsort(sq[i], kind="stable")[:k]
        out[i] = int(np.argmax(np.bincount(y[nearest], minlength=n_classes)))
    return out


def _data(kind, seed=0, n=240, d=7):
    """(X_train, y_train, X_eval) with labels that depend on the features."""
    rng = np.random.default_rng(seed)
    if kind == "few":
        # FS3-like: 13 distinct values per column, so most rows tie.
        X = rng.integers(0, 13, size=(n + 80, d)) / 12.0
    elif kind == "continuous":
        X = rng.normal(size=(n + 80, d))
    elif kind == "duplicates":
        base = rng.integers(0, 4, size=(30, d)).astype(np.float64)
        X = base[rng.integers(0, 30, size=n + 80)]
        X[:, 2] = 0.5  # a constant column
    elif kind == "no-columns":
        return np.zeros((6, 0)), np.array([0, 1, 1, 2, 1, 0]), np.zeros((4, 0))
    elif kind == "signed-zeros":  # ties of -0.0 and 0.0 in every column
        X = (np.where(rng.random((60, 3)) < 0.5, -0.0, 0.0)
             + rng.integers(-1, 2, size=(60, 3)) * np.array([1.0, 0.5, 0.0]))
        return X[:40], rng.integers(0, 3, size=40), X
    elif kind == "two-rows":
        X = np.array([[-0.0, 1.0], [0.0, 2.0]])
        return X, np.array([2, 0]), np.vstack([X, [[0.0, 1.4], [-0.0, 1.6], [5.0, 0.0]]])
    elif kind == "missing-class":  # y holds classes 0 and 2 of 3
        X = rng.integers(0, 4, size=(60, 4)) / 3.0
        return X[:40], np.where(X[:40, 0] + X[:40, 1] > 1.0, 2, 0), X
    else:
        raise ValueError(kind)
    y = (np.digitize(X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.3, size=X.shape[0]),
                     np.quantile(X[:, 0] + 0.5 * X[:, 1], [0.33, 0.66]))).astype(np.int64)
    return X[:n], y[:n], X[n:]


KINDS = ("few", "continuous", "duplicates")
# Rank sorts of bootstrap rows must grow these exactly as per-node sorts do.
EDGES = ("no-columns", "signed-zeros", "two-rows", "missing-class")


@pytest.mark.parametrize("kind", KINDS + EDGES)
@pytest.mark.parametrize("max_features", ["sqrt", "third", "all"])
@pytest.mark.parametrize("max_depth", [1, 6, None])
def test_random_forest_matches_reference(kind, max_features, max_depth):
    X, y, E = _data(kind, seed=len(kind))
    model = RandomForestClassifier(n_trees=6, max_depth=max_depth, max_features=max_features)
    model.fit(X, y, 3, seed=17)
    votes = reference_forest_votes(X, y, 3, 17, 6, max_depth, max_features, E)
    mine = np.zeros_like(votes)
    for tree in model.trees:
        mine[np.arange(E.shape[0]), np.argmax(tree.apply(E), axis=1)] += 1.0
    assert np.array_equal(mine, votes)
    assert np.array_equal(model.predict(E), np.argmax(votes, axis=1))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("max_depth", [1, 2, 3, 4, 5, 6])
def test_gradient_boosting_matches_reference(kind, max_depth):
    X, y, E = _data(kind, seed=10 + max_depth, n=160)
    model = GradientBoostingClassifier(n_trees=4, max_depth=max_depth, learning_rate=0.3)
    model.fit(X, y, 3)
    preds, stage_values = reference_boosting(X, y, 3, 4, max_depth, 0.3, E)
    assert np.array_equal(model.predict(E), preds)
    for stage, ref_stage in zip(model.stages, stage_values, strict=True):
        for (_, values), ref_values in zip(stage, ref_stage, strict=True):
            assert values.tobytes() == ref_values.tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [1, 5, 50, 10_000])
def test_knn_matches_reference(kind, k):
    X, y, E = _data(kind, seed=3)
    E = np.vstack([E] + [X[:40]] * 6)  # more rows than one selection block
    model = KNNClassifier(k=k).fit(X, y, 3)
    assert np.array_equal(model.predict(E), reference_knn(X, y, 3, k, E))


@pytest.mark.parametrize("kind", KINDS)
def test_one_ranking_serves_every_k(kind, monkeypatch):
    X, y, E = _data(kind, seed=4)
    E = np.vstack([E] + [X[:40]] * 6)
    ks = [1, 2, 5, 50, 10_000]
    rankings = []
    real = KNNClassifier.rank

    def rank(self, X_eval, k):
        rankings.append(k)
        return real(self, X_eval, k)

    monkeypatch.setattr(KNNClassifier, "rank", rank)
    predictions = list(classifiers.knn_train_predict([{"k": k} for k in ks], X, y, E))
    assert rankings == [10_000]
    for k, preds in zip(ks, predictions, strict=True):
        assert np.array_equal(preds, reference_knn(X, y, 3, k, E))


def test_knn_configurations_fail_in_turn():
    # Every configuration is built before the fit, so a batch holding a bad
    # one raises before it yields any prediction.
    X, y, E = _data("few")
    fits = classifiers.knn_train_predict([{"k": 3}, {"k": 1}, {"k": 0}, {"k": 2}], X, y, E)
    with pytest.raises(ValueError, match="k must be at least 1"):
        next(fits)


def test_two_row_training_set():
    X = np.array([[0.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 1])
    E = np.array([[0.2, 1.0], [0.9, 0.0], [-3.0, 5.0]])
    model = RandomForestClassifier(n_trees=5, max_depth=None, max_features="all").fit(X, y, 3, 4)
    assert np.array_equal(model.predict(E),
                          np.argmax(reference_forest_votes(X, y, 3, 4, 5, None, "all", E), axis=1))
    model = GradientBoostingClassifier(n_trees=3, max_depth=2).fit(X, y, 2)
    preds, stage_values = reference_boosting(X, y, 2, 3, 2, 0.1, E)
    assert np.array_equal(model.predict(E), preds)
    assert [[v.tolist() for _, v in s] for s in model.stages] == \
        [[v.tolist() for v in s] for s in stage_values]
    for k in (1, 2, 5):
        assert np.array_equal(KNNClassifier(k=k).fit(X, y, 2).predict(E),
                              reference_knn(X, y, 2, k, E))


# Two neighbouring floats whose midpoint rounds up to the upper one, and a
# pair whose sum overflows to inf.
CLOSE_PAIRS = [(1.0000000000000002, 1.0000000000000004), (1e308, 1.5e308)]


@pytest.mark.parametrize("low, high", CLOSE_PAIRS)
def test_threshold_lies_below_the_upper_value(low, high, recwarn):
    X = np.array([[low], [low], [high], [high]])
    y = np.array([0, 0, 1, 1])
    tree, _ = grow(X, y, np.arange(4), presort(X), n_classes=2, max_depth=3)
    assert low <= tree.threshold[0] < high
    for model in (RandomForestClassifier(3, 5, "all"), GradientBoostingClassifier(5, 2, 0.3)):
        assert model.fit(X, y, 2).predict(X).tolist() == [0, 0, 1, 1]
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("low, high", CLOSE_PAIRS)
def test_unbounded_depth_separates_close_values(low, high):
    X = np.array([[low], [low], [high], [high]])
    y = np.array([0, 0, 1, 1])
    tree, leaves = grow(X, y, np.arange(4), presort(X), n_classes=2)
    assert tree.n_leaves == 2 and leaves.tolist() == [0, 0, 1, 1]
    for model in (RandomForestClassifier(3, None, "all"),
                  GradientBoostingClassifier(5, None, 0.3)):
        assert model.fit(X, y, 2).predict(X).tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize("kind", KINDS)
def test_presort_keeps_row_order_on_ties(kind):
    X, _, _ = _data(kind, seed=5)
    order, values, rank = presort(X)
    for f in range(X.shape[1]):
        assert np.array_equal(order[f], np.lexsort((np.arange(X.shape[0]), X[:, f])))
        assert np.array_equal(values[f], X[order[f], f])
        assert np.array_equal(order.flat[rank[f]], np.arange(X.shape[0]))
        assert np.array_equal(values.flat[rank[f]], X[:, f])


@pytest.mark.parametrize("blocks", [False, True])
def test_no_columns_grows_one_leaf(blocks):
    X = np.zeros((5, 0))
    y = np.array([0, 1, 1, 2, 1])
    tree, leaves = grow(X, y, np.arange(5), presort(X), n_classes=3,
                        max_features=None if blocks else 1)
    assert tree.n_leaves == 1
    assert tree.apply(X).tolist() == [[1, 3, 1]] * 5
    assert leaves.tolist() == [0] * 5


@pytest.mark.parametrize("kind", KINDS)
def test_grower_leaves_match_apply(kind):
    X, y, _ = _data(kind, seed=8)
    residual = np.random.default_rng(8).normal(size=y.size)
    ref = ReferenceRegressionTree(max_depth=5).fit(X, residual)
    rows = np.arange(y.size)
    for max_features in (None, X.shape[1]):
        tree, leaves = grow(X, residual, rows, presort(X), max_depth=5, max_features=max_features)
        assert np.array_equal(leaves, tree.apply(X))
        assert np.array_equal(leaves, ref.apply(X))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("max_depth", [4, 6])
def test_row_grower_boosts_like_blocks(kind, max_depth, monkeypatch):
    """Per-node sorts of the rows' ranks add the residuals in the order of the blocks."""
    X, y, E = _data(kind, seed=len(kind))
    blocks = GradientBoostingClassifier(n_trees=30, max_depth=max_depth).fit(X, y, 3)
    monkeypatch.setattr(classifiers, "grow", lambda X, y, rows, presorted, **kw: grow(
        X, y, rows, presort(X), max_features=X.shape[1], **kw))
    sorts = GradientBoostingClassifier(n_trees=30, max_depth=max_depth).fit(X, y, 3)
    assert [[v.tobytes() for _, v in s] for s in sorts.stages] == \
        [[v.tobytes() for _, v in s] for s in blocks.stages]
    assert np.array_equal(sorts.predict(E), blocks.predict(E))


def test_knn_rejects_k_below_one():
    with pytest.raises(ValueError, match="k must be at least 1"):
        KNNClassifier(k=0)


@pytest.mark.parametrize("family, params, message", [
    ("random_forest", {"n_trees": 0}, "n_trees must be at least 1, got 0"),
    ("random_forest", {"max_depth": 0}, "max_depth must be at least 1, got 0"),
    ("gradient_boosting", {"n_trees": -3}, "n_trees must be at least 1, got -3"),
    ("gradient_boosting", {"max_depth": 0}, "max_depth must be at least 1, got 0"),
    *(("gradient_boosting", {"learning_rate": rate}, "learning_rate must be finite and positive")
      for rate in (0.0, -0.1, math.inf, math.nan)),
    ("logistic_regression", {"l2": -5.0}, "l2 must be finite and non-negative"),
    ("logistic_regression", {"l2": math.inf}, "l2 must be finite and non-negative"),
    ("logistic_regression", {"l2": math.nan}, "l2 must be finite and non-negative"),
    ("logistic_regression", {"l2": True}, "l2 must be finite and non-negative"),
    ("random_forest", {"n_trees": 2.5}, "n_trees must be an integer, got 2.5"),
    ("random_forest", {"n_trees": True}, "n_trees must be an integer, got True"),
    ("random_forest", {"max_depth": 2.5}, "max_depth must be an integer, got 2.5"),
    ("gradient_boosting", {"max_depth": True}, "max_depth must be an integer, got True"),
    ("gradient_boosting", {"learning_rate": True}, "learning_rate must be finite and positive"),
    ("knn", {"k": 2.5}, "k must be an integer, got 2.5"),
    ("knn", {"k": False}, "k must be an integer, got False"),
    *(("gaussian_nb", {"var_smoothing": value}, "var_smoothing must be finite and positive")
      for value in (0.0, -1, math.inf, math.nan, True, "x")),
    # Ints too large for a float.
    ("logistic_regression", {"l2": 10**400}, "l2 must be finite and non-negative"),
    ("gradient_boosting", {"learning_rate": 10**400}, "learning_rate must be finite and positive"),
    ("gaussian_nb", {"var_smoothing": 10**400}, "var_smoothing must be finite and positive"),
])
def test_constructors_reject_invalid_hyperparameters(family, params, message):
    # Each would otherwise fit and predict class 0 for every row, fit with a
    # changed value, fail in the middle of a fit, or score NaN.
    with pytest.raises(ValueError, match=message):
        classifiers.build_classifier(family, params)


def test_constructors_accept_their_range_edges():
    classifiers.build_classifier("random_forest", {"n_trees": 1, "max_depth": None})
    classifiers.build_classifier("gradient_boosting",
                                 {"n_trees": 1, "max_depth": 1, "learning_rate": 5e-324})
    classifiers.build_classifier("logistic_regression", {"l2": 0.0})
