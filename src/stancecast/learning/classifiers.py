"""The five classifier families, implemented on numpy arrays.

All fits validate their inputs the same way (finite features, labels
in [0, n_classes), at least two classes present) and are deterministic
given the seed handed to `fit`. Class labels are integer indices; argmax
tie-breaks always prefer the smaller class index.
"""

from __future__ import annotations

import math
import random
from numbers import Integral, Real
from typing import Iterator, Mapping, Sequence

import numpy as np

from .trees import Tree, grow, presort

LR_MAX_EPOCHS = 1000
LR_TOL = 1e-6


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _require_count(name: str, value, nullable: bool = False) -> None:
    """An integer of at least 1, not a bool; None too when `nullable`."""
    if value is None and nullable:
        return
    _require(_is_int(value), f"{name} must be an integer, got {value!r}")
    _require(value >= 1, f"{name} must be at least 1, got {value}")


def _require_finite(name: str, value, positive: bool = True) -> None:
    """A finite number, not a bool, above 0, or at least 0 unless `positive`."""
    try:
        ok = (isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
              and (value > 0 if positive else value >= 0))
    except OverflowError:  # an int too large for a float
        ok = False
    _require(ok,
             f"{name} must be finite and {'positive' if positive else 'non-negative'}, "
             f"got {value!r}")


def _validate_training(X, y, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The training rows as float64 features and int64 labels, once they pass every check."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training set must be a non-empty 2-d array")
    if y.shape != (X.shape[0],):
        raise ValueError(f"training set has {X.shape[0]} rows but {y.size} labels")
    if not np.all(np.isfinite(X)):
        raise ValueError("training features must be finite")
    outside = y[(y < 0) | (y >= n_classes)]
    if outside.size:
        raise ValueError(f"training labels must lie in [0, {n_classes}), got {outside[0]}")
    if np.unique(y).size < 2:
        raise ValueError("training set must contain at least two classes")
    return X, y


class LogisticRegressionClassifier:
    """Multinomial softmax regression with an L2 penalty.

    Features are standardized by the training mean and deviation; the
    bias row is unpenalized. Plain gradient descent with Armijo
    backtracking runs until the parameter update drops below `LR_TOL` or
    `LR_MAX_EPOCHS` epochs elapse.
    """

    def __init__(self, l2: float = 1.0):
        _require_finite("l2", l2, positive=False)
        self.l2 = l2
        self.weights = None
        self.mean = None
        self.scale = None

    def _design(self, X):
        Z = (X - self.mean) / self.scale
        return np.hstack([Z, np.ones((Z.shape[0], 1))])

    def _loss_grad(self, D, Y, weights):
        n = D.shape[0]
        scores = D @ weights
        scores -= scores.max(axis=1, keepdims=True)
        expd = np.exp(scores)
        probs = expd / expd.sum(axis=1, keepdims=True)
        penalized = weights.copy()
        penalized[-1] = 0.0
        loss = (-np.sum(np.log(probs[np.arange(n), np.argmax(Y, axis=1)] + 1e-300)) / n
                + 0.5 * self.l2 * float(np.sum(penalized**2)))
        grad = D.T @ (probs - Y) / n + self.l2 * penalized
        return loss, grad

    def fit(self, X, y, n_classes, seed=None):
        X, y = _validate_training(X, y, n_classes)
        self.mean = X.mean(axis=0)
        self.scale = X.std(axis=0)
        self.scale[self.scale == 0.0] = 1.0
        D = self._design(X)
        Y = np.zeros((X.shape[0], n_classes))
        Y[np.arange(X.shape[0]), y] = 1.0
        weights = np.zeros((D.shape[1], n_classes))
        loss, grad = self._loss_grad(D, Y, weights)
        lr = 1.0
        for _ in range(LR_MAX_EPOCHS):
            grad_sq = float(np.sum(grad**2))
            if grad_sq == 0.0:
                break
            while lr > 1e-12:
                candidate = weights - lr * grad
                new_loss, new_grad = self._loss_grad(D, Y, candidate)
                if new_loss <= loss - 0.5 * lr * grad_sq:
                    break
                lr *= 0.5
            step = lr * float(np.max(np.abs(grad)))
            weights, loss, grad = candidate, new_loss, new_grad
            lr = min(lr * 2.0, 1e4)
            if step < LR_TOL:
                break
        self.weights = weights
        return self

    def predict(self, X):
        return np.argmax(self._design(X) @ self.weights, axis=1)


class KNNClassifier:
    """Brute-force Euclidean k-nearest neighbours with majority vote.

    A row's neighbours are the first k training rows in stable (distance,
    training index) order. `rank` finds that order once, up to any k, and
    `vote` reads this model's k as a prefix of it, so the k values of a
    search share one ranking (`knn_train_predict`).
    """

    BLOCK_ROWS = 256  # distance rows ranked at once; bounds the temporaries

    def __init__(self, k: int = 5):
        _require_count("k", k)
        self.k = k
        self.X = None
        self.y = None
        self.n_classes = 0

    def fit(self, X, y, n_classes, seed=None):
        X, y = _validate_training(X, y, n_classes)
        self.X = X
        self.y = y
        self.n_classes = n_classes
        return self

    def rank(self, X, k: int) -> np.ndarray:
        """Row i: the first min(k, n_train) training rows in eval row i's stable order."""
        k = min(k, self.X.shape[0])
        sq = (np.sum(X**2, axis=1)[:, None]
              + np.sum(self.X**2, axis=1)[None, :]
              - 2.0 * X @ self.X.T)
        ranking = np.empty((X.shape[0], k), dtype=np.int64)
        for start in range(0, X.shape[0], self.BLOCK_ROWS):
            block = sq[start:start + self.BLOCK_ROWS]
            # Only the distances at or below each row's k-th smallest can be
            # among its first k; NaN sorts last, as in a full sort.
            kth = np.partition(block, k - 1, axis=1)[:, k - 1:k]
            rows, cols = np.nonzero(~(block > kth))
            order = np.lexsort((cols, block[rows, cols], rows))
            starts = np.searchsorted(rows, np.arange(block.shape[0]))
            ranking[start:start + block.shape[0]] = cols[order][starts[:, None] + np.arange(k)]
        return ranking

    def vote(self, ranking: np.ndarray) -> np.ndarray:
        """The majority class of each row's first k ranked neighbours, the smaller on ties."""
        labels = self.y[ranking[:, :self.k]]
        votes = np.stack([np.count_nonzero(labels == c, axis=1)
                          for c in range(self.n_classes)], axis=1)
        return np.argmax(votes, axis=1)

    def predict(self, X):
        return self.vote(self.rank(X, self.k))


class GaussianNBClassifier:
    """Per-feature Gaussian class-conditional baseline."""

    def __init__(self, var_smoothing: float = 1e-9):
        _require_finite("var_smoothing", var_smoothing)
        self.var_smoothing = var_smoothing
        self.log_prior = None
        self.means = None
        self.variances = None

    def fit(self, X, y, n_classes, seed=None):
        X, y = _validate_training(X, y, n_classes)
        n, d = X.shape
        self.means = np.zeros((n_classes, d))
        self.variances = np.ones((n_classes, d))
        priors = np.zeros(n_classes)
        floor = self.var_smoothing * max(float(X.var(axis=0).max()), 1.0)
        for c in range(n_classes):
            members = X[y == c]
            priors[c] = members.shape[0]
            if members.shape[0]:
                self.means[c] = members.mean(axis=0)
                self.variances[c] = members.var(axis=0) + floor
        with np.errstate(divide="ignore"):
            self.log_prior = np.where(priors > 0, np.log(priors / n), -np.inf)
        return self

    def predict(self, X):
        scores = np.empty((X.shape[0], self.means.shape[0]))
        for c in range(self.means.shape[0]):
            if not np.isfinite(self.log_prior[c]):
                scores[:, c] = -np.inf
                continue
            gap = X - self.means[c]
            scores[:, c] = (self.log_prior[c]
                            - 0.5 * np.sum(np.log(2.0 * np.pi * self.variances[c]))
                            - 0.5 * np.sum(gap**2 / self.variances[c], axis=1))
        return np.argmax(scores, axis=1)


class RandomForestClassifier:
    """Bagged Gini CART trees with random feature subsets per split."""

    def __init__(self, n_trees: int = 100, max_depth: int = 10,
                 max_features: str = "sqrt"):
        _require(max_features in ("sqrt", "third", "all"),
                 f"unknown feature subset mode {max_features!r}")
        _require_count("n_trees", n_trees)
        _require_count("max_depth", max_depth, nullable=True)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.max_features = max_features
        self.trees: list[Tree] = []
        self.n_classes = 0

    def _subset_size(self, d: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(d)))
        if self.max_features == "third":
            return max(1, d // 3)
        return d

    def fit(self, X, y, n_classes, seed=0):
        X, y = _validate_training(X, y, n_classes)
        self.n_classes = n_classes
        rng = np.random.default_rng(seed)
        size = self._subset_size(X.shape[1])
        self.trees = []
        n, presorted = X.shape[0], presort(X)
        for _ in range(self.n_trees):
            tree, _ = grow(X, y, rng.integers(0, n, size=n), presorted, n_classes=n_classes,
                           max_depth=self.max_depth, max_features=size, rng=rng)
            self.trees.append(tree)
        return self

    def predict(self, X):
        votes = np.zeros((X.shape[0], self.n_classes))
        for tree in self.trees:
            # argmax keeps the smaller class index on count ties
            votes[np.arange(X.shape[0]), np.argmax(tree.apply(X), axis=1)] += 1.0
        return np.argmax(votes, axis=1)


class GradientBoostingClassifier:
    """One-vs-rest boosted regression trees on the logistic loss."""

    def __init__(self, n_trees: int = 100, max_depth: int = 3,
                 learning_rate: float = 0.1):
        _require_count("n_trees", n_trees)
        _require_count("max_depth", max_depth, nullable=True)
        _require_finite("learning_rate", learning_rate)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.base_scores = None
        self.stages: list[list[tuple[Tree, np.ndarray]]] = []
        self.n_classes = 0

    def fit(self, X, y, n_classes, seed=None):
        X, y = _validate_training(X, y, n_classes)
        self.n_classes = n_classes
        n = X.shape[0]
        targets = np.zeros((n_classes, n))
        for c in range(n_classes):
            targets[c] = (y == c).astype(np.float64)
        rates = np.clip(targets.mean(axis=1), 1e-6, 1.0 - 1e-6)
        self.base_scores = np.log(rates / (1.0 - rates))
        scores = np.repeat(self.base_scores[:, None], n, axis=1)
        rows, presorted = np.arange(n), presort(X)[:2]  # blocks only: no ranks held
        self.stages = []
        for _ in range(self.n_trees):
            stage = []
            for c in range(n_classes):
                p = 1.0 / (1.0 + np.exp(-scores[c]))
                residual = targets[c] - p
                tree, leaves = grow(X, residual, rows, presorted, max_depth=self.max_depth)
                values = np.zeros(tree.n_leaves)
                # Each leaf's rows in ascending row order, summed leaf by leaf.
                by_leaf = np.argsort(leaves, kind="stable")
                bounds = np.cumsum(np.bincount(leaves))[:-1]
                for leaf, members in enumerate(np.split(by_leaf, bounds)):
                    if members.size:
                        p_leaf = p[members]
                        hessian = float(np.sum(p_leaf * (1.0 - p_leaf)))
                        values[leaf] = float(np.sum(residual[members])) / max(hessian, 1e-12)
                values = np.clip(values, -8.0, 8.0)
                scores[c] += self.learning_rate * values[leaves]
                stage.append((tree, values))
            self.stages.append(stage)
        return self

    def predict(self, X):
        scores = np.repeat(self.base_scores[:, None], X.shape[0], axis=1)
        for stage in self.stages:
            for c, (tree, values) in enumerate(stage):
                scores[c] += self.learning_rate * values[tree.apply(X)]
        return np.argmax(scores.T, axis=1)


_CLASSES = {
    "logistic_regression": LogisticRegressionClassifier,
    "knn": KNNClassifier,
    "random_forest": RandomForestClassifier,
    "gradient_boosting": GradientBoostingClassifier,
    "gaussian_nb": GaussianNBClassifier,
}
FAMILIES = tuple(_CLASSES)
# The families whose fit reads its seed; any seed gives the others the same model.
SEEDED_FAMILIES = frozenset({"random_forest"})

DEFAULT_SPACES: dict[str, dict] = {
    "logistic_regression": {"l2": ("loguniform", 1e-4, 1e2)},
    "knn": {"k": ("int", 1, 50)},
    "random_forest": {
        "n_trees": ("int", 50, 500),
        "max_depth": ("int", 2, 20),
        "max_features": ("choice", ["sqrt", "third", "all"]),
    },
    "gradient_boosting": {
        "n_trees": ("int", 50, 500),
        "max_depth": ("int", 1, 6),
        "learning_rate": ("loguniform", 0.01, 0.3),
    },
    "gaussian_nb": {"var_smoothing": ("loguniform", 1e-10, 1e-6)},
}


def sample_params(space: Mapping[str, Sequence], rng: random.Random) -> dict:
    """Draw one configuration; dimension kinds are loguniform / int / choice."""
    params = {}
    for name in sorted(space):
        kind, *args = space[name]
        if kind == "loguniform":
            lo, hi = args
            params[name] = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        elif kind == "int":
            lo, hi = args
            _require(_is_int(lo) and _is_int(hi),
                     f"int range ends for {name!r} must be integers, got {lo!r} and {hi!r}")
            params[name] = rng.randint(lo, hi)
        elif kind == "choice":
            params[name] = rng.choice(list(args[0]))
        else:
            raise ValueError(f"unknown space kind {kind!r} for {name!r}")
    return params


def build_classifier(family: str, params: Mapping):
    """The family's classifier with `params` as keyword arguments.

    A name the constructor does not take raises `TypeError`.
    """
    if family not in _CLASSES:
        raise ValueError(f"unknown classifier family {family!r}")
    return _CLASSES[family](**params)


def check_space(family: str, space: Mapping[str, Sequence]) -> None:
    """Raise `ValueError` unless every configuration `space` can draw builds `family`'s classifier.

    After one seeded draw, these must build, the other dimensions at their first edge:
    every `choice` value, and both ends of each `int` and, as floats, `loguniform` range.
    """
    try:
        sample_params(space, random.Random(0))
        edges = {name: list(args[0]) if kind == "choice"
                 else [float(end) for end in args] if kind == "loguniform" else list(args)
                 for name, (kind, *args) in space.items()}
        first = {name: values[0] for name, values in edges.items()}
        for name, values in edges.items():
            for value in values:
                build_classifier(family, {**first, name: value})
    except (TypeError, IndexError, OverflowError) as exc:
        raise ValueError(str(exc)) from None


def _eval_rows(X_eval) -> np.ndarray:
    """The eval rows as float64 features, once they are finite."""
    X_eval = np.asarray(X_eval, dtype=np.float64)
    if X_eval.size and not np.all(np.isfinite(X_eval)):
        raise ValueError("eval features must be finite")
    return X_eval


def check_rows(X_train, y_train, X_eval, n_classes: int = 3) -> None:
    """Raise `ValueError` for rows that `train_predict` refuses, whatever the configuration.

    The eval rows must be finite; the training rows a finite, non-empty 2-d
    array with one label per row in [0, n_classes), of at least two classes.
    """
    _eval_rows(X_eval)
    _validate_training(X_train, y_train, n_classes)


def train_predict(family: str, params: Mapping, X_train, y_train, X_eval,
                  seed: int = 0, n_classes: int = 3) -> np.ndarray:
    """Fit one configuration on the training set and predict the eval set."""
    model = build_classifier(family, params)
    X_eval = _eval_rows(X_eval)
    return model.fit(X_train, y_train, n_classes, seed).predict(X_eval)


def knn_train_predict(configs: Sequence[Mapping], X_train, y_train, X_eval,
                      n_classes: int = 3) -> Iterator[np.ndarray]:
    """`train_predict` of KNN for each configuration in turn, ranking neighbours once.

    Every configuration is built first, so a bad one raises before any prediction. One
    fit ranks the neighbours for the largest k, and each k votes over a prefix of that.
    """
    ks = [build_classifier("knn", params).k for params in configs]
    X_eval = _eval_rows(X_eval)
    model = KNNClassifier(max(ks)).fit(X_train, y_train, n_classes)
    ranking = model.rank(X_eval, model.k)
    for k in ks:
        yield model.vote(ranking[:, :k])
