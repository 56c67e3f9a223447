"""CART-style decision trees on flat arrays: Gini classification and variance regression.

One grower and one split search serve both criteria; each fit sorts every column once
(as in XGBoost). A node scores, per candidate column, a block of its rows in ascending
(value, row) order. Boosting's nodes score every column and filter their blocks for
their children; a forest node sorts its rows' ranks in the few columns it draws,
cheaper than filtering them all. Residual sums thus add in a per-node stable sort's
order; Gini counts are exact in any order. A block is scored with one cumulative sum
at the boundaries between distinct values. Ties keep the first column (within 1e-12)
and the first boundary; nodes grow depth-first, so rng draws come in a fixed order.
"""

from __future__ import annotations

import numpy as np


def presort(X):
    """Each column's rows in stable ascending value order and their values, both shape
    (d, n), and each row's flat index in those: `order.flat[rank[f, row]] == row`."""
    order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(order.size).reshape(order.shape), axis=1)
    return order, X[order, np.arange(X.shape[1])[:, None]], rank


class Tree:
    """A grown tree as flat arrays in depth-first node order; a leaf has `left == -1`.

    `value[node]` is the leaf payload: class counts, shape (n_nodes, n_classes),
    for classification; the leaf's depth-first ordinal for regression.
    """

    def __init__(self, nodes):
        feature, threshold, left, right, value = zip(*nodes)
        self.feature, self.left, self.right = np.array(feature), np.array(left), np.array(right)
        self.threshold, self.value = np.array(threshold), np.array(value)
        self.n_leaves = int(np.count_nonzero(self.left < 0))

    def apply(self, X):
        """Leaf payload for every row of X; all rows descend one level per step."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.left[node] >= 0)
        while active.size:
            at = node[active]
            go_left = X[active, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.left[node[active]] >= 0]
        return self.value[node]


def grow(X, y, rows, presorted, n_classes=None, max_depth=None, max_features=None, rng=None):
    """Grow one tree depth-first from the root's `rows` of X (repeats allowed: a bootstrap).

    `presorted` is `presort(X)`. With `max_features`, a node draws that many columns
    (all if there are no more) and sorts its rows' ranks in them. Without, `rows` must
    be every row once, the ranks may be left out, and a node scores every column and
    filters its blocks for its children. With `n_classes`, y holds class indices and
    nodes split on weighted Gini and stop when pure; without, on y's summed squared
    error. Returns the tree and each row's leaf ordinal (-1 for rows outside `rows`).
    """
    order, values = presorted[:2]
    d = X.shape[1]
    target = y if n_classes is None else np.eye(n_classes)[y]  # one-hot: counts by cumsum
    goes_left = np.zeros(X.shape[0], dtype=bool)
    leaves = np.full(X.shape[0], -1, dtype=np.int64)
    nodes = []  # [feature, threshold, left, right, payload]
    n_leaves = 0
    blocks = None if max_features is not None else (order, values)
    stack = [(rows, blocks, 0, None)]  # (..., depth, (parent, 2 for left or 3 for right))
    while stack:
        rows, blocks, depth, link = stack.pop()
        if link:
            nodes[link[0]][link[1]] = len(nodes)
        node = [-1, 0.0, -1, -1, -1]
        nodes.append(node)
        stop = rows.size < 2 or (max_depth is not None and depth >= max_depth)
        if n_classes is not None:
            node[4] = np.bincount(y[rows], minlength=n_classes)
            stop = stop or int(np.count_nonzero(node[4])) <= 1
        best = None
        if not stop:
            features = np.arange(d)
            if max_features is not None:
                if max_features < d:
                    features = np.sort(rng.choice(d, size=max_features, replace=False))
                at = np.sort(presorted[2].take(features[:, None] * X.shape[0] + rows), axis=1)
                best = _best_split(target, order.take(at), values.take(at))
            else:
                best = _best_split(target, *blocks)
        if best is None:
            leaves[rows] = n_leaves
            if n_classes is None:
                node[4] = n_leaves
            n_leaves += 1
            continue
        node[0], node[1] = int(features[best[0]]), best[1]
        left = X[rows, node[0]] <= node[1]
        if blocks is not None:
            goes_left[rows] = left
            mask = goes_left[blocks[0]].ravel()
        if max_depth is not None and depth + 1 >= max_depth:
            blocks = None  # the children are leaves: rows suffice
        parent = len(nodes) - 1
        for keep, side in ((~left, 3), (left, 2)):
            child = None if blocks is None else tuple(
                np.compress(mask if side == 2 else ~mask, b).reshape(d, -1) for b in blocks)
            stack.append((rows[keep], child, depth + 1, (parent, side)))
    return Tree(nodes), leaves


def _best_split(target, blocks, values):
    """(candidate, threshold) of the best boundary in (k, m) column blocks, or None."""
    k, m = blocks.shape
    flat = np.flatnonzero(values[:, :-1] != values[:, 1:])
    if flat.size == 0:
        return None
    fi, pos = np.divmod(flat, m - 1)
    n_left = pos + 1.0
    n_right = m - n_left
    ys = target[blocks]
    gini = ys.ndim == 3  # one-hot class targets
    cum_sq = None if gini else np.cumsum(ys * ys, axis=1)
    cum = np.cumsum(ys, axis=1, out=ys)
    left, right = cum[fi, pos], cum[fi, -1] - cum[fi, pos]
    if gini:
        gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        score = (n_left * gini_left + n_right * gini_right) / m
    else:
        sq_left = cum_sq[fi, pos]
        score = ((sq_left - left**2 / n_left)
                 + ((cum_sq[fi, -1] - sq_left) - right**2 / n_right))
    grid = np.full((k, m - 1), np.inf)
    grid[fi, pos] = score
    first = np.argmin(grid, axis=1)
    best = None  # (score, candidate); a column without boundaries scores inf
    for candidate, score in enumerate(grid[np.arange(k), first].tolist()):
        if score != np.inf and (best is None or score < best[0] - 1e-12):
            best = (score, candidate)
    candidate = best[1]
    low, high = values[candidate, first[candidate]:first[candidate] + 2].tolist()
    mid = (low + high) / 2.0  # Python floats: inf on overflow, and no warning
    return candidate, mid if low <= mid < high else low  # `X <= threshold` must split them
