"""Binary CART-style decision tree grown best-first under a leaf budget.

Growth keeps a priority queue of splittable leaves keyed by size-weighted
impurity decrease and expands the best one until the leaf budget is reached
or no leaf has a strictly positive gain. Everything is deterministic: equal
gains tie-break on (feature index, threshold), equal priorities on node
creation order. The trained model (nodes, routing, JSON document) lives in
``domepilot.treemodel``, which needs no numpy; its names are re-exported
here.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

import numpy as np

from .treemodel import CRITERIA, Leaf, Split, TreeConfig, TreeModel
from .weather import _features_and_labels


def _impurity_values(n0, n1, criterion: str):
    """Vectorized impurity from class counts; counts may be arrays."""
    n0 = np.asarray(n0, dtype=float)
    n1 = np.asarray(n1, dtype=float)
    total = n0 + n1
    p0 = np.divide(n0, total, out=np.zeros_like(total), where=total > 0)
    p1 = np.divide(n1, total, out=np.zeros_like(total), where=total > 0)
    if criterion == "gini":
        return 1.0 - p0 * p0 - p1 * p1
    log0 = np.zeros_like(p0)
    log1 = np.zeros_like(p1)
    np.log2(p0, out=log0, where=p0 > 0)
    np.log2(p1, out=log1, where=p1 > 0)
    return -(p0 * log0 + p1 * log1)


def impurity(class_counts: tuple[int, int], criterion: str = "gini") -> float:
    """Gini (1 - p0^2 - p1^2) or entropy (-sum p log2 p, 0*log0 = 0)."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    n0, n1 = class_counts
    if n0 < 0 or n1 < 0 or n0 + n1 < 1:
        raise ValueError(f"class counts must be nonnegative and nonempty, got {class_counts}")
    return float(_impurity_values(n0, n1, criterion))


def _as_arrays(samples: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """(n, d) float features and (n,) int64 labels of LabeledSample-likes or
    (features, label) pairs, converted by one ``np.array`` call each."""
    feats, labels = _features_and_labels(samples)
    X = np.array(feats, dtype=float)
    if X.ndim != 2:
        raise ValueError("samples must share one feature arity")
    return X, np.array(labels, dtype=np.int64)


def _best_split(X: np.ndarray, y: np.ndarray, criterion: str,
                min_samples_leaf: int) -> Optional[tuple[int, float, float]]:
    """Best (feature, threshold, gain) with gain > 0, or None.

    Candidate thresholds are midpoints of consecutive distinct sorted values.
    Gain is the weighted impurity decrease relative to the node.
    """
    n = y.size
    if n < 2:
        return None
    c1 = int(y.sum())
    c0 = n - c1
    if c0 == 0 or c1 == 0:
        return None
    parent = float(_impurity_values(c0, c1, criterion))
    best = None
    best_gain = 0.0
    for feature in range(X.shape[1]):
        order = np.argsort(X[:, feature], kind="stable")
        values = X[order, feature]
        cum1 = np.cumsum(y[order])
        cuts = np.nonzero(values[:-1] < values[1:])[0]
        if cuts.size == 0:
            continue
        n_left = cuts + 1
        keep = (n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
        cuts = cuts[keep]
        if cuts.size == 0:
            continue
        n_left = cuts + 1
        n_right = n - n_left
        l1 = cum1[cuts]
        l0 = n_left - l1
        children = ((n_left / n) * _impurity_values(l0, l1, criterion)
                    + (n_right / n) * _impurity_values(c0 - l0, c1 - l1, criterion))
        gains = parent - children
        pos = int(np.argmax(gains))  # first max -> lowest threshold on ties
        if gains[pos] > best_gain:  # strict -> lowest feature index on ties
            threshold = float((values[cuts[pos]] + values[cuts[pos] + 1]) / 2.0)
            best = (feature, threshold, float(gains[pos]))
            best_gain = float(gains[pos])
    return best


def best_split(samples_at_node: Sequence, criterion: str = "gini",
               min_samples_leaf: int = 1) -> Optional[tuple[int, float, float]]:
    """Scan every feature of the node's samples for the best admissible split.

    Returns (feature_index, threshold, impurity_decrease) maximizing the
    weighted impurity decrease with both children >= min_samples_leaf, or
    None when no candidate strictly decreases impurity.
    """
    X, y = _as_arrays(samples_at_node)
    return _best_split(X, y, criterion, min_samples_leaf)


def train_tree(train_samples: Sequence, config: TreeConfig = TreeConfig()) -> TreeModel:
    """Grow a tree best-first until the leaf budget or gain is exhausted.

    The frontier is ordered by gain * node_size (largest first); expanding a
    leaf replaces it in place and appends its two children, so node ids
    record creation order.
    """
    X, y = _as_arrays(train_samples)
    nodes: list = []
    frontier: list = []  # (-priority, node_id, feature, threshold, gain, indices)

    def leaf_for(indices: np.ndarray) -> Leaf:
        c1 = int(y[indices].sum())
        c0 = int(indices.size) - c1
        return Leaf(label=1 if c1 > c0 else 0, counts=(c0, c1))

    def enqueue(node_id: int, indices: np.ndarray) -> None:
        found = _best_split(X[indices], y[indices],
                            config.criterion, config.min_samples_leaf)
        if found is not None:
            feature, threshold, gain = found
            heapq.heappush(frontier,
                           (-gain * indices.size, node_id, feature, threshold, gain, indices))

    root_indices = np.arange(y.size)
    nodes.append(leaf_for(root_indices))
    n_leaves = 1
    if config.max_leaf_nodes >= 2:
        enqueue(0, root_indices)

    while frontier and n_leaves < config.max_leaf_nodes:
        _, node_id, feature, threshold, gain, indices = heapq.heappop(frontier)
        goes_left = X[indices, feature] <= threshold
        left_indices = indices[goes_left]
        right_indices = indices[~goes_left]
        left_id = len(nodes)
        nodes.append(leaf_for(left_indices))
        right_id = len(nodes)
        nodes.append(leaf_for(right_indices))
        counts = nodes[node_id].counts
        nodes[node_id] = Split(feature=feature, threshold=threshold,
                               left=left_id, right=right_id,
                               impurity=impurity(counts, config.criterion),
                               n=int(indices.size))
        n_leaves += 1
        enqueue(left_id, left_indices)
        enqueue(right_id, right_indices)

    return TreeModel(config=config, nodes=nodes, n_features=X.shape[1])
