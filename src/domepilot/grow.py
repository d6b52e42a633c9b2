"""Best-first growth of a ``domepilot.tree.TreeModel``; only ``train --model dt`` loads it.

Growth keeps a priority queue of splittable leaves keyed by size-weighted
impurity decrease and expands the best one until the leaf budget is reached
or no leaf has a strictly positive gain. Everything is deterministic: equal
gains tie-break on (feature index, threshold), equal priorities on node
creation order.

Growth is plain Python: one float list per feature, and a node counts its
rows per (distinct value, label) of a feature, then walks the sorted values
(whole degrees, percents and millibars: few per node) with running class
counts. It does not import numpy.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import repeat
from operator import add
from typing import Optional, Sequence

from .tree import Leaf, Split, TreeConfig, TreeModel, _impurity_of


def _columns(samples: Sequence) -> tuple[list, list, list[int]]:
    """One float list per feature, each feature's scan (its sorted distinct values and
    each row's key ``2 * rank of its value + label``, NaN last) and the int labels."""
    if len(samples) == 0:
        raise ValueError("empty training set")
    feats, labels = [f for f, _ in samples], [y for _, y in samples]
    if not all(y in (0, 1) for y in labels):  # before int(), which would turn 0.5 into 0
        raise ValueError("labels must be binary 0/1")
    labels = list(map(int, labels))
    try:
        if len(set(map(len, feats))) != 1:
            raise ValueError("samples must share one feature arity")
        columns = [list(map(float, column)) for column in zip(*feats)]
    except TypeError:  # a feature row or value that is not a number sequence
        raise ValueError("samples must be rows of numbers") from None
    scans = []
    for column in columns:
        values = sorted(v for v in set(column) if v == v)
        rank = {v: 2 * r for r, v in enumerate(values)}
        keys = map(add, map(rank.get, column, repeat(2 * len(values))), labels)
        scans.append((values, list(keys)))
    return columns, scans, labels


def _best_split(scans: list, y: list, rows: list, imp) -> Optional[tuple[int, float, float]]:
    """Best (feature, threshold, gain) with gain > 0 over ``rows``, or None.

    Candidate thresholds are midpoints of consecutive distinct sorted values,
    so both children hold rows. Gain is the weighted impurity decrease
    relative to the node.
    """
    n = len(rows)
    c1 = sum(map(y.__getitem__, rows))
    c0 = n - c1
    if c0 == 0 or c1 == 0:  # also every node of fewer than two rows
        return None
    parent = imp(c0, c1)
    best, best_gain = None, 0.0
    for feature, (values, keys) in enumerate(scans):
        counts = Counter(map(keys.__getitem__, rows))
        ranks = sorted({key >> 1 for key in counts})
        if ranks[-1] == len(values):
            ranks.pop()  # NaN rows: counted in n, never left of a cut
        n_left = l1 = 0
        for rank, upper in zip(ranks, ranks[1:]):
            ones = counts[2 * rank + 1]
            n_left += counts[2 * rank] + ones
            l1 += ones
            l0 = n_left - l1
            gain = parent - ((n_left / n) * imp(l0, l1)
                             + ((n - n_left) / n) * imp(c0 - l0, c1 - l1))
            if gain > best_gain:  # strict -> lowest feature, then threshold, on ties
                best, best_gain = (feature, (values[rank] + values[upper]) / 2.0, gain), gain
    return best


def best_split(samples_at_node: Sequence,
               criterion: str = "gini") -> Optional[tuple[int, float, float]]:
    """Scan every feature of the node's samples for the best split.

    Returns (feature_index, threshold, impurity_decrease) maximizing the
    weighted impurity decrease, or None when no candidate strictly
    decreases impurity.
    """
    _, scans, y = _columns(samples_at_node)
    return _best_split(scans, y, list(range(len(y))), _impurity_of(criterion))


def train_tree(train_samples: Sequence, config: TreeConfig = TreeConfig()) -> TreeModel:
    """Grow a tree best-first until the leaf budget or gain is exhausted.

    The frontier is ordered by gain * node_size (largest first); expanding a
    leaf replaces it in place and appends its two children, so node ids
    record creation order.
    """
    columns, scans, y = _columns(train_samples)
    imp = _impurity_of(config.criterion)
    nodes: list = []
    frontier: list = []  # (-priority, node_id, feature, threshold, gain, rows)

    def leaf_for(rows: list) -> Leaf:
        c1 = sum(map(y.__getitem__, rows))
        return Leaf(label=1 if 2 * c1 > len(rows) else 0, counts=(len(rows) - c1, c1))

    def enqueue(node_id: int, rows: list) -> None:
        found = _best_split(scans, y, rows, imp)
        if found is not None:
            feature, threshold, gain = found
            heapq.heappush(frontier, (-gain * len(rows), node_id, feature, threshold, gain, rows))

    root_rows = list(range(len(y)))
    nodes.append(leaf_for(root_rows))
    n_leaves = 1
    if config.max_leaf_nodes >= 2:
        enqueue(0, root_rows)

    while frontier and n_leaves < config.max_leaf_nodes:
        _, node_id, feature, threshold, gain, rows = heapq.heappop(frontier)
        column = columns[feature]  # left iff value <= threshold, as TreeModel routes
        left_rows = [i for i in rows if column[i] <= threshold]
        right_rows = [i for i in rows if not column[i] <= threshold]
        left_id, right_id = len(nodes), len(nodes) + 1
        nodes += [leaf_for(left_rows), leaf_for(right_rows)]
        nodes[node_id] = Split(feature=feature, threshold=threshold, left=left_id, right=right_id,
                               impurity=imp(*nodes[node_id].counts), n=len(rows))
        n_leaves += 1
        enqueue(left_id, left_rows)
        enqueue(right_id, right_rows)

    return TreeModel(config=config, nodes=nodes, n_features=len(columns))
