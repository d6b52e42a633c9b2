"""Binary CART-style decision tree, its JSON document and best-first growth.

Growth keeps a priority queue of splittable leaves keyed by size-weighted
impurity decrease and expands the best one until the leaf budget is reached
or no leaf has a strictly positive gain. Everything is deterministic: equal
gains tie-break on (feature index, threshold), equal priorities on node
creation order.

Growth is plain Python: one float list per feature, and a node counts its
rows per (distinct value, label) of a feature, then walks the sorted values
(whole degrees, percents and millibars: few per node) with running class
counts. Neither growth nor routing imports numpy.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import repeat
from math import log2
from operator import add
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .weather import _integer, _number

CRITERIA = ("gini", "entropy")

#: Version of the JSON model document this build reads and writes.
FORMAT_VERSION = 3


class _TreeConfig(NamedTuple):
    criterion: str
    max_leaf_nodes: int


class TreeConfig(_TreeConfig):
    """Growth settings; a tuple whose construction and unpickling check them."""

    __slots__ = ()

    def __new__(cls, criterion: str = "gini", max_leaf_nodes: int = 50):
        _impurity_of(criterion)  # raises on an unknown criterion
        _integer(max_leaf_nodes, "max_leaf_nodes")
        if max_leaf_nodes < 1:
            raise ValueError(f"max_leaf_nodes must be >= 1, got {max_leaf_nodes}")
        return tuple.__new__(cls, (criterion, max_leaf_nodes))


# Both node kinds are slotted objects, not tuples: routing reads three Split
# attributes at every level and a Leaf's label at the end, and slots read
# faster than tuple fields.


class Split:
    """Internal node: go left iff feature value <= threshold."""

    __slots__ = ("feature", "threshold", "left", "right", "impurity", "n")

    def __init__(self, feature: int, threshold: float, left: int, right: int,
                 impurity: float, n: int):
        self.feature, self.threshold, self.left, self.right = feature, threshold, left, right
        self.impurity, self.n = impurity, n


class Leaf:
    """Terminal node predicting its training majority (tie -> class 0)."""

    __slots__ = ("label", "counts")

    def __init__(self, label: int, counts: tuple[int, int]):
        self.label, self.counts = label, counts  # counts: (n class 0, n class 1)

    def __eq__(self, other):
        if type(other) is not Leaf:
            return NotImplemented
        return (self.label, self.counts) == (other.label, other.counts)


class TreeModel:
    """Trained tree: a node array rooted at index 0."""
    kind = "dt"  # its --model name and key of cli.SPLITS

    def __init__(self, config: TreeConfig, nodes: list, n_features: int):
        self.config, self.nodes, self.n_features = config, nodes, n_features

    def predict(self, features: Sequence[float]) -> int:
        """Route from the root (left iff value <= threshold) to a leaf class."""
        x = tuple(map(float, features))
        if len(x) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(x)}")
        nodes = self.nodes
        node = nodes[0]
        while isinstance(node, Split):
            node = nodes[node.left if x[node.feature] <= node.threshold else node.right]
        return node.label

    def predict_many(self, rows: Iterable[Sequence[float]]) -> Iterator[int]:
        """``self.predict`` of each row, lazily: a wrapper set on the instance sees each."""
        return map(self.predict, rows)

    @property
    def leaf_count(self) -> int:
        return sum(isinstance(node, Leaf) for node in self.nodes)

    def to_dict(self) -> dict:
        nodes = [{"id": i, "type": "split" if isinstance(node, Split) else "leaf",
                  **{key: getattr(node, key) for key in node.__slots__}}
                 for i, node in enumerate(self.nodes)]
        return {"version": FORMAT_VERSION, "kind": "tree",
                "config": self.config._asdict(), "n_features": self.n_features,
                "nodes": nodes}

    @classmethod
    def from_dict(cls, doc: dict) -> "TreeModel":
        version = _integer(doc.get("version"), "version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported tree model version {version!r}; "
                             f"this build reads version {FORMAT_VERSION}")
        n_features = _integer(doc["n_features"], "n_features")
        nodes: list = [None] * len(doc["nodes"])
        for rec in doc["nodes"]:
            i = _integer(rec["id"], "tree node id")
            if not 0 <= i < len(nodes):
                raise ValueError(f"tree node id {i} out of range")
            if rec["type"] == "split":
                node = Split(threshold=_number(rec["threshold"], f"tree node {i}: threshold"),
                             impurity=_number(rec["impurity"], f"tree node {i}: impurity",
                                              nonnegative=True),
                             **{key: _integer(rec[key], f"tree node {i}: {key}")
                                for key in ("feature", "left", "right", "n")})
                # Children are created after their parent, so ids only grow
                # along a path: no cycles, and routing always ends in a leaf.
                if not (i < node.left < len(nodes) and i < node.right < len(nodes)):
                    raise ValueError(f"tree node {i}: child ids must lie in "
                                     f"({i}, {len(nodes)})")
                if not 0 <= node.feature < n_features:
                    raise ValueError(f"tree node {i}: feature {node.feature} is not "
                                     f"below n_features {n_features}")
            else:
                counts = tuple(rec["counts"])
                if len(counts) != 2 or not all(type(c) is int and c >= 0 for c in counts):
                    raise ValueError(f"tree node {i}: counts must be two non-negative "
                                     f"integers, got {rec['counts']!r}")
                node = Leaf(label=1 if counts[1] > counts[0] else 0, counts=counts)
                if _integer(rec["label"], f"tree node {i}: label") != node.label:
                    raise ValueError(f"tree node {i}: label {rec['label']!r} is not the "
                                     f"majority {node.label} of its counts {list(counts)}")
            nodes[i] = node
        if not nodes or any(n is None for n in nodes):
            raise ValueError("tree model document has missing node ids")
        children = [c for n in nodes if isinstance(n, Split) for c in (n.left, n.right)]
        if sorted(children) != list(range(1, len(nodes))):
            raise ValueError("tree model document is not a tree: every node but "
                             "the root must be the child of exactly one split")
        return cls(config=TreeConfig(**doc["config"]), nodes=nodes, n_features=n_features)


def _gini(n0: int, n1: int) -> float:
    p0, p1 = n0 / (n0 + n1), n1 / (n0 + n1)
    return 1.0 - p0 * p0 - p1 * p1


def _entropy(n0: int, n1: int) -> float:
    p0, p1 = n0 / (n0 + n1), n1 / (n0 + n1)
    return -(p0 * (log2(p0) if p0 > 0 else 0.0) + p1 * (log2(p1) if p1 > 0 else 0.0))


def _impurity_of(criterion: str):
    """The impurity function (class counts -> float) of ``criterion``."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    return _gini if criterion == "gini" else _entropy


def impurity(class_counts: tuple[int, int], criterion: str = "gini") -> float:
    """Gini (1 - p0^2 - p1^2) or entropy (-sum p log2 p, 0*log0 = 0)."""
    imp = _impurity_of(criterion)
    n0, n1 = class_counts
    if n0 < 0 or n1 < 0 or n0 + n1 < 1:
        raise ValueError(f"class counts must be nonnegative and nonempty, got {class_counts}")
    return float(imp(n0, n1))


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
