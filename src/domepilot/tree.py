"""Binary CART-style decision tree: its nodes, routing, impurity and JSON document.

Growing a tree is in ``domepilot.grow``, which only ``train --model dt``
loads; ``evaluate``, ``simulate`` and ``predict`` route through a loaded
tree with this module alone. Routing does not import numpy.
"""

from __future__ import annotations

from collections import namedtuple
from math import log2
from typing import Iterable, Iterator, Sequence

from .weather import _integer, _number

CRITERIA = ("gini", "entropy")

#: Version of the JSON model document this build reads and writes.
FORMAT_VERSION = 3


class TreeConfig(namedtuple("TreeConfig", "criterion max_leaf_nodes")):
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
            if (kind := rec["type"]) not in ("split", "leaf"):
                raise ValueError(f"tree node {i}: type must be 'split' or 'leaf', got {kind!r}")
            if kind == "split":
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
