"""A trained decision tree: its nodes, routing and JSON document.

Nothing here imports numpy. Growing a tree is in ``domepilot.tree``, which
needs no numpy either but is imported only by ``train``, so loading a tree
and predicting with it, as ``evaluate``, ``predict`` and ``simulate`` do,
never compile the grower.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

CRITERIA = ("gini", "entropy")

#: Version of the JSON model document this build reads and writes.
FORMAT_VERSION = 2


@dataclass(frozen=True)
class TreeConfig:
    criterion: str = "gini"
    max_leaf_nodes: int = 50
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")
        if self.max_leaf_nodes < 1:
            raise ValueError(f"max_leaf_nodes must be >= 1, got {self.max_leaf_nodes}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


@dataclass
class Split:
    """Internal node: go left iff feature value <= threshold."""

    feature: int
    threshold: float
    left: int
    right: int
    impurity: float
    n: int


@dataclass
class Leaf:
    """Terminal node predicting its training majority (tie -> class 0)."""

    label: int
    counts: tuple[int, int]  # (n class 0, n class 1)


@dataclass
class TreeModel:
    """Trained tree: a node array rooted at index 0."""

    config: TreeConfig
    nodes: list
    n_features: int

    def predict(self, features: Sequence[float]) -> int:
        """Route from the root (left iff value <= threshold) to a leaf class."""
        x = tuple(map(float, features))
        if len(x) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(x)}")
        node = self.nodes[0]
        while isinstance(node, Split):
            node = self.nodes[node.left if x[node.feature] <= node.threshold else node.right]
        return node.label

    @property
    def leaf_count(self) -> int:
        return sum(isinstance(node, Leaf) for node in self.nodes)

    def to_dict(self) -> dict:
        nodes = [{"id": i, "type": "split" if isinstance(node, Split) else "leaf",
                  **asdict(node)} for i, node in enumerate(self.nodes)]
        return {"version": FORMAT_VERSION, "kind": "tree",
                "config": asdict(self.config), "n_features": self.n_features,
                "nodes": nodes}

    @classmethod
    def from_dict(cls, doc: dict) -> "TreeModel":
        version = doc.get("version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported tree model version {version!r}; "
                             f"this build reads version {FORMAT_VERSION}")
        n_features = int(doc["n_features"])
        nodes: list = [None] * len(doc["nodes"])
        for rec in doc["nodes"]:
            i = int(rec["id"])
            if not 0 <= i < len(nodes):
                raise ValueError(f"tree node id {i} out of range")
            if rec["type"] == "split":
                node = Split(feature=int(rec["feature"]), threshold=float(rec["threshold"]),
                             left=int(rec["left"]), right=int(rec["right"]),
                             impurity=float(rec["impurity"]), n=int(rec["n"]))
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
                if rec["label"] != node.label:
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
