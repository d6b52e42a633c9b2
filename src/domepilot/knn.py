"""From-scratch k-nearest-neighbors with the square-root-of-n default k.

A lazy learner: training stores the data verbatim. Prediction is exact and
takes one query at a time: it computes the squared distance to every
training row, finds the k-th smallest with a partition, counts the labels of
the rows strictly closer and fills the remaining slots from the rows at
exactly the k-th distance, lowest training index first. That is the vote of
the k nearest ordered by (distance, training index), so ties resolve toward
the earlier training row, without sorting the distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tree import _as_arrays

SCALINGS = ("none", "standardize")

FORMAT_VERSION = 1


def default_k(n: int) -> int:
    """floor(sqrt(n)), decremented to odd so binary votes cannot tie."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = math.isqrt(n)
    if k % 2 == 0:
        k -= 1
    return max(k, 1)


def _standardize(values: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Z-score features; zero-variance features collapse to 0 on both sides."""
    safe = np.where(stds > 0, stds, 1.0)
    z = (values - means) / safe
    return np.where(stds > 0, z, 0.0)


@dataclass
class KnnModel:
    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,) of {0,1}
    k: int
    scaling: str
    means: Optional[np.ndarray] = None
    stds: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if self.features.ndim != 2 or self.features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels must align")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be binary 0/1")
        self.labels = labels.astype(np.int64)
        if not 1 <= self.k <= self.labels.size:
            raise ValueError(f"k must be in [1, {self.labels.size}], got {self.k}")
        if self.scaling not in SCALINGS:
            raise ValueError(f"scaling must be one of {SCALINGS}, got {self.scaling!r}")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        if self.scaling == "standardize":
            if self.means is None or self.stds is None:
                raise ValueError("standardize scaling requires means and stds")
            self.means = np.asarray(self.means, dtype=float)
            self.stds = np.asarray(self.stds, dtype=float)
            for name, stat in (("means", self.means), ("stds", self.stds)):
                if stat.shape != (self.n_features,):
                    raise ValueError(f"{name} must hold one value per feature "
                                     f"({self.n_features}), got shape {stat.shape}")
                if not np.isfinite(stat).all():
                    raise ValueError(f"{name} must be finite")
            if (self.stds < 0).any():
                raise ValueError("stds must be >= 0")
        # (d, n): one contiguous column per feature for the distance kernel.
        self._columns = np.ascontiguousarray(self._transform(self.features).T)
        # An infinite z-score could meet another and make a NaN distance,
        # which the partition selection would silently leave out of the vote.
        if not np.isfinite(self._columns).all():
            raise ValueError("standardized features overflow; stds too small")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def _transform(self, values: np.ndarray) -> np.ndarray:
        if self.scaling == "none":
            return np.asarray(values, dtype=float)
        return _standardize(np.asarray(values, dtype=float), self.means, self.stds)

    def predict(self, query: Sequence[float]) -> int:
        """Majority label among the k nearest, ties on distance by lower index.

        np.partition finds the k-th smallest squared distance; every row
        strictly closer votes, and the remaining slots go to the rows at
        exactly that distance in training-index order. An exact vote tie
        (possible only with an even k) predicts 0. A NaN or infinite query
        feature raises ValueError.
        """
        q = np.asarray(tuple(float(v) for v in query))
        if q.size != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {q.size}")
        if not np.isfinite(q).all():
            raise ValueError(f"query features must be finite, got {q.tolist()}")
        sq = _squared_distances(self._transform(q), self._columns)
        kth = np.partition(sq, self.k - 1)[self.k - 1]
        closer = sq < kth
        ties = np.flatnonzero(sq == kth)[:self.k - np.count_nonzero(closer)]
        ones = self.labels[closer].sum() + self.labels[ties].sum()
        return int(ones * 2 > self.k)

    def to_dict(self) -> dict:
        doc = {"version": FORMAT_VERSION, "kind": "knn", "k": self.k,
               "scaling": self.scaling,
               "data": [[*map(float, row), int(label)]
                        for row, label in zip(self.features, self.labels)]}
        if self.scaling == "standardize":
            doc["stats"] = {"means": [float(v) for v in self.means],
                            "stds": [float(v) for v in self.stds]}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "KnnModel":
        version = doc.get("version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported knn model version {version!r}; "
                             f"this build reads version {FORMAT_VERSION}")
        rows = np.asarray(doc["data"], dtype=float)
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise ValueError("knn model data must be rows of features plus a label")
        stats = doc.get("stats") or {}
        return cls(features=rows[:, :-1], labels=rows[:, -1],
                   k=int(doc["k"]), scaling=doc["scaling"],
                   means=stats.get("means"), stds=stats.get("stds"))


def train_knn(samples: Sequence, k: int, scaling: str = "none") -> KnnModel:
    """Store the training set verbatim; compute scaling stats if requested."""
    X, y = _as_arrays(samples)
    if not 1 <= k <= X.shape[0]:
        raise ValueError(f"k must be in [1, {X.shape[0]}], got {k}")
    means = stds = None
    if scaling == "standardize":
        means = X.mean(axis=0)
        stds = X.std(axis=0)
    return KnnModel(features=X, labels=y, k=k,
                    scaling=scaling, means=means, stds=stds)


def _squared_distances(q: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(n,) squared Euclidean distances from q to each point of (d, n) columns.

    Accumulated feature by feature in a fixed order, so equal distances
    compare equal and ties are reproducible.
    """
    out = np.zeros(columns.shape[1])
    diff = np.empty_like(out)
    for value, column in zip(q, columns):
        np.subtract(value, column, out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return out


def distance(a: Sequence[float], b: Sequence[float], scaling: str = "none",
             stats: Optional[tuple[np.ndarray, np.ndarray]] = None) -> float:
    """Euclidean distance over (optionally standardized) coordinates."""
    va = np.asarray(tuple(float(v) for v in a))
    vb = np.asarray(tuple(float(v) for v in b))
    if va.shape != vb.shape:
        raise ValueError(f"arity mismatch: {va.shape[0]} vs {vb.shape[0]}")
    if scaling not in SCALINGS:
        raise ValueError(f"scaling must be one of {SCALINGS}, got {scaling!r}")
    if scaling == "standardize":
        if stats is None:
            raise ValueError("standardize scaling requires (means, stds) stats")
        means = np.asarray(stats[0], dtype=float)
        stds = np.asarray(stats[1], dtype=float)
        va = _standardize(va, means, stds)
        vb = _standardize(vb, means, stds)
    return float(np.sqrt(_squared_distances(va, vb[:, None])[0]))
