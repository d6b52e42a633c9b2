"""Exact k-nearest-neighbors prediction with numpy, one query at a time.

The model (stored rows, checks, JSON document, training and the
square-root-of-n default k) is in ``domepilot.knnmodel``, which needs no
numpy. ``Kernel`` holds a model's rows as contiguous numpy columns and
votes: it computes the squared distance to every training row, finds the
k-th smallest with a partition, counts the labels of the rows strictly
closer and fills the remaining slots from the rows at exactly the k-th
distance, lowest training index first. That is the vote of the k nearest
ordered by (distance, training index), so ties resolve toward the earlier
training row, without sorting the distances.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .knnmodel import KnnModel


def _standardize(values: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Z-score features; zero-variance features collapse to 0 on both sides."""
    safe = np.where(stds > 0, stds, 1.0)
    z = (values - means) / safe
    return np.where(stds > 0, z, 0.0)


def standardize_stats(features: Sequence[Sequence[float]]) -> tuple[list, list]:
    """Per-feature means and population standard deviations of the rows."""
    X = np.array(features, dtype=float)
    return X.mean(axis=0).tolist(), X.std(axis=0).tolist()


class Kernel:
    """A model's rows as one contiguous column per feature, and its vote."""

    def __init__(self, model: KnnModel):
        self.k = model.k
        self.labels = np.array(model.labels, dtype=np.int64)
        self.stats = None
        if model.scaling == "standardize":
            self.stats = (np.array(model.means, dtype=float), np.array(model.stds, dtype=float))
        # (d, n): one contiguous column per feature for the distance kernel.
        self.columns = np.ascontiguousarray(
            self._transform(np.array(model.features, dtype=float)).T)
        # An infinite z-score could meet another and make a NaN distance,
        # which the partition selection would silently leave out of the vote.
        if not np.isfinite(self.columns).all():
            raise ValueError("standardized features overflow; stds too small")

    def _transform(self, values: np.ndarray) -> np.ndarray:
        return values if self.stats is None else _standardize(values, *self.stats)

    def vote(self, query: Sequence[float]) -> int:
        """np.partition finds the k-th smallest squared distance; every row
        strictly closer votes, and the remaining slots go to the rows at
        exactly that distance in training-index order."""
        q = np.asarray(tuple(float(v) for v in query))
        if q.size != self.columns.shape[0]:
            raise ValueError(f"expected {self.columns.shape[0]} features, got {q.size}")
        if not np.isfinite(q).all():
            raise ValueError(f"query features must be finite, got {q.tolist()}")
        sq = _squared_distances(self._transform(q), self.columns)
        kth = np.partition(sq, self.k - 1)[self.k - 1]
        closer = sq < kth
        ties = np.flatnonzero(sq == kth)[:self.k - np.count_nonzero(closer)]
        ones = self.labels[closer].sum() + self.labels[ties].sum()
        return int(ones * 2 > self.k)


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

