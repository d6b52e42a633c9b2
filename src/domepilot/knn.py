"""Exact k-nearest-neighbors prediction with numpy, one query at a time.

The model (stored rows, checks, JSON document, training and the
square-root-of-n default k) is in ``domepilot.knnmodel``, which needs no
numpy. ``Kernel`` holds a model's rows as contiguous numpy columns and
votes in two steps. A screen (one BLAS matrix-vector product) rules out the
rows that cannot be among the k nearest under a bound on its rounding
error. If more than k rows survive, they get their exact squared distances,
still in training-index order, and a stable sort picks the k nearest by
(distance, training index), so ties resolve toward the earlier training row.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .knnmodel import KnnModel

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).smallest_subnormal)


def _standardize(values: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Z-score features; zero-variance features collapse to 0 on both sides.
    A z-score that overflows comes back infinite, for the caller to reject."""
    safe = np.where(stds > 0, stds, 1.0)
    with np.errstate(over="ignore"):
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
        rows = self._transform(np.array(model.features, dtype=float))
        # An infinite z-score could meet another and make a NaN distance,
        # which would sort after every number and silently miss the vote.
        if not np.isfinite(rows).all():
            raise ValueError("standardized features overflow; stds too small")
        n, d = rows.shape
        # (n, d+1), column-major: rows [x, |x|²] for the screen's gemv. Its
        # first d columns, each contiguous, are the (d, n) feature columns.
        self.screen = np.empty((n, d + 1), order="F")
        self.screen[:, :d] = rows
        self.screen[:, d] = np.einsum("ij,ij->i", rows, rows)
        self.columns = self.screen.T[:d]
        self.max_norm = float(self.screen[:, d].max())

    def _transform(self, values: np.ndarray) -> np.ndarray:
        return values if self.stats is None else _standardize(values, *self.stats)

    def vote(self, query: Sequence[float]) -> int:
        """Majority label of the k rows nearest ``query`` by (distance, index).

        Screen: one gemv gives ``a_i = |x_i|² - 2 x_i·q`` for every row, the
        squared distance less the constant ``|q|²``. Let ``a_k`` be the k-th
        smallest. Rows with ``a_i > a_k + 2E`` are ruled out, where
        ``E = 16 (d+2) eps S + 64 (d+2) tiny`` with ``S = |q|² + max |x|²``.

        Why this is exact. Let ``T_i`` be the true squared distance and
        ``D_i`` the squared distance this kernel computes feature by
        feature. ``a_i + |q|²`` is a dot product of d+1 terms plus a rounded
        norm, and ``D_i`` a sum of d rounded squares; whatever order or
        threading BLAS sums in, each differs from ``T_i`` by at most
        ``2 (d+2) eps (|x_i|² + |q|²)`` plus ``(d+1) tiny`` for underflow,
        so ``E`` bounds the two errors together with a margin of four:
        ``|D_i - |q|² - a_i| <= E``. The k rows with the smallest ``a``
        therefore have ``D - |q|² <= a_k + E``, so the k-th smallest D is at
        most ``|q|² + a_k + E``, and every row with D at or below it has
        ``a <= a_k + 2E``: no row of the k nearest is ruled out. The bound
        needs every ``a_i`` and ``D_i`` finite, which holds when ``4 S`` is;
        otherwise (a norm or a distance overflows) the cutoff is infinite.
        The test ``~(a > cutoff)`` keeps a row whose ``a`` is NaN, so then
        every row survives and the same vote runs on all of them. A
        standardized query for which ``4 S`` overflows raises ValueError
        instead: its z-scores come from stds too small to trust, and all its
        distances could overflow, leaving the vote to training order.

        Vote: every row with ``a <= a_k`` survives, so at least k do, and
        if exactly k survive they are the k nearest. Otherwise the
        survivors, still in training-index order, get their exact squared
        distances, and a stable argsort cut to k gives the (distance, index)
        order. An exact vote tie (even k) predicts 0.
        """
        values = tuple(map(float, query))
        d = self.columns.shape[0]
        if len(values) != d:
            raise ValueError(f"expected {d} features, got {len(values)}")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"query features must be finite, got {list(values)}")
        q = self._transform(np.array(values))
        # Only standardizing can blow a finite query up so far that its
        # distances may overflow; the vote would then be arbitrary.
        if self.stats is not None:
            with np.errstate(over="ignore"):
                if not 4 * (float(q @ q) + self.max_norm) < math.inf:
                    raise ValueError("standardized query overflows; stds too small")
        a = self.screen @ np.append(-2.0 * q, 1.0)
        a_k = np.partition(a, self.k - 1)[self.k - 1]
        spread = float(q @ q) + self.max_norm
        bound = 16 * (d + 2) * EPS * spread + 64 * (d + 2) * TINY
        cutoff = a_k + 2 * bound if 4 * spread < math.inf else math.inf
        near = np.flatnonzero(~(a > cutoff))
        if near.size > self.k:
            sq = _squared_distances(q, self.columns[:, near])
            near = near[np.argsort(sq, kind="stable")[:self.k]]
        return int(self.labels[near].sum() * 2 > self.k)


def _squared_distances(q: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(n,) squared Euclidean distances from q to each point of (d, n) columns.

    Accumulated feature by feature in a fixed order, so equal distances
    compare equal and ties are reproducible. (``np.add.reduce`` over the
    features would not do: for a single column it sums in another order.)
    """
    squares = q[:, None] - columns
    squares *= squares
    out = squares[0]
    for square in squares[1:]:
        out += square
    return out
