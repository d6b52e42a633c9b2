"""Exact k-nearest-neighbors prediction with numpy, per query or in blocks.

The model (stored rows, checks, JSON document, training and the
square-root-of-n default k) is in ``domepilot.knnmodel``, which needs no
numpy. ``Kernel`` holds a model's rows as contiguous numpy columns and
votes in two steps. A screen (a BLAS product per query or block of queries)
rules out the rows that cannot be among the k nearest under a bound on its
rounding error. If more than k rows survive, they get their exact squared
distances, in training-index order, and a stable sort picks the k nearest by
(distance, training index), so ties resolve toward the earlier training row.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .knnmodel import KnnModel

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).smallest_subnormal)

#: The vote samples every stride-th row, stride = n // (SAMPLE_PER_K k), if
#: stride >= MIN_STRIDE. In-process on a shared 2-core Linux machine, sampling
#: saved ~12 µs of a ~70 µs vote at n = 13,707 (stride 14), broke even at
#: n = 5,472 (stride 9) and cost ~2 µs at n = 2,745 (stride 6).
SAMPLE_PER_K = 8
MIN_STRIDE = 10

#: votes() screens BLOCK queries at once; the (BLOCK, n) product, ~0.9 MB at
#: n = 13,714, stays in L2. Pinned to one CPU of the machine above (k = 117,
#: 5,877 queries), a vote took 56 µs at 4 or 8, ~68 at 16 or 32, 79 one by one.
BLOCK = 8


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

    def __init__(self, model: KnnModel, data: Sequence[Sequence[float]]):
        self.k = model.k
        # Rows of d features then a label, kept raw for a loaded model's features.
        self.data = np.array(data, dtype=float)  # raises if ragged or an int overflows
        if not (np.isfinite(self.data).all() and np.isin(self.data[:, -1], (0, 1)).all()):
            raise ValueError("rows must be finite features and a 0/1 label")
        self.labels = self.data[:, -1].astype(np.int64)
        self.stats = None
        if model.scaling == "standardize":
            self.stats = (np.array(model.means, dtype=float), np.array(model.stds, dtype=float))
        rows = self._transform(self.data[:, :-1])
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
        # vote() refuses every standardized query when 4 max |x|² overflows.
        if self.stats is not None and not 4 * self.max_norm < math.inf:
            raise ValueError("standardized features overflow; stds too small")
        # vote() selects a_k through a sample when rank > 0; see its docstring.
        self.stride = n // (SAMPLE_PER_K * self.k)
        self.rank = -(-2 * self.k // self.stride) if self.stride >= MIN_STRIDE else 0

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
        needs every ``a_i`` and ``D_i`` finite, which holds when ``4 S`` is
        (then ``|a_i| <= 2 S``, so no ``a_i`` is NaN). Otherwise (a norm or
        a distance overflows) every row survives and the same vote runs on
        all of them. A standardized query for which ``4 S`` overflows
        raises ValueError instead: its z-scores come from stds too small to
        trust, and all its distances could overflow, leaving the vote to
        training order.

        Selecting ``a_k`` (after Floyd & Rivest, "Expected time bounds for
        selection", CACM 1975). When the stride ``n // (8k)`` is at least
        MIN_STRIDE, the vote first takes ``u``, the r-th smallest ``a`` of
        every stride-th row, with ``r = ceil(2k / stride)``; about 2k rows
        lie at or below it. It keeps the rows with ``a <= u + 2E``, in
        index order, and takes ``a_k`` as the k-th smallest kept value if
        that value is at most ``u``. Then k rows have ``a <= u``, so the
        true ``a_k <= u``: every row at or below ``a_k + 2E`` was kept, the
        k smallest among them, and the k-th smallest kept value is the true
        ``a_k``. The survivors are the kept rows with ``a <= a_k + 2E``, the
        same rows in the same order as one partition of all n values gives.
        If fewer than k rows were kept, or the k-th kept value exceeds
        ``u``, that one partition runs; a smaller model always takes it.

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
        if self.stats is None:
            qq = float(q @ q)
        else:
            with np.errstate(over="ignore"):
                qq = float(q @ q)
            # Only standardizing can blow a finite query up so far that its
            # distances may overflow; the vote would then be arbitrary.
            if not 4 * (qq + self.max_norm) < math.inf:
                raise ValueError("standardized query overflows; stds too small")
        v = np.empty(d + 1)
        np.multiply(q, -2.0, out=v[:d])
        v[d] = 1.0
        a = self.screen @ v
        u = _kth_smallest(a[::self.stride], self.rank) if self.rank else None
        return self._vote_screened(q, a, qq + self.max_norm, u)

    def votes(self, queries: Sequence[Sequence[float]]) -> Iterator[int]:
        """``vote`` of each query, lazily, screening BLOCK queries with one
        matrix product. Its values are dot products of d+1 terms, as the
        gemv's are, so ``vote``'s bound covers them: the votes are the same.
        A batch that is no (m, d) array of numbers, and a block holding a
        query that ``vote`` refuses or may refuse, go through ``vote``."""
        try:
            values = np.array(queries, dtype=float)  # float() of each cell, as vote
        except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
            values = np.empty(0)
        if values.shape != (len(queries), self.columns.shape[0]):  # all go to vote
            values = np.full((len(queries), self.columns.shape[0]), math.nan)
        with np.errstate(over="ignore"):  # an overflow refuses its query, quietly
            q = self._transform(values)
            spreads = np.einsum("ij,ij->i", q, q) + self.max_norm
            w = np.hstack([-2.0 * q, np.ones((len(q), 1))])
            # vote decides near its standardized overflow, where |q|² may round otherwise.
            refused = ~np.isfinite(values).all(axis=1) | (
                self.stats is not None) & ~(8 * spreads < math.inf)
        for start in range(0, len(q), BLOCK):
            rows = slice(start, start + BLOCK)
            if refused[rows].any():
                yield from map(self.vote, queries[rows])
                continue
            block = w[rows] @ self.screen.T
            u = (np.partition(block[:, ::self.stride], self.rank - 1, axis=1)[:, self.rank - 1]
                 .tolist() if self.rank else [None] * BLOCK)
            yield from map(self._vote_screened, q[rows], block, spreads[rows].tolist(), u)

    def _vote_screened(self, q: np.ndarray, a: np.ndarray, spread: float, u) -> int:
        """vote's tail: transformed query, screen values, S and sample bound (or None)."""
        if 4 * spread < math.inf:
            bound = 16 * (q.size + 2) * EPS * spread + 64 * (q.size + 2) * TINY
            near = self._survivors(a, 2 * bound, u)
        else:
            near = np.arange(a.size)
        if near.size > self.k:
            sq = _squared_distances(q, self.columns[:, near])
            near = near[np.argsort(sq, kind="stable")[:self.k]]
        return int(self.labels[near].sum() * 2 > self.k)

    def _survivors(self, a: np.ndarray, margin: float, u) -> np.ndarray:
        """Indices, in order, of the rows with ``a <= a_k + margin`` (see vote)."""
        k = self.k
        if u is not None:
            kept = (a <= u + margin).nonzero()[0]
            if kept.size >= k:
                b = a[kept]
                a_k = _kth_smallest(b, k)
                if a_k <= u:  # so the true a_k is at most u, and this is it
                    return kept[b <= a_k + margin]
        return (a <= _kth_smallest(a, k) + margin).nonzero()[0]


def _kth_smallest(values: np.ndarray, k: int) -> float:
    # The ndarray methods, here and in _survivors, skip numpy's Python wrappers.
    values = values.copy()
    values.partition(k - 1)
    return values[k - 1]


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
