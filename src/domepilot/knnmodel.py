"""A k-nearest-neighbors model: its stored rows, checks and JSON document.

k-NN is a lazy learner, so training only stores the labeled rows, here as
tuples of floats, and nothing in this module imports numpy: ``train --model
knn`` without standardization never loads it. The exact distance kernel is
in ``domepilot.knn``; a trained model builds it on its first prediction,
a loaded one at load from one array of the rows. Standardization computes
its stats with numpy and builds the kernel with the model, since an
overflowing z-score shows only there.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .weather import FEATURE_NAMES, PathOrStream, _integer, _named, _number

SCALINGS = ("none", "standardize")

#: Version of the JSON model document this build reads and writes.
FORMAT_VERSION = 1


def default_k(n: int) -> int:
    """floor(sqrt(n)), decremented to odd so binary votes cannot tie."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = math.isqrt(n)
    if k % 2 == 0:
        k -= 1
    return max(k, 1)


class KnnModel:
    """n rows of d features as float tuples, their 0/1 labels and the vote size k."""
    kind = "knn"  # its --model name and key of cli.SPLITS
    _ahead = None  # (rows expected next, their lazy votes), set by expect

    def __init__(self, features: Sequence[Sequence[float]], labels: Sequence[int], k: int,
                 scaling: str, means: Optional[Sequence[float]] = None,
                 stds: Optional[Sequence[float]] = None):
        self.features = tuple(tuple(map(float, row)) for row in features)
        labels = tuple(labels)
        widths = {len(row) for row in self.features}
        if len(widths) > 1:
            raise ValueError("feature rows must share one length")
        if not widths or len(self.features) != len(labels):
            raise ValueError("features and labels must align")
        if not all(label in (0, 1) for label in labels):
            raise ValueError("labels must be binary 0/1")
        self.labels = tuple(map(int, labels))
        if not all(map(math.isfinite, chain.from_iterable(self.features))):
            raise ValueError("features must be finite")
        self._settle(k, scaling, means, stds, len(labels), widths.pop())
        if self.scaling == "standardize":
            # A z-score can overflow to infinity; building the kernel rejects that.
            self._build_kernel()

    def _settle(self, k: int, scaling: str, means, stds, n: int, d: int) -> None:
        """Check and set k, the scaling and its stats, for n rows of d features."""
        self.k, self.scaling, self.means, self.stds, self.n_features = k, scaling, means, stds, d
        self._kernel = None  # built on first use, or at load or by standardize
        _integer(k, "k")
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        if scaling not in SCALINGS:
            raise ValueError(f"scaling must be one of {SCALINGS}, got {scaling!r}")
        if scaling == "standardize":
            if means is None or stds is None:
                raise ValueError("standardize scaling requires means and stds")
            self.means = tuple(_number(v, f"means[{j}]") for j, v in enumerate(means))
            self.stds = tuple(_number(v, f"stds[{j}]", nonnegative=True)
                              for j, v in enumerate(stds))
            for name, stat in (("means", self.means), ("stds", self.stds)):
                if len(stat) != d:
                    raise ValueError(f"{name} must hold one value per feature "
                                     f"({d}), got {len(stat)}")

    @cached_property
    def features(self) -> tuple:
        """A loaded model's rows, made from its kernel's raw rows on first read."""
        return tuple(map(tuple, self._kernel.data[:, :-1].tolist()))

    @cached_property
    def labels(self) -> tuple:
        return tuple(self._kernel.labels.tolist())

    def _build_kernel(self, rows: Optional[list] = None):
        from .knn import Kernel  # numpy
        self._kernel = Kernel(self, rows or [(*f, y) for f, y in zip(self.features, self.labels)])
        return self._kernel

    def predict(self, query: Sequence[float]) -> int:
        """Majority label among the k nearest, ties on distance by lower index.

        An exact vote tie (possible only with an even k) predicts 0. A NaN or
        infinite query feature, or a query of another arity, raises
        ValueError. See ``knn.Kernel.vote`` for the selection.

        After ``expect``, a tuple equal to the next expected row takes its vote
        from there; any other query, or a fault there, drops the lookahead.
        """
        ahead = self._ahead
        if ahead is not None:
            self._ahead = None
            if type(query) is tuple and next(ahead[0], None) == query:
                label = next(ahead[1])  # a fault leaves the lookahead dropped
                self._ahead = ahead
                return label
        return (self._kernel or self._build_kernel()).vote(query)

    def expect(self, rows: Sequence[tuple[float, ...]]) -> None:
        """Let ``predict`` answer these rows, asked next and in order, from the
        lazy ``predict_many(rows)``, whose one product screens a block of them."""
        self._ahead = (iter(rows), self.predict_many(rows))

    def predict_many(self, rows: Sequence[Sequence[float]]) -> Iterator[int]:
        """``predict`` of each row, lazily; see ``knn.Kernel.votes``."""
        return (self._kernel or self._build_kernel()).votes(rows)

    def to_dict(self) -> dict:
        doc = {"version": FORMAT_VERSION, "kind": "knn", "k": self.k,
               "scaling": self.scaling,
               "data": [[*row, label] for row, label in zip(self.features, self.labels)]}
        if self.scaling == "standardize":
            doc["stats"] = {"means": list(self.means), "stds": list(self.stds)}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "KnnModel":
        version = _integer(doc.get("version"), "version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported knn model version {version!r}; "
                             f"this build reads version {FORMAT_VERSION}")
        rows = doc["data"]
        if not (isinstance(rows, list) and rows
                and all(isinstance(row, list) and len(row) >= 2 for row in rows)):
            raise ValueError("knn model data must be rows of features plus a label")
        stats = doc.get("stats") or {}
        means, stds = stats.get("means"), stats.get("stds")
        if not all(stat is None or isinstance(stat, list) for stat in (means, stds)):
            raise ValueError("knn model stats must be lists of numbers")
        # One pass over the types of every cell; only a bad one costs a second.
        if not {*map(type, chain.from_iterable(rows))} <= {int, float}:
            _check_cells(rows)
        labels = [*map(itemgetter(-1), rows)]
        if not {*map(type, labels)} <= {int}:  # one pass; only a bad label costs a second
            labels = [_integer(label, f"data row {i}: label") for i, label in enumerate(labels)]
        model = cls.__new__(cls)
        try:  # one array pass checks every row; only a refused document is searched below
            model._settle(doc["k"], doc["scaling"], means, stds, len(rows), len(rows[0]) - 1)
            model._build_kernel(rows)
        except (ValueError, OverflowError):
            _check_cells(rows)  # a non-finite or too large number is named first
            if len({*map(len, rows)}) > 1:
                raise ValueError("feature rows must share one length") from None
            if not {*labels} <= {0, 1}:
                raise ValueError("labels must be binary 0/1") from None
            raise
        return model


def _check_cells(rows: list) -> None:
    """Raise ValueError naming the first feature cell that is no finite JSON number."""
    for i, row in enumerate(rows):
        for j, value in enumerate(row[:-1]):
            _number(value, f"data row {i}: feature {j}")


def train_knn(samples: Sequence, k: int, scaling: str = "none",
              source: Optional[PathOrStream] = None) -> KnnModel:
    """Store the rows as they are, for KnnModel to check; compute scaling stats if requested.
    A column whose std overflows is named after ``source``, the file the rows came from."""
    if len(samples) == 0:
        raise ValueError("empty training set")
    features, labels = [f for f, _ in samples], [y for _, y in samples]
    means = stds = None
    if scaling == "standardize":
        from .knn import standardize_stats  # numpy
        means, stds = standardize_stats(features)
        for name, std in zip(FEATURE_NAMES, stds):  # a column spread past a float's range
            _number(std, _named(source, f"standardizing {name}: its standard deviation"))
    return KnnModel(features, labels, k, scaling, means, stds)
