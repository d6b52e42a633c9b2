"""Binary classification metrics: confusion matrix, accuracy, F1, MSE.

Class 1 (open) is the positive class of the confusion matrix. For binary
0/1 predictions MSE is the misclassification rate (fp + fn) / n, so
mse == 1 - accuracy up to floating-point rounding.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import Callable, Iterable, NamedTuple, Sequence

from .weather import _integer


class ConfusionMatrix(namedtuple("ConfusionMatrix", "tp tn fp fn")):
    """Counts of one binary evaluation; a tuple whose construction and
    unpickling check them."""

    __slots__ = ()

    def __new__(cls, tp: int, tn: int, fp: int, fn: int):
        for name, count in zip(cls._fields, (tp, tn, fp, fn)):
            _integer(count, name)  # not a float, a bool or a string
        if min(tp, tn, fp, fn) < 0:
            raise ValueError("confusion counts must be nonnegative")
        if tp + tn + fp + fn == 0:
            raise ValueError("empty confusion matrix")
        return tuple.__new__(cls, (tp, tn, fp, fn))

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def support(self, klass: int) -> int:
        """Number of true instances of a class."""
        return self.tp + self.fn if klass == 1 else self.tn + self.fp


def confusion(predictions: Sequence[int], labels: Sequence[int]) -> ConfusionMatrix:
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} predictions "
                         f"vs {len(labels)} labels")
    for pred, label in zip(predictions, labels):
        if pred not in (0, 1) or label not in (0, 1):
            raise ValueError(f"values must be 0/1, got pred={pred!r} label={label!r}")
    # Counter keys compare by value, so True and 1.0 count as 1.
    counts = Counter(zip(predictions, labels))
    return ConfusionMatrix(tp=counts[1, 1], tn=counts[0, 0], fp=counts[1, 0], fn=counts[0, 1])


def accuracy(matrix: ConfusionMatrix) -> float:
    return (matrix.tp + matrix.tn) / matrix.total


def f1(matrix: ConfusionMatrix, positive_class: int = 1) -> float:
    """Harmonic mean of precision and recall; 0 when both are undefined."""
    if positive_class == 1:
        tp, fp, fn = matrix.tp, matrix.fp, matrix.fn
    elif positive_class == 0:
        tp, fp, fn = matrix.tn, matrix.fn, matrix.fp
    else:
        raise ValueError(f"positive_class must be 0 or 1, got {positive_class!r}")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def weighted_f1(matrix: ConfusionMatrix) -> float:
    """Support-weighted mean of the per-class F1 scores."""
    s1 = matrix.support(1)
    s0 = matrix.support(0)
    return (s1 * f1(matrix, 1) + s0 * f1(matrix, 0)) / (s1 + s0)


class EvalReport(NamedTuple):
    matrix: ConfusionMatrix
    accuracy: float
    f1_class1: float
    f1_class0: float
    weighted_f1: float
    mse: float
    n_test: int
    model_id: str
    # Classes whose F1 fell back to the degenerate 0 (precision+recall == 0).
    degenerate_f1_classes: tuple[int, ...] = ()

    def as_dict(self) -> dict:
        doc = self._asdict()
        doc["confusion"] = doc.pop("matrix")._asdict()
        doc["degenerate_f1_classes"] = list(self.degenerate_f1_classes)
        return doc


def evaluate(predict_many: Callable[[Sequence[Sequence[float]]], Iterable[int]],
             test_samples: Sequence, model_id: str = "model") -> EvalReport:
    """All metrics of one batch call (a model's ``predict_many``) on the test
    samples; a per-sample ``fn`` adapts as ``lambda rows: map(fn, rows)``."""
    if len(test_samples) == 0:
        raise ValueError("empty test set")
    predictions, labels = [], []
    stream = iter(predict_many([sample.features for sample in test_samples]))
    for i, sample in enumerate(test_samples):
        try:
            prediction = next(stream, None)  # a short stream shows as None
            if prediction not in (0, 1):  # before int(), which would turn 0.97 into 0
                raise ValueError(f"model returned {prediction!r}, not 0 or 1")
            predictions.append(int(prediction))
        except Exception as exc:
            raise RuntimeError(f"prediction failed on test sample {i}: {exc}") from exc
        labels.append(sample.label)  # confusion refuses any label but 0/1
    matrix = confusion(predictions, labels)
    scores = {klass: f1(matrix, klass) for klass in (0, 1)}
    return EvalReport(
        matrix=matrix,
        accuracy=accuracy(matrix),
        f1_class1=scores[1],
        f1_class0=scores[0],
        weighted_f1=weighted_f1(matrix),
        mse=(matrix.fp + matrix.fn) / len(labels),  # mean squared 0/1 error
        n_test=len(labels),
        model_id=model_id,
        # F1 is 0 exactly when the class has no true positive, i.e. when
        # precision + recall == 0 and f1 fell back to 0.
        degenerate_f1_classes=tuple(klass for klass, score in scores.items()
                                    if score == 0.0),
    )


def render_reports(reports: Sequence[EvalReport]) -> str:
    """Side-by-side metrics table followed by the confusion counts."""
    headers = ("model", "F1->1", "F1->0", "weighted F1", "MSE", "accuracy")
    rows = [headers]
    for r in reports:
        rows.append((r.model_id, _fmt(r.f1_class1), _fmt(r.f1_class0),
                     _fmt(r.weighted_f1), _fmt(r.mse), _fmt(r.accuracy)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    for r in reports:
        m = r.matrix
        lines.append(f"{r.model_id}: n_test={r.n_test} "
                     f"tp={m.tp} tn={m.tn} fp={m.fp} fn={m.fn}")
        if r.degenerate_f1_classes:
            classes = ", ".join(map(str, r.degenerate_f1_classes))
            lines.append(f"{r.model_id}: F1 degenerate (no predicted or actual "
                         f"instances) for class {classes}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return format(value, ".3g")
