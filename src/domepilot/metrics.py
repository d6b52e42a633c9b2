"""Binary classification metrics: confusion matrix, accuracy, F1, MSE.

Class 1 (open) is the positive class of the confusion matrix. For binary
0/1 predictions MSE coincides with the misclassification rate, so
mse == 1 - accuracy up to floating-point rounding.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def support(self, klass: int) -> int:
        """Number of true instances of a class."""
        return self.tp + self.fn if klass == 1 else self.tn + self.fp

    def to_csv(self) -> str:
        """Rows are true classes, columns predicted classes."""
        out = io.StringIO()
        out.write(",pred_0,pred_1\n")
        out.write(f"true_0,{self.tn},{self.fp}\n")
        out.write(f"true_1,{self.fn},{self.tp}\n")
        return out.getvalue()


def confusion(predictions: Sequence[int], labels: Sequence[int]) -> ConfusionMatrix:
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} predictions "
                         f"vs {len(labels)} labels")
    if len(labels) == 0:
        raise ValueError("cannot tally an empty prediction set")
    tp = tn = fp = fn = 0
    for pred, label in zip(predictions, labels):
        if pred not in (0, 1) or label not in (0, 1):
            raise ValueError(f"values must be 0/1, got pred={pred!r} label={label!r}")
        if pred == 1:
            if label == 1:
                tp += 1
            else:
                fp += 1
        else:
            if label == 1:
                fn += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def accuracy(matrix: ConfusionMatrix) -> float:
    if matrix.total == 0:
        raise ValueError("empty confusion matrix")
    return (matrix.tp + matrix.tn) / matrix.total


def f1(matrix: ConfusionMatrix, positive_class: int = 1) -> float:
    """Harmonic mean of precision and recall; 0 when both are undefined."""
    if matrix.total == 0:
        raise ValueError("empty confusion matrix")
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
    if matrix.total == 0:
        raise ValueError("empty confusion matrix")
    s1 = matrix.support(1)
    s0 = matrix.support(0)
    return (s1 * f1(matrix, 1) + s0 * f1(matrix, 0)) / (s1 + s0)


def mse(predictions: Sequence[int], labels: Sequence[int]) -> float:
    """Mean squared difference; equals the error rate for 0/1 values."""
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} predictions "
                         f"vs {len(labels)} labels")
    if len(labels) == 0:
        raise ValueError("cannot score an empty prediction set")
    return sum((p - y) ** 2 for p, y in zip(predictions, labels)) / len(labels)


@dataclass(frozen=True)
class EvalReport:
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
        doc = asdict(self)
        doc["confusion"] = doc.pop("matrix")
        doc["degenerate_f1_classes"] = list(self.degenerate_f1_classes)
        return doc


def evaluate(model_predict_fn: Callable[[Sequence[float]], int],
             test_samples: Sequence, model_id: str = "model") -> EvalReport:
    """Apply the model to every test sample and assemble all metrics."""
    if len(test_samples) == 0:
        raise ValueError("empty test set")
    predictions, labels = [], []
    for i, sample in enumerate(test_samples):
        try:
            predictions.append(int(model_predict_fn(sample.features)))
        except Exception as exc:
            raise RuntimeError(f"prediction failed on test sample {i}: {exc}") from exc
        labels.append(int(sample.label))
    matrix = confusion(predictions, labels)
    scores = {klass: f1(matrix, klass) for klass in (0, 1)}
    return EvalReport(
        matrix=matrix,
        accuracy=accuracy(matrix),
        f1_class1=scores[1],
        f1_class0=scores[0],
        weighted_f1=weighted_f1(matrix),
        mse=(matrix.fp + matrix.fn) / len(labels),  # mse() of 0/1 values
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
