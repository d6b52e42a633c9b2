from types import SimpleNamespace

import numpy as np
import pytest

from domepilot.metrics import (
    ConfusionMatrix,
    EvalReport,
    accuracy,
    confusion,
    evaluate,
    f1,
    render_reports,
    weighted_f1,
)
from domepilot.weather import LabeledSample


def random_matrix(rng):
    preds = rng.integers(0, 2, size=100)
    labels = rng.integers(0, 2, size=100)
    return preds, labels, confusion(list(preds), list(labels))


def sample_set(labels):
    return [LabeledSample((float(i), 0.0, 0.0, 0.0, 0.0, 1.0), int(y))
            for i, y in enumerate(labels)]


def each(fn):
    """The batch predictor ``evaluate`` takes, from a per-sample function."""
    return lambda rows: map(fn, rows)


def report_of(preds, labels):
    """``evaluate`` of a model that answers ``preds[i]`` for sample i."""
    return evaluate(each(lambda features: int(preds[int(features[0])])), sample_set(labels))


def mean_squared_difference(preds, labels):
    return sum((int(p) - int(y)) ** 2 for p, y in zip(preds, labels)) / len(labels)


# ---------------------------------------------------------------- confusion

def test_confusion_small_examples():
    assert confusion([1, 0], [1, 0]) == ConfusionMatrix(tp=1, tn=1, fp=0, fn=0)
    assert confusion([1, 1], [0, 0]).fp == 2
    assert confusion([0, 0], [1, 1]).fn == 2


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion([1], [1, 0])
    with pytest.raises(ValueError):
        confusion([], [])
    with pytest.raises(ValueError):
        confusion([2], [1])


def test_confusion_names_the_first_bad_pair_and_counts_true_and_1_0_as_1():
    with pytest.raises(ValueError, match=r"pred=0.5 label=1\b"):
        confusion([1, 0.5, 2], [0, 1, 3])
    assert confusion([True, 1.0, False, 0.0], [1.0, True, 0, 1]) == (2, 1, 0, 1)


def test_confusion_matrix_rejects_negative_counts():
    with pytest.raises(ValueError, match="nonnegative"):
        ConfusionMatrix(tp=3, tn=1, fp=-1, fn=0)


@pytest.mark.parametrize("counts, name", [((1, 0, 0, 1.5), "fn"), (("1", "1", "0", "0"), "tp"),
                                          ((1, True, 0, 0), "tn"), ((1, 0, 2.0, 0), "fp")])
def test_confusion_matrix_counts_are_ints(counts, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer, got "):
        ConfusionMatrix(*counts)


def test_confusion_matches_a_per_pair_recount():
    rng = np.random.default_rng(1)
    for _ in range(20):
        preds, labels, matrix = random_matrix(rng)
        tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
        for p, y in zip(preds, labels):
            tally[("t" if p == y else "f") + ("p" if p == 1 else "n")] += 1
        assert (matrix.tp, matrix.tn, matrix.fp, matrix.fn) == (
            tally["tp"], tally["tn"], tally["fp"], tally["fn"])
        assert matrix.total == 100


# ---------------------------------------------------------------- accuracy / f1

def test_accuracy_spot_values():
    assert accuracy(ConfusionMatrix(tp=49, tn=49, fp=1, fn=1)) == pytest.approx(0.98, abs=1e-12)
    assert accuracy(ConfusionMatrix(tp=3, tn=4, fp=0, fn=0)) == 1.0
    with pytest.raises(ValueError):
        accuracy(ConfusionMatrix(0, 0, 0, 0))


def test_f1_spot_values():
    perfect = ConfusionMatrix(tp=10, tn=10, fp=0, fn=0)
    assert f1(perfect, 1) == 1.0 and f1(perfect, 0) == 1.0
    half = ConfusionMatrix(tp=1, tn=0, fp=1, fn=1)
    assert f1(half, 1) == pytest.approx(0.5, abs=1e-12)
    degenerate = ConfusionMatrix(tp=0, tn=5, fp=0, fn=0)  # class 1 absent
    assert f1(degenerate, 1) == 0.0
    with pytest.raises(ValueError):
        f1(perfect, 2)


def test_class_swap_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        preds, labels, m = random_matrix(rng)
        swapped = ConfusionMatrix(tp=m.tn, tn=m.tp, fp=m.fn, fn=m.fp)
        assert f1(swapped, 1) == f1(m, 0)
        assert f1(swapped, 0) == f1(m, 1)
        assert accuracy(swapped) == accuracy(m)
        assert weighted_f1(swapped) == pytest.approx(weighted_f1(m), abs=1e-12)
        assert report_of(1 - preds, 1 - labels).mse == report_of(preds, labels).mse


def test_weighted_f1_is_the_support_weighted_mean():
    rng = np.random.default_rng(3)
    for _ in range(50):
        _, _, m = random_matrix(rng)
        s1, s0 = m.support(1), m.support(0)
        expected = (s1 * f1(m, 1) + s0 * f1(m, 0)) / (s1 + s0)
        assert weighted_f1(m) == pytest.approx(expected, abs=1e-15)
        low, high = sorted((f1(m, 0), f1(m, 1)))
        assert low - 1e-12 <= weighted_f1(m) <= high + 1e-12


def test_weighted_f1_equal_supports_is_the_plain_mean():
    m = ConfusionMatrix(tp=3, fn=2, tn=4, fp=1)  # supports 5 and 5
    assert weighted_f1(m) == pytest.approx((f1(m, 1) + f1(m, 0)) / 2, abs=1e-15)


def test_weighted_f1_with_one_class_absent():
    m = ConfusionMatrix(tp=8, tn=0, fp=0, fn=2)  # no true class-0 instances
    assert weighted_f1(m) == f1(m, 1)


# ---------------------------------------------------------------- mse

def test_mse_spot_values():
    assert report_of([1, 0, 1], [1, 0, 1]).mse == 0.0
    assert report_of([1] + [0] * 49, [0] * 50).mse == pytest.approx(0.02, abs=1e-15)
    assert report_of([1, 1, 0, 0], [0, 1, 1, 0]).mse == 0.5


def test_mse_equals_one_minus_accuracy_on_random_vectors():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(1, 60))
        preds = list(rng.integers(0, 2, size=n))
        labels = list(rng.integers(0, 2, size=n))
        report = report_of(preds, labels)
        assert abs(report.mse - mean_squared_difference(preds, labels)) <= 1e-12
        assert abs(report.mse - (1.0 - report.accuracy)) <= 1e-12


# ---------------------------------------------------------------- evaluate

def test_constant_model_on_uniform_labels():
    report = evaluate(each(lambda features: 1), sample_set([1, 1, 1, 1]), "const1")
    assert report.accuracy == 1.0 and report.mse == 0.0
    assert report.n_test == 4 and report.model_id == "const1"


def test_constant_model_on_balanced_labels_flags_degenerate_f1():
    report = evaluate(each(lambda features: 1), sample_set([1, 0, 1, 0]))
    assert report.accuracy == 0.5
    assert report.f1_class0 == 0.0
    assert report.degenerate_f1_classes == (0,)
    assert render_reports([report]).splitlines()[-1] == (
        "model: F1 degenerate (no predicted or actual instances) for class 0")


def test_empty_test_set_is_an_error():
    with pytest.raises(ValueError):
        evaluate(each(lambda features: 1), [])


def test_prediction_errors_abort_with_sample_context():
    def broken(features):
        raise KeyError("boom")

    with pytest.raises(RuntimeError, match="test sample 0"):
        evaluate(each(broken), sample_set([1, 0]))


def test_the_batch_predictor_is_called_once_with_every_row_in_order():
    calls = []

    def predict_many(rows):
        calls.append(list(rows))
        return iter([1, 0, 1])

    report = evaluate(predict_many, sample_set([1, 0, 0]))
    assert calls == [[sample.features for sample in sample_set([1, 0, 0])]]
    assert report.matrix == ConfusionMatrix(tp=1, tn=1, fp=1, fn=0)


def test_a_batch_predictor_that_stops_early_fails_at_the_first_missing_sample():
    with pytest.raises(RuntimeError, match="test sample 2: model returned None, not 0 or 1"):
        evaluate(lambda rows: [1, 0], sample_set([1, 0, 1]))


def test_a_prediction_that_is_not_0_or_1_aborts_instead_of_truncating():
    with pytest.raises(RuntimeError, match="test sample 0: model returned 0.97, not 0 or 1"):
        evaluate(each(lambda features: 0.97), sample_set([1, 1, 1, 1]))


def test_a_label_that_is_not_0_or_1_aborts_instead_of_truncating():
    samples = [SimpleNamespace(features=(1,), label=0.5), SimpleNamespace(features=(1,), label=1)]
    with pytest.raises(ValueError, match="label=0.5"):
        evaluate(each(lambda features: 0), samples)


def test_true_and_1_0_labels_count_as_1():
    samples = [SimpleNamespace(features=(1,), label=label) for label in (True, 1.0, 0)]
    assert evaluate(each(lambda features: 1), samples).matrix == ConfusionMatrix(
        tp=2, tn=0, fp=1, fn=0)


def test_report_dict_and_render():
    report = evaluate(each(lambda features: int(features[0] < 2)), sample_set([1, 1, 0, 0]))
    doc = report.as_dict()
    assert doc["confusion"] == {"tp": 2, "tn": 2, "fp": 0, "fn": 0}
    text = render_reports([report])
    assert text.splitlines()[0].split() == ["model", "F1->1", "F1->0",
                                            "weighted", "F1", "MSE", "accuracy"]
    assert "n_test=4" in text
    both = render_reports([report, report])
    assert both.count("tp=2") == 2
