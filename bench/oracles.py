"""Independent checks of every domepilot output the benchmark produces.

Nothing here imports ``domepilot``: expected values come from the
generator's ground truth, a frozen copy of the split generator, a tree
walker over the model JSON and a brute-force NumPy k-NN. Each check returns
a list of mismatch descriptions; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from gen import (DUPLICATE_FEATURES, KNN_SPLIT, TEMP_OPEN_HIGH, TEMP_OPEN_LOW, Row,
                 default_k, split_order)

LABELED_HEADER = ["temp", "wind", "humidity", "hour", "visibility", "barometer", "state"]
DT_SPLIT = (0.33, 324)
LEAF_BUDGET = 50
#: Distinct held-out queries checked against the brute-force k-NN per model.
KNN_SAMPLE = 256

Labeled = list[tuple[tuple[float, ...], int]]


def labeled_rows(truth: Sequence[Row]) -> Labeled:
    """What ``prepare`` must write: accepted rows in input order."""
    return [(row.features, row.label) for row in truth if row.kind == "ok"]


def check_prepare(summary: dict, truth: Sequence[Row]) -> list[str]:
    kinds = [row.kind for row in truth]
    expected = {"input_rows": len(truth), "parse_rejected": kinds.count("malformed"),
                "unmapped_rejected": kinds.count("unmapped"),
                "labeled_rows": kinds.count("ok")}
    return [f"prepare {key}: got {summary.get(key)!r}, expected {value}"
            for key, value in expected.items() if summary.get(key) != value]


def check_labeled_csv(path: Path, expected: Labeled) -> list[str]:
    with open(path, encoding="utf-8", newline="") as stream:
        rows = list(csv.reader(stream))
    if not rows or rows[0] != LABELED_HEADER:
        return [f"labeled CSV header {rows[0] if rows else None!r}"]
    body = rows[1:]
    if len(body) != len(expected):
        return [f"labeled CSV has {len(body)} rows, expected {len(expected)}"]
    for i, (cells, (features, label)) in enumerate(zip(body, expected)):
        got = tuple(float(c) for c in cells[:6])
        if got != features or cells[6] != str(label):
            return [f"labeled CSV row {i}: {cells}, expected {features} -> {label}"]
    return []


def split(rows: Labeled, spec: tuple[float, int]) -> tuple[Labeled, Labeled]:
    """(train, test): the first round(n * fraction) shuffled rows are test."""
    order = split_order(len(rows), spec[1])
    n_test = round(len(rows) * spec[0])
    return [rows[i] for i in order[n_test:]], [rows[i] for i in order[:n_test]]


def check_report(doc: dict, n_test: int,
                 confusion: Optional[dict] = None) -> list[str]:
    """Report identities; with ``confusion`` also the exact counts."""
    c = doc["confusion"]
    errors = []
    if doc["n_test"] != n_test or sum(c.values()) != n_test:
        errors.append(f"report n_test {doc['n_test']} / {sum(c.values())}, expected {n_test}")
    if doc["accuracy"] != (c["tp"] + c["tn"]) / n_test:
        errors.append(f"report accuracy {doc['accuracy']} != (tp+tn)/n_test")
    if not math.isclose(doc["mse"], 1 - doc["accuracy"], rel_tol=0, abs_tol=1e-12):
        errors.append(f"report mse {doc['mse']} != 1 - accuracy")
    if confusion is not None and c != confusion:
        errors.append(f"report confusion {c}, expected {confusion}")
    return errors


def tree_predictor(doc: dict):
    nodes = {node["id"]: node for node in doc["nodes"]}

    def predict(x: Sequence[float]) -> int:
        node = nodes[0]
        while node["type"] == "split":
            node = nodes[node["left"] if x[node["feature"]] <= node["threshold"]
                         else node["right"]]
        return node["label"]

    return predict


def confusion_of(predict, rows: Labeled) -> dict:
    c = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for features, label in rows:
        p = predict(features)
        c[("t" if p == label else "f") + ("p" if p == 1 else "n")] += 1
    return c


def check_tree(doc: dict, train: Labeled) -> list[str]:
    """Leaves partition the training rows and respect the leaf budget."""
    leaves = [n for n in doc["nodes"] if n["type"] == "leaf"]
    errors = []
    if not 1 <= len(leaves) <= LEAF_BUDGET:
        errors.append(f"tree has {len(leaves)} leaves, budget {LEAF_BUDGET}")
    routed = sum(map(sum, (n["counts"] for n in leaves)))
    if routed != len(train):
        errors.append(f"tree leaves hold {routed} rows, trained on {len(train)}")
    for leaf in leaves:
        n0, n1 = leaf["counts"]
        if leaf["label"] != int(n1 > n0):
            errors.append(f"leaf {leaf['id']} label {leaf['label']} for counts {leaf['counts']}")
    return errors


def check_knn_model(doc: dict, train: Labeled) -> list[str]:
    """The stored training set is the split's training rows in order."""
    errors = []
    if doc["k"] != default_k(len(train)):
        errors.append(f"knn k {doc['k']}, expected {default_k(len(train))}")
    data = doc["data"]
    if len(data) != len(train):
        return errors + [f"knn model stores {len(data)} rows, expected {len(train)}"]
    for i, (row, (features, label)) in enumerate(zip(data, train)):
        if tuple(row[:-1]) != features or row[-1] != label:
            return errors + [f"knn model row {i} is {row}, expected {features} -> {label}"]
    return errors


def knn_oracle(X: np.ndarray, y: np.ndarray, k: int, queries: np.ndarray) -> np.ndarray:
    """Brute force: the k smallest (distance, training index), majority of 1s.

    Squared distances are summed feature by feature in feature order, the
    evaluation order the README fixes; an exact vote tie closes (0).
    """
    out = np.empty(len(queries), dtype=np.int64)
    index = np.arange(len(X))
    for qi, q in enumerate(queries):
        d2 = np.zeros(len(X))
        for j in range(X.shape[1]):
            diff = X[:, j] - q[j]
            d2 += diff * diff
        nearest = np.lexsort((index, d2))[:k]
        out[qi] = int(2 * y[nearest].sum() > k)
    return out


def knn_arrays(doc: dict) -> tuple[np.ndarray, np.ndarray, int]:
    data = np.asarray(doc["data"], dtype=float)
    return data[:, :-1], data[:, -1].astype(np.int64), int(doc["k"])


def knn_sample(queries: Sequence[tuple[float, ...]], seed: int) -> list[int]:
    """Indices of KNN_SAMPLE queries with distinct features, seeded.

    The duplicated block's vector comes first, once: the generator lays its
    labels out so that only the (distance, training index) tie rule gives
    its prediction. The rest are drawn from the other distinct vectors.
    """
    first: dict[tuple[float, ...], int] = {}
    for i, q in enumerate(queries):
        first.setdefault(q, i)
    tied = [first[DUPLICATE_FEATURES]] if DUPLICATE_FEATURES in first else []
    rest = [i for q, i in first.items() if q != DUPLICATE_FEATURES]
    rng = random.Random(seed)
    return sorted(tied + rng.sample(rest, min(KNN_SAMPLE - len(tied), len(rest))))


def check_predictions(got: Sequence[int], expected: Sequence[int], what: str) -> list[str]:
    if len(got) != len(expected):
        return [f"{what}: {len(got)} predictions, expected {len(expected)}"]
    bad = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
    return [f"{what}: {len(bad)} of {len(expected)} differ from the oracle "
            f"(first at sample {bad[0]})"] if bad else []


def expected_command(row: Row, prediction: Optional[int]) -> tuple[int, str]:
    """(dome, cause) the controller rules give for a frame."""
    if row.kind == "unmapped":
        return 0, "unmapped_condition"
    if row.rain:
        return 0, "rain_override"
    if not TEMP_OPEN_LOW < row.features[0] < TEMP_OPEN_HIGH:
        return 0, "temp_gate"
    return prediction, "model"


def check_decisions(log_path: Path, wire_path: Path, frames: Sequence[Row],
                    predictions: dict[int, int]) -> tuple[list[str], int]:
    """Walk the decision log and wire file; returns (errors, bad frame count).

    ``frames`` is the truth for every frames-CSV row; ``predictions`` maps
    the position of an accepted frame to the oracle's model prediction,
    where one is known.
    """
    errors: list[str] = []
    accepted = [row for row in frames if row.kind != "malformed"]
    with open(log_path, encoding="utf-8") as stream:
        entries = [json.loads(line) for line in stream]
    wire = Path(wire_path).read_text(encoding="ascii").split("\n")
    if wire[-1] != "":
        errors.append("wire file does not end with a newline")
    wire = wire[:-1]
    if len(entries) != len(accepted) or len(wire) != len(accepted):
        errors.append(f"{len(entries)} log entries and {len(wire)} wire lines "
                      f"for {len(accepted)} frames")
    bad = abs(len(accepted) - min(len(entries), len(wire)))
    for i, (row, entry, line) in enumerate(zip(accepted, entries, wire)):
        problem = _frame_problem(i, row, entry, line, predictions.get(i))
        if problem:
            bad += 1
            if len(errors) < 5:
                errors.append(problem)
    if bad and not errors:
        errors.append(f"{bad} frames failed")
    return errors, bad


def _frame_problem(i: int, row: Row, entry: dict, line: str,
                   oracle: Optional[int]) -> Optional[str]:
    prediction = entry.get("prediction")
    dome, cause = expected_command(row, prediction)
    if entry.get("tick") != i or tuple(entry.get("features", ())) != row.features:
        return f"frame {i}: log entry {entry} does not match the input frame"
    if row.kind == "unmapped":
        if prediction is not None:
            return f"frame {i}: unmapped frame has prediction {prediction}"
    elif prediction not in (0, 1) or (oracle is not None and prediction != oracle):
        return f"frame {i}: prediction {prediction}, oracle {oracle}"
    if (entry.get("dome"), entry.get("cause")) != (dome, cause):
        return (f"frame {i}: dome {entry.get('dome')} cause {entry.get('cause')}, "
                f"expected {dome} {cause}")
    if entry.get("ac") != 1 - dome:
        return f"frame {i}: ac {entry.get('ac')} with dome {dome}"
    if line != f"D:{dome} A:{1 - dome}":
        return f"frame {i}: wire line {line!r}, expected D:{dome} A:{1 - dome}"
    return None
