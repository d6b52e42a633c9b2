"""Fuzz gate for model documents.

Trained tree and k-NN documents get dropped, retyped, out-of-range and
duplicated fields, edited ids, labels and counts, and deeply nested junk.
Each mutated document must either load through ``cli.load_model`` and
predict on fixed queries, within a time bound, what a reference computed
from the document itself predicts, or fail with a ValueError whose message
starts with the file path. The reference walks a tree document's nodes, and
votes a k-NN document by brute force; a k-NN document whose data cells are
not all JSON numbers, or whose standardized training values are not all
finite, must fail. The queries are the training rows, so every leaf of the
tree is reached. A document whose version, k, ``n_features``, node id,
feature, child, ``n``, leaf label, config budget or k-NN data label is a
float or a bool must fail.
"""

import json
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domepilot import cli
from domepilot.grow import train_tree
from domepilot.knnmodel import train_knn
from domepilot.raw import ConditionTable, to_samples
from domepilot.synthetic import synthetic_observations
from domepilot.tree import TreeConfig

# Loading and predicting take milliseconds; the bound catches a hang or a
# blow-up, not a slow machine.
TIME_BOUND_S = 5.0

SAMPLES, _ = to_samples(synthetic_observations(240, seed=3), ConditionTable.builtin())
QUERIES = [sample.features for sample in SAMPLES]
DOCUMENTS = {name: json.dumps(model.to_dict()) for name, model in (
    ("tree", train_tree(SAMPLES, TreeConfig(max_leaf_nodes=8))),
    ("knn", train_knn(SAMPLES[:40], k=5)),
    ("knn-standardize", train_knn(SAMPLES[:40], k=5, scaling="standardize")))}


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 20),  # ids, children, features, labels, counts, k
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["tree", "knn", "split", "leaf", "gini", "none", "standardize",
                     "6", "1e999", "NaN"]),
    st.integers(1, 400).map(_nested),
    st.recursive(st.none() | st.integers() | st.floats() | st.text(max_size=3),
                 lambda inner: (st.lists(inner, max_size=3)
                                | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
                 max_leaves=8),
)


def _int_paths(node, prefix=()):
    """Paths to every int below ``node``: versions, ids, children, features,
    labels, counts, k."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if type(child) is int:
            yield prefix + (key,)
        elif isinstance(child, (dict, list)):
            yield from _int_paths(child, prefix + (key,))


def _edit_int(doc, data) -> None:
    """Set one int field to a small int, such as a label, id or child."""
    paths = list(_int_paths(doc))
    if paths:
        *parents, key = data.draw(st.sampled_from(paths))
        container = doc
        for step in parents:
            container = container[step]
        container[key] = data.draw(st.integers(-1, 16))


#: Fields a document must hold as JSON integers, besides the k-NN data labels.
INT_FIELDS = {"version", "k", "n_features", "id", "feature", "left", "right", "n", "label",
              "max_leaf_nodes"}


def _retype(doc, path, retype) -> None:
    """Replace the int at ``path`` with ``retype`` of it."""
    *parents, key = path
    container = doc
    for step in parents:
        container = container[step]
    container[key] = retype(container[key])


#: A fractional float, a whole float and a bool in place of an int.
RETYPES = (lambda value: value + 0.5, float, bool)


def _retype_int(doc, data) -> None:
    """Retype one of the INT_FIELDS or a k-NN data label (the only int of a
    data row)."""
    paths = [path for path in _int_paths(doc) if path[-1] in INT_FIELDS or path[0] == "data"]
    if paths:
        _retype(doc, data.draw(st.sampled_from(paths)), data.draw(st.sampled_from(RETYPES)))


class Found:
    """Stands in for ``st.data()`` in an ``@example``: an edit that a gate once
    caught, made to the document in place of the random ones."""

    def __init__(self, what: str, edit):
        self.what, self.edit = what, edit

    def __repr__(self):
        return f"Found({self.what!r})"


def _edit(doc, data, random_edit) -> None:
    data.edit(doc) if isinstance(data, Found) else random_edit(doc, data)


def _retype_first(field: str, retype) -> Found:
    """The first ``field`` (``label``: a tree label or a k-NN data label) retyped."""
    def edit(doc):
        _retype(doc, next(path for path in _int_paths(doc)
                          if path[-1] == field or field == "label" and path[0] == "data"),
                retype)
    return Found(f"{field} as {retype.__name__}", edit)


def _temp_std(std: float) -> Found:
    """A temp std of ``std`` in a standardized k-NN document; no edit of the others."""
    def edit(doc):
        if "stats" in doc:
            doc["stats"]["stds"][0] = std
    return Found(f"temp std {std}", edit)


def _twin_first_row() -> Found:
    """k = 1 and a copy of a k-NN document's first row, with the other label,
    put before it: the query that is that row has two rows at distance 0."""
    def edit(doc):
        if "data" in doc:
            *features, label = doc["data"][0]
            doc["data"].insert(0, [*features, 1 - label])
            doc["k"] = 1
    return Found("first row twinned, k = 1", edit)


def _data_cell(value) -> Found:
    """Feature 2 of data row 3 of a k-NN document set to ``value``."""
    def edit(doc):
        if "data" in doc:
            doc["data"][3][2] = value
    return Found(f"data cell {value!r:.10}", edit)


def _leaf_type(kind) -> Found:
    """The type of a tree document's last node, a leaf, set to ``kind``."""
    def edit(doc):
        if "nodes" in doc:
            doc["nodes"][-1]["type"] = kind
    return Found(f"leaf type {kind!r}", edit)


def _mutate(doc, data) -> None:
    """Drop, replace or duplicate one field at a random place: each level
    down is a coin flip, so top-level fields are hit as often as deep cells."""
    container, key = doc, data.draw(st.sampled_from(sorted(doc)))
    while isinstance(container[key], (dict, list)) and container[key] and data.draw(
            st.booleans(), label="descend"):
        container = container[key]
        key = data.draw(st.sampled_from(sorted(container) if isinstance(container, dict)
                                        else range(len(container))))
    action = data.draw(st.sampled_from(["drop", "replace", "duplicate"]))
    if action == "drop":
        del container[key]
    elif action == "replace":
        container[key] = data.draw(JUNK)
    elif isinstance(container, list):
        container.insert(key, json.loads(json.dumps(container[key])))
    else:
        container[data.draw(st.text(max_size=6))] = container[key]


def _random_edits(doc, data) -> None:
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        if doc:
            data.draw(st.sampled_from([_mutate, _edit_int, _retype_int]))(doc, data)


def _tree_reference(doc):
    """Predict by walking the document's nodes from id 0: left iff value <= threshold."""
    assert all(rec["type"] in ("split", "leaf") for rec in doc["nodes"]), \
        "a document with a node type other than 'split' or 'leaf' loaded"
    nodes = {rec["id"]: rec for rec in doc["nodes"]}

    def predict(query):
        rec = nodes[0]
        while rec["type"] == "split":
            go_left = query[rec["feature"]] <= float(rec["threshold"])
            rec = nodes[rec["left"] if go_left else rec["right"]]
        return rec["label"]
    return predict


def _knn_reference(doc):
    """Brute-force vote over the document's rows, standardized with its stats
    (a zero std maps the feature to 0): the k nearest by (squared distance
    summed in feature order, row index), 0 on a tie."""
    assert all(type(value) in (int, float) for row in doc["data"] for value in row[:-1]), \
        "a document with a data cell that is not a JSON number loaded"
    rows = [[float(value) for value in row[:-1]] for row in doc["data"]]
    labels = [row[-1] for row in doc["data"]]
    k = doc["k"]
    if doc["scaling"] == "standardize":
        means, stds = (list(map(float, doc["stats"][key])) for key in ("means", "stds"))

        def scale(values):
            return [(v - m) / s if s > 0 else 0.0 for v, m, s in zip(values, means, stds)]
    else:
        def scale(values):
            return values
    points = [scale(row) for row in rows]
    assert all(math.isfinite(v) for point in points for v in point), \
        "a document with non-finite standardized rows loaded"

    def squared_distance(point, q):
        total = 0.0
        for a, b in zip(point, q):
            total += (a - b) * (a - b)
        return total

    def predict(query):
        q = scale(list(map(float, query)))
        ranked = sorted(range(len(points)), key=lambda i: (squared_distance(points[i], q), i))
        return 1 if 2 * sum(labels[i] for i in ranked[:k]) > k else 0
    return predict


def _threshold_queries(doc) -> list:
    """Per split of a tree document, the first query with the split's feature
    set to its threshold, where going left on ``<=`` and on ``<`` part."""
    queries = []
    for rec in doc["nodes"] if doc["kind"] == "tree" else ():
        if rec["type"] == "split":
            query = list(QUERIES[0])
            query[rec["feature"]] = float(rec["threshold"])
            queries.append(query)
    return queries


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
# Inputs this gate once caught; each runs on every run.
@example(data=_temp_std(1e-310))  # a z-score overflows
@example(data=_temp_std(1e-300))  # a squared norm overflows
@example(data=_temp_std(0.0))  # a constant feature, which standardizes to 0
@example(data=_twin_first_row())  # a distance tie, won by the earlier row
@example(data=_data_cell(float("nan")))  # a JSON number that is no finite float
@example(data=_data_cell(10**400))  # a JSON number too large for a float
@example(data=_leaf_type("banana"))  # a node type that is neither split nor leaf
def test_mutated_model_documents_predict_or_fail_naming_the_file(model_file, name, data):
    doc = json.loads(DOCUMENTS[name])
    _edit(doc, data, _random_edits)
    model_file.write_text(json.dumps(doc))
    start = time.perf_counter()
    try:
        model = cli.load_model(model_file)
    except ValueError as exc:
        assert str(exc).startswith(f"{model_file}: ")
        return
    queries = QUERIES + _threshold_queries(doc)
    predictions = [model.predict(query) for query in queries]
    assert time.perf_counter() - start < TIME_BOUND_S
    reference = (_tree_reference if doc["kind"] == "tree" else _knn_reference)(doc)
    assert predictions == [reference(query) for query in queries]


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
# Inputs this gate once caught; each runs on every run.
@example(data=_retype_first("label", float))
@example(data=_retype_first("label", bool))
@example(data=_retype_first("version", float))
@example(data=_retype_first("version", bool))
def test_a_retyped_int_field_fails_naming_the_file(model_file, name, data):
    doc = json.loads(DOCUMENTS[name])
    _edit(doc, data, _retype_int)
    model_file.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="must be an integer") as err:
        cli.load_model(model_file)
    assert str(err.value).startswith(f"{model_file}: ")
