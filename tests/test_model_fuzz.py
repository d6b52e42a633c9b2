"""Fuzz gate for model documents.

Trained tree and k-NN documents get dropped, retyped, out-of-range and
duplicated fields, edited ids, labels and counts, and deeply nested junk.
Each mutated document must either load through ``cli.load_model`` and
predict 0 or 1 on fixed queries within a time bound, or fail with a
ValueError whose message starts with the file path. The queries are the
training rows, so every leaf of the tree is reached.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domepilot import cli
from domepilot.knn import train_knn
from domepilot.synthetic import synthetic_observations
from domepilot.tree import TreeConfig, train_tree
from domepilot.weather import ConditionTable, to_samples

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


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_documents_predict_or_fail_naming_the_file(model_file, name, data):
    doc = json.loads(DOCUMENTS[name])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        if doc:
            data.draw(st.sampled_from([_mutate, _edit_int]))(doc, data)
    model_file.write_text(json.dumps(doc))
    start = time.perf_counter()
    try:
        model = cli.load_model(model_file)
    except ValueError as exc:
        assert str(exc).startswith(f"{model_file}: ")
        return
    assert {model.predict(query) for query in QUERIES} <= {0, 1}
    assert time.perf_counter() - start < TIME_BOUND_S
