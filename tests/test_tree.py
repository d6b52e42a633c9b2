import heapq
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domepilot.cli import load_model, main, save_model
from domepilot.grow import best_split, train_tree
from domepilot.knnmodel import train_knn
from domepilot.raw import ConditionTable, to_samples
from domepilot.synthetic import synthetic_observations
from domepilot.tree import Leaf, Split, TreeConfig, TreeModel, impurity


def oracle_impurity(labels, criterion="gini"):
    n = len(labels)
    p1 = sum(labels) / n
    p0 = 1.0 - p1
    if criterion == "gini":
        return 1.0 - p0 * p0 - p1 * p1
    return -sum(p * math.log2(p) for p in (p0, p1) if p > 0)


def oracle_candidates(samples, criterion="gini", min_leaf=1):
    """Exhaustively enumerate every (feature, threshold) candidate split."""
    n = len(samples)
    parent = oracle_impurity([y for _, y in samples], criterion)
    found = []
    for f in range(len(samples[0][0])):
        values = sorted({x[f] for x, _ in samples})
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = [y for x, y in samples if x[f] <= threshold]
            right = [y for x, y in samples if x[f] > threshold]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = (parent
                    - (len(left) / n) * oracle_impurity(left, criterion)
                    - (len(right) / n) * oracle_impurity(right, criterion))
            found.append((f, threshold, gain))
    return found


def numpy_impurity(n0, n1, criterion):
    """Vectorized impurity from class counts (arrays), as numpy computes it."""
    n0 = np.asarray(n0, dtype=float)
    n1 = np.asarray(n1, dtype=float)
    total = n0 + n1
    p0 = np.divide(n0, total, out=np.zeros_like(total), where=total > 0)
    p1 = np.divide(n1, total, out=np.zeros_like(total), where=total > 0)
    if criterion == "gini":
        return 1.0 - p0 * p0 - p1 * p1
    log0 = np.zeros_like(p0)
    log1 = np.zeros_like(p1)
    np.log2(p0, out=log0, where=p0 > 0)
    np.log2(p1, out=log1, where=p1 > 0)
    return -(p0 * log0 + p1 * log1)


def numpy_best_split(X, y, criterion):
    """Best (feature, threshold, gain) by a stable argsort and cumulative
    label sums per feature: the array grower the counting scan replaced."""
    n = y.size
    if n < 2:
        return None
    c1 = int(y.sum())
    c0 = n - c1
    if c0 == 0 or c1 == 0:
        return None
    parent = float(numpy_impurity(c0, c1, criterion))
    best = None
    best_gain = 0.0
    for feature in range(X.shape[1]):
        order = np.argsort(X[:, feature], kind="stable")
        values = X[order, feature]
        cum1 = np.cumsum(y[order])
        cuts = np.nonzero(values[:-1] < values[1:])[0]
        if cuts.size == 0:
            continue
        n_left = cuts + 1
        l1 = cum1[cuts]
        l0 = n_left - l1
        gains = parent - ((n_left / n) * numpy_impurity(l0, l1, criterion)
                          + ((n - n_left) / n) * numpy_impurity(c0 - l0, c1 - l1, criterion))
        pos = int(np.argmax(gains))
        if gains[pos] > best_gain:
            threshold = float((values[cuts[pos]] + values[cuts[pos] + 1]) / 2.0)
            best = (feature, threshold, float(gains[pos]))
            best_gain = float(gains[pos])
    return best


def numpy_train_tree(samples, config):
    """Oracle: the best-first grower over numpy arrays, node for node."""
    X = np.array([f for f, _ in samples], dtype=float)
    y = np.array([label for _, label in samples], dtype=np.int64)
    nodes, frontier = [], []

    def leaf_for(indices):
        c1 = int(y[indices].sum())
        c0 = int(indices.size) - c1
        return Leaf(label=1 if c1 > c0 else 0, counts=(c0, c1))

    def enqueue(node_id, indices):
        found = numpy_best_split(X[indices], y[indices], config.criterion)
        if found is not None:
            feature, threshold, gain = found
            heapq.heappush(frontier,
                           (-gain * indices.size, node_id, feature, threshold, gain, indices))

    root = np.arange(y.size)
    nodes.append(leaf_for(root))
    n_leaves = 1
    if config.max_leaf_nodes >= 2:
        enqueue(0, root)
    while frontier and n_leaves < config.max_leaf_nodes:
        _, node_id, feature, threshold, _, indices = heapq.heappop(frontier)
        goes_left = X[indices, feature] <= threshold
        left, right = indices[goes_left], indices[~goes_left]
        nodes += [leaf_for(left), leaf_for(right)]
        counts = nodes[node_id].counts
        nodes[node_id] = Split(feature=feature, threshold=threshold,
                               left=len(nodes) - 2, right=len(nodes) - 1,
                               impurity=float(numpy_impurity(*counts, config.criterion)),
                               n=int(indices.size))
        n_leaves += 1
        enqueue(len(nodes) - 2, left)
        enqueue(len(nodes) - 1, right)
    return TreeModel(config=config, nodes=nodes, n_features=X.shape[1])


def labeled_set(n, seed, temp_only=False):
    """Synthetic pipeline samples, or noise features with a pure temp rule."""
    if not temp_only:
        samples, _ = to_samples(synthetic_observations(n, seed=seed),
                                ConditionTable.builtin())
        return samples
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        temp = rng.uniform(5.0, 40.0)
        features = (temp, rng.uniform(0, 30), rng.uniform(0, 1),
                    float(rng.integers(0, 24)), rng.uniform(0, 16),
                    rng.uniform(990, 1040))
        rows.append((features, 1 if 16.0 < temp < 27.0 else 0))
    return rows


# ---------------------------------------------------------------- impurity

def test_impurity_pure_and_balanced_nodes():
    assert impurity((10, 0)) == 0.0
    assert impurity((0, 7)) == 0.0
    assert impurity((5, 5), "gini") == 0.5
    assert impurity((5, 5), "entropy") == 1.0


def test_impurity_hand_computed_values():
    assert impurity((3, 1), "gini") == pytest.approx(0.375, abs=1e-15)
    expected_entropy = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert impurity((3, 1), "entropy") == pytest.approx(expected_entropy, abs=1e-15)
    assert impurity((1, 3), "gini") == impurity((3, 1), "gini")


def test_impurity_rejects_empty_or_negative_counts():
    with pytest.raises(ValueError):
        impurity((0, 0))
    with pytest.raises(ValueError):
        impurity((-1, 2))
    with pytest.raises(ValueError):
        impurity((1, 1), "misclassification")


# ---------------------------------------------------------------- best_split

def test_two_point_node_splits_at_the_midpoint():
    found = best_split([((1.0,), 0), ((3.0,), 1)])
    assert found is not None
    feature, threshold, gain = found
    assert (feature, threshold) == (0, 2.0)
    assert gain == pytest.approx(0.5, abs=1e-15)


def test_pure_node_is_unsplittable():
    assert best_split([((1.0,), 0), ((2.0,), 0), ((5.0,), 0)]) is None


def test_xor_has_no_positive_gain_split():
    xor = [((0.0, 0.0), 0), ((0.0, 1.0), 1), ((1.0, 0.0), 1), ((1.0, 1.0), 0)]
    for _, _, gain in oracle_candidates(xor):
        assert gain == pytest.approx(0.0, abs=1e-15)
    assert best_split(xor) is None
    model = train_tree(xor, TreeConfig(max_leaf_nodes=50))
    assert model.leaf_count == 1  # zero-gain splits are refused


def test_tie_break_prefers_lowest_feature_then_lowest_threshold():
    # Duplicate columns: identical gains on features 0 and 1.
    twin = [((0.0, 0.0), 0), ((1.0, 1.0), 1)]
    assert best_split(twin)[0] == 0
    # Two thresholds with identical gain inside one feature.
    bump = [((0.0,), 0), ((1.0,), 1), ((2.0,), 0)]
    candidates = oracle_candidates(bump)
    gains = [g for _, _, g in candidates]
    assert gains[0] == pytest.approx(gains[1], abs=1e-15)
    assert best_split(bump)[1] == 0.5


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_best_split_gain_matches_exhaustive_enumeration(criterion):
    rng = np.random.default_rng(42)
    for trial in range(300):
        n = int(rng.integers(2, 9))
        samples = [(tuple(map(float, rng.integers(0, 4, size=2))),
                    int(rng.integers(0, 2))) for _ in range(n)]
        found = best_split(samples, criterion=criterion)
        candidates = oracle_candidates(samples, criterion)
        positive = [c for c in candidates if c[2] > 1e-12]
        if not positive:
            assert found is None, (trial, samples)
            continue
        assert found is not None, (trial, samples)
        feature, threshold, gain = found
        best_gain = max(g for _, _, g in positive)
        assert gain == pytest.approx(best_gain, abs=1e-12)
        oracle_gain = next(g for f, t, g in candidates
                           if f == feature and t == threshold)
        assert gain == pytest.approx(oracle_gain, abs=1e-12)


# ---------------------------------------------------------------- training

def test_uniform_labels_give_a_single_leaf():
    model = train_tree([((1.0, 2.0), 1), ((3.0, 4.0), 1)], TreeConfig())
    assert model.leaf_count == 1
    assert model.predict((9.0, 9.0)) == 1


def test_two_point_training_is_perfect():
    model = train_tree([((1.0,), 0), ((3.0,), 1)], TreeConfig(max_leaf_nodes=50))
    assert model.leaf_count == 2
    assert model.predict((1.0,)) == 0
    assert model.predict((3.0,)) == 1


def test_leaf_tie_predicts_closed():
    model = train_tree([((1.0,), 0), ((1.0,), 1)], TreeConfig())
    assert model.leaf_count == 1
    assert model.predict((1.0,)) == 0


def test_temp_rule_data_is_learned_exactly():
    samples = labeled_set(200, seed=11, temp_only=True)
    model = train_tree(samples, TreeConfig(max_leaf_nodes=50))
    for features, label in samples:
        rule = 1 if 16.0 < features[0] < 27.0 else 0
        assert label == rule
        assert model.predict(features) == rule


def test_empty_training_set_is_an_error():
    with pytest.raises(ValueError):
        train_tree([], TreeConfig())
    with pytest.raises(ValueError):
        train_tree([((1.0,), 2)], TreeConfig())


def test_mixed_numeric_samples_train_like_their_float_version():
    samples = labeled_set(200, seed=2)
    as_pairs = [(tuple(map(float, s.features)), s.label) for s in samples]
    config = TreeConfig(max_leaf_nodes=50)
    assert train_tree(samples, config).to_dict() == train_tree(as_pairs, config).to_dict()
    mixed = [((1, np.float32(0.5), True), 1.0), ([2.5, -1, 0], np.int64(0))]
    floats = [((1.0, 0.5, 1.0), 1), ((2.5, -1.0, 0.0), 0)]
    assert train_tree(mixed, config).to_dict() == train_tree(floats, config).to_dict()
    assert best_split(mixed) == best_split(floats) == (0, 1.75, 0.5)


@pytest.mark.parametrize("samples,message", [
    ([], "empty training set"),
    ([((1.0, 2.0), 0), ((3.0,), 1)], "one feature arity"),
    ([((1.0,), 0), ((2.0,), 2)], "0/1"),
    ([((1.0, None), 0), ((2.0, 3.0), 1)], "rows of numbers"),
], ids=["empty", "ragged", "label-2", "not-a-number"])
def test_sample_arrays_reject_bad_sets(samples, message):
    with pytest.raises(ValueError, match=message):
        train_tree(samples, TreeConfig())
    with pytest.raises(ValueError, match=message):
        best_split(samples)


@pytest.mark.parametrize("fit", [
    lambda samples: train_tree(samples, TreeConfig()),
    best_split,
    lambda samples: train_knn(samples, k=1),
], ids=["train_tree", "best_split", "train_knn"])
def test_labels_are_checked_before_they_are_converted(fit):
    rows = [(0.0,) * 6, (1.0,) * 6, (2.0,) * 6]
    for bad in (0.5, 1.7):
        with pytest.raises(ValueError, match="0/1"):
            fit([(rows[0], 0), (rows[1], bad), (rows[2], 1)])
    fit(list(zip(rows, [True, 1.0, np.int64(0)])))
    assert train_knn(list(zip(rows, [True, 1.0, np.int64(0)])), k=1).labels == (1, 1, 0)


# A float grid with few distinct values (as in weather data), or any floats,
# with signed zeros and NaN mixed in.
GRID = st.integers(0, 4).map(float)
FLOATS = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, -0.0]),
                   st.just(math.nan))


@st.composite
def training_sets(draw):
    width = draw(st.integers(1, 4))
    values = draw(st.sampled_from([GRID, FLOATS]))
    row = st.tuples(*[values] * width)
    return draw(st.lists(st.tuples(row, st.integers(0, 1)), min_size=1, max_size=80))


@settings(max_examples=300, deadline=None)
@given(samples=training_sets(), criterion=st.sampled_from(["gini", "entropy"]),
       max_leaf_nodes=st.sampled_from([1, 2, 10, 50]))
def test_counting_grower_matches_the_numpy_grower(samples, criterion, max_leaf_nodes):
    config = TreeConfig(criterion=criterion, max_leaf_nodes=max_leaf_nodes)
    got = train_tree(samples, config).to_dict()
    want = numpy_train_tree(samples, config).to_dict()
    if criterion == "gini":  # + - * / only: the same doubles
        assert got == want
        return
    # numpy's log2 may differ from libm's in the last bit on some CPUs.
    got_impurities = [node.pop("impurity", None) for node in got["nodes"]]
    want_impurities = [node.pop("impurity", None) for node in want["nodes"]]
    assert got == want
    for a, b in zip(got_impurities, want_impurities):
        assert (a is None and b is None) or abs(a - b) <= math.ulp(b)


def test_leaf_budget_is_respected_and_one_leaf_is_majority():
    samples = labeled_set(600, seed=3)
    majority = 1 if sum(s.label for s in samples) * 2 > len(samples) else 0
    for budget in (1, 2, 5, 10, 50):
        model = train_tree(samples, TreeConfig(max_leaf_nodes=budget))
        assert model.leaf_count <= budget
    single = train_tree(samples, TreeConfig(max_leaf_nodes=1))
    assert single.leaf_count == 1
    assert single.predict(samples[0].features) == majority


def test_training_accuracy_is_monotone_in_budget():
    samples = labeled_set(600, seed=3)
    accuracies = []
    for budget in (1, 2, 5, 10, 50):
        model = train_tree(samples, TreeConfig(max_leaf_nodes=budget))
        hits = sum(model.predict(s.features) == s.label for s in samples)
        accuracies.append(hits / len(samples))
    assert accuracies == sorted(accuracies)


def test_impurity_bookkeeping_identity():
    samples = labeled_set(800, seed=8)
    model = train_tree(samples, TreeConfig(max_leaf_nodes=50))
    criterion = model.config.criterion

    def node_stats(node):
        if isinstance(node, Split):
            return node.impurity, node.n
        return impurity(node.counts, criterion), sum(node.counts)

    total = node_stats(model.nodes[0])[1]
    gain_sum = 0.0
    leaf_term = 0.0
    for node in model.nodes:
        if isinstance(node, Split):
            li, ln = node_stats(model.nodes[node.left])
            ri, rn = node_stats(model.nodes[node.right])
            delta = node.impurity - (ln / node.n) * li - (rn / node.n) * ri
            assert delta > 0.0
            gain_sum += (node.n / total) * delta
        else:
            leaf_term += (sum(node.counts) / total) * impurity(node.counts, criterion)
    root_impurity = node_stats(model.nodes[0])[0]
    assert abs(gain_sum - (root_impurity - leaf_term)) <= 1e-9


def test_every_training_sample_lands_in_a_leaf_that_counted_it():
    samples = labeled_set(500, seed=21)
    model = train_tree(samples, TreeConfig(max_leaf_nodes=20))
    tallies = {i: [0, 0] for i, node in enumerate(model.nodes)
               if isinstance(node, Leaf)}
    for s in samples:
        node_id = 0
        while isinstance(model.nodes[node_id], Split):
            node = model.nodes[node_id]
            node_id = node.left if s.features[node.feature] <= node.threshold else node.right
        tallies[node_id][s.label] += 1
    for node_id, tally in tallies.items():
        assert tuple(tally) == model.nodes[node_id].counts


def test_training_is_deterministic_on_a_probe_grid():
    samples = labeled_set(700, seed=5)
    a = train_tree(samples, TreeConfig(max_leaf_nodes=50))
    b = train_tree(samples, TreeConfig(max_leaf_nodes=50))
    rng = np.random.default_rng(0)
    probes = rng.uniform([0, 0, 0, 0, 0, 990], [45, 30, 1, 23, 16, 1040],
                         size=(1000, 6))
    assert [a.predict(p) for p in probes] == [b.predict(p) for p in probes]
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------- prediction

def test_single_leaf_predicts_its_class_everywhere():
    model = TreeModel(config=TreeConfig(), nodes=[Leaf(label=1, counts=(0, 3))],
                      n_features=6)
    assert model.predict((0.0,) * 6) == 1


def test_routing_follows_the_threshold():
    nodes = [Split(feature=0, threshold=21.5, left=1, right=2, impurity=0.5, n=2),
             Leaf(label=1, counts=(0, 1)), Leaf(label=0, counts=(1, 0))]
    model = TreeModel(config=TreeConfig(), nodes=nodes, n_features=6)
    assert model.predict((30.0, 0, 0, 0, 0, 0)) == 0
    assert model.predict((21.5, 0, 0, 0, 0, 0)) == 1  # left on equality


def test_wrong_arity_is_an_error():
    model = train_tree(labeled_set(50, seed=1), TreeConfig())
    with pytest.raises(ValueError):
        model.predict((1.0, 2.0))


# ---------------------------------------------------------------- persistence

def test_json_round_trip_preserves_predictions(tmp_path):
    samples = labeled_set(400, seed=13)
    model = train_tree(samples, TreeConfig(max_leaf_nodes=50))
    path = tmp_path / "tree.json"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(2)
    probes = rng.uniform([0, 0, 0, 0, 0, 990], [45, 30, 1, 23, 16, 1040],
                         size=(1000, 6))
    assert [model.predict(p) for p in probes] == [loaded.predict(p) for p in probes]
    assert loaded.config == model.config


def test_version_mismatch_names_both_versions():
    model = train_tree([((1.0,), 0), ((2.0,), 1)], TreeConfig())
    doc = model.to_dict()
    doc["version"] = 99
    with pytest.raises(ValueError, match="99.*version 3"):
        TreeModel.from_dict(doc)
    # A version 2 document, which still held config.min_samples_leaf.
    doc.update(version=2, config={**doc["config"], "min_samples_leaf": 1})
    with pytest.raises(ValueError, match="^unsupported tree model version 2; "
                                         "this build reads version 3$"):
        TreeModel.from_dict(doc)


def test_truncated_document_fails_to_load(tmp_path):
    model = train_tree([((1.0,), 0), ((2.0,), 1)], TreeConfig())
    path = tmp_path / "tree.json"
    save_model(model, path)
    path.write_text(path.read_text()[:40])
    with pytest.raises(ValueError):
        load_model(path)


def test_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(criterion="mse")
    with pytest.raises(ValueError):
        TreeConfig(max_leaf_nodes=0)


def test_entropy_criterion_trains_and_serializes(tmp_path):
    samples = labeled_set(300, seed=17)
    model = train_tree(samples, TreeConfig(criterion="entropy", max_leaf_nodes=10))
    assert model.leaf_count <= 10
    path = tmp_path / "tree.json"
    save_model(model, path)
    assert json.loads(path.read_text())["config"]["criterion"] == "entropy"
    assert load_model(path).predict(samples[0].features) in (0, 1)


def stump_document():
    nodes = [Split(feature=0, threshold=21.5, left=1, right=2, impurity=0.5, n=2),
             Leaf(label=1, counts=(0, 1)), Leaf(label=0, counts=(1, 0))]
    return TreeModel(config=TreeConfig(), nodes=nodes, n_features=6).to_dict()


@pytest.mark.parametrize("link,value", [("left", 0), ("right", 0), ("left", 3),
                                        ("right", 7), ("left", -1)])
def test_split_children_must_follow_their_parent_and_exist(link, value):
    doc = stump_document()
    doc["nodes"][0][link] = value
    with pytest.raises(ValueError, match="child ids"):
        TreeModel.from_dict(doc)


def test_split_feature_must_be_below_n_features():
    doc = stump_document()
    doc["nodes"][0]["feature"] = 6
    with pytest.raises(ValueError, match="n_features"):
        TreeModel.from_dict(doc)


@pytest.mark.parametrize("kind", ["banana", "Leaf", None])
def test_a_node_type_other_than_split_or_leaf_is_refused(tmp_path, kind):
    doc = stump_document()
    doc["nodes"][2]["type"] = kind
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == (f"{path}: tree node 2: type must be 'split' or 'leaf', "
                              f"got {kind!r}")


@pytest.mark.parametrize("label,counts", [(0, [1, 0]), (1, [0, 1]), (0, [2, 2]),
                                          (0, [0, 0])])
def test_leaf_label_must_be_the_majority_of_its_counts(label, counts):
    doc = stump_document()
    doc["nodes"][1].update(label=label, counts=counts)
    assert TreeModel.from_dict(doc).nodes[1] == Leaf(label=label, counts=tuple(counts))
    doc["nodes"][1]["label"] = 1 - label
    with pytest.raises(ValueError, match="tree node 1: label .* is not the majority"):
        TreeModel.from_dict(doc)


# A label must be a JSON integer: 1.0 and true are rejected like "1".
@pytest.mark.parametrize("label", [2, -1, None, "1", [1], 1.0, True])
def test_leaf_label_outside_its_majority_is_rejected(label):
    doc = stump_document()
    doc["nodes"][1]["label"] = label
    with pytest.raises(ValueError, match="tree node 1: label"):
        TreeModel.from_dict(doc)


@pytest.mark.parametrize("counts", [[0, 1, 0], [1], [], [-1, 2], [0.0, 1], [True, 2],
                                    ["0", "1"], "01"])
def test_leaf_counts_must_be_two_non_negative_ints(counts):
    doc = stump_document()
    doc["nodes"][1]["counts"] = counts
    with pytest.raises(ValueError, match="tree node 1: counts must be two"):
        TreeModel.from_dict(doc)


def two_split_document():
    nodes = [Split(feature=0, threshold=20.0, left=1, right=2, impurity=0.5, n=4),
             Split(feature=1, threshold=5.0, left=3, right=4, impurity=0.5, n=2),
             Leaf(label=0, counts=(2, 0)), Leaf(label=1, counts=(0, 1)),
             Leaf(label=0, counts=(1, 0))]
    return TreeModel(config=TreeConfig(), nodes=nodes, n_features=6).to_dict()


@pytest.mark.parametrize("edit", [
    lambda nodes: nodes[1].update(left=2),   # node 2 has two parents, 3 none
    lambda nodes: nodes[1].update(right=3),  # both children of node 1 are node 3
    lambda nodes: nodes[0].update(right=3),  # node 3 has two parents, 2 none
    lambda nodes: nodes.append({"id": 5, "type": "leaf", "label": 0,
                                "counts": [1, 0]}),  # node 5 has no parent
], ids=["shared-child", "same-child-twice", "cross-link", "orphan"])
def test_every_node_but_the_root_has_exactly_one_parent(edit):
    doc = two_split_document()
    assert TreeModel.from_dict(doc).predict((25.0, 0, 0, 0, 0, 0)) == 0
    edit(doc["nodes"])
    with pytest.raises(ValueError, match="not a tree"):
        TreeModel.from_dict(doc)


def test_split_numbers_may_be_json_ints():
    doc = two_split_document()
    doc["nodes"][1].update(threshold=5, impurity=0)
    model = TreeModel.from_dict(doc)
    assert (model.nodes[1].threshold, model.nodes[1].impurity) == (5.0, 0.0)
    assert type(model.nodes[1].threshold) is float


# A split's threshold and impurity must be finite JSON numbers, not strings or
# bools; an impurity must also be >= 0. A NaN threshold would route every
# query right.
@pytest.mark.parametrize("key,value,expected", [
    ("threshold", math.nan, "a finite number, got nan"),
    ("threshold", "nan", "a finite number, got 'nan'"),
    ("threshold", "20.5", "a finite number, got '20.5'"),
    ("threshold", True, "a finite number, got True"),
    ("threshold", -math.inf, "a finite number, got -inf"),
    ("impurity", math.nan, "a finite non-negative number, got nan"),
    ("impurity", "0.5", "a finite non-negative number, got '0.5'"),
    ("impurity", -1, "a finite non-negative number, got -1"),
    # An int beyond the float range, which float() cannot convert.
    pytest.param("threshold", 10**400, f"a finite number, got {10**400}",
                 id="threshold-int-beyond-float"),
    pytest.param("impurity", -10**400, f"a finite non-negative number, got {-10**400}",
                 id="impurity-int-beyond-float"),
])
def test_a_split_number_that_is_no_finite_json_number_exits_2_naming_the_node(
        tmp_path, capsys, key, value, expected):
    doc = two_split_document()
    doc["nodes"][1][key] = value
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    argv = ["predict", "--model", str(path), "--temp", "25", "--wind", "0",
            "--humidity", "0.3", "--hour", "12", "--visibility", "10",
            "--barometer", "1010", "--rain", "0"]
    assert main(argv) == 2  # predict closes the dome before it reports the error
    assert capsys.readouterr() == (
        "D:0 A:1\n", f"domepilot: error: {path}: tree node 1: {key} must be {expected}; "
        "dome closed\n")
