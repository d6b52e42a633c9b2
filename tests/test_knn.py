import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from domepilot.cli import load_model, save_model
from domepilot.knn import _squared_distances, _standardize
from domepilot.knnmodel import KnnModel, default_k, train_knn

SRC = Path(__file__).resolve().parents[1] / "src"


def toy_samples(rows):
    return [(tuple(map(float, features)), label) for features, label in rows]


def oracle_predict(train_features, train_labels, k, query):
    """Sort every (distance, index) pair and vote; the same tie rule."""
    ranked = sorted(
        (math.dist(query, features), index)
        for index, features in enumerate(train_features)
    )
    votes = [train_labels[index] for _, index in ranked[:k]]
    ones = sum(votes)
    if 2 * ones > k:
        return 1
    if 2 * ones < k:
        return 0
    return 0  # even-k exact tie falls back to closed


def loop_squared_distances(q, train):
    """Squared distances from q to each (row-major) row, feature by feature."""
    sq = np.zeros(train.shape[0])
    for j in range(q.size):
        diff = q[j] - train[:, j]
        sq += diff * diff
    return sq


def argsort_predict(model, query):
    """The full-sort selection: stable argsort of every squared distance.

    Distances are accumulated feature by feature over the row-major
    transformed training set, so they are bit-identical to the model's.
    """
    q = np.asarray(query, dtype=float)
    train = np.asarray(model.features)
    if model.scaling == "standardize":
        stats = np.asarray(model.means), np.asarray(model.stds)
        q, train = _standardize(q, *stats), _standardize(train, *stats)
    nearest = np.argsort(loop_squared_distances(q, train), kind="stable")[:model.k]
    return int(np.asarray(model.labels)[nearest].sum() * 2 > model.k)


def random_instance(rng, n_features=6):
    n = int(rng.integers(3, 40))
    features = rng.integers(0, 5, size=(n, n_features)).astype(float)
    labels = rng.integers(0, 2, size=n)
    k = int(rng.integers(1, n + 1))
    return features, labels, k


# ---------------------------------------------------------------- default k

@pytest.mark.parametrize("n,k", [(19964, 141), (1, 1), (16, 3), (2, 1),
                                 (9, 3), (8, 1), (10000, 99)])
def test_default_k_square_root_rule_forced_odd(n, k):
    assert default_k(n) == k
    assert default_k(n) % 2 == 1


def test_default_k_rejects_empty():
    with pytest.raises(ValueError):
        default_k(0)


# ---------------------------------------------------------------- training

def test_training_stores_the_data_verbatim():
    samples = toy_samples([((1, 0, 0, 0, 0, 0), 0), ((2, 0, 0, 0, 0, 0), 1),
                           ((3, 0, 0, 0, 0, 0), 1)])
    model = train_knn(samples, k=3)
    assert model.features == tuple(features for features, _ in samples)
    assert all(type(v) is float for row in model.features for v in row)
    assert model.labels == (0, 1, 1)
    assert model.k == 3


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError, match="one length"):
        train_knn([((0.0,) * 6, 0), ((1.0,) * 5, 1)], k=1)


def test_features_and_labels_must_align():
    with pytest.raises(ValueError, match="must align"):
        KnnModel([(0.0,) * 6, (1.0,) * 6], [0], k=1, scaling="none")


def test_k_bounds_are_enforced():
    samples = toy_samples([((0, 0, 0, 0, 0, 0), 0), ((1, 1, 1, 1, 1, 1), 1)])
    with pytest.raises(ValueError):
        train_knn(samples, k=0)
    with pytest.raises(ValueError):
        train_knn(samples, k=3)
    with pytest.raises(ValueError):
        train_knn([], k=1)


def test_constant_feature_is_excluded_from_standardized_distance():
    # Barometer constant: with standardization its z-score is 0 on both sides,
    # so a query's barometer, however far off, cannot change its neighbors.
    samples = toy_samples([((1, 2, 0.1, 4, 10, 1020), 0),
                           ((2, 1, 0.3, 5, 12, 1020), 1),
                           ((3, 5, 0.8, 6, 14, 1020), 1),
                           ((9, 9, 0.9, 9, 19, 1020), 0)])
    model = train_knn(samples, k=1, scaling="standardize")
    assert model.stds[5] == 0.0
    for barometer in (900.0, 1020.0, 1e9):
        assert [model.predict((*features[:5], barometer)) for features, _ in samples] \
            == [label for _, label in samples]


def test_distance_arity_mismatch():
    # The distance needs one query feature per training feature, scaled or not.
    samples = toy_samples([((0, 1, 2, 3, 4, 5), 0), ((5, 4, 3, 2, 1, 0), 1)])
    for scaling in ("none", "standardize"):
        model = train_knn(samples, k=1, scaling=scaling)
        for width in (5, 7):
            with pytest.raises(ValueError, match=f"expected 6 features, got {width}"):
                model.predict((1.0,) * width)


def test_distance_requires_stats_for_standardize():
    rows = [[0.0] * 6, [1.0] * 6]
    for stats in ({}, {"means": [0.0] * 6}, {"stds": [1.0] * 6}):
        with pytest.raises(ValueError, match="requires means and stds"):
            KnnModel(features=rows, labels=[0, 1], k=1, scaling="standardize", **stats)
    doc = train_knn(list(zip(map(tuple, rows), [0, 1])), k=1, scaling="standardize").to_dict()
    del doc["stats"]
    with pytest.raises(ValueError, match="requires means and stds"):
        KnnModel.from_dict(doc)


# ---------------------------------------------------------------- prediction

def test_exact_match_with_k1():
    samples = toy_samples([((0, 0, 0, 0, 0, 0), 0), ((5, 5, 5, 5, 5, 5), 1)])
    model = train_knn(samples, k=1)
    assert model.predict((5, 5, 5, 5, 5, 5)) == 1
    assert model.predict((0.1, 0, 0, 0, 0, 0)) == 0


def test_majority_of_three_nearest():
    samples = toy_samples([((0, 0, 0, 0, 0, 0), 1), ((1, 0, 0, 0, 0, 0), 1),
                           ((2, 0, 0, 0, 0, 0), 0), ((9, 9, 9, 9, 9, 9), 0)])
    model = train_knn(samples, k=3)
    assert model.predict((0.5, 0, 0, 0, 0, 0)) == 1


def test_wrong_arity_query_is_an_error():
    model = train_knn(toy_samples([((0,) * 6, 0), ((1,) * 6, 1)]), k=1)
    with pytest.raises(ValueError):
        model.predict((1.0, 2.0))


def test_predictions_match_the_sort_and_vote_oracle():
    rng = np.random.default_rng(7)
    trials = 0
    while trials < 220:
        features, labels, k = random_instance(rng)
        model = train_knn(list(zip(map(tuple, features), labels)), k=k)
        queries = rng.integers(0, 5, size=(5, 6)).astype(float)
        for q in queries:
            expected = oracle_predict(features, labels, k, q)
            assert model.predict(q) == expected
        trials += 1


@st.composite
def knn_cases(draw):
    """Small-integer features, so equal distances, duplicates and ties abound."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    cell = st.integers(0, 3).map(float)
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                         min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    k = draw(st.integers(1, n))
    scaling = draw(st.sampled_from(("none", "standardize")))
    queries = draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                            min_size=1, max_size=4))
    return rows, labels, k, scaling, queries


ORIGIN = [0.0] * 6


@given(case=knn_cases())
@settings(max_examples=300, deadline=None)
# Six duplicated rows outnumber k = 3; the three lowest-index ones vote 1.
@example(case=([ORIGIN] * 6 + [[3.0] * 6],
               [1, 1, 1, 0, 0, 0, 0], 3, "none", [ORIGIN]))
# One row strictly closer, then four tied at the k-th distance of which
# only the two lowest-index ones are taken.
@example(case=([[0.0], [1.0], [-1.0], [1.0], [-1.0], [5.0]],
               [0, 1, 1, 0, 0, 1], 3, "none", [[0.0]]))
# k = 1 with an exact tie: the lower index wins.
@example(case=([[2.0], [0.0]], [1, 0], 1, "none", [[1.0]]))
# k = n: the global majority.
@example(case=([[0.0], [1.0], [2.0], [3.0], [3.0]],
               [1, 1, 0, 1, 0], 5, "none", [[0.0], [3.0]]))
# Even k with an exact 2-2 vote tie predicts 0.
@example(case=([[0.0], [1.0], [2.0], [3.0], [9.0]],
               [1, 0, 1, 0, 1], 4, "none", [[0.0]]))
# Standardize with a zero-variance column, which must not count.
@example(case=([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]],
               [0, 1, 1, 0], 1, "standardize", [[1.0, 0.0], [2.0, 9.0]]))
def test_partition_selection_matches_the_argsort_reference(case):
    rows, labels, k, scaling, queries = case
    model = train_knn(list(zip(map(tuple, rows), labels)), k=k, scaling=scaling)
    for query in queries:
        assert model.predict(query) == argsort_predict(model, query)


@st.composite
def screen_cases(draw):
    """Rows on which the screen's rounding decides which rows survive.

    A small integer grid is mapped onto: a common offset of 1e6-1e12 plus
    unit differences (|x|² dwarfs every distance, so the gemv keeps none of
    the digits that order the rows); features a few ulps apart, with the
    query on the grid or at the origin (distances then differ by an ulp or
    two); features around 1e-160 and subnormals (squares underflow); and
    features near 1e153-1e300 (norms or distances overflow).
    """
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(("offset", "ulp", "tiny", "huge")))
    if kind == "offset":
        base = draw(st.floats(1e6, 1e12)) * draw(st.sampled_from((1, -1)))
        cell = st.integers(-3, 3).map(lambda c: base + c)
    elif kind == "ulp":
        base = draw(st.floats(1e-3, 1e15))
        cell = st.integers(-3, 3).map(lambda c: base + c * math.ulp(base))
    else:
        scales = ((1e-160, 3e-162, 1e-310, 5e-324) if kind == "tiny"
                  else (1e153, 3e153, 5e153, 1e154, 1e200, 1e300))
        scale = draw(st.sampled_from(scales))
        cell = st.integers(-3, 3).map(lambda c: c * scale)
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    k = draw(st.integers(1, n))
    scaling = draw(st.sampled_from(("none", "standardize")))
    query_cell = st.just(0.0) if kind == "ulp" and draw(st.booleans()) else cell
    queries = draw(st.lists(st.lists(query_cell, min_size=d, max_size=d),
                            min_size=1, max_size=4))
    return rows, labels, k, scaling, queries


@given(case=screen_cases())
@settings(max_examples=500, deadline=None)
# Neither norm overflows, but both distances do: the rows tie at infinity
# and the lower index wins, though its a_i overflowed and the other's did
# not. Only the infinite cutoff, taken when 4 S overflows, keeps row 0.
@example(case=([[9e153], [5e153]], [1, 0], 1, "none", [[-9e153]]))
# Both squared distances are 4 s² (7.3 tiny, rounded to 7 tiny), but a_0 is
# 6 tiny and a_1 is 5 tiny: the underflow term of E keeps row 0.
@example(case=([[-3e-162], [9e-162]], [1, 0], 1, "none", [[3e-162]]))
# 1e12 plus units: |x|² is ~1e24, so a_i is rounded to ~1e8.
@example(case=([[1e12 + 3], [1e12 + 2], [1e12 + 1], [1e12]], [0, 0, 0, 1], 1, "none",
               [[1e12]]))
def test_the_screen_keeps_every_row_of_the_k_nearest(case):
    rows, labels, k, scaling, queries = case
    with np.errstate(all="ignore"):
        try:
            model = train_knn(list(zip(map(tuple, rows), labels)), k=k, scaling=scaling)
        except ValueError:  # the stats or z-scores of huge features overflow
            reject()
        for query in queries:
            assert model.predict(query) == argsort_predict(model, query)


def test_squared_distances_match_the_per_feature_loop_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(300):
        d, n = int(rng.integers(1, 13)), int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-8, 8, size=d)
        train = rng.standard_normal((n, d)) * scale
        q = rng.standard_normal(d) * scale
        assert (_squared_distances(q, np.ascontiguousarray(train.T)).tobytes()
                == loop_squared_distances(q, train).tobytes())


def test_partition_selection_matches_scipy_on_tie_free_data():
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(17)
    features = rng.uniform(0, 10, size=(400, 6))
    labels = rng.integers(0, 2, size=400)
    queries = rng.uniform(0, 10, size=(40, 6))
    for query in queries:
        gaps = np.diff(np.sort(np.linalg.norm(features - query, axis=1)))
        assert gaps.min() > 1e-9  # no distance ties anywhere
    tree = spatial.cKDTree(features)
    for k in (1, 7, 19, 400):
        model = train_knn(list(zip(map(tuple, features), labels)), k=k)
        for query in queries:
            _, nearest = tree.query(query, k=k)
            expected = int(labels[np.atleast_1d(nearest)].sum() * 2 > k)
            assert model.predict(query) == expected


def test_prediction_does_not_import_scipy():
    script = ("import sys, domepilot\n"
              "from domepilot.knnmodel import train_knn\n"
              "model = train_knn([((0.0,) * 6, 0), ((1.0,) * 6, 1)], k=1)\n"
              "assert model.predict((1.0,) * 6) == 1\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_query_features_are_rejected(bad):
    model = train_knn(toy_samples([((0,) * 6, 0), ((1,) * 6, 1)]), k=1)
    for column in (0, 5):
        query = [0.5] * 6
        query[column] = bad
        with pytest.raises(ValueError, match="finite"):
            model.predict(query)


def test_standardized_overflow_is_rejected():
    # Two infinite z-scores would meet as inf - inf, a NaN distance.
    with pytest.raises(ValueError, match="overflow"), np.errstate(over="ignore"):
        KnnModel(features=[[1e300, 0.0], [-1e300, 0.0]], labels=[0, 1], k=1,
                 scaling="standardize", means=[0.0, 0.0], stds=[1e-300, 1.0])


def test_a_standardized_query_that_overflows_is_rejected():
    # Within float range, but its standardized squared norm is not.
    model = train_knn(toy_samples([((0,) * 6, 0), ((1,) * 6, 1)]), k=1,
                      scaling="standardize")
    with pytest.raises(ValueError, match="^standardized query overflows; stds too small$"):
        model.predict([1e300] + [0.5] * 5)


def test_k_equals_n_returns_the_global_majority():
    rng = np.random.default_rng(3)
    features = rng.uniform(0, 10, size=(25, 6))
    labels = np.array([1] * 14 + [0] * 11)
    model = train_knn(list(zip(map(tuple, features), labels)), k=25)
    for q in rng.uniform(0, 10, size=(10, 6)):
        assert model.predict(q) == 1


def test_prediction_invariant_under_training_permutation():
    rng = np.random.default_rng(5)
    features = rng.uniform(0, 10, size=(30, 6))
    labels = rng.integers(0, 2, size=30)
    query = rng.uniform(0, 10, size=6)
    dists = sorted(math.dist(query, f) for f in features)
    assert min(b - a for a, b in zip(dists, dists[1:])) > 0  # no ties fire
    base = train_knn(list(zip(map(tuple, features), labels)), k=7).predict(query)
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(30)
        shuffled = train_knn(list(zip(map(tuple, features[order]), labels[order])), k=7)
        assert shuffled.predict(query) == base


def test_standardized_predictions_survive_feature_rescaling():
    rng = np.random.default_rng(11)
    features = rng.uniform(0, 10, size=(40, 6))
    labels = rng.integers(0, 2, size=40)
    queries = rng.uniform(0, 10, size=(15, 6))
    base = train_knn(list(zip(map(tuple, features), labels)), k=5,
                     scaling="standardize")
    expected = [base.predict(q) for q in queries]
    for column, factor in ((0, 4.0), (3, 0.25), (5, 4.0)):
        scaled = features.copy()
        scaled[:, column] *= factor
        model = train_knn(list(zip(map(tuple, scaled), labels)), k=5,
                          scaling="standardize")
        for q, want in zip(queries, expected):
            qs = q.copy()
            qs[column] *= factor
            assert model.predict(qs) == want


def test_distance_ties_break_toward_the_lower_training_index():
    # Two training points equidistant from the query but with opposite labels.
    samples = toy_samples([((2, 0, 0, 0, 0, 0), 1), ((0, 0, 0, 0, 0, 0), 0),
                           ((9, 9, 9, 9, 9, 9), 0)])
    model = train_knn(samples, k=1)
    assert model.predict((1, 0, 0, 0, 0, 0)) == 1


# ---------------------------------------------------------------- persistence

def test_json_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(9)
    features = rng.uniform(0, 10, size=(50, 6))
    labels = rng.integers(0, 2, size=50)
    for scaling in ("none", "standardize"):
        model = train_knn(list(zip(map(tuple, features), labels)), k=7,
                          scaling=scaling)
        path = tmp_path / f"knn-{scaling}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.k == 7 and loaded.scaling == scaling
        assert (loaded.means, loaded.stds) == (model.means, model.stds)
        probes = rng.uniform(0, 10, size=(100, 6))
        assert [model.predict(p) for p in probes] == [loaded.predict(p) for p in probes]


def test_version_mismatch_names_both_versions():
    model = train_knn(toy_samples([((0,) * 6, 0), ((1,) * 6, 1)]), k=1)
    doc = model.to_dict()
    doc["version"] = 7
    with pytest.raises(ValueError, match="7.*version 1"):
        KnnModel.from_dict(doc)


def test_non_binary_labels_are_rejected_at_training_and_on_load():
    with pytest.raises(ValueError, match="0/1"):
        train_knn(toy_samples([((0,) * 6, 0), ((1,) * 6, 7)]), k=1)
    doc = train_knn(toy_samples([((0,) * 6, 0), ((1,) * 6, 1)]), k=1).to_dict()
    for bad in (7, -1):
        doc["data"][1][-1] = bad
        with pytest.raises(ValueError, match="0/1"):
            KnnModel.from_dict(doc)
    # A document label must be a JSON integer, so 0.5, 1.0 and true fail first.
    for bad in (0.5, 1.0, True):
        doc["data"][1][-1] = bad
        with pytest.raises(ValueError, match="data row 1: label must be an integer"):
            KnnModel.from_dict(doc)
