import copy
import datetime
import functools
import json
import logging
import math
import subprocess
import sys
import types
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from domepilot import knn
from domepilot.cli import load_model, save_model
from domepilot.controller import replay
from domepilot.knn import _squared_distances, _standardize
from domepilot.knnmodel import KnnModel, default_k, train_knn
from domepilot.raw import ConditionTable, SensorFrame, WeatherObservation

from conftest import src_env


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


def _screen_cell(draw):
    """(kind, cell strategy) for one of the screen's rounding regimes."""
    kind = draw(st.sampled_from(("offset", "ulp", "tiny", "huge")))
    if kind == "offset":
        base = draw(st.floats(1e6, 1e12)) * draw(st.sampled_from((1, -1)))
        return kind, st.integers(-3, 3).map(lambda c: base + c)
    if kind == "ulp":
        base = draw(st.floats(1e-3, 1e15))
        return kind, st.integers(-3, 3).map(lambda c: base + c * math.ulp(base))
    scales = ((1e-160, 3e-162, 1e-310, 5e-324) if kind == "tiny"
              else (1e153, 3e153, 5e153, 1e154, 1e200, 1e300))
    scale = draw(st.sampled_from(scales))
    return kind, st.integers(-3, 3).map(lambda c: c * scale)


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
    kind, cell = _screen_cell(draw)
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


# ---------------------------------------------------------------- sampled selection
#
# Kernel.vote selects the k-th screen value through a strided sample only for
# n >= MIN_STRIDE * 8k rows, which no case above reaches. These cases set the
# kernel's stride and rank directly, so a few dozen rows take that path.


def with_sample(model, stride, rank):
    kernel = model._kernel or model._build_kernel()
    kernel.stride, kernel.rank = stride, rank
    return model


@st.composite
def sampled_cases(draw):
    """n >= 16 k rows of small integers (ties at the k-th distance abound) or
    of screen-rounding cells, with a stride of 2 or more and a rank at most
    the sample's size; small ranks often bound too few rows."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(16 * k, 16 * k + 24))
    if draw(st.booleans()):
        kind, cell = "small", st.integers(0, 3).map(float)
    else:
        kind, cell = _screen_cell(draw)
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    stride = draw(st.integers(2, n // (8 * k)))
    rank = draw(st.integers(1, min(2 * k, len(range(0, n, stride)))))
    scaling = draw(st.sampled_from(("none", "standardize")))
    query_cell = st.just(0.0) if kind == "ulp" and draw(st.booleans()) else cell
    queries = draw(st.lists(st.lists(query_cell, min_size=d, max_size=d),
                            min_size=1, max_size=4))
    return rows, labels, k, scaling, queries, stride, rank


# Row 29 is nearest, and the fifteen other odd rows tie at the k-th distance.
# None of them is in the sample (the even rows); only row 1 may vote with it.
TIES_OFF_SAMPLE = ([[9.0] if i % 2 == 0 else [0.0] if i == 29 else [1.0] for i in range(32)],
                   [int(i in (1, 29)) for i in range(32)], 2, "none", [[0.0]], 2, 1)


@given(case=sampled_cases())
@settings(max_examples=300, deadline=None)
@example(case=TIES_OFF_SAMPLE)
@example(case=TIES_OFF_SAMPLE[:3] + ("standardize",) + TIES_OFF_SAMPLE[4:])
# The sample's smallest value is the overall smallest: too few rows are kept,
# so the vote falls back to one partition of every row.
@example(case=([[0.0]] + [[float(i)] for i in range(5, 36)], [1] + [0, 1] * 15 + [0], 2,
               "none", [[0.0], [20.0]], 2, 1))
# Norms overflow: every row survives and no sample is taken.
@example(case=([[1e300], [-1e300]] * 16, [0, 1] * 16, 2, "none", [[1e300]], 2, 1))
def test_sampled_selection_matches_the_argsort_reference(case):
    rows, labels, k, scaling, queries, stride, rank = case
    with np.errstate(all="ignore"):
        try:
            model = train_knn(list(zip(map(tuple, rows), labels)), k=k, scaling=scaling)
        except ValueError:  # the stats or z-scores of huge features overflow
            reject()
        with_sample(model, stride, rank)
        for query in queries:
            assert model.predict(query) == argsort_predict(model, query)


@st.composite
def survivor_cases(draw):
    """Screen values with many ties, k, a stride, a rank (0: no sample) and a margin."""
    a = draw(st.lists(st.integers(0, 12).map(float), min_size=2, max_size=80))
    k = draw(st.integers(1, len(a)))
    stride = draw(st.integers(2, len(a)))
    rank = draw(st.integers(0, len(range(0, len(a), stride))))
    margin = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]))
    return a, k, stride, rank, margin


@given(case=survivor_cases())
@settings(max_examples=500, deadline=None)
# u = 3, the sample's smallest; rows 0 and 1 are kept, but the second kept
# value, 4, exceeds u, and row 3, at 5, survives without being kept: the
# selection must fall back to one partition of every row.
@example(case=([3.0, 4.0, 9.0, 5.0, 9.0, 9.0], 2, 2, 1, 1.5))
def test_survivors_are_the_rows_one_partition_of_every_row_keeps(case):
    """The selection alone, on any screen values and margin: the rows at or
    below the k-th smallest plus the margin, in index order."""
    a, k, stride, rank, margin = case
    a = np.array(a)
    selection = types.SimpleNamespace(k=k)
    u = np.partition(a[::stride], rank - 1)[rank - 1] if rank else None
    expected = np.flatnonzero(a <= np.partition(a, k - 1)[k - 1] + margin)
    assert knn.Kernel._survivors(selection, a, margin, u).tolist() == expected.tolist()


def test_sampled_selection_takes_both_paths(monkeypatch):
    """Over seeded small-integer cases, the sample settles some votes and the
    single partition of every row others; both agree with the reference."""
    sizes = []

    def spy(values, k):
        sizes.append(values.size)
        return np.partition(values, k - 1)[k - 1]
    monkeypatch.setattr(knn, "_kth_smallest", spy)
    rng = np.random.default_rng(29)
    paths = Counter()
    for _ in range(150):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(16 * k, 16 * k + 40))
        features = rng.integers(0, 4, size=(n, int(rng.integers(1, 5)))).astype(float)
        labels = rng.integers(0, 2, size=n)
        scaling = ("none", "standardize")[int(rng.integers(2))]
        model = train_knn(list(zip(map(tuple, features), labels)), k=k, scaling=scaling)
        stride = int(rng.integers(2, n // (8 * k) + 1))
        with_sample(model, stride, int(rng.integers(1, 2 * k + 1)))
        for query in rng.integers(0, 4, size=(4, features.shape[1])).astype(float):
            sizes.clear()
            assert model.predict(query) == argsort_predict(model, query)
            # Fewer than n values in the last partition: the kept rows settled
            # the vote. A third partition: they failed the check. Two of n
            # values: all rows were kept, or too few, so either path.
            paths["sample" if sizes[-1] < n else "partition" if len(sizes) == 3 else "either"] += 1
    assert paths["sample"] > 0 and paths["partition"] > 0, paths


# ---------------------------------------------------------------- batch votes
#
# Kernel.votes screens BLOCK queries with one matrix product and then selects
# and votes row by row as Kernel.vote does. Its rounding differs from the
# gemv's, so these cases check that the bound still keeps every vote.


def votes_until_refused(predictions):
    """The predictions drawn from an iterable up to the first refusal, and that error."""
    votes = []
    try:
        for prediction in predictions:
            votes.append(prediction)
    except (TypeError, ValueError) as exc:
        return votes, repr(exc)
    return votes, None


@given(case=st.one_of(knn_cases(), screen_cases(), sampled_cases()))
@settings(max_examples=300, deadline=None)
def test_the_batch_votes_as_one_query_at_a_time(case):
    rows, labels, k, scaling, queries, *sample = case
    queries = queries * 3  # up to 12 queries: a full block and a partial one
    with np.errstate(all="ignore"):
        try:
            model = train_knn(list(zip(map(tuple, rows), labels)), k=k, scaling=scaling)
        except ValueError:  # the stats or z-scores of huge features overflow
            reject()
        if sample:
            with_sample(model, *sample)
        single = votes_until_refused(model.predict(query) for query in queries)
        assert votes_until_refused(model.predict_many(queries)) == single


def _grid_model(n, k=None, scaling="none", seed=0):
    rng = np.random.default_rng(seed)
    features = rng.integers(0, 20, size=(n, 6)).astype(float)
    labels = rng.integers(0, 2, size=n)
    return train_knn(list(zip(map(tuple, features), labels)), k=k or default_k(n),
                     scaling=scaling)


def _tie_block_model():
    # 12 copies of one vector outnumber k = 5; the five lowest-index copies vote 1.
    rows = [ORIGIN] * 12 + [[float(i)] * 6 for i in range(1, 9)]
    return train_knn(toy_samples(zip(rows, [1] * 5 + [0] * 15)), k=5)


def _even_k_tie_model():
    # At [0] * 6 the four nearest vote 2-2, so the prediction is 0.
    rows = [[float(x)] * 6 for x in (0, 1, 2, 3, 9, 9)]
    return train_knn(toy_samples(zip(rows, [1, 0, 1, 0, 1, 1])), k=4)


@pytest.mark.parametrize("build,branch", [
    (lambda: _grid_model(6_500), "sampled"),  # k = 79, stride 10
    (lambda: _grid_model(300), "single partition"),
    (lambda: _grid_model(6_500, scaling="standardize"), "sampled"),
    (lambda: train_knn(toy_samples(zip([[s * 1e300] * 6 for s in (1, -1, 2, -2) * 5],
                                       [0, 1, 1, 0] * 5)), k=3), "all survive"),
    (_tie_block_model, "single partition"),
    (_even_k_tie_model, "single partition"),
])
def test_batch_single_and_oracle_agree_on_every_branch(build, branch):
    with np.errstate(over="ignore"):
        model = build()
    kernel = model._build_kernel()
    assert branch == ("all survive" if not 4 * kernel.max_norm < math.inf
                      else "sampled" if kernel.rank else "single partition")
    rng = np.random.default_rng(len(model.labels))
    queries = [ORIGIN, *rng.integers(0, 20, size=(20, 6)).astype(float).tolist()]
    if branch == "all survive":
        queries = [[x * 1e299 for x in query] for query in queries]
    assert len(queries) % knn.BLOCK != 0
    with np.errstate(all="ignore"):
        batch = list(model.predict_many(queries))
        assert batch == [model.predict(query) for query in queries]
        assert batch == [argsort_predict(model, query) for query in queries]
    if build is _tie_block_model:
        assert batch[0] == 1
    if build is _even_k_tie_model:
        assert batch[0] == 0 and 0 < sum(batch)


@pytest.mark.parametrize("bad", [[math.nan] * 6, [0.0] * 5 + [math.inf], [0.0] * 5,
                                 ["x"] * 6, [[0.0]] * 6, "123456"])
def test_a_batch_refuses_what_vote_refuses_at_the_same_query(bad):
    model = _grid_model(300)
    queries = [[float(i % 20)] * 6 for i in range(20)]
    queries[9] = bad
    single = votes_until_refused(map(model.predict, queries))
    assert votes_until_refused(model.predict_many(queries)) == single


def test_evaluate_names_the_sample_whose_standardized_query_overflows():
    from domepilot.metrics import evaluate
    from domepilot.weather import LabeledSample

    model = _grid_model(300, scaling="standardize")
    samples = [LabeledSample((1.0,) * 6, 0)] * 11
    samples[5] = LabeledSample((1e300,) + (0.5,) * 5, 0)
    with pytest.raises(RuntimeError, match="^prediction failed on test sample 5: "
                                           "standardized query overflows; stds too small$"):
        evaluate(model.predict_many, samples)


@pytest.mark.parametrize("n,k,stride,rank", [
    (2_745, 51, 6, 0),      # replay-dt's k-NN: one partition of every row
    (5_472, 73, 9, 0),
    (8_212, 89, 11, 17),
    (13_707, 117, 14, 17),  # replay-knn's k-NN, at the paper's size
])
def test_the_model_size_decides_whether_the_vote_samples(n, k, stride, rank):
    rng = np.random.default_rng(n)
    features = rng.integers(0, 20, size=(n, 2)).astype(float)
    labels = rng.integers(0, 2, size=n)
    model = train_knn(list(zip(map(tuple, features), labels)), k=k)
    kernel = model._build_kernel()
    assert (kernel.stride, kernel.rank) == (stride, rank)
    for query in rng.integers(0, 20, size=(5, 2)).astype(float):
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
    result = subprocess.run([sys.executable, "-c", script], env=src_env(),
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


# ---------------------------------------------------------------- lookahead
#
# simulate hands KnnModel.expect the features of the frames replay asks the
# model about, so that predict answers them from predict_many's blocks. A
# replay with the lookahead must log, count and warn as one without it.

STRICT_TABLE = ConditionTable([("Clear", 1), ("Haze", 0)])  # unmaps "Fog" too
CONDITIONS = ("Clear", "Fog", "Haze", "Volcanic ash", "Clear")  # the builtin table lacks ash


def _frame_features(rng, n):
    """n rows in the ranges of a frame's features, on a grid so that distances tie."""
    return np.column_stack([rng.integers(10, 30, n), rng.integers(0, 20, n),
                            rng.integers(0, 11, n) / 10, rng.integers(0, 24, n),
                            rng.integers(0, 20, n), rng.integers(1000, 1020, n)]).astype(float)


@functools.cache
def _trained_frame_model(n, scaling):
    rng = np.random.default_rng(n)
    labels = rng.integers(0, 2, size=n)
    return train_knn(list(zip(map(tuple, _frame_features(rng, n).tolist()), labels)),
                     k=default_k(n), scaling=scaling)


def _frame_model(n, scaling="none"):
    """A model trained once; each copy shares its kernel but has its own lookahead."""
    return copy.copy(_trained_frame_model(n, scaling))


def _frames(n, seed=0):
    rng = np.random.default_rng(seed)
    return [SensorFrame(WeatherObservation("Al Madina", datetime.date(2019, 5, 1), int(hour),
                                           temp, wind, humidity, barometer, visibility,
                                           CONDITIONS[tick % len(CONDITIONS)]),
                        rain_detected=tick % 7 == 3, tick=tick)
            for tick, (temp, wind, humidity, hour, visibility, barometer)
            in enumerate(_frame_features(rng, n).tolist())]


def _expected_rows(frames, table=None):
    table = table or ConditionTable.builtin()
    return [frame.observation.features() for frame in frames
            if frame.observation.condition in table]


class _FlakySink:
    """Takes every wire line but each fifth, which it fails to deliver."""

    def __init__(self):
        self.lines = []

    def write(self, line):
        if len(self.lines) % 5 == 4:
            self.lines.append(None)
            raise OSError("wire cut")
        self.lines.append(line)


def _replay(model, frames, table, caplog):
    """(log, undelivered count, warnings, wire lines) of one replay."""
    caplog.clear()
    sink = _FlakySink()
    with caplog.at_level(logging.WARNING, logger="domepilot"):
        log = replay(model.predict, frames, table=table, sink=sink)
    return list(log), log.undelivered, [r.getMessage() for r in caplog.records], sink.lines


@pytest.mark.parametrize("n_frames", [21, 2 * knn.BLOCK + 3])
@pytest.mark.parametrize("table", [None, STRICT_TABLE], ids=["builtin", "strict"])
@pytest.mark.parametrize("n,scaling,sampled", [(6_500, "none", True), (300, "none", False),
                                               (6_500, "standardize", True)])
def test_a_replay_with_the_lookahead_logs_as_one_without(n, scaling, sampled, table,
                                                         n_frames, caplog):
    model = _frame_model(n, scaling)
    assert bool(model._build_kernel().rank) == sampled
    frames = _frames(n_frames)
    alone = _replay(model, frames, table, caplog)
    model.expect(_expected_rows(frames, table))
    assert _replay(model, frames, table, caplog) == alone
    assert model._ahead is not None and next(model._ahead[0], None) is None  # all used
    causes = Counter(entry.command.cause for entry in alone[0])
    assert causes["unmapped_condition"] and alone[1] and alone[2]


@pytest.mark.parametrize("bad", [0, knn.BLOCK + 3, 2 * knn.BLOCK - 1])
def test_a_standardized_query_that_overflows_closes_its_frame_and_the_rest_vote_alone(
        bad, caplog):
    # At frame bad a finite visibility standardizes past what a distance can hold.
    model = _frame_model(300, "standardize")
    frames = _frames(2 * knn.BLOCK + 5)
    frames[bad] = frames[bad]._replace(observation=frames[bad].observation._replace(
        condition="Clear", visibility=1e300))
    alone = _replay(model, frames, None, caplog)
    model.expect(_expected_rows(frames))
    assert _replay(model, frames, None, caplog) == alone
    assert model._ahead is None
    log, _, warnings, _ = alone
    assert [entry.command.cause for entry in log].count("model_error") == 1
    assert log[bad].command.cause == "model_error" and log[bad].prediction is None
    assert warnings[0] == (f"model failed on 1 of {len(frames)} frames, which were closed; "
                           f"first failure: standardized query overflows; stds too small")
    assert all(entry.prediction is not None for entry in log[bad + 1:]
               if entry.frame.observation.condition in ConditionTable.builtin())


def test_a_block_near_the_standardized_overflow_votes_without_a_numpy_warning():
    # The training z-scores fit (max |x|² is a fifth of the largest float), but
    # 8 S overflows for every query, so every block goes through vote, which
    # votes the row at the mean and refuses the farthest one. No overflow may
    # print numpy's RuntimeWarning, which names a source path on stderr.
    rows = [(float(t), 0.0, 0.0, 0.0, 0.0, 1.0) for t in range(11)]
    std = 5.0 / math.sqrt(sys.float_info.max / 5)
    model = KnnModel(rows, [t % 2 for t in range(11)], 3, "standardize",
                     means=(5.0, 0.0, 0.0, 0.0, 0.0, 1.0), stds=(std, 0.0, 0.0, 0.0, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(model.predict_many([rows[5]] * 3)) == [model.predict(rows[5])] * 3
        with pytest.raises(ValueError, match="^standardized query overflows"):
            list(model.predict_many([rows[0]]))


def test_an_unscaled_vote_on_a_huge_value_votes_every_row_without_a_numpy_warning():
    # A 1e200 training row makes max |x|² overflow, and a 1e200 query |q|²,
    # so every query skips the screen and votes on every row; no overflow in
    # |q|², the screen or a distance may print numpy's RuntimeWarning.
    rows = [(float(t), 0.0, 0.0, 0.0, 0.0, 1.0) for t in range(10)] + [(1e200,) + (0.0,) * 5]
    model = KnnModel(rows, [t % 2 for t in range(10)] + [1], 3, "none")
    queries = [rows[-1], rows[5], (-1e200, *rows[5][1:]), (0.0, 1e200, 0.0, 0.0, 0.0, 1.0),
               (1e200, 1e200, 0.0, 0.0, 0.0, 0.0), *rows[:5]]
    assert len(queries) > knn.BLOCK
    with np.errstate(all="ignore"):
        expected = [argsort_predict(model, query) for query in queries]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [model.predict(query) for query in queries] == expected
        assert list(model.predict_many(queries)) == expected
        # Without the huge training row, only the huge queries skip the screen.
        small = KnnModel(rows[:-1], [t % 2 for t in range(10)], 3, "none")
        assert list(small.predict_many(queries)) == [small.predict(q) for q in queries]


def test_standardizing_a_huge_feature_refuses_it_without_a_numpy_warning():
    rows = PIN_ROWS + [((1e200, 1.0, 0.5, 0.0, 10.0, 1010.0), 1)]  # its std overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^standardizing temp: its standard deviation must "
                                             "be a finite number, got inf$"):
            train_knn(rows, k=3, scaling="standardize")


def test_a_lookahead_for_another_table_drops_and_the_replay_votes_alone(caplog):
    # The rows of the builtin table, but a replay that skips the "Fog" frames.
    model = _frame_model(6_500)
    frames = _frames(2 * knn.BLOCK + 3)
    alone = _replay(model, frames, STRICT_TABLE, caplog)
    model.expect(_expected_rows(frames))
    assert _replay(model, frames, STRICT_TABLE, caplog) == alone
    assert model._ahead is None


def test_a_query_that_differs_from_the_expected_row_votes_alone():
    model = _frame_model(300)
    rows = [tuple(row) for row in _frame_features(np.random.default_rng(1), 40).tolist()]
    alone = [model.predict(row) for row in rows]
    other = rows.index(next(row for row in rows[1:] if model.predict(row) != alone[0]))
    model.expect(rows)
    assert model.predict(rows[other]) == alone[other]  # not the vote expected for rows[0]
    assert model._ahead is None
    assert [model.predict(row) for row in rows] == alone
    model.expect(rows)
    assert model.predict(list(rows[0])) == alone[0]  # a list is no expected tuple
    assert model._ahead is None


def test_a_query_after_the_expected_rows_are_used_up_votes_alone():
    model = _frame_model(300)
    rows = [tuple(row) for row in _frame_features(np.random.default_rng(2), 12).tolist()]
    alone = [model.predict(row) for row in rows]
    model.expect(rows[:3])
    assert model.predict(rows[0]) == alone[0] and model._ahead is not None
    assert [model.predict(row) for row in rows[1:]] == alone[1:]
    assert model._ahead is None


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


PIN_ROWS = [((float(i), 1.0, 0.5, float(i % 3), 10.0, 1010.0 + i), i % 2) for i in range(5)]

# Written by hand: integer features (one past int64), a -0.0 and labels as JSON ints.
HAND_DOC = {"version": 1, "kind": "knn", "k": 1, "scaling": "none",
            "data": [[21, 5, 0, 13, 10, 1012, 1], [2**63 + 1, -0.0, 1, 0, 16, -3, 0]]}


@pytest.mark.parametrize("doc", [train_knn(PIN_ROWS, k=3).to_dict(),
                                 train_knn(PIN_ROWS, k=3, scaling="standardize").to_dict(),
                                 HAND_DOC], ids=["plain", "standardized", "hand-written"])
def test_a_loaded_model_gives_back_its_document(tmp_path, doc):
    """A load takes the array route and keeps no tuples; ``features`` and
    ``labels`` come from the kernel on first read, as the constructor makes them."""
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    loaded = load_model(tmp_path / "doc.json")
    assert loaded._kernel is not None and "features" not in vars(loaded)
    rows = doc["data"]
    save_model(KnnModel([row[:-1] for row in rows], [row[-1] for row in rows], doc["k"],
                        doc["scaling"], **doc.get("stats", {})), tmp_path / "saved.json")
    assert json.dumps(loaded.to_dict(), sort_keys=True) + "\n" == \
        (tmp_path / "saved.json").read_text()
    assert type(loaded.features) is tuple and type(loaded.labels) is tuple
    assert all(type(row) is tuple and all(type(v) is float for v in row)
               for row in loaded.features)
    assert all(type(label) is int for label in loaded.labels)
    assert loaded.n_features == 6


def _pin_edit(path, value):
    def edit(doc):
        *parents, key = path
        for step in parents:
            doc = doc[step]
        doc[key] = value
    return edit


# Each document fails the array route, or a check before it, and gets the
# message the row-by-row checks give, as they did before the array route.
@pytest.mark.parametrize("scaling,edit,message", [
    ("none", lambda doc: doc["data"][1].pop(0), "feature rows must share one length"),
    ("none", _pin_edit(("data", 1, -1), True), "data row 1: label must be an integer, got True"),
    ("none", _pin_edit(("data", 1, -1), 2), "labels must be binary 0/1"),
    ("none", _pin_edit(("data", 2, 3), math.nan),
     "data row 2: feature 3 must be a finite number, got nan"),
    ("none", _pin_edit(("data", 2, 3), math.inf),
     "data row 2: feature 3 must be a finite number, got inf"),
    # Feature 1 is constant, so its std is 0 and a NaN there standardizes to 0.
    ("standardize", _pin_edit(("data", 2, 1), math.nan),
     "data row 2: feature 1 must be a finite number, got nan"),
    ("none", _pin_edit(("data", 2, 3), 10**400),
     f"data row 2: feature 3 must be a finite number, got {10**400}"),
    # Written as the literal 1e400, which json reads as inf.
    ("none", _pin_edit(("data", 2, 3), "1e400"),
     "data row 2: feature 3 must be a finite number, got inf"),
    ("none", _pin_edit(("k",), 0), "k must be in [1, 5], got 0"),
    ("none", _pin_edit(("k",), 6), "k must be in [1, 5], got 6"),
    ("standardize", _pin_edit(("stats", "stds", 0), 1e-300),
     "standardized features overflow; stds too small"),
], ids=["ragged", "label-true", "label-2", "nan", "infinity", "nan-zero-std", "int-10e400",
        "1e400", "k-0", "k-above-n", "std-1e-300"])
def test_a_document_the_array_route_refuses_gets_the_row_by_row_message(
        tmp_path, scaling, edit, message):
    doc = train_knn(PIN_ROWS, k=3, scaling=scaling).to_dict()
    edit(doc)
    path = tmp_path / "knn.json"
    path.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: {message}"


def _ragged(doc):
    doc["data"][1].pop(0)


# Two faults at once: the message names the one the row-by-row checks meet
# first, a bad cell before rows of two widths before a label other than 0/1
# before k, the scaling and its stats.
@pytest.mark.parametrize("scaling,edits,message", [
    ("none", [_ragged, _pin_edit(("data", 1, -1), 2)], "feature rows must share one length"),
    ("none", [_pin_edit(("data", 1, -1), 2), _pin_edit(("data", 2, 3), math.nan)],
     "data row 2: feature 3 must be a finite number, got nan"),
    ("none", [_pin_edit(("data", 2, 3), math.nan), _pin_edit(("k",), 0)],
     "data row 2: feature 3 must be a finite number, got nan"),
    ("none", [_pin_edit(("data", 2, 3), 10**400), _pin_edit(("k",), 6)],
     f"data row 2: feature 3 must be a finite number, got {10**400}"),
    ("none", [_ragged, _pin_edit(("data", 3, 2), math.nan)],
     "data row 3: feature 2 must be a finite number, got nan"),
    ("none", [_pin_edit(("data", 1, -1), 2), _pin_edit(("data", 2, 3), 10**400)],
     f"data row 2: feature 3 must be a finite number, got {10**400}"),
    ("none", [_ragged, _pin_edit(("k",), 9)], "feature rows must share one length"),
    ("none", [_pin_edit(("scaling",), "bogus"), _pin_edit(("data", 2, 3), math.inf)],
     "data row 2: feature 3 must be a finite number, got inf"),
    # Feature 1 is constant, so its std is 0 and a NaN there standardizes to 0.
    ("standardize", [_pin_edit(("data", 2, 1), math.nan),
                     _pin_edit(("stats", "stds", 0), 1e-300)],
     "data row 2: feature 1 must be a finite number, got nan"),
    ("standardize", [_pin_edit(("k",), 0), _pin_edit(("stats", "stds", 0), 1e-300)],
     "k must be in [1, 5], got 0"),
], ids=["ragged-label-2", "label-2-nan", "nan-k-0", "int-10e400-k-6", "ragged-nan",
        "label-2-int-10e400", "ragged-k-9", "bogus-scaling-infinity", "nan-zero-std-std-1e-300",
        "k-0-std-1e-300"])
def test_a_document_with_two_faults_gets_the_message_of_the_first_check(
        tmp_path, scaling, edits, message):
    doc = train_knn(PIN_ROWS, k=3, scaling=scaling).to_dict()
    for edit in edits:
        edit(doc)
    path = tmp_path / "knn.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: {message}"


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


def test_a_document_with_several_bad_labels_names_the_first():
    doc = train_knn(toy_samples([((float(i),) * 6, i % 2) for i in range(6)]), k=1).to_dict()
    doc["data"][4][-1], doc["data"][2][-1] = "1", None
    with pytest.raises(ValueError, match=r"^data row 2: label must be an integer, got None$"):
        KnnModel.from_dict(doc)
