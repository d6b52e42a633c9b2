#!/usr/bin/env python3
# The whole pipeline in one sitting: raw CSV -> labeled samples -> both
# classifiers -> side-by-side evaluation, using the shipped defaults
# (tree: gini, 50 leaves, 33% test, seed 324; knn: sqrt-n k, 30% test,
# seed 101).

import io

from domepilot import (
    ConditionTable,
    SplitSpec,
    TreeConfig,
    default_k,
    evaluate,
    filter_city,
    parse_dataset,
    split,
    to_samples,
    train_knn,
    train_tree,
)
from domepilot.metrics import render_reports
from domepilot.synthetic import synthetic_observations, to_raw_csv

# Stand-in for the real hourly export: swap in your own CSV path here.
raw = io.StringIO()
to_raw_csv(synthetic_observations(8000, seed=1), raw)
raw.seek(0)

observations, parse_report = parse_dataset(raw)
in_city = filter_city(observations, "Al Madina")
samples, label_report = to_samples(in_city, ConditionTable.builtin())
print(f"parsed {parse_report.kept}/{parse_report.rows_read} rows, "
      f"{len(in_city)} in the target city, {len(samples)} labeled "
      f"({label_report.rejected} unmapped)\n")

dt_train, dt_test = split(samples, SplitSpec(0.33, 324))
tree = train_tree(dt_train, TreeConfig())
dt_report = evaluate(tree.predict_many, dt_test, model_id="decision tree")

knn_train, knn_test = split(samples, SplitSpec(0.30, 101))
k = default_k(len(knn_train))
knn = train_knn(knn_train, k)
knn_report = evaluate(knn.predict_many, knn_test, model_id=f"knn (k={k})")

# Below the metrics table, each model's confusion counts (tp/tn/fp/fn).
print(render_reports([dt_report, knn_report]), end="")
