#!/usr/bin/env python3
# The k-NN route: square-root-of-n neighbor counts, and what feature
# scaling does when barometer readings dwarf humidity fractions.

import numpy as np

from domepilot import ConditionTable, SplitSpec, default_k, split, to_samples, train_knn
from domepilot.synthetic import synthetic_observations

samples, _ = to_samples(synthetic_observations(3000, seed=4), ConditionTable.builtin())
train_set, test_set = split(samples, SplitSpec(0.30, 101))

# k defaults to floor(sqrt(n)) made odd, so binary votes never tie.
k = default_k(len(train_set))
print(f"n_train = {len(train_set)} -> default k = {k}\n")

queries = [s.features for s in test_set]
labels = np.array([s.label for s in test_set])

models = {scaling: train_knn(train_set, k, scaling=scaling)
          for scaling in ("none", "standardize")}
print("scaling      test acc")
for scaling, model in models.items():
    predictions = np.array([model.predict(q) for q in queries])
    print(f"{scaling:<12} {(predictions == labels).mean():.4f}")

# The votes show the difference: shift every test query's humidity by +0.3,
# or its barometer by +5 hPa, and count the predictions that flip.
# Unscaled, the pressure gap swamps any humidity change; standardized, each
# feature counts in units of its own spread.
HUMIDITY, BAROMETER = 2, 5


def shifted(query, index, delta):
    return tuple(v + delta if i == index else v for i, v in enumerate(query))


print("\npredictions flipped by the shift, of", len(queries))
print("scaling      humidity +0.3  barometer +5 hPa")
for scaling, model in models.items():
    base = [model.predict(q) for q in queries]
    flips = [sum(model.predict(shifted(q, index, delta)) != b for q, b in zip(queries, base))
             for index, delta in ((HUMIDITY, 0.3), (BAROMETER, 5.0))]
    print(f"{scaling:<12} {flips[0]:>13}  {flips[1]:>16}")
