#!/usr/bin/env python3
# The k-NN route: square-root-of-n neighbor counts, and what feature
# scaling does when barometer readings dwarf humidity fractions.

import numpy as np

from domepilot import ConditionTable, SplitSpec, default_k, distance, split, to_samples, train_knn
from domepilot.synthetic import synthetic_observations

samples, _ = to_samples(synthetic_observations(3000, seed=4), ConditionTable.builtin())
train_set, test_set = split(samples, SplitSpec(0.30, 101))

# k defaults to floor(sqrt(n)) made odd, so binary votes never tie.
k = default_k(len(train_set))
print(f"n_train = {len(train_set)} -> default k = {k}\n")

queries = [s.features for s in test_set]
labels = np.array([s.label for s in test_set])

print("scaling      test acc")
for scaling in ("none", "standardize"):
    model = train_knn(train_set, k, scaling=scaling)
    predictions = np.array([model.predict(q) for q in queries])
    print(f"{scaling:<12} {(predictions == labels).mean():.4f}")

# Distances explain the difference: unscaled, a 10 hPa pressure gap swamps
# any humidity change; standardized, each feature contributes in units of
# its own spread.
scaled = train_knn(train_set, k, scaling="standardize")
a = (21.0, 5.0, 0.30, 12.0, 16.0, 1010.0)
b = (21.0, 5.0, 0.80, 12.0, 16.0, 1020.0)
print("\nhumidity +0.5 and barometer +10 hPa apart:")
print(f"  unscaled distance     = {distance(a, b):.3f}")
print(f"  standardized distance = "
      f"{distance(a, b, 'standardize', (scaled.means, scaled.stds)):.3f}")
