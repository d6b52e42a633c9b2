"""domepilot: weather-driven dome control.

Labeling pipeline (condition table + temperature gate), from-scratch
decision tree and k-NN classifiers, evaluation reports, and a dome
controller with a hard rain override and AC interlock.

Only k-NN prediction and standardization compute with numpy, which
``domepilot.knn`` imports on first use: labeling, tree growth and
prediction, the models' documents, k-NN training without standardization
and the controller never import it.
"""

from .controller import (
    CAUSE_MODEL,
    CAUSE_MODEL_ERROR,
    CAUSE_RAIN,
    CAUSE_TEMP,
    CAUSE_UNMAPPED,
    DecisionLog,
    DomeCommand,
    SensorFrame,
    SignalDeliveryError,
    decide,
    emit_signal,
    replay,
)
from .metrics import (
    ConfusionMatrix,
    EvalReport,
    accuracy,
    confusion,
    evaluate,
    f1,
    weighted_f1,
)
from .knnmodel import KnnModel, default_k, train_knn
from .tree import TreeConfig, TreeModel, best_split, impurity, train_tree
from .weather import (
    FEATURE_NAMES,
    TEMP_OPEN_HIGH,
    TEMP_OPEN_LOW,
    CleaningReport,
    ConditionTable,
    LabeledSample,
    SplitSpec,
    WeatherObservation,
    derive_state,
    filter_city,
    parse_dataset,
    split,
    to_samples,
)

__version__ = "0.1.0"

