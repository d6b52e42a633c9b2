"""domepilot: weather-driven dome control.

Labeling pipeline (condition table + temperature gate), from-scratch
decision tree and k-NN classifiers, evaluation reports, and a dome
controller with a hard rain override and AC interlock.

Tree growth and the k-NN model are imported on first access, so a command
compiles only the modules it runs. Only k-NN prediction and standardization
compute with numpy: labeling, tree growth and prediction, the models'
documents, k-NN training without standardization and the controller never
import it.
"""

from importlib import import_module

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
    parse_signal,
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
from .treemodel import TreeConfig, TreeModel
from .weather import (
    FEATURE_NAMES,
    TEMP_OPEN_HIGH,
    TEMP_OPEN_LOW,
    CleaningReport,
    ConditionTable,
    LabeledSample,
    SchemaError,
    SplitSpec,
    UnmappedConditionError,
    WeatherObservation,
    derive_state,
    filter_city,
    parse_dataset,
    split,
    to_samples,
)

__version__ = "0.1.0"

# Name -> module of the names imported on first access (PEP 562).
_LAZY_NAMES = {
    "best_split": "tree", "impurity": "tree", "train_tree": "tree",
    "KnnModel": "knnmodel", "default_k": "knnmodel", "train_knn": "knnmodel",
}


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
