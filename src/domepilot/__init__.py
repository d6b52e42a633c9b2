"""domepilot: weather-driven dome control.

Labeling pipeline (condition table + temperature gate), from-scratch
decision tree and k-NN classifiers, evaluation reports, and a dome
controller with a hard rain override and AC interlock.

Only k-NN prediction and standardization compute with numpy, which
``domepilot.knn`` imports on first use: labeling, tree growth and
prediction, the models' documents, k-NN training without standardization
and the controller never import it.

Importing the package loads ``domepilot.weather`` alone. One table,
``_OWNERS``, owns every lazily bound name of the package and of
``domepilot.cli``: each imports its module the first time it is read
(PEP 562), so each command loads what it runs.
"""

from importlib import import_module

from .weather import FEATURE_NAMES, TEMP_OPEN_HIGH, TEMP_OPEN_LOW, LabeledSample, SplitSpec, split

__version__ = "0.1.0"


def _lazy(namespace: dict, owners: dict):
    """A module's ``__getattr__`` and ``__dir__`` that bind each name of
    ``owners`` (module -> names) into ``namespace`` on its first read."""
    owner = {name: module for module, names in owners.items() for name in names}

    def __getattr__(name):
        if name not in owner:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = value = getattr(import_module(f"{__name__}.{owner[name]}"), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__


#: ``cli.main``'s stderr-line writer while it runs a command: the library logs, the CLI prints.
_PRINTERS: list = []


def _warn(name: str, message: str, *args) -> None:
    """``logging.getLogger(name).warning(message, *args)``, importing ``logging`` only
    now; under ``cli.main`` a ``domepilot: WARNING:`` line on stderr instead."""
    if _PRINTERS:
        return _PRINTERS[-1](f"WARNING: {message % args if args else message}")
    import logging
    logging.getLogger(name).warning(message, *args)


_OWNERS = {
    "raw": ("CleaningReport", "ConditionTable", "SensorFrame", "WeatherObservation",
            "derive_state", "filter_city", "parse_dataset", "read_frames_csv", "to_samples",
            "write_labeled_csv"),
    "controller": ("CAUSE_MODEL", "CAUSE_MODEL_ERROR", "CAUSE_RAIN", "CAUSE_TEMP",
                   "CAUSE_UNMAPPED", "DecisionLog", "DomeCommand", "SignalDeliveryError",
                   "decide", "emit_signal", "open_sink", "replay"),
    "metrics": ("ConfusionMatrix", "EvalReport", "accuracy", "confusion", "evaluate", "f1",
                "render_reports", "weighted_f1"),
    "knnmodel": ("KnnModel", "default_k", "train_knn"),
    "tree": ("TreeConfig", "TreeModel", "impurity"),
    "grow": ("best_split", "train_tree"),
}
__getattr__, __dir__ = _lazy(globals(), _OWNERS)
