"""domepilot command line: prepare, train, evaluate, simulate, predict.

Every flag can also come from an optional ``key = value`` config file
(--config); explicit flags win. Output artifacts are written atomically so
a failing command leaves nothing half-written behind. Only training and
k-NN import numpy, when they run; the other commands never load it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Union

from .controller import (
    SignalDeliveryError,
    _parse_rain,
    decide,
    emit_signal,
    open_sink,
    read_frames_csv,
    replay,
)
from .metrics import evaluate, render_reports
from .treemodel import TreeConfig, TreeModel
from .weather import (
    FEATURE_NAMES,
    ConditionTable,
    SplitSpec,
    _opened,
    _parse_hour,
    _parse_number,
    _RowRejected,
    filter_city,
    parse_dataset,
    read_labeled_csv,
    split,
    to_samples,
    write_labeled_csv,
)

if TYPE_CHECKING:
    from .knn import KnnModel

logger = logging.getLogger(__name__)

MODEL_KINDS = ("dt", "knn")


@dataclass(frozen=True)
class RunConfig:
    """Default run parameters; the shipped values are the reference runs."""

    city: str = "Al Madina"
    model_kind: str = "dt"
    tree: TreeConfig = field(default_factory=TreeConfig)
    knn_k: Union[int, str] = "auto"
    knn_scaling: str = "none"
    dt_split: SplitSpec = field(default_factory=lambda: SplitSpec(0.33, 324))
    knn_split: SplitSpec = field(default_factory=lambda: SplitSpec(0.30, 101))


DEFAULTS = RunConfig()


def train_tree(samples, config: TreeConfig) -> TreeModel:
    """``tree.train_tree``, whose module (numpy) is imported on first use."""
    from .tree import train_tree as grow
    return grow(samples, config)


def train_knn(samples, k: int, scaling: str) -> KnnModel:
    """``knn.train_knn``, whose module (numpy) is imported on first use."""
    from .knn import train_knn as fit
    return fit(samples, k, scaling)


def save_model(model: Union[TreeModel, KnnModel], path: Union[str, Path]) -> None:
    with _atomic_writer(Path(path)) as stream:
        stream.write(json.dumps(model.to_dict(), sort_keys=True) + "\n")


def load_model(path: Union[str, Path]) -> Union[TreeModel, KnnModel]:
    """Model saved by save_model; a malformed document raises ValueError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a model document")
    kind = doc.get("kind")
    if kind == "tree":
        loader = TreeModel.from_dict
    elif kind == "knn":
        from .knn import KnnModel
        loader = KnnModel.from_dict
    else:
        raise ValueError(f"{path}: unrecognized model kind {kind!r}")
    try:
        model = loader(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except (KeyError, TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed {doc['kind']} model: "
                         f"{type(exc).__name__}: {exc}") from None
    # Every command feeds a model the FEATURE_NAMES vector, nothing else.
    if model.n_features != len(FEATURE_NAMES):
        raise ValueError(f"{path}: model takes {model.n_features} features, not the "
                         f"{len(FEATURE_NAMES)} of {', '.join(FEATURE_NAMES)}")
    return model


def _model_id(model: Union[TreeModel, KnnModel]) -> str:
    if isinstance(model, TreeModel):
        return f"dt({model.config.criterion},leaves={model.config.max_leaf_nodes})"
    return f"knn(k={model.k},scaling={model.scaling})"


@contextmanager
def _atomic_writer(path: Path) -> Iterator[IO[str]]:
    """Text stream into a temp file that replaces ``path`` if the block succeeds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as stream:
            yield stream
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _as_number(value, name: str, kind: type = int):
    """``kind(value)`` for the flag ``name``; range checks are the caller's."""
    try:
        return kind(str(value))
    except ValueError:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {value!r}") from None


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"{flag} is required")
    return value


def load_config_file(path: Union[str, Path]) -> dict[str, str]:
    """Flat ``key = value`` file; # starts a comment anywhere on a line."""
    values: dict[str, str] = {}
    with _opened(path) as stream:
        text = stream.read()
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"{path}:{lineno}: expected key = value")
        values[key.strip().replace("-", "_")] = value.strip().strip("\"'")
    return values


def _merge_config(args: argparse.Namespace) -> None:
    if args.config is None:
        return
    values = load_config_file(args.config)
    for key, value in values.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, value)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_prepare(args: argparse.Namespace) -> int:
    data = Path(_require(args.data, "--data"))
    out = Path(_require(args.out, "--out"))
    city = args.city if args.city is not None else DEFAULTS.city
    if not data.exists():
        raise ValueError(f"dataset not found: {data}")
    digest = _sha256(data)
    if args.expect_sha256 is not None:
        if digest != args.expect_sha256.lower():
            raise ValueError(f"dataset content hash mismatch: expected "
                             f"{args.expect_sha256}, found {digest}")
    else:
        logger.warning("dataset content hash not verified; sha256 is %s", digest)
    table = ConditionTable.from_csv(args.table) if args.table else ConditionTable.builtin()
    observations, parse_report = parse_dataset(data)
    in_city = filter_city(observations, city)
    samples, label_report = to_samples(in_city, table)
    with _atomic_writer(out) as stream:
        write_labeled_csv(samples, stream)
    print(json.dumps({
        "input_rows": parse_report.rows_read,
        "parsed": parse_report.kept,
        "parse_rejected": parse_report.rejected,
        "parse_reasons": parse_report.as_dict()["reasons"],
        "city": city,
        "city_rows": len(in_city),
        "labeled_rows": len(samples),
        "unmapped_rejected": label_report.rejected,
        "sha256": digest,
        "out": str(out),
    }))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    data = Path(_require(args.data, "--data"))
    out = Path(_require(args.out, "--out"))
    kind = args.model if args.model is not None else DEFAULTS.model_kind
    if kind not in MODEL_KINDS:
        raise ValueError(f"--model must be one of {MODEL_KINDS}, got {kind!r}")
    samples = read_labeled_csv(data)
    spec = _split_spec(args, kind)
    train_set, test_set = split(samples, spec)
    if kind == "dt":
        config = TreeConfig(
            criterion=args.criterion if args.criterion is not None else DEFAULTS.tree.criterion,
            max_leaf_nodes=(_as_number(args.max_leaves, "--max-leaves")
                            if args.max_leaves is not None else DEFAULTS.tree.max_leaf_nodes),
            min_samples_leaf=DEFAULTS.tree.min_samples_leaf,
        )
        model: Union[TreeModel, KnnModel] = train_tree(train_set, config)
        extra = {"criterion": config.criterion, "max_leaf_nodes": config.max_leaf_nodes,
                 "leaf_count": model.leaf_count}
    else:
        k_arg = args.k if args.k is not None else DEFAULTS.knn_k
        if str(k_arg) == "auto":
            from .knn import default_k
            k = default_k(len(train_set))
        else:
            k = _as_number(k_arg, "--k")
        scaling = args.scaling if args.scaling is not None else DEFAULTS.knn_scaling
        model = train_knn(train_set, k, scaling)
        extra = {"k": k, "scaling": scaling}
    save_model(model, out)
    print(json.dumps({"model": kind, "n_samples": len(samples),
                      "n_train": len(train_set), "n_test": len(test_set),
                      "test_fraction": spec.test_fraction, "seed": spec.seed,
                      **extra, "out": str(out)}))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model_path = Path(_require(args.model, "--model"))
    data = Path(_require(args.data, "--data"))
    report_path = Path(_require(args.report, "--report"))
    model = load_model(model_path)
    kind = "dt" if isinstance(model, TreeModel) else "knn"
    samples = read_labeled_csv(data)
    spec = _split_spec(args, kind)
    _, test_set = split(samples, spec)
    report = evaluate(model.predict, test_set, model_id=_model_id(model))
    doc = {"split": {"test_fraction": spec.test_fraction, "seed": spec.seed},
           **report.as_dict()}
    with _atomic_writer(report_path) as stream:
        stream.write(json.dumps(doc, sort_keys=True) + "\n")
    print(render_reports([report]), end="")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    model_path = Path(_require(args.model, "--model"))
    frames_path = Path(_require(args.frames, "--frames"))
    log_path = Path(_require(args.log, "--log"))
    model = load_model(model_path)
    frames, report = read_frames_csv(frames_path)
    if report.rejected:
        logger.warning("rejected %d malformed frame rows: %s",
                       report.rejected, report.as_dict()["reasons"])
    if not frames:
        raise ValueError(f"no usable frames in {frames_path}")
    with open_sink(args.sink) if args.sink is not None else nullcontext() as sink:
        log = replay(model.predict, frames, sink=sink)
        # Written before the sink closes: closing a failed sink raises too.
        with _atomic_writer(log_path) as stream:
            log.to_jsonl(stream)
    if log.undelivered:
        raise SignalDeliveryError(f"actuator sink failed on {log.undelivered} of "
                                  f"{len(log)} frames; decision log written to {log_path}")
    opened = sum(entry.command.dome for entry in log)
    print(json.dumps({"frames": len(log), "opened": opened,
                      "closed": len(log) - opened, "log": str(log_path)}))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(Path(_require(args.model, "--model")))
    features = tuple(_reading(args, name) for name in FEATURE_NAMES)
    rain = _require(args.rain, "--rain")
    try:
        rain_detected = _parse_rain(rain)
    except _RowRejected:
        raise ValueError(f"--rain must be 0/1, no/yes or false/true, got {rain!r}") from None
    command, _, fault = decide(model.predict, features, rain_detected, features[0])
    if fault is not None:
        logger.warning("model failed, so the dome was closed: %s", fault, exc_info=fault)
    emit_signal(command, sys.stdout)
    return 0


def _reading(args: argparse.Namespace, name: str) -> float:
    """The ``predict`` flag of feature ``name``, read as a frames CSV cell is."""
    text = _require(getattr(args, name), f"--{name}")
    try:
        value = float(_parse_hour(text)) if name == "hour" else _parse_number(text, name)
    except _RowRejected:
        value = math.nan
    if not math.isfinite(value):
        expected = "an hour of the day" if name == "hour" else "a finite number"
        raise ValueError(f"--{name} must be {expected}, got {text!r}")
    return value


def _split_spec(args: argparse.Namespace, kind: str) -> SplitSpec:
    base = DEFAULTS.dt_split if kind == "dt" else DEFAULTS.knn_split
    fraction = (_as_number(args.test_frac, "--test-frac", float)
                if args.test_frac is not None else base.test_fraction)
    seed = _as_number(args.seed, "--seed") if args.seed is not None else base.seed
    return SplitSpec(test_fraction=fraction, seed=seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domepilot",
        description="Weather-driven dome control: label data, train and "
                    "evaluate classifiers, replay sensor frames, predict.")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--config", help="optional key=value config file; flags win")

    prepare = commands.add_parser("prepare", help="label a raw weather CSV")
    prepare.add_argument("--data", help="raw weather CSV")
    prepare.add_argument("--city", help=f"target city (default {DEFAULTS.city!r})")
    prepare.add_argument("--table", help="override condition table (condition,flag CSV)")
    prepare.add_argument("--out", help="labeled CSV to write")
    prepare.add_argument("--expect-sha256", dest="expect_sha256",
                         help="require this dataset content hash")
    common(prepare)
    prepare.set_defaults(func=cmd_prepare)

    train = commands.add_parser("train", help="train a classifier on labeled data")
    train.add_argument("--data", help="labeled CSV from prepare")
    train.add_argument("--model", help="dt or knn")
    train.add_argument("--max-leaves", dest="max_leaves", help="tree leaf budget")
    train.add_argument("--criterion", help="gini or entropy")
    train.add_argument("--k", help="neighbor count or 'auto' (sqrt rule)")
    train.add_argument("--scaling", help="none or standardize")
    train.add_argument("--test-frac", dest="test_frac", help="held-out fraction")
    train.add_argument("--seed", help="split seed")
    train.add_argument("--out", help="model JSON to write")
    common(train)
    train.set_defaults(func=cmd_train)

    ev = commands.add_parser("evaluate", help="score a model on the held-out split")
    ev.add_argument("--model", help="model JSON")
    ev.add_argument("--data", help="labeled CSV")
    ev.add_argument("--test-frac", dest="test_frac", help="held-out fraction")
    ev.add_argument("--seed", help="split seed")
    ev.add_argument("--report", help="evaluation report JSON to write")
    common(ev)
    ev.set_defaults(func=cmd_evaluate)

    sim = commands.add_parser("simulate", help="replay sensor frames through a model")
    sim.add_argument("--model", help="model JSON")
    sim.add_argument("--frames", help="frames CSV (weather schema plus rain)")
    sim.add_argument("--log", help="decision log JSONL to write")
    sim.add_argument("--sink", help="actuator sink: path, tcp:host:port, or -")
    common(sim)
    sim.set_defaults(func=cmd_simulate)

    pred = commands.add_parser("predict", help="one-shot dome command")
    pred.add_argument("--model", help="model JSON")
    for name in FEATURE_NAMES:
        pred.add_argument(f"--{name}")
    pred.add_argument("--rain", help="rain sensor: 0 or 1")
    common(pred)
    pred.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="domepilot: %(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"domepilot: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
