"""domepilot command line: prepare, train, evaluate, simulate, predict.

Every flag can also come from an optional ``key = value`` config file
(--config); explicit flags win. Output artifacts are written atomically so
a failing command leaves nothing half-written behind.

Start-up stays lean: importing this module loads neither numpy nor
``hashlib`` nor ``socket`` nor ``logging``, and of the package only
``weather``. The library logs its warnings; the CLI prints them, as it
prints its errors, so no command loads ``logging``. A name of
the package's one owner table ``_OWNERS`` is bound here on first read, so
a command loads what it runs: ``prepare`` the raw-row module ``raw``;
``train`` its model's module (``knnmodel``, or ``tree`` and ``grow``);
``evaluate`` that and ``metrics``; ``simulate`` and ``predict`` that,
``raw`` and ``controller``. Only k-NN standardization and k-NN documents
import numpy (``domepilot.knn``), whose kernel a k-NN document loads
straight into; the other commands, tree training and
``train --model knn`` without standardization never load it. Only
``prepare`` imports ``hashlib``, only a ``tcp:`` sink ``socket``, and only a
sink that has to wait for its reader ``select``.
``simulate`` tells a k-NN model the frames it will ask about
(``KnnModel.expect``), so their votes come in blocks; ``predict`` votes alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path
from typing import IO, Iterator, Union

from . import _OWNERS, _PRINTERS, _lazy, _warn
from .weather import FEATURE_NAMES, SplitSpec, _opened, check_ranges, read_labeled_csv, split

__getattr__, __dir__ = _lazy(globals(), _OWNERS)  # ``from .cli import`` sees a name set here


#: The held-out split of each model kind: train and evaluate both read it, never a flag.
SPLITS = {"dt": SplitSpec(0.33, 324), "knn": SplitSpec(0.30, 101)}


def save_model(model: Union[TreeModel, KnnModel], path: Union[str, Path]) -> None:
    with _atomic_writer(Path(path)) as stream:
        stream.write(json.dumps(model.to_dict(), sort_keys=True) + "\n")


def load_model(path: Union[str, Path]) -> Union[TreeModel, KnnModel]:
    """Model saved by save_model; a malformed document raises ValueError."""
    with _opened(path) as stream:  # raises a ValueError naming a non-UTF-8 byte's line
        text = stream.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, too deep, an integer too long
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a model document")
    kind = doc.get("kind")
    if kind == "tree":
        from .cli import TreeModel
        loader = TreeModel.from_dict
    elif kind == "knn":
        from .cli import KnnModel  # its loader builds the kernel, importing numpy
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


def _as_number(value, name: str) -> int:
    """``int(value)`` for the flag ``name``; range checks are the caller's."""
    try:
        return int(str(value))
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"{flag} is required")
    return value


def _refuse_overwrite(output: Path, flag: str, **inputs) -> None:
    """Reject an output path that names one of the command's own inputs."""
    target = output.resolve()
    for name, path in inputs.items():
        if path and Path(path).resolve() == target:
            raise ValueError(f"--{flag} {output} would overwrite the input --{name} {path}")


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


def _set_config_defaults(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the defaults of every command that has
    those flags, so flags still win. One file serves every command; a key
    that is no flag of any command is an error."""
    values = load_config_file(path)
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).values()
    flags = [{action.dest for action in command._actions
              if action.option_strings and action.dest not in ("help", "config")}
             for command in commands]
    for key in values:
        if not any(key in known for known in flags):
            raise ValueError(f"{path}: unknown setting {key!r}")
    for command, known in zip(commands, flags):
        command.set_defaults(**{key: values[key] for key in values.keys() & known})


def _sha256(path: Path) -> str:
    import hashlib  # only prepare hashes, so no other command loads it
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_prepare(args: argparse.Namespace) -> int:
    data = Path(_require(args.data, "--data"))
    out = Path(_require(args.out, "--out"))
    _refuse_overwrite(out, "out", data=data, table=args.table, config=args.config)
    if not data.exists():
        raise ValueError(f"dataset not found: {data}")
    digest = _sha256(data)
    if args.expect_sha256 is not None:
        if digest != args.expect_sha256.lower():
            raise ValueError(f"dataset content hash mismatch: expected "
                             f"{args.expect_sha256}, found {digest}")
    else:
        _warn(__name__, "dataset content hash not verified; sha256 is %s", digest)
    from .cli import ConditionTable, filter_city, parse_dataset, to_samples, write_labeled_csv
    table = ConditionTable.from_csv(args.table) if args.table else ConditionTable.builtin()
    observations, parse_report = parse_dataset(data)
    in_city = filter_city(observations, args.city)
    samples, label_report = to_samples(in_city, table)
    with _atomic_writer(out) as stream:
        write_labeled_csv(samples, stream)
    print(json.dumps({
        "input_rows": parse_report.rows_read,
        "parsed": parse_report.kept,
        "parse_rejected": parse_report.rejected,
        "parse_reasons": parse_report.as_dict()["reasons"],
        "city": args.city,
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
    _refuse_overwrite(out, "out", data=data, config=args.config)
    kind = args.model
    if kind not in SPLITS:
        raise ValueError(f"--model must be one of {tuple(SPLITS)}, got {kind!r}")
    samples = read_labeled_csv(data)
    spec = SPLITS[kind]
    train_set, test_set = split(samples, spec)
    if kind == "dt":
        from .cli import TreeConfig, train_tree
        config = TreeConfig(criterion=args.criterion,
                            max_leaf_nodes=_as_number(args.max_leaves, "--max-leaves"))
        model: Union[TreeModel, KnnModel] = train_tree(train_set, config)
        extra = {"criterion": config.criterion, "max_leaf_nodes": config.max_leaf_nodes,
                 "leaf_count": model.leaf_count}
    else:
        from .cli import default_k, train_knn
        k = default_k(len(train_set)) if args.k == "auto" else _as_number(args.k, "--k")
        model = train_knn(train_set, k, args.scaling, source=data)
        extra = {"k": k, "scaling": args.scaling}
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
    _refuse_overwrite(report_path, "report", model=model_path, data=data, config=args.config)
    from .cli import evaluate, render_reports
    model = load_model(model_path)
    spec = SPLITS[model.kind]
    _, test_set = split(read_labeled_csv(data), spec)
    model_id = (f"dt({model.config.criterion},leaves={model.config.max_leaf_nodes})"
                if model.kind == "dt" else f"knn(k={model.k},scaling={model.scaling})")
    report = evaluate(model.predict_many, test_set, model_id=model_id)
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
    inputs = {"model": model_path, "frames": frames_path, "table": args.table,
              "config": args.config}
    _refuse_overwrite(log_path, "log", **inputs)
    if args.sink not in (None, "-") and not args.sink.startswith("tcp:"):
        _refuse_overwrite(Path(args.sink), "sink", log=log_path, **inputs)
    from .cli import ConditionTable, SignalDeliveryError, open_sink, read_frames_csv, replay
    model = load_model(model_path)
    table = ConditionTable.from_csv(args.table) if args.table else ConditionTable.builtin()
    frames, report = read_frames_csv(frames_path)
    if report.rejected:
        _warn(__name__, "rejected %d malformed frame rows: %s",
              report.rejected, report.as_dict()["reasons"])
    if not frames:
        raise ValueError(f"no usable frames in {frames_path}")
    if model.kind == "knn":  # the rows replay asks for; a tree's predict_many is its predict
        model.expect([frame.observation.features() for frame in frames
                      if frame.observation.condition in table])
    with open_sink(args.sink) if args.sink is not None else nullcontext() as sink:
        log = replay(model.predict, frames, table=table, sink=sink)
        with _atomic_writer(log_path) as stream:
            log.to_jsonl(stream)
    if log.undelivered:
        raise SignalDeliveryError(f"actuator sink failed on {log.undelivered} of "
                                  f"{len(log)} frames; decision log written to {log_path}")
    opened = sum(entry.command.dome for entry in log)
    summary = json.dumps({"frames": len(log), "opened": opened,
                          "closed": len(log) - opened, "log": str(log_path)})
    if args.sink == "-":  # stdout of `-`: wire lines only
        _stderr_line(summary, head="")
    else:
        print(summary)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """The dome command of one reading; ``main`` closes the dome on an input error."""
    from .cli import decide, emit_signal, open_sink
    model = load_model(Path(_require(args.model, "--model")))
    features = tuple(_reading(args, name) for name in FEATURE_NAMES)
    check_ranges(features)
    command, _, fault = decide(model.predict, features, _reading(args, "rain"))
    if fault is not None:
        _warn(__name__, "model failed, so the dome was closed: %s", fault)
    with open_sink("-") as stdout:  # a closed stdout is a sink that cannot be opened
        emit_signal(command, stdout)
    return 0


def _reading(args: argparse.Namespace, name: str) -> Union[float, bool]:
    """The ``predict`` flag ``name``, a feature or ``rain``, read as a frames CSV cell is."""
    from .raw import _parse_hour, _parse_number, _parse_rain, _RowRejected
    text = _require(getattr(args, name), f"--{name}")
    try:
        if name == "rain":
            return _parse_rain(text)
        return float(_parse_hour(text)) if name == "hour" else _parse_number(text, name)
    except _RowRejected:
        expected = {"hour": "an hour of the day", "rain": "0/1, no/yes or false/true"}.get(
            name, "a finite decimal (unit optional)")
        raise ValueError(f"--{name} must be {expected}, got {text!r}") from None


def _stderr_line(text: str, head: str = "domepilot: ") -> None:
    """``<head><text>`` on stderr; a write it refuses is skipped, never sent to stdout."""
    with suppress(OSError, ValueError, AttributeError):  # a full, closed or None stderr
        sys.stderr.write(f"{head}{text}\n")


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
    prepare.add_argument("--city", default="Al Madina",
                         help="target city (default %(default)r)")
    prepare.add_argument("--table", help="override condition table (condition,flag CSV)")
    prepare.add_argument("--out", help="labeled CSV to write")
    prepare.add_argument("--expect-sha256", dest="expect_sha256",
                         help="require this dataset content hash")
    common(prepare)
    prepare.set_defaults(func=cmd_prepare)

    train = commands.add_parser("train", help="train a classifier on labeled data")
    train.add_argument("--data", help="labeled CSV from prepare")
    train.add_argument("--model", default="dt", help="dt or knn")
    train.add_argument("--max-leaves", dest="max_leaves", default=50, help="tree leaf budget")
    train.add_argument("--criterion", default="gini", help="gini or entropy")
    train.add_argument("--k", default="auto", help="neighbor count or 'auto' (sqrt rule)")
    train.add_argument("--scaling", default="none", help="none or standardize")
    train.add_argument("--out", help="model JSON to write")
    common(train)
    train.set_defaults(func=cmd_train)

    ev = commands.add_parser("evaluate", help="score a model on the held-out split")
    ev.add_argument("--model", help="model JSON")
    ev.add_argument("--data", help="labeled CSV")
    ev.add_argument("--report", help="evaluation report JSON to write")
    common(ev)
    ev.set_defaults(func=cmd_evaluate)

    sim = commands.add_parser("simulate", help="replay sensor frames through a model")
    sim.add_argument("--model", help="model JSON")
    sim.add_argument("--frames", help="frames CSV (weather schema plus rain)")
    sim.add_argument("--log", help="decision log JSONL to write")
    sim.add_argument("--sink", help="actuator sink: path, tcp:host:port, or -")
    sim.add_argument("--table", help="condition table prepare labeled with (condition,flag CSV)")
    common(sim)
    sim.set_defaults(func=cmd_simulate)

    pred = commands.add_parser("predict", help="one-shot dome command")
    pred.add_argument("--model", help="model JSON")
    for name in FEATURE_NAMES:
        pred.add_argument(f"--{name}")
    pred.add_argument("--rain", help="rain sensor: 0/1, no/yes or false/true")
    common(pred)
    pred.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    """Run one command; the cyclic GC is off meanwhile and then as it was.

    A command builds tens of thousands of acyclic records (frames, log
    entries, samples), which the collector would walk again and again.
    """
    _PRINTERS.append(_stderr_line)  # a command runs: the package's warnings are printed
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            if args.config is not None:
                _set_config_defaults(parser, args.config)
                args = parser.parse_args(argv)
            return args.func(args)
        except (ValueError, OSError, RuntimeError) as exc:
            message = str(exc)
            # A predict input or --config error: the actuator hears a close before the error.
            if args.command == "predict" and not isinstance(exc, RuntimeError):
                from .cli import (CAUSE_MODEL_ERROR, DomeCommand, SignalDeliveryError,
                                  emit_signal, open_sink)
                # Unsent (a full or closed stdout), the error is reported as it was.
                with suppress(SignalDeliveryError, OSError), open_sink("-") as stdout:
                    emit_signal(DomeCommand(0, CAUSE_MODEL_ERROR), stdout)
                    message += "; dome closed"
            _stderr_line(f"error: {message}")
            return 2
    finally:
        _PRINTERS.pop()
        if gc_was_enabled:
            gc.enable()
