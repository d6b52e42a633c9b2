"""Span recording around domepilot's public functions, from outside ``src/``.

``install`` replaces module attributes with recording wrappers exactly where
``domepilot.cli`` and ``domepilot.controller`` look them up, and wraps the
``predict`` of every model ``cli.load_model`` returns. Spans stay in memory
and are written as JSON lines by ``Tracer.dump`` when the process is done.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


class Tracer:
    """In-memory spans: name, start/end (monotonic ns), parent index, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []

    def record(self, name: str, start: int, end: int, **attrs) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, attrs])

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording one span per call; ``describe(result, args)`` adds attrs."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.monotonic_ns(), 0, stack[-1] if stack else -1, {}])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.monotonic_ns()
            if describe is not None:
                spans[index][4] = describe(result, args)
            return result

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, attrs in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "run": self.run_id,
                                      "attrs": attrs}) + "\n")


def _report_counts(result, _args) -> dict:
    report = result[1]
    return {"rows": report.rows_read, "rejected": report.rejected}


def _cause_counts(log, _args) -> dict:
    counts: dict[str, int] = {}
    for entry in log:
        counts[entry.command.cause] = counts.get(entry.command.cause, 0) + 1
    return {"frames": len(log), "causes": counts}


def install(tracer: Tracer) -> None:
    """Wrap the layer functions the CLI and the controller call."""
    from domepilot import cli, controller, tree

    def model_bytes(_result, args) -> dict:
        model, path = args[0], args[1]
        kind = "dt" if isinstance(model, tree.TreeModel) else "knn"
        return {"kind": kind, "bytes": os.path.getsize(path)}

    def traced_load(path):
        model = load(path)
        layer = "tree" if isinstance(model, tree.TreeModel) else "knn"
        model.predict = tracer.wrap(f"{layer}.predict", model.predict)
        return model

    load = tracer.wrap("cli.load_model", cli.load_model)
    wrappers = {
        "parse_dataset": ("weather.parse_dataset", _report_counts),
        "to_samples": ("weather.to_samples", _report_counts),
        "write_labeled_csv": ("weather.write_labeled_csv", None),
        "read_labeled_csv": ("weather.read_labeled_csv", None),
        "split": ("weather.split", None),
        "train_tree": ("tree.train_tree", lambda m, _a: {"leaves": m.leaf_count}),
        "train_knn": ("knn.train_knn", None),
        "evaluate": ("metrics.evaluate", None),
        "read_frames_csv": ("controller.read_frames_csv", _report_counts),
        "replay": ("controller.replay", _cause_counts),
        "save_model": ("cli.save_model", model_bytes),
        "cmd_prepare": ("cli.prepare", None),
        "cmd_train": ("cli.train", None),
        "cmd_evaluate": ("cli.evaluate", None),
        "cmd_simulate": ("cli.simulate", None),
    }
    for attr, (name, describe) in wrappers.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), describe))
    cli.load_model = traced_load
    controller.replay = cli.replay
    controller.DecisionLog.to_jsonl = tracer.wrap("controller.to_jsonl",
                                                  controller.DecisionLog.to_jsonl)
