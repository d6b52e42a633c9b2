"""Per-layer metrics from the spans of one traced pass.

Each metric names the end-to-end metric it should move. ``.s`` is total
seconds inside the call, ``.calls`` the call count, ``.self_s`` the span
minus its child spans. Counts must repeat exactly from run to run; those
the generator fixes are marked higher-is-better in BENCHMARK.json only
because every metric needs a direction.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

CAUSES = ("model", "rain_override", "temp_gate", "unmapped_condition")

#: (name, unit, end-to-end metric it should move)
PER_LAYER = (
    ("weather.parse_dataset.s", "s", "prepare_s"),
    ("weather.parse_dataset.rows", "count", "prepare_s"),
    ("weather.parse_dataset.rejected", "count", "prepare_s"),
    ("weather.to_samples.s", "s", "prepare_s"),
    ("weather.to_samples.unmapped", "count", "prepare_s"),
    ("weather.write_labeled_csv.s", "s", "prepare_s"),
    ("weather.read_labeled_csv.s", "s", "train_*_s, evaluate_*_s"),
    ("weather.read_labeled_csv.calls", "count", "train_*_s, evaluate_*_s"),
    ("weather.split.s", "s", "train_*_s, evaluate_*_s"),
    ("weather.split.calls", "count", "train_*_s, evaluate_*_s"),
    ("tree.train_tree.s", "s", "train_dt_s"),
    ("tree.leaves", "count", "train_dt_s"),
    ("tree.predict.calls", "count", "evaluate_dt_s, decision_p50_us (dt replay)"),
    ("tree.predict.s", "s", "evaluate_dt_s, decision_p50_us (dt replay)"),
    ("knn.train_knn.s", "s", "train_knn_s"),
    ("knn.predict.calls", "count", "evaluate_knn_s, simulate_s (knn replay)"),
    ("knn.predict.s", "s", "evaluate_knn_s, simulate_s (knn replay)"),
    ("knn.predict.p50_us", "us", "evaluate_knn_s, decision_p50_us (knn replay)"),
    ("knn.predict.p99_us", "us", "evaluate_knn_s, simulate_s (knn replay)"),
    ("metrics.evaluate.s", "s", "evaluate_dt_s, evaluate_knn_s"),
    ("metrics.evaluate.self_s", "s", "evaluate_dt_s"),
    ("controller.read_frames_csv.s", "s", "simulate_s"),
    ("controller.read_frames_csv.rejected", "count", "simulate_s"),
    ("controller.to_jsonl.s", "s", "simulate_s"),
    ("controller.replay.s", "s", "simulate_s, decision_p50_us"),
    ("controller.replay.self_s", "s", "decision_p50_us (dt replay)"),
    ("controller.decision_p99_us", "us", "decision_p50_us (its tail, untraced)"),
    ("controller.frames", "count", "simulate_s"),
    *((f"controller.cause.{cause}", "count", "simulate_s") for cause in CAUSES),
    ("controller.model_calls", "count", "simulate_s, decision_p50_us"),
    ("controller.model_calls_used_ratio", "ratio", "simulate_s, decision_p50_us"),
    ("cli.startup_s", "s", "every command metric"),
    ("cli.load_model.s", "s", "evaluate_*_s, simulate_s"),
    ("cli.save_model.s", "s", "train_*_s"),
    ("cli.model_bytes.dt", "bytes", "evaluate_dt_s, simulate_s (dt replay)"),
    ("cli.model_bytes.knn", "bytes", "train_knn_s, evaluate_knn_s, simulate_s (knn replay)"),
    ("cli.prepare.self_s", "s", "prepare_s"),
    ("cli.train.self_s", "s", "train_dt_s, train_knn_s"),
    ("cli.evaluate.self_s", "s", "evaluate_dt_s, evaluate_knn_s"),
    ("cli.simulate.self_s", "s", "simulate_s"),
)

#: Span names whose per-call total, count or self time is reported as is.
_TOTALS = ("weather.parse_dataset", "weather.to_samples", "weather.write_labeled_csv",
           "weather.read_labeled_csv", "weather.split", "tree.train_tree", "tree.predict",
           "knn.train_knn", "knn.predict", "metrics.evaluate", "controller.read_frames_csv",
           "controller.to_jsonl", "controller.replay", "cli.load_model", "cli.save_model",
           "cli.prepare", "cli.train", "cli.evaluate", "cli.simulate")


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream]


def _active_ns(start: int, end: int, pauses: list) -> int:
    """Span duration without the times the benchmark had the child paused."""
    paused = sum(max(0, min(end, resume) - max(start, stop)) for stop, resume in pauses)
    return end - start - paused


def per_layer(children: list[tuple[list[dict], list]], decision_p99_us: float) -> dict:
    """Per-layer metric values from each CLI child's (spans, pauses)."""
    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    knn_calls_ns: list[int] = []
    attrs = defaultdict(list)
    startups: list[int] = []
    replay_model_calls = 0
    for spans, pauses in children:
        durations = [_active_ns(span["start"], span["end"], pauses) for span in spans]
        child_ns = [0] * len(spans)
        for span, duration in zip(spans, durations):
            if span["parent"] >= 0:
                child_ns[span["parent"]] += duration
        for i, (span, duration) in enumerate(zip(spans, durations)):
            name = span["name"]
            if name == "cli.startup":
                startups.append(duration)
                continue
            total[name] += duration
            self_ns[name] += duration - child_ns[i]
            calls[name] += 1
            if span["attrs"]:
                attrs[name].append(span["attrs"])
            if name == "knn.predict":
                knn_calls_ns.append(duration)
            if name.endswith(".predict") and span["parent"] >= 0 \
                    and spans[span["parent"]]["name"] == "controller.replay":
                replay_model_calls += 1
    values = {}
    for name in _TOTALS:
        values[f"{name}.s"] = total[name] / 1e9
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_ns[name] / 1e9
    values["weather.parse_dataset.rows"] = sum(a["rows"] for a in attrs["weather.parse_dataset"])
    values["weather.parse_dataset.rejected"] = sum(
        a["rejected"] for a in attrs["weather.parse_dataset"])
    values["weather.to_samples.unmapped"] = sum(a["rejected"] for a in attrs["weather.to_samples"])
    values["tree.leaves"] = max((a["leaves"] for a in attrs["tree.train_tree"]), default=0)
    values["knn.predict.p50_us"] = percentile(knn_calls_ns, 50) / 1e3 if knn_calls_ns else 0.0
    values["knn.predict.p99_us"] = percentile(knn_calls_ns, 99) / 1e3 if knn_calls_ns else 0.0
    values["controller.read_frames_csv.rejected"] = sum(
        a["rejected"] for a in attrs["controller.read_frames_csv"])
    values["controller.decision_p99_us"] = decision_p99_us
    replays = attrs["controller.replay"]
    values["controller.frames"] = sum(a["frames"] for a in replays)
    for cause in CAUSES:
        values[f"controller.cause.{cause}"] = sum(a["causes"].get(cause, 0) for a in replays)
    values["controller.model_calls"] = replay_model_calls
    values["controller.model_calls_used_ratio"] = (
        values["controller.cause.model"] / replay_model_calls if replay_model_calls else 0.0)
    values["cli.startup_s"] = statistics.median(startups or [0]) / 1e9
    for kind in ("dt", "knn"):
        values[f"cli.model_bytes.{kind}"] = max(
            (a["bytes"] for a in attrs["cli.save_model"] if a["kind"] == kind), default=0)
    return {name: values[name] for name, _unit, _maps in PER_LAYER}
