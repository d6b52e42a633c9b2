"""The benchmark's tracer still finds every name it wraps.

``bench/tracing.py`` rebinds functions of ``domepilot.cli`` and
``domepilot.controller`` by name, and checks models against
``domepilot.tree.TreeModel``. A renamed function breaks only traced runs, so
this test runs the CLI through ``bench/child.py`` with tracing on, as the
benchmark does, and checks that the spans of prepare, train, evaluate and
simulate together cover every per-layer total the benchmark reports, and
that simulate with either model records its predictions under the replay.
"""

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_record_every_layer_total(workspace, tmp_path):
    layers = _bench_layers()
    ws = workspace
    runs = {
        "prepare": ["prepare", "--data", ws["raw"], "--out", tmp_path / "labeled.csv"],
        **{f"train {kind}": ["train", "--data", ws["labeled"], "--model", kind,
                             "--out", tmp_path / f"{kind}.json"] for kind in ("dt", "knn")},
        **{f"evaluate {kind}": ["evaluate", "--model", ws[kind], "--data", ws["labeled"],
                                "--report", tmp_path / f"{kind}.report.json"]
           for kind in ("dt", "knn")},
        **{f"simulate {kind}": ["simulate", "--model", ws[kind], "--frames", ws["frames"],
                                "--log", tmp_path / f"{kind}.log.jsonl",
                                "--sink", tmp_path / f"{kind}.wire.txt"] for kind in ("dt", "knn")},
    }
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    names, replayed = set(), {}
    for run, args in runs.items():
        spans = tmp_path / f"{run.replace(' ', '-')}.spans.jsonl"
        result = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "cli", *map(str, args)],
            env={**env, "BENCH_SPANS": str(spans), "BENCH_SPAWN_NS": str(time.monotonic_ns())},
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, f"{run}: {result.stderr}"
        recorded = layers.read_spans(spans)
        names |= {span["name"] for span in recorded}
        # controller.model_calls counts the model's predict spans under the replay.
        replayed[run] = {span["name"] for span in recorded if span["parent"] >= 0
                         and recorded[span["parent"]]["name"] == "controller.replay"}
    missing = sorted(set(layers._TOTALS) - names)
    assert not missing, missing
    assert "knn.predict" in replayed["simulate knn"], replayed["simulate knn"]
    assert "tree.predict" in replayed["simulate dt"], replayed["simulate dt"]
