"""The benchmark's tracer and probes still find every name they use.

``bench/tracing.py`` rebinds functions of ``domepilot.cli`` and
``domepilot.controller`` by name, and checks models against
``domepilot.tree.TreeModel``. A renamed function breaks only traced runs, so
this test runs the CLI through ``bench/child.py`` with tracing on, as the
benchmark does, and checks that the spans of prepare, train, evaluate and
simulate together cover every per-layer total the benchmark reports, and
that simulate with either model records its predictions under the replay.
The ``frames`` and ``replay`` probes call ``controller.read_frames_csv`` and
``controller.replay``; they run here too, on both models.
"""

import importlib.util
import json
import pickle
import subprocess
import sys
import time
from pathlib import Path

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
ENV = src_env()


def _child(*args, **env) -> subprocess.CompletedProcess:
    """``bench/child.py ARGS`` as the benchmark runs it, with ``env`` added."""
    return subprocess.run([sys.executable, str(BENCH / "child.py"), *map(str, args)],
                          env={**ENV, **env}, capture_output=True, text=True, timeout=120)


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
    names, replayed = set(), {}
    for run, args in runs.items():
        spans = tmp_path / f"{run.replace(' ', '-')}.spans.jsonl"
        result = _child("cli", *args, BENCH_SPANS=str(spans),
                        BENCH_SPAWN_NS=str(time.monotonic_ns()))
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


def test_the_frames_and_replay_probes_run_on_both_models(workspace, tmp_path):
    parsed = tmp_path / "frames.pickle"
    result = _child("frames", workspace["frames"], parsed)
    assert result.returncode == 0, result.stderr
    with open(parsed, "rb") as stream:
        frames = pickle.load(stream)
    assert len(frames) > 0
    for kind in ("dt", "knn"):
        out = tmp_path / f"{kind}.replay.json"
        result = _child("replay", workspace[kind], parsed, out)
        assert result.returncode == 0, f"{kind}: {result.stderr}"
        probe = json.loads(out.read_text())
        assert probe["samples"] > 0, kind
        # One 8-byte wire line, D:<0|1> A:<0|1> and a newline, per parsed frame.
        assert len(probe["wire"]) == 8 * len(frames), kind
        assert set(probe["wire"].splitlines(keepends=True)) <= {"D:0 A:1\n", "D:1 A:0\n"}
