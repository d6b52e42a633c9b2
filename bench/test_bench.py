"""Self-tests of the benchmark: generator determinism, oracle sensitivity, names.

    python3 -m pytest bench/test_bench.py -q

Run from the repository root. The oracle tests run the real ``domepilot``
commands on small generated inputs, check that every oracle accepts the
outputs, then corrupt one output at a time and check the oracle rejects it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from layers import PER_LAYER  # noqa: E402

SEED = 5
ROWS = 3_000
FRAMES = 600


def test_generator_is_byte_identical_for_one_seed_and_differs_across_seeds():
    assert gen.raw_dataset(SEED, 500)[0] == gen.raw_dataset(SEED, 500)[0]
    assert gen.frames(SEED, 500)[0] == gen.frames(SEED, 500)[0]
    assert gen.raw_dataset(SEED, 500)[0] != gen.raw_dataset(SEED + 1, 500)[0]
    assert gen.frames(SEED, 500)[0] != gen.frames(SEED + 1, 500)[0]


def test_generator_lets_the_tie_rule_decide_the_block_vote():
    for rows, seed in ((ROWS, SEED), (4_000, 1), (20_000, 2)):
        train, _ = oracles.split(oracles.labeled_rows(gen.raw_dataset(seed, rows)[1]),
                                 oracles.KNN_SPLIT)
        X = np.asarray([f for f, _ in train])
        y = np.asarray([label for _, label in train])
        k = oracles.default_k(len(train))
        query = np.asarray([gen.DUPLICATE_FEATURES])
        assert (X == query).all(axis=1).sum() > k
        assert oracles.knn_oracle(X, y, k, query).tolist() == [1]
        assert oracles.knn_oracle(X[::-1], y[::-1], k, query).tolist() == [0]


def test_knn_sample_draws_distinct_queries_with_the_block_vector_once():
    _, test = oracles.split(oracles.labeled_rows(gen.raw_dataset(1, 20_000)[1]),
                            oracles.KNN_SPLIT)
    queries = [test[i][0] for i in oracles.knn_sample([f for f, _ in test], 1)]
    assert len(queries) == len(set(queries)) == oracles.KNN_SAMPLE >= 200
    assert queries.count(gen.DUPLICATE_FEATURES) == 1


def test_generator_has_the_documented_properties():
    text, truth = gen.raw_dataset(SEED, 20_000)
    kinds = [row.kind for row in truth]
    assert 150 <= kinds.count("unmapped") <= 250
    assert 150 <= kinds.count("malformed") <= 250
    conditions = {" ".join(r.condition.split()).casefold() for r in truth if r.kind == "ok"}
    assert conditions == set(gen.FLAGS)
    duplicates = [r for r in truth if r.kind == "ok" and r.features == gen.DUPLICATE_FEATURES]
    assert len(duplicates) > 2 * 117
    assert {r.label for r in duplicates} == {0, 1}
    for messy in ("°c", "km/h", "%", " am", " pm", "calm", "mbar"):
        assert messy in text
    for date_format in (r"\d{4}-\d\d-\d\d", r"\d\d/\d\d/\d{4}", r",\d+\.\d+\.\d{4},"):
        assert re.search(date_format, text)
    _, frames = gen.frames(SEED, 20_000)
    assert 0.08 < sum(bool(r.rain) for r in frames) / len(frames) < 0.12


def test_knn_oracle_breaks_distance_ties_by_training_index():
    X = np.zeros((6, 2))
    X[5] = (9.0, 9.0)
    y = np.array([1, 0, 0, 1, 1, 1])
    query = np.zeros((1, 2))
    assert oracles.knn_oracle(X, y, 3, query).tolist() == [0]   # rows 0, 1, 2
    assert oracles.knn_oracle(X, y, 1, query).tolist() == [1]   # row 0
    swapped = y[[1, 0, 2, 3, 4, 5]]
    assert oracles.knn_oracle(X, swapped, 1, query).tolist() == [0]


def _domepilot(cwd: Path, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "domepilot", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    where = tmp_path_factory.mktemp("bench")
    raw_text, raw = gen.raw_dataset(SEED, ROWS)
    frames_text, frames = gen.frames(SEED, FRAMES)
    (where / "raw.csv").write_text(raw_text, encoding="utf-8")
    (where / "frames.csv").write_text(frames_text, encoding="utf-8")
    summary = json.loads(_domepilot(where, "prepare", "--data", "raw.csv",
                                    "--out", "labeled.csv").splitlines()[-1])
    for args in run.PIPELINE[1:]:
        _domepilot(where, *args[1])
    _domepilot(where, "simulate", "--model", "dt.json", "--frames", "frames.csv",
               "--log", "decisions.jsonl", "--sink", "wire.txt")
    labeled = oracles.labeled_rows(raw)
    return {"where": where, "raw": raw, "frames": frames, "summary": summary,
            "labeled": labeled, "dt": oracles.split(labeled, oracles.DT_SPLIT),
            "knn": oracles.split(labeled, oracles.KNN_SPLIT)}


def _tree(out):
    return oracles.tree_predictor(json.loads((out["where"] / "dt.json").read_text()))


def _decisions(out):
    tree = _tree(out)
    accepted = [r for r in out["frames"] if r.kind != "malformed"]
    predictions = {i: tree(r.features) for i, r in enumerate(accepted) if r.kind == "ok"}
    return oracles.check_decisions(out["where"] / "decisions.jsonl", out["where"] / "wire.txt",
                                   out["frames"], predictions)


def test_oracles_accept_the_program_outputs(outputs):
    where = outputs["where"]
    assert oracles.check_prepare(outputs["summary"], outputs["raw"]) == []
    assert oracles.check_labeled_csv(where / "labeled.csv", outputs["labeled"]) == []
    dt_train, dt_test = outputs["dt"]
    assert oracles.check_tree(json.loads((where / "dt.json").read_text()), dt_train) == []
    report = json.loads((where / "dt-report.json").read_text())
    assert oracles.check_report(report, len(dt_test),
                                oracles.confusion_of(_tree(outputs), dt_test)) == []
    knn_train, knn_test = outputs["knn"]
    knn_doc = json.loads((where / "knn.json").read_text())
    assert oracles.check_knn_model(knn_doc, knn_train) == []
    assert oracles.check_report(json.loads((where / "knn-report.json").read_text()),
                                len(knn_test)) == []
    assert _decisions(outputs) == ([], 0)


def test_label_oracle_rejects_a_flipped_label(outputs, tmp_path):
    lines = (outputs["where"] / "labeled.csv").read_text().splitlines(keepends=True)
    cells = lines[7].rstrip("\r\n").split(",")
    cells[-1] = str(1 - int(cells[-1]))
    lines[7] = ",".join(cells) + "\r\n"
    (tmp_path / "labeled.csv").write_text("".join(lines))
    assert oracles.check_labeled_csv(tmp_path / "labeled.csv", outputs["labeled"])


def test_knn_oracle_rejects_a_swapped_tied_neighbour(outputs):
    knn_train, knn_test = outputs["knn"]
    doc = json.loads((outputs["where"] / "knn.json").read_text())
    tied = [i for i, row in enumerate(doc["data"])
            if tuple(row[:-1]) == gen.DUPLICATE_FEATURES]
    first = next(i for i in tied if doc["data"][i][-1] != doc["data"][tied[0]][-1])
    doc["data"][tied[0]], doc["data"][first] = doc["data"][first], doc["data"][tied[0]]
    assert oracles.check_knn_model(doc, knn_train)


def test_knn_oracle_rejects_a_flipped_prediction(outputs):
    _, knn_test = outputs["knn"]
    X, y, k = oracles.knn_arrays(json.loads((outputs["where"] / "knn.json").read_text()))
    queries = [knn_test[i][0] for i in oracles.knn_sample([f for f, _ in knn_test], SEED)]
    expected = oracles.knn_oracle(X, y, k, np.asarray(queries)).tolist()
    assert oracles.check_predictions(expected, expected, "knn") == []
    wrong = list(expected)
    wrong[0] = 1 - wrong[0]
    assert oracles.check_predictions(wrong, expected, "knn")


def _child_predictions(where: Path, model: str) -> list[int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "child.py"), "predict", model, "queries.json",
                    "predicted.json"], cwd=where, env=env, check=True)
    return json.loads((where / "predicted.json").read_text())


def test_knn_prediction_oracle_rejects_a_reversed_tie_rule(outputs, tmp_path):
    """Rows stored in reverse order make the program break distance ties
    toward the higher training index; the sampled queries must show it."""
    _, knn_test = outputs["knn"]
    doc = json.loads((outputs["where"] / "knn.json").read_text())
    X, y, k = oracles.knn_arrays(doc)
    queries = [knn_test[i][0] for i in oracles.knn_sample([f for f, _ in knn_test], SEED)]
    (tmp_path / "queries.json").write_text(json.dumps(queries))
    expected = oracles.knn_oracle(X, y, k, np.asarray(queries)).tolist()
    (tmp_path / "knn.json").write_text(json.dumps(doc))
    assert oracles.check_predictions(_child_predictions(tmp_path, "knn.json"), expected,
                                     "knn") == []
    doc["data"].reverse()
    (tmp_path / "reversed.json").write_text(json.dumps(doc))
    assert oracles.check_predictions(_child_predictions(tmp_path, "reversed.json"), expected,
                                     "knn")


def test_report_oracle_rejects_a_wrong_accuracy(outputs):
    _, dt_test = outputs["dt"]
    report = json.loads((outputs["where"] / "dt-report.json").read_text())
    report["accuracy"] += 1 / len(dt_test)
    assert oracles.check_report(report, len(dt_test))


def test_controller_oracle_rejects_a_rain_frame_sent_open(outputs, tmp_path):
    where = outputs["where"]
    entries = [json.loads(line) for line in (where / "decisions.jsonl").read_text().splitlines()]
    wire = (where / "wire.txt").read_text().splitlines(keepends=True)
    rain = next(i for i, e in enumerate(entries) if e["cause"] == "rain_override")
    entries[rain].update(dome=1, ac=0)
    wire[rain] = "D:1 A:0\n"
    (tmp_path / "decisions.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
    (tmp_path / "wire.txt").write_text("".join(wire))
    outputs = dict(outputs, where=tmp_path)
    (tmp_path / "dt.json").write_text((where / "dt.json").read_text())
    errors, bad = _decisions(outputs)
    assert errors and bad == 1


def test_controller_oracle_rejects_a_missing_wire_line(outputs, tmp_path):
    where = outputs["where"]
    wire = (where / "wire.txt").read_text().splitlines(keepends=True)
    (tmp_path / "wire.txt").write_text("".join(wire[:-1]))
    for name in ("decisions.jsonl", "dt.json"):
        (tmp_path / name).write_text((where / name).read_text())
    errors, bad = _decisions(dict(outputs, where=tmp_path))
    assert errors and bad >= 1


def test_missing_outputs_are_counted_as_failures(outputs, tmp_path):
    """A command that failed leaves no output; the checks count that and go on."""
    inputs = run.Inputs(outputs["raw"], outputs["frames"], outputs["labeled"],
                        outputs["dt"], outputs["knn"])
    for model in ("dt", "knn"):
        tally = run.Tally()
        workload = run.Workload(rows=ROWS, frames=FRAMES, replay_model=model)
        where = tmp_path / model
        where.mkdir()
        run.Runner(ROOT, tmp_path, workload, SEED, inputs, tally).check_outputs(
            run.Measurement(where))
        assert tally.failed > 0 and tally.attempted >= tally.failed


def test_startup_stamp_is_taken_after_the_speed_probe(tmp_path):
    """cli.startup_s runs from BENCH_SPAWN_NS, so the parent's speed probe, an
    interpreter start and exit, must come before the stamp. A child without
    site imports reaches its first statement in well under one probe."""
    runner = run.Runner(ROOT, tmp_path, run.WORKLOADS["replay-dt"], SEED, None, run.Tally())
    code = "import os, time; print(time.monotonic_ns() - int(os.environ['BENCH_SPAWN_NS']))"
    gaps, probes = [], []
    for _ in range(3):
        runner.spawn([sys.executable, "-I", "-S", "-c", code], tmp_path, tmp_path / "spans")
        gaps.append(int((tmp_path / "stdout.txt").read_text()) / 1e9)
        probes.append(speed.calibrate())
    assert min(gaps) < min(probes)


def test_printed_metric_names_equal_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    layer = [name for name, _unit, _maps in PER_LAYER] + list(run.OVERHEAD)
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "replay-dt",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
