import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import logging
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domepilot
from domepilot import cli
from domepilot.cli import load_model, save_model
from domepilot.controller import SignalDeliveryError, replay
from domepilot.grow import train_tree
from domepilot.knnmodel import KnnModel, train_knn
from domepilot.raw import ConditionTable, WeatherObservation, read_frames_csv
from domepilot.synthetic import synthetic_observations, to_raw_csv
from domepilot.tree import TreeConfig
from domepilot.weather import FEATURE_NAMES, SplitSpec, check_ranges

from conftest import EXPECTED_TABLE1, run_cli, src_env


# ---------------------------------------------------------------- defaults

def test_default_run_config_snapshot():
    parser = cli.build_parser()
    assert parser.parse_args(["prepare"]).city == "Al Madina"
    train = parser.parse_args(["train"])
    assert (train.model, train.criterion, train.max_leaves) == ("dt", "gini", 50)
    assert (train.k, train.scaling) == ("auto", "none")
    assert cli.SPLITS == {"dt": SplitSpec(test_fraction=0.33, seed=324),
                          "knn": SplitSpec(test_fraction=0.30, seed=101)}
    assert TreeConfig() == TreeConfig(criterion="gini", max_leaf_nodes=50)


#: Every option of every subcommand: a new knob is an edit here.
OPTIONS = {
    "prepare": {"--data", "--city", "--table", "--out", "--expect-sha256", "--config"},
    "train": {"--data", "--model", "--max-leaves", "--criterion", "--k", "--scaling", "--out",
              "--config"},
    "evaluate": {"--model", "--data", "--report", "--config"},
    "simulate": {"--model", "--frames", "--log", "--sink", "--table", "--config"},
    "predict": {"--model", "--temp", "--wind", "--humidity", "--hour", "--visibility",
                "--barometer", "--rain", "--config"},
}


def test_each_subcommand_has_exactly_its_options():
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert set(commands) == set(OPTIONS)
    for name, command in commands.items():
        options = {option for action in command._actions for option in action.option_strings}
        assert options - {"-h", "--help"} == OPTIONS[name], name


# ---------------------------------------------------------------- prepare

def test_prepare_reports_counts_and_writes_labeled_csv(workspace):
    summary_path = workspace["labeled"]
    assert summary_path.exists()
    again = workspace["root"] / "again.csv"
    result = run_cli("prepare", "--data", workspace["raw"], "--out", again)
    summary = json.loads(result.stdout)
    assert summary["input_rows"] == 900
    assert summary["labeled_rows"] == 900
    assert summary["city"] == "Al Madina"
    assert "sha256" in summary
    assert "content hash not verified" in result.stderr
    assert again.read_bytes() == workspace["labeled"].read_bytes()


def test_prepare_city_without_matches_warns_and_writes_empty(workspace, tmp_path):
    out = tmp_path / "none.csv"
    result = run_cli("prepare", "--data", workspace["raw"], "--city", "Jeddah",
                     "--out", out)
    assert result.returncode == 0
    assert json.loads(result.stdout)["labeled_rows"] == 0
    assert "Jeddah" in result.stderr


def test_prepare_schema_error_leaves_no_artifact(workspace, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("city,date,time,temp,wind,humidity,barometer,weather\n")
    out = tmp_path / "out.csv"
    result = run_cli("prepare", "--data", bad, "--out", out)
    assert result.returncode != 0
    assert "visibility" in result.stderr
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp*"))


def test_prepare_sha256_verification(workspace, tmp_path):
    digest = hashlib.sha256(workspace["raw"].read_bytes()).hexdigest()
    out = tmp_path / "ok.csv"
    good = run_cli("prepare", "--data", workspace["raw"], "--out", out,
                   "--expect-sha256", digest)
    assert good.returncode == 0
    assert "content hash not verified" not in good.stderr
    bad = run_cli("prepare", "--data", workspace["raw"], "--out", out,
                  "--expect-sha256", "0" * 64)
    assert bad.returncode != 0 and "hash mismatch" in bad.stderr


def test_prepare_with_override_table(workspace, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("condition,flag\nClear,0\nHaze,0\nDuststorm,0\n"
                     "Passing clouds,0\nRain passing clouds,0\n")
    out = tmp_path / "strict.csv"
    result = run_cli("prepare", "--data", workspace["raw"], "--out", out,
                     "--table", table)
    assert result.returncode == 0
    states = {line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]}
    assert states == {"0"}  # every condition remapped to closed


@pytest.mark.parametrize("column", ["temp", "humidity", "visibility"])
def test_prepare_rejects_and_counts_an_overflowing_cell(workspace, tmp_path, column):
    # 400 digits read as float("inf"); the row is dropped, never written out.
    with open(workspace["raw"], newline="") as stream:
        rows = list(csv.reader(stream))
    rows[31][[name.lower() for name in rows[0]].index(column)] = "9" * 400
    raw = tmp_path / "raw.csv"
    with open(raw, "w", newline="") as stream:
        csv.writer(stream).writerows(rows)
    out = tmp_path / "labeled.csv"
    result = run_cli("prepare", "--data", raw, "--out", out)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["parse_rejected"] == 1
    assert summary["parse_reasons"] == {f"bad_{column}": 1}
    assert summary["labeled_rows"] == 899
    assert "inf" not in out.read_text()
    assert run_cli("train", "--data", out, "--model", "dt",
                   "--out", tmp_path / "dt.json").returncode == 0


# ---------------------------------------------------------------- train / evaluate

def test_train_and_evaluate_are_byte_deterministic(workspace, tmp_path):
    model_a = tmp_path / "a.json"
    model_b = tmp_path / "b.json"
    for path in (model_a, model_b):
        result = run_cli("train", "--data", workspace["labeled"], "--model", "dt",
                         "--out", path)
        assert result.returncode == 0, result.stderr
    assert model_a.read_bytes() == model_b.read_bytes()

    report_a = tmp_path / "a-report.json"
    report_b = tmp_path / "b-report.json"
    outputs = []
    for path in (report_a, report_b):
        result = run_cli("evaluate", "--model", model_a,
                         "--data", workspace["labeled"], "--report", path)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert report_a.read_bytes() == report_b.read_bytes()
    assert outputs[0] == outputs[1]
    report = json.loads(report_a.read_text())
    assert report["split"] == {"test_fraction": 0.33, "seed": 324}
    assert report["accuracy"] >= 0.99


def test_train_knn_auto_k_uses_the_square_root_rule(workspace, tmp_path):
    model_path = tmp_path / "knn.json"
    result = run_cli("train", "--data", workspace["labeled"], "--model", "knn",
                     "--out", model_path)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["test_fraction"] == 0.3 and summary["seed"] == 101
    n_train = summary["n_train"]
    k = summary["k"]
    assert k % 2 == 1 and k * k <= n_train < (k + 2) * (k + 2)
    report_path = tmp_path / "knn-report.json"
    result = run_cli("evaluate", "--model", model_path,
                     "--data", workspace["labeled"], "--report", report_path)
    assert result.returncode == 0, result.stderr
    assert json.loads(report_path.read_text())["split"]["seed"] == 101

    explicit = run_cli("train", "--data", workspace["labeled"], "--model", "knn",
                       "--k", 5, "--scaling", "standardize",
                       "--out", tmp_path / "knn5.json")
    assert explicit.returncode == 0, explicit.stderr
    summary = json.loads(explicit.stdout)
    assert summary["k"] == 5 and summary["scaling"] == "standardize"


def test_train_flags_override_defaults(workspace, tmp_path):
    model_path = tmp_path / "tiny.json"
    result = run_cli("train", "--data", workspace["labeled"], "--model", "dt",
                     "--max-leaves", 2, "--criterion", "entropy", "--out", model_path)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["max_leaf_nodes"] == 2
    assert summary["criterion"] == "entropy"
    assert (summary["test_fraction"], summary["seed"]) == (0.33, 324)
    doc = json.loads(model_path.read_text())
    assert doc["config"]["max_leaf_nodes"] == 2


@pytest.mark.parametrize("kind", ["dt", "knn"])
def test_train_and_evaluate_hold_out_the_same_split(workspace, tmp_path, kind):
    model_path, report_path = tmp_path / f"{kind}.json", tmp_path / "report.json"
    trained = run_cli("train", "--data", workspace["labeled"], "--model", kind,
                      "--out", model_path)
    assert trained.returncode == 0, trained.stderr
    summary = json.loads(trained.stdout)
    scored = run_cli("evaluate", "--model", model_path, "--data", workspace["labeled"],
                     "--report", report_path)
    assert scored.returncode == 0, scored.stderr
    report = json.loads(report_path.read_text())
    assert report["split"] == {"test_fraction": summary["test_fraction"],
                               "seed": summary["seed"]}
    assert report["n_test"] == summary["n_test"]
    assert cli.SPLITS[kind] == SplitSpec(summary["test_fraction"], summary["seed"])


@pytest.mark.parametrize("command,option,value", [
    ("train", "--seed", "7"), ("train", "--test-frac", "0.5"),
    ("evaluate", "--seed", "7"), ("evaluate", "--test-frac", "0.5")])
def test_the_split_is_no_option(workspace, tmp_path, command, option, value):
    out = tmp_path / "out.json"
    args = {"train": ("--data", workspace["labeled"], "--out", out),
            "evaluate": ("--model", workspace["dt"], "--data", workspace["labeled"],
                         "--report", out)}[command]
    result = run_cli(command, *args, option, value)
    assert result.returncode == 2
    assert f"error: unrecognized arguments: {option} {value}" in result.stderr
    assert not out.exists()


def test_unknown_model_kind_fails(workspace, tmp_path):
    result = run_cli("train", "--data", workspace["labeled"], "--model", "svm",
                     "--out", tmp_path / "x.json")
    assert result.returncode != 0 and "svm" in result.stderr


# ---------------------------------------------------------------- predict

def test_predict_prints_the_wire_line(workspace):
    # Oracle first: the labeling rule gives state 1 for these features
    # (open-flag condition, 16 < 21 < 27), and the trained model must agree
    # before the golden line is asserted.
    model = load_model(workspace["dt"])
    features = (21.0, 0.0, 0.33, 0.0, 16.0, 1020.0)
    assert model.predict(features) == 1
    result = run_cli("predict", "--model", workspace["dt"], "--temp", 21,
                     "--wind", 0, "--humidity", 0.33, "--hour", 0,
                     "--visibility", 16, "--barometer", 1020, "--rain", 0)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "D:1 A:0\n"


def test_predict_rain_forces_closed(workspace):
    result = run_cli("predict", "--model", workspace["dt"], "--temp", 21,
                     "--wind", 0, "--humidity", 0.33, "--hour", 0,
                     "--visibility", 16, "--barometer", 1020, "--rain", 1)
    assert result.stdout == "D:0 A:1\n"


@pytest.mark.parametrize("flag,value", [("--wind", "nan"), ("--temp", "inf"),
                                        ("--visibility", "Infinity")])
def test_predict_rejects_non_finite_numbers(workspace, flag, value):
    args = list(PREDICT_ARGS)
    args[args.index(flag) + 1] = value
    result = run_cli("predict", "--model", workspace["dt"], *args)
    assert result.returncode == 2
    assert flag in result.stderr and "finite" in result.stderr
    assert result.stdout == "D:0 A:1\n"


def leaf_label_2_model(workspace, tmp_path):
    """The workspace tree with every leaf label set to 2, an invalid output."""
    doc = json.loads(workspace["dt"].read_text())
    for node in doc["nodes"]:
        if node["type"] == "leaf":
            node["label"] = 2
    model = tmp_path / "leaf2.json"
    model.write_text(json.dumps(doc))
    return model


@pytest.mark.parametrize("command", ["predict-rain-0", "predict-rain-1", "simulate"])
def test_leaf_label_2_model_exits_2_naming_the_file(workspace, tmp_path, command):
    model = leaf_label_2_model(workspace, tmp_path)
    if command == "simulate":
        args = ("simulate", "--model", model, "--frames", workspace["frames"],
                "--log", tmp_path / "log.jsonl")
    else:
        predict = list(PREDICT_ARGS)
        predict[predict.index("--rain") + 1] = command[-1]
        args = ("predict", "--model", model, *predict)
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.startswith(f"domepilot: error: {model}: tree node ")
    assert "label 2 is not the majority" in result.stderr
    assert result.stdout == ("" if command == "simulate" else "D:0 A:1\n")
    assert not (tmp_path / "log.jsonl").exists()


class RaisingModel:
    def predict(self, features):
        raise RuntimeError("model exploded")


class RecordingModel:
    def __init__(self):
        self.seen = []

    def predict(self, features):
        self.seen.append(tuple(features))
        return 1


def predict_in_process(monkeypatch, model, **flags):
    """Exit code of ``cli.main(["predict", ...])`` on ``model``, with the
    PREDICT_ARGS values of ``flags`` replaced."""
    monkeypatch.setattr(cli, "load_model", lambda path: model)
    args = list(map(str, PREDICT_ARGS))
    for name, value in flags.items():
        args[args.index(f"--{name}") + 1] = value
    return cli.main(["predict", "--model", "model.json", *args])


@pytest.mark.parametrize("rain", ["0", "1"])
def test_predict_with_a_faulty_model_fails_closed(monkeypatch, capsys, caplog, rain):
    assert predict_in_process(monkeypatch, RaisingModel(), rain=rain) == 0
    assert capsys.readouterr().out == "D:0 A:1\n"
    assert any(record.levelname == "WARNING" and "model failed" in record.getMessage()
               for record in caplog.records)


def test_predict_validates_rain_flag(workspace):
    result = run_cli("predict", "--model", workspace["dt"], "--temp", 21,
                     "--wind", 0, "--humidity", 0.33, "--hour", 0,
                     "--visibility", 16, "--barometer", 1020, "--rain", "wet")
    assert result.returncode != 0 and "--rain" in result.stderr


@pytest.mark.parametrize("humidity", ["40", "40 %", "0.4"])
def test_predict_reads_humidity_as_a_frames_cell_does(monkeypatch, capsys, humidity):
    model = RecordingModel()
    assert predict_in_process(monkeypatch, model, humidity=humidity) == 0
    assert model.seen == [(21.0, 0.0, 0.4, 0.0, 16.0, 1020.0)]
    assert capsys.readouterr().out == "D:1 A:0\n"


def test_predict_reads_units_and_clock_times(monkeypatch, capsys):
    model = RecordingModel()
    assert predict_in_process(monkeypatch, model, temp="21 °c", wind="calm",
                              hour="1:00 pm", barometer="1020 hpa") == 0
    assert model.seen == [(21.0, 0.0, 0.33, 13.0, 16.0, 1020.0)]


@pytest.mark.parametrize("hour", ["99", "25:00", "noon", "24:30", "7:99"])
def test_predict_rejects_an_hour_outside_the_day(monkeypatch, capsys, hour):
    model = RecordingModel()
    assert predict_in_process(monkeypatch, model, hour=hour) == 2
    assert model.seen == []
    captured = capsys.readouterr()
    assert captured.out == "D:0 A:1\n"
    assert captured.err.startswith("domepilot: error: --hour ")


@pytest.mark.parametrize("value", ["1e3", "2.5e1", "abc"])
def test_predict_names_the_number_grammar_a_reading_breaks(monkeypatch, capsys, value):
    # A frames cell takes no exponent, so 1e3 is refused as "abc" is; the
    # message says what a cell takes, not only that it must be finite.
    model = RecordingModel()
    assert predict_in_process(monkeypatch, model, temp=value) == 2
    assert model.seen == []
    assert capsys.readouterr().err == ("domepilot: error: --temp must be a finite decimal "
                                       f"(unit optional), got {value!r}; dome closed\n")


@pytest.mark.parametrize("flag,value,message", [
    ("humidity", "150", "humidity out of range: 1.5"),
    ("barometer", "-1000", "barometer must be positive: -1000.0"),
    ("barometer", "0", "barometer must be positive: 0.0"),
    ("visibility", "-4", "visibility must be nonnegative: -4.0"),
], ids=["humidity-150", "barometer-neg", "barometer-0", "visibility-neg"])
def test_predict_rejects_a_reading_a_frames_row_rejects(monkeypatch, capsys, flag, value,
                                                        message):
    row = {"city": "Al Madina", "date": "2019-05-01", "time": "0:00", "temp": "21",
           "wind": "0", "humidity": "0.33", "barometer": "1020", "visibility": "16",
           "weather": "Clear", "rain": "0", flag: value}
    frames, report = read_frames_csv(io.StringIO(f"{','.join(row)}\n{','.join(row.values())}\n"))
    assert frames == [] and report.reasons == {"invalid_values": 1}
    model = RecordingModel()
    assert predict_in_process(monkeypatch, model, **{flag: value}) == 2
    assert model.seen == []
    captured = capsys.readouterr()
    assert captured.out == "D:0 A:1\n"
    assert captured.err == f"domepilot: error: {message}; dome closed\n"


@pytest.mark.parametrize("rain,expected", [("yes", "D:0 A:1\n"), ("TRUE", "D:0 A:1\n"),
                                           ("no", "D:1 A:0\n"), ("false", "D:1 A:0\n")])
def test_predict_accepts_the_rain_words_of_a_frames_cell(monkeypatch, capsys, rain,
                                                          expected):
    assert predict_in_process(monkeypatch, RecordingModel(), rain=rain) == 0
    assert capsys.readouterr().out == expected


#: A valid frames row; a ``predict`` flag's column is its name, ``time`` for the hour.
FRAME_ROW = {"city": "Al Madina", "date": "2019-05-01", "time": "0:00", "temp": "21",
             "wind": "0", "humidity": "0.33", "barometer": "1020", "visibility": "16",
             "weather": "Clear", "rain": "0"}

#: Cell texts of the frames vocabulary: numbers with signs, clock parts and
#: units, the words of the wind and rain cells, and junk.
_NUMBER_CELLS = st.builds("".join, st.tuples(
    st.sampled_from(["", "", " ", "+", "-"]), (st.integers(0, 30) | st.integers()).map(str),
    st.sampled_from(["", "", ".5", ".25", ".", ":00", ":30", ":75", ":00:59", ":00:60"]),
    st.sampled_from(["", " "]),
    st.sampled_from(["", "", "%", "am", "PM", "°c", "km/h", "mi", "mbar", "x1", "!"]),
    st.sampled_from(["", " "])))
FRAME_CELLS = st.one_of(
    _NUMBER_CELLS, _NUMBER_CELLS,
    st.sampled_from(["calm", " No Wind ", "0", "1", " yes", "NO", "TRUE", "False", "maybe",
                     "7:30", "12 am", "12:00 PM", "23:59:59", "24:00", "24:30", "noon",
                     "", " ", "nan", "inf", "1e3", "abc", "--1", "0x1f", "٣", "１２"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(flag=st.sampled_from((*FEATURE_NAMES, "rain")), text=FRAME_CELLS)
def test_a_predict_flag_reads_as_its_frames_cell_does(flag, text):
    column = "time" if flag == "hour" else flag
    stream = io.StringIO(newline="")
    csv.writer(stream).writerows([FRAME_ROW, {**FRAME_ROW, column: text}.values()])
    stream.seek(0)
    frames, report = read_frames_csv(stream)
    args = argparse.Namespace(**{flag: text})
    if frames:
        observation, stored = frames[0].observation, frames[0].rain_detected
        if flag != "rain":
            stored = observation.features()[FEATURE_NAMES.index(flag)]
        value = cli._reading(args, flag)
        assert (value, type(value)) == (stored, type(stored))
    elif report.reasons == {f"bad_{column}": 1}:
        with pytest.raises(ValueError, match=f"^--{flag} must be "):
            cli._reading(args, flag)
    else:  # read, then refused by the range rule, as cmd_predict refuses it
        assert report.reasons == {"invalid_values": 1}
        features = [21.0, 0.0, 0.33, 0.0, 16.0, 1020.0]  # those of FRAME_ROW
        features[FEATURE_NAMES.index(flag)] = cli._reading(args, flag)
        with pytest.raises(ValueError):
            check_ranges(features)


def _refused_knn(path):
    """A standardized k-NN whose temp std of 1e-300 overflows its training rows."""
    samples = [((float(i), 1.0 + i % 3, 0.5, 3.0, 10.0, 1010.0 + i), i % 2) for i in range(10)]
    save_model(train_knn(samples, k=3, scaling="standardize"), path)
    doc = json.loads(path.read_text())
    doc["stats"]["stds"][0] = 1e-300
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("model, flags", [
    pytest.param("missing", {}, id="missing-model"),
    pytest.param("not json", {}, id="not-json-model"),
    pytest.param("no model", {}, id="json-no-model"),
    pytest.param("refused knn", {}, id="knn-std-1e-300-refused"),
    *(pytest.param("dt", {name: "abc"}, id=f"{name}-abc") for name in FEATURE_NAMES),
    *(pytest.param("dt", {name: value}, id=f"{name}-{value}") for name, value in (
        ("hour", "99"), ("humidity", "150"), ("barometer", "0"), ("visibility", "-4"))),
    pytest.param("dt", {"rain": "maybe"}, id="rain-maybe"),
])
def test_predict_closes_the_dome_before_it_reports_an_error(workspace, tmp_path, capsys,
                                                             model, flags):
    path = tmp_path / "model.json"
    if model == "dt":
        path = workspace["dt"]
    elif model == "not json":
        path.write_text("not json\n")
    elif model == "no model":
        path.write_text('{"version": 1}')
    elif model == "refused knn":
        _refused_knn(path)
    args = list(map(str, PREDICT_ARGS))
    for name, value in flags.items():
        args[args.index(f"--{name}") + 1] = value
    assert cli.main(["predict", "--model", str(path), *args]) == 2
    out, err = capsys.readouterr()
    assert out == "D:0 A:1\n"
    assert err.startswith("domepilot: error: ") and err.endswith("; dome closed\n")
    assert err.count("\n") == 1, err


def test_predict_reports_the_error_as_it_was_when_the_close_line_fails(monkeypatch, tmp_path,
                                                                      capsys):
    def unsent(command, sink):
        raise SignalDeliveryError("actuator sink write failed: closed")

    monkeypatch.setattr(cli, "emit_signal", unsent)
    missing = tmp_path / "missing.json"
    assert cli.main(["predict", "--model", str(missing), *map(str, PREDICT_ARGS)]) == 2
    assert capsys.readouterr() == (
        "", f"domepilot: error: [Errno 2] No such file or directory: '{missing}'\n")


# ---------------------------------------------------------------- simulate

def test_simulate_writes_log_and_sink(workspace, tmp_path):
    log = tmp_path / "log.jsonl"
    wire = tmp_path / "wire.txt"
    result = run_cli("simulate", "--model", workspace["dt"],
                     "--frames", workspace["frames"], "--log", log,
                     "--sink", wire)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["frames"] == 30
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 30
    assert set(records[0]) == {"tick", "features", "prediction", "dome", "ac", "cause"}
    wire_lines = wire.read_text().splitlines()
    assert len(wire_lines) == 30
    assert all(line in ("D:1 A:0", "D:0 A:1") for line in wire_lines)
    rains = [r["cause"] == "rain_override" for r in records]
    assert any(rains)
    for record, line in zip(records, wire_lines):
        assert line == f"D:{record['dome']} A:{record['ac']}"


def test_simulate_to_stdout_prints_only_wire_lines_there(workspace, tmp_path):
    log = tmp_path / "log.jsonl"
    result = run_cli("simulate", "--model", workspace["dt"], "--frames", workspace["frames"],
                     "--log", log, "--sink", "-")
    assert result.returncode == 0, result.stderr
    wire_lines = result.stdout.splitlines()
    assert len(wire_lines) == 30
    assert all(line in ("D:1 A:0", "D:0 A:1") for line in wire_lines)
    summary = json.loads(result.stderr.splitlines()[-1])  # the summary goes to stderr
    assert summary["frames"] == 30 and summary["opened"] == wire_lines.count("D:1 A:0")


def test_a_sink_that_fails_to_open_exits_2_naming_it(workspace, tmp_path, capsys):
    with socket.socket() as closed:  # bound, then closed: nothing listens there
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
    log = tmp_path / "log.jsonl"
    assert cli.main(["simulate", "--model", str(workspace["dt"]), "--frames",
                     str(workspace["frames"]), "--log", str(log),
                     "--sink", f"tcp:127.0.0.1:{port}"]) == 2
    assert capsys.readouterr().err.startswith(
        f"domepilot: error: actuator sink tcp:127.0.0.1:{port}: ")
    assert not log.exists()


def test_simulate_reads_frames_with_the_table_prepare_labeled_with(tmp_path):
    # Half the rows are Drizzle, which only the custom table maps (to open).
    observations = [WeatherObservation(*obs[:-1], "Drizzle") if i % 2 else obs
                    for i, obs in enumerate(synthetic_observations(600, seed=3))]
    raw, frames = tmp_path / "raw.csv", tmp_path / "frames.csv"
    with open(raw, "w", newline="") as stream:
        to_raw_csv(observations, stream)
    with open(frames, "w", newline="") as stream:
        to_raw_csv(observations[:40], stream, rain=[False] * 40)
    table = tmp_path / "table.csv"
    table.write_text("".join(f"{cond},{flag}\n" for cond, flag in EXPECTED_TABLE1)
                     + "Drizzle,1\n")
    labeled, model = tmp_path / "labeled.csv", tmp_path / "dt.json"
    assert cli.main(["prepare", "--data", str(raw), "--out", str(labeled),
                     "--table", str(table)]) == 0
    assert cli.main(["train", "--data", str(labeled), "--out", str(model)]) == 0

    def unmapped(*table_flag):
        log = tmp_path / "log.jsonl"
        assert cli.main(["simulate", "--model", str(model), "--frames", str(frames),
                         "--log", str(log), *table_flag]) == 0
        causes = [json.loads(line)["cause"] for line in log.read_text().splitlines()]
        assert len(causes) == 40
        return causes.count("unmapped_condition")

    assert unmapped("--table", str(table)) == 0
    assert unmapped() == 20  # without --table, simulate keeps the built-in table


@pytest.mark.parametrize("table_rows", [None, "Clear,1\nPassing clouds,1\n"],
                         ids=["builtin", "table"])
def test_simulate_answers_each_mapped_knn_frame_from_the_lookahead(workspace, tmp_path,
                                                                   monkeypatch, table_rows):
    models = []
    expect = KnnModel.expect

    def spy(model, rows):
        models.append(model)
        expect(model, rows)

    monkeypatch.setattr(KnnModel, "expect", spy)
    table_flag, table = [], ConditionTable.builtin()
    if table_rows is not None:  # unmaps the Haze, Duststorm and rain frames as well
        path = tmp_path / "table.csv"
        path.write_text(table_rows)
        table_flag, table = ["--table", str(path)], ConditionTable.from_csv(path)
    log, wire = tmp_path / "log.jsonl", tmp_path / "wire.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--model", str(workspace["knn"]), "--frames",
                         str(workspace["frames"]), "--log", str(log), "--sink", str(wire),
                         *table_flag]) == 0
    [model] = models
    assert model._ahead is not None and next(model._ahead[0], None) is None  # all used
    frames = read_frames_csv(workspace["frames"])[0]
    expected = replay(load_model(workspace["knn"]).predict, frames, table=table)
    stream = io.StringIO()
    expected.to_jsonl(stream)
    assert log.read_text() == stream.getvalue()
    assert wire.read_text() == "".join(f"D:{e.command.dome} A:{e.command.ac}\n"
                                       for e in expected)
    unmapped = sum(e.command.cause == "unmapped_condition" for e in expected)
    assert unmapped == 0 if table_rows is None else 0 < unmapped < len(frames)


def test_in_process_warnings_go_to_the_current_stderr(workspace, tmp_path):
    with open(workspace["frames"], newline="") as stream:
        rows = list(csv.reader(stream))
    rows[2][[name.lower() for name in rows[0]].index("temp")] = "hot"
    frames = tmp_path / "frames.csv"
    with open(frames, "w", newline="") as stream:
        csv.writer(stream).writerows(rows)
    errs = []
    for run in range(2):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(["simulate", "--model", str(workspace["dt"]), "--frames",
                             str(frames), "--log", str(tmp_path / f"log{run}.jsonl")]) == 0
        errs.append(err.getvalue())
    for err in errs:
        assert err.count("domepilot: WARNING: rejected 1 malformed frame rows") == 1, errs


def test_simulate_rejects_an_overflowing_cell(workspace, tmp_path):
    with open(workspace["frames"], newline="") as stream:
        rows = list(csv.reader(stream))
    rows[3][[name.lower() for name in rows[0]].index("temp")] = "9" * 400
    frames = tmp_path / "frames.csv"
    with open(frames, "w", newline="") as stream:
        csv.writer(stream).writerows(rows)
    log = tmp_path / "log.jsonl"
    result = run_cli("simulate", "--model", workspace["dt"], "--frames", frames,
                     "--log", log)
    assert result.returncode == 0, result.stderr
    assert "rejected 1 malformed frame rows" in result.stderr
    expected = replay(load_model(workspace["dt"]).predict, read_frames_csv(frames)[0])
    reference = "".join(json.dumps(entry.as_dict(), sort_keys=True) + "\n"
                        for entry in expected)
    assert log.read_bytes() == reference.encode()
    assert len(log.read_text().splitlines()) == 29
    assert "Infinity" not in log.read_text()


@pytest.mark.parametrize("command", ["predict", "simulate"])
def test_a_knn_vote_on_a_201_digit_temperature_prints_no_numpy_warning(workspace, tmp_path,
                                                                       command):
    huge = "1" + "0" * 200  # 1e200: a valid cell, whose square overflows
    if command == "predict":
        args = list(map(str, PREDICT_ARGS))
        args[args.index("--temp") + 1] = huge
        result = run_cli("predict", "--model", workspace["knn"], *args)
        assert result.stdout in ("D:0 A:1\n", "D:1 A:0\n")
    else:
        with open(workspace["frames"], newline="") as stream:
            rows = list(csv.reader(stream))
        rows[3][[name.lower() for name in rows[0]].index("temp")] = huge
        frames = tmp_path / "frames.csv"
        with open(frames, "w", newline="") as stream:
            csv.writer(stream).writerows(rows)
        result = run_cli("simulate", "--model", workspace["knn"], "--frames", frames,
                         "--log", tmp_path / "log.jsonl")
        assert len((tmp_path / "log.jsonl").read_text().splitlines()) == 30
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr and "knn.py" not in result.stderr


def test_simulate_with_a_faulty_model_closes_and_still_writes_the_log(workspace,
                                                                      tmp_path):
    # A finite visibility of 1e300 standardizes past what a distance can hold,
    # on which KnnModel.predict raises; the first dry row gets it, so its
    # frame is a model fault.
    model = tmp_path / "knn.json"
    assert run_cli("train", "--data", workspace["labeled"], "--model", "knn",
                   "--scaling", "standardize", "--out", model).returncode == 0
    with open(workspace["frames"], newline="") as stream:
        rows = list(csv.reader(stream))
    header = [name.lower() for name in rows[0]]
    dry = next(i for i, row in enumerate(rows[1:], 1) if row[header.index("rain")] == "0")
    rows[dry][header.index("visibility")] = "1" + "0" * 300
    frames = tmp_path / "frames.csv"
    with open(frames, "w", newline="") as stream:
        csv.writer(stream).writerows(rows)
    log = tmp_path / "log.jsonl"
    result = run_cli("simulate", "--model", model, "--frames", frames, "--log", log)
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 30
    faulty = [r for r in records if r["cause"] == "model_error"]
    assert [r["tick"] for r in faulty] == [dry - 1]
    assert faulty[0]["features"][4] == 1e300
    assert faulty[0]["prediction"] is None and faulty[0]["dome"] == 0
    assert "model failed on 1 of 30 frames" in result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_simulate_into_a_full_device_writes_the_log_and_exits_2(workspace, tmp_path):
    reference = tmp_path / "reference.jsonl"
    assert run_cli("simulate", "--model", workspace["dt"], "--frames", workspace["frames"],
                   "--log", reference).returncode == 0
    log = tmp_path / "log.jsonl"
    result = run_cli("simulate", "--model", workspace["dt"], "--frames",
                     workspace["frames"], "--log", log, "--sink", "/dev/full")
    assert result.returncode == 2
    assert "actuator sink failed on 30 of 30 frames" in result.stderr
    assert "domepilot: error:" in result.stderr and "Traceback" not in result.stderr
    # Closing the sink fails no more: nothing is left buffered to flush.
    assert result.stderr.splitlines()[-1] == (
        f"domepilot: error: actuator sink failed on 30 of 30 frames; "
        f"decision log written to {log}")
    assert log.read_bytes() == reference.read_bytes()


def test_simulate_with_a_failing_sink_writes_the_log_and_exits_2(workspace, tmp_path,
                                                                 monkeypatch, capsys):
    class Broken:
        def write(self, line):
            raise OSError("wire cut")

    monkeypatch.setattr(cli, "open_sink", lambda spec: contextlib.nullcontext(Broken()))
    log = tmp_path / "log.jsonl"
    code = cli.main(["simulate", "--model", str(workspace["dt"]), "--frames",
                     str(workspace["frames"]), "--log", str(log), "--sink", "wire"])
    assert code == 2
    err = capsys.readouterr().err
    assert "domepilot: error: actuator sink failed on 30 of 30 frames" in err
    assert len(log.read_text().splitlines()) == 30


@pytest.mark.parametrize("command", ["predict", "prepare"])
def test_main_leaves_the_package_logger_as_it_found_it(workspace, tmp_path, capsys,
                                                       monkeypatch, command):
    package_logger = logging.getLogger("domepilot")
    monkeypatch.setattr(package_logger, "handlers", [])
    argv = {"predict": ["predict", "--model", str(workspace["dt"]), *map(str, PREDICT_ARGS)],
            # no --expect-sha256: prepare warns, and that warning attaches the stderr handler
            "prepare": ["prepare", "--data", str(workspace["raw"]),
                        "--out", str(tmp_path / "l.csv")]}[command]
    assert cli.main(argv) == 0
    assert package_logger.handlers == []
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("domepilot: WARNING: ")]
    assert warnings == ([] if command == "predict" else
                        ["domepilot: WARNING: dataset content hash not verified; sha256 is "
                         + hashlib.sha256(workspace["raw"].read_bytes()).hexdigest()])


def test_the_library_logs_to_its_callers_handler_and_attaches_none(tmp_path):
    """Outside ``cli.main`` the package's warnings reach the handler a caller attached to
    the ``domepilot`` logger, under their modules' names, and nothing else is attached."""
    script = ("import datetime, logging\n"
              "import domepilot\n"
              "records = []\n"
              "class Keep(logging.Handler):\n"
              "    def emit(self, record):\n"
              "        records.append((record.name, record.getMessage()))\n"
              "package_logger = logging.getLogger('domepilot')\n"
              "package_logger.addHandler(Keep())\n"
              "assert domepilot.filter_city([], 'Jeddah') == []\n"
              "def broken(features):\n"
              "    raise RuntimeError('boom')\n"
              "reading = domepilot.WeatherObservation('Al Madina', datetime.date(2019, 5, 1),\n"
              "                                       0, 21.0, 0.0, 0.33, 1020.0, 16.0, 'Clear')\n"
              "domepilot.replay(broken, [domepilot.SensorFrame(reading, False, 0)])\n"
              "assert [type(h).__name__ for h in package_logger.handlers] == ['Keep']\n"
              "assert not logging.getLogger().handlers\n"
              "for name, message in records:\n"
              "    print(name, message, sep='|')\n")
    result = subprocess.run([sys.executable, "-c", script], env=src_env(), capture_output=True,
                            text=True, timeout=120, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""  # no stream handler of the CLI's: the caller's handler alone
    assert result.stdout.splitlines() == [
        "domepilot.raw|no observations match city 'Jeddah'",
        "domepilot.controller|model failed on 1 of 1 frames, which were closed; "
        "first failure: boom"]


# ---------------------------------------------------------------- config file

def test_config_file_supplies_values_and_flags_win(workspace, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("# reference run\n"
                      "city = Nowhere\n"
                      "max-leaves = 2\n"
                      f"data = {workspace['labeled']}\n")
    model_path = tmp_path / "m.json"
    result = run_cli("train", "--config", config, "--model", "dt",
                     "--out", model_path)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["max_leaf_nodes"] == 2

    out = tmp_path / "city.csv"
    result = run_cli("prepare", "--config", config, "--data", workspace["raw"],
                     "--city", "Al Madina", "--out", out)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["labeled_rows"] == 900  # flag beat config


def test_a_shared_config_cannot_make_train_overwrite_the_labeled_csv(workspace, tmp_path,
                                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("raw.csv").write_bytes(workspace["raw"].read_bytes())
    Path("run.conf").write_text("data = raw.csv\nout = labeled.csv\nmodel = dt\n")
    assert cli.main(["prepare", "--config", "run.conf"]) == 0
    labeled = Path("labeled.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["train", "--config", "run.conf", "--data", "labeled.csv"]) == 2
    assert capsys.readouterr().err == ("domepilot: error: --out labeled.csv would overwrite "
                                       "the input --data labeled.csv\n")
    assert Path("labeled.csv").read_bytes() == labeled


@pytest.mark.parametrize("command,output,source", [
    ("prepare", "--out", "--data"), ("prepare", "--out", "--table"),
    ("train", "--out", "--data"), ("evaluate", "--report", "--model"),
    ("evaluate", "--report", "--data"), ("simulate", "--log", "--model"),
    ("simulate", "--log", "--frames"), ("train", "--out", "--config"),
    ("simulate", "--sink", "--frames"), ("simulate", "--sink", "--model"),
    ("simulate", "--sink", "--log"), ("simulate", "--log", "--table"),
    ("simulate", "--sink", "--table")])
def test_an_output_that_names_an_input_exits_2_untouched(workspace, tmp_path, capsys,
                                                         command, output, source):
    config = tmp_path / "run.conf"
    config.write_text("city = Al Madina\n")
    inputs = {"prepare": {"--data": workspace["raw"], "--table": tmp_path / "table.csv"},
              "train": {"--data": workspace["labeled"]},
              "evaluate": {"--model": workspace["dt"], "--data": workspace["labeled"]},
              "simulate": {"--model": workspace["dt"], "--frames": workspace["frames"]}}[command]
    inputs["--config"] = config
    if source == "--table":  # optional for simulate: passed where it is the input under test
        inputs["--table"] = tmp_path / "table.csv"
    if output == "--sink":  # nor may the sink be the decision log
        inputs["--log"] = tmp_path / "log.jsonl"

    def contents():
        return {flag: path.read_bytes() if path.exists() else None
                for flag, path in inputs.items()}

    before = contents()
    # The same file by another spelling: the paths are compared resolved.
    target = inputs[source]
    alias = target.parent / ".." / target.parent.name / target.name
    argv = [command, output, str(alias)]
    for flag, path in inputs.items():
        argv += [flag, str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"domepilot: error: {output} {alias} would "
                                              f"overwrite the input {source} ")
    assert contents() == before


@pytest.mark.parametrize("flag,content", [("--table", b"condition,flag\nClear,1\nHaz\xffe,0\n"),
                                          ("--config", b"city = Al Madina\xff\n")],
                         ids=["table", "config"])
def test_non_utf8_table_or_config_exits_2_naming_the_file(workspace, tmp_path, flag,
                                                         content):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    out = tmp_path / "out.csv"
    result = run_cli("prepare", "--data", workspace["raw"], "--out", out, flag, bad)
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1].startswith(f"domepilot: error: {bad}: ")
    assert "utf-8" in result.stderr and "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("line,key", [("max-leafs = 8", "max_leafs"), ("func = x", "func"),
                                      ("command = prepare", "command"),
                                      ("config = other.conf", "config"),
                                      ("__class__ = x", "__class__"), ("help = 1", "help"),
                                      ("seed = 5", "seed"), ("test-frac = 0.5", "test_frac")])
def test_an_unknown_config_setting_exits_2_naming_it(workspace, tmp_path, capsys, line, key):
    config = tmp_path / "run.conf"
    config.write_text(f"model = dt\ncity = Nowhere  # a prepare flag, ignored\n{line}\n")
    out = tmp_path / "m.json"
    assert cli.main(["train", "--data", str(workspace["labeled"]), "--out", str(out),
                     "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"domepilot: error: {config}: unknown setting {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("content", [None, b"bogus = 1\n", b"just some words\n",
                                     b"city = Al Madina\xff\n"],
                         ids=["missing", "unknown-setting", "no-equals", "non-utf8"])
def test_predict_closes_the_dome_on_a_bad_config(workspace, tmp_path, capsys, content):
    config = tmp_path / "run.conf"
    if content is not None:
        config.write_bytes(content)
    assert cli.main(["predict", "--model", str(workspace["dt"]), *map(str, PREDICT_ARGS),
                     "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "D:0 A:1\n"
    assert err.startswith("domepilot: error: ") and err.endswith("; dome closed\n")
    assert err.count("\n") == 1, err


def test_malformed_config_is_an_error(workspace, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("just some words\n")
    result = run_cli("train", "--config", config, "--data", workspace["labeled"],
                     "--out", tmp_path / "m.json")
    assert result.returncode != 0 and "key = value" in result.stderr


# ---------------------------------------------------------------- errors

def test_unknown_flag_exits_nonzero(workspace):
    result = run_cli("train", "--data", workspace["labeled"], "--frobnicate", 1)
    assert result.returncode != 0


def test_missing_data_file_is_a_clean_error(tmp_path):
    result = run_cli("train", "--data", tmp_path / "ghost.csv",
                     "--out", tmp_path / "m.json")
    assert result.returncode == 2
    assert "error" in result.stderr
    assert not (tmp_path / "m.json").exists()


def test_truncated_model_fails_cleanly(workspace, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text(workspace["dt"].read_text()[:50])
    result = run_cli("evaluate", "--model", broken, "--data", workspace["labeled"],
                     "--report", tmp_path / "r.json")
    assert result.returncode == 2
    assert not (tmp_path / "r.json").exists()


def test_model_version_mismatch_names_both_versions(workspace, tmp_path):
    doc = json.loads(workspace["dt"].read_text())
    doc["version"] = 99
    future = tmp_path / "future.json"
    future.write_text(json.dumps(doc))
    result = run_cli("predict", "--model", future, "--temp", 21, "--wind", 0,
                     "--humidity", 0.33, "--hour", 0, "--visibility", 16,
                     "--barometer", 1020, "--rain", 0)
    assert result.returncode == 2
    assert "99" in result.stderr and "version 3" in result.stderr


@pytest.mark.parametrize("content", [b"not json\n", b'{"kind": "tree\xff"}'],
                         ids=["not-json", "not-utf8"])
def test_undecodable_model_exits_2_naming_the_file(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    result = run_cli("predict", "--model", path, *PREDICT_ARGS)
    assert result.returncode == 2
    assert result.stderr.startswith("domepilot: error:") and str(path) in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == "D:0 A:1\n"


@pytest.mark.parametrize("source,args", [
    ("raw", lambda ws, bad, out: ["prepare", "--data", bad, "--out", out]),
    ("labeled", lambda ws, bad, out: ["train", "--data", bad, "--out", out]),
    ("frames", lambda ws, bad, out: ["simulate", "--model", ws["dt"], "--frames", bad,
                                     "--log", out]),
], ids=["prepare", "train", "simulate"])
def test_non_utf8_csv_exits_2_naming_the_file(workspace, tmp_path, source, args):
    data = workspace[source].read_bytes()
    bad = tmp_path / f"bad-{source}.csv"
    bad.write_bytes(data[:300] + b"\xff" + data[300:])
    out = tmp_path / "out"
    result = run_cli(*args(workspace, bad, out))
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1].startswith("domepilot: error:")
    assert str(bad) in result.stderr and "utf-8" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("source", ["raw", "labeled", "frames", "table", "config", "model"])
def test_a_byte_that_is_not_utf8_is_named_by_its_line(workspace, tmp_path, source):
    """The reader decodes in 8 KiB chunks; the error names the line in the file."""
    if source == "model":  # one line of JSON, after the blank lines
        text = "\n" + workspace["dt"].read_text()
    elif source == "table":
        text = "condition,flag\n" + "".join(f"{c},{f}\n" for c, f in EXPECTED_TABLE1)
    elif source == "config":
        text = "city = Al Madina\n# the reference run\n"
    else:
        text = workspace[source].read_text()
    head, rest = text.split("\n", 1)
    lines = [head + "\n", *["\n"] * 9000, rest]  # blank lines: skipped, but counted
    data = "".join(lines).encode()
    bad = tmp_path / f"bad-{source}"
    bad.write_bytes(data[:-4] + b"\xff" + data[-4:])
    line = len(data.splitlines())
    assert len(data) > 8192
    out = tmp_path / "out"
    args = {"raw": ["prepare", "--data", bad, "--out", out],
            "labeled": ["train", "--data", bad, "--out", out],
            "frames": ["simulate", "--model", workspace["dt"], "--frames", bad, "--log", out],
            "table": ["prepare", "--data", workspace["raw"], "--out", out, "--table", bad],
            "config": ["prepare", "--data", workspace["raw"], "--out", out,
                       "--config", bad],
            "model": ["predict", "--model", bad, *PREDICT_ARGS]}[source]
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1] == (
        f"domepilot: error: {bad}: line {line}: 'utf-8' codec can't decode byte 0xff: "
        "invalid start byte" + ("; dome closed" if source == "model" else ""))
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["prepare", "train", "simulate"])
def test_a_cell_over_the_csv_field_limit_exits_2_naming_the_file(workspace, tmp_path,
                                                                 command):
    source = {"prepare": "raw", "train": "labeled", "simulate": "frames"}[command]
    text = workspace[source].read_text().splitlines(keepends=True)
    bad = tmp_path / f"{source}.csv"
    bad.write_text("".join(text[:2]) + '"' + "1" * 200_000 + '"\n' + "".join(text[2:]))
    out = tmp_path / "out"
    args = {"prepare": ["--data", bad, "--out", out],
            "train": ["--data", bad, "--out", out],
            "simulate": ["--model", workspace["dt"], "--frames", bad, "--log", out]}[command]
    result = run_cli(command, *args)
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1].startswith(f"domepilot: error: {bad}: line 3: ")
    assert "field larger than field limit" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("content,line,message", [
    ("Clear," + "9" * 200_000 + "\n", 1, "field larger than field limit"),
    ("Clear,1.5\n", 1, "bad flag '1.5' for condition 'Clear'"),
    ("condition,flag\nClear,1\n\nclear ,0\n", 4, "duplicate condition 'clear'"),
    ("Clear,1\nHaze\n", 2, "expected 'condition,flag' line"),
], ids=["huge-cell", "flag-1.5", "duplicate", "one-cell"])
def test_table_errors_exit_2_naming_the_file_and_line(workspace, tmp_path, content, line,
                                                      message):
    table = tmp_path / "table.csv"
    table.write_text(content)
    out = tmp_path / "out.csv"
    result = run_cli("prepare", "--data", workspace["raw"], "--out", out, "--table", table)
    assert result.returncode == 2
    last = result.stderr.splitlines()[-1]
    assert last.startswith(f"domepilot: error: {table}: line {line}: "), last
    assert message in last and "Traceback" not in result.stderr
    assert not out.exists()


def test_deeply_nested_model_exits_2_naming_the_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    result = run_cli("predict", "--model", path, *PREDICT_ARGS)
    assert result.returncode == 2
    assert result.stderr.startswith(f"domepilot: error: {path}: ")
    assert "recursion" in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == "D:0 A:1\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_an_integer_over_the_digit_limit_exits_2_naming_the_model_file(workspace, tmp_path,
                                                                        capsys, command):
    doc = json.loads(workspace["knn"].read_text())
    doc["k"] = "K"
    text = json.dumps(doc).replace('"K"', "9" * 4301)
    path = tmp_path / "long.json"
    path.write_text(text)
    with pytest.raises(ValueError) as limit:  # "Exceeds the limit (4300 digits) ..."
        json.loads(text)
    report = tmp_path / "report.json"
    args = (["--data", str(workspace["labeled"]), "--report", str(report)]
            if command == "evaluate" else list(map(str, PREDICT_ARGS)))
    assert cli.main([command, "--model", str(path), *args]) == 2
    closed = "; dome closed" if command == "predict" else ""
    assert capsys.readouterr() == ("D:0 A:1\n" if command == "predict" else "",
                                   f"domepilot: error: {path}: {limit.value}{closed}\n")
    assert str(limit.value).startswith("Exceeds the limit") and not report.exists()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_command_runs_without_the_cyclic_gc_and_puts_its_state_back(workspace, tmp_path,
                                                                      monkeypatch, capsys,
                                                                      enabled):
    seen = []
    cmd_train = cli.cmd_train

    def recording_train(args):
        seen.append(gc.isenabled())
        return cmd_train(args)

    monkeypatch.setattr(cli, "cmd_train", recording_train)
    train = ["train", "--out", str(tmp_path / "dt.json"), "--data"]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main([*train, str(workspace["labeled"])]) == 0
        assert gc.isenabled() is enabled
        assert cli.main([*train, str(tmp_path / "missing.csv")]) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            cli.main([*train, str(workspace["labeled"]), "--no-such-flag"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False]
    capsys.readouterr()


# ---------------------------------------------------------------- imports

PROBED_MODULES = ("numpy", "domepilot.knn", "dataclasses", "hashlib", "socket", "logging",
                  "domepilot.controller", "domepilot.tree", "domepilot.knnmodel",
                  "domepilot.metrics", "domepilot.raw", "domepilot.grow")
IMPORT_PROBE = ("import sys\n"
                "from domepilot import cli\n"
                "code = cli.main(sys.argv[1:])\n"
                f"print(code, *sorted(set({PROBED_MODULES!r}) & set(sys.modules)))\n")


def exit_code_and_modules(*args):
    """'<exit code> <PROBED_MODULES imported, sorted>' of one in-process CLI run."""
    result = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *map(str, args)],
                            env=src_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_numpy_is_imported_only_where_it_computes(workspace, tmp_path):
    def model_runs(kind):
        model = workspace[kind]
        return {
            f"evaluate {kind}": ["evaluate", "--model", model, "--data", workspace["labeled"],
                                 "--report", tmp_path / "report.json"],
            f"simulate {kind}": ["simulate", "--model", model, "--frames", workspace["frames"],
                                 "--log", tmp_path / "log.jsonl",
                                 "--sink", tmp_path / "wire.txt"],
            f"predict {kind}": ["predict", "--model", model, *PREDICT_ARGS],
        }

    train = ["train", "--data", workspace["labeled"], "--out", tmp_path / "model.json",
             "--model"]
    rejected = tmp_path / "rejected.csv"  # the workspace frames and one malformed row
    rejected.write_text(workspace["frames"].read_text() + "Al Madina,2019-05-01,0:00,abc\n")
    runs = {
        "prepare": ["prepare", "--data", workspace["raw"], "--out", tmp_path / "l.csv"],
        "train dt": [*train, "dt"],
        "train knn": [*train, "knn"],
        "train knn standardize": [*train, "knn", "--scaling", "standardize"],
        **model_runs("dt"),
        **model_runs("knn"),
        "simulate dt rejected": ["simulate", "--model", workspace["dt"], "--frames", rejected,
                                 "--log", tmp_path / "log.jsonl"],
    }
    # numpy, through the k-NN kernel, is imported only where a k-NN computes with it,
    # hashlib only where prepare hashes the dataset; no command imports dataclasses,
    # and no file sink imports socket. Each command imports only the package modules
    # it runs: the model's, metrics to evaluate, the controller to decide and the
    # raw-row parsers to read raw rows, frames or predict flags; only train dt grows.
    # logging is imported by the first warning: prepare's unverified hash, simulate's
    # rejected frame rows; a command that warns nothing never loads it.
    tree, grow = {"domepilot.tree"}, {"domepilot.grow"}
    knn = {"domepilot.knnmodel"}  # and never the tree's module
    numpy = {"domepilot.knn", "numpy"}
    controller, metrics = {"domepilot.controller"}, {"domepilot.metrics"}
    rows = controller | {"domepilot.raw"}
    expected = {
        "prepare": {"hashlib", "domepilot.raw", "logging"},
        "train dt": tree | grow,
        "train knn": knn,
        "train knn standardize": knn | numpy,
        "evaluate dt": metrics | tree,
        "evaluate knn": metrics | knn | numpy,
        **{f"{command} dt": rows | tree for command in ("simulate", "predict")},
        **{f"{command} knn": rows | knn | numpy for command in ("simulate", "predict")},
        "simulate dt rejected": rows | tree | {"logging"},
    }
    for name, args in runs.items():
        assert exit_code_and_modules(*args) == " ".join(["0", *sorted(expected[name])]), name


#: Every name the package and ``cli`` bind from a module on their first read: the
#: package's API, the commands' own, and those the benchmark's tracer rebinds on ``cli``.
LAZY_EXPORTS = {
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


def _pairs(lazy: dict) -> list:
    return [(module, name) for module, names in lazy.items() for name in names]


def _assert_lazy_name_resolves(monkeypatch, lazy_module, module, name):
    monkeypatch.delitem(vars(lazy_module), name, raising=False)  # unbound, as at start-up
    assert name in dir(lazy_module)
    namespace: dict = {}
    exec(f"from {lazy_module.__name__} import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"domepilot.{module}"), name)
    assert vars(lazy_module)[name] is namespace[name]  # bound: read once


@pytest.mark.parametrize("module, name", _pairs(LAZY_EXPORTS))
def test_a_lazy_package_name_is_its_modules_object(monkeypatch, module, name):
    _assert_lazy_name_resolves(monkeypatch, domepilot, module, name)


@pytest.mark.parametrize("module, name", _pairs(LAZY_EXPORTS))
def test_a_lazy_cli_name_is_its_modules_object(monkeypatch, module, name):
    _assert_lazy_name_resolves(monkeypatch, cli, module, name)


def test_the_package_and_cli_bind_exactly_the_listed_names():
    # In a fresh process no lazy name is bound yet, so dir() less vars() is the
    # owner table: a name dropped from the package's API, or left in the table
    # after its module dropped or moved it, fails here or above; and cli binds
    # the very names the package does.
    probe = ("import domepilot, domepilot.cli as cli\n"
             "for module in (domepilot, cli):\n"
             "    print(' '.join(sorted(set(dir(module)) - set(vars(module)))))\n")
    result = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    listed = " ".join(sorted(name for _, name in _pairs(LAZY_EXPORTS)))
    assert result.stdout.splitlines() == [listed, listed]


def test_an_unknown_name_raises_attribute_error_and_submodules_still_import():
    probe = ("import domepilot, domepilot.cli as cli\n"
             "for module in (domepilot, cli):\n"
             "    assert not hasattr(module, 'no_such_name')\n"
             "    try:\n"
             "        module.no_such_name\n"
             "    except AttributeError as exc:\n"
             "        assert 'no_such_name' in str(exc)\n"
             "assert not hasattr(domepilot, 'synthetic')\n"
             "from domepilot import synthetic\n"
             "assert domepilot.synthetic is synthetic\n"
             "print('ok')\n")
    result = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                            text=True, timeout=120)
    assert (result.returncode, result.stdout) == (0, "ok\n"), result.stderr


@pytest.mark.parametrize("name, command", [
    ("train_tree", ["train", "--model", "dt", "--data", "@labeled", "--out", "@out"]),
    ("train_knn", ["train", "--model", "knn", "--data", "@labeled", "--out", "@out"]),
    ("evaluate", ["evaluate", "--model", "@dt", "--data", "@labeled", "--report", "@out"]),
    ("replay", ["simulate", "--model", "@dt", "--frames", "@frames", "--log", "@out"]),
    ("open_sink", ["simulate", "--model", "@dt", "--frames", "@frames", "--log", "@out",
                   "--sink", "@wire"]),
])
def test_a_lazy_cli_name_replaced_on_the_module_is_what_the_command_calls(
        workspace, tmp_path, monkeypatch, capsys, name, command):
    def fake(*args, **kwargs):
        raise ValueError(f"fake {name}")

    monkeypatch.setattr(cli, name, fake)
    paths = {**workspace, "out": tmp_path / "out", "wire": tmp_path / "wire"}
    argv = [str(paths[arg[1:]]) if arg.startswith("@") else arg for arg in command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"domepilot: error: fake {name}\n"


# ---------------------------------------------------------------- save/load

def test_save_and_load_round_trip_knn(tmp_path):
    samples = [((float(i), 0.0, 0.0, 0.0, 0.0, 1.0), i % 2) for i in range(10)]
    model = train_knn(samples, k=3, scaling="standardize")
    path = tmp_path / "knn.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.scaling == "standardize"
    assert (loaded.means, loaded.stds) == (model.means, model.stds)
    assert [loaded.predict(f) for f, _ in samples] == [model.predict(f)
                                                       for f, _ in samples]


@pytest.mark.parametrize("kind", ["dt", "knn"])
def test_load_rejects_a_model_of_another_arity(tmp_path, kind):
    samples = [((float(i), 1.0), i % 2) for i in range(10)]
    model = train_knn(samples, k=3) if kind == "knn" else train_tree(samples)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    with pytest.raises(ValueError, match="model takes 2 features, not the 6") as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")


def test_load_rejects_unrecognized_documents(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"version": 1}')
    with pytest.raises(ValueError, match="unrecognized"):
        load_model(path)


def test_a_model_file_that_is_no_object_is_no_model_document(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: not a model document"


PREDICT_ARGS = ("--temp", 21, "--wind", 0, "--humidity", 0.33, "--hour", 0,
                "--visibility", 16, "--barometer", 1020, "--rain", 0)


@pytest.mark.parametrize("argv,message", [
    (["predict", "--model", "m.json", *map(str, PREDICT_ARGS[:-1]), "maybe"],
     "--rain must be 0/1, no/yes or false/true, got 'maybe'; dome closed"),
    (["train", "--out", "m.json"], "--data is required"),
    (["train", "--data", "l.csv", "--model", "svm", "--out", "m.json"],
     "--model must be one of ('dt', 'knn'), got 'svm'"),
], ids=["predict-rain-maybe", "train-without-data", "train-model-svm"])
def test_a_bad_flag_exits_2_with_its_message(monkeypatch, tmp_path, capsys, argv, message):
    model = RecordingModel()
    monkeypatch.setattr(cli, "load_model", lambda path: model)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    closed = "D:0 A:1\n" if argv[0] == "predict" else ""  # predict closes before it reports
    assert capsys.readouterr() == (closed, f"domepilot: error: {message}\n")
    assert model.seen == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("config"),
    lambda doc: doc.pop("n_features"),
    lambda doc: doc["nodes"][0].pop("type"),
    lambda doc: doc.update(config=[1, 2]),
    lambda doc: doc.update(nodes=5),
    lambda doc: doc.update(kind=["tree"]),
    lambda doc: doc["nodes"][0].update(left=0, right=0, type="split", feature=0,
                                       threshold=0.0, impurity=0.0, n=1),
])
def test_malformed_tree_documents_exit_2_without_traceback(workspace, tmp_path, edit):
    doc = json.loads(workspace["dt"].read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = subprocess.run([sys.executable, "-m", "domepilot", "predict", "--model",
                             str(path), *map(str, PREDICT_ARGS)],
                            capture_output=True, text=True, timeout=30)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("domepilot: error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("k"),
    lambda doc: doc.update(k=None),
    lambda doc: doc.update(data="rows"),
    lambda doc: doc.pop("scaling"),
])
def test_malformed_knn_documents_raise_value_error(tmp_path, edit):
    samples = [((float(i), 0.0, 0.0, 0.0, 0.0, 1.0), i % 2) for i in range(10)]
    path = tmp_path / "knn.json"
    save_model(train_knn(samples, k=3), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(path)


def _edit_node(doc, key, value):
    split = next(node for node in doc["nodes"] if node["type"] == "split")
    split[key] = value


def _retype_leaf_label(doc):
    leaf = next(node for node in doc["nodes"] if node["type"] == "leaf")
    leaf["label"] = float(leaf["label"])


def _set_data_label(doc, row, value):
    doc["data"][row][-1] = value


@pytest.mark.parametrize("kind,edit,field", [
    ("knn", lambda doc: doc.update(k=3.9), "k"),
    ("knn", lambda doc: doc.update(k=True), "k"),
    ("dt", lambda doc: doc.update(n_features=6.5), "n_features"),
    ("dt", lambda doc: doc.update(n_features=6.0), "n_features"),
    ("dt", lambda doc: doc["nodes"][0].update(id=0.0), "tree node id"),
    ("dt", lambda doc: _edit_node(doc, "feature", 0.7), "feature"),
    ("dt", lambda doc: _edit_node(doc, "feature", False), "feature"),
    ("dt", lambda doc: _edit_node(doc, "left", 1.5), "left"),
    ("dt", lambda doc: _edit_node(doc, "right", True), "right"),
    ("dt", lambda doc: _edit_node(doc, "n", 900.0), "n"),
    ("dt", lambda doc: doc["config"].update(max_leaf_nodes=50.5), "max_leaf_nodes"),
    ("dt", lambda doc: doc.update(version=2.0), "version"),
    ("knn", lambda doc: doc.update(version=1.0), "version"),
    ("knn", lambda doc: doc.update(version=True), "version"),
    ("dt", _retype_leaf_label, "label"),
    ("knn", lambda doc: _set_data_label(doc, 0, True), "data row 0: label"),
    ("knn", lambda doc: _set_data_label(doc, 1, 0.0), "data row 1: label"),
], ids=["k-3.9", "k-true", "n_features-6.5", "n_features-6.0", "id-0.0", "feature-0.7",
        "feature-false", "left-1.5", "right-true", "n-900.0", "max_leaf_nodes-50.5",
        "dt-version-2.0", "knn-version-1.0", "knn-version-true",
        "leaf-label-0.0", "data-label-true", "data-label-0.0"])
def test_a_non_integer_model_field_exits_2_naming_the_field(workspace, tmp_path, capsys,
                                                           kind, edit, field):
    doc = json.loads(workspace[kind].read_text())
    edit(doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{field} must be an integer") as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")
    assert cli.main(["predict", "--model", str(path), *map(str, PREDICT_ARGS)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "D:0 A:1\n"
    assert captured.err.startswith(f"domepilot: error: {path}: ")
    assert f"{field} must be an integer" in captured.err


def _edit_features(doc, value):
    doc["data"][3][2] = value


@pytest.mark.parametrize("edit,field", [
    (lambda doc: doc["stats"].update(means=doc["stats"]["means"][:3]), "means"),
    (lambda doc: doc["stats"].update(stds=doc["stats"]["stds"][:3]), "stds"),
    (lambda doc: doc["stats"]["stds"].append(1.0), "stds"),
    (lambda doc: _edit_features(doc, float("nan")),
     "data row 3: feature 2 must be a finite number, got nan"),
    (lambda doc: _edit_features(doc, float("inf")),
     "data row 3: feature 2 must be a finite number, got inf"),
    (lambda doc: _edit_features(doc, 10**400),
     f"data row 3: feature 2 must be a finite number, got {10**400}"),
    (lambda doc: doc["stats"]["means"].__setitem__(1, float("nan")),
     "means[1] must be a finite number, got nan"),
    (lambda doc: doc["stats"]["stds"].__setitem__(1, float("inf")),
     "stds[1] must be a finite non-negative number, got inf"),
    (lambda doc: doc["stats"]["stds"].__setitem__(1, -0.5),
     "stds[1] must be a finite non-negative number, got -0.5"),
    (lambda doc: doc["stats"].update(means=1), "knn model stats must be lists of numbers"),
    (lambda doc: doc["stats"]["means"].__setitem__(0, "1.5"),
     "means[0] must be a finite number, got '1.5'"),
    (lambda doc: doc["stats"]["stds"].__setitem__(2, True),
     "stds[2] must be a finite non-negative number, got True"),
    (lambda doc: doc["stats"]["means"].__setitem__(1, 10**400),
     f"means[1] must be a finite number, got {10**400}"),
    (lambda doc: _edit_features(doc, "20.5"),
     "data row 3: feature 2 must be a finite number, got '20.5'"),
    (lambda doc: _edit_features(doc, True),
     "data row 3: feature 2 must be a finite number, got True"),
], ids=["3-means", "3-stds", "7-stds", "nan-feature", "inf-feature", "huge-int-feature",
        "nan-mean", "inf-std", "negative-std", "int-means", "string-mean", "true-std",
        "huge-int-mean", "string-feature", "true-feature"])
def test_invalid_knn_values_exit_2_naming_the_field(tmp_path, edit, field):
    samples = [((float(i), 1.0 + i % 3, 0.5, 3.0, 10.0, 1010.0 + i), i % 2)
               for i in range(10)]
    path = tmp_path / "knn.json"
    save_model(train_knn(samples, k=3, scaling="standardize"), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(field)) as err:
        load_model(path)
    assert str(path) in str(err.value)
    result = run_cli("predict", "--model", path, *PREDICT_ARGS)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("domepilot: error:")
    assert field in result.stderr and str(path) in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("std", [1e-310, 1e-300])
def test_predict_fails_closed_on_an_overflowing_standardized_query(tmp_path, std):
    # Every training temp is 20, so a tiny temp std loads, but --temp 21
    # standardizes to an infinite z-score (1e-310) or to a finite one whose
    # squared norm overflows (1e-300).
    samples = [((20.0, 1.0 + i % 3, 0.5, 3.0, 10.0, 1010.0 + i), i % 2) for i in range(10)]
    path = tmp_path / "knn.json"
    save_model(train_knn(samples, k=3, scaling="standardize"), path)
    doc = json.loads(path.read_text())
    doc["stats"]["stds"][0] = std
    path.write_text(json.dumps(doc))
    result = run_cli("predict", "--model", path, *PREDICT_ARGS)
    assert (result.returncode, result.stdout) == (0, "D:0 A:1\n"), result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert "model failed" in result.stderr and "overflows" in result.stderr


# ---------------------------------------------------------------- byte-order mark

UTF8_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("kind", ["dt", "knn"])
def test_input_files_with_a_byte_order_mark_give_the_same_artifacts(workspace, tmp_path,
                                                                     capsys, kind):
    """Spreadsheet tools save "CSV UTF-8" with a leading byte-order mark: raw,
    frames, labeled, table, config and model files read the same with one."""
    # "Clear" leads the table and "city" the config, so the mark would glue onto them.
    inputs = {"config.txt": b"city = Al Madina\n",
              "table.csv": "".join(f"{c},{flag}\n" for c, flag in EXPECTED_TABLE1).encode(),
              "raw.csv": workspace["raw"].read_bytes(),
              "labeled.csv": workspace["labeled"].read_bytes(),
              "frames.csv": workspace["frames"].read_bytes(),
              "model.json": workspace[kind].read_bytes()}
    seen = {}
    for bom in (b"", UTF8_BOM):
        d = tmp_path / ("bom" if bom else "plain")
        d.mkdir()
        for name, data in inputs.items():
            (d / name).write_bytes(bom + data)
        cfg = ["--config", d / "config.txt"]
        runs = [
            ["prepare", *cfg, "--data", d / "raw.csv", "--table", d / "table.csv",
             "--out", d / "prepared.csv"],
            ["train", *cfg, "--data", d / "labeled.csv", "--model", kind,
             "--out", d / "trained.json"],
            ["evaluate", *cfg, "--model", d / "model.json", "--data", d / "labeled.csv",
             "--report", d / "report.json"],
            ["simulate", *cfg, "--model", d / "model.json", "--frames", d / "frames.csv",
             "--table", d / "table.csv", "--log", d / "log.jsonl", "--sink", d / "wire.txt"],
            ["predict", *cfg, "--model", d / "model.json", *map(str, PREDICT_ARGS)],
        ]
        digest = hashlib.sha256((d / "raw.csv").read_bytes()).hexdigest()
        printed = []
        for argv in runs:
            code = cli.main(list(map(str, argv)))
            out, err = capsys.readouterr()
            printed.append((code, *(text.replace(str(d), "<dir>").replace(digest, "<sha256>")
                                    for text in (out, err))))
        written = {name: (d / name).read_bytes() for name in
                   ("prepared.csv", "trained.json", "report.json", "log.jsonl", "wire.txt")}
        seen[bom] = printed, written
    assert seen[UTF8_BOM] == seen[b""]
    printed, written = seen[b""]
    assert [code for code, _, _ in printed] == [0] * 5, printed
    assert json.loads(printed[0][1])["labeled_rows"] > 0
    assert not any(data.startswith(UTF8_BOM) for data in written.values())


def test_prepare_hashes_the_bytes_of_a_file_with_a_byte_order_mark(workspace, tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_bytes(UTF8_BOM + workspace["raw"].read_bytes())
    assert cli.main(["prepare", "--data", str(raw), "--out", str(tmp_path / "l.csv")]) == 0
    digest = json.loads(capsys.readouterr().out)["sha256"]
    assert digest == hashlib.sha256(raw.read_bytes()).hexdigest()
