"""The evaluate reports and every command's output, pinned byte for byte.

``bench/gen.py`` writes a raw weather CSV big enough that the k-NN training
split (6,842 rows, k = 81, stride 10) takes the vote's sampled selection, and
a frames CSV of 2,000 rows. ``prepare``, ``train`` and ``evaluate`` then run
in-process for a tree, a k-NN and a standardized k-NN; ``simulate`` replays
the frames through each of the three models into a sink file, through the
tree with ``--sink -`` and through the k-NN into ``/dev/full``, whose every
write fails; ``predict`` asks the tree and the k-NN once. Then come the
failure paths: ``simulate`` and ``predict`` with a standardized k-NN that
faults on some frames, with one refused at load and with a file that is no
model, and a tree's ``simulate --table`` with a table that lacks six of the
built-in conditions. The sha256 of each command's exit code, stdout and
stderr, and of each file it writes (decision logs and wire files too), is
compared with ``golden.json``. The standardized model document is left out:
its numpy means and stds may differ in the last bits between numpy builds, and
its evaluate report pins its votes.

A change that moves a split, a tree, a vote or a report line fails here. On a
mismatch the test names each output that differs and prints the manifest the
code now gives; it never writes the file. A change that means to move an
entry updates ``golden.json`` by hand and says which entry and why.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from domepilot import cli

from conftest import EXPECTED_TABLE1

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")
SEED, ROWS, FRAMES = 7, 10_000, 2_000

COMMANDS = (
    ("prepare", ["prepare", "--data", "raw.csv", "--out", "labeled.csv"], ["labeled.csv"]),
    ("train dt", ["train", "--data", "labeled.csv", "--out", "dt.json"], ["dt.json"]),
    ("train knn", ["train", "--data", "labeled.csv", "--model", "knn", "--out", "knn.json"],
     ["knn.json"]),
    ("train knn-z", ["train", "--data", "labeled.csv", "--model", "knn",
                     "--scaling", "standardize", "--out", "knn-z.json"], []),
    *((f"evaluate {name}", ["evaluate", "--model", f"{name}.json", "--data", "labeled.csv",
                            "--report", f"{name}.report.json"], [f"{name}.report.json"])
      for name in ("dt", "knn", "knn-z")),
    *((f"simulate {name}", ["simulate", "--model", f"{name}.json", "--frames", "frames.csv",
                            "--log", f"{name}.log.jsonl", "--sink", f"{name}.wire.txt"],
       [f"{name}.log.jsonl", f"{name}.wire.txt"])
      for name in ("dt", "knn", "knn-z")),
    ("simulate dt --sink -", ["simulate", "--model", "dt.json", "--frames", "frames.csv",
                              "--log", "dt-stdout.log.jsonl", "--sink", "-"],
     ["dt-stdout.log.jsonl"]),
    # Every wire line fails with ENOSPC: exit 2, yet the decision log is written.
    ("simulate knn --sink /dev/full", ["simulate", "--model", "knn.json", "--frames", "frames.csv",
                                       "--log", "knn-full.log.jsonl", "--sink", "/dev/full"],
     ["knn-full.log.jsonl"]),
    *((f"predict {name}", ["predict", "--model", f"{name}.json", "--temp", "21", "--wind", "5",
                           "--humidity", "0.3", "--hour", "14", "--visibility", "10",
                           "--barometer", "1012", "--rain", "0"], [])
      for name in ("dt", "knn")),
)

#: knn-z.json with its temp std edited (see _failure_inputs): a model that faults
#: on some frames and one refused at load; and a file that is no model document.
BROKEN_MODELS = (("knn-z temp std 2.5e-153", "knn-fault.json"),
                 ("knn-z temp std 1e-300", "knn-refused.json"), ("not a model", "raw.csv"))
FAILURE_COMMANDS = (
    ("simulate knn-z temp std 2.5e-153",
     ["simulate", "--model", "knn-fault.json", "--frames", "frames.csv",
      "--log", "knn-fault.log.jsonl", "--sink", "knn-fault.wire.txt"],
     ["knn-fault.log.jsonl", "knn-fault.wire.txt"]),
    *((f"simulate {name}", ["simulate", "--model", model, "--frames", "frames.csv",
                            "--log", "refused.log.jsonl"], [])
      for name, model in BROKEN_MODELS[1:]),
    *((f"predict {name}", ["predict", "--model", model, "--temp", "38", "--wind", "5",
                           "--humidity", "0.3", "--hour", "14", "--visibility", "10",
                           "--barometer", "1012", "--rain", "0"], [])
      for name, model in BROKEN_MODELS),
    ("simulate dt --table", ["simulate", "--model", "dt.json", "--frames", "frames.csv",
                             "--log", "dt-table.log.jsonl", "--sink", "dt-table.wire.txt",
                             "--table", "table.csv"], ["dt-table.log.jsonl", "dt-table.wire.txt"]),
)


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _failure_inputs(tmp_path) -> None:
    """The inputs of FAILURE_COMMANDS, made from what COMMANDS wrote.

    The stats are literals near what numpy computes for knn-z.json, so which
    frames fault does not hang on the last bits of a numpy build. A temp std
    of 2.5e-153 still lets every training z-score fit: its largest squared
    norm is 3.4e307, below a quarter of the largest float. A frame whose temp
    lies more than 8.2 degrees from the mean then overflows the vote's
    distance bound, so the model raises and decide closes that frame, as it
    does for ``predict --temp 38``. At 1e-300 the training rows overflow, and
    the model is refused at load.
    """
    document = json.loads((tmp_path / "knn-z.json").read_text(encoding="utf-8"))
    for std, path in ((2.5e-153, "knn-fault.json"), (1e-300, "knn-refused.json")):
        document["stats"] = {"means": [23.4, 10.6, 0.49, 11.5, 12.7, 1011.0],
                             "stds": [std, 8.7, 0.26, 6.9, 4.7, 7.6]}
        (tmp_path / path).write_text(json.dumps(document), encoding="utf-8")
    (tmp_path / "table.csv").write_text(
        "".join(f"{condition},{flag}\n" for condition, flag in EXPECTED_TABLE1[6:]),
        encoding="utf-8")


def _outputs(tmp_path, monkeypatch, capsys) -> dict:
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look it up there
    spec.loader.exec_module(gen)
    (tmp_path / "raw.csv").write_text(gen.raw_dataset(SEED, ROWS)[0], encoding="utf-8")
    (tmp_path / "frames.csv").write_text(gen.frames(SEED, FRAMES)[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # relative paths, so stdout names no temp directory
    outputs = _run(COMMANDS, tmp_path, capsys)
    _failure_inputs(tmp_path)
    return {**outputs, **_run(FAILURE_COMMANDS, tmp_path, capsys)}


def _run(commands, tmp_path, capsys) -> dict:
    outputs = {}
    for name, argv, written in commands:
        code = cli.main(argv)
        captured = capsys.readouterr()
        outputs[f"{name}: exit"] = str(code)
        outputs[f"{name}: stdout"] = _sha256(captured.out)
        outputs[f"{name}: stderr"] = _sha256(captured.err)
        for path in written:
            outputs[f"{name}: {path}"] = _sha256((tmp_path / path).read_text(encoding="utf-8"))
    return outputs


def test_evaluate_reports_and_outputs_match_the_manifest(tmp_path, monkeypatch, capsys):
    outputs = _outputs(tmp_path, monkeypatch, capsys)
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differ = sorted(key for key in expected.keys() | outputs.keys()
                    if expected.get(key) != outputs.get(key))
    assert not differ, (f"outputs that differ from {MANIFEST.name}: {differ}\n"
                        f"the manifest this code gives:\n"
                        f"{json.dumps(outputs, indent=2, sort_keys=True)}")
