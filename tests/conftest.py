"""Frozen reference data, and the CLI workspace, shared across the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from domepilot.synthetic import synthetic_frames, synthetic_observations, to_raw_csv

# The full 36-entry condition -> open-flag mapping, kept independent of the
# package so table tests compare against a frozen copy.
EXPECTED_TABLE1 = (
    ("Clear", 1),
    ("Sunny", 0),
    ("Passing clouds", 1),
    ("Low level haze", 1),
    ("Scattered clouds", 1),
    ("Partly sunny", 1),
    ("Broken clouds", 1),
    ("Duststorm", 0),
    ("Sandstorm", 0),
    ("Pleasantly warm", 1),
    ("Thunderstorms passing clouds", 1),
    ("Thunderstorms partly sunny", 1),
    ("Thundershowers", 1),
    ("Mostly cloudy", 1),
    ("Thunderstorms Broken clouds", 1),
    ("Thunderstorms Scattered clouds", 1),
    ("Extremely hot", 0),
    ("Mild", 1),
    ("Thunderstorms Partly clouds", 1),
    ("Rain Partly cloudy", 0),
    ("Rain Scattered clouds", 0),
    ("Rain Broken clouds", 0),
    ("Haze", 1),
    ("Overcast", 1),
    ("Dense fog", 1),
    ("Rain passing clouds", 0),
    ("Rain Mostly cloudy", 0),
    ("Rain Partly sunny", 0),
    ("Fog", 1),
    ("Hail Partly sunny", 0),
    ("Thundershowers passing clouds", 1),
    ("More clouds than sun", 1),
    ("Thunderstorms more clouds than sun", 1),
    ("Thunderstorms", 1),
    ("Partly cloudy", 1),
    ("Hail", 0),
)

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """The environment for a child interpreter that imports the package from src/."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "domepilot", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """A raw, labeled and frames CSV, and a tree and a k-NN model trained by the CLI."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw.csv"
    with open(raw, "w", newline="") as stream:
        to_raw_csv(synthetic_observations(900, seed=5), stream)
    frames = root / "frames.csv"
    sensor = synthetic_frames(30, seed=9, rain_rate=0.2)
    with open(frames, "w", newline="") as stream:
        to_raw_csv([f.observation for f in sensor], stream,
                   rain=[f.rain_detected for f in sensor])
    labeled = root / "labeled.csv"
    result = run_cli("prepare", "--data", raw, "--out", labeled)
    assert result.returncode == 0, result.stderr
    models = {}
    for kind in ("dt", "knn"):
        models[kind] = root / f"{kind}.json"
        result = run_cli("train", "--data", labeled, "--model", kind, "--out", models[kind])
        assert result.returncode == 0, result.stderr
    return {"root": root, "raw": raw, "frames": frames, "labeled": labeled, **models}
