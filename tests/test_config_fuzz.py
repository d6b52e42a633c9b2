"""Fuzz gate for config files (``train --config``).

A valid ``key = value`` file gets lines without ``=``, unknown keys, quoted
values, blank lines, comments, dropped lines, bytes that are not UTF-8 and
bad values such as ``max-leaves = 0``. ``train`` with it must either exit 0
with the settings the file gives (the shipped default of each it omits), or
exit 2 with a ``domepilot: error:`` line and no traceback. A syntax error
names the file and the line, a decode error the file, and an unknown key
the file and the key; a file with an unknown key never trains.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domepilot import cli
from domepilot.knnmodel import default_k
from domepilot.synthetic import synthetic_observations, to_raw_csv

LINES = ["# reference tree", "model = dt", "max-leaves = 8", "criterion = gini",
         "k = 3", "scaling = none"]

JUNK = st.one_of(
    st.sampled_from(["", " ", "\t", "abc", "max-leaves", "= 3", " = ", '"', "\x00", "½"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)
#: Keys that are no flag of any command; a file holding one is rejected. The split
#: is ``cli.SPLITS``, never a setting.
UNKNOWN_KEYS = {"frobnicate", "min_samples_leaf", "MODEL", "max leaves", "max_leafs", "func",
                "command", "config", "__class__", "seed", "test_frac"}
#: Flags of train or of another command; a file holding one is accepted.
FLAG_KEYS = ["data", "out", "city", "frames", "report"]
KEY = st.sampled_from(sorted(UNKNOWN_KEYS) + FLAG_KEYS)
BAD_VALUE = st.sampled_from([
    ("max-leaves", "0"), ("max-leaves", "-3"), ("max-leaves", "2.5"), ("max-leaves", ""),
    ("k", "0"), ("k", "abc"), ("k", "100000"),
    ("model", "svm"), ("model", "knn"), ("criterion", "mse"), ("criterion", "entropy"),
    ("scaling", "minmax"), ("scaling", "standardize"), ("k", "auto"),
])


def _mutate_lines(lines, draw) -> None:
    """One line-level edit of the config."""
    action = draw(st.sampled_from(["no-equals", "unknown", "quote", "blank", "comment",
                                   "bad-value", "drop"]))
    at = draw(st.integers(0, len(lines)))
    if action == "no-equals":
        lines.insert(at, draw(JUNK).replace("=", ""))
    elif action == "unknown":
        lines.insert(at, f"{draw(KEY)} = {draw(JUNK)}")
    elif action == "quote" and at < len(lines) and "=" in lines[at]:
        key, _, value = lines[at].partition("=")
        quote = draw(st.sampled_from(['"', "'", '"""']))
        lines[at] = f"{key}= {quote}{value.strip()}{draw(st.sampled_from([quote, '']))}"
    elif action == "blank":
        lines.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
    elif action == "comment":
        comment = "# " + draw(JUNK)
        if at < len(lines) and draw(st.booleans()):  # trailing
            lines[at] += " " + comment
        else:
            lines.insert(at, comment)
    elif action == "bad-value":  # in place of the key's line, so that it takes effect
        key, value = draw(BAD_VALUE)
        at = next((i for i, line in enumerate(lines) if line.startswith(f"{key} =")), at)
        lines[at:at + 1] = [f"{key} = {value}"]
    elif action == "drop":
        del lines[at:at + 1]


def _settings(text: str) -> dict[str, str]:
    """The settings of an accepted config, read by hand: the last value of a key wins."""
    values = {}
    for line in text.splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        if key.strip():
            values[key.strip().replace("-", "_")] = value.strip().strip("\"'")
    return values


def _config_bytes(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


@st.composite
def config_files(draw) -> bytes:
    """LINES with one to three line edits, written out, perhaps with a 0xff byte."""
    lines = list(LINES)
    for _ in range(draw(st.integers(1, 3))):
        _mutate_lines(lines, draw)
    raw = _config_bytes(lines)
    if draw(st.booleans()):  # 0xff byte
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("config-fuzz")
    raw, labeled = root / "raw.csv", root / "labeled.csv"
    with open(raw, "w", newline="") as stream:
        to_raw_csv(synthetic_observations(60, seed=3), stream)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["prepare", "--data", str(raw), "--out", str(labeled)]) == 0
    return labeled, root / "run.conf", root / "model.json"


@settings(max_examples=200, deadline=None)
@given(raw=config_files())
# Inputs this gate once caught; each runs on every run.
@example(raw=_config_bytes([*LINES, "frobnicate = 3"]))  # was ignored
@example(raw=_config_bytes([*LINES, "min_samples_leaf = 2"]))  # a TreeConfig field, no flag
def test_mutated_config_trains_or_fails_cleanly(files, raw):
    labeled, path, out = files
    path.write_bytes(raw)

    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["train", "--data", str(labeled), "--out", str(out),
                         "--config", str(path)])
    message = stderr.getvalue()
    assert "Traceback" not in message
    if code == 0:
        values = _settings(raw.decode("utf-8"))
        assert not UNKNOWN_KEYS & set(values)
        summary = json.loads(stdout.getvalue())
        assert summary["model"] == values.get("model", "dt")
        split = cli.SPLITS[summary["model"]]
        assert (summary["test_fraction"], summary["seed"]) == (split.test_fraction, split.seed)
        if summary["model"] == "dt":
            assert summary["criterion"] == values.get("criterion", "gini")
            assert summary["max_leaf_nodes"] == int(values.get("max_leaves", 50))
            assert not {"k", "scaling"} & set(summary)
        else:
            k = values.get("k", "auto")
            assert summary["k"] == (default_k(summary["n_train"]) if k == "auto" else int(k))
            assert summary["scaling"] == values.get("scaling", "none")
            assert not {"criterion", "max_leaf_nodes"} & set(summary)
        assert out.exists()
    else:
        assert code == 2
        assert message.startswith("domepilot: error: "), message
        reason = message[len("domepilot: error: "):]
        if "key = value" in reason:
            assert re.match(rf"{re.escape(str(path))}:[1-9]\d*: expected key = value$",
                            reason.rstrip("\n")), reason
        if "unknown setting" in reason:
            assert re.match(rf"{re.escape(str(path))}: unknown setting '[^']*'$",
                            reason.rstrip("\n")), reason
        if "codec can't decode" in reason:
            assert re.match(rf"{re.escape(str(path))}: line [1-9]\d*: ", reason), reason
        assert not out.exists()
