"""Fuzz gate for frames CSV files.

A frames CSV (the raw weather schema plus a ``rain`` column) gets junk,
non-finite, missing and extra cells, rain flags other than 0/1, renamed
header names, blank lines, bytes that are not UTF-8 and a cell longer than
the csv module's field limit. ``simulate`` with a tree on it must either
exit 0 with one decision-log entry and one wire line per accepted frame, or
exit 2 with a ``domepilot: error:`` line naming the file. It never raises.
The gate reads each plain ``H:MM`` or ``HH:MM`` time cell itself, and an
accepted frame must log that hour. For a file that parses, the cleaning
report must count one row per non-blank record after the header, keep one
per frame, and give the rejected rows their reasons.
"""

import contextlib
import csv
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domepilot import cli
from domepilot.grow import train_tree
from domepilot.raw import ConditionTable, read_frames_csv, to_samples
from domepilot.synthetic import synthetic_observations, to_raw_csv
from domepilot.tree import TreeConfig
from domepilot.weather import FRAME_COLUMNS

OBSERVATIONS = synthetic_observations(40, seed=13)
_written = io.StringIO()
to_raw_csv(OBSERVATIONS, _written, rain=[i % 3 == 0 for i in range(len(OBSERVATIONS))])
ROWS = list(csv.reader(io.StringIO(_written.getvalue())))

NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999",
                              "-1e999", "9" * 400])
JUNK = st.one_of(
    NON_FINITE,
    st.sampled_from(["", " ", "abc", "1,2", '"', "1e", "--1", "0x10", "½", "1 0", "\x00",
                     "25:00", "2017-13-01", "calm"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)
RAIN = st.sampled_from(["2", "maybe", "-1", "1.0", " yes", "TRUE", "", "01"])
NUMERIC = [FRAME_COLUMNS.index(name) for name in ("temp", "wind", "humidity", "barometer",
                                                   "visibility")]


def _mutate_cells(rows, draw) -> None:
    """One cell-level edit of the parsed rows."""
    action = draw(st.sampled_from(["junk", "non-finite", "drop", "extra", "rain",
                                   "every-rain", "header", "huge"]))
    row = draw(st.integers(1, len(rows) - 1))
    cells = rows[row]
    col = draw(st.integers(0, max(len(cells) - 1, 0)))
    if action == "junk" and cells:
        cells[col] = draw(JUNK)
    elif action == "non-finite":
        cells[draw(st.sampled_from(NUMERIC))] = draw(NON_FINITE)
    elif action == "drop" and cells:
        del cells[col]
    elif action == "extra":
        cells.insert(draw(st.integers(0, len(cells))), draw(JUNK))
    elif action == "rain":
        cells[-1] = draw(RAIN)
    elif action == "every-rain":  # may leave no usable frame
        flag = draw(RAIN)
        for cells in rows[1:]:
            cells[-1:] = [flag]
    elif action == "header":
        header = rows[0]
        header[draw(st.integers(0, len(header) - 1))] = draw(
            st.one_of(JUNK, st.sampled_from([*FRAME_COLUMNS, "Rain", " temp ", "raining"])))
    elif action == "huge" and cells:
        cells[col] = "9" * (csv.field_size_limit() + 1)


def _mutate_bytes(raw: bytes, draw) -> bytes:
    """Blank lines or a 0xff byte at a random place."""
    at = draw(st.integers(0, len(raw)))
    if draw(st.booleans()):  # blank lines
        while at and raw[at - 1:at] != b"\n":
            at -= 1
        return raw[:at] + draw(st.sampled_from([b"\n", b"\r\n", b"\n\n"])) + raw[at:]
    return raw[:at] + b"\xff" + raw[at:]


def _csv_bytes(rows) -> bytes:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue().encode("utf-8")


@st.composite
def frames_files(draw) -> bytes:
    """ROWS with one to three cell edits, written out, then up to two byte edits."""
    rows = [list(row) for row in ROWS]
    for _ in range(draw(st.integers(1, 3))):
        _mutate_cells(rows, draw)
    raw = _csv_bytes(rows)
    for _ in range(draw(st.integers(0, 2))):
        raw = _mutate_bytes(raw, draw)
    return raw


def _with_cell(column: str, value: str) -> bytes:
    """ROWS with the first frame's ``column`` cell set to ``value``."""
    rows = [list(row) for row in ROWS]
    rows[1][FRAME_COLUMNS.index(column)] = value
    return _csv_bytes(rows)


def _plain_hours(raw: bytes):
    """Per non-blank data row, the hour its plain ``H:MM``/``HH:MM`` time cell reads as
    (``24:00`` is 0), -1 for such a cell outside the day, None for any other cell; None
    in place of the list when the header has no single time column."""
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    names = [name.strip().lower() for name in rows[0]] if rows else []
    if names.count("time") != 1:
        return None
    at = names.index("time")
    hours = []
    for row in filter(None, rows[1:]):
        m = re.fullmatch(r"(\d{1,2}):(\d\d)", row[at] if at < len(row) else "")
        hour, minutes = map(int, m.groups()) if m else (None, None)
        if hour == 24 and minutes == 0:
            hour = 0
        hours.append(hour if m is None or (hour < 24 and minutes < 60) else -1)
    return hours


def _check_hours(raw: bytes, entries) -> None:
    """The logged frames are the accepted rows in file order, so each must match a
    later row than the one before it: one whose cell reads as its hour, or is not plain."""
    hours = _plain_hours(raw)
    if hours is None:
        return
    rows = iter(hours)
    for entry in entries:
        hour = entry["features"][3]
        assert any(want is None or want == hour for want in rows), (
            f"frame {entry['tick']} logs hour {hour}, which no row left reads as")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("frames-fuzz")
    samples, _ = to_samples(synthetic_observations(300, seed=5), ConditionTable.builtin())
    model = root / "dt.json"
    cli.save_model(train_tree(samples, TreeConfig()), model)
    return model, root / "frames.csv", root / "log.jsonl", root / "wire.txt"


@settings(max_examples=200, deadline=None)
@given(raw=frames_files())
# Inputs this gate once caught; each runs on every run.
@example(raw=_with_cell("temp", "9" * 400))  # read as float("inf")
@example(raw=_with_cell("time", "24:30"))  # read as hour 0
def test_mutated_frames_csv_simulates_or_fails_naming_the_file(files, raw):
    model, path, log, wire = files
    path.write_bytes(raw)

    try:
        frames, report = read_frames_csv(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        accepted = None
    else:
        accepted = len(frames)
        records = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))[1:]
        assert report.rows_read == sum(1 for cells in records if cells)
        assert report.kept == accepted
        assert sum(report.reasons.values()) == report.rejected
    log.unlink(missing_ok=True)
    wire.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["simulate", "--model", str(model), "--frames", str(path),
                         "--log", str(log), "--sink", str(wire)])
    if code == 0:
        assert accepted, "simulate accepted a file read_frames_csv rejects"
        entries = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert len(entries) == accepted
        assert all(math.isfinite(v) for e in entries for v in e["features"])
        _check_hours(raw, entries)
        assert wire.read_text(encoding="ascii").count("\n") == accepted
        assert json.loads(out.getvalue())["frames"] == accepted
    else:
        assert code == 2
        message = err.getvalue()  # warnings may come first
        assert "domepilot: error: " in message, message
        assert str(path) in message[message.index("domepilot: error: "):]
        assert "Traceback" not in message
        assert not log.exists()
