"""Fuzz gate for labeled CSV files.

Files written by ``write_labeled_csv`` get junk, non-finite, missing and
extra cells, states other than 0 and 1, renamed header names, blank lines
and bytes that are not UTF-8. Each mutated file must either load with
finite features inside the range rule of ``check_ranges`` and 0/1 states, or fail with a ValueError whose message
starts with the file path; ``train --model knn`` on it must exit 0, or exit
2 with a ``domepilot: error:`` line and no model file.
"""

import contextlib
import csv
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domepilot import cli
from domepilot.synthetic import synthetic_observations
from domepilot.weather import (
    LABELED_COLUMNS,
    ConditionTable,
    read_labeled_csv,
    to_samples,
    write_labeled_csv,
)

SAMPLES, _ = to_samples(synthetic_observations(40, seed=11), ConditionTable.builtin())
_written = io.StringIO()
write_labeled_csv(SAMPLES, _written)
ROWS = list(csv.reader(io.StringIO(_written.getvalue())))

NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999",
                              "-1e999", "9" * 400])
JUNK = st.one_of(
    NON_FINITE,
    st.sampled_from(["", " ", "abc", "1,2", '"', "1e", "--1", "0x10", "½", "1 0", "\x00"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)
STATES = st.sampled_from(["2", "1.0", "-1", "0.0", " 1", "01", "true", ""])


def _cell(draw, rows, first_row=1):
    """(row, column) of a random cell at or below ``first_row``."""
    row = draw(st.integers(first_row, len(rows) - 1))
    return row, draw(st.integers(0, max(len(rows[row]) - 1, 0)))


def _mutate_cells(rows, draw) -> None:
    """One cell-level edit of the parsed rows."""
    action = draw(st.sampled_from(["junk", "non-finite", "drop", "extra", "state", "header"]))
    row, col = _cell(draw, rows)
    cells = rows[row]
    if action == "junk" and cells:
        cells[col] = draw(JUNK)
    elif action == "non-finite":
        cells[draw(st.integers(0, len(LABELED_COLUMNS) - 2))] = draw(NON_FINITE)
    elif action == "drop" and cells:
        del cells[col]
    elif action == "extra":
        cells.insert(draw(st.integers(0, len(cells))), draw(JUNK))
    elif action == "state":
        cells[-1] = draw(STATES)
    elif action == "header":
        header = rows[0]
        header[draw(st.integers(0, len(header) - 1))] = draw(
            st.one_of(JUNK, st.sampled_from([*LABELED_COLUMNS, "State", " temp ", "label"])))


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
def labeled_files(draw) -> bytes:
    """ROWS with one to three cell edits, written out, then up to two byte edits."""
    rows = [list(row) for row in ROWS]
    for _ in range(draw(st.integers(1, 3))):
        _mutate_cells(rows, draw)
    raw = _csv_bytes(rows)
    for _ in range(draw(st.integers(0, 2))):
        raw = _mutate_bytes(raw, draw)
    return raw


def _with_cell(column: str, value: str) -> bytes:
    """ROWS with the first sample's ``column`` cell set to ``value``."""
    rows = [list(row) for row in ROWS]
    rows[1][LABELED_COLUMNS.index(column)] = value
    return _csv_bytes(rows)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("labeled-fuzz")
    return root / "labeled.csv", root / "model.json"


@settings(max_examples=250, deadline=None)
@given(raw=labeled_files())
# An input this gate once caught; it runs on every run.
@example(raw=_with_cell("temp", "9" * 400))  # read as float("inf")
@example(raw=_with_cell("hour", "99"))  # a number outside the range rule
def test_mutated_labeled_csv_loads_or_fails_naming_the_file(files, raw):
    path, model = files
    path.write_bytes(raw)

    try:
        samples = read_labeled_csv(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc
    else:
        for sample in samples:
            assert all(type(v) is float and math.isfinite(v) for v in sample.features)
            assert sample.label in (0, 1) and type(sample.label) is int
            _, _, humidity, hour, visibility, barometer = sample.features
            assert 0 <= hour <= 23 and 0 <= humidity <= 1 and barometer > 0 and visibility >= 0

    model.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["train", "--data", str(path), "--model", "knn", "--out", str(model)])
    if code == 0:
        assert model.exists() and '"model": "knn"' in out.getvalue()
    else:
        assert code == 2
        assert err.getvalue().startswith("domepilot: error:"), err.getvalue()
        assert not model.exists()
