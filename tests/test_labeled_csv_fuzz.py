"""Fuzz gate for labeled CSV files.

Files written by ``write_labeled_csv`` get junk, non-finite, missing and
extra cells, states other than 0 and 1, renamed header names, blank lines
and bytes that are not UTF-8. Each mutated file must either load with
finite features and 0/1 states, or fail with a ValueError whose message
starts with the file path; ``train --model knn`` on it must exit 0, or exit
2 with a ``domepilot: error:`` line and no model file.
"""

import contextlib
import csv
import io
import math

import pytest
from hypothesis import given, settings
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
                              "-1e999"])
JUNK = st.one_of(
    NON_FINITE,
    st.sampled_from(["", " ", "abc", "1,2", '"', "1e", "--1", "0x10", "½", "1 0", "\x00"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)
STATES = st.sampled_from(["2", "1.0", "-1", "0.0", " 1", "01", "true", ""])


def _cell(data, rows, first_row=1):
    """(row, column) of a random cell at or below ``first_row``."""
    row = data.draw(st.integers(first_row, len(rows) - 1))
    return row, data.draw(st.integers(0, max(len(rows[row]) - 1, 0)))


def _mutate_cells(rows, data) -> None:
    """One cell-level edit of the parsed rows."""
    action = data.draw(st.sampled_from(["junk", "non-finite", "drop", "extra", "state",
                                        "header"]))
    row, col = _cell(data, rows)
    cells = rows[row]
    if action == "junk" and cells:
        cells[col] = data.draw(JUNK)
    elif action == "non-finite":
        cells[data.draw(st.integers(0, len(LABELED_COLUMNS) - 2))] = data.draw(NON_FINITE)
    elif action == "drop" and cells:
        del cells[col]
    elif action == "extra":
        cells.insert(data.draw(st.integers(0, len(cells))), data.draw(JUNK))
    elif action == "state":
        cells[-1] = data.draw(STATES)
    elif action == "header":
        header = rows[0]
        header[data.draw(st.integers(0, len(header) - 1))] = data.draw(
            st.one_of(JUNK, st.sampled_from([*LABELED_COLUMNS, "State", " temp ", "label"])))


def _mutate_bytes(raw: bytes, data) -> bytes:
    """Blank lines or a 0xff byte at a random place."""
    at = data.draw(st.integers(0, len(raw)))
    if data.draw(st.booleans(), label="blank lines"):
        while at and raw[at - 1:at] != b"\n":
            at -= 1
        return raw[:at] + data.draw(st.sampled_from([b"\n", b"\r\n", b"\n\n"])) + raw[at:]
    return raw[:at] + b"\xff" + raw[at:]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("labeled-fuzz")
    return root / "labeled.csv", root / "model.json"


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_mutated_labeled_csv_loads_or_fails_naming_the_file(files, data):
    path, model = files
    rows = [list(row) for row in ROWS]
    for _ in range(data.draw(st.integers(1, 3), label="cell mutations")):
        _mutate_cells(rows, data)
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    raw = text.getvalue().encode("utf-8")
    for _ in range(data.draw(st.integers(0, 2), label="byte mutations")):
        raw = _mutate_bytes(raw, data)
    path.write_bytes(raw)

    try:
        samples = read_labeled_csv(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc
    else:
        for sample in samples:
            assert all(type(v) is float and math.isfinite(v) for v in sample.features)
            assert sample.label in (0, 1) and type(sample.label) is int

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
