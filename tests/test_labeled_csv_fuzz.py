"""Fuzz gate for labeled CSV files.

Files written by ``write_labeled_csv`` get junk, non-finite, missing and
extra cells, states other than 0 and 1, renamed header names, blank lines
and bytes that are not UTF-8. Each mutated file must either load with
finite features inside the range rule of ``check_ranges`` and 0/1 states, or fail with a ValueError whose message
starts with the file path; ``train --model knn`` on it must exit 0, or exit
2 with a ``domepilot: error:`` line and no model file.

``read_labeled_csv`` checks a block of rows at a time. The row-at-a-time
reader it replaced is kept here as its reference: on the mutated files, on
files several blocks long with defects in several blocks, and on a cell
defect followed by a line the csv module cannot read, both readers must give
equal samples or the identical message, naming the first bad line; ``train``
on a long file reports that message and writes no model file.
"""

import contextlib
import csv
import io
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domepilot import cli
from domepilot.raw import ConditionTable, to_samples, write_labeled_csv
from domepilot.synthetic import synthetic_observations
from domepilot.weather import (
    _LABELED_BLOCK_ROWS,
    LABELED_COLUMNS,
    LabeledSample,
    _named,
    _read_rows,
    check_ranges,
    read_labeled_csv,
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


def _csv_text(rows) -> str:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


def _csv_bytes(rows) -> bytes:
    return _csv_text(rows).encode("utf-8")


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


# ------------------------------------------------------ block reader vs rows


def reference_read_labeled_csv(source):
    """The row-at-a-time reader that read_labeled_csv replaced, unchanged."""
    samples = []
    with _read_rows(source, LABELED_COLUMNS) as (reader, rows):
        for cells in rows:
            try:
                features = tuple(map(float, cells[:-1]))
                if not all(map(math.isfinite, features)):
                    raise ValueError(f"non-finite feature in {cells[:-1]}")
                check_ranges(features)
                samples.append(LabeledSample(features, int(cells[-1])))
            except ValueError as exc:
                raise ValueError(_named(source, f"labeled CSV line {reader.line_num}: "
                                                f"{exc}")) from None
    return samples


def _outcome(read, path):
    """The samples ``read`` returns, with each value's type, or its ValueError message."""
    try:
        samples = read(path)
    except ValueError as exc:
        return str(exc)
    return [(type(s), s, [*map(type, s.features)], type(s.label)) for s in samples]


def assert_readers_agree(path):
    expected = _outcome(reference_read_labeled_csv, path)
    assert _outcome(read_labeled_csv, path) == expected
    return expected


@settings(max_examples=150, deadline=None)
@given(raw=labeled_files())
def test_block_reader_matches_the_row_reader_on_mutated_files(files, raw):
    path, _ = files
    path.write_bytes(raw)
    assert_readers_agree(path)


BLOCKS = 3  # full blocks, then part of a fourth
# Rows of a file BLOCKS blocks and 100 rows long. Blank lines and a quoted
# cell that spans two lines keep row numbers and line numbers apart.
LONG_ROWS = list(itertools.islice(itertools.cycle(ROWS[1:]), BLOCKS * _LABELED_BLOCK_ROWS + 100))
DEFECTS = {  # column, cell
    "junk": ("temp", "abc"),
    "non-finite": ("wind", "nan"),
    "out of range": ("hour", "99"),
    "humidity": ("humidity", "1.5"),
    "barometer": ("barometer", "0"),
    "visibility": ("visibility", "-1"),
    "state": ("state", "2"),
    "float state": ("state", "1.0"),
    "empty": ("humidity", ""),
}
LAST = len(LONG_ROWS) - 1
AT = {  # row indexes of the defects
    "first, middle and last block": (10, 2 * _LABELED_BLOCK_ROWS + 7, LAST),
    "middle and last block": (_LABELED_BLOCK_ROWS * 3 // 2, LAST - 1),
    "last block": (LAST,),
    "one block, twice": (_LABELED_BLOCK_ROWS + 3, _LABELED_BLOCK_ROWS + 4),
    "either side of a block edge": (_LABELED_BLOCK_ROWS - 1, _LABELED_BLOCK_ROWS),
}


def _long_file(path, edits=()):
    """LONG_ROWS with ``edits``, (row, column, cell) triples, written to ``path``."""
    rows = [list(row) for row in LONG_ROWS]
    for row, column, cell in edits:
        rows[row][LABELED_COLUMNS.index(column)] = cell
    rows[3][0] = rows[3][0] + "\n"  # float() strips it; the csv writer quotes it
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(LABELED_COLUMNS)
    for i, row in enumerate(rows):
        writer.writerow(row)
        if i % 997 == 5:
            text.write("\n")
    path.write_text(text.getvalue(), encoding="utf-8")


def test_a_long_clean_file_reads_the_same_through_both_readers(tmp_path):
    path = tmp_path / "labeled.csv"
    _long_file(path, [(40, "state", " 1"), (41, "state", "01"), (42, "temp", " 7 ")])
    samples = assert_readers_agree(path)
    assert len(samples) == len(LONG_ROWS) and samples[40][1].label == 1


@pytest.mark.parametrize("at", AT)
@pytest.mark.parametrize("defect", DEFECTS)
def test_the_block_reader_names_the_first_bad_line_of_a_long_file(tmp_path, capsys, defect, at):
    path = tmp_path / "labeled.csv"
    column, cell = DEFECTS[defect]
    _long_file(path, [(row, column, cell) for row in AT[at]])
    message = assert_readers_agree(path)
    assert isinstance(message, str) and message.startswith(f"{path}: labeled CSV line ")
    model = tmp_path / "model.json"  # train reports that line and writes no model file
    assert cli.main(["train", "--data", str(path), "--out", str(model)]) == 2
    assert capsys.readouterr() == ("", f"domepilot: error: {message}\n") and not model.exists()


# Lines the csv module cannot read: a field over its size limit, and a byte
# that is not UTF-8 in a later 8 KiB read chunk than the defects before it.
UNREADABLE = {
    "field over the limit": lambda: f'1,"{"9" * (csv.field_size_limit() + 1)}"\n',
    "not UTF-8": lambda: "1,\udcff\n",
}
UNREADABLE_AT = _LABELED_BLOCK_ROWS * 3 // 4  # rows before it, all in the first block


@pytest.mark.parametrize("unreadable", UNREADABLE)
@pytest.mark.parametrize("defect_row", [None, 10, _LABELED_BLOCK_ROWS // 4])
def test_a_cell_defect_wins_over_a_later_unreadable_line_of_its_block(tmp_path, unreadable,
                                                                       defect_row):
    """The unreadable line lies in the first block, after the defect: the
    row reader never reached it, so the block reader must not name it."""
    path = tmp_path / "labeled.csv"
    rows = [list(row) for row in LONG_ROWS[:_LABELED_BLOCK_ROWS - 1]]
    if defect_row is not None:
        rows[defect_row][LABELED_COLUMNS.index("hour")] = "99"
    head = _csv_text([LABELED_COLUMNS, *rows[:UNREADABLE_AT]])
    if defect_row is not None:  # the defect's line ends in an earlier read chunk
        assert len(_csv_text([LABELED_COLUMNS, *rows[:defect_row + 1]])) // 8192 < len(head) // 8192
    path.write_bytes((head + UNREADABLE[unreadable]() + _csv_text(rows[UNREADABLE_AT:])).encode(
        "utf-8", "surrogateescape"))
    message = assert_readers_agree(path)
    if defect_row is None:
        assert isinstance(message, str) and message.startswith(f"{path}: line ")
    else:
        assert message.startswith(f"{path}: labeled CSV line {defect_row + 2}: hour out of range")
