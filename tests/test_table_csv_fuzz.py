"""Fuzz gate for condition-table CSV files (``prepare --table``).

A valid ``condition,flag`` table gets junk, duplicate, empty and
case/whitespace-variant conditions, flags other than 0/1, extra and missing
cells, ``condition,flag`` header rows, blank lines, bytes that are not UTF-8
and a cell longer than the csv module's field limit. ``prepare`` with it must
either exit 0 with a table that maps every entry to its flag, or exit 2 with a
``domepilot: error:`` line naming the table file and, unless the table is
empty or not UTF-8, the line. It never raises.
"""

import contextlib
import csv
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domepilot import cli
from domepilot.synthetic import synthetic_observations, to_raw_csv
from domepilot.raw import ConditionTable

from conftest import EXPECTED_TABLE1

ROWS = [["condition", "flag"]] + [[cond, str(flag)] for cond, flag in EXPECTED_TABLE1[:8]]

JUNK = st.one_of(
    st.sampled_from(["", " ", "\t", "abc", "1,2", '"', "\x00", "½", "Clear Clear"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)
BAD_FLAG = st.sampled_from(["2", "1.5", "yes", "", "-1", " 1", "01", "+0", "true", "1e0"])


def _variant(condition: str, data) -> str:
    """``condition`` in another case or with other whitespace: the same key."""
    case = data.draw(st.sampled_from([str.upper, str.lower, str.title, str]))
    pad = data.draw(st.sampled_from(["", " ", "  ", "\t"]))
    return pad + "  ".join(case(condition).split()) + pad


def _mutate_rows(rows, data) -> None:
    """One row-level edit of the table."""
    action = data.draw(st.sampled_from(["junk", "duplicate", "variant", "empty", "flag",
                                        "extra", "drop", "header", "huge"]))
    row = data.draw(st.integers(0, len(rows) - 1))
    cells = rows[row]
    if action == "junk" and cells:
        cells[0] = data.draw(JUNK)
    elif action == "duplicate" and cells:
        rows.insert(data.draw(st.integers(0, len(rows))), [_variant(cells[0], data), "0"])
    elif action == "variant" and cells:
        cells[0] = _variant(cells[0], data)
    elif action == "empty" and cells:
        cells[0] = data.draw(st.sampled_from(["", "   "]))
    elif action == "flag":
        cells[-1:] = [data.draw(BAD_FLAG)]
    elif action == "extra":
        cells.insert(data.draw(st.integers(0, len(cells))), data.draw(JUNK))
    elif action == "drop" and cells:
        del cells[data.draw(st.integers(0, len(cells) - 1))]
    elif action == "header":
        rows.insert(data.draw(st.integers(0, len(rows))),
                    [data.draw(st.sampled_from(["condition", "CONDITION", " Condition "])),
                     data.draw(st.sampled_from(["flag", "Flag", "flag "]))])
    elif action == "huge" and cells:
        cells[0] = "C" * (csv.field_size_limit() + 1)


def _mutate_bytes(raw: bytes, data) -> bytes:
    """Blank lines or a 0xff byte at a random place."""
    at = data.draw(st.integers(0, len(raw)))
    if data.draw(st.booleans(), label="blank lines"):
        while at and raw[at - 1:at] != b"\n":
            at -= 1
        return raw[:at] + data.draw(st.sampled_from([b"\n", b"\r\n", b"\n\n", b" \n"])) + raw[at:]
    return raw[:at] + b"\xff" + raw[at:]


def _entries(raw: bytes) -> list[tuple[str, int]]:
    """The (condition, flag) entries of an accepted table, read by hand."""
    entries = []
    for row in csv.reader(io.StringIO(raw.decode("utf-8"), newline="")):
        cells = [cell.strip() for cell in row]
        if cells in ([], [""]) or [cell.casefold() for cell in cells] == ["condition", "flag"]:
            continue
        entries.append((cells[0], int(cells[1])))
    return entries


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("table-fuzz")
    raw = root / "raw.csv"
    with open(raw, "w", newline="") as stream:
        to_raw_csv(synthetic_observations(60, seed=3), stream)
    return raw, root / "table.csv", root / "labeled.csv"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_table_prepares_or_fails_naming_the_file(files, data):
    raw_csv, path, out = files
    rows = [list(row) for row in ROWS]
    for _ in range(data.draw(st.integers(1, 3), label="row mutations")):
        _mutate_rows(rows, data)
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    raw = text.getvalue().encode("utf-8")
    for _ in range(data.draw(st.integers(0, 2), label="byte mutations")):
        raw = _mutate_bytes(raw, data)
    path.write_bytes(raw)

    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["prepare", "--data", str(raw_csv), "--out", str(out),
                         "--expect-sha256", cli._sha256(raw_csv), "--table", str(path)])
    message = stderr.getvalue()
    assert "Traceback" not in message
    if code == 0:
        table = ConditionTable.from_csv(path)
        entries = _entries(raw)
        assert len(table) == len(entries)
        assert all(table.flag(condition) == flag for condition, flag in entries)
        assert out.exists()
    else:
        assert code == 2
        assert message.startswith(f"domepilot: error: {path}: "), message
        reason = message[len(f"domepilot: error: {path}: "):]
        assert (re.match(r"line [1-9]\d*: ", reason) or reason == "condition table is empty\n"
                or "codec can't decode" in reason), reason
        assert not out.exists()
