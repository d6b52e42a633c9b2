"""Labeled samples, seeded splits, the range rule, model-document field checks
and the one CSV reader: what every command runs.

``train`` and ``evaluate`` load the package's row code from here alone. The
raw-row side (cell parsers, the condition table, frames and the labeled-CSV
writer) lives in ``domepilot.raw``, which only ``prepare``, ``simulate`` and
``predict`` load.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from collections import namedtuple
from contextlib import contextmanager, suppress
from pathlib import Path
from sys import float_info
from typing import IO, Iterator, Sequence, TypeVar, Union

#: Fixed feature order of a labeled sample.
FEATURE_NAMES = ("temp", "wind", "humidity", "hour", "visibility", "barometer")

#: Required header names of the raw input CSV (any column order).
RAW_COLUMNS = ("city", "date", "time", "temp", "wind", "humidity",
               "barometer", "visibility", "weather")

#: Columns of a frames CSV: the raw weather schema plus a rain flag.
FRAME_COLUMNS = RAW_COLUMNS + ("rain",)

#: Header of the canonical labeled-dataset CSV.
LABELED_COLUMNS = FEATURE_NAMES + ("state",)

# Open interval of the temperature gate, both boundaries excluded.
TEMP_OPEN_LOW = 16.0
TEMP_OPEN_HIGH = 27.0

PathOrStream = Union[str, Path, IO[str]]
T = TypeVar("T")


def check_ranges(features: Sequence[float]) -> None:
    """The range rule of a FEATURE_NAMES vector, for CSV rows and ``predict`` flags
    alike: raise ValueError naming the first value outside its range."""
    _, _, humidity, hour, visibility, barometer = features
    if not 0 <= hour <= 23:
        raise ValueError(f"hour out of range: {hour}")
    if not 0.0 <= humidity <= 1.0:
        raise ValueError(f"humidity out of range: {humidity}")
    if not barometer > 0:
        raise ValueError(f"barometer must be positive: {barometer}")
    if not visibility >= 0:  # a NaN fails every comparison
        raise ValueError(f"visibility must be nonnegative: {visibility}")


def _integer(value, name: str) -> int:
    """``value`` if it is an int (a JSON integer), not a float or a bool."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name: str, nonnegative: bool = False) -> float:
    """``value`` as a float if it is a finite JSON number (an int or a float, not a bool)."""
    # An int compares with a float exactly: one too large for a float fails here.
    if (type(value) not in (int, float) or not -float_info.max <= value <= float_info.max
            or nonnegative and value < 0):
        kind = "non-negative number" if nonnegative else "number"
        raise ValueError(f"{name} must be a finite {kind}, got {value!r}")
    return float(value)


class LabeledSample(namedtuple("LabeledSample", "features label")):
    """6-feature vector plus binary dome state (1=open, 0=close).

    A tuple, so it unpacks as ``features, label``; construction and
    unpickling check it, ``_make`` and ``_replace`` do not.
    """

    __slots__ = ()

    def __new__(cls, features: tuple[float, ...], label: int):
        if len(features) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features, "
                             f"got {len(features)}")
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        return tuple.__new__(cls, (features, int(label)))  # True or 1.0 is stored as 1


class SplitSpec(namedtuple("SplitSpec", "test_fraction seed")):
    """Seeded holdout split: round(n * test_fraction) samples go to test."""

    __slots__ = ()

    def __new__(cls, test_fraction: float, seed: int):
        if not 0.0 < test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
        if not 0 <= _integer(seed, "seed") < 1 << 64:  # permutation reads 64 bits of it
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        return tuple.__new__(cls, (test_fraction, seed))


@contextmanager
def _csv_reader(source: PathOrStream) -> Iterator:
    """A csv reader of ``source``; bytes that are not UTF-8 and text the csv
    module cannot split raise a ValueError naming the file and the line."""
    with _opened(source) as stream:
        reader = csv.reader(stream)
        try:
            yield reader
        except csv.Error as exc:
            raise ValueError(_named(source, f"line {reader.line_num}: {exc}")) from None


@contextmanager
def _read_rows(source: PathOrStream, columns: Sequence[str]) -> Iterator:
    """(csv reader, the cells in ``columns`` order of each non-blank row, drawn
    by C iterators); the reader's line_num is the line of the row last drawn.

    Header names match case-insensitively, in any order; extra columns are
    ignored and a missing one raises a ValueError naming the file. Short rows
    read as empty cells."""
    with _csv_reader(source) as reader:
        header = next(reader, [])
        by_name = {name.strip().lower(): i for i, name in enumerate(header) if name}
        missing = [col for col in columns if col not in by_name]
        if missing:
            raise ValueError(_named(source, "missing required column(s): " + ", ".join(missing)))
        positions = [by_name[col] for col in columns]
        last = max(positions)  # a non-blank row has a cell, so ``last`` more reach every column
        padded = (row if len(row) > last else row + [""] * last for row in filter(None, reader))
        yield reader, map(operator.itemgetter(*positions), padded)


def permutation(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of range(n) driven by SplitMix64.

    Frozen on purpose: identical (seed, n) must yield identical splits on
    any platform, so the generator's stream may never change.
    """
    mask = (1 << 64) - 1
    state = seed & mask
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        j = (z ^ (z >> 31)) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def split(samples: Sequence[T], spec: SplitSpec) -> tuple[list[T], list[T]]:
    """Deterministic seeded holdout split.

    The shuffled order is a pure function of (len(samples), spec.seed); the
    first round(n * test_fraction) shuffled elements form the test set.
    """
    n = len(samples)
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    n_test = round(n * spec.test_fraction)
    order = permutation(n, spec.seed)
    test = [samples[i] for i in order[:n_test]]
    train = [samples[i] for i in order[n_test:]]
    return train, test


_LABELED_BLOCK_ROWS = 512  # per column pass; 2,048 rows were no faster and held 1 MB more at peak


def read_labeled_csv(source: PathOrStream) -> list[LabeledSample]:
    """Read a labeled CSV produced by write_labeled_csv, a block of rows at a time:
    one C-level pass per column costs less than a Python iteration per row.
    Features must be finite numbers within the range rule of check_ranges and the
    state 0 or 1; any other cell is a ValueError naming its file and the first
    bad line in file order."""
    samples: list[LabeledSample] = []
    with _read_rows(source, LABELED_COLUMNS) as (reader, rows):
        numbered = zip(rows, map(operator.attrgetter("line_num"), itertools.repeat(reader)))
        for first in numbered:  # each row with its line, read as the row is drawn
            block = [first]
            try:  # extend keeps the rows drawn before a failed read ...
                block.extend(itertools.islice(numbered, _LABELED_BLOCK_ROWS - 1))
            finally:  # ... so a bad one among them is named first, as row by row
                samples += _block_samples(source, block)
    return samples


def _block_samples(source: PathOrStream, block: list) -> list[LabeledSample]:
    """Samples of ``block``, (cells, line) rows; a bad row raises, naming its line."""
    *texts, states = zip(*map(operator.itemgetter(0), block))  # the block's 7 columns
    with suppress(ValueError):  # a bad cell or a value out of range
        columns = [list(map(float, text)) for text in texts]
        if all(map(math.isfinite, itertools.chain(*columns))) and {*states} <= {"0", "1"}:
            for bound in (min, max):  # all rows are in range iff each column's extremes are
                check_ranges([*map(bound, columns)])
            return list(map(tuple.__new__, itertools.repeat(LabeledSample),  # checks done above
                            zip(zip(*columns), map({"0": 0, "1": 1}.__getitem__, states))))
    samples = []  # a row fails, or spells a state as " 1" or "01": check row by row
    for cells, line in block:
        try:
            features = tuple(map(float, cells[:-1]))
            if not all(map(math.isfinite, features)):
                raise ValueError(f"non-finite feature in {cells[:-1]}")
            check_ranges(features)
            samples.append(LabeledSample(features, int(cells[-1])))
        except ValueError as exc:
            raise ValueError(_named(source, f"labeled CSV line {line}: {exc}")) from None
    return samples


@contextmanager
def _opened(source: PathOrStream) -> Iterator[IO[str]]:
    """Open a path for reading, pass a stream through unchanged.

    A path read drops one leading UTF-8 byte-order mark. Bytes that are not
    UTF-8 raise a ValueError naming the file and, for a path, the line of the
    first such byte.
    """
    is_path = isinstance(source, (str, Path))
    try:
        if is_path:
            with open(source, encoding="utf-8-sig", newline="") as stream:
                yield stream
        else:
            yield source
    except UnicodeDecodeError as exc:
        message = str(exc)
        if is_path:  # exc.start counts from the reader's chunk: find the byte in the file
            try:
                Path(source).read_bytes().decode("utf-8")
            except UnicodeDecodeError as whole:
                line = whole.object.count(b"\n", 0, whole.start) + 1
                message = (f"line {line}: 'utf-8' codec can't decode byte "
                           f"0x{whole.object[whole.start]:02x}: {whole.reason}")
        raise ValueError(_named(source, message)) from None


def _named(source: PathOrStream, message: str) -> str:
    """``message`` after the file name of ``source``, if it has one."""
    name = source if isinstance(source, (str, Path)) else getattr(source, "name", None)
    return message if name is None else f"{name}: {message}"
