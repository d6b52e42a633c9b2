"""Input rows, condition labeling, seeded splits and model-document field checks.

Every input CSV is read here, the frames CSV (raw weather plus rain) too.
The pipeline goes raw CSV -> WeatherObservation -> LabeledSample. A 36-entry
condition table maps each weather description to a binary open-compatibility
flag, and a temperature gate turns that flag into the final dome state:
open (1) only when the flag is 1 and the temperature lies strictly between
16 and 27 degrees C.
"""

from __future__ import annotations

import csv
import functools
import itertools
import logging
import math
import operator
import re
from collections import Counter
from contextlib import contextmanager, suppress
from datetime import date as Date
from pathlib import Path
from sys import float_info
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar, Union

logger = logging.getLogger(__name__)

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

# Entries kept by each per-cell parse memo below. Columns repeat few
# distinct cells (a 50,000-frame file holds 24-278 per numeric column), so
# parsing each once saves most of the row cost; the bound keeps a file of
# all-distinct cells from growing the memo without limit. Only results are
# kept: a cell that raises is parsed, rejected and counted every time.
_CELL_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_CELL_CACHE_SIZE)
def normalize_condition(condition: str) -> str:
    """Case-fold a condition string and collapse internal whitespace."""
    return " ".join(condition.split()).casefold()


# The built-in 36-condition table, in table order: (condition, flag).
# flag=1 means the description alone is compatible with opening the dome.
_BUILTIN_CONDITIONS = (
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


class ConditionTable:
    """Ordered mapping from weather description to a binary open flag.

    Lookup is case-insensitive with internal whitespace collapsed. The
    built-in table has exactly 36 entries; user-supplied tables may be any
    non-empty size but must be duplicate-free after normalization.
    """

    def __init__(self, pairs: Iterable[tuple[str, int]]):
        flags: dict[str, int] = {}
        for i, (condition, flag) in enumerate(pairs, start=1):
            key = normalize_condition(condition)
            if not key:
                raise ValueError(f"entry {i}: empty condition string")
            if flag not in (0, 1):  # before int(), which would turn 0.5 into 0
                raise ValueError(f"entry {i}: flag must be 0 or 1, got {flag!r}")
            if key in flags:
                raise ValueError(f"entry {i}: duplicate condition {condition!r}")
            flags[key] = int(flag)
        if not flags:
            raise ValueError("condition table is empty")
        self._flags = flags

    def __len__(self) -> int:
        return len(self._flags)

    def __contains__(self, condition: str) -> bool:
        return normalize_condition(condition) in self._flags

    def flag(self, condition: str) -> int:
        try:
            return self._flags[normalize_condition(condition)]
        except KeyError:
            raise LookupError(f"unmapped weather condition: {condition!r}") from None

    @classmethod
    def builtin(cls) -> "ConditionTable":
        """The shipped 36-entry table."""
        return cls(_BUILTIN_CONDITIONS)

    @classmethod
    def from_csv(cls, source: PathOrStream) -> "ConditionTable":
        """Load a user override table from ``condition,flag`` lines; blank
        lines and ``condition,flag`` header lines (any case) are skipped."""
        with _csv_reader(source) as reader:  # read first: its errors are named already
            rows = [(reader.line_num, row) for row in reader]
        line = 0

        def pairs() -> Iterator[tuple[str, int]]:
            nonlocal line
            for line, row in rows:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ValueError(f"expected 'condition,flag' line, got {row!r}")
                cond, flag = row[0].strip(), row[1].strip()
                if (cond.casefold(), flag.casefold()) == ("condition", "flag"):
                    continue
                try:
                    yield cond, int(flag)
                except ValueError:
                    raise ValueError(f"bad flag {flag!r} for condition {cond!r}") from None
            line = 0  # past the last line, so an empty table names no line

        try:
            return cls(pairs())
        except ValueError as exc:
            raise ValueError(_named(source, f"line {line}: {exc}" if line else str(exc))) from None


def derive_state(flag: int, temp: float) -> int:
    """Final dome state: 1 iff ``flag`` is 1 and TEMP_OPEN_LOW < temp < TEMP_OPEN_HIGH.

    Both boundaries are excluded (closed at exactly 16 and 27 degrees).
    """
    return 1 if flag == 1 and TEMP_OPEN_LOW < temp < TEMP_OPEN_HIGH else 0


def check_ranges(hour: float, humidity: float, barometer: float, visibility: float) -> None:
    """The range rule of a reading, for CSV rows and ``predict`` flags alike:
    raise ValueError naming the first value outside its range."""
    if not 0 <= hour <= 23:
        raise ValueError(f"hour out of range: {hour}")
    if not 0.0 <= humidity <= 1.0:
        raise ValueError(f"humidity out of range: {humidity}")
    if not barometer > 0:
        raise ValueError(f"barometer must be positive: {barometer}")
    if visibility < 0:
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


class _WeatherObservation(NamedTuple):
    city: str
    date: Date
    hour: int
    temp: float
    wind: float
    humidity: float
    barometer: float
    visibility: float
    condition: str


class WeatherObservation(_WeatherObservation):
    """One raw hourly weather record after per-row normalization.

    A tuple whose construction and unpickling check the values; ``_make``
    and ``_replace`` skip the checks, and the package never calls them.
    """

    __slots__ = ()

    def __new__(cls, city: str, date: Date, hour: int, temp: float, wind: float,
                humidity: float, barometer: float, visibility: float, condition: str):
        check_ranges(hour, humidity, barometer, visibility)
        if not condition.strip():
            raise ValueError("empty condition string")
        return tuple.__new__(cls, (city, date, hour, temp, wind, humidity, barometer,
                                   visibility, condition))

    def features(self) -> tuple[float, ...]:
        """Feature vector in the fixed order of FEATURE_NAMES."""
        _, _, hour, temp, wind, humidity, barometer, visibility, _ = self  # cheaper than reads by name
        return (temp, wind, humidity, float(hour), visibility, barometer)


class SensorFrame(NamedTuple):
    """Current conditions plus the rain sensor, at a monotonic tick."""

    observation: WeatherObservation
    rain_detected: bool
    tick: int


class _LabeledSample(NamedTuple):
    features: tuple[float, ...]
    label: int


class LabeledSample(_LabeledSample):
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
        return tuple.__new__(cls, (features, label))


class _SplitSpec(NamedTuple):
    test_fraction: float
    seed: int


class SplitSpec(_SplitSpec):
    """Seeded holdout split: round(n * test_fraction) samples go to test."""

    __slots__ = ()

    def __new__(cls, test_fraction: float, seed: int):
        if not 0.0 < test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        return tuple.__new__(cls, (test_fraction, seed))


class CleaningReport:
    """Row accounting for one pipeline stage: rows_read = kept + rejected."""

    def __init__(self, kept: int, reasons: Counter) -> None:
        self.kept, self.reasons, self.rejected = kept, reasons, sum(reasons.values())
        self.rows_read = kept + self.rejected

    def as_dict(self) -> dict:
        return {"rows_read": self.rows_read, "kept": self.kept, "rejected": self.rejected,
                "reasons": dict(sorted(self.reasons.items()))}


class _RowRejected(Exception):
    """Internal: a raw row failed cleaning; its one argument is the reason."""


#: Accepted date layouts, tried in this order (slash dates day-first).
_DATE_FORMATS = ("%Y-%m-%d", "%d-%m-%Y", "%d/%m/%Y", "%m/%d/%Y",
                 "%Y/%m/%d", "%d.%m.%Y")

# strptime's own field patterns, so a cell matches exactly when strptime
# would parse it with that format (\d over str takes any Unicode digit, and
# int() reads those too). The day allows a space-padded single digit.
_DATE_FIELDS = {
    "Y": r"(?P<Y>\d\d\d\d)",
    "m": r"(?P<m>1[0-2]|0[1-9]|[1-9])",
    "d": r"(?P<d>3[01]|[12]\d|0[1-9]|[1-9]| [1-9])",
}
_DATE_PATTERNS = tuple(
    re.compile(re.sub(r"%([Ymd])", lambda f: _DATE_FIELDS[f[1]], re.escape(fmt)))
    for fmt in _DATE_FORMATS)

_TIME_RE = re.compile(r"(\d{1,2})(?::(\d{1,2}))?(?::(\d{1,2}))?\s*(am|pm)?")
_NUMBER_RE = re.compile(r"\s*([-+]?\d+(?:\.\d+)?)\s*(.*)$")
_UNIT_RE = re.compile(r"[a-z°%µ/.\s]*")


@functools.lru_cache(maxsize=_CELL_CACHE_SIZE)
def _parse_date(text: str) -> Date:
    """Date of the first format in _DATE_FORMATS that reads a valid day."""
    raw = text.strip()
    for pattern in _DATE_PATTERNS:
        m = pattern.fullmatch(raw)
        if m is None:
            continue
        try:
            return Date(int(m["Y"]), int(m["m"]), int(m["d"]))
        except ValueError:  # no such day, e.g. 30/02 or year 0
            continue
    raise _RowRejected("bad_date")


@functools.lru_cache(maxsize=_CELL_CACHE_SIZE)
def _parse_hour(text: str) -> int:
    """Hour of a time cell; its minutes and seconds must be below 60."""
    m = _TIME_RE.fullmatch(text.strip().lower())
    if not m:
        raise _RowRejected("bad_time")
    hour, minutes, seconds = (int(part or 0) for part in m.group(1, 2, 3))
    meridiem = m.group(4)
    if meridiem == "am":
        hour = 0 if hour == 12 else hour
    elif meridiem == "pm":
        hour = 12 if hour == 12 else hour + 12
    if hour == 24 and minutes == seconds == 0:  # "24:00" rows are canonicalized to hour 0
        hour = 0
    if not (0 <= hour <= 23 and minutes < 60 and seconds < 60):
        raise _RowRejected("bad_time")
    return hour


@functools.lru_cache(maxsize=_CELL_CACHE_SIZE)
def _parse_number(text: str, column: str) -> float:
    """Parse a numeric cell, tolerating a short unit suffix ('21 °c', '7 km/h')."""
    raw = text.strip().lower()
    if column == "wind" and raw in ("no wind", "calm"):
        return 0.0
    m = _NUMBER_RE.match(raw)
    if not m:
        raise _RowRejected(f"bad_{column}")
    suffix = m.group(2).strip()
    if suffix and not _UNIT_RE.fullmatch(suffix):
        raise _RowRejected(f"bad_{column}")
    value = float(m.group(1))
    if not math.isfinite(value):  # more digits than a float holds
        raise _RowRejected(f"bad_{column}")
    if column == "humidity":
        if "%" in suffix or value > 1.0:
            value /= 100.0
    return value


@functools.lru_cache(maxsize=_CELL_CACHE_SIZE)
def _parse_rain(text: str) -> bool:
    value = text.strip().lower()
    if value in ("0", "false", "no"):
        return False
    if value in ("1", "true", "yes"):
        return True
    raise _RowRejected("bad_rain")


def _observation_from_row(cells: Sequence[str]) -> WeatherObservation:
    """Observation from the cells of one row, in RAW_COLUMNS order."""
    city, day, time, temp, wind, humidity, barometer, visibility, weather = cells[:9]
    try:
        return WeatherObservation(  # positional: keywords cost more than the checks
            city.strip(),
            _parse_date(day),
            _parse_hour(time),
            _parse_number(temp, "temp"),
            _parse_number(wind, "wind"),
            _parse_number(humidity, "humidity"),
            _parse_number(barometer, "barometer"),
            _parse_number(visibility, "visibility"),
            weather.strip(),
        )
    except ValueError as exc:  # invariant violations from WeatherObservation
        raise _RowRejected("invalid_values") from exc


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
        # A non-blank row has a cell, so max(positions) more reach every column.
        padded = map(operator.add, filter(None, reader), itertools.repeat([""] * max(positions)))
        yield reader, map(operator.itemgetter(*positions), padded)


T = TypeVar("T")


def _clean_rows(rows: Iterable, parse: Callable[..., T]) -> tuple[list[T], CleaningReport]:
    """``parse`` applied to each row; a row it rejects is counted, not kept."""
    kept: list[T] = []
    reasons: Counter = Counter()
    for row in rows:
        try:
            kept.append(parse(row))
        except _RowRejected as rej:
            reasons[rej.args[0]] += 1
    return kept, CleaningReport(len(kept), reasons)


def parse_dataset(source: PathOrStream) -> tuple[list[WeatherObservation], CleaningReport]:
    """Parse a raw weather CSV into observations plus a cleaning report.

    The header must name at least the RAW_COLUMNS (case-insensitive, any
    order); a missing column raises ValueError. Rows with unparsable or
    out-of-range cells are dropped and counted, never fatal. Row order is
    preserved.
    """
    with _read_rows(source, RAW_COLUMNS) as (_, rows):
        return _clean_rows(rows, _observation_from_row)


def read_frames_csv(source: PathOrStream) -> tuple[list[SensorFrame], CleaningReport]:
    """Parse a frames CSV (raw weather schema plus ``rain`` 0/1 column).

    Ticks number the accepted frames sequentially from 0.
    """
    ticks = itertools.count()
    new_frame = tuple.__new__  # SensorFrame checks nothing, so skip its __new__
    # The tick is drawn last, after both parses succeed, so rejected rows
    # leave no gap in the numbering.
    with _read_rows(source, FRAME_COLUMNS) as (_, rows):
        return _clean_rows(rows, lambda cells: new_frame(SensorFrame, (
            _observation_from_row(cells), _parse_rain(cells[-1]), next(ticks))))


def filter_city(observations: Sequence[WeatherObservation],
                city_name: str) -> list[WeatherObservation]:
    """Observations whose city matches ``city_name`` case-insensitively."""
    if not city_name.strip():
        raise ValueError("city_name must be non-empty")
    wanted = city_name.strip().casefold()
    matched = [o for o in observations if o.city.strip().casefold() == wanted]
    if not matched:
        logger.warning("no observations match city %r", city_name)
    return matched


def to_samples(observations: Sequence[WeatherObservation],
               table: ConditionTable) -> tuple[list[LabeledSample], CleaningReport]:
    """Label observations via the condition table and temperature gate.

    Rows with conditions missing from the table are rejected and counted;
    |samples| + report.rejected == |observations|.
    """
    def label(obs: WeatherObservation) -> LabeledSample:
        try:
            flag = table.flag(obs.condition)
        except LookupError:
            raise _RowRejected("unmapped_condition") from None
        return LabeledSample(obs.features(), derive_state(flag, obs.temp))

    return _clean_rows(observations, label)


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


def write_labeled_csv(samples: Iterable[LabeledSample], stream: IO[str]) -> None:
    """Write samples to ``stream`` as the canonical labeled CSV (see LABELED_COLUMNS)."""
    writer = csv.writer(stream)
    writer.writerow(LABELED_COLUMNS)
    writer.writerows((*s.features, s.label) for s in samples)


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
        _, _, humidity, hour, visibility, barometer = columns  # FEATURE_NAMES order
        if all(map(math.isfinite, itertools.chain(*columns))) and {*states} <= {"0", "1"}:
            for bound in (min, max):  # all rows are in range iff each column's extremes are
                check_ranges(bound(hour), bound(humidity), bound(barometer), bound(visibility))
            return list(map(tuple.__new__, itertools.repeat(LabeledSample),  # checks done above
                            zip(zip(*columns), map({"0": 0, "1": 1}.__getitem__, states))))
    samples = []  # a row fails, or spells a state as " 1" or "01": check row by row
    for cells, line in block:
        try:
            features = tuple(map(float, cells[:-1]))
            if not all(map(math.isfinite, features)):
                raise ValueError(f"non-finite feature in {cells[:-1]}")
            _, _, humidity, hour, visibility, barometer = features  # FEATURE_NAMES order
            check_ranges(hour, humidity, barometer, visibility)
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
