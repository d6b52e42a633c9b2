"""Raw weather rows, their condition labels and the frames CSV.

Only ``prepare``, ``simulate`` and ``predict`` run this module; ``train`` and
``evaluate`` read the labeled CSV through ``domepilot.weather`` alone. The
pipeline goes raw CSV -> WeatherObservation -> LabeledSample. A 36-entry
condition table maps each weather description to a binary open-compatibility
flag, and a temperature gate turns that flag into the final dome state:
open (1) only when the flag is 1 and the temperature lies strictly between
16 and 27 degrees C.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import re
from collections import Counter, namedtuple
from datetime import date as Date
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import _warn
from .weather import (
    FRAME_COLUMNS,
    LABELED_COLUMNS,
    RAW_COLUMNS,
    TEMP_OPEN_HIGH,
    TEMP_OPEN_LOW,
    LabeledSample,
    PathOrStream,
    T,
    _csv_reader,
    _named,
    _read_rows,
    check_ranges,
)

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


class WeatherObservation(namedtuple(
        "WeatherObservation",
        "city date hour temp wind humidity barometer visibility condition")):
    """One raw hourly weather record after per-row normalization.

    A tuple whose construction and unpickling check the values; ``_make``
    and ``_replace`` skip the checks, and the package never calls them.
    """

    __slots__ = ()

    def __new__(cls, city: str, date: Date, hour: int, temp: float, wind: float,
                humidity: float, barometer: float, visibility: float, condition: str):
        check_ranges((temp, wind, humidity, hour, visibility, barometer))
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
        _warn(__name__, "no observations match city %r", city_name)
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
        # 6 features and a 0/1 state: LabeledSample's checks hold, so skip its __new__
        return tuple.__new__(LabeledSample, (obs.features(), derive_state(flag, obs.temp)))

    return _clean_rows(observations, label)


def write_labeled_csv(samples: Iterable[LabeledSample], stream: IO[str]) -> None:
    """Write samples to ``stream`` as the canonical labeled CSV (see LABELED_COLUMNS)."""
    writer = csv.writer(stream)
    writer.writerow(LABELED_COLUMNS)
    writer.writerows((*s.features, s.label) for s in samples)
