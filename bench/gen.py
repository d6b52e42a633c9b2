"""Seeded input generator for the domepilot benchmark.

Writes a raw weather CSV in the Kaggle export schema and a frames CSV (the
same schema plus a ``rain`` column), and returns the ground truth the
oracles check the program's outputs against. The same seed gives
byte-identical files; the program only ever sees the files.

Why each property exists:

* All 36 table conditions occur, and ``NOISE_SHARE`` of them are drawn
  independently of the features, as real descriptions are. The label is
  then not a function of the six features, so the tree keeps finding
  splits and fills its 50-leaf budget instead of stopping at a handful.
* About 1 % of rows carry a condition missing from the table, so
  ``prepare`` rejects them and the controller closes with
  ``unmapped_condition``; the exact count is predicted here.
* About 1 % of rows are malformed (bad date, bad time, non-numeric cell,
  out-of-range humidity, bad rain flag), so the row cleaner's reject path
  runs; again the count is predicted here.
* Cells are messy the way exports are: unit suffixes (``21 °c``,
  ``7 km/h``, ``1012 mbar``), ``%`` humidity, ``am/pm`` times, several
  date formats, ``calm`` wind and odd condition case and spacing. This
  keeps the parser's slow paths in the measured work.
* A block of rows shares one feature vector. More of them than k land in
  the k-NN training set, so distance ties fall at the k-th neighbour. Their
  labels are laid out along the k-NN training order (a frozen copy of the
  README's split): the k lowest-index block rows vote open and the k
  highest-index ones vote closed. A query at the block's vector is then
  predicted open only under the (distance, training index) tie rule, and
  any other tie rule changes its prediction, for every seed.
* Features are integers, whole percents and whole millibars, as in the
  Kaggle export, so exact distance ties are common everywhere.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Optional

#: Frozen copy of the 36-entry condition table, (condition, open flag).
CONDITIONS = (
    ("Clear", 1), ("Sunny", 0), ("Passing clouds", 1), ("Low level haze", 1),
    ("Scattered clouds", 1), ("Partly sunny", 1), ("Broken clouds", 1),
    ("Duststorm", 0), ("Sandstorm", 0), ("Pleasantly warm", 1),
    ("Thunderstorms passing clouds", 1), ("Thunderstorms partly sunny", 1),
    ("Thundershowers", 1), ("Mostly cloudy", 1), ("Thunderstorms Broken clouds", 1),
    ("Thunderstorms Scattered clouds", 1), ("Extremely hot", 0), ("Mild", 1),
    ("Thunderstorms Partly clouds", 1), ("Rain Partly cloudy", 0),
    ("Rain Scattered clouds", 0), ("Rain Broken clouds", 0), ("Haze", 1),
    ("Overcast", 1), ("Dense fog", 1), ("Rain passing clouds", 0),
    ("Rain Mostly cloudy", 0), ("Rain Partly sunny", 0), ("Fog", 1),
    ("Hail Partly sunny", 0), ("Thundershowers passing clouds", 1),
    ("More clouds than sun", 1), ("Thunderstorms more clouds than sun", 1),
    ("Thunderstorms", 1), ("Partly cloudy", 1), ("Hail", 0),
)
FLAGS = {" ".join(c.split()).casefold(): f for c, f in CONDITIONS}
TEMP_OPEN_LOW, TEMP_OPEN_HIGH = 16.0, 27.0

_OPEN = tuple(c for c, f in CONDITIONS if f == 1)
_CLOSED = tuple(c for c, f in CONDITIONS if f == 0)
UNMAPPED = ("Light drizzle", "Volcanic ash", "Blizzard", "Freezing rain", "Smoke")

#: Column order of the Kaggle Saudi hourly export; the program ignores the
#: extra date-part columns.
KAGGLE_COLUMNS = ("city", "date", "time", "year", "month", "day", "hour",
                  "minute", "weather", "temp", "wind", "humidity",
                  "barometer", "visibility")

CITY = "Al Madina"
NOISE_SHARE = 0.35
UNMAPPED_SHARE = 0.01
MALFORMED_SHARE = 0.01
RAIN_SHARE = 0.10
#: The k-NN split of the labeled rows, (test fraction, seed), as the README fixes it.
KNN_SPLIT = (0.30, 101)
#: (temp, wind, humidity %, hour, visibility, barometer) of that block.
DUPLICATE_CELLS = (22, 7, 40, 14, 16, 1012)
DUPLICATE_FEATURES = (22.0, 7.0, 0.4, 14.0, 16.0, 1012.0)


@dataclass(frozen=True)
class Row:
    """Ground truth of one generated row.

    ``kind`` is ``ok``, ``unmapped`` or ``malformed``; malformed rows have
    no features. ``rain`` is None in the raw dataset.
    """

    kind: str
    features: Optional[tuple[float, ...]]
    condition: str
    rain: Optional[bool] = None

    @property
    def label(self) -> int:
        """Condition flag gated to the open temperature interval."""
        flag = FLAGS[" ".join(self.condition.split()).casefold()]
        return int(flag == 1 and TEMP_OPEN_LOW < self.features[0] < TEMP_OPEN_HIGH)


def _condition_for(rng: random.Random, temp: int, vis: int, baro: int, hour: int) -> str:
    """A plausible description for the features, or a random one."""
    if rng.random() < NOISE_SHARE:
        return rng.choice(CONDITIONS)[0]
    if vis <= 3:
        return rng.choice(("Duststorm", "Sandstorm"))
    if vis <= 8:
        return rng.choice(("Haze", "Low level haze", "Dense fog", "Fog"))
    if baro < 1006:
        return rng.choice(("Rain passing clouds", "Rain Partly cloudy", "Thunderstorms",
                           "Thundershowers", "Rain Mostly cloudy", "Hail"))
    if temp >= 38:
        return rng.choice(("Extremely hot", "Sunny"))
    if 18 <= temp <= 26 and 9 <= hour <= 18:
        return rng.choice(("Pleasantly warm", "Mild", "Partly sunny"))
    if hour < 6 or hour > 20:
        return rng.choice(("Clear", "Passing clouds", "Scattered clouds"))
    return rng.choice(("Broken clouds", "Mostly cloudy", "Overcast", "Partly cloudy",
                       "More clouds than sun", "Clear", "Sunny"))


def _features(rng: random.Random, hour: int) -> tuple[int, int, int, int, int]:
    """(temp °C, wind km/h, humidity %, visibility km, barometer mbar)."""
    temp = int(round(24 + 9 * rng.uniform(-1, 1) + (5 if 11 <= hour <= 17 else -3)))
    temp = min(max(temp, 4), 46)
    wind = rng.choice((0, 0, 2, 4, 6, 7, 9, 11, 13, 15, 19, 24, 30))
    humidity = rng.randint(4, 95)
    vis = rng.choices((16, 12, 10, 8, 6, 4, 2, 1), weights=(60, 10, 8, 6, 5, 5, 4, 2))[0]
    baro = rng.randint(998, 1024)
    return temp, wind, humidity, vis, baro


def _date_cell(rng: random.Random, year: int, month: int, day: int) -> str:
    fmt = rng.randrange(4)
    if fmt == 0:
        return f"{year:04d}-{month:02d}-{day:02d}"
    if fmt == 1:
        return f"{day:02d}/{month:02d}/{year:04d}"
    if fmt == 2:
        return f"{day}.{month}.{year}"
    return f"{year}/{month}/{day}"


def _time_cell(rng: random.Random, hour: int) -> str:
    if rng.random() < 0.5:
        return f"{hour:02d}:00"
    twelve = hour % 12 or 12
    return f"{twelve}:00 {'am' if hour < 12 else 'pm'}"


def _number_cell(rng: random.Random, value: int, units: tuple[str, ...]) -> str:
    style = rng.randrange(3)
    if style == 0:
        return str(value)
    if style == 1:
        return f"{value} {rng.choice(units)}"
    return f"{value}{rng.choice(units)}"


def _wind_cell(rng: random.Random, wind: int) -> str:
    if wind == 0:
        return rng.choice(("calm", "No wind", "0", "0 km/h"))
    return _number_cell(rng, wind, ("km/h",))


def _humidity_cell(rng: random.Random, pct: int) -> str:
    style = rng.randrange(3)
    if style == 0 or pct <= 1:
        return f"{pct}%"
    if style == 1:
        return str(pct)
    return repr(pct / 100)


def _condition_cell(rng: random.Random, condition: str) -> str:
    style = rng.randrange(6)
    if style == 0:
        return condition.lower()
    if style == 1:
        return "  " + condition.upper() + " "
    if style == 2:
        return condition.replace(" ", "  ")
    return condition


_MALFORMED_KINDS = ("date", "time", "temp", "humidity", "barometer")


def _malform(rng: random.Random, cells: dict) -> None:
    kind = rng.choice(_MALFORMED_KINDS)
    if kind == "date":
        cells["date"] = rng.choice(("2017-13-45", "31/31/2017", "yesterday"))
    elif kind == "time":
        cells["time"] = rng.choice(("27:00", "13:00 pm", "noon"))
    elif kind == "temp":
        cells["temp"] = rng.choice(("n/a", "", "hot"))
    elif kind == "humidity":
        cells["humidity"] = rng.choice(("250%", "-4%"))
    else:
        cells["barometer"] = rng.choice(("-1012", "0 mbar"))


def _rows(seed: int, n: int, with_rain: bool) -> tuple[list[dict], list[Row]]:
    rng = random.Random(seed)
    # ~1.4 % of 20,000 rows; about 0.7 of them reach the k-NN training set,
    # well over k ~ sqrt(0.7 n) at every size.
    block = 2 * math.isqrt(n)
    block_start = rng.randrange(0, max(n - block, 1))
    cells_out, truth = [], []
    for i in range(n):
        year, day_of_year, hour = 2017 + i // 8760, (i // 24) % 365, i % 24
        month, day = 1 + day_of_year // 31 % 12, 1 + day_of_year % 28
        if block_start <= i < block_start + block:
            temp, wind, hum_pct, hour, vis, baro = DUPLICATE_CELLS
            # Training rows of the block get their labels in _arrange_block.
            condition = rng.choice(_OPEN if rng.random() < 0.5 else _CLOSED)
        else:
            temp, wind, hum_pct, vis, baro = _features(rng, hour)
            condition = _condition_for(rng, temp, vis, baro, hour)
        rain = None
        if with_rain:
            rain = rng.random() < RAIN_SHARE
        draw = rng.random()
        kind = "ok"
        if draw < MALFORMED_SHARE:
            kind = "malformed"
        elif draw < MALFORMED_SHARE + UNMAPPED_SHARE:
            kind = "unmapped"
            condition = rng.choice(UNMAPPED)
        cells = {
            "city": CITY, "date": _date_cell(rng, year, month, day),
            "time": _time_cell(rng, hour), "year": str(year), "month": str(month),
            "day": str(day), "hour": str(hour), "minute": "0",
            "weather": _condition_cell(rng, condition),
            "temp": _number_cell(rng, temp, ("°c", "°C", "c")),
            "wind": _wind_cell(rng, wind),
            "humidity": _humidity_cell(rng, hum_pct),
            "barometer": _number_cell(rng, baro, ("mbar",)),
            "visibility": _number_cell(rng, vis, ("km",)),
        }
        if with_rain:
            cells["rain"] = rng.choice(("1", "yes", "true") if rain else ("0", "0", "no"))
        features = None
        if kind == "malformed":
            if with_rain and rng.random() < 0.2:
                cells["rain"] = "maybe"
            else:
                _malform(rng, cells)
        else:
            features = (float(temp), float(wind), hum_pct / 100, float(hour),
                        float(vis), float(baro))
        cells_out.append(cells)
        truth.append(Row(kind=kind, features=features, condition=condition, rain=rain))
    if not with_rain:
        _arrange_block(cells_out, truth)
    return cells_out, truth


def split_order(n: int, seed: int) -> list[int]:
    """Frozen SplitMix64-driven Fisher-Yates order, as the README specifies."""
    mask = (1 << 64) - 1
    state = seed & mask
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        j = (z ^ (z >> 31)) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def default_k(n: int) -> int:
    """The odd k nearest sqrt(n), as ``train --k auto`` chooses it."""
    k = math.isqrt(n)
    return max(k - 1 if k % 2 == 0 else k, 1)


def _arrange_block(cells: list[dict], truth: list[Row]) -> None:
    """Label the block's k-NN training rows so the tie rule decides its vote.

    With m > k block rows in training order, the first m - k + (k - 1) // 2
    are open and the rest closed: the k lowest-index rows hold a majority
    of open rows and the k highest-index rows a minority.
    """
    labeled = [i for i, row in enumerate(truth) if row.kind == "ok"]
    order = split_order(len(labeled), KNN_SPLIT[1])
    n_test = round(len(labeled) * KNN_SPLIT[0])
    k = default_k(len(labeled) - n_test)
    block = [labeled[j] for j in order[n_test:]
             if truth[labeled[j]].features == DUPLICATE_FEATURES]
    if len(block) <= k:
        raise ValueError(f"duplicated block has {len(block)} training rows, k is {k}")
    opened = len(block) - k + (k - 1) // 2
    for rank, i in enumerate(block):
        pool = _OPEN if rank < opened else _CLOSED
        condition = pool[rank % len(pool)]
        cells[i]["weather"] = condition
        truth[i] = Row(kind="ok", features=DUPLICATE_FEATURES, condition=condition)


def _to_csv(cells: list[dict], columns: tuple[str, ...]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in cells:
        writer.writerow([row[c] for c in columns])
    return out.getvalue()


def raw_dataset(seed: int, n: int) -> tuple[str, list[Row]]:
    """Raw weather CSV text and one truth record per data row."""
    cells, truth = _rows(seed, n, with_rain=False)
    return _to_csv(cells, KAGGLE_COLUMNS), truth


def frames(seed: int, n: int) -> tuple[str, list[Row]]:
    """Frames CSV text (raw schema plus rain) and one truth record per row.

    Drawn from a stream separate from the raw dataset's, so frames are not
    copies of training rows; the duplicated-feature block recurs.
    """
    cells, truth = _rows(seed ^ 0x5EED_F4A3, n, with_rain=True)
    return _to_csv(cells, KAGGLE_COLUMNS + ("rain",)), truth

