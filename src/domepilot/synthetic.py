"""Synthetic hourly weather whose dome state is fully determined by features.

The condition string is a deterministic function of (visibility, barometer)
buckets, so after labeling, the state is a deterministic function of the six
features alone: both classifiers can in principle reach perfect accuracy.
Value clusters mimic real hourly records (integer temperatures, visibility
mostly at the sensor ceiling, pressure regimes).
"""

from __future__ import annotations

import csv
from datetime import date, timedelta
from typing import IO, Optional, Sequence

import numpy as np

from .raw import SensorFrame, WeatherObservation
from .weather import FRAME_COLUMNS, RAW_COLUMNS


def bucket_condition(visibility: float, barometer: float) -> str:
    """Condition description from (visibility, barometer) buckets."""
    if visibility < 5:
        return "Duststorm"            # flag 0
    if visibility < 10:
        return "Haze"                 # flag 1
    if barometer < 1005:
        return "Rain passing clouds"  # flag 0
    if barometer < 1020:
        return "Passing clouds"       # flag 1
    return "Clear"                    # flag 1


def synthetic_observations(n: int, seed: int = 20170101,
                           city: str = "Al Madina") -> list[WeatherObservation]:
    """n hourly observations starting 2017-01-01 00:00."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    temps = rng.integers(6, 41, size=n)
    winds = rng.integers(0, 26, size=n)
    humidities = np.round(rng.uniform(0.05, 0.95, size=n), 2)

    # Visibility clusters: clear-ish, hazy, dust events. The deliberate gaps
    # around 5 and 10 km mirror how bucketized sensor readings cluster.
    vis_kind = rng.choice(3, size=n, p=(0.70, 0.15, 0.15))
    visibilities = np.select(
        [vis_kind == 0, vis_kind == 1, vis_kind == 2],
        [rng.integers(11, 17, size=n).astype(float),
         rng.integers(6, 10, size=n).astype(float),
         rng.integers(1, 5, size=n).astype(float)],
    )

    # Pressure regimes: stormy lows, ordinary mid, strong highs.
    baro_kind = rng.choice(3, size=n, p=(0.15, 0.45, 0.40))
    barometers = np.select(
        [baro_kind == 0, baro_kind == 1, baro_kind == 2],
        [np.round(rng.uniform(995.0, 1003.0, size=n), 1),
         np.round(rng.uniform(1007.0, 1018.0, size=n), 1),
         np.round(rng.uniform(1022.0, 1035.0, size=n), 1)],
    )

    start = date(2017, 1, 1)
    observations = []
    for i in range(n):
        observations.append(WeatherObservation(
            city=city,
            date=start + timedelta(days=i // 24),
            hour=i % 24,
            temp=float(temps[i]),
            wind=float(winds[i]),
            humidity=float(humidities[i]),
            barometer=float(barometers[i]),
            visibility=float(visibilities[i]),
            condition=bucket_condition(float(visibilities[i]), float(barometers[i])),
        ))
    return observations


def synthetic_frames(n: int, seed: int = 20170101, rain_rate: float = 0.1,
                     city: str = "Al Madina") -> list[SensorFrame]:
    """Sensor frames over synthetic observations with random rain positives."""
    observations = synthetic_observations(n, seed=seed, city=city)
    rng = np.random.default_rng(seed + 1)
    rain = rng.random(n) < rain_rate
    return [SensorFrame(observation=obs, rain_detected=bool(rain[i]), tick=i)
            for i, obs in enumerate(observations)]


def to_raw_csv(observations: Sequence[WeatherObservation], sink: IO[str],
               rain: Optional[Sequence[bool]] = None) -> None:
    """Write observations in the raw input schema; add a rain column if given."""
    columns = FRAME_COLUMNS if rain is not None else RAW_COLUMNS
    writer = csv.writer(sink)
    writer.writerow(columns)
    for i, obs in enumerate(observations):
        row = [obs.city, obs.date.isoformat(), f"{obs.hour:02d}:00",
               repr(obs.temp), repr(obs.wind), repr(obs.humidity),
               repr(obs.barometer), repr(obs.visibility), obs.condition]
        if rain is not None:
            row.append(int(bool(rain[i])))
        writer.writerow(row)
