"""Dome controller loop: sense -> predict -> gate -> override -> actuate.

The rain sensor is a hard, stateless override: any positive forces the dome
closed for that frame, whatever the model does. A model that raises or
returns anything but 0 or 1 closes the dome for that frame. The temperature
gate is re-checked at decision time as defense in depth even though the
model was trained on gated labels. A command stores only the dome bit; the
air conditioning bit is derived from it, so the AC runs exactly when the
dome is closed.

Actuator wire protocol: one newline-delimited ASCII line per decision,
``D:<0|1> A:<0|1>`` (dome, ac).
"""

from __future__ import annotations

import itertools
import json
import logging
import socket
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Callable, Optional, Sequence

from .weather import (
    RAW_COLUMNS,
    TEMP_OPEN_HIGH,
    TEMP_OPEN_LOW,
    CleaningReport,
    ConditionTable,
    PathOrStream,
    WeatherObservation,
    _clean_rows,
    _observation_from_row,
    _opened,
    _RowRejected,
)

CAUSE_MODEL = "model"
CAUSE_RAIN = "rain_override"
CAUSE_TEMP = "temp_gate"
CAUSE_UNMAPPED = "unmapped_condition"
CAUSE_MODEL_ERROR = "model_error"
CAUSES = (CAUSE_MODEL, CAUSE_RAIN, CAUSE_TEMP, CAUSE_UNMAPPED, CAUSE_MODEL_ERROR)

#: Columns of a frames CSV: the raw weather schema plus a rain flag.
FRAME_COLUMNS = RAW_COLUMNS + ("rain",)

logger = logging.getLogger(__name__)


class SignalDeliveryError(RuntimeError):
    """Writing to the actuator sink failed; safe to retry next frame."""


@dataclass(frozen=True)
class SensorFrame:
    """Current conditions plus the rain sensor, at a monotonic tick."""

    observation: WeatherObservation
    rain_detected: bool
    tick: int


@dataclass(frozen=True)
class DomeCommand:
    dome: int  # 1 = open, 0 = close
    cause: str

    def __post_init__(self):
        if self.dome not in (0, 1):
            raise ValueError(f"dome must be 0 or 1, got {self.dome!r}")
        if self.cause not in CAUSES:
            raise ValueError(f"unknown cause {self.cause!r}")

    @property
    def ac(self) -> int:
        """1 = on, 0 = off: the AC runs exactly when the dome is closed."""
        return 1 - self.dome


def decide(model_predict_fn: Callable[[Sequence[float]], int],
           features: Sequence[float], rain_detected: bool, temp: float
           ) -> tuple[DomeCommand, Optional[int], Optional[Exception]]:
    """(command, prediction, fault) for one set of sensor inputs.

    The model is always asked first. If it raises or returns anything but 0
    or 1, the dome closes with cause ``rain_override`` if it is raining,
    else ``model_error``; the prediction is then None and ``fault`` holds
    the failure. Otherwise rain closes the dome, then a temperature outside
    the open interval (TEMP_OPEN_LOW, TEMP_OPEN_HIGH) does, and only then
    does the model's prediction drive it.
    """
    try:
        output = model_predict_fn(features)
        if output not in (0, 1):
            raise ValueError(f"model returned {output!r}, not 0 or 1")
    except Exception as exc:  # any model fault closes the dome
        return DomeCommand(0, CAUSE_RAIN if rain_detected else CAUSE_MODEL_ERROR), None, exc
    prediction = int(output)
    if rain_detected:
        command = DomeCommand(0, CAUSE_RAIN)
    elif not TEMP_OPEN_LOW < temp < TEMP_OPEN_HIGH:
        command = DomeCommand(0, CAUSE_TEMP)
    else:
        command = DomeCommand(prediction, CAUSE_MODEL)
    return command, prediction, None


def emit_signal(command: DomeCommand, sink: IO[str]) -> str:
    """Write exactly one wire line for the command; returns the line sent.

    A failing sink raises SignalDeliveryError; nothing else changes, so the
    caller may simply retry on the next frame.
    """
    line = f"D:{command.dome} A:{command.ac}\n"
    try:
        sink.write(line)
        flush = getattr(sink, "flush", None)
        if flush is not None:
            flush()
    except (OSError, ValueError) as exc:  # closed files raise ValueError
        raise SignalDeliveryError(f"actuator sink write failed: {exc}") from exc
    return line


def parse_signal(line: str) -> tuple[int, int]:
    """Inverse of emit_signal: the (dome, ac) bits of one wire line."""
    body = line.rstrip("\n")
    parts = body.split(" ")
    if (len(parts) != 2 or not parts[0].startswith("D:")
            or not parts[1].startswith("A:")):
        raise ValueError(f"bad signal line {line!r}")
    dome, ac = parts[0][2:], parts[1][2:]
    if dome not in ("0", "1") or ac not in ("0", "1"):
        raise ValueError(f"bad signal line {line!r}")
    return int(dome), int(ac)


@dataclass(frozen=True)
class LogEntry:
    frame: SensorFrame
    command: DomeCommand
    prediction: Optional[int]  # None when featurization failed

    def as_dict(self) -> dict:
        return {"tick": self.frame.tick,
                "features": list(self.frame.observation.features()),
                "prediction": self.prediction,
                "dome": self.command.dome,
                "ac": self.command.ac,
                "cause": self.command.cause}


_JSON = json.JSONEncoder(sort_keys=True)


@dataclass
class DecisionLog:
    """One entry per input frame, in input order.

    ``undelivered`` counts the frames whose wire line the sink failed to take.
    """

    entries: list[LogEntry]
    undelivered: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_jsonl(self, sink: PathOrStream) -> None:
        with _opened(sink, "w") as stream:
            for entry in self.entries:
                stream.write(_JSON.encode(entry.as_dict()) + "\n")


def replay(model_predict_fn: Callable[[Sequence[float]], int],
           frames: Sequence[SensorFrame],
           table: Optional[ConditionTable] = None,
           sink: Optional[IO[str]] = None) -> DecisionLog:
    """Run the decision loop over recorded frames.

    Frames whose condition is missing from the table are decided closed with
    cause ``unmapped_condition`` (fail-safe) and keep a null prediction. A
    model fault closes its frame as decide says, and the replay goes on;
    so does a sink that raises SignalDeliveryError, whose frames the log
    counts as ``undelivered``. Each kind of failure is reported by one
    warning with its count and its first occurrence.

    Pure given its inputs: chunking the frame stream and concatenating the
    logs yields the same entries.
    """
    if len(frames) == 0:
        raise ValueError("no frames to replay")
    if table is None:
        table = ConditionTable.builtin()
    entries = []
    last_tick = None
    faults = undelivered = 0
    first_fault: Optional[Exception] = None
    first_undelivered: Optional[SignalDeliveryError] = None
    for frame in frames:
        if last_tick is not None and frame.tick <= last_tick:
            raise ValueError(f"frame ticks must be strictly increasing, "
                             f"got {frame.tick} after {last_tick}")
        last_tick = frame.tick
        prediction: Optional[int] = None
        if frame.observation.condition not in table:
            command = DomeCommand(0, CAUSE_UNMAPPED)
        else:
            command, prediction, fault = decide(
                model_predict_fn, frame.observation.features(),
                frame.rain_detected, frame.observation.temp)
            if fault is not None:
                faults += 1
                first_fault = first_fault or fault
        if sink is not None:
            try:
                emit_signal(command, sink)
            except SignalDeliveryError as exc:
                undelivered += 1
                first_undelivered = first_undelivered or exc
        entries.append(LogEntry(frame=frame, command=command, prediction=prediction))
    if faults:
        logger.warning("model failed on %d of %d frames, which were closed; "
                       "first failure: %s", faults, len(frames), first_fault,
                       exc_info=first_fault)
    if undelivered:
        logger.warning("actuator sink failed on %d of %d frames; first failure: %s",
                       undelivered, len(frames), first_undelivered)
    return DecisionLog(entries, undelivered)


def read_frames_csv(source: PathOrStream) -> tuple[list[SensorFrame], CleaningReport]:
    """Parse a frames CSV (raw weather schema plus ``rain`` 0/1 column).

    Ticks number the accepted frames sequentially from 0.
    """
    ticks = itertools.count()
    # The tick is drawn last, after both parses succeed, so rejected rows
    # leave no gap in the numbering.
    return _clean_rows(source, FRAME_COLUMNS, lambda cells: SensorFrame(
        observation=_observation_from_row(cells), rain_detected=_parse_rain(cells[-1]),
        tick=next(ticks)))


def _parse_rain(text: str) -> bool:
    value = text.strip().lower()
    if value in ("0", "false", "no"):
        return False
    if value in ("1", "true", "yes"):
        return True
    raise _RowRejected("bad_rain")


@contextmanager
def open_sink(spec: str):
    """Open an actuator sink: a file path, ``tcp:host:port``, or ``-`` (stdout)."""
    if spec == "-":
        yield sys.stdout
        return
    if spec.startswith("tcp:"):
        _, _, rest = spec.partition(":")
        host, sep, port = rest.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(f"bad tcp sink spec {spec!r}; expected tcp:host:port")
        with socket.create_connection((host, int(port))) as conn:
            stream = conn.makefile("w", newline="")
            try:
                yield stream
            finally:
                stream.close()
        return
    with open(spec, "w", encoding="ascii", newline="") as stream:
        yield stream
