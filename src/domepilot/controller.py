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
import math
import socket
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Callable, NamedTuple, Optional, Sequence

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
    _read_rows,
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

#: Seconds a ``tcp:`` sink may take to connect or to accept one wire line; a
#: peer that stops reading then fails that frame's delivery, and the sink
#: drops the connection, instead of blocking the loop.
TCP_TIMEOUT_S = 5.0

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
        if type(self.dome) is not int or self.dome not in (0, 1):
            raise ValueError(f"dome must be the int 0 or 1, got {self.dome!r}")
        if self.cause not in CAUSES:
            raise ValueError(f"unknown cause {self.cause!r}")

    @property
    def ac(self) -> int:
        """1 = on, 0 = off: the AC runs exactly when the dome is closed."""
        return 1 - self.dome


# Commands are frozen, so decide hands out these shared instances.
_CLOSED = {cause: DomeCommand(0, cause) for cause in CAUSES}
_OPEN = DomeCommand(1, CAUSE_MODEL)


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
        return _CLOSED[CAUSE_RAIN if rain_detected else CAUSE_MODEL_ERROR], None, exc
    prediction = int(output)
    if rain_detected:
        command = _CLOSED[CAUSE_RAIN]
    elif not TEMP_OPEN_LOW < temp < TEMP_OPEN_HIGH:
        command = _CLOSED[CAUSE_TEMP]
    else:
        command = _OPEN if prediction else _CLOSED[CAUSE_MODEL]
    return command, prediction, None


#: The wire line of each dome bit, ``D:<dome> A:<ac>`` with ``ac = 1 - dome``.
_WIRE_LINES = ("D:0 A:1\n", "D:1 A:0\n")


def emit_signal(command: DomeCommand, sink: IO[str]) -> str:
    """Write exactly one wire line for the command; returns the line sent.

    A failing sink raises SignalDeliveryError; nothing else changes, so the
    caller may simply try again on the next frame (a ``tcp:`` sink that
    failed once fails every later frame too).
    """
    line = _WIRE_LINES[command.dome]
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


class LogEntry(NamedTuple):
    frame: SensorFrame
    command: DomeCommand
    prediction: Optional[int]  # None when the condition is unmapped or the model failed

    def as_dict(self) -> dict:
        return {"tick": self.frame.tick,
                "features": list(self.frame.observation.features()),
                "prediction": self.prediction,
                "dome": self.command.dome,
                "ac": self.command.ac,
                "cause": self.command.cause}


_JSON = json.JSONEncoder(sort_keys=True)


def _jsonl_line(entry: LogEntry) -> str:
    """``json.dumps(entry.as_dict(), sort_keys=True)`` plus a newline.

    Entries whose fields all print the same through ``repr`` as through
    json (int tick, 0/1/None prediction, finite plain floats) are
    formatted directly; any other goes through the encoder.
    """
    tick, command, prediction = entry.frame.tick, entry.command, entry.prediction
    features = entry.frame.observation.features()
    if (type(tick) is int
            and (prediction is None or (type(prediction) is int and prediction in (0, 1)))
            and all(type(v) is float and math.isfinite(v) for v in features)):
        return (f'{{"ac": {command.ac}, "cause": "{command.cause}", '
                f'"dome": {command.dome}, "features": [{", ".join(map(repr, features))}], '
                f'"prediction": {"null" if prediction is None else prediction}, '
                f'"tick": {tick}}}\n')
    return _JSON.encode(entry.as_dict()) + "\n"


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
            stream.writelines(map(_jsonl_line, self.entries))


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
    # tuple.__new__ skips the Python-level __new__ of the NamedTuple.
    new_entry = tuple.__new__
    last_tick = None
    faults = undelivered = 0
    first_fault: Optional[Exception] = None
    first_undelivered: Optional[SignalDeliveryError] = None
    for frame in frames:
        tick = frame.tick
        if last_tick is not None and tick <= last_tick:
            raise ValueError(f"frame ticks must be strictly increasing, "
                             f"got {tick} after {last_tick}")
        last_tick = tick
        observation = frame.observation
        if observation.condition not in table:
            command, prediction = _CLOSED[CAUSE_UNMAPPED], None
        else:
            command, prediction, fault = decide(
                model_predict_fn, observation.features(),
                frame.rain_detected, observation.temp)
            if fault is not None:
                faults += 1
                first_fault = first_fault or fault
        if sink is not None:
            try:
                emit_signal(command, sink)
            except SignalDeliveryError as exc:
                undelivered += 1
                first_undelivered = first_undelivered or exc
        entries.append(new_entry(LogEntry, (frame, command, prediction)))
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
    rows = (cells for _, cells in _read_rows(source, FRAME_COLUMNS))
    return _clean_rows(rows, lambda cells: SensorFrame(
        observation=_observation_from_row(cells), rain_detected=_parse_rain(cells[-1]),
        tick=next(ticks)))


def _parse_rain(text: str) -> bool:
    value = text.strip().lower()
    if value in ("0", "false", "no"):
        return False
    if value in ("1", "true", "yes"):
        return True
    raise _RowRejected("bad_rain")


class _TcpSink:
    """A ``tcp:`` actuator sink that sends each wire line unbuffered.

    The first failed send drops the connection and every later write fails,
    so no line counted undelivered, nor a later one, can reach the peer
    afterwards out of order. A send that times out queued nothing, and the
    socket is closed normally: lines sent before still arrive, then EOF. A
    send the kernel took only part of resets the connection instead, which
    discards what is still queued for the peer, the partial line included.
    """

    def __init__(self, conn: socket.socket):
        self._conn: Optional[socket.socket] = conn

    def write(self, text: str) -> int:
        conn = self._conn
        if conn is None:
            raise OSError("tcp sink connection dropped after an earlier send failure")
        data = text.encode("ascii")
        try:
            sent = conn.send(data)
        except OSError:
            self._drop(reset=False)
            raise
        if sent < len(data):
            self._drop(reset=True)
            raise OSError(f"tcp sink took only {sent} of {len(data)} bytes")
        return sent

    def _drop(self, reset: bool) -> None:
        conn, self._conn = self._conn, None
        if reset:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.close()


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
        with socket.create_connection((host, int(port)), timeout=TCP_TIMEOUT_S) as conn:
            yield _TcpSink(conn)
        return
    with open(spec, "w", encoding="ascii", newline="") as stream:
        yield stream
