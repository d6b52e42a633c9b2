"""Dome controller: ``decide``, ``replay``, the decision log and the actuator sinks.

Each frame goes sense -> predict -> gate -> override -> actuate; the frames
CSV is read by ``domepilot.raw``. The rain sensor is a hard, stateless
override: any positive forces the dome closed for that frame, whatever the
model does. A model that raises or returns anything but 0 or 1 closes the
dome for that frame. The temperature gate is re-checked at decision time as
defense in depth even though the model was trained on gated labels. A
command stores only the dome bit; the air conditioning bit is derived from
it, so the AC runs exactly when the dome is closed.

Actuator wire protocol: one newline-delimited ASCII line per decision,
``D:<0|1> A:<0|1>`` (dome, ac).
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from contextlib import contextmanager
from typing import IO, Callable, NamedTuple, Optional, Sequence

from . import _warn
from .raw import (
    ConditionTable,
    SensorFrame,
    read_frames_csv,  # noqa: F401  re-exported: bench/child.py parses frames through here
)
from .weather import TEMP_OPEN_HIGH, TEMP_OPEN_LOW

CAUSE_MODEL = "model"
CAUSE_RAIN = "rain_override"
CAUSE_TEMP = "temp_gate"
CAUSE_UNMAPPED = "unmapped_condition"
CAUSE_MODEL_ERROR = "model_error"
CAUSES = (CAUSE_MODEL, CAUSE_RAIN, CAUSE_TEMP, CAUSE_UNMAPPED, CAUSE_MODEL_ERROR)

#: Seconds a ``tcp:`` sink may take to connect or to accept one wire line; a
#: peer that stops reading then fails that frame's delivery, and the sink
#: drops the connection, instead of blocking the loop.
TCP_TIMEOUT_S = 5.0


class SignalDeliveryError(RuntimeError):
    """Writing to the actuator sink failed; safe to retry next frame."""


class DomeCommand(namedtuple("DomeCommand", "dome cause")):
    """One decision (``dome``: 1 = open, 0 = close); a tuple whose construction
    and unpickling check it."""

    __slots__ = ()

    def __new__(cls, dome: int, cause: str):
        if type(dome) is not int or dome not in (0, 1):
            raise ValueError(f"dome must be the int 0 or 1, got {dome!r}")
        if cause not in CAUSES:
            raise ValueError(f"unknown cause {cause!r}")
        return tuple.__new__(cls, (dome, cause))

    @property
    def ac(self) -> int:
        """1 = on, 0 = off: the AC runs exactly when the dome is closed."""
        return 1 - self.dome


# Commands are frozen, so decide hands out these shared instances.
_CLOSED = {cause: DomeCommand(0, cause) for cause in CAUSES}
_OPEN = DomeCommand(1, CAUSE_MODEL)


def decide(model_predict_fn: Callable[[Sequence[float]], int],
           features: Sequence[float], rain_detected: bool
           ) -> tuple[DomeCommand, Optional[int], Optional[Exception]]:
    """(command, prediction, fault) for one set of sensor inputs.

    The model is always asked first. If it raises or returns anything but 0
    or 1, the dome closes with cause ``rain_override`` if it is raining,
    else ``model_error``; the prediction is then None and ``fault`` holds
    the failure. Otherwise rain closes the dome, then a temperature
    ``features[0]`` (FEATURE_NAMES order) outside the open interval
    (TEMP_OPEN_LOW, TEMP_OPEN_HIGH) does, and only then does the model's
    prediction drive it.
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
    elif not TEMP_OPEN_LOW < features[0] < TEMP_OPEN_HIGH:
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


#: Each command's log line up to its features (``ac`` is DomeCommand.ac).
_LOG_HEADS = {(dome, cause): (f'{{"ac": {1 - dome}, "cause": "{cause}", '
                              f'"dome": {dome}, "features": [')
              for dome in (0, 1) for cause in CAUSES}


def _jsonl_line(entry: LogEntry) -> str:
    """``json.dumps(entry.as_dict(), sort_keys=True)`` plus a newline.

    Entries whose fields all print the same through ``repr`` as through
    json (int tick, 0/1/None prediction, finite plain floats) are
    formatted directly; any other goes through ``json.dumps``. A sum of
    finite features that overflows takes that path too, with the same bytes.
    """
    (observation, _, tick), command, prediction = entry
    t, w, h, hr, v, b = observation.features()
    if (type(tick) is int
            and (prediction is None or (type(prediction) is int and prediction in (0, 1)))
            and type(t) is type(w) is type(h) is type(hr) is type(v) is type(b) is float
            and math.isfinite(t + w + h + hr + v + b)):
        return (f'{_LOG_HEADS[command]}{t!r}, {w!r}, {h!r}, {hr!r}, {v!r}, {b!r}], '
                f'"prediction": {"null" if prediction is None else prediction}, '
                f'"tick": {tick}}}\n')
    return json.dumps(entry.as_dict(), sort_keys=True) + "\n"


class DecisionLog(list):
    """The LogEntry of each input frame, in input order; logs compare by entries.

    ``undelivered`` counts the frames whose wire line the sink failed to take.
    """

    undelivered = 0

    def to_jsonl(self, stream: IO[str]) -> None:
        stream.writelines(map(_jsonl_line, self))


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
    mapped = table.__contains__
    log = DecisionLog()
    # tuple.__new__ skips the Python-level __new__ of the NamedTuple.
    new_entry = tuple.__new__
    last_tick = None
    faults = undelivered = 0
    first_fault: Optional[Exception] = None
    first_undelivered: Optional[SignalDeliveryError] = None
    # Each frame is unpacked once: CPython does not specialize reads of
    # NamedTuple fields by name.
    for frame in frames:
        observation, rain_detected, tick = frame
        if last_tick is not None and tick <= last_tick:
            raise ValueError(f"frame ticks must be strictly increasing, "
                             f"got {tick} after {last_tick}")
        last_tick = tick
        if not mapped(observation.condition):
            command, prediction = _CLOSED[CAUSE_UNMAPPED], None
        else:
            command, prediction, fault = decide(
                model_predict_fn, observation.features(), rain_detected)
            if fault is not None:
                faults += 1
                first_fault = first_fault or fault
        if sink is not None:
            try:
                emit_signal(command, sink)
            except SignalDeliveryError as exc:
                undelivered += 1
                first_undelivered = first_undelivered or exc
        log.append(new_entry(LogEntry, (frame, command, prediction)))
    if faults:
        _warn(__name__, "model failed on %d of %d frames, which were closed; "
              "first failure: %s", faults, len(frames), first_fault)
    if undelivered:
        _warn(__name__, "actuator sink failed on %d of %d frames; first failure: %s",
              undelivered, len(frames), first_undelivered)
    log.undelivered = undelivered
    return log


class _FileSink:
    """A path actuator sink: each wire line is one unbuffered write.

    Nothing is buffered, so a write that raises or is short leaves its line
    undelivered for good: no later write sends it, late and out of order;
    after one that took part of a line, every later write fails as well.
    """

    def __init__(self, raw):
        self._raw = raw  # a file opened in binary mode with buffering=0, None once cut

    def write(self, text: str) -> int:
        if self._raw is None:
            raise OSError("file sink cut off after an earlier partial write")
        data = text.encode("ascii")
        written = self._raw.write(data)
        if written != len(data):  # None: a non-blocking file took nothing
            if written:  # no later line may follow the partial one in the file
                self._raw = None
            raise OSError(f"file sink took only {written or 0} of {len(data)} bytes")
        return written


class _TcpSink:
    """A ``tcp:`` actuator sink that sends each wire line unbuffered.

    The first failed send drops the connection and every later write fails,
    so no line counted undelivered, nor a later one, can reach the peer
    afterwards out of order. A send that times out queued nothing, and the
    socket is closed normally: lines sent before still arrive, then EOF. A
    send the kernel took only part of resets the connection instead, which
    discards what is still queued for the peer, the partial line included.
    """

    def __init__(self, conn):
        self._conn = conn  # a connected socket, None once dropped

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
            import socket  # only a tcp: sink needs these two
            import struct
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.close()


@contextmanager
def open_sink(spec: str):
    """Open an actuator sink: a file path, ``tcp:host:port``, or ``-`` (stdout)."""
    if spec == "-":
        yield sys.stdout
        return
    is_tcp = spec.startswith("tcp:")
    try:
        if is_tcp:
            _, _, rest = spec.partition(":")
            host, sep, port = rest.rpartition(":")
            # The OS would take a port above 65535 modulo 65536: another port.
            if not sep or not host or not port.isdecimal() or not 0 < int(port) < 65536:
                raise ValueError(f"bad tcp sink spec {spec!r}; expected tcp:host:port "
                                 f"with a port from 1 to 65535")
            import socket  # here, so that no other sink pays for its import
            resource = socket.create_connection((host, int(port)), timeout=TCP_TIMEOUT_S)
        else:
            resource = open(spec, "wb", buffering=0)
    except OSError as exc:  # opening or connecting; errors in the block pass as they are
        raise OSError(f"actuator sink {spec}: {exc}") from None
    with resource:
        yield (_TcpSink if is_tcp else _FileSink)(resource)
